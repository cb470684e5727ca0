//! LiDAR model: object-level returns with class-dependent range limits.
//!
//! The paper's key fusion asymmetry (§VI-C) is that "LiDAR-based object
//! detection fails to register pedestrians at a higher longitudinal distance,
//! while recognizing vehicles at the same distance". The model reproduces
//! that: vehicles return solidly out to ~80 m, pedestrians only to ~25 m,
//! with a soft detection-probability rolloff near each limit.

use av_simkit::actor::{ActorKind, Size};
use av_simkit::math::Vec2;
use av_simkit::rng;
use av_simkit::world::World;
use rand::Rng;

/// One object-level LiDAR return (a clustered point-cloud segment).
///
/// Deliberately carries **no actor identity and no class label**: clustering
/// yields geometry only, and the fusion stage must associate returns with
/// camera tracks itself, exactly the disagreement the attack exploits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LidarObject {
    /// Measured object center in world coordinates (m).
    pub position: Vec2,
    /// Measured footprint size (length, width) in meters.
    pub extent: (f64, f64),
}

/// A full LiDAR sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LidarScan {
    /// Sweep completion time (s).
    pub t: f64,
    /// Clustered object returns.
    pub objects: Vec<LidarObject>,
}

/// LiDAR sensor model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lidar {
    /// Range (m) out to which vehicles return reliably.
    pub vehicle_range: f64,
    /// Range (m) out to which pedestrians return reliably.
    ///
    /// Small targets stop clustering reliably much earlier than vehicles —
    /// this constant is what makes pedestrians camera-only at the distances
    /// where DS-2/DS-4 play out.
    pub pedestrian_range: f64,
    /// Width of the soft rolloff band before each range limit (m).
    pub rolloff: f64,
    /// 1σ position noise per axis (m).
    pub position_noise: f64,
}

impl Default for Lidar {
    fn default() -> Self {
        Lidar {
            vehicle_range: 80.0,
            pedestrian_range: 25.0,
            rolloff: 5.0,
            position_noise: 0.1,
        }
    }
}

impl Lidar {
    /// Reliable range for a class.
    pub fn range_for(&self, kind: ActorKind) -> f64 {
        if kind.is_vehicle() {
            self.vehicle_range
        } else {
            self.pedestrian_range
        }
    }

    /// Probability that an object of `kind` at `range` meters produces a
    /// clustered return: 1 inside the reliable range, linear rolloff to 0
    /// across the rolloff band.
    pub fn detection_probability(&self, kind: ActorKind, range: f64) -> f64 {
        let limit = self.range_for(kind);
        if range <= limit {
            1.0
        } else if range >= limit + self.rolloff {
            0.0
        } else {
            1.0 - (range - limit) / self.rolloff
        }
    }

    /// Produces a sweep of `world` from the ego's LiDAR.
    pub fn scan<R: Rng + ?Sized>(&self, world: &World, rng_: &mut R) -> LidarScan {
        let ego = world.ego();
        let objects = world
            .others()
            .filter_map(|actor| {
                let range = actor.pose.position.distance(ego.pose.position);
                if !rng::bernoulli(rng_, self.detection_probability(actor.kind, range)) {
                    return None;
                }
                let noise = Vec2::new(
                    rng::normal(rng_, 0.0, self.position_noise),
                    rng::normal(rng_, 0.0, self.position_noise),
                );
                let Size { length, width, .. } = actor.size;
                Some(LidarObject {
                    position: actor.pose.position + noise,
                    extent: (length, width),
                })
            })
            .collect();
        LidarScan {
            t: world.time(),
            objects,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_simkit::actor::{Actor, ActorId};
    use av_simkit::behavior::Behavior;
    use av_simkit::road::Road;
    use rand::SeedableRng;

    fn world_with_actor(kind: ActorKind, x: f64) -> World {
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 10.0, Behavior::Ego);
        let mut w = World::new(Road::default(), ego);
        w.add_actor(Actor::new(
            ActorId(1),
            kind,
            Vec2::new(x, 0.0),
            0.0,
            Behavior::Parked,
        ))
        .unwrap();
        w
    }

    #[test]
    fn vehicles_detected_far_pedestrians_not() {
        let lidar = Lidar::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w_v = world_with_actor(ActorKind::Car, 60.0);
        assert_eq!(lidar.scan(&w_v, &mut rng).objects.len(), 1);
        let w_p = world_with_actor(ActorKind::Pedestrian, 60.0);
        assert_eq!(lidar.scan(&w_p, &mut rng).objects.len(), 0);
    }

    #[test]
    fn pedestrian_detected_close() {
        let lidar = Lidar::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w = world_with_actor(ActorKind::Pedestrian, 15.0);
        assert_eq!(lidar.scan(&w, &mut rng).objects.len(), 1);
    }

    #[test]
    fn detection_probability_rolloff() {
        let lidar = Lidar::default();
        assert_eq!(lidar.detection_probability(ActorKind::Car, 50.0), 1.0);
        assert_eq!(lidar.detection_probability(ActorKind::Car, 90.0), 0.0);
        let p = lidar.detection_probability(ActorKind::Car, 82.5);
        assert!((p - 0.5).abs() < 1e-9);
        assert!(lidar.detection_probability(ActorKind::Pedestrian, 30.0) < 1e-9);
    }

    #[test]
    fn returns_are_noisy_but_close() {
        let lidar = Lidar::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let w = world_with_actor(ActorKind::Car, 40.0);
        let scan = lidar.scan(&w, &mut rng);
        let obj = scan.objects[0];
        assert!((obj.position.x - 40.0).abs() < 1.0);
        assert!(obj.position.y.abs() < 1.0);
        assert_eq!(obj.extent, (4.6, 1.9));
    }

    #[test]
    fn scan_timestamps_match_world() {
        let lidar = Lidar::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut w = world_with_actor(ActorKind::Car, 40.0);
        w.step(0.5, 0.0);
        let scan = lidar.scan(&w, &mut rng);
        assert!((scan.t - 0.5).abs() < 1e-6);
    }
}
