//! GPS/IMU model: ego state with small measurement noise.

use av_simkit::math::Vec2;
use av_simkit::rng;
use av_simkit::world::World;
use rand::Rng;

/// One GPS/IMU fix of the ego state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsImuFix {
    /// Fix time (s).
    pub t: f64,
    /// Measured ego position (m).
    pub position: Vec2,
    /// Measured ego speed (m/s).
    pub speed: f64,
    /// Measured ego longitudinal acceleration (m/s²).
    pub accel: f64,
}

/// GPS/IMU sensor model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsImu {
    /// 1σ position noise per axis (m). RTK-grade GPS: centimeters.
    pub position_noise: f64,
    /// 1σ speed noise (m/s).
    pub speed_noise: f64,
}

impl Default for GpsImu {
    fn default() -> Self {
        GpsImu {
            position_noise: 0.02,
            speed_noise: 0.05,
        }
    }
}

impl GpsImu {
    /// Produces a fix of the ego state.
    pub fn fix<R: Rng + ?Sized>(&self, world: &World, rng_: &mut R) -> GpsImuFix {
        let ego = world.ego();
        GpsImuFix {
            t: world.time(),
            position: ego.pose.position
                + Vec2::new(
                    rng::normal(rng_, 0.0, self.position_noise),
                    rng::normal(rng_, 0.0, self.position_noise),
                ),
            speed: (ego.speed + rng::normal(rng_, 0.0, self.speed_noise)).max(0.0),
            accel: ego.accel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_simkit::actor::{Actor, ActorId, ActorKind};
    use av_simkit::behavior::Behavior;
    use av_simkit::road::Road;
    use rand::SeedableRng;

    #[test]
    fn fix_tracks_ego_closely() {
        let ego = Actor::new(
            ActorId(0),
            ActorKind::Car,
            Vec2::new(12.0, 0.0),
            9.0,
            Behavior::Ego,
        );
        let world = World::new(Road::default(), ego);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let fix = GpsImu::default().fix(&world, &mut rng);
        assert!((fix.position.x - 12.0).abs() < 0.2);
        assert!((fix.speed - 9.0).abs() < 0.5);
    }

    #[test]
    fn speed_never_negative() {
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 0.0, Behavior::Ego);
        let world = World::new(Road::default(), ego);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert!(GpsImu::default().fix(&world, &mut rng).speed >= 0.0);
        }
    }
}
