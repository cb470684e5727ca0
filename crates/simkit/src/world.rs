//! The simulated world: actors plus ground-truth queries.

use crate::actor::{separation, Actor, ActorId};
use crate::behavior::Behavior;
use crate::error::SimError;
use crate::math::{interval_overlap, Vec2};
use crate::road::Road;

/// Ground-truth description of the nearest in-path obstacle, used by the
/// safety model (Defs. 3–5) and to label the safety-hijacker training data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InPathObstacle {
    /// Which actor is in the ego's path.
    pub id: ActorId,
    /// Bumper-to-bumper longitudinal gap in meters (clamped at 0).
    pub gap: f64,
    /// Longitudinal closing speed (> 0 means the gap is shrinking).
    pub closing_speed: f64,
}

/// The plan-view world: a road plus a set of actors, one of which is the ego.
///
/// Non-ego actors follow their [`Behavior`] scripts; the ego is integrated
/// from the longitudinal acceleration command supplied to [`World::step`]
/// (the paper's attacks and safety model are longitudinal-only, §II-C).
#[derive(Debug, Clone)]
pub struct World {
    /// Road geometry.
    pub road: Road,
    time_us: u64,
    actors: Vec<Actor>,
    ego_index: usize,
}

impl World {
    /// Creates a world containing only the ego vehicle.
    ///
    /// The ego's behavior is forced to [`Behavior::Ego`].
    pub fn new(road: Road, mut ego: Actor) -> Self {
        ego.behavior = Behavior::Ego;
        World {
            road,
            time_us: 0,
            actors: vec![ego],
            ego_index: 0,
        }
    }

    /// Adds a non-ego actor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateActor`] if the id is already present.
    pub fn add_actor(&mut self, actor: Actor) -> Result<(), SimError> {
        if self.actors.iter().any(|a| a.id == actor.id) {
            return Err(SimError::DuplicateActor(actor.id));
        }
        self.actors.push(actor);
        Ok(())
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time_us as f64 * 1e-6
    }

    /// Current simulation time in integer microseconds.
    pub fn time_us(&self) -> u64 {
        self.time_us
    }

    /// The ego vehicle.
    pub fn ego(&self) -> &Actor {
        &self.actors[self.ego_index]
    }

    /// Mutable access to the ego vehicle (used by tests and scenario setup).
    pub fn ego_mut(&mut self) -> &mut Actor {
        &mut self.actors[self.ego_index]
    }

    /// Looks up an actor by id.
    pub fn actor(&self, id: ActorId) -> Option<&Actor> {
        self.actors.iter().find(|a| a.id == id)
    }

    /// All actors, ego included.
    pub fn actors(&self) -> &[Actor] {
        &self.actors
    }

    /// All non-ego actors.
    pub fn others(&self) -> impl Iterator<Item = &Actor> {
        let ego = self.ego().id;
        self.actors.iter().filter(move |a| a.id != ego)
    }

    /// Advances the world by `dt` seconds with the given ego longitudinal
    /// acceleration command (m/s²; braking is negative). The ego's speed is
    /// clamped at zero — the ADS never reverses in these scenarios.
    pub fn step(&mut self, dt: f64, ego_accel: f64) {
        for actor in &mut self.actors {
            if matches!(actor.behavior, Behavior::Ego) {
                let v0 = actor.speed;
                let v1 = (v0 + ego_accel * dt).max(0.0);
                // Trapezoidal integration with the clamped speed.
                actor.pose.position.x += (v0 + v1) / 2.0 * dt;
                actor.accel = (v1 - v0) / dt;
                actor.speed = v1;
            } else {
                // Stepped in place: the script sees exactly the state a
                // clone would, without the per-tick allocation.
                let (pose, speed) = actor.behavior.step(actor.pose, actor.speed, dt);
                actor.accel = (speed - actor.speed) / dt;
                actor.pose = pose;
                actor.speed = speed;
            }
        }
        self.time_us += (dt * 1e6).round() as u64;
    }

    /// The corridor the ego sweeps: lateral interval `[y0, y1]` covering the
    /// ego width plus `margin` on each side.
    pub fn ego_corridor(&self, margin: f64) -> (f64, f64) {
        let ego = self.ego();
        let hy = ego.half_extents().y + margin;
        (ego.pose.position.y - hy, ego.pose.position.y + hy)
    }

    /// Ground truth: the nearest actor ahead of the ego whose footprint
    /// overlaps the ego corridor (with `margin` meters of slack per side).
    ///
    /// `gap` is bumper-to-bumper and clamped at 0 (overlap = imminent
    /// contact). Returns `None` when the path is clear.
    pub fn in_path_obstacle(&self, margin: f64) -> Option<InPathObstacle> {
        let ego = self.ego();
        let (cy0, cy1) = self.ego_corridor(margin);
        let ego_front = ego.longitudinal_extent().1;
        let ego_vx = ego.velocity().x;
        let mut best: Option<InPathObstacle> = None;
        for other in self.others() {
            let (oy0, oy1) = other.lateral_extent();
            if interval_overlap(cy0, cy1, oy0, oy1) <= 0.0 {
                continue;
            }
            let (ox0, ox1) = other.longitudinal_extent();
            if ox1 < ego_front {
                continue; // fully behind the front bumper
            }
            let gap = (ox0 - ego_front).max(0.0);
            let closing = ego_vx - other.velocity().x;
            if best.is_none_or(|b| gap < b.gap) {
                best = Some(InPathObstacle {
                    id: other.id,
                    gap,
                    closing_speed: closing,
                });
            }
        }
        best
    }

    /// Ground truth separation between the ego and a specific actor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownActor`] for an unknown id.
    pub fn separation_to_ego(&self, id: ActorId) -> Result<f64, SimError> {
        let other = self.actor(id).ok_or(SimError::UnknownActor(id))?;
        Ok(separation(self.ego(), other))
    }

    /// Smallest separation between the ego and any other actor
    /// (`f64::INFINITY` when the ego is alone).
    pub fn min_separation_to_ego(&self) -> f64 {
        let ego = self.ego();
        self.others()
            .map(|o| separation(ego, o))
            .fold(f64::INFINITY, f64::min)
    }

    /// Relative velocity of `id` with respect to the ego (other − ego).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownActor`] for an unknown id.
    pub fn relative_velocity(&self, id: ActorId) -> Result<Vec2, SimError> {
        let other = self.actor(id).ok_or(SimError::UnknownActor(id))?;
        Ok(other.velocity() - self.ego().velocity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorKind;

    fn world_with(actors: Vec<Actor>) -> World {
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 10.0, Behavior::Ego);
        let mut w = World::new(Road::default(), ego);
        for a in actors {
            w.add_actor(a).unwrap();
        }
        w
    }

    fn cruiser(id: u32, x: f64, y: f64, speed: f64) -> Actor {
        Actor::new(
            ActorId(id),
            ActorKind::Car,
            Vec2::new(x, y),
            speed,
            Behavior::CruiseStraight { speed },
        )
    }

    #[test]
    fn ego_integrates_acceleration() {
        let mut w = world_with(vec![]);
        w.step(1.0, 2.0);
        assert!((w.ego().speed - 12.0).abs() < 1e-9);
        assert!((w.ego().pose.position.x - 11.0).abs() < 1e-9);
    }

    #[test]
    fn ego_speed_clamps_at_zero() {
        let mut w = world_with(vec![]);
        w.step(3.0, -20.0);
        assert_eq!(w.ego().speed, 0.0);
    }

    #[test]
    fn duplicate_actor_rejected() {
        let mut w = world_with(vec![cruiser(1, 10.0, 0.0, 5.0)]);
        let err = w.add_actor(cruiser(1, 20.0, 0.0, 5.0)).unwrap_err();
        assert_eq!(err, SimError::DuplicateActor(ActorId(1)));
    }

    #[test]
    fn in_path_obstacle_finds_nearest_in_lane() {
        let w = world_with(vec![
            cruiser(1, 40.0, 0.0, 5.0),
            cruiser(2, 20.0, 0.0, 5.0),
            cruiser(3, 10.0, 3.5, 5.0), // adjacent lane, ignored
        ]);
        let o = w.in_path_obstacle(0.3).unwrap();
        assert_eq!(o.id, ActorId(2));
        // 20 m center-to-center minus two half-lengths.
        assert!((o.gap - (20.0 - 4.6)).abs() < 1e-9);
        assert!((o.closing_speed - 5.0).abs() < 1e-9);
    }

    #[test]
    fn in_path_obstacle_ignores_behind() {
        let w = world_with(vec![cruiser(1, -10.0, 0.0, 5.0)]);
        assert!(w.in_path_obstacle(0.3).is_none());
    }

    #[test]
    fn in_path_gap_clamps_at_zero_when_overlapping() {
        let w = world_with(vec![cruiser(1, 4.0, 0.0, 5.0)]);
        let o = w.in_path_obstacle(0.3).unwrap();
        assert_eq!(o.gap, 0.0);
    }

    #[test]
    fn separation_and_relative_velocity() {
        let w = world_with(vec![cruiser(1, 30.0, 0.0, 4.0)]);
        let sep = w.separation_to_ego(ActorId(1)).unwrap();
        assert!((sep - (30.0 - 4.6)).abs() < 1e-9);
        let rv = w.relative_velocity(ActorId(1)).unwrap();
        assert!((rv.x + 6.0).abs() < 1e-9);
        assert!(w.relative_velocity(ActorId(9)).is_err());
    }

    #[test]
    fn min_separation_without_others_is_infinite() {
        let w = world_with(vec![]);
        assert!(w.min_separation_to_ego().is_infinite());
    }

    #[test]
    fn time_advances_in_microseconds() {
        let mut w = world_with(vec![]);
        for _ in 0..30 {
            w.step(1.0 / 30.0, 0.0);
        }
        assert!((w.time() - 1.0).abs() < 1e-4);
    }
}
