//! The AV safety model of Jha et al., as adopted by the paper (§II-C).
//!
//! - **Def. 3** — stopping distance `d_stop`: how far the vehicle travels
//!   before stopping at the maximum *comfortable* deceleration.
//! - **Def. 4** — safety envelope `d_safe`: how far the AV can travel
//!   without colliding (the bumper gap to the nearest in-path obstacle).
//! - **Def. 5** — safety potential `δ = d_safe − d_stop`; the paper declares
//!   an *accident* when `δ < 4 m` (the LGSVL bridge halts simulations below
//!   a 4 m separation).

/// Safety model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyConfig {
    /// Maximum comfortable deceleration (m/s²) used for `d_stop`.
    pub comfort_decel: f64,
    /// Reaction latency folded into `d_stop` (s).
    pub reaction_time: f64,
    /// `δ` below which a run counts as an accident (m). The paper uses 4 m.
    pub accident_delta: f64,
    /// Minimum safety envelope the planner tries to preserve
    /// (`d_safe,min`, the 10 m threshold in §IV-B).
    pub d_safe_min: f64,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        SafetyConfig {
            comfort_decel: 6.0,
            reaction_time: 0.1,
            accident_delta: av_simkit::units::ACCIDENT_DELTA_M,
            d_safe_min: 10.0,
        }
    }
}

impl SafetyConfig {
    /// Stopping distance at speed `v` (Def. 3).
    pub fn d_stop(&self, v: f64) -> f64 {
        let v = v.max(0.0);
        v * self.reaction_time + v * v / (2.0 * self.comfort_decel)
    }

    /// Time to come to a complete stop from speed `v` at the comfortable
    /// deceleration.
    pub fn t_stop(&self, v: f64) -> f64 {
        self.reaction_time + v.max(0.0) / self.comfort_decel
    }

    /// Safety envelope against an obstacle `gap` meters ahead that is
    /// itself moving away at `obstacle_speed` (≥ 0) m/s (Def. 4): the
    /// distance the AV can travel before contact is the current gap plus
    /// the obstacle's own travel during the stop.
    pub fn d_safe(&self, gap: f64, obstacle_speed: f64, v: f64) -> f64 {
        gap + obstacle_speed.max(0.0) * self.t_stop(v)
    }

    /// Safety potential `δ` given the safety envelope `d_safe` (Def. 5).
    pub fn delta(&self, d_safe: f64, v: f64) -> f64 {
        d_safe - self.d_stop(v)
    }

    /// Whether a given safety potential constitutes an accident.
    pub fn is_accident(&self, delta: f64) -> bool {
        delta < self.accident_delta
    }
}

/// Ground-truth safety potential of the ego in `world` with respect to its
/// nearest in-path obstacle. Returns `δ` and the obstacle gap; when the path
/// is clear both are reported against `horizon` (free road ahead).
pub fn ground_truth_delta(
    config: &SafetyConfig,
    world: &av_simkit::world::World,
    horizon: f64,
) -> (f64, f64) {
    let v = world.ego().speed;
    // d_safe is the instantaneous gap (the paper's longitudinal safety
    // envelope); see DESIGN.md for the calibration of the comfortable
    // deceleration in d_stop.
    let gap = world
        .in_path_obstacle(0.3)
        .map_or(horizon, |o| o.gap.min(horizon));
    (config.delta(gap, v), gap)
}

/// Ground-truth safety potential of the ego with respect to one specific
/// actor (the scripted target object), regardless of lane occupancy — the
/// quantity the safety hijacker's neural network predicts (§IV-B).
pub fn target_delta(
    config: &SafetyConfig,
    world: &av_simkit::world::World,
    target: av_simkit::actor::ActorId,
) -> Option<f64> {
    let sep = world.separation_to_ego(target).ok()?;
    Some(config.delta(sep, world.ego().speed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_simkit::actor::{Actor, ActorId, ActorKind};
    use av_simkit::behavior::Behavior;
    use av_simkit::math::Vec2;
    use av_simkit::road::Road;
    use av_simkit::world::World;

    #[test]
    fn d_stop_grows_quadratically() {
        let c = SafetyConfig::default();
        assert_eq!(c.d_stop(0.0), 0.0);
        let d10 = c.d_stop(10.0);
        let d20 = c.d_stop(20.0);
        assert!((d10 - (1.0 + 100.0 / 12.0)).abs() < 1e-9);
        assert!(d20 > 3.0 * d10, "quadratic dominance");
    }

    #[test]
    fn d_stop_clamps_negative_speed() {
        let c = SafetyConfig::default();
        assert_eq!(c.d_stop(-3.0), 0.0);
    }

    #[test]
    fn accident_threshold_is_4m() {
        let c = SafetyConfig::default();
        assert!(c.is_accident(3.99));
        assert!(!c.is_accident(4.0));
    }

    #[test]
    fn ground_truth_delta_with_and_without_obstacle() {
        let c = SafetyConfig::default();
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 10.0, Behavior::Ego);
        let mut w = World::new(Road::default(), ego);
        let (delta_clear, gap_clear) = ground_truth_delta(&c, &w, 200.0);
        assert_eq!(gap_clear, 200.0);
        assert!((delta_clear - (200.0 - c.d_stop(10.0))).abs() < 1e-9);

        w.add_actor(Actor::new(
            ActorId(1),
            ActorKind::Car,
            Vec2::new(30.0, 0.0),
            0.0,
            Behavior::Parked,
        ))
        .unwrap();
        let (delta, gap) = ground_truth_delta(&c, &w, 200.0);
        assert!((gap - (30.0 - 4.6)).abs() < 1e-9);
        assert!(delta < delta_clear);
    }

    #[test]
    fn target_delta_uses_separation() {
        let c = SafetyConfig::default();
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 10.0, Behavior::Ego);
        let mut w = World::new(Road::default(), ego);
        w.add_actor(Actor::new(
            ActorId(1),
            ActorKind::Car,
            Vec2::new(30.0, -3.5), // out of lane: still measured
            0.0,
            Behavior::Parked,
        ))
        .unwrap();
        let d = target_delta(&c, &w, ActorId(1)).unwrap();
        assert!(d < 30.0 && d > 0.0);
        assert!(target_delta(&c, &w, ActorId(9)).is_none());
    }
}
