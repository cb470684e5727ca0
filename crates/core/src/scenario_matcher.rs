//! Scenario matcher ("SM", §IV-A): deciding *what* to attack.
//!
//! A deliberately rule-based module (Table I) so its execution cost is
//! negligible — the paper keeps it cheap to evade detection by
//! resource-usage monitors. Given the target object's lane occupancy and
//! lateral trajectory class, it returns the attack vector that would
//! actually change the EV's behavior (never, e.g., "move out" an object
//! that is already leaving the lane).

use crate::vector::AttackVector;
use av_simkit::actor::ActorKind;

/// Lateral trajectory of the target object relative to the EV lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrajectoryClass {
    /// Moving toward the EV lane center.
    MovingIn,
    /// Keeping its lateral position.
    Keep,
    /// Moving away from the EV lane center.
    MovingOut,
}

impl TrajectoryClass {
    /// Classifies a lateral position/velocity pair: `y` is the lateral
    /// offset from the EV lane center, `vy` the lateral velocity;
    /// `threshold` is the minimum |vy| considered deliberate motion.
    pub fn classify(y: f64, vy: f64, threshold: f64) -> TrajectoryClass {
        let toward_center = -y.signum() * vy;
        if vy.abs() <= threshold || y == 0.0 {
            // An object already centered can only keep or leave; treat
            // centered motion as Keep unless it clearly departs.
            if y == 0.0 && vy.abs() > threshold {
                return TrajectoryClass::MovingOut;
            }
            return TrajectoryClass::Keep;
        }
        if toward_center > 0.0 {
            TrajectoryClass::MovingIn
        } else {
            TrajectoryClass::MovingOut
        }
    }
}

/// The Table I rule map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioMatcher {
    /// Minimum |lateral velocity| (m/s) considered deliberate motion when
    /// classifying trajectories.
    pub vy_threshold: f64,
}

impl Default for ScenarioMatcher {
    fn default() -> Self {
        ScenarioMatcher { vy_threshold: 0.9 }
    }
}

impl ScenarioMatcher {
    /// Returns the admissible attack vector per Table I, or `None` when no
    /// attack is worthwhile.
    ///
    /// Where Table I offers "Move_Out/Disappear", `preference` (the
    /// campaign's vector under evaluation) picks among the admissible
    /// options; without a preference, the paper's heuristic applies:
    /// Disappear suits pedestrians (small attack window), Move_Out suits
    /// vehicles (§IV-A).
    pub fn select(
        &self,
        in_ev_lane: bool,
        trajectory: TrajectoryClass,
        kind: ActorKind,
        preference: Option<AttackVector>,
    ) -> Option<AttackVector> {
        use AttackVector::*;
        use TrajectoryClass::*;
        let admissible: &[AttackVector] = match (trajectory, in_ev_lane) {
            (MovingIn, true) => &[],
            (MovingIn, false) => &[MoveOut, Disappear],
            (Keep, true) => &[MoveOut, Disappear],
            (Keep, false) => &[MoveIn],
            (MovingOut, true) => &[MoveIn],
            (MovingOut, false) => &[],
        };
        if admissible.is_empty() {
            return None;
        }
        if let Some(p) = preference {
            return admissible.contains(&p).then_some(p);
        }
        if admissible.len() == 1 {
            return Some(admissible[0]);
        }
        // Move_Out vs Disappear: class heuristic from §IV-A / §VI.
        Some(if kind.is_vehicle() {
            MoveOut
        } else {
            Disappear
        })
    }

    /// Renders the Table I rule map as the paper prints it (for the
    /// quickstart example).
    pub fn table(&self) -> String {
        use TrajectoryClass::*;
        let cell = |traj: TrajectoryClass, in_lane: bool| -> &'static str {
            match (traj, in_lane) {
                (MovingIn, true) | (MovingOut, false) => "—",
                (MovingIn, false) | (Keep, true) => "Move_Out/Disappear",
                (Keep, false) | (MovingOut, true) => "Move_In",
            }
        };
        let mut out = String::new();
        out.push_str("TO trajectory | TO in EV-lane      | TO not in EV-lane\n");
        out.push_str("------------- | ------------------ | ------------------\n");
        for (name, traj) in [
            ("Moving In", MovingIn),
            ("Keep", Keep),
            ("Moving Out", MovingOut),
        ] {
            out.push_str(&format!(
                "{name:<13} | {:<18} | {}\n",
                cell(traj, true),
                cell(traj, false)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AttackVector::*;
    use TrajectoryClass::*;

    const SM: ScenarioMatcher = ScenarioMatcher { vy_threshold: 0.9 };

    #[test]
    fn table1_in_lane_column() {
        // Moving In + in-lane: impossible/no-op.
        assert_eq!(SM.select(true, MovingIn, ActorKind::Car, None), None);
        // Keep + in-lane: hijack it out (vehicle → Move_Out).
        assert_eq!(SM.select(true, Keep, ActorKind::Car, None), Some(MoveOut));
        // Keep + in-lane pedestrian → Disappear by the class heuristic.
        assert_eq!(
            SM.select(true, Keep, ActorKind::Pedestrian, None),
            Some(Disappear)
        );
        // Moving Out + in-lane: pretend it moves in.
        assert_eq!(
            SM.select(true, MovingOut, ActorKind::Car, None),
            Some(MoveIn)
        );
    }

    #[test]
    fn table1_out_of_lane_column() {
        assert_eq!(
            SM.select(false, MovingIn, ActorKind::Pedestrian, None),
            Some(Disappear)
        );
        assert_eq!(SM.select(false, Keep, ActorKind::Car, None), Some(MoveIn));
        assert_eq!(SM.select(false, MovingOut, ActorKind::Car, None), None);
    }

    #[test]
    fn preference_is_honored_when_admissible() {
        assert_eq!(
            SM.select(true, Keep, ActorKind::Car, Some(Disappear)),
            Some(Disappear)
        );
        assert_eq!(
            SM.select(false, MovingIn, ActorKind::Car, Some(MoveOut)),
            Some(MoveOut)
        );
        // Inadmissible preference → no attack rather than a wrong attack.
        assert_eq!(SM.select(true, Keep, ActorKind::Car, Some(MoveIn)), None);
    }

    #[test]
    fn classify_crossing_pedestrian() {
        // Approaching the centerline from the right at walking speed.
        assert_eq!(TrajectoryClass::classify(-4.0, 1.4, 0.5), MovingIn);
        // Walking away on the left side.
        assert_eq!(TrajectoryClass::classify(3.0, 1.4, 0.5), MovingOut);
        // Longitudinal walker: no lateral motion.
        assert_eq!(TrajectoryClass::classify(-3.3, 0.0, 0.5), Keep);
        // Sub-threshold jitter is Keep.
        assert_eq!(TrajectoryClass::classify(-4.0, 0.3, 0.5), Keep);
    }

    #[test]
    fn classify_centered_object() {
        assert_eq!(TrajectoryClass::classify(0.0, 0.0, 0.5), Keep);
        assert_eq!(TrajectoryClass::classify(0.0, 1.0, 0.5), MovingOut);
    }

    #[test]
    fn table_rendering_contains_all_cells() {
        let t = ScenarioMatcher::default().table();
        assert!(t.contains("Move_Out/Disappear"));
        assert!(t.contains("Move_In"));
        assert!(t.contains("Moving Out"));
    }
}
