//! Motion scripts for non-ego actors.
//!
//! LGSVL scenarios script every non-ego actor with waypoints (§V-B: "LGSVL
//! provides Python APIs for creating driving scenarios"). This module is the
//! equivalent: a small set of declarative behaviors advanced by
//! [`crate::world::World::step`].

use crate::math::{Pose, Vec2};

/// A waypoint: drive toward `target` at `speed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    /// Target position in road coordinates.
    pub target: Vec2,
    /// Travel speed toward the target (m/s, > 0).
    pub speed: f64,
}

impl Waypoint {
    /// Creates a waypoint.
    pub fn new(target: Vec2, speed: f64) -> Self {
        Waypoint { target, speed }
    }
}

/// What a waypoint actor does after consuming its last waypoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnFinish {
    /// Stop and stay put.
    Stop,
    /// Keep driving straight at the last waypoint's speed.
    Continue,
}

/// Motion script for a non-ego actor.
#[derive(Debug, Clone, PartialEq)]
pub enum Behavior {
    /// Controlled externally (the ego vehicle).
    Ego,
    /// Stationary (parked vehicle, standing pedestrian).
    Parked,
    /// Drive straight along the current heading at a constant speed.
    CruiseStraight {
        /// Constant speed in m/s.
        speed: f64,
    },
    /// Follow a list of waypoints, then apply [`OnFinish`].
    Waypoints {
        /// Remaining waypoints, consumed front to back.
        points: Vec<Waypoint>,
        /// Index of the next waypoint to reach.
        next: usize,
        /// Behavior after the final waypoint.
        on_finish: OnFinish,
    },
}

impl Behavior {
    /// Convenience constructor for a waypoint script.
    pub fn waypoints(points: Vec<Waypoint>, on_finish: OnFinish) -> Behavior {
        Behavior::Waypoints {
            points,
            next: 0,
            on_finish,
        }
    }

    /// Advances `pose`/`speed` by `dt` seconds according to the script.
    ///
    /// Returns the new (pose, speed). [`Behavior::Ego`] is a no-op; the world
    /// integrates the ego from the ADS actuation instead.
    pub fn step(&mut self, pose: Pose, speed: f64, dt: f64) -> (Pose, f64) {
        match self {
            Behavior::Ego => (pose, speed),
            Behavior::Parked => (pose, 0.0),
            Behavior::CruiseStraight { speed: s } => {
                let fwd = pose.forward();
                (Pose::new(pose.position + fwd * (*s * dt), pose.heading), *s)
            }
            Behavior::Waypoints {
                points,
                next,
                on_finish,
            } => {
                if *next >= points.len() {
                    return match on_finish {
                        OnFinish::Stop => (pose, 0.0),
                        OnFinish::Continue => {
                            let s = points.last().map_or(speed, |w| w.speed);
                            let fwd = pose.forward();
                            (Pose::new(pose.position + fwd * (s * dt), pose.heading), s)
                        }
                    };
                }
                let wp = points[*next];
                let to_target = wp.target - pose.position;
                let dist = to_target.norm();
                let step_len = wp.speed * dt;
                if dist <= step_len || dist < 1e-9 {
                    *next += 1;
                    let heading = if dist > 1e-9 {
                        to_target.y.atan2(to_target.x)
                    } else {
                        pose.heading
                    };
                    // Land exactly on the waypoint; remaining budget is dropped
                    // (sub-step precision is irrelevant at 30 Hz).
                    (Pose::new(wp.target, heading), wp.speed)
                } else {
                    let dir = to_target / dist;
                    let heading = dir.y.atan2(dir.x);
                    (Pose::new(pose.position + dir * step_len, heading), wp.speed)
                }
            }
        }
    }

    /// Whether the script has finished all its motion (parked or waypoints done with `Stop`).
    pub fn is_settled(&self) -> bool {
        match self {
            Behavior::Parked => true,
            Behavior::Waypoints {
                points,
                next,
                on_finish: OnFinish::Stop,
            } => *next >= points.len(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::approx_eq;

    #[test]
    fn parked_stays_put() {
        let mut b = Behavior::Parked;
        let pose = Pose::new(Vec2::new(5.0, 1.0), 0.3);
        let (p, v) = b.step(pose, 3.0, 0.1);
        assert_eq!(p.position, pose.position);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn cruise_moves_along_heading() {
        let mut b = Behavior::CruiseStraight { speed: 10.0 };
        let pose = Pose::new(Vec2::ZERO, 0.0);
        let (p, v) = b.step(pose, 0.0, 0.5);
        assert!(approx_eq(p.position.x, 5.0, 1e-12));
        assert_eq!(v, 10.0);
    }

    #[test]
    fn waypoints_walk_and_stop() {
        let mut b = Behavior::waypoints(
            vec![
                Waypoint::new(Vec2::new(0.0, 2.0), 1.0),
                Waypoint::new(Vec2::new(0.0, 4.0), 1.0),
            ],
            OnFinish::Stop,
        );
        let mut pose = Pose::new(Vec2::ZERO, 0.0);
        let mut speed = 0.0;
        for _ in 0..100 {
            let (p, v) = b.step(pose, speed, 0.1);
            pose = p;
            speed = v;
        }
        assert!(approx_eq(pose.position.y, 4.0, 1e-9));
        assert_eq!(speed, 0.0);
        assert!(b.is_settled());
    }

    #[test]
    fn waypoints_continue_keeps_last_speed() {
        let mut b = Behavior::waypoints(
            vec![Waypoint::new(Vec2::new(1.0, 0.0), 2.0)],
            OnFinish::Continue,
        );
        let mut pose = Pose::new(Vec2::ZERO, 0.0);
        for _ in 0..20 {
            let (p, _) = b.step(pose, 0.0, 0.1);
            pose = p;
        }
        assert!(pose.position.x > 2.0);
    }

    #[test]
    fn waypoint_heading_points_at_target() {
        let mut b = Behavior::waypoints(
            vec![Waypoint::new(Vec2::new(0.0, 10.0), 1.0)],
            OnFinish::Stop,
        );
        let (p, _) = b.step(Pose::new(Vec2::ZERO, 0.0), 0.0, 0.1);
        assert!(approx_eq(p.heading, std::f64::consts::FRAC_PI_2, 1e-9));
    }
}
