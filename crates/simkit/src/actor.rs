//! Road users: the ego vehicle, other vehicles, and pedestrians.

use crate::behavior::Behavior;
use crate::math::{Pose, Vec2};

/// Opaque identifier for an actor within a [`crate::world::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u32);

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// The class of a road user, mirroring the detector's class vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActorKind {
    /// A passenger car (including the ego vehicle).
    Car,
    /// A larger vehicle (bus / SUV); same detection class as `Car`.
    Truck,
    /// A pedestrian.
    Pedestrian,
}

impl ActorKind {
    /// Whether this actor is a vehicle (car or truck) as opposed to a pedestrian.
    pub fn is_vehicle(self) -> bool {
        !matches!(self, ActorKind::Pedestrian)
    }
}

/// Physical extent of an actor in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Extent along the heading direction.
    pub length: f64,
    /// Extent perpendicular to the heading, in the ground plane.
    pub width: f64,
    /// Vertical extent (used by the camera projection).
    pub height: f64,
}

impl Size {
    /// A typical passenger car (similar to the LGSVL sedan asset).
    pub const CAR: Size = Size {
        length: 4.6,
        width: 1.9,
        height: 1.5,
    };
    /// A larger SUV/bus-class vehicle.
    pub const TRUCK: Size = Size {
        length: 6.5,
        width: 2.3,
        height: 2.6,
    };
    /// An adult pedestrian.
    pub const PEDESTRIAN: Size = Size {
        length: 0.5,
        width: 0.6,
        height: 1.75,
    };

    /// The default size for a [`ActorKind`].
    pub fn for_kind(kind: ActorKind) -> Size {
        match kind {
            ActorKind::Car => Size::CAR,
            ActorKind::Truck => Size::TRUCK,
            ActorKind::Pedestrian => Size::PEDESTRIAN,
        }
    }
}

/// A scripted (or ego) road user.
#[derive(Debug, Clone)]
pub struct Actor {
    /// Identifier, unique within a world.
    pub id: ActorId,
    /// Detection class of this actor.
    pub kind: ActorKind,
    /// Physical size.
    pub size: Size,
    /// Current pose (position + heading).
    pub pose: Pose,
    /// Current scalar speed along the heading (m/s, non-negative).
    pub speed: f64,
    /// Current scalar acceleration along the heading (m/s²).
    pub accel: f64,
    /// Motion script driving this actor (ignored for the ego).
    pub behavior: Behavior,
}

impl Actor {
    /// Creates an actor with the default size for its kind, heading +x.
    pub fn new(
        id: ActorId,
        kind: ActorKind,
        position: Vec2,
        speed: f64,
        behavior: Behavior,
    ) -> Self {
        Actor {
            id,
            kind,
            size: Size::for_kind(kind),
            pose: Pose::new(position, 0.0),
            speed,
            accel: 0.0,
            behavior,
        }
    }

    /// Velocity vector (heading direction times scalar speed).
    pub fn velocity(&self) -> Vec2 {
        self.pose.forward() * self.speed
    }

    /// Half extents of the axis-aligned bounding footprint, accounting for
    /// the heading (an oriented rectangle's AABB).
    pub fn half_extents(&self) -> Vec2 {
        let (s, c) = self.pose.heading.sin_cos();
        Vec2::new(
            c.abs() * self.size.length / 2.0 + s.abs() * self.size.width / 2.0,
            s.abs() * self.size.length / 2.0 + c.abs() * self.size.width / 2.0,
        )
    }

    /// Lateral interval `[y_min, y_max]` occupied by the footprint.
    pub fn lateral_extent(&self) -> (f64, f64) {
        let hy = self.half_extents().y;
        (self.pose.position.y - hy, self.pose.position.y + hy)
    }

    /// Longitudinal interval `[x_min, x_max]` occupied by the footprint.
    pub fn longitudinal_extent(&self) -> (f64, f64) {
        let hx = self.half_extents().x;
        (self.pose.position.x - hx, self.pose.position.x + hx)
    }
}

/// Euclidean separation between the AABB footprints of two actors.
///
/// Returns 0 when the footprints overlap. This is the quantity the LGSVL
/// bridge monitors: the simulator halt at < 4 m separation is reproduced by
/// the run loop in [`crate::world::World::separation_to_ego`] callers.
pub fn separation(a: &Actor, b: &Actor) -> f64 {
    let (ax0, ax1) = a.longitudinal_extent();
    let (ay0, ay1) = a.lateral_extent();
    let (bx0, bx1) = b.longitudinal_extent();
    let (by0, by1) = b.lateral_extent();
    let dx = (bx0 - ax1).max(ax0 - bx1).max(0.0);
    let dy = (by0 - ay1).max(ay0 - by1).max(0.0);
    dx.hypot(dy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Behavior;

    fn car_at(x: f64, y: f64) -> Actor {
        Actor::new(
            ActorId(1),
            ActorKind::Car,
            Vec2::new(x, y),
            0.0,
            Behavior::Parked,
        )
    }

    #[test]
    fn half_extents_axis_aligned() {
        let a = car_at(0.0, 0.0);
        let he = a.half_extents();
        assert!((he.x - 2.3).abs() < 1e-9);
        assert!((he.y - 0.95).abs() < 1e-9);
    }

    #[test]
    fn half_extents_rotated_90deg() {
        let mut a = car_at(0.0, 0.0);
        a.pose.heading = std::f64::consts::FRAC_PI_2;
        let he = a.half_extents();
        assert!((he.x - 0.95).abs() < 1e-9);
        assert!((he.y - 2.3).abs() < 1e-9);
    }

    #[test]
    fn separation_longitudinal() {
        let a = car_at(0.0, 0.0);
        let b = car_at(10.0, 0.0);
        // 10 m center distance minus two half-lengths (2.3 each).
        assert!((separation(&a, &b) - 5.4).abs() < 1e-9);
    }

    #[test]
    fn separation_overlapping_is_zero() {
        let a = car_at(0.0, 0.0);
        let b = car_at(1.0, 0.5);
        assert_eq!(separation(&a, &b), 0.0);
    }

    #[test]
    fn separation_diagonal() {
        let a = car_at(0.0, 0.0);
        let b = car_at(7.6, 5.9); // 3 m longitudinal gap, 4 m lateral gap
        let s = separation(&a, &b);
        assert!((s - 5.0).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn velocity_follows_heading() {
        let mut a = car_at(0.0, 0.0);
        a.speed = 2.0;
        a.pose.heading = std::f64::consts::FRAC_PI_2;
        let v = a.velocity();
        assert!(v.x.abs() < 1e-9 && (v.y - 2.0).abs() < 1e-9);
    }
}
