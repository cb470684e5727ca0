//! Shared perception data types.

use crate::tracker::TrackId;
use av_sensing::bbox::BBox;
use av_simkit::actor::{ActorId, ActorKind};
use av_simkit::math::Vec2;

/// One detector output: a classified bounding box measurement `oᵢₜ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Predicted object class.
    pub kind: ActorKind,
    /// Predicted bounding box in image coordinates.
    pub bbox: BBox,
    /// Detector confidence in `[0, 1]`.
    pub score: f64,
    /// Ground-truth provenance of this detection, carried **only for
    /// evaluation bookkeeping** (which actor generated the measurement).
    /// No pipeline logic reads this field — the tracker and fusion associate
    /// purely on geometry, as the real stack must.
    pub provenance: Option<ActorId>,
}

/// How a published world-model object is currently supported by sensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// Camera track with an associated LiDAR return (position from LiDAR).
    CameraAndLidar,
    /// Camera track only (position from the ground transform).
    CameraOnly,
    /// LiDAR-only object that passed the slow registration gate.
    LidarOnly,
}

/// One object in the fused world model `Wt` consumed by planning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldObject {
    /// Stable fused-object identifier.
    pub id: u64,
    /// Object class. LiDAR-only objects are reported as vehicles — the
    /// planner treats unclassified obstacles conservatively.
    pub kind: ActorKind,
    /// Estimated position in world coordinates (m).
    pub position: Vec2,
    /// Estimated velocity (m/s).
    pub velocity: Vec2,
    /// Estimated footprint (length, width) in meters.
    pub extent: (f64, f64),
    /// Current sensor support.
    pub support: Support,
    /// The camera track steering this object, when camera-supported.
    pub track: Option<TrackId>,
    /// Evaluation-only provenance (see [`Detection::provenance`]).
    pub provenance: Option<ActorId>,
}

impl WorldObject {
    /// Lateral interval `[y0, y1]` of the estimated footprint.
    pub fn lateral_extent(&self) -> (f64, f64) {
        let half = self.extent.1 / 2.0;
        (self.position.y - half, self.position.y + half)
    }

    /// Longitudinal interval `[x0, x1]` of the estimated footprint.
    pub fn longitudinal_extent(&self) -> (f64, f64) {
        let half = self.extent.0 / 2.0;
        (self.position.x - half, self.position.x + half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_object_extents() {
        let o = WorldObject {
            id: 1,
            kind: ActorKind::Car,
            position: Vec2::new(10.0, 1.0),
            velocity: Vec2::ZERO,
            extent: (4.0, 2.0),
            support: Support::CameraOnly,
            track: None,
            provenance: None,
        };
        assert_eq!(o.lateral_extent(), (0.0, 2.0));
        assert_eq!(o.longitudinal_extent(), (8.0, 12.0));
    }
}
