//! Pinhole camera: world → image projection and image → ground
//! back-projection.
//!
//! The camera is mounted at the ego's front bumper looking down the road
//! (+x). The paper's main camera produces 1920×1080 frames (§V-B); the
//! default intrinsics here give a ~60° horizontal field of view, typical for
//! an automotive main camera.

use crate::bbox::BBox;
use av_simkit::actor::Actor;
use av_simkit::math::Vec2;

/// Pinhole camera intrinsics + mounting geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Image width in pixels.
    pub width: f64,
    /// Image height in pixels.
    pub height: f64,
    /// Focal length in pixels (square pixels: fx = fy).
    pub focal: f64,
    /// Camera height above the ground plane (m).
    pub mount_height: f64,
    /// Longitudinal offset of the camera from the ego center (m).
    pub mount_forward: f64,
    /// Minimum depth at which objects project sensibly (m).
    pub min_depth: f64,
    /// Maximum usable depth (m).
    pub max_depth: f64,
}

impl Default for Camera {
    fn default() -> Self {
        // 60° horizontal FOV at 1920 px: focal = 960 / tan(30°).
        Camera {
            width: 1920.0,
            height: 1080.0,
            focal: 960.0 / (30f64.to_radians()).tan(),
            mount_height: 1.4,
            mount_forward: 2.0,
            min_depth: 3.0,
            max_depth: 150.0,
        }
    }
}

impl Camera {
    /// Principal point (image center).
    pub fn principal_point(&self) -> (f64, f64) {
        (self.width / 2.0, self.height / 2.0)
    }

    /// Projects `actor` (seen from `ego`) to an image bounding box.
    ///
    /// Returns the box plus the depth (m), or `None` when the actor is
    /// outside the usable depth range or projects entirely off-image.
    pub fn project(&self, ego: &Actor, actor: &Actor) -> Option<(BBox, f64)> {
        let cam_x = ego.pose.position.x + self.mount_forward;
        let cam_y = ego.pose.position.y;
        let depth = actor.pose.position.x - cam_x;
        if depth < self.min_depth || depth > self.max_depth {
            return None;
        }
        let (cx, cy) = self.principal_point();
        // Image u grows rightward; road +y is to the left of travel.
        let lateral = actor.pose.position.y - cam_y;
        let u = cx - self.focal * lateral / depth;
        let half_w_world = actor.half_extents().y;
        let w = self.focal * (2.0 * half_w_world) / depth;
        // Vertical: ground contact at camera-height below the horizon.
        let v_bottom = cy + self.focal * self.mount_height / depth;
        let v_top = cy + self.focal * (self.mount_height - actor.size.height) / depth;
        let bbox = BBox::new(u - w / 2.0, v_top, u + w / 2.0, v_bottom);
        bbox.clipped(self.width, self.height).map(|b| (b, depth))
    }

    /// Back-projects an image box using the known class height: depth from
    /// apparent size (`depth = f·H / h_px`), lateral from the column offset.
    /// Far more stable than ground-contact ranging because the box height
    /// only carries the detector's small size jitter, not its center noise.
    ///
    /// Returns `None` for degenerate boxes.
    pub fn back_project_with_height(&self, bbox: &BBox, object_height: f64) -> Option<Vec2> {
        let h = bbox.height();
        if h < 1.0 || object_height <= 0.0 {
            return None;
        }
        let depth = self.focal * object_height / h;
        if depth < self.min_depth || depth > self.max_depth {
            return None;
        }
        let (cx, _) = self.principal_point();
        let (u, _) = bbox.center();
        let lateral = -(u - cx) * depth / self.focal;
        Some(Vec2::new(depth + self.mount_forward, lateral))
    }

    /// Back-projects an image box to a ground-plane position relative to the
    /// ego: the bottom-center pixel is intersected with the ground.
    ///
    /// Returns `None` when the bottom edge is at or above the horizon (no
    /// ground intersection). This is the perception stack's "T" transform
    /// (Fig. 1 of the paper).
    pub fn back_project(&self, bbox: &BBox) -> Option<Vec2> {
        let (u, v_bottom) = bbox.bottom_center();
        let (cx, cy) = self.principal_point();
        let dv = v_bottom - cy;
        if dv <= 1e-9 {
            return None; // at or above the horizon
        }
        let depth = self.focal * self.mount_height / dv;
        let lateral = -(u - cx) * depth / self.focal;
        Some(Vec2::new(depth + self.mount_forward, lateral))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_simkit::actor::{ActorId, ActorKind};
    use av_simkit::behavior::Behavior;

    fn ego() -> Actor {
        Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 10.0, Behavior::Ego)
    }

    fn car(x: f64, y: f64) -> Actor {
        Actor::new(
            ActorId(1),
            ActorKind::Car,
            Vec2::new(x, y),
            0.0,
            Behavior::Parked,
        )
    }

    #[test]
    fn centered_object_projects_on_axis() {
        let cam = Camera::default();
        let (bbox, depth) = cam.project(&ego(), &car(30.0, 0.0)).unwrap();
        let (u, _) = bbox.center();
        assert!((u - 960.0).abs() < 1e-6, "u = {u}");
        assert!((depth - 28.0).abs() < 1e-9);
        // Bottom edge below the principal point (on the ground).
        assert!(bbox.y1 > 540.0);
    }

    #[test]
    fn left_object_projects_left_of_center() {
        let cam = Camera::default();
        // +y (left of travel) must land at u < cx.
        let (bbox, _) = cam.project(&ego(), &car(30.0, 3.5)).unwrap();
        assert!(bbox.center().0 < 960.0);
        let (bbox_r, _) = cam.project(&ego(), &car(30.0, -3.5)).unwrap();
        assert!(bbox_r.center().0 > 960.0);
    }

    #[test]
    fn nearer_objects_look_bigger() {
        let cam = Camera::default();
        let (near, _) = cam.project(&ego(), &car(20.0, 0.0)).unwrap();
        let (far, _) = cam.project(&ego(), &car(60.0, 0.0)).unwrap();
        assert!(near.area() > far.area());
    }

    #[test]
    fn out_of_range_returns_none() {
        let cam = Camera::default();
        assert!(cam.project(&ego(), &car(3.0, 0.0)).is_none(), "too close");
        assert!(cam.project(&ego(), &car(500.0, 0.0)).is_none(), "too far");
        assert!(cam.project(&ego(), &car(-20.0, 0.0)).is_none(), "behind");
    }

    #[test]
    fn back_projection_inverts_projection() {
        let cam = Camera::default();
        for &(x, y) in &[(20.0, 0.0), (40.0, 2.0), (80.0, -3.0)] {
            let target = car(x, y);
            let (bbox, _) = cam.project(&ego(), &target).unwrap();
            let pos = cam.back_project(&bbox).unwrap();
            // Bottom-center back-projects to the near face center; allow the
            // half-length offset plus clipping slack.
            assert!((pos.x - x).abs() < 3.0, "x: {} vs {}", pos.x, x);
            assert!((pos.y - y).abs() < 0.1, "y: {} vs {}", pos.y, y);
        }
    }

    #[test]
    fn back_project_above_horizon_is_none() {
        let cam = Camera::default();
        let sky = BBox::new(900.0, 100.0, 1000.0, 200.0);
        assert!(cam.back_project(&sky).is_none());
    }

    #[test]
    fn pedestrian_taller_than_wide_in_image() {
        let cam = Camera::default();
        let ped = Actor::new(
            ActorId(2),
            ActorKind::Pedestrian,
            Vec2::new(25.0, 1.0),
            0.0,
            Behavior::Parked,
        );
        let (bbox, _) = cam.project(&ego(), &ped).unwrap();
        assert!(bbox.height() > bbox.width());
    }
}
