//! Camera frames: the payload the ADS consumes and the attacker taps.

use crate::bbox::BBox;
use crate::camera::Camera;
use crate::image::{Raster, RASTER_SCALE};
use av_simkit::actor::{ActorId, ActorKind};
use av_simkit::world::World;

/// Ground-truth projection of one world actor into the image.
///
/// The detector model consumes these; the man-in-the-middle attacker may
/// rewrite them (translate the box within the noise gate, or mark it
/// suppressed) before the detector runs — that rewrite is exactly the effect
/// the pixel-space patch in `robotack::patch` realizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthBox {
    /// Which actor this projection belongs to.
    pub actor: ActorId,
    /// Detection class.
    pub kind: ActorKind,
    /// Image bounding box.
    pub bbox: BBox,
    /// Depth from the camera (m).
    pub depth: f64,
    /// Fraction of this box covered by nearer boxes (0 = fully visible).
    pub occlusion: f64,
    /// Set by the attacker: the detector will not emit this object.
    pub suppressed: bool,
}

/// One camera frame: timestamp, sequence number, ground-truth boxes, and an
/// optional rendered raster.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CameraFrame {
    /// Monotone frame sequence number.
    pub seq: u64,
    /// Capture time (s).
    pub t: f64,
    /// Ground-truth image boxes, sorted nearest-first.
    pub truth: Vec<TruthBox>,
    /// Rendered luminance raster (only when requested; see [`Camera`] docs).
    pub raster: Option<Raster>,
}

/// Occlusion fraction above which the detector cannot see an object.
pub const OCCLUSION_LIMIT: f64 = 0.7;

/// Luminance used when rendering each actor class.
pub fn class_luminance(kind: ActorKind) -> f32 {
    match kind {
        ActorKind::Car => 0.6,
        ActorKind::Truck => 0.75,
        ActorKind::Pedestrian => 0.9,
    }
}

/// Captures a camera frame of `world` from the ego's camera.
///
/// `with_raster` additionally renders the luminance raster (slower; used by
/// the pixel-space attack demonstration and the examples).
pub fn capture(camera: &Camera, world: &World, seq: u64, with_raster: bool) -> CameraFrame {
    let mut frame = CameraFrame::default();
    capture_into(camera, world, seq, with_raster, &mut frame);
    frame
}

/// Like [`capture`] but reuses `frame`'s buffers (the truth `Vec` and, when
/// `with_raster`, the raster allocation), so the 15 Hz loop performs no
/// steady-state allocation. Produces a frame identical to [`capture`].
pub fn capture_into(
    camera: &Camera,
    world: &World,
    seq: u64,
    with_raster: bool,
    frame: &mut CameraFrame,
) {
    let ego = world.ego();
    let CameraFrame { truth, raster, .. } = frame;
    truth.clear();
    truth.extend(world.others().filter_map(|actor| {
        camera.project(ego, actor).map(|(bbox, depth)| TruthBox {
            actor: actor.id,
            kind: actor.kind,
            bbox,
            depth,
            occlusion: 0.0,
            suppressed: false,
        })
    }));
    truth.sort_by(|a, b| a.depth.total_cmp(&b.depth));

    // Occlusion: fraction of each box covered by any single nearer box
    // (pairwise max — adequate for the sparse scenes in the scenarios).
    for i in 0..truth.len() {
        let mut occ: f64 = 0.0;
        for j in 0..i {
            let inter = truth[i].bbox.intersection_area(&truth[j].bbox);
            let area = truth[i].bbox.area();
            if area > 0.0 {
                occ = occ.max(inter / area);
            }
        }
        truth[i].occlusion = occ;
    }

    if with_raster {
        let target = raster.get_or_insert_with(|| Raster::new(0, 0, 0.0));
        render_into(camera, truth, target);
    } else {
        *raster = None;
    }
    frame.seq = seq;
    frame.t = world.time();
}

/// Renders the ground-truth boxes into a fresh raster, far-to-near so nearer
/// objects paint over farther ones.
pub fn render(camera: &Camera, truth: &[TruthBox]) -> Raster {
    let mut raster = Raster::new(0, 0, 0.0);
    render_into(camera, truth, &mut raster);
    raster
}

/// Like [`render`] but reuses `raster`'s allocation (re-dimensioned and
/// cleared to the background first).
pub fn render_into(camera: &Camera, truth: &[TruthBox], raster: &mut Raster) {
    raster.reset(
        (camera.width / RASTER_SCALE) as usize,
        (camera.height / RASTER_SCALE) as usize,
        0.1,
    );
    for tb in truth.iter().rev() {
        raster.fill_camera_rect(&tb.bbox, class_luminance(tb.kind));
    }
}

impl CameraFrame {
    /// The truth box for `actor`, if it projects into this frame.
    pub fn truth_for(&self, actor: ActorId) -> Option<&TruthBox> {
        self.truth.iter().find(|t| t.actor == actor)
    }

    /// Mutable access to the truth box for `actor` (the attacker's hook).
    pub fn truth_for_mut(&mut self, actor: ActorId) -> Option<&mut TruthBox> {
        self.truth.iter_mut().find(|t| t.actor == actor)
    }

    /// Boxes the detector can plausibly see: not suppressed, not occluded
    /// beyond [`OCCLUSION_LIMIT`].
    pub fn visible(&self) -> impl Iterator<Item = &TruthBox> {
        self.truth
            .iter()
            .filter(|t| !t.suppressed && t.occlusion < OCCLUSION_LIMIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_simkit::actor::{Actor, ActorId, ActorKind};
    use av_simkit::behavior::Behavior;
    use av_simkit::math::Vec2;
    use av_simkit::road::Road;

    fn world() -> World {
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 10.0, Behavior::Ego);
        let mut w = World::new(Road::default(), ego);
        w.add_actor(Actor::new(
            ActorId(1),
            ActorKind::Car,
            Vec2::new(30.0, 0.0),
            5.0,
            Behavior::CruiseStraight { speed: 5.0 },
        ))
        .unwrap();
        w.add_actor(Actor::new(
            ActorId(2),
            ActorKind::Pedestrian,
            Vec2::new(50.0, 3.0),
            0.0,
            Behavior::Parked,
        ))
        .unwrap();
        w
    }

    #[test]
    fn capture_projects_visible_actors_sorted_by_depth() {
        let frame = capture(&Camera::default(), &world(), 7, false);
        assert_eq!(frame.seq, 7);
        assert_eq!(frame.truth.len(), 2);
        assert_eq!(frame.truth[0].actor, ActorId(1));
        assert!(frame.truth[0].depth < frame.truth[1].depth);
        assert!(frame.raster.is_none());
    }

    #[test]
    fn occlusion_detected_for_aligned_objects() {
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 10.0, Behavior::Ego);
        let mut w = World::new(Road::default(), ego);
        // Two cars dead ahead; the far one hides behind the near one.
        for (id, x) in [(1u32, 20.0), (2, 40.0)] {
            w.add_actor(Actor::new(
                ActorId(id),
                ActorKind::Car,
                Vec2::new(x, 0.0),
                0.0,
                Behavior::Parked,
            ))
            .unwrap();
        }
        let frame = capture(&Camera::default(), &w, 0, false);
        let far = frame.truth_for(ActorId(2)).unwrap();
        assert!(
            far.occlusion > OCCLUSION_LIMIT,
            "occlusion = {}",
            far.occlusion
        );
        assert_eq!(frame.visible().count(), 1);
    }

    #[test]
    fn suppression_hides_from_visible() {
        let mut frame = capture(&Camera::default(), &world(), 0, false);
        frame.truth_for_mut(ActorId(1)).unwrap().suppressed = true;
        assert_eq!(frame.visible().count(), 1);
        assert_eq!(frame.visible().next().unwrap().actor, ActorId(2));
    }

    #[test]
    fn raster_renders_objects_brighter_than_background() {
        let frame = capture(&Camera::default(), &world(), 0, true);
        let raster = frame.raster.as_ref().unwrap();
        let car_box = &frame.truth_for(ActorId(1)).unwrap().bbox;
        assert!(raster.mean_in_camera_rect(car_box) > 0.5);
    }

    #[test]
    fn pedestrian_renders_brighter_than_car() {
        assert!(class_luminance(ActorKind::Pedestrian) > class_luminance(ActorKind::Car));
    }
}
