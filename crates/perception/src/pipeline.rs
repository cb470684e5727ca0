//! The assembled perception system (Fig. 1's "Perception System" box).

use crate::calibration::DetectorCalibration;
use crate::detector::Detector;
use crate::fusion::{CameraObservation, Fusion, FusionConfig};
use crate::tracker::{Track, Tracker, TrackerConfig};
use crate::types::WorldObject;
use av_sensing::camera::Camera;
use av_sensing::frame::CameraFrame;
use av_sensing::lidar::LidarScan;
use av_simkit::math::Vec2;
use av_telemetry::{Stage, Telemetry, TraceEvent};
use rand::Rng;

/// Configuration of the full perception stack.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerceptionConfig {
    /// Camera intrinsics/mounting used for the ground transform.
    pub camera: Camera,
    /// Detector noise calibration.
    pub calibration: DetectorCalibration,
    /// Tracker configuration.
    pub tracker: TrackerConfig,
    /// Fusion configuration.
    pub fusion: FusionConfig,
}

/// The full camera(+LiDAR) perception pipeline.
///
/// Two instances run per simulation: the ADS's own (fed the possibly
/// tampered camera feed plus LiDAR) and the malware's replica (fed the clean
/// tapped feed, camera-only — §III-D phase 2 reconstructs `Wt` from one
/// camera).
#[derive(Debug, Clone)]
pub struct Perception {
    config: PerceptionConfig,
    detector: Detector,
    tracker: Tracker,
    fusion: Fusion,
    last_camera_t: Option<f64>,
    last_detections: Vec<crate::types::Detection>,
    /// Spare detection buffer: swapped with `last_detections` each frame so
    /// the published detections and the detect output share two long-lived
    /// allocations instead of cloning per frame.
    detections_scratch: Vec<crate::types::Detection>,
    observations: Vec<CameraObservation>,
    stale_frames: u64,
    telemetry: Telemetry,
}

impl Perception {
    /// Builds a pipeline from configuration.
    pub fn new(config: PerceptionConfig) -> Self {
        Perception {
            config,
            detector: Detector::new(config.calibration),
            tracker: Tracker::new(config.tracker, config.calibration),
            fusion: Fusion::new(config.fusion),
            last_camera_t: None,
            last_detections: Vec::new(),
            detections_scratch: Vec::new(),
            observations: Vec::new(),
            stale_frames: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PerceptionConfig {
        &self.config
    }

    /// Attaches a telemetry handle. Camera frames are timed as
    /// [`Stage::PerceptionCamera`] (emitting [`TraceEvent::DetectionsEmitted`]
    /// and [`TraceEvent::TrackUpdate`], or [`TraceEvent::StaleFrameRejected`]
    /// for coasted frames); LiDAR sweeps are timed as
    /// [`Stage::PerceptionLidar`]. The malware's replica pipeline keeps the
    /// default disabled handle so only the ADS's own perception is traced.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Processes one camera frame: detect → associate/track → back-project →
    /// fuse. `ego_position` is the ego's world position at capture time
    /// (from GPS/IMU).
    pub fn on_camera_frame<R: Rng + ?Sized>(
        &mut self,
        frame: &CameraFrame,
        ego_position: Vec2,
        rng: &mut R,
    ) {
        // Graceful degradation: a frozen or replayed feed re-delivers a frame
        // with a non-advancing timestamp. Updating on it would collapse the
        // tracker's dt (velocity estimates explode) for zero new information
        // — coast instead and let the staleness surface to the planner.
        if let Some(t0) = self.last_camera_t {
            if frame.t <= t0 + 1e-9 {
                self.stale_frames += 1;
                let seq = frame.seq;
                self.telemetry
                    .emit(frame.t, || TraceEvent::StaleFrameRejected {
                        frame_seq: seq,
                    });
                return;
            }
        }
        let _timer = self.telemetry.time(Stage::PerceptionCamera);
        let dt = self
            .last_camera_t
            .map_or(1.0 / av_simkit::units::CAMERA_HZ, |t0| {
                (frame.t - t0).max(1e-3)
            });
        self.last_camera_t = Some(frame.t);

        // Detect into the spare buffer, then publish it by swapping with
        // `last_detections` — the previous frame's buffer becomes the next
        // spare. Net effect of the original `detections.clone()` without the
        // per-frame allocation.
        let mut detections = std::mem::take(&mut self.detections_scratch);
        self.detector.detect_into(frame, rng, &mut detections);
        self.tracker.step(dt, &detections);
        if self.telemetry.is_enabled() {
            let (seq, count) = (frame.seq, detections.len() as u32);
            self.telemetry
                .emit(frame.t, || TraceEvent::DetectionsEmitted {
                    frame_seq: seq,
                    count,
                });
            let confirmed = self.tracker.confirmed().count() as u32;
            let total = self.tracker.tracks().len() as u32;
            self.telemetry
                .emit(frame.t, || TraceEvent::TrackUpdate { confirmed, total });
        }
        self.detections_scratch = std::mem::replace(&mut self.last_detections, detections);

        let Self {
            config,
            tracker,
            fusion,
            observations,
            ..
        } = self;
        observations.clear();
        observations.extend(tracker.confirmed().filter_map(|track| {
            let bbox = track.bbox();
            // Boxes clipped at the image border back-project with a
            // systematic lateral bias (the visible-part center is not
            // the object center); drop them and let LiDAR sustain the
            // object while it passes out of the field of view.
            if bbox.x0 <= 2.0 || bbox.x1 >= config.camera.width - 2.0 {
                return None;
            }
            // Apparent-size ranging with the known class height; the
            // near field (< 8 m) is dominated by clipping and left to
            // LiDAR.
            let class_height = av_simkit::actor::Size::for_kind(track.kind).height;
            config
                .camera
                .back_project_with_height(&bbox, class_height)
                .filter(|rel| rel.x >= 8.0)
                .map(|rel| CameraObservation {
                    track: track.id,
                    kind: track.kind,
                    position: ego_position + rel,
                    provenance: track.provenance,
                })
        }));
        fusion.on_camera(observations, frame.t);
    }

    /// Processes one LiDAR sweep.
    pub fn on_lidar(&mut self, scan: &LidarScan) {
        let _timer = self.telemetry.time(Stage::PerceptionLidar);
        self.fusion.on_lidar(scan);
    }

    /// The current fused world model `Wt`.
    pub fn world_model(&self) -> Vec<WorldObject> {
        self.fusion.world_model()
    }

    /// Capture time of the newest camera frame that actually updated the
    /// pipeline (`None` before the first frame).
    pub fn last_camera_t(&self) -> Option<f64> {
        self.last_camera_t
    }

    /// Seconds of camera silence as of `now`: how long the pipeline has been
    /// coasting without fresh camera information. `0` before the first frame
    /// (startup is not degradation).
    pub fn camera_staleness(&self, now: f64) -> f64 {
        self.last_camera_t.map_or(0.0, |t0| (now - t0).max(0.0))
    }

    /// Number of frames rejected as stale (frozen/replayed feed).
    pub fn stale_frames(&self) -> u64 {
        self.stale_frames
    }

    /// The raw detector output of the most recent camera frame — the
    /// observable an external IDS monitors.
    pub fn last_detections(&self) -> &[crate::types::Detection] {
        &self.last_detections
    }

    /// Live camera tracks (the malware reads these as its `Ŝt`).
    pub fn tracks(&self) -> &[Track] {
        self.tracker.tracks()
    }

    /// The tracker (exposed for the attack's association-cost evaluation).
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// Clears all pipeline state (between runs). Buffer capacities are
    /// retained so a reused pipeline stays allocation-free.
    pub fn reset(&mut self) {
        self.detector.reset();
        self.tracker.reset();
        self.fusion.reset();
        self.last_camera_t = None;
        self.last_detections.clear();
        self.detections_scratch.clear();
        self.observations.clear();
        self.stale_frames = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_sensing::frame::capture;
    use av_sensing::lidar::Lidar;
    use av_simkit::actor::{Actor, ActorId, ActorKind};
    use av_simkit::behavior::Behavior;
    use av_simkit::road::Road;
    use av_simkit::world::World;
    use rand::SeedableRng;

    fn world() -> World {
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 10.0, Behavior::Ego);
        let mut w = World::new(Road::default(), ego);
        w.add_actor(Actor::new(
            ActorId(1),
            ActorKind::Car,
            Vec2::new(40.0, 0.0),
            6.0,
            Behavior::CruiseStraight { speed: 6.0 },
        ))
        .unwrap();
        w
    }

    fn ideal_config() -> PerceptionConfig {
        PerceptionConfig {
            calibration: DetectorCalibration::ideal(),
            ..PerceptionConfig::default()
        }
    }

    #[test]
    fn end_to_end_tracks_a_vehicle() {
        let mut w = world();
        let mut p = Perception::new(ideal_config());
        let lidar = Lidar::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let dt = 1.0 / 15.0;
        for seq in 0..60 {
            let frame = capture(&p.config.camera, &w, seq, false);
            p.on_camera_frame(&frame, w.ego().pose.position, &mut rng);
            if seq % 3 == 0 {
                p.on_lidar(&lidar.scan(&w, &mut rng));
            }
            w.step(dt, 0.0);
        }
        let wm = p.world_model();
        assert_eq!(wm.len(), 1);
        let obj = &wm[0];
        let truth = w.actor(ActorId(1)).unwrap();
        assert!(
            (obj.position.x - truth.pose.position.x).abs() < 3.0,
            "x: {} vs {}",
            obj.position.x,
            truth.pose.position.x
        );
        assert!(obj.position.y.abs() < 1.0);
        // Relative speed estimate: target does 6 m/s in world coordinates.
        assert!(
            (obj.velocity.x - 6.0).abs() < 2.5,
            "vx = {}",
            obj.velocity.x
        );
        assert_eq!(obj.provenance, Some(ActorId(1)));
    }

    #[test]
    fn noisy_pipeline_still_converges_near_truth() {
        let mut w = world();
        let mut p = Perception::new(PerceptionConfig::default());
        let lidar = Lidar::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let dt = 1.0 / 15.0;
        for seq in 0..90 {
            let frame = capture(&p.config.camera, &w, seq, false);
            p.on_camera_frame(&frame, w.ego().pose.position, &mut rng);
            if seq % 3 == 0 {
                p.on_lidar(&lidar.scan(&w, &mut rng));
            }
            w.step(dt, 0.0);
        }
        let wm = p.world_model();
        assert!(!wm.is_empty(), "object lost");
        let truth = w.actor(ActorId(1)).unwrap();
        let obj = wm
            .iter()
            .min_by(|a, b| {
                a.position
                    .distance(truth.pose.position)
                    .total_cmp(&b.position.distance(truth.pose.position))
            })
            .unwrap();
        // LiDAR refinement keeps the longitudinal error small despite the
        // (large, calibrated) camera ranging noise.
        assert!(
            (obj.position.x - truth.pose.position.x).abs() < 3.0,
            "x: {} vs {}",
            obj.position.x,
            truth.pose.position.x
        );
    }

    #[test]
    fn stale_frames_coast_instead_of_updating() {
        let mut w = world();
        let mut p = Perception::new(ideal_config());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let dt = 1.0 / 15.0;
        let mut last_fresh = None;
        for seq in 0..20 {
            let frame = capture(&p.config.camera, &w, seq, false);
            last_fresh = Some(frame.clone());
            p.on_camera_frame(&frame, w.ego().pose.position, &mut rng);
            w.step(dt, 0.0);
        }
        let tracks_before: Vec<_> = p.tracks().iter().map(|t| (t.id, t.bbox())).collect();
        let t_before = p.last_camera_t();
        // Replay the same (frozen) frame repeatedly: the pipeline must not
        // advance, and velocity estimates must not blow up.
        let frozen = last_fresh.unwrap();
        for _ in 0..10 {
            p.on_camera_frame(&frozen, w.ego().pose.position, &mut rng);
        }
        assert_eq!(p.stale_frames(), 10);
        assert_eq!(p.last_camera_t(), t_before);
        let tracks_after: Vec<_> = p.tracks().iter().map(|t| (t.id, t.bbox())).collect();
        assert_eq!(tracks_before, tracks_after, "coasted, state untouched");
        // Staleness is measured against the wall clock, not frame count.
        let now = t_before.unwrap() + 2.0;
        assert!((p.camera_staleness(now) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_world_model() {
        let mut w = world();
        let mut p = Perception::new(ideal_config());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        // Enough frames to confirm the track and pass the fusion
        // registration gate.
        for seq in 0..12 {
            let frame = capture(&p.config.camera, &w, seq, false);
            p.on_camera_frame(&frame, w.ego().pose.position, &mut rng);
            w.step(1.0 / 15.0, 0.0);
        }
        assert!(!p.world_model().is_empty());
        p.reset();
        assert!(p.world_model().is_empty());
        assert!(p.tracks().is_empty());
    }
}
