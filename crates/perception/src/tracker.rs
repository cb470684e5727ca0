//! Multi-object tracker: Hungarian association + per-track Kalman filters.
//!
//! Implements the tracking-by-detection loop of §II-B: each detection is
//! associated with an existing tracker via minimum-cost bipartite matching
//! over an IoU/center-distance cost ("M"), and each track maintains its
//! state with a constant-velocity Kalman filter ("F*"). Track lifecycle
//! follows the usual tentative → confirmed → coasted → deleted scheme.

use crate::calibration::DetectorCalibration;
use crate::hungarian::HungarianScratch;
use crate::kalman::{Kalman, KalmanConfig};
use crate::types::Detection;
use av_sensing::bbox::BBox;
use av_simkit::actor::{ActorId, ActorKind};

/// Stable track identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(pub u64);

/// Track lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackState {
    /// Newly created; not yet reported to fusion.
    Tentative,
    /// Confirmed by enough hits; reported to fusion.
    Confirmed,
    /// Confirmed track currently missing detections (KF coasting).
    Coasting,
}

/// One tracked object.
#[derive(Debug, Clone)]
pub struct Track {
    /// Track identifier.
    pub id: TrackId,
    /// Object class (fixed at creation from the first detection).
    pub kind: ActorKind,
    /// Lifecycle state.
    pub state: TrackState,
    /// Total matched detections.
    pub hits: u32,
    /// Consecutive missed frames.
    pub misses: u32,
    /// Exponentially smoothed box width (px).
    pub width: f64,
    /// Exponentially smoothed box height (px).
    pub height: f64,
    /// Evaluation-only: provenance of the last matched detection.
    pub provenance: Option<ActorId>,
    kf: Kalman,
}

impl Track {
    /// Current estimated bounding box (KF position + smoothed size).
    pub fn bbox(&self) -> BBox {
        let (cx, cy) = self.kf.position();
        BBox::from_center(cx, cy, self.width, self.height)
    }

    /// Estimated image-plane velocity (px/s).
    pub fn velocity(&self) -> (f64, f64) {
        self.kf.velocity()
    }

    /// Whether the track is reported to fusion.
    pub fn is_confirmed(&self) -> bool {
        matches!(self.state, TrackState::Confirmed | TrackState::Coasting)
    }
}

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// Hits required to confirm a track.
    pub confirm_hits: u32,
    /// Consecutive misses before a track is deleted.
    pub max_misses: u32,
    /// Association gate: maximum center distance as a multiple of the
    /// track-box diagonal.
    pub gate_diagonals: f64,
    /// Maximum admissible association cost λ — the threshold the paper's
    /// Eq. (4) constrains the attacker against (`M ≤ λ`).
    pub lambda: f64,
    /// Exponential smoothing factor for box size (0 = frozen, 1 = raw).
    pub size_alpha: f64,
    /// Kalman process/update configuration (measurement noise is rescaled
    /// per class and box size each update).
    pub kalman: KalmanConfig,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            confirm_hits: 3,
            max_misses: 5,
            gate_diagonals: 4.0,
            lambda: 1.8,
            size_alpha: 0.3,
            kalman: KalmanConfig::default(),
        }
    }
}

/// Association cost between a track's predicted box and a detection box.
///
/// `1 − IoU` when the boxes overlap; otherwise `1 + d/gate` where `d` is the
/// center distance and `gate` the admissible radius. `INFINITY` encodes an
/// inadmissible pair (outside the gate or class mismatch). This function is
/// `pub` because the trajectory hijacker evaluates the identical cost when
/// solving Eq. (4).
pub fn association_cost(
    track_bbox: &BBox,
    track_kind: ActorKind,
    det_bbox: &BBox,
    det_kind: ActorKind,
    config: &TrackerConfig,
) -> f64 {
    if track_kind.is_vehicle() != det_kind.is_vehicle() {
        return f64::INFINITY;
    }
    let gate = config.gate_diagonals * track_bbox.width().hypot(track_bbox.height()).max(1.0);
    let dist = track_bbox.center_distance(det_bbox);
    if dist > gate {
        return f64::INFINITY;
    }
    let iou = track_bbox.iou(det_bbox);
    let cost = if iou > 0.0 {
        1.0 - iou
    } else {
        1.0 + dist / gate
    };
    if cost > config.lambda {
        f64::INFINITY
    } else {
        cost
    }
}

/// Multi-object tracker.
#[derive(Debug, Clone)]
pub struct Tracker {
    config: TrackerConfig,
    calibration: DetectorCalibration,
    tracks: Vec<Track>,
    next_id: u64,
    scratch: HungarianScratch,
    det_used: Vec<bool>,
}

impl Tracker {
    /// Creates a tracker; `calibration` provides the per-class measurement
    /// noise that sizes each track's Kalman `R`.
    pub fn new(config: TrackerConfig, calibration: DetectorCalibration) -> Self {
        Tracker {
            config,
            calibration,
            tracks: Vec::new(),
            next_id: 0,
            scratch: HungarianScratch::new(),
            det_used: Vec::new(),
        }
    }

    /// The tracker configuration.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// All live tracks.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Confirmed (fusion-visible) tracks.
    pub fn confirmed(&self) -> impl Iterator<Item = &Track> {
        self.tracks.iter().filter(|t| t.is_confirmed())
    }

    /// Advances the tracker one camera frame: predicts all tracks by `dt`,
    /// associates `detections`, updates matched tracks, ages unmatched ones,
    /// and spawns tentative tracks for unmatched detections.
    pub fn step(&mut self, dt: f64, detections: &[Detection]) {
        // Destructure for disjoint field borrows: the cost fill reads
        // `tracks` while writing into `scratch`, and the update loop below
        // mutates `tracks` while `assignment` still borrows `scratch`.
        let Self {
            config,
            tracks,
            scratch,
            det_used,
            ..
        } = self;

        for track in tracks.iter_mut() {
            track.kf.predict(dt);
        }

        // Cost matrix (reused flat buffer) and optimal assignment.
        let m = detections.len();
        let cost = scratch.begin(tracks.len(), m);
        for (ti, t) in tracks.iter().enumerate() {
            let tb = t.bbox();
            for (di, d) in detections.iter().enumerate() {
                cost[ti * m + di] = association_cost(&tb, t.kind, &d.bbox, d.kind, config);
            }
        }
        let assignment = scratch.solve();

        det_used.clear();
        det_used.resize(detections.len(), false);
        for (ti, a) in assignment.iter().enumerate() {
            let track = &mut tracks[ti];
            match a {
                Some(di) => {
                    det_used[*di] = true;
                    let det = &detections[*di];
                    let (cx, cy) = det.bbox.center();
                    track.kf.update(cx, cy);
                    let alpha = config.size_alpha;
                    track.width += alpha * (det.bbox.width() - track.width);
                    track.height += alpha * (det.bbox.height() - track.height);
                    track.hits += 1;
                    track.misses = 0;
                    track.provenance = det.provenance;
                    track.state = if track.hits >= config.confirm_hits {
                        TrackState::Confirmed
                    } else {
                        TrackState::Tentative
                    };
                }
                None => {
                    track.misses += 1;
                    if track.state == TrackState::Confirmed {
                        track.state = TrackState::Coasting;
                    }
                }
            }
        }
        self.tracks.retain(|t| t.misses <= self.config.max_misses);

        for (di, det) in detections.iter().enumerate() {
            if self.det_used[di] {
                continue;
            }
            let (cx, cy) = det.bbox.center();
            let class = self.calibration.for_kind(det.kind);
            let mut kcfg = self.config.kalman;
            kcfg.measurement_noise_x =
                (class.center_x.std_dev * det.bbox.width()).max(kcfg.measurement_noise_x);
            kcfg.measurement_noise_y =
                (class.center_y.std_dev * det.bbox.height()).max(kcfg.measurement_noise_y);
            self.tracks.push(Track {
                id: TrackId(self.next_id),
                kind: det.kind,
                state: TrackState::Tentative,
                hits: 1,
                misses: 0,
                width: det.bbox.width(),
                height: det.bbox.height(),
                provenance: det.provenance,
                kf: Kalman::new(kcfg, cx, cy),
            });
            self.next_id += 1;
        }
    }

    /// Removes all tracks and restarts the id sequence (between runs), so a
    /// reused tracker behaves exactly like a freshly constructed one.
    pub fn reset(&mut self) {
        self.tracks.clear();
        self.next_id = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 1.0 / 15.0;

    fn det(cx: f64, cy: f64, w: f64, h: f64, kind: ActorKind) -> Detection {
        Detection {
            kind,
            bbox: BBox::from_center(cx, cy, w, h),
            score: 0.9,
            provenance: Some(ActorId(42)),
        }
    }

    fn tracker() -> Tracker {
        Tracker::new(TrackerConfig::default(), DetectorCalibration::ideal())
    }

    #[test]
    fn track_confirms_after_three_hits() {
        let mut t = tracker();
        for i in 0..3 {
            t.step(DT, &[det(100.0, 100.0, 50.0, 40.0, ActorKind::Car)]);
            let tr = &t.tracks()[0];
            if i < 2 {
                assert_eq!(tr.state, TrackState::Tentative);
            } else {
                assert_eq!(tr.state, TrackState::Confirmed);
            }
        }
        assert_eq!(t.confirmed().count(), 1);
    }

    #[test]
    fn track_deleted_after_max_misses() {
        let mut t = tracker();
        for _ in 0..3 {
            t.step(DT, &[det(100.0, 100.0, 50.0, 40.0, ActorKind::Car)]);
        }
        for _ in 0..6 {
            t.step(DT, &[]);
        }
        assert!(t.tracks().is_empty());
    }

    #[test]
    fn coasting_track_predicts_forward() {
        let mut t = tracker();
        // Establish a moving track (100 → 148 px over 4 frames at 180 px/s).
        for i in 0..12 {
            let x = 100.0 + 12.0 * i as f64;
            t.step(DT, &[det(x, 100.0, 50.0, 40.0, ActorKind::Car)]);
        }
        let x_before = t.tracks()[0].bbox().center().0;
        t.step(DT, &[]); // miss
        let tr = &t.tracks()[0];
        assert_eq!(tr.state, TrackState::Coasting);
        assert!(
            tr.bbox().center().0 > x_before,
            "keeps moving while coasting"
        );
    }

    #[test]
    fn two_objects_keep_identities() {
        let mut t = tracker();
        for i in 0..10 {
            let dx = 5.0 * i as f64;
            t.step(
                DT,
                &[
                    det(100.0 + dx, 100.0, 40.0, 30.0, ActorKind::Car),
                    det(500.0 - dx, 100.0, 40.0, 30.0, ActorKind::Car),
                ],
            );
        }
        assert_eq!(t.tracks().len(), 2);
        let ids: Vec<TrackId> = t.tracks().iter().map(|tr| tr.id).collect();
        assert_eq!(ids, vec![TrackId(0), TrackId(1)]);
        // The two tracks straddle the meeting point but never swapped.
        let xs: Vec<f64> = t.tracks().iter().map(|tr| tr.bbox().center().0).collect();
        assert!(xs[0] < xs[1]);
    }

    #[test]
    fn class_mismatch_is_inadmissible() {
        let cfg = TrackerConfig::default();
        let b = BBox::from_center(0.0, 0.0, 10.0, 10.0);
        let c = association_cost(&b, ActorKind::Car, &b, ActorKind::Pedestrian, &cfg);
        assert!(c.is_infinite());
        let ok = association_cost(&b, ActorKind::Car, &b, ActorKind::Truck, &cfg);
        assert!(ok < 0.01, "vehicle classes are compatible");
    }

    #[test]
    fn gate_rejects_distant_detections() {
        let cfg = TrackerConfig::default();
        let track = BBox::from_center(0.0, 0.0, 10.0, 10.0);
        let near = BBox::from_center(30.0, 0.0, 10.0, 10.0);
        let far = BBox::from_center(100.0, 0.0, 10.0, 10.0);
        assert!(association_cost(&track, ActorKind::Car, &near, ActorKind::Car, &cfg).is_finite());
        assert!(association_cost(&track, ActorKind::Car, &far, ActorKind::Car, &cfg).is_infinite());
    }

    #[test]
    fn zero_iou_costs_more_than_any_overlap() {
        let cfg = TrackerConfig::default();
        let track = BBox::from_center(0.0, 0.0, 10.0, 10.0);
        let overlapping = BBox::from_center(9.0, 0.0, 10.0, 10.0);
        let disjoint = BBox::from_center(15.0, 0.0, 10.0, 10.0);
        let c1 = association_cost(&track, ActorKind::Car, &overlapping, ActorKind::Car, &cfg);
        let c2 = association_cost(&track, ActorKind::Car, &disjoint, ActorKind::Car, &cfg);
        assert!(c1 < 1.0 && c2 > 1.0 && c2 < cfg.lambda);
    }

    #[test]
    fn provenance_tracks_last_match() {
        let mut t = tracker();
        t.step(DT, &[det(100.0, 100.0, 50.0, 40.0, ActorKind::Car)]);
        assert_eq!(t.tracks()[0].provenance, Some(ActorId(42)));
    }

    #[test]
    fn reset_clears_tracks() {
        let mut t = tracker();
        t.step(DT, &[det(100.0, 100.0, 50.0, 40.0, ActorKind::Car)]);
        t.reset();
        assert!(t.tracks().is_empty());
    }
}
