//! The combined intrusion-detection system.
//!
//! The IDS bolts onto the perception pipeline's observables — raw detector
//! output, LiDAR sweeps, and the fused world model — and keeps its own
//! lightweight track table so it needs no cooperation from the (possibly
//! compromised) tracker. Three monitors run side by side:
//!
//! 1. [`InnovationMonitor`] — CUSUM over detection-vs-prediction residuals.
//! 2. [`StreakMonitor`] — continuous-misdetection envelope per class.
//! 3. [`ConsistencyMonitor`] — persistent camera/LiDAR divergence.

use crate::consistency::{ConsistencyConfig, ConsistencyMonitor};
use crate::innovation::{CusumConfig, InnovationMonitor};
use crate::streak::{StreakConfig, StreakMonitor};
use av_perception::calibration::DetectorCalibration;
use av_perception::types::{Detection, Support, WorldObject};
use av_sensing::lidar::LidarScan;
use av_simkit::actor::ActorKind;
use av_simkit::math::Vec2;

/// Which monitor raised an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlarmKind {
    /// Biased innovation sequence (step-like tampering). Note: a hijack
    /// that *walks* the box at constant velocity is kinematically
    /// indistinguishable from real motion at this level — that is exactly
    /// why RoboTack evades innovation monitoring (§IV-C).
    Innovation,
    /// Misdetection streak beyond the calibrated envelope (Disappear).
    Streak,
    /// Persistent camera–LiDAR divergence (Move_Out / Move_In).
    CrossSensor,
    /// Kinematically implausible sustained lateral rate — the
    /// countermeasure direction §VIII proposes: vehicles do not slide
    /// sideways at several body-widths per second.
    Kinematics,
}

impl AlarmKind {
    /// Every monitor, in declaration order.
    pub const ALL: [AlarmKind; 4] = [
        AlarmKind::Innovation,
        AlarmKind::Streak,
        AlarmKind::CrossSensor,
        AlarmKind::Kinematics,
    ];

    /// Position of this kind in [`AlarmKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            AlarmKind::Innovation => 0,
            AlarmKind::Streak => 1,
            AlarmKind::CrossSensor => 2,
            AlarmKind::Kinematics => 3,
        }
    }
}

/// One IDS alarm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alarm {
    /// Time raised (s).
    pub t: f64,
    /// Raising monitor.
    pub kind: AlarmKind,
}

/// IDS configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdsConfig {
    /// Innovation CUSUM parameters.
    pub cusum: CusumConfig,
    /// Streak-envelope parameters.
    pub streak: StreakConfig,
    /// Cross-sensor parameters.
    pub consistency: ConsistencyConfig,
    /// Detector calibration the monitors normalize against.
    pub calibration: DetectorCalibration,
    /// LiDAR range within which a vehicle is *expected* to return (m).
    pub lidar_vehicle_range: f64,
    /// Sustained ground-frame lateral speed (m/s) beyond which a vehicle
    /// track is kinematically implausible (cars do not slide sideways).
    pub plausible_lateral_mps: f64,
    /// Consecutive implausible frames before the kinematics alarm.
    pub plausibility_persistence: u32,
    /// Image width/height (px) for departure detection at the borders.
    pub image_size: (f64, f64),
    /// Pinhole focal length (px) for ground back-projection.
    pub focal: f64,
}

impl Default for IdsConfig {
    fn default() -> Self {
        IdsConfig {
            cusum: CusumConfig::default(),
            streak: StreakConfig::default(),
            consistency: ConsistencyConfig::default(),
            calibration: DetectorCalibration::paper(),
            lidar_vehicle_range: 70.0,
            plausible_lateral_mps: 5.0,
            plausibility_persistence: 6,
            image_size: (1920.0, 1080.0),
            focal: 960.0 / (30f64.to_radians()).tan(),
        }
    }
}

/// The IDS's own minimal track: an alpha–beta predictor over the detection
/// center, independent of the main tracker.
#[derive(Debug, Clone)]
struct IdsTrack {
    id: u64,
    kind: ActorKind,
    center: (f64, f64),
    velocity: (f64, f64),
    width: f64,
    height: f64,
    hits: u32,
    misses: u32,
    implausible: u32,
    /// Ground-frame lateral estimate (m) and its rate (m/s).
    ground_y: f64,
    ground_vy: f64,
    ground_init: bool,
}

/// The combined IDS.
#[derive(Debug, Clone)]
pub struct Ids {
    config: IdsConfig,
    innovation: InnovationMonitor,
    streak: StreakMonitor,
    consistency: ConsistencyMonitor,
    tracks: Vec<IdsTrack>,
    next_id: u64,
    alarms: Vec<Alarm>,
    /// Per-frame scratch, kept across frames so a frame allocates nothing:
    /// which detections a track claimed, one track's gated candidates
    /// (detection index, distance), and a scan's LiDAR return positions.
    used: Vec<bool>,
    candidates: Vec<(usize, f64)>,
    returns: Vec<Vec2>,
}

impl Ids {
    /// Creates the IDS.
    pub fn new(config: IdsConfig) -> Self {
        Ids {
            innovation: InnovationMonitor::new(config.cusum),
            streak: StreakMonitor::new(config.streak, config.calibration),
            consistency: ConsistencyMonitor::new(config.consistency),
            config,
            tracks: Vec::new(),
            next_id: 0,
            alarms: Vec::new(),
            used: Vec::new(),
            candidates: Vec::new(),
            returns: Vec::new(),
        }
    }

    /// All alarms raised so far.
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// Alarms of one kind.
    pub fn alarm_count(&self, kind: AlarmKind) -> usize {
        self.alarms.iter().filter(|a| a.kind == kind).count()
    }

    /// Feeds one camera frame's raw detections at time `t`.
    pub fn on_camera(&mut self, t: f64, detections: &[Detection]) {
        let dt = 1.0 / av_simkit::units::CAMERA_HZ;
        let used = &mut self.used;
        used.clear();
        used.resize(detections.len(), false);

        // Greedy nearest-neighbor association against predictions.
        for track in &mut self.tracks {
            let predicted = (
                track.center.0 + track.velocity.0 * dt,
                track.center.1 + track.velocity.1 * dt,
            );
            let gate = 4.0 * track.width.hypot(track.height).max(8.0);
            let candidates = &mut self.candidates;
            candidates.clear();
            candidates.extend(
                detections
                    .iter()
                    .enumerate()
                    .filter(|(i, d)| !used[*i] && d.kind.is_vehicle() == track.kind.is_vehicle())
                    .map(|(i, d)| {
                        let (cx, cy) = d.bbox.center();
                        (i, (cx - predicted.0).hypot(cy - predicted.1))
                    })
                    .filter(|(_, dist)| *dist <= gate),
            );
            candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
            // Ambiguous association (two plausible candidates, e.g. objects
            // crossing each other in the image) would let identity swaps
            // masquerade as attacks: keep tracking, but skip the monitors.
            let ambiguous = candidates.len() >= 2
                && candidates[1].1 < 2.0 * candidates[0].1.max(track.width * 0.5);
            match candidates.first().copied() {
                Some((i, _)) => {
                    let det = &detections[i];
                    used[i] = true;
                    let (cx, cy) = det.bbox.center();
                    // Innovation along the attack axis (image x), in σ units.
                    // Skipped for strongly radial tracks (fast apparent
                    // growth/shrink): the linear predictor is invalid there
                    // and perspective acceleration masquerades as bias.
                    let class = self.config.calibration.for_kind(track.kind);
                    let sigma = (class.center_x.std_dev * track.width).max(1.0);
                    let z = (cx - predicted.0) / sigma;
                    let growth_rate =
                        ((det.bbox.width() - track.width) / dt / track.width.max(1.0)).abs();
                    if track.hits >= 3
                        && growth_rate < 0.25
                        && !ambiguous
                        && self.innovation.observe(track.id, z)
                    {
                        self.alarms.push(Alarm {
                            t,
                            kind: AlarmKind::Innovation,
                        });
                    }
                    // Alpha-beta update of the IDS's own predictor.
                    let (alpha, beta) = (0.4, 0.15);
                    track.velocity.0 += beta / dt * (cx - predicted.0);
                    track.velocity.1 += beta / dt * (cy - predicted.1);
                    track.center.0 = predicted.0 + alpha * (cx - predicted.0);
                    track.center.1 = predicted.1 + alpha * (cy - predicted.1);
                    track.width += 0.3 * (det.bbox.width() - track.width);
                    track.height += 0.3 * (det.bbox.height() - track.height);
                    track.hits += 1;
                    track.misses = 0;
                    self.streak.observe_detected(track.id, track.kind);
                    // Kinematic plausibility on the *ground-frame* lateral
                    // rate (image rates conflate radial approach with
                    // lateral motion). Depth from apparent class height.
                    let (iw, ih) = self.config.image_size;
                    let clipped =
                        det.bbox.x0 <= 2.0 || det.bbox.x1 >= iw - 2.0 || det.bbox.y1 >= ih - 2.0;
                    if track.kind.is_vehicle() && !clipped {
                        // Raw detection values for both column and depth:
                        // mixing differently-lagged smoothed estimates turns
                        // fast radial approach into phantom lateral motion
                        // (and border-clipped boxes corrupt the apparent
                        // height entirely).
                        let class_height = av_simkit::actor::Size::for_kind(track.kind).height;
                        let depth = self.config.focal * class_height / det.bbox.height().max(1.0);
                        let (cx_pp, _) = (
                            self.config.image_size.0 / 2.0,
                            self.config.image_size.1 / 2.0,
                        );
                        let y_ground = -(cx - cx_pp) * depth / self.config.focal;
                        if track.ground_init {
                            let (ga, gb) = (0.3, 0.1);
                            let predicted = track.ground_y + track.ground_vy * dt;
                            let residual = y_ground - predicted;
                            if residual.abs() > 2.5 {
                                // A >2.5 m single-frame lateral jump is an
                                // association anomaly (identity swap), not
                                // motion: restart the filter.
                                track.ground_y = y_ground;
                                track.ground_vy = 0.0;
                                track.implausible = 0;
                            } else {
                                track.ground_y = predicted + ga * residual;
                                track.ground_vy += gb / dt * residual;
                            }
                        } else {
                            track.ground_y = y_ground;
                            track.ground_init = true;
                        }
                        if track.hits >= 6 && !ambiguous {
                            if track.ground_vy.abs() > self.config.plausible_lateral_mps {
                                track.implausible += 1;
                                if track.implausible == self.config.plausibility_persistence {
                                    if std::env::var("IDS_DEBUG").is_ok() {
                                        eprintln!(
                                            "KIN t {t:.2} track {} u {:.0} w {:.0} h {:.0} depth {:.1} gy {:.2} gvy {:.2}",
                                            track.id, track.center.0, track.width, track.height, depth, track.ground_y, track.ground_vy
                                        );
                                    }
                                    self.alarms.push(Alarm {
                                        t,
                                        kind: AlarmKind::Kinematics,
                                    });
                                }
                            } else {
                                track.implausible = 0;
                            }
                        }
                    }
                }
                None => {
                    track.misses += 1;
                    track.center.0 = predicted.0;
                    track.center.1 = predicted.1;
                    // Departure is not misdetection: a track whose predicted
                    // position has drifted to the image border (or grown
                    // huge — about to pass) simply left the field of view.
                    let (iw, ih) = self.config.image_size;
                    let departing = predicted.0 < 0.12 * iw
                        || predicted.0 > 0.88 * iw
                        || predicted.1 > 0.92 * ih
                        || track.width > 0.3 * iw;
                    if departing {
                        track.misses = u32::MAX / 2; // retire below
                    } else if track.hits >= 3 && self.streak.observe_missed(track.id) {
                        self.alarms.push(Alarm {
                            t,
                            kind: AlarmKind::Streak,
                        });
                    }
                }
            }
        }

        // Retire tracks that have been gone far beyond any envelope.
        let limit = self.streak.envelope(ActorKind::Car) + 30;
        let (innovation, streak, consistency) = (
            &mut self.innovation,
            &mut self.streak,
            &mut self.consistency,
        );
        self.tracks.retain(|tr| {
            let keep = tr.misses <= limit;
            if !keep {
                innovation.drop_track(tr.id);
                streak.drop_object(tr.id);
                consistency.drop_object(tr.id);
            }
            keep
        });

        // New tracks for unmatched detections.
        for (i, det) in detections.iter().enumerate() {
            if self.used[i] {
                continue;
            }
            let (cx, cy) = det.bbox.center();
            self.tracks.push(IdsTrack {
                id: self.next_id,
                kind: det.kind,
                center: (cx, cy),
                velocity: (0.0, 0.0),
                width: det.bbox.width(),
                height: det.bbox.height(),
                hits: 1,
                misses: 0,
                implausible: 0,
                ground_y: 0.0,
                ground_vy: 0.0,
                ground_init: false,
            });
            self.next_id += 1;
        }
    }

    /// Feeds one LiDAR sweep plus the current fused world model at time `t`.
    pub fn on_lidar(&mut self, t: f64, scan: &LidarScan, world_model: &[WorldObject]) {
        self.returns.clear();
        self.returns.extend(scan.objects.iter().map(|o| o.position));
        for obj in world_model {
            // Only camera-steered vehicles inside the expected LiDAR range
            // can be cross-checked.
            let camera_steered =
                matches!(obj.support, Support::CameraOnly | Support::CameraAndLidar);
            if !camera_steered
                || !obj.kind.is_vehicle()
                || obj.position.norm() > self.config.lidar_vehicle_range
            {
                continue;
            }
            if self.consistency.check(obj.id, obj.position, &self.returns) {
                self.alarms.push(Alarm {
                    t,
                    kind: AlarmKind::CrossSensor,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_sensing::bbox::BBox;

    fn det(cx: f64, cy: f64, w: f64, h: f64) -> Detection {
        Detection {
            kind: ActorKind::Car,
            bbox: BBox::from_center(cx, cy, w, h),
            score: 0.9,
            provenance: None,
        }
    }

    #[test]
    fn steady_detections_raise_no_alarms() {
        let mut ids = Ids::new(IdsConfig::default());
        for i in 0..200 {
            ids.on_camera(f64::from(i) / 15.0, &[det(960.0, 620.0, 120.0, 90.0)]);
        }
        assert!(ids.alarms().is_empty());
    }

    #[test]
    fn step_tampering_triggers_innovation_alarm() {
        // A naive attacker teleports the box 3σ and holds it there: the
        // residuals spike until the predictor re-converges — the CUSUM
        // catches the step.
        let mut ids = Ids::new(IdsConfig::default());
        for i in 0..10 {
            ids.on_camera(f64::from(i) / 15.0, &[det(960.0, 620.0, 120.0, 90.0)]);
        }
        let sigma = 0.464 * 120.0;
        for i in 0..40 {
            ids.on_camera(
                f64::from(10 + i) / 15.0,
                &[det(960.0 + 6.0 * sigma, 620.0, 120.0, 90.0)],
            );
        }
        assert!(
            ids.alarm_count(AlarmKind::Innovation) > 0,
            "a 6σ step must be flagged"
        );
    }

    #[test]
    fn constant_velocity_walk_evades_innovation_but_not_kinematics() {
        // RoboTack-style: walk the box laterally at ~1σ per frame. The
        // innovation monitor adapts (this is the paper's stealthiness);
        // the kinematic-plausibility monitor flags the implied sideways
        // speed instead.
        let mut ids = Ids::new(IdsConfig::default());
        for i in 0..10 {
            ids.on_camera(f64::from(i) / 15.0, &[det(960.0, 620.0, 120.0, 90.0)]);
        }
        let step = 0.464 * 120.0; // 1σ per frame ≈ 7 widths/s
        for i in 0..40 {
            let cx = 960.0 + step * f64::from(i + 1);
            ids.on_camera(f64::from(10 + i) / 15.0, &[det(cx, 620.0, 120.0, 90.0)]);
        }
        assert!(
            ids.alarm_count(AlarmKind::Kinematics) > 0,
            "implausible lateral rate flagged"
        );
    }

    #[test]
    fn plausible_lateral_motion_is_not_flagged() {
        // A real lane change: ~0.5 widths/s.
        let mut ids = Ids::new(IdsConfig::default());
        for i in 0..120 {
            let cx = 960.0 + 4.0 * f64::from(i); // 60 px/s at 120 px width
            ids.on_camera(f64::from(i) / 15.0, &[det(cx, 620.0, 120.0, 90.0)]);
        }
        assert_eq!(ids.alarm_count(AlarmKind::Kinematics), 0);
    }

    #[test]
    fn long_disappearance_triggers_streak_alarm() {
        let mut ids = Ids::new(IdsConfig::default());
        for i in 0..10 {
            ids.on_camera(f64::from(i) / 15.0, &[det(960.0, 620.0, 120.0, 90.0)]);
        }
        for i in 0..70 {
            ids.on_camera(f64::from(10 + i) / 15.0, &[]);
        }
        assert_eq!(ids.alarm_count(AlarmKind::Streak), 1);
    }

    #[test]
    fn cross_sensor_divergence_alarm() {
        use av_sensing::lidar::LidarObject;
        let mut ids = Ids::new(IdsConfig::default());
        let obj = WorldObject {
            id: 7,
            kind: ActorKind::Car,
            position: Vec2::new(30.0, 3.5),
            velocity: Vec2::ZERO,
            extent: (4.6, 1.9),
            support: Support::CameraOnly,
            track: None,
            provenance: None,
        };
        let scan = LidarScan {
            t: 0.0,
            objects: vec![LidarObject {
                position: Vec2::new(30.0, 0.0),
                extent: (4.6, 1.9),
            }],
        };
        for i in 0..20 {
            ids.on_lidar(f64::from(i) * 0.1, &scan, &[obj]);
        }
        assert_eq!(ids.alarm_count(AlarmKind::CrossSensor), 1);
    }

    #[test]
    fn pedestrians_out_of_lidar_range_are_not_cross_checked() {
        use av_sensing::lidar::LidarObject;
        let mut ids = Ids::new(IdsConfig::default());
        let ped = WorldObject {
            id: 9,
            kind: ActorKind::Pedestrian,
            position: Vec2::new(50.0, -4.0),
            velocity: Vec2::ZERO,
            extent: (0.5, 0.6),
            support: Support::CameraOnly,
            track: None,
            provenance: None,
        };
        let scan = LidarScan {
            t: 0.0,
            objects: vec![LidarObject {
                position: Vec2::new(20.0, 0.0),
                extent: (4.6, 1.9),
            }],
        };
        for i in 0..50 {
            ids.on_lidar(f64::from(i) * 0.1, &scan, &[ped]);
        }
        assert_eq!(ids.alarm_count(AlarmKind::CrossSensor), 0);
    }
}
