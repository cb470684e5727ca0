//! The fault injector: a seeded [`SensorTap`] executing a [`FaultPlan`].

use crate::plan::{FaultKind, FaultPlan};
use av_sensing::frame::CameraFrame;
use av_sensing::gps::GpsImuFix;
use av_sensing::lidar::LidarScan;
use av_sensing::tap::{CameraTapVerdict, SensorTap};
use av_simkit::rng::{self, mix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Stream constant separating the fault RNG from every other per-run stream
/// (the run loop derives its stream from `0xA77ACC`; this must differ).
pub const FAULT_STREAM: u64 = 0xFA_0175;

/// Counters of what the injector actually did during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Camera frames lost to `CameraFrameDrop` (or a filling delay line).
    pub camera_frames_dropped: u32,
    /// Camera frames replaced by a frozen replay.
    pub camera_frames_frozen: u32,
    /// Camera frames delivered late through a delay line.
    pub camera_frames_delayed: u32,
    /// Truth boxes perturbed by inflated noise.
    pub camera_boxes_noised: u32,
    /// Truth boxes occluded past the detector limit by an occlusion band.
    pub camera_boxes_occluded: u32,
    /// Camera frames fully blinded by a detector blackout.
    pub camera_blackout_frames: u32,
    /// LiDAR sweeps dropped.
    pub lidar_scans_dropped: u32,
    /// GPS fixes biased.
    pub gps_fixes_biased: u32,
}

impl FaultStats {
    /// Total number of faulted measurements across all channels.
    pub fn total(&self) -> u32 {
        self.camera_frames_dropped
            + self.camera_frames_frozen
            + self.camera_frames_delayed
            + self.camera_boxes_noised
            + self.camera_boxes_occluded
            + self.camera_blackout_frames
            + self.lidar_scans_dropped
            + self.gps_fixes_biased
    }
}

/// Executes a [`FaultPlan`] against the sensor streams of one run.
///
/// Seeded with the run seed: same seed + same plan ⇒ same fault schedule.
/// All randomness comes from the injector's private stream, so the run's own
/// RNG sequence is untouched whether or not faults fire, and an empty plan
/// draws nothing at all.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    /// The frame a `CameraFreeze` replays, and how many replays remain.
    frozen: Option<CameraFrame>,
    freeze_remaining: u32,
    /// Frames remaining in an active `DetectorBlackout`.
    blackout_remaining: u32,
    /// Delay line for `CameraLatency`.
    delay_line: VecDeque<CameraFrame>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds the injector for one run.
    pub fn new(plan: FaultPlan, run_seed: u64) -> Self {
        FaultInjector {
            plan,
            rng: StdRng::seed_from_u64(mix(run_seed, FAULT_STREAM)),
            frozen: None,
            freeze_remaining: 0,
            blackout_remaining: 0,
            delay_line: VecDeque::new(),
            stats: FaultStats::default(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Shifted-exponential run length, at least one frame.
    fn run_length(&mut self, mean_frames: f64) -> u32 {
        rng::exponential(&mut self.rng, 1.0, 1.0 / mean_frames.max(1.0))
            .round()
            .max(1.0) as u32
    }
}

impl SensorTap for FaultInjector {
    fn on_camera(&mut self, frame: &mut CameraFrame) -> CameraTapVerdict {
        let t = frame.t;

        // An in-progress freeze replays the stale frame regardless of the
        // originating spec's window (a wedged pipeline does not recover the
        // instant its cause ends).
        if self.freeze_remaining > 0 {
            if let Some(stale) = self.frozen.clone() {
                self.freeze_remaining -= 1;
                self.stats.camera_frames_frozen += 1;
                *frame = stale;
                return CameraTapVerdict::Deliver;
            }
            self.freeze_remaining = 0;
        }

        let mut latency_active = false;
        let mut blackout_now = self.blackout_remaining > 0;
        if blackout_now {
            self.blackout_remaining -= 1;
        }

        for i in 0..self.plan.specs.len() {
            let spec = self.plan.specs[i];
            if !spec.window.contains(t) {
                continue;
            }
            match spec.kind {
                FaultKind::CameraFrameDrop { probability } => {
                    if rng::bernoulli(&mut self.rng, probability) {
                        self.stats.camera_frames_dropped += 1;
                        return CameraTapVerdict::Drop;
                    }
                }
                FaultKind::CameraFreeze {
                    probability,
                    mean_frames,
                } => {
                    if self.freeze_remaining == 0 && rng::bernoulli(&mut self.rng, probability) {
                        // The current frame is delivered normally and becomes
                        // the stale image the next frames replay.
                        self.freeze_remaining = self.run_length(mean_frames);
                        self.frozen = Some(frame.clone());
                    }
                }
                FaultKind::CameraLatency { frames } => {
                    latency_active = true;
                    self.delay_line.push_back(frame.clone());
                    if self.delay_line.len() > frames as usize {
                        let delayed = self.delay_line.pop_front().expect("non-empty delay line");
                        if delayed.seq != frame.seq {
                            self.stats.camera_frames_delayed += 1;
                        }
                        *frame = delayed;
                    } else {
                        // Delay line still filling: this capture is not yet
                        // deliverable and the output slot stays empty.
                        self.stats.camera_frames_dropped += 1;
                        return CameraTapVerdict::Drop;
                    }
                }
                FaultKind::CameraNoise { sigma_px } => {
                    for tb in &mut frame.truth {
                        let b = &mut tb.bbox;
                        b.x0 += rng::normal(&mut self.rng, 0.0, sigma_px);
                        b.x1 += rng::normal(&mut self.rng, 0.0, sigma_px);
                        b.y0 += rng::normal(&mut self.rng, 0.0, sigma_px);
                        b.y1 += rng::normal(&mut self.rng, 0.0, sigma_px);
                        if b.x1 < b.x0 {
                            std::mem::swap(&mut b.x0, &mut b.x1);
                        }
                        if b.y1 < b.y0 {
                            std::mem::swap(&mut b.y0, &mut b.y1);
                        }
                        self.stats.camera_boxes_noised += 1;
                    }
                }
                FaultKind::CameraOcclusionBand { y0, y1, strength } => {
                    for tb in &mut frame.truth {
                        let height = (tb.bbox.y1 - tb.bbox.y0).max(1e-6);
                        let overlap = (tb.bbox.y1.min(y1) - tb.bbox.y0.max(y0)).clamp(0.0, height);
                        if overlap > 0.0 {
                            let before = tb.occlusion;
                            tb.occlusion = (tb.occlusion + strength * overlap / height).min(1.0);
                            if before <= av_sensing::frame::OCCLUSION_LIMIT
                                && tb.occlusion > av_sensing::frame::OCCLUSION_LIMIT
                            {
                                self.stats.camera_boxes_occluded += 1;
                            }
                        }
                    }
                }
                FaultKind::DetectorBlackout {
                    probability,
                    mean_frames,
                } => {
                    if self.blackout_remaining == 0
                        && !blackout_now
                        && rng::bernoulli(&mut self.rng, probability)
                    {
                        self.blackout_remaining = self.run_length(mean_frames).saturating_sub(1);
                        blackout_now = true;
                    }
                }
                FaultKind::LidarDropout { .. } | FaultKind::GpsBias { .. } => {}
            }
        }

        // Latency windows that just closed leave their queue behind; clear it
        // so a later window starts with an empty line.
        if !latency_active && !self.delay_line.is_empty() {
            self.delay_line.clear();
        }

        if blackout_now {
            for tb in &mut frame.truth {
                tb.suppressed = true;
            }
            self.stats.camera_blackout_frames += 1;
        }

        CameraTapVerdict::Deliver
    }

    fn on_lidar(&mut self, scan: &mut LidarScan) -> bool {
        for i in 0..self.plan.specs.len() {
            let spec = self.plan.specs[i];
            if !spec.window.contains(scan.t) {
                continue;
            }
            if let FaultKind::LidarDropout { probability } = spec.kind {
                if rng::bernoulli(&mut self.rng, probability) {
                    self.stats.lidar_scans_dropped += 1;
                    return false;
                }
            }
        }
        true
    }

    fn on_gps(&mut self, fix: &mut GpsImuFix) {
        for i in 0..self.plan.specs.len() {
            let spec = self.plan.specs[i];
            if !spec.window.contains(fix.t) {
                continue;
            }
            if let FaultKind::GpsBias { bias, drift_per_s } = spec.kind {
                let elapsed = (fix.t - spec.window.start).max(0.0);
                fix.position.x += bias + drift_per_s * elapsed;
                self.stats.gps_fixes_biased += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultSpec;
    use av_sensing::bbox::BBox;
    use av_sensing::frame::TruthBox;
    use av_simkit::actor::{ActorId, ActorKind};
    use av_simkit::math::Vec2;

    fn frame(seq: u64, t: f64) -> CameraFrame {
        CameraFrame {
            seq,
            t,
            truth: vec![TruthBox {
                actor: ActorId(1),
                kind: ActorKind::Car,
                bbox: BBox {
                    x0: 900.0,
                    y0: 480.0,
                    x1: 1020.0,
                    y1: 560.0,
                },
                depth: 30.0,
                occlusion: 0.0,
                suppressed: false,
            }],
            raster: None,
        }
    }

    fn fix(t: f64) -> GpsImuFix {
        GpsImuFix {
            t,
            position: Vec2::new(10.0, 0.0),
            speed: 12.5,
            accel: 0.0,
        }
    }

    #[test]
    fn empty_plan_touches_nothing_and_draws_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 7);
        let rng_before = inj.rng.clone();
        for seq in 0..50 {
            let original = frame(seq, seq as f64 / 15.0);
            let mut f = original.clone();
            assert_eq!(inj.on_camera(&mut f), CameraTapVerdict::Deliver);
            assert_eq!(f, original);
        }
        let mut g = fix(1.0);
        inj.on_gps(&mut g);
        assert_eq!(g, fix(1.0));
        assert_eq!(inj.rng, rng_before, "no RNG draws");
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn frame_drop_rate_tracks_probability() {
        let plan = FaultPlan::single(FaultSpec::always(FaultKind::CameraFrameDrop {
            probability: 0.3,
        }));
        let mut inj = FaultInjector::new(plan, 11);
        let n = 2000;
        let dropped = (0..n)
            .filter(|&seq| {
                let mut f = frame(seq, seq as f64 / 15.0);
                inj.on_camera(&mut f) == CameraTapVerdict::Drop
            })
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "drop rate {rate}");
        assert_eq!(inj.stats().camera_frames_dropped, dropped as u32);
    }

    #[test]
    fn freeze_replays_stale_frame() {
        let plan = FaultPlan::single(FaultSpec::always(FaultKind::CameraFreeze {
            probability: 1.0,
            mean_frames: 4.0,
        }));
        let mut inj = FaultInjector::new(plan, 3);
        let mut first = frame(0, 0.0);
        assert_eq!(inj.on_camera(&mut first), CameraTapVerdict::Deliver);
        assert_eq!(first.seq, 0, "onset frame delivered live");
        let mut second = frame(1, 1.0 / 15.0);
        assert_eq!(inj.on_camera(&mut second), CameraTapVerdict::Deliver);
        assert_eq!(second.seq, 0, "replayed the frozen frame");
        assert_eq!(second.t, 0.0, "stale timestamp preserved");
        assert!(inj.stats().camera_frames_frozen >= 1);
    }

    #[test]
    fn latency_delays_by_exactly_n_frames() {
        let plan = FaultPlan::single(FaultSpec::always(FaultKind::CameraLatency { frames: 3 }));
        let mut inj = FaultInjector::new(plan, 5);
        for seq in 0..3 {
            let mut f = frame(seq, seq as f64 / 15.0);
            assert_eq!(
                inj.on_camera(&mut f),
                CameraTapVerdict::Drop,
                "line filling"
            );
        }
        for seq in 3..10 {
            let mut f = frame(seq, seq as f64 / 15.0);
            assert_eq!(inj.on_camera(&mut f), CameraTapVerdict::Deliver);
            assert_eq!(f.seq, seq - 3, "delayed by the line depth");
        }
        assert_eq!(inj.stats().camera_frames_dropped, 3);
        assert_eq!(inj.stats().camera_frames_delayed, 7);
    }

    #[test]
    fn occlusion_band_blinds_covered_boxes() {
        let plan = FaultPlan::single(FaultSpec::always(FaultKind::CameraOcclusionBand {
            y0: 0.0,
            y1: 1080.0,
            strength: 1.0,
        }));
        let mut inj = FaultInjector::new(plan, 9);
        let mut f = frame(0, 0.0);
        inj.on_camera(&mut f);
        assert!(f.truth[0].occlusion > av_sensing::frame::OCCLUSION_LIMIT);
        assert_eq!(inj.stats().camera_boxes_occluded, 1);
    }

    #[test]
    fn occlusion_band_outside_box_is_noop() {
        let plan = FaultPlan::single(FaultSpec::always(FaultKind::CameraOcclusionBand {
            y0: 0.0,
            y1: 100.0,
            strength: 1.0,
        }));
        let mut inj = FaultInjector::new(plan, 9);
        let original = frame(0, 0.0);
        let mut f = original.clone();
        inj.on_camera(&mut f);
        assert_eq!(f, original);
    }

    #[test]
    fn blackout_suppresses_all_boxes() {
        let plan = FaultPlan::single(FaultSpec::always(FaultKind::DetectorBlackout {
            probability: 1.0,
            mean_frames: 3.0,
        }));
        let mut inj = FaultInjector::new(plan, 13);
        let mut f = frame(0, 0.0);
        inj.on_camera(&mut f);
        assert!(f.truth.iter().all(|tb| tb.suppressed));
        assert_eq!(inj.stats().camera_blackout_frames, 1);
    }

    #[test]
    fn gps_bias_and_drift_accumulate() {
        let plan = FaultPlan::single(FaultSpec::windowed(
            FaultKind::GpsBias {
                bias: 2.0,
                drift_per_s: 0.5,
            },
            10.0,
            f64::INFINITY,
        ));
        let mut inj = FaultInjector::new(plan, 1);
        let mut early = fix(5.0);
        inj.on_gps(&mut early);
        assert_eq!(early, fix(5.0), "outside the window");
        let mut late = fix(14.0);
        inj.on_gps(&mut late);
        assert!((late.position.x - (10.0 + 2.0 + 0.5 * 4.0)).abs() < 1e-12);
        assert_eq!(inj.stats().gps_fixes_biased, 1);
    }

    #[test]
    fn lidar_dropout_drops_whole_sweeps() {
        let plan = FaultPlan::single(FaultSpec::always(FaultKind::LidarDropout {
            probability: 1.0,
        }));
        let mut inj = FaultInjector::new(plan, 2);
        let mut scan = LidarScan {
            t: 1.0,
            objects: Vec::new(),
        };
        assert!(!inj.on_lidar(&mut scan));
        assert_eq!(inj.stats().lidar_scans_dropped, 1);
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::none()
            .with(FaultSpec::always(FaultKind::CameraFrameDrop {
                probability: 0.2,
            }))
            .with(FaultSpec::always(FaultKind::LidarDropout {
                probability: 0.4,
            }));
        let mut a = FaultInjector::new(plan.clone(), 42);
        let mut b = FaultInjector::new(plan, 42);
        for seq in 0..500 {
            let t = seq as f64 / 15.0;
            let mut fa = frame(seq, t);
            let mut fb = frame(seq, t);
            assert_eq!(a.on_camera(&mut fa), b.on_camera(&mut fb));
            assert_eq!(fa, fb);
            let mut sa = LidarScan {
                t,
                objects: Vec::new(),
            };
            let mut sb = LidarScan {
                t,
                objects: Vec::new(),
            };
            assert_eq!(a.on_lidar(&mut sa), b.on_lidar(&mut sb));
        }
        assert_eq!(a.stats(), b.stats());
    }
}
