//! Trajectory hijacker ("TH", §IV-C): deciding *how* to attack.
//!
//! Once the safety hijacker fires, the TH perturbs the tapped camera frames
//! for `K` consecutive frames so the ADS tracker follows a *fake* trajectory
//! for the victim object. Per Eq. (4) the per-frame bounding-box translation
//! `ω_t` is constrained to:
//!
//! - the Kalman noise gate: the innovation against the (attacker-replicated)
//!   track prediction stays within ±1σ of the calibrated detector noise, so
//!   an IDS monitoring innovations sees nothing but noise;
//! - association: the Hungarian cost `M` between the perturbed box and the
//!   existing track stays below λ, so the detection keeps feeding the same
//!   tracker (relaxed for Disappear, which suppresses the detection
//!   entirely).
//!
//! The attack runs in two phases: **shift** — walk the fake laterally until
//! the displacement Ω is reached (this takes `K′` frames, Fig. 7) — then
//! **maintain** — hold the altered trajectory for the remaining `K − K′`
//! frames so the Kalman filter keeps believing it (§VI-E).
//!
//! To track what the ADS believes, the TH maintains a *shadow* of the ADS's
//! Kalman track, updated with the same perturbed measurements the ADS
//! receives — the attacker knows the perception internals (§III-B).

use crate::patch;
use crate::vector::AttackVector;
use av_perception::calibration::DetectorCalibration;
use av_perception::kalman::Kalman;
use av_perception::tracker::{association_cost, TrackerConfig};
use av_sensing::bbox::BBox;
use av_sensing::camera::Camera;
use av_sensing::frame::CameraFrame;
use av_simkit::actor::{ActorId, ActorKind};

/// Trajectory hijacker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThConfig {
    /// Camera intrinsics (for ground↔image conversion).
    pub camera: Camera,
    /// Detector noise calibration (the ±1σ stealth gate).
    pub calibration: DetectorCalibration,
    /// The ADS tracker configuration (λ and Kalman parameters to shadow).
    pub tracker: TrackerConfig,
    /// Fraction of 1σ the attacker uses per frame (1.0 = the full gate).
    pub sigma_fraction: f64,
    /// Lane width (m): Move_Out targets the adjacent lane center.
    pub lane_width: f64,
    /// Half-width of the drivable road (m): pedestrians are pushed off it.
    pub road_half_width: f64,
}

impl Default for ThConfig {
    fn default() -> Self {
        ThConfig {
            camera: Camera::default(),
            calibration: DetectorCalibration::paper(),
            tracker: TrackerConfig::default(),
            sigma_fraction: 1.0,
            lane_width: 3.5,
            road_half_width: 5.25,
        }
    }
}

#[derive(Debug, Clone)]
struct Shadow {
    kf: Kalman,
    width: f64,
    height: f64,
    kind: ActorKind,
}

/// The per-attack trajectory hijacker state machine.
#[derive(Debug, Clone)]
pub struct TrajectoryHijacker {
    config: ThConfig,
    vector: AttackVector,
    target: ActorId,
    k_total: u32,
    frames_done: u32,
    shift_frames: Option<u32>,
    fake_y: Option<f64>,
    goal_y: Option<f64>,
    shadow: Option<Shadow>,
}

impl TrajectoryHijacker {
    /// Arms a hijack of `target` with vector `vector` for `k_total` frames.
    pub fn launch(vector: AttackVector, target: ActorId, k_total: u32, config: ThConfig) -> Self {
        TrajectoryHijacker {
            config,
            vector,
            target,
            k_total,
            frames_done: 0,
            shift_frames: None,
            fake_y: None,
            goal_y: None,
            shadow: None,
        }
    }

    /// The attack vector being executed.
    pub fn vector(&self) -> AttackVector {
        self.vector
    }

    /// Frames perturbed so far.
    pub fn frames_done(&self) -> u32 {
        self.frames_done
    }

    /// Total frames this attack will perturb.
    pub fn k_total(&self) -> u32 {
        self.k_total
    }

    /// `K′`: frames the shift phase took (None while still shifting, or for
    /// Disappear which has no shift phase of its own).
    pub fn shift_frames(&self) -> Option<u32> {
        self.shift_frames
    }

    /// Whether the attack window is exhausted.
    pub fn is_done(&self) -> bool {
        self.frames_done >= self.k_total
    }

    fn y_for(&self, u: f64, depth: f64) -> f64 {
        let (cx, _) = self.config.camera.principal_point();
        -(u - cx) * depth / self.config.camera.focal
    }

    fn pick_goal(&self, truth_y: f64, kind: ActorKind) -> f64 {
        match self.vector {
            AttackVector::MoveIn => 0.0,
            AttackVector::Disappear => truth_y, // unused
            AttackVector::MoveOut => {
                let dir = if truth_y.abs() < 0.3 {
                    1.0
                } else {
                    truth_y.signum()
                };
                let escape = if kind.is_vehicle() {
                    self.config.lane_width
                } else {
                    self.config.road_half_width + 0.6
                };
                dir * escape.max(truth_y.abs() + 2.0)
            }
        }
    }

    /// Perturbs one camera frame. Returns `true` while the attack is active
    /// (including frames where the target is momentarily not in view).
    pub fn apply(&mut self, frame: &mut CameraFrame) -> bool {
        if self.is_done() {
            return false;
        }
        self.frames_done += 1;

        // Locate the victim's projection in this frame.
        let Some(idx) = frame.truth.iter().position(|t| t.actor == self.target) else {
            return true; // out of view this frame; the attack clock still runs
        };

        if self.vector == AttackVector::Disappear {
            let tb = &mut frame.truth[idx];
            tb.suppressed = true;
            let bbox = tb.bbox;
            if let Some(raster) = frame.raster.as_mut() {
                patch::suppress(raster, &bbox);
            }
            return true;
        }

        let (tb_bbox, tb_depth, tb_kind) = {
            let tb = &frame.truth[idx];
            (tb.bbox, tb.depth, tb.kind)
        };
        let dt = 1.0 / av_simkit::units::CAMERA_HZ;
        let (truth_u, _) = tb_bbox.center();
        let truth_y = self.y_for(truth_u, tb_depth);

        // Lazy init at the first perturbed frame.
        if self.shadow.is_none() {
            let class = self.config.calibration.for_kind(tb_kind);
            let mut kcfg = self.config.tracker.kalman;
            kcfg.measurement_noise_x =
                (class.center_x.std_dev * tb_bbox.width()).max(kcfg.measurement_noise_x);
            kcfg.measurement_noise_y =
                (class.center_y.std_dev * tb_bbox.height()).max(kcfg.measurement_noise_y);
            let (cx, cy) = tb_bbox.center();
            self.shadow = Some(Shadow {
                kf: Kalman::new(kcfg, cx, cy),
                width: tb_bbox.width(),
                height: tb_bbox.height(),
                kind: tb_kind,
            });
            self.fake_y = Some(truth_y);
            self.goal_y = Some(self.pick_goal(truth_y, tb_kind));
        }
        let goal_y = self.goal_y.expect("initialized above");
        let fake_y = self.fake_y.expect("initialized above");

        let (cx_pp, _) = self.config.camera.principal_point();
        let focal = self.config.camera.focal;
        let u_of = |y: f64| cx_pp - focal * y / tb_depth;
        let y_of = |u: f64| -(u - cx_pp) * tb_depth / focal;

        let shadow = self.shadow.as_mut().expect("initialized above");
        shadow.kf.predict(dt);
        let (pred_u, _) = shadow.kf.position();

        // The per-frame stealth gate: ±σ_x of the calibrated noise, in px.
        let class = self.config.calibration.for_kind(tb_kind);
        let allowed_du =
            (class.center_x.std_dev * tb_bbox.width() * self.config.sigma_fraction).max(1.0);

        // Where we want the fake to be, bounded by the gate around the
        // shadow prediction (the innovation an IDS would monitor).
        let want_u = u_of(goal_y);
        let fake_u = want_u.clamp(pred_u - allowed_du, pred_u + allowed_du);
        let new_fake_y = y_of(fake_u);

        // Shift → maintain transition: Ω reached.
        if self.shift_frames.is_none() && (new_fake_y - goal_y).abs() < 0.1 {
            self.shift_frames = Some(self.frames_done);
        }
        self.fake_y = Some(new_fake_y);
        let _ = fake_y;

        // Build the perturbed box: translate the truth box laterally.
        let du = fake_u - truth_u;
        let fake_bbox = tb_bbox.translated(du, 0.0);

        // Eq. 4 association constraint M ≤ λ against the shadow track.
        let shadow_bbox =
            BBox::from_center(pred_u, shadow.kf.position().1, shadow.width, shadow.height);
        debug_assert!(
            association_cost(
                &shadow_bbox,
                shadow.kind,
                &fake_bbox,
                tb_kind,
                &self.config.tracker
            )
            .is_finite(),
            "hijacked box would break association"
        );

        // Commit: rewrite the frame (and the raster, when present).
        if let Some(raster) = frame.raster.as_mut() {
            patch::apply_shift(raster, &tb_bbox, du);
        }
        frame.truth[idx].bbox = fake_bbox;

        // The ADS tracker will consume the fake; mirror it in the shadow.
        let (fcx, fcy) = fake_bbox.center();
        shadow.kf.update(fcx, fcy);
        shadow.width += 0.3 * (fake_bbox.width() - shadow.width);
        shadow.height += 0.3 * (fake_bbox.height() - shadow.height);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_sensing::frame::capture;
    use av_simkit::actor::{Actor, ActorId, ActorKind};
    use av_simkit::behavior::Behavior;
    use av_simkit::math::Vec2;
    use av_simkit::road::Road;
    use av_simkit::world::World;

    fn world_with(kind: ActorKind, x: f64, y: f64) -> World {
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 12.5, Behavior::Ego);
        let mut w = World::new(Road::default(), ego);
        w.add_actor(Actor::new(
            ActorId(1),
            kind,
            Vec2::new(x, y),
            0.0,
            Behavior::Parked,
        ))
        .unwrap();
        w
    }

    fn config() -> ThConfig {
        ThConfig::default()
    }

    #[test]
    fn disappear_suppresses_every_frame() {
        let w = world_with(ActorKind::Pedestrian, 30.0, 0.0);
        let mut th = TrajectoryHijacker::launch(AttackVector::Disappear, ActorId(1), 5, config());
        for seq in 0..5 {
            let mut frame = capture(&config().camera, &w, seq, false);
            assert!(th.apply(&mut frame));
            assert!(frame.truth_for(ActorId(1)).unwrap().suppressed);
        }
        let mut frame = capture(&config().camera, &w, 5, false);
        assert!(!th.apply(&mut frame), "window exhausted");
        assert!(!frame.truth_for(ActorId(1)).unwrap().suppressed);
    }

    #[test]
    fn move_out_walks_box_laterally_within_gate() {
        let w = world_with(ActorKind::Car, 30.0, 0.0);
        let cfg = config();
        let mut th = TrajectoryHijacker::launch(AttackVector::MoveOut, ActorId(1), 40, cfg);
        let truth_u = {
            let frame = capture(&cfg.camera, &w, 0, false);
            frame.truth_for(ActorId(1)).unwrap().bbox.center().0
        };
        let mut last_u = truth_u;
        let mut final_u = truth_u;
        for seq in 0..40 {
            let mut frame = capture(&cfg.camera, &w, seq, false);
            th.apply(&mut frame);
            let u = frame.truth_for(ActorId(1)).unwrap().bbox.center().0;
            // Per-frame stealth: the step against the *previous fake* cannot
            // exceed the σ gate by much (KF gain < 1 keeps it below 2σ).
            let width = frame.truth_for(ActorId(1)).unwrap().bbox.width();
            assert!(
                (u - last_u).abs() <= 2.0 * 0.464 * width + 1.0,
                "step too big at {seq}"
            );
            last_u = u;
            final_u = u;
        }
        // Moving to +y (left) means u decreases.
        assert!(
            final_u < truth_u - 50.0,
            "box moved: {final_u} vs {truth_u}"
        );
        assert!(th.shift_frames().is_some(), "shift phase completed");
        // The achieved ground offset is the adjacent lane center.
        let y = th.fake_y.unwrap();
        assert!((y - 3.5).abs() < 0.3, "fake ground y = {y}");
    }

    #[test]
    fn move_in_targets_lane_center() {
        let w = world_with(ActorKind::Car, 35.0, -3.5);
        let cfg = config();
        let mut th = TrajectoryHijacker::launch(AttackVector::MoveIn, ActorId(1), 40, cfg);
        for seq in 0..40 {
            let mut frame = capture(&cfg.camera, &w, seq, false);
            th.apply(&mut frame);
        }
        let y = th.fake_y.unwrap();
        assert!(y.abs() < 0.3, "fake pulled to lane center: {y}");
    }

    #[test]
    fn pedestrian_move_out_leaves_road() {
        let w = world_with(ActorKind::Pedestrian, 30.0, -4.0);
        let cfg = config();
        let mut th = TrajectoryHijacker::launch(AttackVector::MoveOut, ActorId(1), 30, cfg);
        for seq in 0..30 {
            let mut frame = capture(&cfg.camera, &w, seq, false);
            th.apply(&mut frame);
        }
        let y = th.fake_y.unwrap();
        assert!(y < -5.25, "pedestrian pushed off-road: {y}");
        // Pedestrians shift fast (σ_x = 2.01 widths): K' is a handful of
        // frames (Fig. 7 medians are 3-5 for pedestrians).
        assert!(
            th.shift_frames().unwrap() <= 10,
            "K' = {:?}",
            th.shift_frames()
        );
    }

    #[test]
    fn vehicle_shift_takes_longer_than_pedestrian() {
        let mut kp_vehicle = None;
        let mut kp_ped = None;
        for (kind, out) in [
            (ActorKind::Car, &mut kp_vehicle),
            (ActorKind::Pedestrian, &mut kp_ped),
        ] {
            let y0 = if kind.is_vehicle() { 0.0 } else { -4.0 };
            let w = world_with(kind, 30.0, y0);
            let cfg = config();
            let mut th = TrajectoryHijacker::launch(AttackVector::MoveOut, ActorId(1), 60, cfg);
            for seq in 0..60 {
                let mut frame = capture(&cfg.camera, &w, seq, false);
                th.apply(&mut frame);
            }
            *out = th.shift_frames();
        }
        let (kv, kp) = (kp_vehicle.unwrap(), kp_ped.unwrap());
        assert!(kv > kp, "vehicle K' {kv} vs pedestrian K' {kp}");
    }

    #[test]
    fn out_of_view_frames_still_consume_the_window() {
        let w = world_with(ActorKind::Car, 30.0, 0.0);
        let cfg = config();
        let mut th = TrajectoryHijacker::launch(AttackVector::MoveOut, ActorId(9), 3, cfg);
        for seq in 0..3 {
            let mut frame = capture(&cfg.camera, &w, seq, false);
            assert!(th.apply(&mut frame), "active while ticking");
        }
        assert!(th.is_done());
    }
}
