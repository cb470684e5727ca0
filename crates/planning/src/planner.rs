//! Longitudinal speed planner with emergency braking.
//!
//! A deliberately Apollo-shaped behavior set: cruise at the scenario speed,
//! follow a slower lead vehicle at a headway-based gap, brake to a stop
//! short of stationary in-path obstacles, yield to crossing pedestrians
//! (with a simple crossing prediction), proceed cautiously past pedestrians
//! on the roadway, and fall into **emergency braking** when the required
//! deceleration exceeds the comfortable envelope. The emergency-braking
//! transition is the "forced emergency braking" event the paper counts
//! (Table II), and the planner's inputs are exactly the fused world model —
//! which is what the attack corrupts.

use crate::safety::SafetyConfig;
use av_perception::types::WorldObject;
use av_simkit::math::{interval_overlap, Vec2};
use std::collections::HashMap;

/// Planner behavior mode (diagnostic; the binding constraint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerMode {
    /// Tracking the cruise speed; path clear.
    Cruise,
    /// Following a slower lead vehicle.
    Follow,
    /// Braking to stop short of an obstacle.
    Brake,
    /// Emergency braking (required decel exceeded the comfort envelope).
    EmergencyBrake,
    /// Stopped, waiting for the path to clear.
    Hold,
    /// Graceful degradation: camera data too stale to trust — slowing to a
    /// stop at the comfort envelope on the last known world model.
    Degraded,
}

impl PlannerMode {
    /// Stable snake_case name used in trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            PlannerMode::Cruise => "cruise",
            PlannerMode::Follow => "follow",
            PlannerMode::Brake => "brake",
            PlannerMode::EmergencyBrake => "emergency_brake",
            PlannerMode::Hold => "hold",
            PlannerMode::Degraded => "degraded",
        }
    }
}

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Cruise set-speed (m/s).
    pub cruise_speed: f64,
    /// Maximum acceleration command (m/s²).
    pub accel_limit: f64,
    /// Comfortable deceleration bound (m/s²).
    pub comfort_decel: f64,
    /// Emergency deceleration (m/s²) applied while emergency braking.
    pub eb_decel: f64,
    /// Required deceleration that triggers emergency braking (m/s²).
    pub eb_trigger: f64,
    /// Required deceleration below which emergency braking releases (m/s²).
    pub eb_release: f64,
    /// Extra lateral margin around the ego footprint for the corridor (m).
    pub corridor_margin: f64,
    /// Ego half width (m).
    pub ego_half_width: f64,
    /// Ego half length (m).
    pub ego_half_length: f64,
    /// Follow-gap headway time (s): desired gap = min_gap + headway·v.
    pub headway: f64,
    /// Minimum follow gap (m).
    pub min_gap: f64,
    /// Stop margin short of a stationary vehicle (m).
    pub stop_margin_vehicle: f64,
    /// Stop margin short of a pedestrian (m) — the paper's DS-2 golden run
    /// stops ≥ 10 m away.
    pub stop_margin_ped: f64,
    /// Hard margin used when computing the required (EB-triggering) decel (m).
    pub hard_margin: f64,
    /// Required decel at which braking actually starts (m/s²).
    pub brake_activation: f64,
    /// Caution speed near pedestrians on the roadway (m/s).
    pub caution_speed: f64,
    /// Range within which a roadway pedestrian caps the speed (m).
    pub caution_range: f64,
    /// Half width of the drivable roadway (m).
    pub road_half_width: f64,
    /// Lateral speed toward the centerline that marks a crossing pedestrian (m/s).
    pub crossing_vy: f64,
    /// Planner ticks a pedestrian crossing threat must persist before
    /// braking (noisy lateral-velocity evidence).
    pub threat_persistence: u32,
    /// Planner ticks a stationary in-corridor vehicle must persist before
    /// braking (lateral-noise phantoms).
    pub vehicle_persistence: u32,
    /// Objects farther than this are not considered (m).
    pub consider_range: f64,
    /// Upward jerk limit on positive (cruise-recovery) acceleration
    /// (m/s³). Apollo's speed planner ramps back up sluggishly after a
    /// slowdown; this is what makes *when* an attack blinds the EV matter.
    pub accel_ramp_jerk: f64,
    /// Planning tick period (s).
    pub tick_dt: f64,
    /// Camera staleness (s) past which the planner stops accelerating and
    /// caps speed at the caution speed (graceful degradation, stage 1).
    pub staleness_caution: f64,
    /// Camera staleness (s) past which the planner treats perception as
    /// blind and brakes to a stop at the comfort envelope (stage 2).
    pub staleness_blind: f64,
    /// Safety model (for diagnostics and `d_safe,min`).
    pub safety: SafetyConfig,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            cruise_speed: 45.0 / 3.6,
            accel_limit: 1.5,
            comfort_decel: 4.0,
            eb_decel: 6.0,
            eb_trigger: 4.2,
            eb_release: 2.0,
            corridor_margin: 0.3,
            ego_half_width: 0.95,
            ego_half_length: 2.3,
            headway: 1.44,
            min_gap: 10.0,
            stop_margin_vehicle: 6.0,
            stop_margin_ped: 10.0,
            hard_margin: 4.0,
            brake_activation: 2.5,
            caution_speed: 35.0 / 3.6,
            caution_range: 40.0,
            road_half_width: 5.25,
            crossing_vy: 1.1,
            threat_persistence: 8,
            vehicle_persistence: 4,
            consider_range: 80.0,
            accel_ramp_jerk: 0.25,
            tick_dt: 0.1,
            staleness_caution: 0.4,
            staleness_blind: 1.2,
            safety: SafetyConfig::default(),
        }
    }
}

/// Inputs to one planning cycle.
#[derive(Debug, Clone)]
pub struct PlanInput<'a> {
    /// Ego position (world frame, from GPS/IMU).
    pub ego_position: Vec2,
    /// Ego speed (m/s).
    pub ego_speed: f64,
    /// Fused world model `Wt`.
    pub objects: &'a [WorldObject],
    /// Seconds since the perception pipeline last received a fresh camera
    /// frame (0 = fresh). Drives graceful degradation: the world model in
    /// `objects` is this many seconds old.
    pub camera_staleness: f64,
}

/// Output of one planning cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanOutput {
    /// Commanded acceleration (m/s²; braking negative).
    pub accel: f64,
    /// The binding behavior mode.
    pub mode: PlannerMode,
    /// The largest deceleration any constraint currently requires (m/s²) —
    /// the quantity compared against the emergency-braking trigger.
    pub required_decel: f64,
}

/// Longitudinal planner with per-object threat persistence and an
/// emergency-braking latch.
#[derive(Debug, Clone)]
pub struct Planner {
    config: PlannerConfig,
    eb_latched: bool,
    ramp_accel: f64,
    threat_ticks: HashMap<u64, u32>,
    /// Pedestrians that crossed the threat threshold stay stop-obstacles
    /// until they leave the roadway (the DS-2 golden behavior: "the EV
    /// started traveling again when the pedestrian moved off the road") or
    /// show no crossing intent for `STICKY_EXPIRY` consecutive ticks.
    sticky_threats: HashMap<u64, u32>,
}

/// Planner ticks after which a quiescent sticky threat is released.
const STICKY_EXPIRY: u32 = 20;

impl Planner {
    /// Creates a planner.
    pub fn new(config: PlannerConfig) -> Self {
        Planner {
            config,
            eb_latched: false,
            ramp_accel: 0.0,
            threat_ticks: HashMap::new(),
            sticky_threats: HashMap::new(),
        }
    }

    /// The planner configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Whether the emergency-braking latch is currently engaged.
    pub fn emergency_braking(&self) -> bool {
        self.eb_latched
    }

    /// Runs one planning cycle.
    pub fn plan(&mut self, input: &PlanInput<'_>) -> PlanOutput {
        let cfg = &self.config;
        let v = input.ego_speed.max(0.0);
        let ego_front = input.ego_position.x + cfg.ego_half_length;
        let corridor_half = cfg.ego_half_width + cfg.corridor_margin;
        let (cy0, cy1) = (
            input.ego_position.y - corridor_half,
            input.ego_position.y + corridor_half,
        );

        let mut speed_target = cfg.cruise_speed;
        let mut best_accel = cfg.accel_limit;
        let mut mode = PlannerMode::Cruise;
        let mut required_decel: f64 = 0.0;

        // Graceful degradation, stage 1: with a stale world model the
        // planner will not speed up into the unknown — cap the target at
        // the caution speed and forbid positive acceleration (below).
        let degraded_caution = input.camera_staleness >= cfg.staleness_caution;
        let degraded_blind = input.camera_staleness >= cfg.staleness_blind;
        if degraded_caution {
            speed_target = speed_target.min(cfg.caution_speed);
        }

        // Drop state for objects that vanished from the world model.
        let live: std::collections::HashSet<u64> = input.objects.iter().map(|o| o.id).collect();
        self.threat_ticks.retain(|id, _| live.contains(id));
        self.sticky_threats.retain(|id, _| live.contains(id));

        for obj in input.objects {
            let (ox0, ox1) = obj.longitudinal_extent();
            if ox1 < ego_front {
                continue; // behind
            }
            let gap = (ox0 - ego_front).max(0.0);
            if gap > cfg.consider_range {
                continue; // beyond the planning horizon
            }
            let (oy0, oy1) = obj.lateral_extent();
            let in_corridor = interval_overlap(cy0, cy1, oy0, oy1) > 0.0;
            let on_road = obj.position.y.abs() <= cfg.road_half_width;

            // Per-object constraint → (stop_margin, follow target speed).
            let constraint: Option<(f64, Option<f64>)> = if obj.kind.is_vehicle() {
                if !in_corridor {
                    self.threat_ticks.remove(&obj.id);
                    None
                } else if obj.velocity.x > 1.0 {
                    // Moving lead vehicle: follow immediately.
                    Some((cfg.min_gap, Some(obj.velocity.x)))
                } else {
                    // Stationary vehicle in lane: require persistence so
                    // one-frame lateral-noise phantoms do not brake the EV.
                    let ticks = self.threat_ticks.entry(obj.id).or_insert(0);
                    *ticks += 1;
                    (*ticks >= cfg.vehicle_persistence).then_some((cfg.stop_margin_vehicle, None))
                }
            } else if !on_road {
                // Pedestrian off the roadway: no constraint, threat cleared.
                self.threat_ticks.remove(&obj.id);
                self.sticky_threats.remove(&obj.id);
                None
            } else {
                let toward_center = -obj.position.y.signum() * obj.velocity.y;
                let crossing = toward_center > cfg.crossing_vy;
                let threat_now = in_corridor || crossing;
                if threat_now {
                    let ticks = self.threat_ticks.entry(obj.id).or_insert(0);
                    *ticks += 1;
                    // Corridor evidence convinces fast; crossing-intent
                    // evidence (noisy lateral velocity) must persist longer.
                    if (in_corridor && *ticks >= 2) || *ticks >= cfg.threat_persistence {
                        self.sticky_threats.insert(obj.id, 0);
                    }
                } else if let Some(quiet) = self.sticky_threats.get_mut(&obj.id) {
                    *quiet += 1;
                    if *quiet > STICKY_EXPIRY {
                        self.sticky_threats.remove(&obj.id);
                        self.threat_ticks.remove(&obj.id);
                    }
                } else {
                    self.threat_ticks.remove(&obj.id);
                }
                if self.sticky_threats.contains_key(&obj.id) {
                    Some((cfg.stop_margin_ped, None))
                } else {
                    if gap < cfg.caution_range {
                        speed_target = speed_target.min(cfg.caution_speed);
                    }
                    None
                }
            };

            let Some((margin, follow_speed)) = constraint else {
                continue;
            };

            // A constrained obstacle inside the minimum safety envelope
            // (plus half a second of headway) while a hard stop would be
            // needed is an emergency regardless of the follow arithmetic —
            // a suddenly (re)appearing obstacle at close range forces an
            // emergency stop (the d_safe,min rule, §II-C).
            let hard_stop_decel = v * v / (2.0 * (gap - cfg.hard_margin).max(0.3));
            if gap < cfg.safety.d_safe_min + 0.5 * v && v > 3.0 && hard_stop_decel >= 2.5 {
                required_decel = required_decel.max(cfg.eb_trigger);
            }

            match follow_speed {
                Some(v_lead) => {
                    // Follow a moving lead vehicle at a headway gap.
                    let desired = cfg.min_gap + cfg.headway * v;
                    let a = 0.25 * (gap - desired) + 0.9 * (v_lead - v);
                    let a = a.clamp(-cfg.comfort_decel, cfg.accel_limit);
                    if a < best_accel {
                        best_accel = a;
                        mode = PlannerMode::Follow;
                    }
                    // Required decel to avoid closing to the hard margin.
                    let closing = v - v_lead;
                    if closing > 0.0 {
                        let free = (gap - cfg.hard_margin).max(0.3);
                        required_decel = required_decel.max(closing * closing / (2.0 * free));
                    }
                }
                None => {
                    // Brake to stop `margin` short of the obstacle.
                    let free_soft = gap - margin;
                    let a_req_soft = if free_soft <= 0.2 {
                        cfg.eb_decel
                    } else {
                        v * v / (2.0 * free_soft)
                    };
                    if a_req_soft >= cfg.brake_activation {
                        let a = -a_req_soft.min(cfg.eb_decel);
                        if a < best_accel {
                            best_accel = a;
                            mode = PlannerMode::Brake;
                        }
                    }
                    let free_hard = (gap - cfg.hard_margin).max(0.3);
                    required_decel = required_decel.max(v * v / (2.0 * free_hard));
                }
            }
        }
        // Cruise / caution speed tracking competes with the constraints.
        let a_cruise = (0.8 * (speed_target - v)).clamp(-cfg.comfort_decel, cfg.accel_limit);
        if a_cruise < best_accel {
            best_accel = a_cruise;
            // Only claim Cruise mode if no constraint was binding.
            if mode == PlannerMode::Cruise {
                mode = PlannerMode::Cruise;
            }
        }

        // Emergency braking latch.
        if required_decel >= cfg.eb_trigger {
            self.eb_latched = true;
        } else if required_decel < cfg.eb_release {
            self.eb_latched = false;
        }
        if self.eb_latched && v > 0.0 {
            best_accel = -cfg.eb_decel;
            mode = PlannerMode::EmergencyBrake;
        }

        // Graceful degradation, stage 2: perception is effectively blind —
        // brake to a stop at the comfort envelope on whatever constraint is
        // already binding. Emergency braking (stronger) keeps priority.
        if mode != PlannerMode::EmergencyBrake {
            if degraded_blind {
                best_accel = best_accel.min(-cfg.comfort_decel);
                mode = PlannerMode::Degraded;
            } else if degraded_caution && best_accel > 0.0 {
                best_accel = 0.0;
                if mode == PlannerMode::Cruise {
                    mode = PlannerMode::Degraded;
                }
            }
        }

        // Jerk-limited cruise recovery: positive acceleration ramps up
        // slowly after any slowdown.
        if best_accel > 0.0 {
            let allowed = self.ramp_accel + cfg.accel_ramp_jerk * cfg.tick_dt;
            best_accel = best_accel.min(allowed);
            self.ramp_accel = best_accel;
        } else {
            self.ramp_accel = 0.0;
        }

        // Stopped and still constrained → hold.
        if v < 0.05 && best_accel < 0.0 {
            best_accel = 0.0;
            mode = PlannerMode::Hold;
        }

        PlanOutput {
            accel: best_accel,
            mode,
            required_decel,
        }
    }

    /// Clears planner state (between runs).
    pub fn reset(&mut self) {
        self.eb_latched = false;
        self.ramp_accel = 0.0;
        self.threat_ticks.clear();
        self.sticky_threats.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_perception::types::Support;
    use av_simkit::actor::ActorKind;

    fn obj(id: u64, kind: ActorKind, x: f64, y: f64, vx: f64, vy: f64) -> WorldObject {
        let extent = if kind.is_vehicle() {
            (4.6, 1.9)
        } else {
            (0.5, 0.6)
        };
        WorldObject {
            id,
            kind,
            position: Vec2::new(x, y),
            velocity: Vec2::new(vx, vy),
            extent,
            support: Support::CameraAndLidar,
            track: None,
            provenance: None,
        }
    }

    fn plan(planner: &mut Planner, v: f64, objects: &[WorldObject]) -> PlanOutput {
        planner.plan(&PlanInput {
            ego_position: Vec2::ZERO,
            ego_speed: v,
            objects,
            camera_staleness: 0.0,
        })
    }

    fn plan_stale(planner: &mut Planner, v: f64, staleness: f64) -> PlanOutput {
        planner.plan(&PlanInput {
            ego_position: Vec2::ZERO,
            ego_speed: v,
            objects: &[],
            camera_staleness: staleness,
        })
    }

    #[test]
    fn clear_road_cruises() {
        let mut p = Planner::new(PlannerConfig::default());
        let out = plan(&mut p, 10.0, &[]);
        assert_eq!(out.mode, PlannerMode::Cruise);
        assert!(out.accel > 0.0, "accelerates toward cruise speed");
        let out2 = plan(&mut p, 14.0, &[]);
        assert!(out2.accel < 0.0, "slows back toward cruise speed");
    }

    #[test]
    fn follows_slower_lead_at_headway_gap() {
        let mut p = Planner::new(PlannerConfig::default());
        // Lead at the desired gap for v_lead: 10 + 1.44*6.94 ≈ 20 m.
        let lead = obj(1, ActorKind::Car, 20.0 + 2.3 + 2.3, 0.0, 6.94, 0.0);
        let out = plan(&mut p, 6.94, &[lead]);
        assert_eq!(out.mode, PlannerMode::Follow);
        assert!(out.accel.abs() < 0.3, "steady follow: {}", out.accel);
    }

    #[test]
    fn stationary_vehicle_in_lane_causes_braking() {
        let mut p = Planner::new(PlannerConfig::default());
        let parked = obj(1, ActorKind::Car, 35.0, 0.0, 0.0, 0.0);
        // One-frame phantoms are ignored (persistence gate)...
        let first = plan(&mut p, 12.5, &[parked]);
        assert_ne!(first.mode, PlannerMode::Brake);
        let n = p.config().vehicle_persistence;
        for _ in 0..n - 2 {
            plan(&mut p, 12.5, &[parked]);
        }
        // ...but a persistent stationary obstacle brakes the EV.
        let out = plan(&mut p, 12.5, &[parked]);
        assert_eq!(out.mode, PlannerMode::Brake);
        assert!(out.accel < -1.0);
    }

    #[test]
    fn vehicle_out_of_lane_is_ignored() {
        let mut p = Planner::new(PlannerConfig::default());
        let parked = obj(1, ActorKind::Car, 35.0, -3.5, 0.0, 0.0);
        let out = plan(&mut p, 12.5, &[parked]);
        assert_eq!(out.mode, PlannerMode::Cruise);
    }

    #[test]
    fn emergency_brake_when_obstacle_appears_close() {
        let mut p = Planner::new(PlannerConfig::default());
        // A Move_In-style sudden obstacle 15 m ahead at 45 kph.
        let fake = obj(1, ActorKind::Car, 15.0, 0.0, 0.0, 0.0);
        let n = p.config().vehicle_persistence;
        for _ in 0..n {
            plan(&mut p, 12.5, &[fake]);
        }
        let out = plan(&mut p, 12.5, &[fake]);
        assert_eq!(out.mode, PlannerMode::EmergencyBrake);
        assert!(p.emergency_braking());
        assert!(out.accel <= -(p.config().eb_decel - 0.1));
        // Clears once the obstacle is gone and decel demand drops.
        let out2 = plan(&mut p, 10.0, &[]);
        assert_ne!(out2.mode, PlannerMode::EmergencyBrake);
        assert!(!p.emergency_braking());
    }

    #[test]
    fn crossing_pedestrian_triggers_stop_after_persistence() {
        let mut p = Planner::new(PlannerConfig::default());
        // Pedestrian on the roadway moving toward the centerline at 1.4 m/s.
        let ped = obj(7, ActorKind::Pedestrian, 36.0, -4.0, 0.0, 1.4);
        let o1 = plan(&mut p, 12.5, &[ped]);
        // Caution cap may slow us, but no hard braking yet (persistence).
        assert_ne!(o1.mode, PlannerMode::Brake);
        let n = p.config().threat_persistence;
        for _ in 0..n - 2 {
            plan(&mut p, 12.5, &[ped]);
        }
        let o_n = plan(&mut p, 12.5, &[ped]);
        assert_eq!(o_n.mode, PlannerMode::Brake, "threat persisted");
    }

    #[test]
    fn pedestrian_in_corridor_brakes_within_two_ticks() {
        let mut p = Planner::new(PlannerConfig::default());
        let ped = obj(7, ActorKind::Pedestrian, 30.0, 0.0, 0.0, 0.0);
        plan(&mut p, 12.5, &[ped]);
        let out = plan(&mut p, 12.5, &[ped]);
        assert!(matches!(
            out.mode,
            PlannerMode::Brake | PlannerMode::EmergencyBrake
        ));
    }

    #[test]
    fn walking_pedestrian_in_parking_lane_caps_speed_only() {
        let mut p = Planner::new(PlannerConfig::default());
        // DS-4: pedestrian in the parking lane, no lateral motion.
        let ped = obj(7, ActorKind::Pedestrian, 30.0, -3.3, -1.4, 0.0);
        for _ in 0..5 {
            let out = plan(&mut p, 12.5, &[ped]);
            assert_ne!(
                out.mode,
                PlannerMode::Brake,
                "no hard brake for DS-4 golden"
            );
            assert!(out.accel < 0.0, "slows toward caution speed");
        }
        // At caution speed the planner no longer decelerates.
        let out = plan(&mut p, 35.0 / 3.6, &[ped]);
        assert!(out.accel.abs() < 0.2);
    }

    #[test]
    fn receding_pedestrian_releases_threat() {
        let mut p = Planner::new(PlannerConfig::default());
        let crossing = obj(7, ActorKind::Pedestrian, 40.0, -4.0, 0.0, 1.4);
        let n = p.config().threat_persistence;
        for _ in 0..n {
            plan(&mut p, 12.5, &[crossing]);
        }
        assert_eq!(plan(&mut p, 12.5, &[crossing]).mode, PlannerMode::Brake);
        // Pedestrian now past the lane, moving away on the far side.
        let receding = obj(7, ActorKind::Pedestrian, 40.0, 3.0, 0.0, 1.4);
        let out = plan(&mut p, 8.0, &[receding]);
        assert_ne!(out.mode, PlannerMode::Brake, "threat released");
    }

    #[test]
    fn hold_when_stopped_before_obstacle() {
        let mut p = Planner::new(PlannerConfig::default());
        let ped = obj(7, ActorKind::Pedestrian, 12.0, 0.0, 0.0, 0.0);
        plan(&mut p, 0.0, &[ped]);
        let out = plan(&mut p, 0.0, &[ped]);
        assert_eq!(out.mode, PlannerMode::Hold);
        assert_eq!(out.accel, 0.0);
    }

    #[test]
    fn required_decel_reported_for_follow_closing() {
        let mut p = Planner::new(PlannerConfig::default());
        let lead = obj(1, ActorKind::Car, 14.0, 0.0, 2.0, 0.0);
        let out = plan(&mut p, 12.0, &[lead]);
        assert!(
            out.required_decel > 4.0,
            "closing fast: {}",
            out.required_decel
        );
    }

    #[test]
    fn fresh_data_keeps_full_authority() {
        let mut p = Planner::new(PlannerConfig::default());
        let out = plan_stale(&mut p, 10.0, 0.0);
        assert_eq!(out.mode, PlannerMode::Cruise);
        assert!(out.accel > 0.0);
    }

    #[test]
    fn caution_staleness_stops_accelerating() {
        let mut p = Planner::new(PlannerConfig::default());
        let cfg = *p.config();
        // Below cruise speed, fresh data would accelerate; stale data holds.
        let out = plan_stale(&mut p, 8.0, cfg.staleness_caution + 0.01);
        assert_eq!(out.accel, 0.0, "no acceleration into a stale world");
        assert_eq!(out.mode, PlannerMode::Degraded);
        // Above the caution speed the cap actively slows the EV.
        let out = plan_stale(&mut p, cfg.cruise_speed, cfg.staleness_caution + 0.01);
        assert!(
            out.accel < 0.0,
            "slowing toward caution speed: {}",
            out.accel
        );
    }

    #[test]
    fn blind_staleness_brakes_to_a_stop() {
        let mut p = Planner::new(PlannerConfig::default());
        let cfg = *p.config();
        let out = plan_stale(&mut p, 12.5, cfg.staleness_blind + 0.01);
        assert_eq!(out.mode, PlannerMode::Degraded);
        assert!(
            out.accel <= -cfg.comfort_decel + 1e-9,
            "comfort-envelope stop"
        );
        // Once stopped, hold rather than command further deceleration.
        let stopped = plan_stale(&mut p, 0.0, cfg.staleness_blind + 0.01);
        assert_eq!(stopped.mode, PlannerMode::Hold);
        assert_eq!(stopped.accel, 0.0);
    }

    #[test]
    fn emergency_braking_outranks_degradation() {
        let mut p = Planner::new(PlannerConfig::default());
        let fake = obj(1, ActorKind::Car, 15.0, 0.0, 0.0, 0.0);
        let n = p.config().vehicle_persistence + 1;
        for _ in 0..n {
            plan(&mut p, 12.5, &[fake]);
        }
        assert!(p.emergency_braking());
        let out = p.plan(&PlanInput {
            ego_position: Vec2::ZERO,
            ego_speed: 12.5,
            objects: &[fake],
            camera_staleness: 10.0,
        });
        assert_eq!(
            out.mode,
            PlannerMode::EmergencyBrake,
            "EB wins over Degraded"
        );
        assert!(out.accel <= -(p.config().eb_decel - 0.1));
    }

    #[test]
    fn reset_clears_latch() {
        let mut p = Planner::new(PlannerConfig::default());
        let n = p.config().vehicle_persistence + 1;
        for _ in 0..n {
            plan(&mut p, 12.5, &[obj(1, ActorKind::Car, 15.0, 0.0, 0.0, 0.0)]);
        }
        assert!(p.emergency_braking());
        p.reset();
        assert!(!p.emergency_braking());
    }
}
