//! The assembled ADS: perception + planner + actuation smoothing.
//!
//! This is the software stack the malware attacks. The run loop (in
//! `av-experiments`) schedules the sensor callbacks at the paper's rates and
//! forwards the returned actuation to the simulated vehicle.

use crate::pid::Pid;
use crate::planner::{PlanInput, PlanOutput, Planner, PlannerConfig, PlannerMode};
use av_perception::pipeline::{Perception, PerceptionConfig};
use av_perception::types::WorldObject;
use av_sensing::frame::CameraFrame;
use av_sensing::gps::GpsImuFix;
use av_sensing::lidar::LidarScan;
use av_simkit::math::Vec2;
use av_telemetry::{Stage, Telemetry, TraceEvent};
use rand::Rng;

/// ADS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdsConfig {
    /// Perception stack configuration.
    pub perception: PerceptionConfig,
    /// Planner configuration.
    pub planner: PlannerConfig,
}

/// The autonomous driving system under attack.
#[derive(Debug, Clone)]
pub struct Ads {
    perception: Perception,
    planner: Planner,
    actuation_pid: Pid,
    last_fix: Option<GpsImuFix>,
    latest_plan: PlanOutput,
    actuation: f64,
    eb_entries: u32,
    was_eb: bool,
    telemetry: Telemetry,
}

impl Ads {
    /// Builds an ADS from configuration.
    pub fn new(config: AdsConfig) -> Self {
        Ads {
            perception: Perception::new(config.perception),
            planner: Planner::new(config.planner),
            actuation_pid: Pid::new(1.0, 0.2, 0.0).with_output_limit(config.planner.eb_decel),
            last_fix: None,
            latest_plan: PlanOutput {
                accel: 0.0,
                mode: PlannerMode::Cruise,
                required_decel: 0.0,
            },
            actuation: 0.0,
            eb_entries: 0,
            was_eb: false,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle to the ADS and its perception stack.
    /// Planning cycles are timed as [`Stage::PlannerTick`] (emitting
    /// [`TraceEvent::PlannerModeChanged`] on mode transitions and
    /// [`TraceEvent::AebEngaged`] on each emergency-braking entry); control
    /// cycles are timed as [`Stage::ControlTick`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.perception.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Current believed ego position (GPS, or origin before the first fix).
    pub fn ego_position(&self) -> Vec2 {
        self.last_fix.map_or(Vec2::ZERO, |f| f.position)
    }

    /// Current believed ego speed.
    pub fn ego_speed(&self) -> f64 {
        self.last_fix.map_or(0.0, |f| f.speed)
    }

    /// Feeds a camera frame (possibly attacker-modified) to perception.
    pub fn on_camera_frame<R: Rng + ?Sized>(&mut self, frame: &CameraFrame, rng: &mut R) {
        let pos = self.ego_position();
        self.perception.on_camera_frame(frame, pos, rng);
    }

    /// Feeds a LiDAR sweep to perception.
    pub fn on_lidar(&mut self, scan: &LidarScan) {
        self.perception.on_lidar(scan);
    }

    /// Feeds a GPS/IMU fix.
    pub fn on_gps(&mut self, fix: GpsImuFix) {
        self.last_fix = Some(fix);
    }

    /// Runs one planning cycle (nominally 10 Hz) assuming the newest camera
    /// frame is current. Returns `true` when this cycle *entered* emergency
    /// braking (a new forced-EB event).
    pub fn plan_tick(&mut self) -> bool {
        let now = self.perception.last_camera_t().unwrap_or(0.0);
        self.plan_tick_at(now)
    }

    /// Runs one planning cycle at wall time `now`, surfacing camera
    /// staleness to the planner for graceful degradation.
    pub fn plan_tick_at(&mut self, now: f64) -> bool {
        let timer = self.telemetry.time(Stage::PlannerTick);
        let mode_before = self.latest_plan.mode;
        let objects = self.perception.world_model();
        let input = PlanInput {
            ego_position: self.ego_position(),
            ego_speed: self.ego_speed(),
            objects: &objects,
            camera_staleness: self.perception.camera_staleness(now),
        };
        self.latest_plan = self.planner.plan(&input);
        let is_eb = self.latest_plan.mode == PlannerMode::EmergencyBrake;
        let entered = is_eb && !self.was_eb;
        if entered {
            self.eb_entries += 1;
        }
        self.was_eb = is_eb;
        drop(timer);
        if self.telemetry.is_enabled() {
            let mode_after = self.latest_plan.mode;
            if mode_after != mode_before {
                self.telemetry.emit(now, || TraceEvent::PlannerModeChanged {
                    from: mode_before.name(),
                    to: mode_after.name(),
                });
            }
            if entered {
                self.telemetry.emit(now, || TraceEvent::AebEngaged);
            }
        }
        entered
    }

    /// Runs one control cycle (nominally 30 Hz): smooths the planned
    /// acceleration through the PID and returns the actuation `Aₜ`.
    pub fn control_tick(&mut self, dt: f64) -> f64 {
        let _timer = self.telemetry.time(Stage::ControlTick);
        let target = self.latest_plan.accel;
        if self.latest_plan.mode == PlannerMode::EmergencyBrake {
            // Emergency braking bypasses comfort smoothing (Apollo's EStop).
            self.actuation = target;
            self.actuation_pid.reset();
        } else {
            let error = target - self.actuation;
            self.actuation += self.actuation_pid.step(error, dt) * dt * 8.0;
            self.actuation = self.actuation.clamp(-self.planner.config().eb_decel, 2.0);
        }
        self.actuation
    }

    /// The fused world model (for recording/diagnostics).
    pub fn world_model(&self) -> Vec<WorldObject> {
        self.perception.world_model()
    }

    /// Latest planning decision.
    pub fn plan(&self) -> PlanOutput {
        self.latest_plan
    }

    /// Whether the ADS is currently emergency braking.
    pub fn emergency_braking(&self) -> bool {
        self.latest_plan.mode == PlannerMode::EmergencyBrake
    }

    /// Number of distinct emergency-braking entries so far.
    pub fn eb_entries(&self) -> u32 {
        self.eb_entries
    }

    /// Access to the perception stack (diagnostics).
    pub fn perception(&self) -> &Perception {
        &self.perception
    }

    /// Clears all state (between runs).
    pub fn reset(&mut self) {
        self.perception.reset();
        self.planner.reset();
        self.actuation_pid.reset();
        self.last_fix = None;
        self.latest_plan = PlanOutput {
            accel: 0.0,
            mode: PlannerMode::Cruise,
            required_decel: 0.0,
        };
        self.actuation = 0.0;
        self.eb_entries = 0;
        self.was_eb = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_perception::calibration::DetectorCalibration;
    use av_sensing::camera::Camera;
    use av_sensing::frame::capture;
    use av_sensing::gps::GpsImu;
    use av_sensing::lidar::Lidar;
    use av_simkit::actor::{Actor, ActorId, ActorKind};
    use av_simkit::behavior::Behavior;
    use av_simkit::road::Road;
    use av_simkit::world::World;
    use rand::SeedableRng;

    fn ads() -> Ads {
        let mut config = AdsConfig::default();
        config.perception.calibration = DetectorCalibration::ideal();
        Ads::new(config)
    }

    /// Drives `world` under the ADS for `seconds`, returning the final world.
    fn drive(mut world: World, mut ads: Ads, seconds: f64) -> (World, Ads) {
        let camera = Camera::default();
        let lidar = Lidar::default();
        let gps = GpsImu {
            position_noise: 0.0,
            speed_noise: 0.0,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let dt = 1.0 / 30.0;
        let steps = (seconds * 30.0) as u64;
        let mut accel = 0.0;
        for i in 0..steps {
            if i % 2 == 0 {
                let frame = capture(&camera, &world, i, false);
                ads.on_gps(gps.fix(&world, &mut rng));
                ads.on_camera_frame(&frame, &mut rng);
            }
            if i % 3 == 0 {
                ads.on_lidar(&lidar.scan(&world, &mut rng));
                ads.plan_tick();
            }
            accel = ads.control_tick(dt);
            world.step(dt, accel);
        }
        let _ = accel;
        (world, ads)
    }

    #[test]
    fn cruises_to_set_speed_on_empty_road() {
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 5.0, Behavior::Ego);
        let world = World::new(Road::default(), ego);
        let (world, ads) = drive(world, ads(), 15.0);
        assert!(
            (world.ego().speed - 12.5).abs() < 0.5,
            "speed {}",
            world.ego().speed
        );
        assert_eq!(ads.eb_entries(), 0);
    }

    #[test]
    fn follows_slow_lead_without_collision() {
        // DS-1 golden: approach a 25 kph lead from 60 m back at 45 kph.
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 12.5, Behavior::Ego);
        let mut world = World::new(Road::default(), ego);
        let v_tv = 25.0 / 3.6;
        world
            .add_actor(Actor::new(
                ActorId(1),
                ActorKind::Car,
                Vec2::new(60.0, 0.0),
                v_tv,
                Behavior::CruiseStraight { speed: v_tv },
            ))
            .unwrap();
        let (world, ads) = drive(world, ads(), 30.0);
        let gap = world.in_path_obstacle(0.3).unwrap().gap;
        assert!(gap > 10.0, "keeps a safe gap: {gap}");
        assert!(gap < 35.0, "actually follows: {gap}");
        assert!(
            (world.ego().speed - v_tv).abs() < 1.0,
            "matched speed: {}",
            world.ego().speed
        );
        assert_eq!(ads.eb_entries(), 0, "golden run has no emergency braking");
    }

    #[test]
    fn stops_for_stationary_car_in_lane() {
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 12.5, Behavior::Ego);
        let mut world = World::new(Road::default(), ego);
        world
            .add_actor(Actor::new(
                ActorId(1),
                ActorKind::Car,
                Vec2::new(80.0, 0.0),
                0.0,
                Behavior::Parked,
            ))
            .unwrap();
        let (world, _) = drive(world, ads(), 20.0);
        assert!(world.ego().speed < 0.2, "stopped: {}", world.ego().speed);
        let gap = world.in_path_obstacle(0.3).unwrap().gap;
        assert!(gap > 2.0, "did not hit the car: {gap}");
    }

    #[test]
    fn camera_silence_degrades_gracefully() {
        let mut a = ads();
        let camera = Camera::default();
        let gps = GpsImu {
            position_noise: 0.0,
            speed_noise: 0.0,
        };
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 12.5, Behavior::Ego);
        let mut world = World::new(Road::default(), ego);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        // Healthy warm-up: frames arriving on schedule.
        for i in 0..10 {
            let frame = capture(&camera, &world, i, false);
            a.on_gps(gps.fix(&world, &mut rng));
            a.on_camera_frame(&frame, &mut rng);
            world.step(1.0 / 15.0, 0.0);
        }
        let fresh = a.plan_tick_at(world.time());
        assert!(!fresh);
        assert_ne!(a.plan().mode, PlannerMode::Degraded);
        // Camera goes silent: staleness grows past the blind threshold.
        let blind_at = world.time() + a.planner.config().staleness_blind + 0.1;
        a.plan_tick_at(blind_at);
        assert_eq!(a.plan().mode, PlannerMode::Degraded);
        assert!(a.plan().accel <= -a.planner.config().comfort_decel + 1e-9);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut a = ads();
        a.on_gps(GpsImuFix {
            t: 0.0,
            position: Vec2::new(5.0, 0.0),
            speed: 3.0,
            accel: 0.0,
        });
        a.plan_tick();
        a.reset();
        assert_eq!(a.ego_position(), Vec2::ZERO);
        assert_eq!(a.eb_entries(), 0);
        assert!(a.world_model().is_empty());
    }
}
