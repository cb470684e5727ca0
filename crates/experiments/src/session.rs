//! The [`SimSession`] builder — the single-run API.
//!
//! A session owns everything one simulation run needs: the run
//! configuration, the attacker, and a [`Telemetry`] handle observing every
//! pipeline stage. Construction is builder-style:
//!
//! ```
//! use av_experiments::prelude::*;
//! let outcome = SimSession::builder(ScenarioId::Ds1)
//!     .seed(7)
//!     .attacker(AttackerSpec::None)
//!     .build()
//!     .run();
//! assert!(!outcome.collided);
//! ```
//!
//! The loop reproduces the paper's testbed timing (§V-B): the base physics
//! tick is 30 Hz; the camera fires at 15 Hz, LiDAR at 10 Hz, GPS/IMU at
//! 12.5 Hz and the planner at 10 Hz through the multi-rate scheduler. Every
//! camera frame passes through the attacker's man-in-the-middle hook before
//! the ADS sees it. Ground-truth safety (δ, target gap) is sampled at every
//! planning cycle, and the run halts on contact — the LGSVL behavior the
//! paper works around with its 4 m accident threshold.
//!
//! With the default disabled telemetry handle the session's traces are
//! bit-stable — the golden-trace suite pins them.

use crate::horizon::{Horizon, ATTACK_WINDOW_TAIL_S};
use crate::runner::{AttackerSpec, RunConfig, RunOutcome, HORIZON_M};
use crate::tally::{self, Work};
use av_defense::ids::{Ids, IdsConfig};
use av_faults::{FaultInjector, FaultPlan, FaultStats};
use av_perception::calibration::DetectorCalibration;
use av_planning::ads::{Ads, AdsConfig};
use av_planning::safety::{ground_truth_delta, SafetyConfig};
use av_sensing::camera::Camera;
use av_sensing::frame::{capture_into, CameraFrame};
use av_sensing::gps::GpsImu;
use av_sensing::lidar::Lidar;
use av_sensing::tap::{CameraTapVerdict, SensorTap, TracingTap};
use av_simkit::recorder::{Event, RunRecord, Sample};
use av_simkit::rng::run_rng;
use av_simkit::scenario::{Scenario, ScenarioId};
use av_simkit::scheduler::{Scheduler, Task};
use av_simkit::units::{CAMERA_HZ, GPS_HZ, LIDAR_HZ, PLANNER_HZ, SIM_DT};
use av_simkit::World;
use av_telemetry::{SensorChannel, Stage, StageTimer, Telemetry, TraceEvent, TraceSink};
use rand::rngs::StdRng;
use robotack::malware::Attacker;
use robotack::vector::AttackVector;

/// Builder for a [`SimSession`].
///
/// Obtained from [`SimSession::builder`]; every knob of the historical
/// `RunConfig` is reachable either through a dedicated setter or wholesale
/// through [`SimSessionBuilder::config`].
#[derive(Debug, Clone)]
pub struct SimSessionBuilder {
    config: RunConfig,
    attacker: AttackerSpec,
    telemetry: Telemetry,
}

impl SimSessionBuilder {
    /// Sets the run seed (world jitter, every noise source, attacker
    /// sampling). Defaults to 0.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Installs the attacker riding along. Defaults to [`AttackerSpec::None`]
    /// (a golden run).
    #[must_use]
    pub fn attacker(mut self, attacker: AttackerSpec) -> Self {
        self.attacker = attacker;
        self
    }

    /// Injects sensor faults between capture and delivery. The empty plan is
    /// bit-transparent.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Runs a generated scenario: the world is sampled from `spec` at the
    /// run seed (same RNG stream the fixed recipes draw from) and the run
    /// is identified by the spec's content hash
    /// ([`av_scenarios::ScenarioSpec::scenario_id`]).
    #[must_use]
    pub fn spec(mut self, spec: std::sync::Arc<av_scenarios::ScenarioSpec>) -> Self {
        self.config.scenario = spec.scenario_id();
        self.config.spec = Some(spec);
        self
    }

    /// Overrides the detector noise calibration (both the ADS and the
    /// malware replica use it).
    #[must_use]
    pub fn calibration(mut self, calibration: DetectorCalibration) -> Self {
        self.config.calibration = calibration;
        self
    }

    /// Replaces the whole run configuration (scenario, seed, calibration,
    /// fusion, σ-fraction, SH thresholds, faults) — the escape hatch for
    /// ablation sweeps that mutate several fields at once.
    #[must_use]
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a telemetry handle; the session threads it through the
    /// scheduler, sensor tap, perception, planner, and attacker. Defaults
    /// to [`Telemetry::disabled`], which is guaranteed not to perturb the
    /// run (golden digests are bit-identical).
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Convenience: full telemetry into `sink` (events + a fresh metrics
    /// registry). Equivalent to `.telemetry(Telemetry::with_sink(sink))`.
    #[must_use]
    pub fn trace_sink(self, sink: impl TraceSink + Send + 'static) -> Self {
        self.telemetry(Telemetry::with_sink(sink))
    }

    /// Finalizes the session.
    pub fn build(self) -> SimSession {
        SimSession {
            config: self.config,
            attacker: self.attacker,
            telemetry: self.telemetry,
            horizon: Horizon::Full,
        }
    }
}

/// One configured end-to-end simulation run: world + sensors + attacker +
/// ADS (+ observability).
#[derive(Debug, Clone)]
pub struct SimSession {
    config: RunConfig,
    attacker: AttackerSpec,
    telemetry: Telemetry,
    /// Where the run may stop; picked by the code that consumes the run.
    horizon: Horizon,
}

/// Long-lived per-worker state reused across [`SimSession::run_with`] calls.
///
/// Campaign workers execute hundreds of runs back to back; rebuilding the
/// ADS (perception buffers, Hungarian scratch, planner) and the camera-frame
/// buffers for every run throws the warmed allocations away. A worker keeps
/// one `Ads` and one `CameraFrame` alive: between runs the ADS is `reset()`
/// (bit-identical to fresh construction — the golden-trace suite pins this)
/// and only rebuilt when the run configuration actually changes.
#[derive(Debug, Default)]
pub struct SessionWorker {
    /// The ADS last used, keyed by the exact configuration it was built with.
    ads: Option<(AdsConfig, Ads)>,
    /// Reused camera-frame buffer (truth boxes + optional raster).
    frame: CameraFrame,
    /// Reused scheduler fire buffer (~900 `advance_to` calls per run).
    fired: Vec<Task>,
}

impl SessionWorker {
    /// Creates an empty worker; buffers warm up over the first run.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The four periodic session tasks on the run's scheduler.
struct SessionTasks {
    gps: Task,
    camera: Task,
    lidar: Task,
    planner: Task,
}

impl SessionTasks {
    /// Registers the paper's sensor/software rates (§V-B) on `scheduler`.
    fn register(scheduler: &mut Scheduler) -> SessionTasks {
        SessionTasks {
            gps: scheduler.add_task_hz("gps", GPS_HZ),
            camera: scheduler.add_task_hz("camera", CAMERA_HZ),
            lidar: scheduler.add_task_hz("lidar", LIDAR_HZ),
            planner: scheduler.add_task_hz("planner", PLANNER_HZ),
        }
    }
}

/// All per-run state of one executing session, with the simulation loop
/// decomposed into per-task methods that [`RunState::tick`] dispatches.
struct RunState {
    config: RunConfig,
    scheduler: Scheduler,
    tasks: SessionTasks,
    scenario: Scenario,
    tele: Telemetry,
    rng: StdRng,
    attacker: Box<dyn Attacker>,
    tap: TracingTap<FaultInjector>,
    fault_stats_seen: FaultStats,
    horizon: Horizon,
    /// The exact configuration `ads` was built with, returned to the worker
    /// slot at [`RunState::finish`] so the next run can reuse the ADS.
    ads_config: AdsConfig,
    ads: Ads,
    frame: CameraFrame,
    camera: Camera,
    lidar: Lidar,
    gps: GpsImu,
    /// The IDS monitors: a pure observer, off (`None`) under a cut horizon.
    ids: Option<Ids>,
    record: RunRecord,
    seq: u64,
    collided: bool,
    /// Launch time, once the session has seen the attack start.
    launched_at: Option<f64>,
    /// Time of the first [`Event::AttackEnded`].
    attack_end_t: Option<f64>,
    /// Emergency braking entered at/after the launch (as
    /// [`RunOutcome::eb_after_attack`] counts it); may lag, never lead.
    eb_after_launch: bool,
    /// A post-launch sample below the accident threshold.
    accident_after_launch: bool,
    k_prime_ads: Option<u32>,
    frames_since_launch: u32,
    target_delta_at_attack_end: Option<f64>,
    min_perceived_delta: Option<f64>,
    replica_divergence: Option<f64>,
    /// Rolling window so one-tick phantom dips don't pollute the minimum.
    perceived_window: [f64; 3],
    perceived_idx: usize,
    /// Held for the whole run; drops (and records `Stage::Run`) at finish.
    _run_timer: StageTimer,
}

impl RunState {
    /// Builds the run: scenario, RNG stream, attacker, fault tap, ADS
    /// (taken from `worker` and `reset()` when the configuration matches —
    /// bit-identical to fresh construction, pinned by the golden-trace
    /// suite), sensors, IDS, and bookkeeping. Emits [`TraceEvent::RunStarted`].
    ///
    /// Everything that draws from the run RNG stream happens here in the
    /// exact order the historical loop used, so seeds replay identically.
    fn new(session: &SimSession, worker: &mut SessionWorker) -> RunState {
        let run_timer = session.telemetry.time(Stage::Run);
        let config = session.config.clone();
        let tele = session.telemetry.clone();
        // Registration emits nothing, so RunStarted stays the first event.
        let mut scheduler = Scheduler::new();
        scheduler.set_telemetry(tele.clone());
        let tasks = SessionTasks::register(&mut scheduler);

        let scenario = config.build_scenario();
        let mut rng = run_rng(config.seed, 0xA77ACC);
        let mut attacker = session.attacker.build(&scenario, &config, &mut rng);
        attacker.set_telemetry(tele.clone());
        // The injector draws from its own seeded stream, so the main run RNG
        // sequence is identical whether or not faults fire.
        let tap = TracingTap::new(
            FaultInjector::new(config.faults.clone(), config.seed),
            tele.clone(),
        );

        let mut ads_config = AdsConfig::default();
        ads_config.perception.calibration = config.calibration;
        ads_config.perception.fusion = config.fusion;
        ads_config.planner.cruise_speed = scenario.cruise_speed;
        let mut ads = match worker.ads.take() {
            Some((held, mut ads)) if held == ads_config => {
                ads.reset();
                ads
            }
            _ => Ads::new(ads_config),
        };
        ads.set_telemetry(tele.clone());

        let ids = (session.horizon == Horizon::Full).then(|| {
            Ids::new(IdsConfig {
                calibration: config.calibration,
                ..IdsConfig::default()
            })
        });

        tele.emit(0.0, || TraceEvent::RunStarted {
            scenario: config.scenario.name(),
            seed: config.seed,
        });

        RunState {
            frame: std::mem::take(&mut worker.frame),
            config,
            scheduler,
            tasks,
            scenario,
            tele,
            rng,
            attacker,
            tap,
            fault_stats_seen: FaultStats::default(),
            horizon: session.horizon,
            ads_config,
            ads,
            camera: Camera::default(),
            lidar: Lidar::default(),
            gps: GpsImu::default(),
            ids,
            record: RunRecord::new(),
            seq: 0,
            collided: false,
            launched_at: None,
            attack_end_t: None,
            eb_after_launch: false,
            accident_after_launch: false,
            k_prime_ads: None,
            frames_since_launch: 0,
            target_delta_at_attack_end: None,
            min_perceived_delta: None,
            replica_divergence: None,
            perceived_window: [f64::INFINITY; 3],
            perceived_idx: 0,
            _run_timer: run_timer,
        }
    }

    /// Number of 30 Hz physics ticks in the scenario.
    fn total_steps(&self) -> u64 {
        (self.scenario.duration / SIM_DT).ceil() as u64
    }

    /// One 30 Hz tick: dispatch the due tasks, run the control tick, step
    /// the world, and check for contact. Returns whether the run collided
    /// and must stop.
    fn tick(&mut self, world: &mut World, fired: &mut Vec<Task>) -> bool {
        self.scheduler.advance_into(world.time_us(), fired);
        for &task in fired.iter() {
            if task == self.tasks.gps {
                self.gps_task(world);
            } else if task == self.tasks.camera {
                self.camera_task(world);
            } else if task == self.tasks.lidar {
                self.lidar_task(world);
            } else if task == self.tasks.planner {
                self.planner_task(world);
            }
        }
        let accel = self.ads.control_tick(SIM_DT);
        {
            let _t = self.tele.time(Stage::WorldStep);
            world.step(SIM_DT, accel);
        }
        self.after_step(world)
    }

    /// The GPS/IMU task: sample, fault tap, deliver to the ADS.
    fn gps_task(&mut self, world: &World) {
        let mut fix = {
            let _t = self.tele.time(Stage::GpsSample);
            self.gps.fix(world, &mut self.rng)
        };
        self.tap.on_gps(&mut fix);
        emit_fault_diffs(
            &self.tele,
            world.time(),
            &mut self.fault_stats_seen,
            self.tap.inner(),
        );
        self.ads.on_gps(fix);
    }

    /// The camera task: capture, fault tap, the attacker's MITM hook, then
    /// the ADS and IDS consume the (possibly perturbed) frame, and the
    /// attack bookkeeping runs at camera rate.
    fn camera_task(&mut self, world: &World) {
        {
            let _t = self.tele.time(Stage::CameraCapture);
            capture_into(&self.camera, world, self.seq, false, &mut self.frame);
        }
        self.seq += 1;
        // Faults act on the sensor side of the E/E network: a dropped frame
        // never reaches the attacker's MITM hook, and a rewritten frame is
        // what the malware replica sees too.
        let verdict = self.tap.on_camera(&mut self.frame);
        emit_fault_diffs(
            &self.tele,
            world.time(),
            &mut self.fault_stats_seen,
            self.tap.inner(),
        );
        if verdict == CameraTapVerdict::Drop {
            return;
        }
        self.attacker
            .process_frame(&mut self.frame, world.ego().speed, &mut self.rng);
        self.ads.on_camera_frame(&self.frame, &mut self.rng);
        if let Some(ids) = &mut self.ids {
            ids.on_camera(world.time(), self.ads.perception().last_detections());
        }

        // Attack bookkeeping at camera rate.
        let stats = *self.attacker.stats();
        if let Some(t0) = stats.launched_at {
            if self.launched_at.is_none() {
                self.launched_at = Some(t0);
                self.record.push_event(t0, Event::AttackStarted);
            }
            self.frames_since_launch += 1;
            if self.k_prime_ads.is_none() {
                if let (Some(vector), Some(target)) = (stats.vector, stats.target) {
                    if let Some(truth) = world.actor(target) {
                        if k_prime_reached(vector, &self.ads, truth.pose.position) {
                            self.k_prime_ads = Some(self.frames_since_launch);
                        }
                    }
                }
            }
            // Label for the SH training set: δ w.r.t. the target at the
            // frame the attack window closes.
            if self.target_delta_at_attack_end.is_none() && stats.frames_perturbed >= stats.k {
                self.record.push_event(world.time(), Event::AttackEnded);
                self.attack_end_t.get_or_insert(world.time());
                self.target_delta_at_attack_end = av_planning::safety::target_delta(
                    &self.config.safety,
                    world,
                    self.scenario.target,
                );
            }
        }
    }

    /// The LiDAR task: scan, fault tap, deliver to the ADS and IDS.
    fn lidar_task(&mut self, world: &World) {
        let mut scan = {
            let _t = self.tele.time(Stage::LidarScan);
            self.lidar.scan(world, &mut self.rng)
        };
        let delivered = self.tap.on_lidar(&mut scan);
        emit_fault_diffs(
            &self.tele,
            world.time(),
            &mut self.fault_stats_seen,
            self.tap.inner(),
        );
        if delivered {
            self.ads.on_lidar(&scan);
            if let Some(ids) = &mut self.ids {
                ids.on_lidar(world.time(), &scan, &self.ads.world_model());
            }
        }
    }

    /// The planner task: plan tick, replica-divergence probe (full
    /// horizon only), and the ground-truth safety sample.
    fn planner_task(&mut self, world: &World) {
        let entered_eb = self.ads.plan_tick_at(world.time());
        // Mirrored-replica divergence: both models estimate the scripted
        // target ego-relative; track the worst disagreement.
        let replica = match self.horizon {
            Horizon::Full => self.attacker.replica_world(),
            Horizon::Label | Horizon::Verdict => None,
        };
        if let Some(replica) = replica {
            let ego = self.ads.ego_position();
            let ads_rel = self
                .ads
                .world_model()
                .iter()
                .find(|o| o.provenance == Some(av_simkit::scenario::TARGET_ID))
                .map(|o| o.position - ego);
            let rep_rel = replica
                .iter()
                .find(|o| o.provenance == Some(av_simkit::scenario::TARGET_ID))
                .map(|o| o.position);
            if let (Some(a), Some(r)) = (ads_rel, rep_rel) {
                let d = a.distance(r);
                self.replica_divergence =
                    Some(self.replica_divergence.map_or(d, |m: f64| m.max(d)));
            }
        }
        if entered_eb {
            self.record.push_event(world.time(), Event::EmergencyBrake);
            if self.launched_at.is_some_and(|t0| world.time() >= t0 - 1e-9) {
                self.eb_after_launch = true;
            }
        }
        if self.launched_at.is_some() {
            let d =
                perceived_in_path_delta(&self.ads, &self.config.safety).unwrap_or(f64::INFINITY);
            self.perceived_window[self.perceived_idx % 3] = d;
            self.perceived_idx += 1;
            if self.perceived_idx >= 3 {
                // A dip only counts if it persisted 3 planner ticks.
                let sustained = self
                    .perceived_window
                    .iter()
                    .copied()
                    .fold(f64::MIN, f64::max);
                if sustained.is_finite() {
                    self.min_perceived_delta = Some(
                        self.min_perceived_delta
                            .map_or(sustained, |m: f64| m.min(sustained)),
                    );
                }
            }
        }
        let (delta, _) = ground_truth_delta(&self.config.safety, world, HORIZON_M);
        let target_gap = world
            .separation_to_ego(self.scenario.target)
            .unwrap_or(f64::INFINITY);
        if self.launched_at.is_some_and(|t0| world.time() >= t0)
            && self.config.safety.is_accident(delta)
        {
            self.accident_after_launch = true;
        }
        self.record.push_sample(Sample {
            t: world.time(),
            ego_speed: world.ego().speed,
            ego_accel: self.ads.plan().accel,
            delta,
            target_gap,
            attack_active: self.attacker.attacking(),
            emergency_braking: self.ads.emergency_braking(),
        });
    }

    /// Post-step contact check (the LGSVL behavior): bumper-to-bumper
    /// contact with an in-path obstacle halts the run. Returns whether the
    /// run just collided and must stop.
    fn after_step(&mut self, world: &World) -> bool {
        if let Some(o) = world.in_path_obstacle(0.0) {
            if o.gap <= 0.05 && o.closing_speed > -0.1 {
                self.record.push_event(world.time(), Event::Collision);
                self.tele.emit(world.time(), || TraceEvent::Collision);
                self.collided = true;
            }
        }
        self.collided
    }

    /// Whether the run's horizon is reached: nothing the consumer reads can
    /// change after this tick. Checked after every step.
    fn horizon_reached(&self, world: &World) -> bool {
        match self.horizon {
            Horizon::Full => false,
            // Later samples fall outside the attack window's tail; a
            // Move_In label reads the perceived δ up to the run's end.
            Horizon::Label => {
                self.attack_end_t
                    .is_some_and(|t1| world.time() > t1 + ATTACK_WINDOW_TAIL_S)
                    && self.attacker.stats().vector != Some(AttackVector::MoveIn)
            }
            Horizon::Verdict => {
                self.launched_at.is_some() && self.eb_after_launch && self.accident_after_launch
            }
        }
    }

    /// Closes the run: final labels, outcome assembly, the
    /// [`TraceEvent::RunFinished`] emit/flush, and handing the warmed ADS
    /// and frame buffer back to `worker` for the next run.
    fn finish(mut self, world: &World, worker: &mut SessionWorker) -> RunOutcome {
        // If the attack window never closed (run ended first), take the
        // label at the end of the run.
        let stats = *self.attacker.stats();
        if stats.launched_at.is_some() && self.target_delta_at_attack_end.is_none() {
            self.target_delta_at_attack_end =
                av_planning::safety::target_delta(&self.config.safety, world, self.scenario.target);
        }

        let min_delta_post_attack = stats
            .launched_at
            .and_then(|t0| self.record.min_delta_since(t0));
        let attack_end_t = self
            .record
            .first_event(Event::AttackEnded)
            .unwrap_or(world.time());
        let min_delta_attack_window = stats.launched_at.map(|t0| {
            self.record
                .samples
                .iter()
                .filter(|s| s.t >= t0 && s.t <= attack_end_t + ATTACK_WINDOW_TAIL_S)
                .map(|s| s.delta)
                .fold(f64::INFINITY, f64::min)
        });
        let accident = self.collided
            || min_delta_post_attack.is_some_and(|d| self.config.safety.is_accident(d));
        let eb_after_attack = stats.launched_at.is_some_and(|t0| {
            self.record
                .events
                .iter()
                .any(|(t, e)| *e == Event::EmergencyBrake && *t >= t0 - 1e-9)
        });
        let eb_any = self.record.has_event(Event::EmergencyBrake);

        let samples = self.record.samples.len() as u64;
        self.tele.emit(world.time(), || TraceEvent::RunFinished {
            sim_seconds: world.time(),
            samples,
        });
        self.tele.flush();

        let stale_frames = self.ads.perception().stale_frames();
        worker.ads = Some((self.ads_config, self.ads));
        worker.frame = self.frame;

        RunOutcome {
            scenario: self.config.scenario,
            seed: self.config.seed,
            sim_seconds: world.time(),
            record: self.record,
            attack: stats,
            collided: self.collided,
            accident,
            eb_after_attack,
            eb_any,
            min_delta_post_attack,
            min_delta_attack_window,
            target_delta_at_attack_end: self.target_delta_at_attack_end,
            min_perceived_delta_post_attack: self.min_perceived_delta,
            k_prime_ads: self.k_prime_ads,
            ids_alarms: self
                .ids
                .map(|ids| ids.alarms().to_vec())
                .unwrap_or_default(),
            faults: *self.tap.inner().stats(),
            stale_frames,
            replica_divergence: self.replica_divergence,
            horizon: self.horizon,
        }
    }
}

impl SimSession {
    /// Starts building a session for `scenario`.
    pub fn builder(scenario: ScenarioId) -> SimSessionBuilder {
        SimSessionBuilder {
            config: RunConfig::new(scenario, 0),
            attacker: AttackerSpec::None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The same session, stopping at `horizon` instead of the scenario's
    /// end (see [`crate::horizon`]).
    #[must_use]
    pub(crate) fn with_horizon(mut self, horizon: Horizon) -> SimSession {
        self.horizon = horizon;
        self
    }

    /// The run configuration this session will execute.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The attached telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Executes the run. A session is reusable: running twice with the same
    /// configuration produces bit-identical records (and, modulo wall-clock
    /// metrics, identical event streams).
    pub fn run(&self) -> RunOutcome {
        self.run_with(&mut SessionWorker::new())
    }

    /// Executes the run reusing `worker`'s long-lived ADS and frame buffers.
    ///
    /// Bit-identical to [`SimSession::run`] for any worker state — a reused
    /// ADS is `reset()` (or rebuilt on configuration change) before the run.
    pub fn run_with(&self, worker: &mut SessionWorker) -> RunOutcome {
        tally::add(Work::Run, 1);
        let mut state = RunState::new(self, worker);
        let mut world = state.scenario.world.clone();
        let mut fired = std::mem::take(&mut worker.fired);
        for _ in 0..state.total_steps() {
            if state.tick(&mut world, &mut fired) || state.horizon_reached(&world) {
                break;
            }
        }
        worker.fired = fired;
        state.finish(&world, worker)
    }
}

/// Emits one [`TraceEvent::FaultInjected`] per injector counter that
/// advanced since the previous call. The tracing tap cannot see injector
/// internals generically, so the session diffs the public statistics after
/// each tap invocation.
fn emit_fault_diffs(tele: &Telemetry, t: f64, seen: &mut FaultStats, injector: &FaultInjector) {
    if !tele.is_enabled() {
        *seen = *injector.stats();
        return;
    }
    let now = *injector.stats();
    let diffs: [(SensorChannel, &'static str, u32); 8] = [
        (
            SensorChannel::Camera,
            "camera_frames_dropped",
            now.camera_frames_dropped - seen.camera_frames_dropped,
        ),
        (
            SensorChannel::Camera,
            "camera_frames_frozen",
            now.camera_frames_frozen - seen.camera_frames_frozen,
        ),
        (
            SensorChannel::Camera,
            "camera_frames_delayed",
            now.camera_frames_delayed - seen.camera_frames_delayed,
        ),
        (
            SensorChannel::Camera,
            "camera_boxes_noised",
            now.camera_boxes_noised - seen.camera_boxes_noised,
        ),
        (
            SensorChannel::Camera,
            "camera_boxes_occluded",
            now.camera_boxes_occluded - seen.camera_boxes_occluded,
        ),
        (
            SensorChannel::Camera,
            "camera_blackout_frames",
            now.camera_blackout_frames - seen.camera_blackout_frames,
        ),
        (
            SensorChannel::Lidar,
            "lidar_scans_dropped",
            now.lidar_scans_dropped - seen.lidar_scans_dropped,
        ),
        (
            SensorChannel::Gps,
            "gps_fixes_biased",
            now.gps_fixes_biased - seen.gps_fixes_biased,
        ),
    ];
    for (channel, what, count) in diffs {
        if count > 0 {
            tele.emit(t, || TraceEvent::FaultInjected {
                channel,
                what,
                count,
            });
        }
    }
    *seen = now;
}

/// Tracks when the ADS world model reflects the hijacked trajectory (the
/// Fig. 7 `K′` measurement).
fn k_prime_reached(vector: AttackVector, ads: &Ads, target_truth: av_simkit::math::Vec2) -> bool {
    let world = ads.world_model();
    let perceived = world
        .iter()
        .find(|o| o.provenance == Some(av_simkit::scenario::TARGET_ID));
    match vector {
        AttackVector::Disappear => {
            // Gone when nothing is published near the true position.
            !world
                .iter()
                .any(|o| o.position.distance(target_truth) < 3.0)
        }
        AttackVector::MoveOut => perceived
            .map(|o| (o.position.y - target_truth.y).abs() >= 1.6)
            .unwrap_or(true),
        AttackVector::MoveIn => perceived
            .map(|o| o.position.y.abs() <= 1.25)
            .unwrap_or(false),
    }
}

/// The EV's perceived in-path safety potential: nearest world-model object
/// overlapping the ego corridor, minus the stopping distance.
fn perceived_in_path_delta(ads: &Ads, safety: &SafetyConfig) -> Option<f64> {
    let ego = ads.ego_position();
    let v = ads.ego_speed();
    let ego_front = ego.x + 2.3;
    let (cy0, cy1) = (ego.y - 1.25, ego.y + 1.25);
    ads.world_model()
        .iter()
        .filter_map(|o| {
            let (oy0, oy1) = o.lateral_extent();
            if av_simkit::math::interval_overlap(cy0, cy1, oy0, oy1) <= 0.0 {
                return None;
            }
            let (ox0, ox1) = o.longitudinal_extent();
            if ox1 < ego_front {
                return None;
            }
            Some((ox0 - ego_front).max(0.0))
        })
        .fold(None, |acc: Option<f64>, g| {
            Some(acc.map_or(g, |a| a.min(g)))
        })
        .map(|gap| safety.delta(gap, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_telemetry::{EventKind, RingBufferSink, SharedSink};

    #[test]
    fn golden_ds1_is_safe() {
        let out = SimSession::builder(ScenarioId::Ds1).seed(3).build().run();
        assert!(!out.collided, "golden DS-1 must not collide");
        assert!(!out.eb_any, "golden DS-1 must not emergency brake");
        assert!(out.attack.launched_at.is_none());
        assert!(out.record.samples.len() > 100);
    }

    #[test]
    fn golden_ds2_stops_for_pedestrian() {
        let out = SimSession::builder(ScenarioId::Ds2).seed(3).build().run();
        assert!(!out.collided, "golden DS-2 must not hit the pedestrian");
        // The EV must have actually slowed down substantially at some point.
        let min_speed = out
            .record
            .samples
            .iter()
            .map(|s| s.ego_speed)
            .fold(f64::INFINITY, f64::min);
        assert!(min_speed < 2.0, "EV braked for the pedestrian: {min_speed}");
    }

    #[test]
    fn golden_ds3_passes_parked_car() {
        let out = SimSession::builder(ScenarioId::Ds3).seed(3).build().run();
        assert!(!out.collided);
        assert!(!out.eb_any, "parked car out of lane must not trigger EB");
        // Maintains cruise: mean speed close to 45 kph.
        let speeds: Vec<f64> = out.record.samples.iter().map(|s| s.ego_speed).collect();
        assert!(crate::stats::mean(&speeds) > 10.0, "kept moving");
    }

    #[test]
    fn golden_runs_are_reproducible() {
        let session = SimSession::builder(ScenarioId::Ds1).seed(7).build();
        let a = session.run();
        let b = session.run();
        assert_eq!(a.record.samples.len(), b.record.samples.len());
        let last_a = a.record.samples.last().unwrap();
        let last_b = b.record.samples.last().unwrap();
        assert_eq!(last_a.ego_speed, last_b.ego_speed);
        assert_eq!(last_a.delta, last_b.delta);
    }

    #[test]
    fn kinematic_robotack_attacks_ds1() {
        let out = SimSession::builder(ScenarioId::Ds1)
            .seed(11)
            .attacker(AttackerSpec::RoboTack {
                vector: Some(AttackVector::MoveOut),
                oracle: crate::runner::OracleSpec::Kinematic,
            })
            .build()
            .run();
        assert!(out.attack.launched_at.is_some(), "attack launched");
        assert!(out.min_delta_post_attack.is_some());
    }

    #[test]
    fn traced_run_brackets_the_stream_with_lifecycle_events() {
        let sink = SharedSink::new(RingBufferSink::new(200_000));
        let out = SimSession::builder(ScenarioId::Ds1)
            .seed(3)
            .telemetry(Telemetry::with_sink(sink.clone()))
            .build()
            .run();
        let records = sink.lock().drain();
        assert!(!records.is_empty());
        assert_eq!(records[0].event.kind(), EventKind::RunStarted);
        assert_eq!(records.last().unwrap().event.kind(), EventKind::RunFinished);
        // The stream must cover the whole pipeline of a golden run.
        for kind in [
            EventKind::SchedulerTask,
            EventKind::SensorSample,
            EventKind::DetectionsEmitted,
            EventKind::TrackUpdate,
            EventKind::PlannerModeChanged,
        ] {
            assert!(
                records.iter().any(|r| r.event.kind() == kind),
                "missing {kind:?}"
            );
        }
        // And telemetry must not have perturbed the run.
        let bare = SimSession::builder(ScenarioId::Ds1).seed(3).build().run();
        assert_eq!(out.record.digest(), bare.record.digest());
    }

    #[test]
    fn faulted_traced_run_reports_injections() {
        let plan = av_faults::FaultPlan::single(av_faults::FaultSpec::always(
            av_faults::FaultKind::CameraFrameDrop { probability: 0.3 },
        ));
        let sink = SharedSink::new(RingBufferSink::new(200_000));
        let out = SimSession::builder(ScenarioId::Ds1)
            .seed(5)
            .faults(plan)
            .telemetry(Telemetry::with_sink(sink.clone()))
            .build()
            .run();
        assert!(out.faults.camera_frames_dropped > 0, "plan fired");
        let records = sink.lock().drain();
        let injected = records
            .iter()
            .filter(|r| r.event.kind() == EventKind::FaultInjected)
            .count() as u32;
        assert_eq!(injected, out.faults.total(), "one event per fault unit");
        // Dropped frames must be visible as undelivered camera samples.
        assert!(records.iter().any(|r| matches!(
            r.event,
            TraceEvent::SensorSample {
                channel: SensorChannel::Camera,
                delivered: false,
                ..
            }
        )));
    }
}
