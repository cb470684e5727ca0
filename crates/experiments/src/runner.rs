//! Run-level types: configuration, attacker spec, outcome.
//!
//! The simulation loop itself lives in [`crate::session`]; construct a
//! [`crate::session::SimSession`] via its builder — it is the only entry
//! point for executing a run.

use crate::horizon::Horizon;
use av_defense::ids::Alarm;
use av_faults::{FaultPlan, FaultStats};
use av_perception::calibration::DetectorCalibration;
use av_planning::safety::SafetyConfig;
use av_simkit::recorder::RunRecord;
use av_simkit::scenario::{Scenario, ScenarioId};
use av_simkit::units::CAMERA_HZ;
use rand::rngs::StdRng;
use robotack::baseline::{NoAttacker, RandomAttacker};
use robotack::malware::{Attacker, RoboTack, RoboTackConfig, TimingPolicy};
use robotack::safety_hijacker::{AttackFeatures, KinematicOracle, NnOracle, SafetyOracle};
use robotack::vector::AttackVector;
use std::sync::Arc;

/// Free-road horizon used when no obstacle is in path (m).
pub const HORIZON_M: f64 = 200.0;

/// The oracle driving the safety hijacker in a run.
#[derive(Debug, Clone)]
pub enum OracleSpec {
    /// Closed-form kinematic oracle (no training required).
    Kinematic,
    /// A trained per-vector neural oracle (shared across runs).
    Nn(Arc<NnOracle>),
}

impl SafetyOracle for OracleSpec {
    fn predict_delta(&self, features: &AttackFeatures, k: u32) -> f64 {
        match self {
            OracleSpec::Kinematic => KinematicOracle::default().predict_delta(features, k),
            OracleSpec::Nn(nn) => nn.predict_delta(features, k),
        }
    }
}

/// Which attacker rides along on this run.
#[derive(Debug, Clone)]
pub enum AttackerSpec {
    /// Golden run: no attacker.
    None,
    /// The Baseline-Random attacker (§VI-B).
    Random,
    /// Full RoboTack with the safety hijacker.
    RoboTack {
        /// Campaign vector (None = Table I heuristic).
        vector: Option<AttackVector>,
        /// The oracle to use.
        oracle: OracleSpec,
    },
    /// RoboTack without the safety hijacker ("R w/o SH"): scenario matcher +
    /// trajectory hijacker, random timing, K ∈ [15, 85].
    RoboTackNoSh {
        /// Campaign vector (None = Table I heuristic).
        vector: Option<AttackVector>,
    },
    /// Training-data collection: attack when δ crosses `delta_inject`, hold
    /// `k` frames (§IV-B).
    AtDelta {
        /// Campaign vector.
        vector: Option<AttackVector>,
        /// Launch threshold on δ (m).
        delta_inject: f64,
        /// Attack duration (frames).
        k: u32,
    },
}

/// Configuration of a single run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The driving scenario.
    pub scenario: ScenarioId,
    /// For generated scenarios ([`ScenarioId::Gen`]): the spec the world is
    /// sampled from, carried out of band because a `Gen` id is a content
    /// hash, not a build recipe. `None` for the fixed DS-1..5 scenarios,
    /// whose recipes live in [`Scenario::build`]. Sampling draws from the
    /// same seeded RNG stream `build` uses, so fixed scenarios expressed as
    /// specs replay bit-identically either way.
    pub spec: Option<Arc<av_scenarios::ScenarioSpec>>,
    /// Run seed (world jitter, every noise source, attacker sampling).
    pub seed: u64,
    /// Detector noise calibration for both the ADS and the malware replica.
    pub calibration: DetectorCalibration,
    /// Safety model for ground-truth recording.
    pub safety: SafetyConfig,
    /// ADS fusion configuration (ablations sweep the registration delay).
    pub fusion: av_perception::fusion::FusionConfig,
    /// Fraction of the ±1σ noise gate the trajectory hijacker uses per
    /// frame (ablations sweep the stealth/speed trade-off).
    pub sigma_fraction: f64,
    /// Safety-hijacker thresholds (ablations sweep γ).
    pub sh: robotack::safety_hijacker::SafetyHijackerConfig,
    /// Sensor faults injected between capture and delivery. The empty plan
    /// is bit-transparent: the run is identical with or without it.
    pub faults: FaultPlan,
}

impl RunConfig {
    /// Standard configuration for a scenario + seed.
    pub fn new(scenario: ScenarioId, seed: u64) -> Self {
        RunConfig {
            scenario,
            spec: None,
            seed,
            calibration: DetectorCalibration::paper(),
            safety: SafetyConfig::default(),
            fusion: av_perception::fusion::FusionConfig::default(),
            sigma_fraction: 1.0,
            sh: robotack::safety_hijacker::SafetyHijackerConfig::default(),
            faults: FaultPlan::none(),
        }
    }

    /// Standard configuration for a generated scenario: the run carries the
    /// spec and is identified by [`av_scenarios::ScenarioSpec::scenario_id`]
    /// (the spec's content hash).
    pub fn generated(spec: Arc<av_scenarios::ScenarioSpec>, seed: u64) -> Self {
        let mut config = RunConfig::new(spec.scenario_id(), seed);
        config.spec = Some(spec);
        config
    }

    /// Builds the run's scenario world: sampled from the carried spec when
    /// one is present, otherwise via the fixed recipe in [`Scenario::build`].
    pub fn build_scenario(&self) -> Scenario {
        match &self.spec {
            Some(spec) => spec.sample(self.seed),
            None => Scenario::build(self.scenario, self.seed),
        }
    }

    /// The same configuration with a fault plan attached.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Everything a campaign wants to know about one finished run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Scenario that was run.
    pub scenario: ScenarioId,
    /// Seed that was run.
    pub seed: u64,
    /// Full time-series record.
    pub record: RunRecord,
    /// Attacker bookkeeping.
    pub attack: robotack::malware::AttackStats,
    /// Ground-truth contact occurred (simulator halt).
    pub collided: bool,
    /// The paper's accident definition: min ground-truth δ after attack
    /// start < 4 m.
    pub accident: bool,
    /// Emergency braking entered at/after the attack started.
    pub eb_after_attack: bool,
    /// Any emergency braking during the run.
    pub eb_any: bool,
    /// Min ground-truth δ from attack start to run end (m).
    pub min_delta_post_attack: Option<f64>,
    /// Min ground-truth δ within the attack window plus a 3 s consequence
    /// tail (m; [`crate::horizon`]'s `ATTACK_WINDOW_TAIL_S`) — the quantity
    /// the safety-hijacker NN predicts (`δ_{t+k}`).
    pub min_delta_attack_window: Option<f64>,
    /// Ground-truth δ w.r.t. the scripted target at attack end.
    pub target_delta_at_attack_end: Option<f64>,
    /// Minimum *perceived* in-path δ (from the ADS world model) since the
    /// attack started — the quantity a Move_In attack reduces (the real δ
    /// is untouched; the EV brakes for a phantom).
    pub min_perceived_delta_post_attack: Option<f64>,
    /// `K′` measured from the ADS world model (frames from attack start
    /// until the perceived target left/entered the lane or vanished).
    pub k_prime_ads: Option<u32>,
    /// Alarms raised by the onboard intrusion-detection system.
    pub ids_alarms: Vec<Alarm>,
    /// Simulated seconds executed.
    pub sim_seconds: f64,
    /// What the fault injector actually did (all zeros for an empty plan).
    pub faults: FaultStats,
    /// Camera frames the ADS perception rejected as stale (frozen feed).
    pub stale_frames: u64,
    /// Peak distance (m) between the malware replica's and the ADS's
    /// ego-relative estimate of the scripted target — the mirrored-replica
    /// divergence the resilience experiments measure. `None` when the
    /// attacker keeps no replica or the target was never co-visible.
    pub replica_divergence: Option<f64>,
    /// How far the run was simulated (see [`crate::horizon`]).
    pub(crate) horizon: Horizon,
}

impl AttackerSpec {
    /// Builds the per-run attacker.
    pub(crate) fn build(
        &self,
        scenario: &Scenario,
        config: &RunConfig,
        rng: &mut StdRng,
    ) -> Box<dyn Attacker> {
        let calibration = config.calibration;
        let mut rt_config = RoboTackConfig::default();
        rt_config.perception.calibration = calibration;
        rt_config.th.calibration = calibration;
        rt_config.th.sigma_fraction = config.sigma_fraction;
        rt_config.sh = config.sh;
        match self {
            AttackerSpec::None => Box::new(NoAttacker::new()),
            AttackerSpec::Random => {
                let horizon_frames = (scenario.duration * CAMERA_HZ) as u32;
                Box::new(RandomAttacker::new(rt_config.th, horizon_frames, rng))
            }
            AttackerSpec::RoboTack { vector, oracle } => {
                rt_config.vector_preference = *vector;
                rt_config.timing = TimingPolicy::SafetyHijacker;
                Box::new(RoboTack::new(rt_config, oracle.clone()))
            }
            AttackerSpec::RoboTackNoSh { vector } => {
                rt_config.vector_preference = *vector;
                let horizon_frames = (scenario.duration * CAMERA_HZ) as u32;
                rt_config.timing = TimingPolicy::RandomAfterMatch {
                    warmup: rng.random_range(0..horizon_frames.max(2) / 2),
                    k: rng.random_range(15..=85),
                };
                Box::new(RoboTack::new(rt_config, OracleSpec::Kinematic))
            }
            AttackerSpec::AtDelta {
                vector,
                delta_inject,
                k,
            } => {
                rt_config.vector_preference = *vector;
                rt_config.timing = TimingPolicy::AtDelta {
                    delta_inject: *delta_inject,
                    k: *k,
                };
                Box::new(RoboTack::new(rt_config, OracleSpec::Kinematic))
            }
        }
    }
}
