//! Seeded campaigns: batches of runs with Table II / Fig. 6 / Fig. 7 metrics.

use crate::horizon::Horizon;
use crate::runner::{AttackerSpec, RunConfig, RunOutcome};
use crate::session::{SessionWorker, SimSession};
use crate::stats;
use av_defense::ids::{Alarm, AlarmKind};
use av_faults::FaultPlan;
use av_simkit::scenario::ScenarioId;
use av_simkit::units::CAMERA_HZ;
use av_telemetry::{MetricsRegistry, MetricsSnapshot, Telemetry, TraceEvent};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why a campaign could not be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// `threads == 0` was requested. Historical behavior silently clamped
    /// this to sequential execution; the caller now has to pick a real
    /// worker count (1 = sequential).
    ZeroThreads,
    /// A block size of 0 runs was requested. Historical behavior silently
    /// clamped it to 1; the caller now has to pick a real block size.
    ZeroBatch,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::ZeroThreads => {
                write!(f, "campaign requires at least one worker thread (got 0)")
            }
            CampaignError::ZeroBatch => {
                write!(f, "campaign requires at least one run per block (got 0)")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// A campaign: one 〈scenario, attacker〉 pair executed over many seeds, like
/// the paper's 150–200 runs per experimental campaign (§VI-C).
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign id, e.g. `DS-1-Disappear-R` (paper naming).
    pub name: String,
    /// The configuration every run executes: the scenario (with a
    /// generated scenario's spec, sampled at the run's seed), the sensor
    /// faults, and the ADS and attacker settings the ablations vary. Run
    /// `i` overrides only its seed, with `base_seed + i`.
    pub config: RunConfig,
    /// Attacker riding along.
    pub attacker: AttackerSpec,
    /// Number of seeded runs.
    pub runs: u64,
    /// Base seed; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Collect per-stage timing metrics across all workers (merged into
    /// [`CampaignResult::metrics`]). Off by default: the campaign then runs
    /// with telemetry fully disabled, the zero-cost path.
    pub collect_metrics: bool,
}

impl Campaign {
    /// Creates a campaign with healthy sensors and the standard
    /// configuration ([`RunConfig::new`]); set [`Campaign::config`] fields
    /// to vary it.
    pub fn new(
        name: impl Into<String>,
        scenario: ScenarioId,
        attacker: AttackerSpec,
        runs: u64,
        base_seed: u64,
    ) -> Self {
        Campaign {
            name: name.into(),
            config: RunConfig::new(scenario, base_seed),
            attacker,
            runs,
            base_seed,
            collect_metrics: false,
        }
    }

    /// A campaign over a generated scenario: every run samples its world
    /// from `spec`, and [`Campaign::scenario`] is the spec's content-hash
    /// id ([`av_scenarios::ScenarioSpec::scenario_id`]).
    pub fn generated(
        name: impl Into<String>,
        spec: Arc<av_scenarios::ScenarioSpec>,
        attacker: AttackerSpec,
        runs: u64,
        base_seed: u64,
    ) -> Self {
        let mut campaign = Campaign::new(name, spec.scenario_id(), attacker, runs, base_seed);
        campaign.config.spec = Some(spec);
        campaign
    }

    /// The scenario every run executes.
    pub fn scenario(&self) -> ScenarioId {
        self.config.scenario
    }

    /// The same campaign with a fault plan applied to every run.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// The same campaign with per-stage timing collection enabled.
    #[must_use]
    pub fn with_metrics(mut self) -> Self {
        self.collect_metrics = true;
        self
    }

    /// The session of run `index` (seed `base_seed + index`) — exactly what
    /// every dispatch mode executes for that run.
    pub fn session(&self, index: u64, telemetry: &Telemetry) -> SimSession {
        let config = RunConfig {
            seed: self.base_seed + index,
            ..self.config.clone()
        };
        SimSession::builder(self.scenario())
            .config(config)
            .attacker(self.attacker.clone())
            .telemetry(telemetry.clone())
            .build()
    }
}

/// Aggregated campaign outcomes.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Campaign id.
    pub name: String,
    /// Scenario run.
    pub scenario: ScenarioId,
    /// All run outcomes, in seed order.
    pub outcomes: Vec<RunOutcome>,
    /// Per-stage timing + event counts merged across all worker threads
    /// (`Some` only when the campaign was built [`Campaign::with_metrics`]).
    /// The deterministic projection ([`MetricsSnapshot::deterministic_counts`])
    /// is thread-count invariant; durations are wall-clock and are not.
    pub metrics: Option<MetricsSnapshot>,
}

impl CampaignResult {
    /// The runs folded to the fields the paper's reports read.
    pub fn summary(&self) -> CampaignSummary {
        CampaignSummary {
            name: self.name.clone(),
            scenario: self.scenario,
            runs: self.outcomes.iter().map(RunSummary::of).collect(),
        }
    }

    /// Number of valid (attack-launched) runs.
    pub fn n_launched(&self) -> usize {
        self.summary().n_launched()
    }

    /// Emergency-braking count and rate (%) over valid runs.
    pub fn eb(&self) -> (usize, f64) {
        self.summary().eb()
    }

    /// Accident (crash) count and rate (%) over valid runs.
    pub fn crashes(&self) -> (usize, f64) {
        self.summary().crashes()
    }
}

/// One run folded to the fields the paper's reports and the boundary
/// search read. The full [`RunOutcome`] carries the time-series record and
/// every IDS alarm (a DS-1 run records ~450 samples); a summary keeps only
/// per-monitor alarm counts, so a campaign can be held — and shared
/// between reports — without them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// An attack was launched (a valid run, §VI-C).
    pub launched: bool,
    /// Planned attack length K (frames).
    pub k: u32,
    /// The oracle's δ prediction at launch.
    pub predicted_delta: Option<f64>,
    /// Emergency braking entered at/after the attack started.
    pub eb: bool,
    /// The paper's accident definition (see [`RunOutcome::accident`]).
    pub accident: bool,
    /// See [`RunOutcome::min_delta_post_attack`].
    pub min_delta_post_attack: Option<f64>,
    /// See [`RunOutcome::min_delta_attack_window`].
    pub min_delta_attack_window: Option<f64>,
    /// See [`RunOutcome::k_prime_ads`].
    pub k_prime_ads: Option<u32>,
    /// See [`RunOutcome::replica_divergence`].
    pub replica_divergence: Option<f64>,
    /// Camera frames the fault injector dropped or froze.
    pub frames_lost: u64,
    /// See [`RunOutcome::stale_frames`].
    pub stale_frames: u64,
    /// IDS alarms raised over the whole run.
    pub alarms: AlarmCounts,
    /// IDS alarms raised inside the attack window `[launch, launch +
    /// k/CAMERA_HZ + 1 s]`: the attack plus one second of grace (all zero
    /// when no attack launched).
    pub alarms_in_attack: AlarmCounts,
}

impl RunSummary {
    /// Folds one finished run.
    ///
    /// # Panics
    ///
    /// On a run its consumer cut short ([`crate::horizon`]): its alarms,
    /// post-attack δ and record stop early, so its summary would be wrong
    /// and could reach the campaign memo and the store.
    pub fn of(outcome: &RunOutcome) -> RunSummary {
        assert!(
            outcome.horizon == Horizon::Full,
            "RunSummary::of needs a full run, got one cut at {:?}",
            outcome.horizon
        );
        RunSummary {
            launched: outcome.attack.launched_at.is_some(),
            k: outcome.attack.k,
            predicted_delta: outcome.attack.predicted_delta,
            eb: outcome.eb_after_attack,
            accident: outcome.accident,
            min_delta_post_attack: outcome.min_delta_post_attack,
            min_delta_attack_window: outcome.min_delta_attack_window,
            k_prime_ads: outcome.k_prime_ads,
            replica_divergence: outcome.replica_divergence,
            frames_lost: u64::from(outcome.faults.camera_frames_dropped)
                + u64::from(outcome.faults.camera_frames_frozen),
            stale_frames: outcome.stale_frames,
            alarms: AlarmCounts::of(&outcome.ids_alarms),
            alarms_in_attack: outcome
                .attack
                .launched_at
                .map_or_else(AlarmCounts::default, |t0| {
                    let t1 = t0 + f64::from(outcome.attack.k) / CAMERA_HZ + 1.0;
                    AlarmCounts::of(outcome.ids_alarms.iter().filter(|a| a.t >= t0 && a.t <= t1))
                }),
        }
    }
}

/// IDS alarm counts per raising monitor, in [`AlarmKind::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AlarmCounts(pub(crate) [u32; AlarmKind::ALL.len()]);

impl AlarmCounts {
    /// Counts `alarms` by kind.
    pub fn of<'a>(alarms: impl IntoIterator<Item = &'a Alarm>) -> AlarmCounts {
        let mut counts = AlarmCounts::default();
        for alarm in alarms {
            let n = &mut counts.0[alarm.kind.index()];
            *n = n.saturating_add(1);
        }
        counts
    }

    /// Alarms raised by `kind`'s monitor.
    pub fn get(&self, kind: AlarmKind) -> u32 {
        self.0[kind.index()]
    }

    /// Alarms raised by any monitor.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|&n| u64::from(n)).sum()
    }
}

/// A campaign's runs folded to [`RunSummary`]s, in seed order, with the
/// Table II / Fig. 6 / Fig. 7 statistics over them.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Campaign id.
    pub name: String,
    /// Scenario run.
    pub scenario: ScenarioId,
    /// Every run, in seed order.
    pub runs: Vec<RunSummary>,
}

impl CampaignSummary {
    /// Runs in which an attack was actually launched ("valid runs"; the
    /// paper discards invalid runs, §VI-C).
    pub fn launched(&self) -> impl Iterator<Item = &RunSummary> {
        self.runs.iter().filter(|r| r.launched)
    }

    /// Number of valid (attack-launched) runs.
    pub fn n_launched(&self) -> usize {
        self.launched().count()
    }

    /// Count and rate (%) over valid runs of the runs matching `hit`.
    fn rate(&self, hit: impl Fn(&RunSummary) -> bool) -> (usize, f64) {
        let launched = self.n_launched();
        let n = self.launched().filter(|r| hit(r)).count();
        let pct = if launched == 0 {
            0.0
        } else {
            100.0 * n as f64 / launched as f64
        };
        (n, pct)
    }

    /// Emergency-braking count and rate (%) over valid runs.
    pub fn eb(&self) -> (usize, f64) {
        self.rate(|r| r.eb)
    }

    /// Accident (crash) count and rate (%) over valid runs.
    pub fn crashes(&self) -> (usize, f64) {
        self.rate(|r| r.accident)
    }

    /// Median planned attack length K (frames) over valid runs.
    pub fn median_k(&self) -> f64 {
        let ks: Vec<f64> = self.launched().map(|r| f64::from(r.k)).collect();
        stats::median(&ks)
    }

    /// All measured K′ values (ADS-side, Fig. 7).
    pub fn k_primes(&self) -> Vec<f64> {
        self.launched()
            .filter_map(|r| r.k_prime_ads.map(f64::from))
            .collect()
    }

    /// Min-δ-since-attack values (Fig. 6).
    pub fn min_deltas(&self) -> Vec<f64> {
        self.launched()
            .filter_map(|r| r.min_delta_post_attack)
            .collect()
    }
}

/// How run indices are handed to campaign workers. Either way a worker
/// claims the next block of run indices off a shared counter and runs each
/// through [`SimSession::run_with`]; outcomes are bit-identical for every
/// mode, block size and thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Workers claim one run index at a time, so a straggling run delays
    /// only its own worker while the rest drain the queue. The default.
    #[default]
    WorkStealing,
    /// Workers claim contiguous blocks of `batch_size` run indices.
    Batched {
        /// Run indices claimed per block (0 is [`CampaignError::ZeroBatch`]).
        batch_size: usize,
    },
}

/// Executes a campaign, parallelized across worker threads.
pub fn run_campaign(campaign: &Campaign) -> CampaignResult {
    run_campaign_with_threads(campaign, default_threads())
        .expect("default_threads() is always at least 1")
}

/// Reasonable worker count for this host.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// Executes a campaign on exactly `threads` workers (1 = sequential) under
/// work-stealing dispatch.
///
/// # Errors
///
/// Returns [`CampaignError::ZeroThreads`] for `threads == 0` — previously
/// this was silently clamped to sequential execution.
pub fn run_campaign_with_threads(
    campaign: &Campaign,
    threads: usize,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_dispatch(campaign, threads, DispatchMode::WorkStealing)
}

/// Executes a campaign on exactly `threads` workers with an explicit
/// [`DispatchMode`]. Outcomes land in seed order and are bit-identical for
/// every (threads, mode) combination.
///
/// # Errors
///
/// Returns [`CampaignError::ZeroThreads`] for `threads == 0` and
/// [`CampaignError::ZeroBatch`] for `Batched { batch_size: 0 }`.
pub fn run_campaign_dispatch(
    campaign: &Campaign,
    threads: usize,
    mode: DispatchMode,
) -> Result<CampaignResult, CampaignError> {
    let (outcomes, metrics) = dispatch(campaign, threads, mode, |outcome| outcome)?;
    Ok(CampaignResult {
        name: campaign.name.clone(),
        scenario: campaign.scenario(),
        outcomes,
        metrics,
    })
}

/// [`run_campaign_dispatch`] folded to [`RunSummary`]s inside the workers,
/// so no full outcome outlives its own reduction.
/// The runs are bit-identical to `run_campaign_dispatch(..).summary()`.
///
/// # Errors
///
/// Returns [`CampaignError::ZeroThreads`] for `threads == 0` and
/// [`CampaignError::ZeroBatch`] for `Batched { batch_size: 0 }`.
pub fn run_campaign_summary(
    campaign: &Campaign,
    threads: usize,
    mode: DispatchMode,
) -> Result<CampaignSummary, CampaignError> {
    let (runs, _) = dispatch(campaign, threads, mode, |outcome| RunSummary::of(&outcome))?;
    Ok(CampaignSummary {
        name: campaign.name.clone(),
        scenario: campaign.scenario(),
        runs,
    })
}

/// Executes every run of `campaign` and returns `reduce(outcome)` for
/// each, in seed order, plus the merged metrics when the campaign
/// collects them. `reduce` runs on the worker that ran the outcome.
fn dispatch<T: Send>(
    campaign: &Campaign,
    threads: usize,
    mode: DispatchMode,
    reduce: impl Fn(RunOutcome) -> T + Sync,
) -> Result<(Vec<T>, Option<MetricsSnapshot>), CampaignError> {
    let runs = usize::try_from(campaign.runs).expect("run count fits usize");
    // One registry per worker: workers record lock-free into their own and
    // the merge at the end is associative + commutative, so the merged
    // deterministic counters are identical for any thread count.
    let registries: Vec<Arc<MetricsRegistry>> = if campaign.collect_metrics {
        (0..threads)
            .map(|_| Arc::new(MetricsRegistry::new()))
            .collect()
    } else {
        Vec::new()
    };
    let worker_telemetry = |worker: usize| -> Telemetry {
        registries
            .get(worker)
            .map_or_else(Telemetry::disabled, |r| Telemetry::with_registry(r.clone()))
    };
    let block = match mode {
        DispatchMode::WorkStealing => 1,
        DispatchMode::Batched { batch_size } => batch_size,
    };
    let outcomes = run_sweep(
        runs,
        threads,
        block,
        &worker_telemetry,
        |i, tele| campaign.session(i as u64, tele),
        reduce,
    )?;
    Ok((outcomes, merged_metrics(&registries)))
}

/// The per-worker registries merged into one snapshot (`None` when the
/// campaign collected no metrics).
fn merged_metrics(registries: &[Arc<MetricsRegistry>]) -> Option<MetricsSnapshot> {
    registries.split_first().map(|(first, rest)| {
        for r in rest {
            first.merge_from(r);
        }
        first.snapshot()
    })
}

/// Executes `sessions` runs as one sweep and returns `reduce(outcome)` for
/// each, in index order.
///
/// Session `i` is `make(i, telemetry)`. The index range is cut into
/// contiguous blocks of `batch_size` and up to `threads` workers (never
/// more than there are blocks) claim blocks off a shared atomic counter.
/// Each worker runs every session of its block through
/// [`SimSession::run_with`] on its one long-lived [`SessionWorker`].
/// Sessions in a block need not share a scenario, spec, attacker, or
/// duration, so callers can pack many small campaigns into one sweep.
/// `reduce` runs inside the worker as each run finishes, so a caller that
/// needs only a summary never holds a full outcome past its reduction.
/// Worker `w` runs under `worker_telemetry(w)`, which also receives a
/// [`TraceEvent::CampaignRunDispatched`] per session. Results are
/// bit-identical for every ⟨threads, batch size⟩.
///
/// # Errors
///
/// Returns [`CampaignError::ZeroThreads`] for `threads == 0` and
/// [`CampaignError::ZeroBatch`] for `batch_size == 0`.
pub fn run_sweep<T: Send>(
    sessions: usize,
    threads: usize,
    batch_size: usize,
    worker_telemetry: &dyn Fn(usize) -> Telemetry,
    make: impl Fn(usize, &Telemetry) -> SimSession + Sync,
    reduce: impl Fn(RunOutcome) -> T + Sync,
) -> Result<Vec<T>, CampaignError> {
    if threads == 0 {
        return Err(CampaignError::ZeroThreads);
    }
    if batch_size == 0 {
        return Err(CampaignError::ZeroBatch);
    }
    let blocks = sessions.div_ceil(batch_size);
    let workers = threads.min(blocks).max(1);
    let next = AtomicU64::new(0);
    // One worker's life: a long-lived SessionWorker (warm ADS + frame
    // buffers, reset between runs), claiming blocks until the counter runs
    // past the end.
    let work = |tele: Telemetry| {
        let mut session_worker = SessionWorker::new();
        let mut claimed: Vec<(usize, Vec<T>)> = Vec::new();
        loop {
            let block = next.fetch_add(1, Ordering::Relaxed);
            let Ok(block) = usize::try_from(block) else {
                break;
            };
            if block >= blocks {
                break;
            }
            let start = block * batch_size;
            let end = (start + batch_size).min(sessions);
            let reduced = (start..end)
                .map(|i| {
                    tele.emit(0.0, || TraceEvent::CampaignRunDispatched {
                        index: i as u64,
                    });
                    reduce(make(i, &tele).run_with(&mut session_worker))
                })
                .collect();
            claimed.push((start, reduced));
        }
        claimed
    };
    let mut claimed = if workers == 1 {
        work(worker_telemetry(0))
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let tele = worker_telemetry(worker);
                    let work = &work;
                    scope.spawn(move || work(tele))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        })
    };
    // The claimed blocks partition 0..sessions: ordering them by start
    // restores index order.
    claimed.sort_unstable_by_key(|&(start, _)| start);
    Ok(claimed.into_iter().flat_map(|(_, block)| block).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts that every run of `par` is bit-identical (digest equality)
    /// and in the same seed order as `seq`.
    fn assert_same_outcomes(seq: &CampaignResult, par: &CampaignResult, label: &str) {
        assert_eq!(seq.outcomes.len(), par.outcomes.len(), "{label}: run count");
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_eq!(a.seed, b.seed, "{label}: seed order");
            assert_eq!(
                a.record.digest(),
                b.record.digest(),
                "{label}: seed {}",
                a.seed
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let campaign = Campaign::new("test-golden", ScenarioId::Ds3, AttackerSpec::None, 4, 100);
        let seq = run_campaign_with_threads(&campaign, 1).unwrap();
        // Thread count must never affect results — including more workers
        // than runs and odd counts (uneven claim distribution).
        for threads in [1, 2, 3, 7, default_threads(), 16] {
            let par = run_campaign_with_threads(&campaign, threads).unwrap();
            assert_same_outcomes(&seq, &par, &format!("{threads} threads, stealing"));
        }
    }

    #[test]
    fn batched_dispatch_matches_sequential() {
        let campaign = Campaign::new("test-batched", ScenarioId::Ds3, AttackerSpec::None, 5, 100);
        let seq = run_campaign_with_threads(&campaign, 1).unwrap();
        // Block sizes below, at, and above the run count; single- and
        // multi-worker block claiming.
        for batch_size in [1, 2, 5, 8] {
            for threads in [1, 3] {
                let batched =
                    run_campaign_dispatch(&campaign, threads, DispatchMode::Batched { batch_size })
                        .unwrap();
                assert_same_outcomes(
                    &seq,
                    &batched,
                    &format!("batch {batch_size}, {threads} threads"),
                );
            }
        }
    }

    #[test]
    fn faulted_campaign_is_thread_count_invariant() {
        let plan = av_faults::FaultPlan::single(av_faults::FaultSpec::always(
            av_faults::FaultKind::CameraFrameDrop { probability: 0.2 },
        ));
        let campaign =
            Campaign::new("faulted", ScenarioId::Ds1, AttackerSpec::None, 3, 500).with_faults(plan);
        let seq = run_campaign_with_threads(&campaign, 1).unwrap();
        assert!(
            seq.outcomes
                .iter()
                .any(|o| o.faults.camera_frames_dropped > 0),
            "the fault plan must actually fire"
        );
        let par = run_campaign_with_threads(&campaign, 8).unwrap();
        assert_same_outcomes(&seq, &par, "faulted, 8 threads");
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_eq!(a.faults, b.faults, "fault schedule, seed {}", a.seed);
        }
    }

    #[test]
    fn zero_runs_campaign_is_empty() {
        let campaign = Campaign::new("empty", ScenarioId::Ds1, AttackerSpec::None, 0, 0);
        for threads in [1, 4] {
            let result = run_campaign_with_threads(&campaign, threads).unwrap();
            assert!(result.outcomes.is_empty());
            assert_eq!(result.n_launched(), 0);
        }
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let campaign = Campaign::new("bad", ScenarioId::Ds1, AttackerSpec::None, 1, 0);
        assert_eq!(
            run_campaign_with_threads(&campaign, 0).unwrap_err(),
            CampaignError::ZeroThreads
        );
    }

    #[test]
    fn zero_batch_is_a_typed_error() {
        let never = |_: usize, _: &Telemetry| -> SimSession { unreachable!("no run starts") };
        let err = run_sweep(4, 1, 0, &|_| Telemetry::disabled(), never, |o| o).unwrap_err();
        assert_eq!(err, CampaignError::ZeroBatch);
        let campaign = Campaign::new("bad", ScenarioId::Ds1, AttackerSpec::None, 1, 0);
        let zero = DispatchMode::Batched { batch_size: 0 };
        assert_eq!(
            run_campaign_dispatch(&campaign, 1, zero).unwrap_err(),
            CampaignError::ZeroBatch
        );
    }

    #[test]
    fn summaries_count_every_alarm_and_those_inside_the_attack_window() {
        // A Disappear held past the pedestrian streak envelope: the IDS
        // flags it while the attack runs.
        let naive = AttackerSpec::AtDelta {
            vector: Some(robotack::vector::AttackVector::Disappear),
            delta_inject: 24.0,
            k: 62,
        };
        let campaign = Campaign::new("naive", ScenarioId::Ds2, naive, 2, 0);
        let result = run_campaign_with_threads(&campaign, 1).unwrap();
        for (outcome, run) in result.outcomes.iter().zip(result.summary().runs) {
            assert_eq!(run.alarms.total(), outcome.ids_alarms.len() as u64);
            for kind in AlarmKind::ALL {
                assert!(run.alarms_in_attack.get(kind) <= run.alarms.get(kind));
            }
            assert!(outcome.attack.launched_at.is_some());
            assert!(run.alarms_in_attack.get(AlarmKind::Streak) > 0, "{run:?}");
        }
    }

    #[test]
    fn metrics_on_golden_campaign_are_zero() {
        let campaign = Campaign::new("golden", ScenarioId::Ds1, AttackerSpec::None, 3, 0);
        let result = run_campaign_with_threads(&campaign, 2).unwrap();
        assert_eq!(result.n_launched(), 0);
        assert_eq!(result.eb(), (0, 0.0));
        assert_eq!(result.crashes(), (0, 0.0));
    }
}
