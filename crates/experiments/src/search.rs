//! Coverage-guided boundary search over generated scenarios.
//!
//! The paper evaluates RoboTack on five fixed scenarios; this module asks
//! the harder question: *where in scenario space is the attacker most
//! effective?* Starting from the DS-1..5 specs (`av_scenarios::ds`), the
//! driver repeatedly mutates spec parameters ([`mutate()`](av_scenarios::mutate()))
//! and evaluates each candidate as a seeded campaign under one attack
//! vector, steering toward the attack-success / safety-violation boundary
//! with campaign outcomes as feedback.
//!
//! The search is a small MAP-elites-style loop:
//!
//! - **Outcome features.** Every evaluated candidate is projected onto a
//!   coarse grid over (EB rate, crash rate, median planned K). Cells are
//!   the coverage signal: a mutant landing in an empty cell is novel and
//!   becomes a parent even when its score is middling.
//! - **Novelty archive.** One incumbent per cell, displaced only by a
//!   strictly higher score (ties break on the lower content hash, so the
//!   archive is deterministic). Elites — archive entries ranked by score —
//!   parent the next generation.
//! - **Deterministic mutation schedule.** Generation `g` draws its mutants
//!   from `run_rng(base_seed + g, SEARCH_STREAM)`; candidate validity
//!   (spec-level [`av_scenarios::ScenarioSpec::validate`] plus world-level
//!   [`av_scenarios::world_invariants`] on the sampled world) is re-checked
//!   with bounded deterministic retries. The whole schedule is a pure
//!   function of the seed: reruns and different worker counts produce the
//!   identical frontier.
//! - **Packed evaluation.** Each round (the baselines, then each
//!   generation) is proposed in full, then every candidate missing from
//!   the store is evaluated in one packed [`run_sweep`]: all their seeded
//!   runs, cut into blocks of `batch` run indices that `threads` workers
//!   claim, so blocks span candidates. Each run stops once its
//!   ⟨launched, EB, crash, K⟩ verdict is final ([`crate::horizon`]), and
//!   workers fold it down to that [`RunVerdict`] on the spot (full outcomes
//!   with their time series never accumulate); summaries are stored and
//!   admitted in proposal order. Each root's oracle is resolved once per
//!   search, so runs of one root share one copy of its weights. Every run is a pure
//!   function of its session, which is what makes cached and fresh
//!   evaluations, and any ⟨batch, threads⟩, interchangeable.
//! - **Evaluation cache.** Each ⟨spec, vector, run shape, oracle⟩
//!   evaluation summary is content-addressed in the shared
//!   [`ArtifactStore`](av_suite::ArtifactStore) under [`NS_SEARCH_EVAL`], keyed by the spec's
//!   content hash. A rerun over a warm store replays the whole search from
//!   artifact hits without simulating anything.
//!
//! The five fixed scenarios are evaluated first (same vector, same run
//! shape) as the baseline frontier; the report states whether the search
//! discovered a generated scenario that beats every fixed scenario's EB
//! rate or crash rate.

use crate::campaign::{run_sweep, Campaign, DispatchMode};
use crate::codec::{Kind, Reader, Stored, Writer};
use crate::horizon::{Horizon, RunVerdict};
use crate::oracle_cache::OracleCache;
use crate::runner::{AttackerSpec, OracleSpec};
use crate::stats;
use crate::suite::{Args, ARMS};
use crate::train_sh::SweepConfig;
use av_scenarios::{ds, mutate, world_invariants, MutateConfig, ScenarioSpec};
use av_simkit::rng::run_rng;
use av_simkit::scenario::ScenarioId;
use av_suite::fnv::Fnv1a;
use av_telemetry::Telemetry;
use robotack::vector::AttackVector;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

pub use crate::codec::SEARCH_CODE_VERSION;

/// Artifact-store namespace of cached candidate-evaluation summaries.
pub const NS_SEARCH_EVAL: &str = Kind::SearchEval.namespace();

/// RNG stream of the mutation schedule (disjoint from the scenario stream
/// `0xD5` and the attacker stream `0xA77ACC`).
const SEARCH_STREAM: u64 = 0x5EA6C4;

/// Bounded deterministic retries when a mutant fails validity.
const MUTATION_RETRIES: usize = 4;

/// Tuning of one boundary-search run.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The attack vector every candidate campaign runs under.
    pub vector: AttackVector,
    /// Mutation generations after the baseline round.
    pub generations: usize,
    /// Candidates proposed per generation.
    pub population: usize,
    /// Seeded runs per candidate campaign.
    pub runs: u64,
    /// Base seed: campaign seeds and the mutation schedule derive from it.
    pub base_seed: u64,
    /// Run indices per claimed block of each round's evaluation sweep
    /// (the [`DispatchMode::Batched`] batch size; at least 1).
    pub batch: usize,
    /// Sweep worker threads (at least 1; outcomes are thread-count
    /// invariant).
    pub threads: usize,
    /// Elite parents drawn from the archive per generation.
    pub elites: usize,
    /// The mutation step operator's tuning.
    pub mutate: MutateConfig,
}

impl SearchConfig {
    /// The standard search the suite's `search:*` jobs run for `vector`
    /// under the shared experiment options: a CI-sized smoke under
    /// `--quick`, a deeper sweep otherwise. The block size follows
    /// `--batch` when given.
    pub fn for_args(vector: AttackVector, args: &Args) -> SearchConfig {
        let batch = match args.dispatch {
            DispatchMode::Batched { batch_size } => batch_size,
            _ => 8,
        };
        let (generations, population, runs) = if args.quick {
            (2, 8, args.runs.clamp(2, 8))
        } else {
            (4, 10, args.runs.clamp(8, 40))
        };
        SearchConfig {
            vector,
            generations,
            population,
            runs,
            base_seed: args.seed,
            batch,
            threads: crate::campaign::default_threads(),
            elites: 4,
            mutate: MutateConfig::default(),
        }
    }
}

/// One evaluated candidate: outcome statistics over its seeded campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Eval {
    /// Display label: `DS-n` for fixed scenarios, `GEN-⟨hash⟩` otherwise.
    pub label: String,
    /// The fixed scenario this candidate descends from.
    pub root: ScenarioId,
    /// Runs in which the attack launched (valid runs).
    pub launched: u64,
    /// Campaign size (seeded runs).
    pub runs: u64,
    /// Emergency-braking count over valid runs.
    pub eb: u64,
    /// Accident (crash) count over valid runs.
    pub crashes: u64,
    /// Median planned attack length K over valid runs.
    pub median_k: f64,
}

impl Eval {
    /// EB rate (%) over valid runs — the attack-success measure.
    pub fn eb_pct(&self) -> f64 {
        percentage(self.eb, self.launched)
    }

    /// Crash rate (%) over valid runs — the safety-violation measure.
    pub fn crash_pct(&self) -> f64 {
        percentage(self.crashes, self.launched)
    }

    /// Scalar search objective: attack success plus safety violation.
    pub fn score(&self) -> f64 {
        self.eb_pct() + self.crash_pct()
    }

    /// The outcome-feature cell this candidate occupies: deciles of EB and
    /// crash rate, plus a coarse median-K bucket. A candidate with no
    /// launched run has no median K and goes to K bucket 0.
    pub fn cell(&self) -> (u8, u8, u8) {
        let decile = |pct: f64| (pct / 10.0).floor().clamp(0.0, 10.0) as u8;
        let k_bucket = if self.launched == 0 {
            0
        } else {
            (self.median_k / 10.0).floor().clamp(0.0, 12.0) as u8
        };
        (decile(self.eb_pct()), decile(self.crash_pct()), k_bucket)
    }

    /// The median-K table cell: `n/a` when no run launched (the median of
    /// no runs is undefined).
    fn median_k_text(&self) -> String {
        if self.launched == 0 {
            "n/a".to_string()
        } else {
            format!("{:.0}", self.median_k)
        }
    }
}

fn percentage(n: u64, of: u64) -> f64 {
    if of == 0 {
        0.0
    } else {
        100.0 * n as f64 / of as f64
    }
}

/// One archive incumbent: the evaluation plus the spec that produced it.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The spec (fixed scenarios carry their DS spec re-expression).
    pub spec: Arc<ScenarioSpec>,
    /// Its content hash (the archive's deterministic tie-breaker).
    pub hash: u64,
    /// The campaign evaluation.
    pub eval: Eval,
}

/// The deterministic outcome of one boundary search.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The configuration that produced this report.
    pub config: SearchConfig,
    /// The five fixed scenarios evaluated under the same vector/run shape.
    pub baselines: Vec<Eval>,
    /// The final novelty archive, ranked by (score desc, hash asc).
    pub frontier: Vec<Candidate>,
    /// Distinct outcome-feature cells covered (archive size).
    pub cells: usize,
    /// Candidates evaluated by campaign (baselines excluded).
    pub evaluated: usize,
    /// Mutants dropped after exhausting validity retries.
    pub skipped_invalid: usize,
    /// Mutants dropped as duplicates of already-seen content hashes.
    pub deduped: usize,
    /// Cached-evaluation hits / misses against the artifact store.
    pub eval_hits: u64,
    /// Cached-evaluation misses (every candidate that actually simulated).
    pub eval_misses: u64,
}

impl SearchReport {
    /// The best generated candidate (frontier is ranked, so index 0), if
    /// any mutant survived evaluation.
    pub fn best(&self) -> Option<&Candidate> {
        self.frontier.first()
    }

    /// Whether some generated scenario strictly exceeds **every** fixed
    /// scenario on EB rate, or strictly exceeds every fixed scenario on
    /// crash rate — the boundary-crossing acceptance test.
    pub fn beats_baselines(&self) -> bool {
        let max_eb = self
            .baselines
            .iter()
            .map(Eval::eb_pct)
            .fold(f64::MIN, f64::max);
        let max_crash = self
            .baselines
            .iter()
            .map(Eval::crash_pct)
            .fold(f64::MIN, f64::max);
        self.frontier
            .iter()
            .any(|c| c.eval.eb_pct() > max_eb || c.eval.crash_pct() > max_crash)
    }

    /// Renders the frontier report (deterministic bytes; CI diffs reruns).
    pub fn render(&self) -> String {
        let cfg = &self.config;
        let mut out = String::new();
        writeln!(
            out,
            "## Boundary search: {} ({} generations x {} candidates, {} runs/candidate, \
             batch {}, base seed {})\n",
            cfg.vector.name(),
            cfg.generations,
            cfg.population,
            cfg.runs,
            cfg.batch,
            cfg.base_seed
        )
        .unwrap();

        writeln!(out, "Fixed-scenario baselines (same vector, same seeds):\n").unwrap();
        writeln!(
            out,
            "| scenario | launched | EB % | crash % | median K | score |"
        )
        .unwrap();
        writeln!(out, "|---|---:|---:|---:|---:|---:|").unwrap();
        for b in &self.baselines {
            writeln!(
                out,
                "| {} | {}/{} | {:.1} | {:.1} | {} | {:.1} |",
                b.label,
                b.launched,
                b.runs,
                b.eb_pct(),
                b.crash_pct(),
                b.median_k_text(),
                b.score()
            )
            .unwrap();
        }

        writeln!(
            out,
            "\nFrontier (novelty archive over the EB x crash x K grid, best first):\n"
        )
        .unwrap();
        writeln!(
            out,
            "| candidate | root | launched | EB % | crash % | median K | score | knobs |"
        )
        .unwrap();
        writeln!(out, "|---|---|---:|---:|---:|---:|---:|---|").unwrap();
        for c in self.frontier.iter().take(8) {
            writeln!(
                out,
                "| {} | {} | {}/{} | {:.1} | {:.1} | {} | {:.1} | {} |",
                c.eval.label,
                c.eval.root.name(),
                c.eval.launched,
                c.eval.runs,
                c.eval.eb_pct(),
                c.eval.crash_pct(),
                c.eval.median_k_text(),
                c.eval.score(),
                knob_summary(&c.spec)
            )
            .unwrap();
        }

        // Deliberately no cache hit/miss counts here: those vary between
        // cold and warm stores, and this report must be byte-identical
        // across reruns (CI diffs it). Counters live on the struct.
        writeln!(
            out,
            "\ncoverage: {} cells | evaluated: {} candidates | skipped: {} invalid, \
             {} duplicate",
            self.cells, self.evaluated, self.skipped_invalid, self.deduped
        )
        .unwrap();
        writeln!(
            out,
            "beats every fixed baseline: {}",
            if self.beats_baselines() { "yes" } else { "no" }
        )
        .unwrap();
        out
    }
}

/// Compact per-spec knob line for the frontier table: ego cruise plus each
/// actor's nominal position/speed knobs.
fn knob_summary(spec: &ScenarioSpec) -> String {
    use av_scenarios::ActorTemplate as T;
    let mut parts = vec![format!("cruise={:.1}", spec.cruise_kph)];
    for t in &spec.actors {
        match t {
            T::Lead { x0, speed_kph, .. } => parts.push(format!(
                "lead(x={:.1},v={:.1})",
                x0.nominal(),
                speed_kph.nominal()
            )),
            T::Crossing { x0, walk, .. } => parts.push(format!(
                "cross(x={:.1},w={:.2})",
                x0.nominal(),
                walk.nominal()
            )),
            T::Parked { x0, .. } => parts.push(format!("parked(x={:.1})", x0.nominal())),
            T::Approaching { x0, walk, .. } => parts.push(format!(
                "approach(x={:.1},w={:.2})",
                x0.nominal(),
                walk.nominal()
            )),
            T::OncomingStream { x, speed_kph, .. } => parts.push(format!(
                "oncoming(x={:.1},v={:.1})",
                x.nominal(),
                speed_kph.nominal()
            )),
            T::Trailing { x0, speed_kph, .. } => parts.push(format!(
                "trail(x={:.1},v={:.1})",
                x0.nominal(),
                speed_kph.nominal()
            )),
            T::CutIn {
                x0,
                speed_kph,
                cut_x,
                ..
            } => parts.push(format!(
                "cutin(x={:.1},v={:.1},cut={:.1})",
                x0.nominal(),
                speed_kph.nominal(),
                cut_x.nominal()
            )),
        }
    }
    parts.join(" ")
}

/// The attacker oracle policy: Table II matrix arms use their trained NN
/// oracle (loaded or trained through `cache`, exactly like the report
/// jobs); off-matrix ⟨root, vector⟩ pairs use the closed-form kinematic
/// oracle rather than training new arms per candidate. The returned digest
/// keys the evaluation cache, so an oracle change can never resurrect a
/// stale evaluation.
fn oracle_policy(
    root: ScenarioId,
    vector: AttackVector,
    sweep: &SweepConfig,
    cache: &OracleCache,
) -> (OracleSpec, u64) {
    let in_matrix = ARMS.iter().any(|&(s, v, _)| s == root && v == vector);
    if in_matrix {
        if let Some(trained) = cache.oracle_for(root, vector, sweep) {
            let digest = cache.oracle_digest_of(&trained);
            return (OracleSpec::Nn(trained.oracle), digest);
        }
    }
    (OracleSpec::Kinematic, 0)
}

/// The content address of one candidate evaluation: everything that
/// determines the summary bit-for-bit.
fn eval_key(spec_hash: u64, root: ScenarioId, cfg: &SearchConfig, oracle_key: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&Kind::SearchEval.magic());
    h.write_u64(u64::from(Kind::SearchEval.code_version()));
    h.write_u64(spec_hash);
    h.write(root.name().as_bytes());
    h.write(cfg.vector.name().as_bytes());
    h.write_u64(cfg.runs);
    h.write_u64(cfg.base_seed);
    h.write_u64(oracle_key);
    h.finish()
}

impl Stored for Eval {
    const KIND: Kind = Kind::SearchEval;

    /// The launched, run, EB and crash counts, then the median K. The
    /// label and root are not stored: the reader leaves the label empty
    /// and the root at DS-1, and its caller attaches both.
    fn write(&self, w: &mut Writer) {
        for count in [self.launched, self.runs, self.eb, self.crashes] {
            w.u64(count);
        }
        w.f64(self.median_k);
    }

    /// `None` on any structural mismatch (hostile bytes degrade to a cache
    /// miss, never a panic).
    fn read(r: &mut Reader<'_>) -> Option<Eval> {
        let (launched, runs) = (r.u64()?, r.u64()?);
        let (eb, crashes, median_k) = (r.u64()?, r.u64()?, r.f64()?);
        // Only a candidate with no launched run may carry a non-finite
        // median K (the median of nothing); anywhere else it is corruption.
        if launched > runs
            || eb > launched
            || crashes > launched
            || (launched > 0 && !median_k.is_finite())
        {
            return None;
        }
        Some(Eval {
            label: String::new(),
            root: ScenarioId::Ds1,
            launched,
            runs,
            eb,
            crashes,
            median_k,
        })
    }
}

/// A candidate proposed for evaluation in the current round.
struct Proposal {
    label: String,
    root: ScenarioId,
    /// The generated spec; `None` runs `root`'s fixed recipe.
    spec: Option<Arc<ScenarioSpec>>,
}

/// The campaign statistics of one candidate's seed-ordered runs (folded
/// inside the sweep workers, so full outcomes never accumulate), counted
/// over valid (attack-launched) runs exactly like [`crate::campaign::CampaignSummary`].
fn summarize(label: &str, root: ScenarioId, runs: &[RunVerdict]) -> Eval {
    let launched: Vec<&RunVerdict> = runs.iter().filter(|r| r.launched).collect();
    let ks: Vec<f64> = launched.iter().map(|r| f64::from(r.k)).collect();
    Eval {
        label: label.to_string(),
        root,
        launched: launched.len() as u64,
        runs: runs.len() as u64,
        eb: launched.iter().filter(|r| r.eb).count() as u64,
        crashes: launched.iter().filter(|r| r.accident).count() as u64,
        median_k: stats::median(&ks),
    }
}

/// The search driver's store-backed evaluator with its own hit/miss
/// counters (surfaced in the report and the suite job scorecard).
struct Evaluator<'a> {
    cfg: &'a SearchConfig,
    cache: &'a OracleCache,
    /// Each root's oracle policy and its cache-key digest, resolved once
    /// per search: every run of a root shares one oracle `Arc`.
    oracles: Vec<(ScenarioId, OracleSpec, u64)>,
    hits: u64,
    misses: u64,
}

impl Evaluator<'_> {
    fn oracle(&self, root: ScenarioId) -> (&OracleSpec, u64) {
        let (_, oracle, key) = self
            .oracles
            .iter()
            .find(|(r, _, _)| *r == root)
            .expect("every candidate descends from a search root");
        (oracle, *key)
    }

    /// Evaluates one round and returns its evaluations in proposal order:
    /// cached summaries where the store already holds them, the rest from
    /// one sweep over every missed candidate's runs (then stored
    /// in proposal order).
    fn evaluate(&mut self, round: &[Proposal]) -> Vec<Eval> {
        let cfg = self.cfg;
        let keys: Vec<u64> = round
            .iter()
            .map(|p| {
                let spec_hash = p.spec.as_ref().map_or(0, |s| s.content_hash());
                eval_key(spec_hash, p.root, cfg, self.oracle(p.root).1)
            })
            .collect();
        // A stored summary of another run count is corruption: a miss.
        let runs_match = |e: &Eval| e.runs == cfg.runs;
        let mut evals: Vec<Option<Eval>> = round
            .iter()
            .zip(&keys)
            .map(|(p, &key)| {
                let stored = self.cache.get_where(key, runs_match);
                stored.filter(runs_match).map(|e| Eval {
                    label: p.label.clone(),
                    root: p.root,
                    ..e
                })
            })
            .collect();
        let missed: Vec<usize> = (0..round.len()).filter(|&i| evals[i].is_none()).collect();
        self.hits += (round.len() - missed.len()) as u64;
        self.misses += missed.len() as u64;

        let campaigns: Vec<Campaign> = missed
            .iter()
            .map(|&i| {
                let p = &round[i];
                let attacker = AttackerSpec::RoboTack {
                    vector: Some(cfg.vector),
                    oracle: self.oracle(p.root).0.clone(),
                };
                match &p.spec {
                    Some(spec) => Campaign::generated(
                        p.label.as_str(),
                        spec.clone(),
                        attacker,
                        cfg.runs,
                        cfg.base_seed,
                    ),
                    None => {
                        Campaign::new(p.label.as_str(), p.root, attacker, cfg.runs, cfg.base_seed)
                    }
                }
            })
            .collect();
        let runs = usize::try_from(cfg.runs).expect("run count fits usize");
        let verdicts = run_sweep(
            campaigns.len() * runs,
            cfg.threads,
            cfg.batch,
            &|_| Telemetry::disabled(),
            |i, tele| {
                campaigns[i / runs]
                    .session((i % runs) as u64, tele)
                    .with_horizon(Horizon::Verdict)
            },
            |outcome| RunVerdict::of(&outcome),
        )
        .expect("search evaluation needs threads >= 1 and batch >= 1");

        for (n, &i) in missed.iter().enumerate() {
            let p = &round[i];
            let eval = summarize(&p.label, p.root, &verdicts[n * runs..(n + 1) * runs]);
            self.cache.put(keys[i], &eval);
            evals[i] = Some(eval);
        }
        evals
            .into_iter()
            .map(|e| e.expect("every proposal evaluated"))
            .collect()
    }
}

/// A mutant is admissible when its spec validates and the world it samples
/// at the campaign's first seed satisfies the world-level invariants.
fn is_valid(spec: &ScenarioSpec, base_seed: u64) -> bool {
    spec.validate().is_ok() && world_invariants(&spec.sample(base_seed)).is_ok()
}

/// Runs one coverage-guided boundary search. Deterministic: the report is
/// a pure function of `cfg` and the sweep/oracle configuration — reruns,
/// warm stores, and any worker count produce identical bytes.
pub fn run_search(cfg: &SearchConfig, sweep: &SweepConfig, cache: &OracleCache) -> SearchReport {
    let roots: [(ScenarioId, ScenarioSpec); 5] = [
        (ScenarioId::Ds1, ds::ds1()),
        (ScenarioId::Ds2, ds::ds2()),
        (ScenarioId::Ds3, ds::ds3()),
        (ScenarioId::Ds4, ds::ds4()),
        (ScenarioId::Ds5, ds::ds5()),
    ];

    // The archive: one incumbent per outcome-feature cell, displaced only
    // by a strictly better score (ties keep the lower content hash).
    let mut archive: BTreeMap<(u8, u8, u8), Candidate> = BTreeMap::new();
    let admit = |archive: &mut BTreeMap<(u8, u8, u8), Candidate>, candidate: Candidate| {
        let cell = candidate.eval.cell();
        let replaces = match archive.get(&cell) {
            None => true,
            Some(held) => {
                candidate.eval.score() > held.eval.score()
                    || (candidate.eval.score() == held.eval.score() && candidate.hash < held.hash)
            }
        };
        if replaces {
            archive.insert(cell, candidate);
        }
    };

    let mut baselines = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut evaluated = 0usize;
    let mut skipped_invalid = 0usize;
    let mut deduped = 0usize;
    let mut evaluator = Evaluator {
        cfg,
        cache,
        oracles: roots
            .iter()
            .map(|(root, _)| {
                let (oracle, key) = oracle_policy(*root, cfg.vector, sweep, cache);
                (*root, oracle, key)
            })
            .collect(),
        hits: 0,
        misses: 0,
    };

    // Baseline round: the fixed scenarios under the same vector and run
    // shape, each under its root's oracle policy. Their DS spec
    // re-expressions seed the archive (sampled worlds are bit-identical to
    // the fixed recipes, so the evaluations transfer).
    let round: Vec<Proposal> = roots
        .iter()
        .map(|(root, _)| Proposal {
            label: root.name().to_string(),
            root: *root,
            spec: None,
        })
        .collect();
    for ((_, spec), eval) in roots.iter().zip(evaluator.evaluate(&round)) {
        let spec = Arc::new(spec.clone());
        seen.insert(spec.content_hash());
        admit(
            &mut archive,
            Candidate {
                hash: spec.content_hash(),
                spec,
                eval: eval.clone(),
            },
        );
        baselines.push(eval);
    }

    // Mutation generations: elites parent a fresh population; every mutant
    // is validity-checked and deduplicated, then the surviving population
    // is evaluated as one round under each root's oracle policy and
    // admitted in proposal order.
    for generation in 0..cfg.generations {
        let elites: Vec<Candidate> = {
            let mut ranked: Vec<&Candidate> = archive.values().collect();
            ranked.sort_by(|a, b| {
                b.eval
                    .score()
                    .partial_cmp(&a.eval.score())
                    .expect("scores are finite")
                    .then(a.hash.cmp(&b.hash))
            });
            ranked
                .into_iter()
                .take(cfg.elites.max(1))
                .cloned()
                .collect()
        };
        let mut rng = run_rng(cfg.base_seed.wrapping_add(generation as u64), SEARCH_STREAM);

        // Propose: admission never feeds back into this generation's
        // draws, so the whole population is fixed before anything runs.
        let mut round = Vec::new();
        let mut specs = Vec::new();
        for slot in 0..cfg.population {
            let parent = &elites[slot % elites.len()];
            let mut mutant = None;
            for _ in 0..=MUTATION_RETRIES {
                let proposal = mutate(&parent.spec, &mut rng, &cfg.mutate);
                if is_valid(&proposal, cfg.base_seed) {
                    mutant = Some(proposal);
                    break;
                }
            }
            let Some(mutant) = mutant else {
                skipped_invalid += 1;
                continue;
            };
            let hash = mutant.content_hash();
            if !seen.insert(hash) {
                deduped += 1;
                continue;
            }

            let spec = Arc::new(mutant);
            round.push(Proposal {
                label: spec.scenario_id().label(),
                root: parent.eval.root,
                spec: Some(spec.clone()),
            });
            specs.push((spec, hash));
        }

        evaluated += round.len();
        for ((spec, hash), eval) in specs.into_iter().zip(evaluator.evaluate(&round)) {
            admit(&mut archive, Candidate { spec, hash, eval });
        }
    }

    // The frontier: generated candidates only (baseline incumbents are
    // reported separately), ranked by (score desc, hash asc).
    let mut frontier: Vec<Candidate> = archive
        .values()
        .filter(|c| c.eval.root.name() != c.eval.label)
        .cloned()
        .collect();
    frontier.sort_by(|a, b| {
        b.eval
            .score()
            .partial_cmp(&a.eval.score())
            .expect("scores are finite")
            .then(a.hash.cmp(&b.hash))
    });

    SearchReport {
        config: cfg.clone(),
        baselines,
        frontier,
        cells: archive.len(),
        evaluated,
        skipped_invalid,
        deduped,
        eval_hits: evaluator.hits,
        eval_misses: evaluator.misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};

    fn tiny_config(vector: AttackVector) -> SearchConfig {
        SearchConfig {
            vector,
            generations: 1,
            population: 3,
            runs: 2,
            base_seed: 7,
            batch: 2,
            threads: 2,
            elites: 2,
            mutate: MutateConfig::default(),
        }
    }

    #[test]
    fn eval_codec_round_trips_and_rejects_corruption() {
        let eval = Eval {
            label: "GEN-0000000000000001".into(),
            root: ScenarioId::Ds2,
            launched: 5,
            runs: 6,
            eb: 4,
            crashes: 3,
            median_k: 32.0,
        };
        let bytes = encode(99, &eval);
        let back: Eval = decode(99, &bytes).expect("round trip");
        assert_eq!(
            back,
            Eval {
                label: String::new(),
                root: ScenarioId::Ds1,
                ..eval.clone()
            },
            "label and root are the caller's to attach"
        );
        assert!(decode::<Eval>(98, &bytes).is_none(), "key echo");
        assert!(decode::<Eval>(99, &bytes[..40]).is_none(), "truncated");
        let mut hostile = bytes.clone();
        hostile[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(
            decode::<Eval>(99, &hostile).is_none(),
            "launched > runs rejected"
        );
        for bad_k in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut hostile = bytes.clone();
            hostile[48..56].copy_from_slice(&bad_k.to_bits().to_le_bytes());
            assert!(
                decode::<Eval>(99, &hostile).is_none(),
                "non-finite median K with launched runs rejected: {bad_k}"
            );
        }
        // The median K of no launched run is NaN: that one is legitimate.
        let none_launched = Eval {
            launched: 0,
            eb: 0,
            crashes: 0,
            median_k: f64::NAN,
            ..eval
        };
        let back: Eval =
            decode(99, &encode(99, &none_launched)).expect("no-launch summary decodes");
        assert!(back.launched == 0 && back.median_k.is_nan());
    }

    /// The `RTSE` bytes of a fixed evaluation and of a no-launch one (its
    /// median K is NaN): a codec change that moves them strands every
    /// stored search evaluation.
    #[test]
    fn eval_bytes_are_pinned() {
        let launched = Eval {
            label: "GEN-0000000000000001".into(),
            root: ScenarioId::Ds2,
            launched: 5,
            runs: 6,
            eb: 4,
            crashes: 3,
            median_k: 32.5,
        };
        let none_launched = Eval {
            launched: 0,
            eb: 0,
            crashes: 0,
            median_k: f64::NAN,
            ..launched.clone()
        };
        let digests = [&launched, &none_launched]
            .map(|eval| av_suite::fnv::fnv1a(&encode(0x0123_4567_89ab_cdef, eval)));
        assert_eq!(
            digests, PINNED_EVALS,
            "eval bytes changed: every stored search evaluation would miss"
        );
    }

    proptest::proptest! {
        #[test]
        fn fuzz_eval_decoder(
            launched in proptest::prelude::any::<bool>(),
            edits in crate::codec::fuzz::edits(),
        ) {
            let eval = Eval {
                label: "DS-2".into(),
                root: ScenarioId::Ds2,
                launched: if launched { 5 } else { 0 },
                runs: 6,
                eb: if launched { 4 } else { 0 },
                crashes: if launched { 3 } else { 0 },
                median_k: if launched { 32.5 } else { f64::NAN },
            };
            let bytes = crate::codec::fuzz::mutate(&encode(9, &eval), &edits);
            // What the evaluator accepts: a 6-run summary.
            crate::codec::fuzz::check(
                &bytes,
                |b| decode::<Eval>(9, b).filter(|e| e.runs == 6),
                |e| encode(9, e),
            )?;
        }
    }

    /// FNV-1a of the launched and the no-launch evaluation's bytes.
    const PINNED_EVALS: [u64; 2] = [0x9577_bc5c_6918_4d3a, 0xbca0_3dae_c686_932d];

    /// A candidate with no launched run has no median K: it renders `n/a`
    /// and sits in K bucket 0, explicitly rather than through a NaN cast.
    #[test]
    fn no_launch_candidate_has_no_median_k() {
        let eval = Eval {
            label: "DS-1".into(),
            root: ScenarioId::Ds1,
            launched: 0,
            runs: 40,
            eb: 0,
            crashes: 0,
            median_k: stats::median(&[]),
        };
        assert!(eval.median_k.is_nan(), "median of no runs is undefined");
        assert_eq!(eval.cell(), (0, 0, 0));
        assert_eq!(eval.median_k_text(), "n/a");

        let report = SearchReport {
            config: tiny_config(AttackVector::MoveOut),
            baselines: vec![eval],
            frontier: Vec::new(),
            cells: 1,
            evaluated: 0,
            skipped_invalid: 0,
            deduped: 0,
            eval_hits: 0,
            eval_misses: 0,
        };
        let rendered = report.render();
        assert!(rendered.contains("| DS-1 | 0/40 | 0.0 | 0.0 | n/a | 0.0 |"));
        assert!(!rendered.contains("NaN"), "{rendered}");
    }

    #[test]
    fn eval_key_separates_every_input() {
        let cfg = tiny_config(AttackVector::MoveOut);
        let k0 = eval_key(1, ScenarioId::Ds1, &cfg, 0);
        assert_ne!(k0, eval_key(2, ScenarioId::Ds1, &cfg, 0), "spec hash");
        assert_ne!(k0, eval_key(1, ScenarioId::Ds2, &cfg, 0), "root");
        assert_ne!(k0, eval_key(1, ScenarioId::Ds1, &cfg, 5), "oracle");
        let mut other = cfg.clone();
        other.runs += 1;
        assert_ne!(k0, eval_key(1, ScenarioId::Ds1, &other, 0), "runs");
        let mut other = cfg;
        other.base_seed += 1;
        assert_ne!(k0, eval_key(1, ScenarioId::Ds1, &other, 0), "seed");
    }

    #[test]
    fn cell_projection_is_sane() {
        let eval = Eval {
            label: "x".into(),
            root: ScenarioId::Ds1,
            launched: 10,
            runs: 10,
            eb: 10,
            crashes: 0,
            median_k: 47.0,
        };
        assert_eq!(eval.cell(), (10, 0, 4));
        assert_eq!((eval.eb_pct(), eval.crash_pct()), (100.0, 0.0));
    }

    /// Every file of a store directory, name and bytes, in name order.
    fn store_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("store dir")
            .map(|entry| {
                let path = entry.expect("dir entry").path();
                let name = path
                    .file_name()
                    .expect("file name")
                    .to_string_lossy()
                    .into();
                (name, std::fs::read(&path).expect("store file"))
            })
            .collect();
        files.sort();
        files
    }

    /// The full driver is deterministic end to end: fresh runs over
    /// independent cold stores at any worker count produce byte-identical
    /// reports and store files, and the warm rerun replays purely from
    /// evaluation-cache hits.
    #[test]
    fn search_is_deterministic_and_replays_from_warm_store() {
        let dir = std::env::temp_dir().join(format!("search-det-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = tiny_config(AttackVector::MoveOut);
        let sweep = SweepConfig::tiny();

        let cache_a = OracleCache::at(dir.join("a"));
        let cold = run_search(&cfg, &sweep, &cache_a);
        for threads in [1, 3] {
            let store = dir.join(format!("threads-{threads}"));
            let other = SearchConfig {
                threads,
                ..cfg.clone()
            };
            let other_cold = run_search(&other, &sweep, &OracleCache::at(&store));
            assert_eq!(
                cold.render(),
                other_cold.render(),
                "{threads} workers: cold runs must render identical frontiers"
            );
            assert_eq!(
                store_files(&dir.join("a")),
                store_files(&store),
                "{threads} workers: cold stores must hold identical files"
            );
        }
        assert_eq!(cold.eval_hits, 0, "cold run cannot hit");

        let warm = run_search(&cfg, &sweep, &OracleCache::at(dir.join("a")));
        assert_eq!(warm.render(), cold.render(), "warm rerun is byte-identical");
        assert_eq!(warm.eval_misses, 0, "warm rerun simulates nothing");
        assert_eq!(
            warm.eval_hits,
            cold.eval_misses + cold.eval_hits,
            "every evaluation replays from the store"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An unreadable `search-eval` entry (a directory where the blob
    /// should be) is reported as a store read error and recomputed; the
    /// report is unchanged.
    #[test]
    fn unreadable_eval_entry_recomputes_and_reports() {
        let dir = std::env::temp_dir().join(format!("search-ioerr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = tiny_config(AttackVector::Disappear);
        let sweep = SweepConfig::tiny();
        let cold = run_search(&cfg, &sweep, &OracleCache::at(&dir));

        let blob = store_files(&dir)
            .into_iter()
            .map(|(name, _)| dir.join(name))
            .find(|p| p.extension().is_some_and(|e| e == NS_SEARCH_EVAL))
            .expect("cold run stored evaluations");
        std::fs::remove_file(&blob).expect("remove blob");
        std::fs::create_dir(&blob).expect("shadow dir");

        let cache = OracleCache::at(&dir);
        let rerun = run_search(&cfg, &sweep, &cache);
        assert_eq!(cache.read_errors(), 1, "the failed read is reported");
        assert_eq!(
            rerun.eval_misses, 1,
            "exactly the unreadable entry recomputes"
        );
        assert_eq!(rerun.eval_hits, cold.eval_misses - 1);
        assert_eq!(rerun.render(), cold.render(), "recompute is bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stored summary of another run count under a candidate's key (a
    /// corrupted count that still decodes) is a miss, counted as one in
    /// the view too; it is recomputed and stored over, and the report is
    /// unchanged.
    #[test]
    fn a_summary_of_another_run_count_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("search-runs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = tiny_config(AttackVector::MoveIn);
        let sweep = SweepConfig::tiny();
        let cold = run_search(&cfg, &sweep, &OracleCache::at(&dir));

        let (name, bytes) = store_files(&dir)
            .into_iter()
            .find(|(name, _)| name.ends_with(NS_SEARCH_EVAL))
            .expect("cold run stored evaluations");
        let (hex, _) = name.split_once('.').expect("key.namespace");
        let key = u64::from_str_radix(hex, 16).expect("hex key");
        let stored: Eval = decode(key, &bytes).expect("stored summary");
        let longer = Eval {
            runs: stored.runs + 1,
            ..stored
        };
        std::fs::write(dir.join(&name), encode(key, &longer)).expect("rewrite entry");

        let cache = OracleCache::at(&dir);
        let rerun = run_search(&cfg, &sweep, &cache);
        assert_eq!(
            (rerun.eval_hits, rerun.eval_misses),
            (cold.eval_misses - 1, 1)
        );
        assert_eq!(
            cache.lookups(Kind::SearchEval),
            (rerun.eval_hits, rerun.eval_misses)
        );
        assert_eq!(rerun.render(), cold.render(), "recompute is bit-identical");
        assert_eq!(std::fs::read(dir.join(&name)).expect("entry"), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
