//! The shared set-up and the DAG and search workloads, driven only through
//! the layers' public entry points: `jobs::paper_dag` +
//! `av_suite::execute` and `search::run_search`.

use crate::measure::Ledger;
use crate::trace::{SpanId, Trace};
use av_experiments::campaign::DispatchMode;
use av_experiments::jobs::paper_dag;
use av_experiments::search::{run_search, SearchConfig, SearchReport};
use av_experiments::suite::Args;
use av_experiments::OracleCache;
use av_suite::{execute, ArtifactStore, Dag, ExecEvent, ExecOptions, Job, RunReport};
use robotack::vector::AttackVector;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Executor workers per DAG run and per daemon request (the host has two
/// cores; campaigns inside a job use the same count).
pub const WORKERS: usize = 2;
/// Times the set-up runs per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Lockstep batch size of the warm workload.
const WARM_BATCH: usize = 32;

/// Nominal seconds of one measured rep on a 2-core host, used only to
/// turn `--seconds` into a fixed amount of work: the same `--seconds`
/// always runs the same reps and requests, so percentiles stay comparable
/// between commits however fast each one is.
const COLD_REP_S: f64 = 11.8;
const WARM_REP_S: f64 = 2.8;
const SEARCH_REP_S: f64 = 8.0;

/// Campaign runs per search candidate: the search's minimum, so every
/// candidate is one narrow batch-8 campaign.
const SEARCH_RUNS: u64 = 8;
/// Sub-seeds of the workload seed searched per rep (about 1 s each).
const SEARCH_SEEDS: usize = 8;

/// Reps (or daemon rounds) that `seconds` buys at `nominal_s` each.
pub fn reps_for(seconds: u64, nominal_s: f64) -> usize {
    ((seconds as f64 / nominal_s).round() as usize).max(1)
}

/// The prepared store every workload starts from, and what it cost.
#[derive(Debug)]
pub struct Prepared {
    /// Directory of the prepared store (datasets + oracles).
    pub store: PathBuf,
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// ⟨artifact, digest⟩ of the 12 preparation jobs, sorted.
    pub digests: Vec<(String, u64)>,
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each measured rep.
    pub wall_s: Vec<f64>,
    /// Delivery latency of each output: a report from its rep's start, one
    /// sub-seed's searches from their start, a reply from its request.
    pub latency_ms: Vec<f64>,
    /// Wall time of the traced rep (trace runs only).
    pub traced_wall_s: Option<f64>,
    /// Layer numbers of the traced rep (trace runs only).
    pub layers: Layers,
    /// The store the workload left behind (the store probe copies it).
    pub final_store: PathBuf,
    /// Extra human-readable result lines.
    pub notes: Vec<String>,
}

/// Per-layer numbers of one traced rep. A layer the workload does not
/// exercise reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    /// Job busy seconds by kind: dataset, oracle, report, search.
    pub exec_busy_s: [f64; 4],
    /// Busy share of the executor's worker-seconds.
    pub utilization: f64,
    /// Longest dependency chain of job busy times (summed over requests
    /// for the daemon).
    pub critical_path_s: f64,
    /// Artifact hits over artifact lookups.
    pub hit_ratio: f64,
    /// ⟨led, coalesced⟩ in-flight dedup counters of the store.
    pub dedup: (u64, u64),
    /// Search counters.
    pub search: SearchStats,
    /// Daemon timings.
    pub serve: ServeLayers,
}

/// Counters of the boundary searches of one rep, summed over vectors.
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchStats {
    /// Coverage cells in the archives.
    pub cells: u64,
    /// Candidates simulated or replayed.
    pub evaluated: u64,
    /// Evaluations that missed the store and simulated.
    pub eval_misses: u64,
    /// Mutants dropped as duplicates.
    pub deduped: u64,
    /// Mutants dropped as invalid.
    pub skipped_invalid: u64,
}

impl SearchStats {
    fn add(&mut self, other: SearchStats) {
        self.cells += other.cells;
        self.evaluated += other.evaluated;
        self.eval_misses += other.eval_misses;
        self.deduped += other.deduped;
        self.skipped_invalid += other.skipped_invalid;
    }
}

/// Daemon timings of one traced pass, in milliseconds.
#[derive(Debug, Default)]
pub struct ServeLayers {
    /// Send → `Accepted` (accept poll, parse, queue wait, DAG build).
    pub admit_ms: (f64, f64),
    /// `Accepted` → terminal response.
    pub exec_ms: (f64, f64),
    /// Last progress event → terminal response.
    pub reply_ms_p50: f64,
    /// Event-stream bytes per request.
    pub event_bytes: f64,
    /// Interactive request latency ⟨p50, tail⟩.
    pub interactive_ms: (f64, f64),
    /// Batch request latency ⟨p50, tail⟩.
    pub batch_ms: (f64, f64),
}

/// Everything a workload needs from the run.
pub struct Ctx<'a> {
    /// The workload seed.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: u64,
    /// Scratch directory of this run.
    pub work: &'a Path,
    /// The set-up's result.
    pub prepared: &'a Prepared,
    /// Span recorder (enabled in trace runs).
    pub trace: &'a Trace,
    /// Pass/fail ledger.
    pub ledger: &'a mut Ledger,
}

/// Copies every artifact file of `from` into a new directory `to`.
pub fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("list {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if let Some(name) = path.file_name() {
            std::fs::copy(&path, to.join(name))
                .map_err(|e| format!("copy {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// The 12 preparation jobs — every `oracle:*` job with its `dataset:*`
/// dependency — as a subgraph of the paper DAG.
fn prep_dag(args: &Args, store: &Arc<ArtifactStore>) -> Result<Dag, String> {
    let full = paper_dag(args, store).map_err(|e| e.to_string())?;
    let oracles: Vec<String> = full
        .jobs()
        .iter()
        .map(Job::id)
        .filter(|id| id.starts_with("oracle:"))
        .map(str::to_string)
        .collect();
    let dag = full.subgraph(&oracles).map_err(|e| e.to_string())?;
    if dag.len() != 12 {
        return Err(format!(
            "preparation subgraph has {} jobs, not 12",
            dag.len()
        ));
    }
    Ok(dag)
}

/// Child-process half of the set-up: runs the preparation jobs into an
/// empty store at `dir` and prints one `artifact NAME DIGEST` line per
/// produced artifact.
pub fn setup_child(dir: &Path) -> Result<(), String> {
    let args = Args {
        cache_dir: Some(dir.to_path_buf()),
        ..Args::default()
    };
    let store = Arc::new(ArtifactStore::at(dir));
    let dag = prep_dag(&args, &store)?;
    let report = execute(&dag, &ExecOptions::new().workers(WORKERS)).map_err(|e| e.to_string())?;
    for (name, digest) in report.jobs.iter().flat_map(|j| &j.artifacts) {
        println!("artifact {name} {digest:016x}");
    }
    Ok(())
}

/// The shared set-up: the preparation jobs on an empty store,
/// [`SETUP_REPS`] times, each in a fresh child process so the workload's
/// own peak memory is not mixed with the set-up's. Every set-up must
/// produce the same artifacts bit for bit.
pub fn prepare(work: &Path, trace: &Trace, ledger: &mut Ledger) -> Result<Prepared, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate avbench: {e}"))?;
    let mut setup_s = Vec::new();
    let mut first: Option<Vec<(String, u64)>> = None;
    let mut store = PathBuf::new();
    for i in 0..SETUP_REPS {
        store = work.join(format!("setup-{i}"));
        let span = trace.begin("setup", None);
        let started = Instant::now();
        let out = Command::new(&exe)
            .arg("--setup-into")
            .arg(&store)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn set-up: {e}"))?;
        setup_s.push(started.elapsed().as_secs_f64());
        trace.end(span);

        let mut digests: Vec<(String, u64)> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|line| {
                let mut fields = line.strip_prefix("artifact ")?.split(' ');
                let name = fields.next()?.to_string();
                let digest = u64::from_str_radix(fields.next()?, 16).ok()?;
                Some((name, digest))
            })
            .collect();
        digests.sort();
        let ok = out.status.success()
            && digests.len() == 12
            && first.as_ref().is_none_or(|f| *f == digests);
        ledger.check(ok, || {
            format!(
                "set-up {i}: status {}, {} artifacts, same as set-up 0: {}",
                out.status,
                digests.len(),
                first.as_ref().is_none_or(|f| *f == digests)
            )
        });
        if !out.status.success() {
            return Err(format!("set-up {i} failed with {}", out.status));
        }
        first.get_or_insert(digests);
    }
    Ok(Prepared {
        store,
        setup_s,
        digests: first.unwrap_or_default(),
    })
}

/// One executed DAG with per-job start/end instants.
pub struct DagRun {
    started: Instant,
    wall_s: f64,
    pub report: RunReport,
    /// ⟨job, start, end⟩ of every job that executed.
    jobs: Vec<(String, Instant, Instant)>,
}

impl DagRun {
    /// Delivery latency of every report (stdout job) from the rep's start.
    fn delivery_ms(&self) -> Vec<f64> {
        self.report
            .jobs
            .iter()
            .filter(|j| j.emits_stdout)
            .filter_map(|j| self.jobs.iter().find(|(id, _, _)| *id == j.id))
            .map(|(_, _, end)| ms(end.duration_since(self.started)))
            .collect()
    }

    /// Artifact digests of the preparation jobs, sorted.
    fn prep_digests(&self) -> Vec<(String, u64)> {
        let mut digests: Vec<(String, u64)> = self
            .report
            .jobs
            .iter()
            .filter(|j| j.id.starts_with("dataset:") || j.id.starts_with("oracle:"))
            .flat_map(|j| j.artifacts.iter().cloned())
            .collect();
        digests.sort();
        digests
    }

    /// Stdout of every report job with the dispatch field masked.
    fn outputs(&self) -> Vec<(String, String)> {
        self.report
            .jobs
            .iter()
            .filter(|j| j.emits_stdout)
            .map(|j| (j.id.clone(), mask_dispatch(&j.stdout)))
            .collect()
    }

    /// Layer numbers of this run over `dag` and `store`.
    fn layers(&self, dag: &Dag, store: &ArtifactStore) -> Layers {
        let mut busy = [0.0; 4];
        let mut durations = HashMap::new();
        for (id, start, end) in &self.jobs {
            let secs = end.duration_since(*start).as_secs_f64();
            busy[kind_index(id)] += secs;
            durations.insert(id.as_str(), secs);
        }
        let (hits, misses) = self.report.artifact_totals();
        let mut search = SearchStats::default();
        for job in self
            .report
            .jobs
            .iter()
            .filter(|j| j.id.starts_with("search:"))
        {
            if let Some(mut stats) = coverage_stats(&job.stdout) {
                // Oracle lookups hit here (their jobs ran first), so the
                // job's misses are the search's evaluation misses.
                stats.eval_misses = job.artifact_misses;
                search.add(stats);
            }
        }
        Layers {
            exec_busy_s: busy,
            utilization: self.report.utilization(),
            critical_path_s: critical_path_s(dag, &|id| durations.get(id).copied()),
            hit_ratio: ratio(hits, hits + misses),
            dedup: store.dedup_counters(),
            search,
            serve: ServeLayers::default(),
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ratio(n: u64, of: u64) -> f64 {
    if of == 0 {
        0.0
    } else {
        n as f64 / of as f64
    }
}

/// Index into [`Layers::exec_busy_s`] of a job id.
pub fn kind_index(job: &str) -> usize {
    if job.starts_with("dataset:") {
        0
    } else if job.starts_with("oracle:") {
        1
    } else if job.starts_with("search:") {
        3
    } else {
        2
    }
}

/// Longest dependency chain of `dag` weighted by each job's busy seconds
/// (`busy` is `None` for a job that did not run).
pub fn critical_path_s(dag: &Dag, busy: &dyn Fn(&str) -> Option<f64>) -> f64 {
    fn finish(
        dag: &Dag,
        i: usize,
        busy: &dyn Fn(&str) -> Option<f64>,
        memo: &mut [Option<f64>],
    ) -> f64 {
        if let Some(t) = memo[i] {
            return t;
        }
        let job = &dag.jobs()[i];
        let ready = job
            .dep_ids()
            .iter()
            .filter_map(|d| dag.position(d))
            .map(|d| finish(dag, d, busy, memo))
            .fold(0.0, f64::max);
        let t = ready + busy(job.id()).unwrap_or(0.0);
        memo[i] = Some(t);
        t
    }
    let mut memo = vec![None; dag.len()];
    (0..dag.len())
        .map(|i| finish(dag, i, busy, &mut memo))
        .fold(0.0, f64::max)
}

/// Parses the search report's `coverage:` line: cells, evaluated,
/// invalid, duplicate.
fn coverage_stats(report: &str) -> Option<SearchStats> {
    let line = report.lines().find(|l| l.starts_with("coverage: "))?;
    let numbers: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let [cells, evaluated, skipped_invalid, deduped] = numbers.try_into().ok()?;
    Some(SearchStats {
        cells,
        evaluated,
        eval_misses: 0,
        deduped,
        skipped_invalid,
    })
}

/// Masks the `batch N` field of search-report headers: it records the
/// dispatch mode by design, and every other byte must match across modes.
pub fn mask_dispatch(stdout: &str) -> String {
    let mut out = String::with_capacity(stdout.len());
    for line in stdout.split_inclusive('\n') {
        match (
            line.starts_with("## Boundary search:"),
            line.find(", batch "),
        ) {
            (true, Some(at)) => {
                let digits_at = at + ", batch ".len();
                let digits = line[digits_at..]
                    .bytes()
                    .take_while(u8::is_ascii_digit)
                    .count();
                out.push_str(&line[..digits_at]);
                out.push('*');
                out.push_str(&line[digits_at + digits..]);
            }
            _ => out.push_str(line),
        }
    }
    out
}

/// Executes `dag` on [`WORKERS`] workers, timing every job. With a trace,
/// records the rep and its jobs as spans.
pub fn run_dag(dag: &Dag, trace: Option<&Trace>, name: &str) -> Result<DagRun, String> {
    type Log = Arc<Mutex<Vec<(String, Instant, Option<Instant>)>>>;
    let log: Log = Arc::new(Mutex::new(Vec::with_capacity(dag.len())));
    let observer_log = log.clone();
    let opts = ExecOptions::new().workers(WORKERS).observer(move |event| {
        let now = Instant::now();
        let mut log = observer_log.lock().expect("job log lock");
        match event {
            ExecEvent::JobStarted { job } => log.push((job.to_string(), now, None)),
            ExecEvent::JobFinished { report } => {
                if let Some(entry) = log.iter_mut().find(|(id, _, _)| *id == report.id) {
                    entry.2 = Some(now);
                }
            }
        }
    });
    let started = Instant::now();
    let report = execute(dag, &opts).map_err(|e| format!("{name}: {e}"))?;
    let finished = Instant::now();
    drop(opts);
    let jobs: Vec<(String, Instant, Instant)> = Arc::try_unwrap(log)
        .map_err(|_| format!("{name}: job log still shared"))?
        .into_inner()
        .expect("job log lock")
        .into_iter()
        .map(|(id, start, end)| (id, start, end.unwrap_or(finished)))
        .collect();
    if let Some(trace) = trace {
        let rep = trace.record(name, None, None, started, finished);
        for (id, start, end) in &jobs {
            trace.record(&format!("job:{id}"), rep, None, *start, *end);
        }
    }
    Ok(DagRun {
        started,
        wall_s: finished.duration_since(started).as_secs_f64(),
        report,
        jobs,
    })
}

/// Checks every job of `run`: each report's stdout against `reference`
/// (when given), and that all `expected_jobs` ran.
fn check_jobs(
    ledger: &mut Ledger,
    what: &str,
    run: &DagRun,
    reference: Option<&[(String, String)]>,
    expected_jobs: usize,
) {
    ledger.check(run.report.jobs_run() == expected_jobs, || {
        format!(
            "{what}: {} of {expected_jobs} jobs ran",
            run.report.jobs_run()
        )
    });
    let outputs = run.outputs();
    for job in &run.report.jobs {
        let mine = outputs.iter().find(|(id, _)| *id == job.id);
        let expected = reference.and_then(|r| r.iter().find(|(id, _)| *id == job.id));
        let ok = match (mine, expected, reference) {
            (Some((_, a)), Some((_, b)), _) => a == b,
            (Some(_), None, Some(_)) => false,
            _ => true,
        };
        ledger.check(ok, || format!("{what}: job {} stdout differs", job.id));
    }
}

/// `paper_cold`: the full paper DAG on an empty store — the only workload
/// that collects datasets and trains oracles.
pub fn paper_cold(ctx: &mut Ctx) -> Result<Measured, String> {
    let reps = reps_for(ctx.seconds, COLD_REP_S);
    let mut measured = Measured::default();
    let mut reference: Option<Vec<(String, String)>> = None;
    let total = reps + usize::from(ctx.trace.enabled());
    for rep in 0..total {
        let traced = rep == reps;
        let dir = ctx.work.join(format!("cold-{rep}"));
        let args = Args {
            seed: ctx.seed,
            cache_dir: Some(dir.clone()),
            ..Args::default()
        };
        let store = Arc::new(ArtifactStore::at(&dir));
        let dag = paper_dag(&args, &store).map_err(|e| e.to_string())?;
        let what = format!("paper_cold rep {rep}");
        let run = run_dag(&dag, traced.then_some(ctx.trace), "rep")?;

        check_jobs(ctx.ledger, &what, &run, reference.as_deref(), dag.len());
        let led = store.dedup_counters().0;
        ctx.ledger.check(led == 12, || {
            format!("{what}: dedup led {led} computations, not 12")
        });
        ctx.ledger
            .check(run.prep_digests() == ctx.prepared.digests, || {
                format!("{what}: datasets/oracles differ from the set-up's")
            });
        reference.get_or_insert_with(|| run.outputs());

        if traced {
            measured.traced_wall_s = Some(run.wall_s);
            measured.layers = run.layers(&dag, &store);
        } else {
            measured.wall_s.push(run.wall_s);
            measured.latency_ms.extend(run.delivery_ms());
        }
        measured.final_store = dir;
    }

    // Warm ≡ cold: the same DAG under lockstep batches over the store the
    // cold run filled must hit every artifact and print the same reports.
    let args = Args {
        seed: ctx.seed,
        cache_dir: Some(measured.final_store.clone()),
        dispatch: DispatchMode::Batched {
            batch_size: WARM_BATCH,
        },
        ..Args::default()
    };
    let store = Arc::new(ArtifactStore::at(&measured.final_store));
    let dag = paper_dag(&args, &store).map_err(|e| e.to_string())?;
    let warm = run_dag(&dag, None, "warm check")?;
    check_jobs(
        ctx.ledger,
        "paper_cold warm check",
        &warm,
        reference.as_deref(),
        dag.len(),
    );
    let misses = warm.report.artifact_totals().1;
    ctx.ledger.check(misses == 0, || {
        format!("paper_cold warm check: {misses} artifact misses")
    });
    Ok(measured)
}

/// `paper_warm`: the same DAG over a copy of the prepared store under
/// `--batch 32`; an untimed default-dispatch rep fills the search
/// evaluations first, so timed reps only read the store.
pub fn paper_warm(ctx: &mut Ctx) -> Result<Measured, String> {
    let reps = reps_for(ctx.seconds, WARM_REP_S);
    let dir = ctx.work.join("warm");
    copy_store(&ctx.prepared.store, &dir)?;
    let store = Arc::new(ArtifactStore::at(&dir));
    let base = Args {
        seed: ctx.seed,
        cache_dir: Some(dir.clone()),
        ..Args::default()
    };

    let dag = paper_dag(&base, &store).map_err(|e| e.to_string())?;
    let first = run_dag(&dag, None, "reference")?;
    check_jobs(ctx.ledger, "paper_warm reference", &first, None, dag.len());
    ctx.ledger
        .check(first.prep_digests() == ctx.prepared.digests, || {
            "paper_warm reference: datasets/oracles differ from the set-up's".into()
        });
    let reference = first.outputs();

    let args = Args {
        dispatch: DispatchMode::Batched {
            batch_size: WARM_BATCH,
        },
        ..base
    };
    let dag = paper_dag(&args, &store).map_err(|e| e.to_string())?;
    let mut measured = Measured {
        final_store: dir,
        ..Measured::default()
    };
    for rep in 0..reps + usize::from(ctx.trace.enabled()) {
        let traced = rep == reps;
        let what = format!("paper_warm rep {rep}");
        let run = run_dag(&dag, traced.then_some(ctx.trace), "rep")?;
        check_jobs(ctx.ledger, &what, &run, Some(&reference), dag.len());
        let misses = run.report.artifact_totals().1;
        ctx.ledger.check(misses == 0, || {
            format!("{what}: {misses} artifact misses on a warm store")
        });
        if traced {
            measured.traced_wall_s = Some(run.wall_s);
            measured.layers = run.layers(&dag, &store);
        } else {
            measured.wall_s.push(run.wall_s);
            measured.latency_ms.extend(run.delivery_ms());
        }
    }
    Ok(measured)
}

/// The boundary searches of one sub-seed: `run_search` for every vector.
struct Sweep {
    /// Wall time of the three searches.
    wall_s: f64,
    reports: Vec<SearchReport>,
    /// ⟨hits, misses⟩ of oracle lookups and evaluation-cache lookups.
    lookups: (u64, u64),
}

/// Runs the suite's own search (`SearchConfig::for_args`) for every
/// vector under `args` against `store`.
fn sweep(
    args: &Args,
    store: &Arc<ArtifactStore>,
    trace: Option<(&Trace, Option<SpanId>)>,
) -> Sweep {
    let started = Instant::now();
    let mut reports = Vec::new();
    let mut lookups = (0, 0);
    for vector in AttackVector::ALL {
        let cache = OracleCache::over(store.clone());
        let span_start = Instant::now();
        let report = run_search(&SearchConfig::for_args(vector, args), &args.sweep(), &cache);
        if let Some((trace, parent)) = trace {
            let name = format!("search:{}:seed{}", vector.name(), args.seed);
            trace.record(&name, parent, None, span_start, Instant::now());
        }
        let (hits, misses) = cache.artifact_totals();
        lookups.0 += hits + report.eval_hits;
        lookups.1 += misses + report.eval_misses;
        reports.push(report);
    }
    Sweep {
        wall_s: started.elapsed().as_secs_f64(),
        reports,
        lookups,
    }
}

/// The search options of sub-seed `seed` over the store at `dir`.
fn search_args(seed: u64, dir: &Path) -> Args {
    Args {
        runs: SEARCH_RUNS,
        seed,
        cache_dir: Some(dir.to_path_buf()),
        ..Args::default()
    }
}

/// `search_sweep`: the suite's own boundary search for all three vectors,
/// each rep over [`SEARCH_SEEDS`] fresh sub-seeds of the workload seed on a
/// fresh copy of the prepared store — scenario mutation, many narrow
/// batch-8 campaigns and many small `search-eval` writes. Search cost
/// varies a lot from seed to seed; summing many sub-seeds per rep keeps
/// one run's work close to the next one's.
pub fn search_sweep(ctx: &mut Ctx) -> Result<Measured, String> {
    let reps = reps_for(ctx.seconds, SEARCH_REP_S);
    let mut measured = Measured::default();
    for rep in 0..reps + usize::from(ctx.trace.enabled()) {
        let traced = rep == reps;
        let dir = ctx.work.join(format!("search-{rep}"));
        copy_store(&ctx.prepared.store, &dir)?;
        let store = Arc::new(ArtifactStore::at(&dir));
        // Sub-seed sets of different workload seeds never overlap.
        let seeds: Vec<u64> = (0..SEARCH_SEEDS)
            .map(|k| {
                let index = (rep * SEARCH_SEEDS + k) as u64;
                ctx.seed.wrapping_mul(1 << 16).wrapping_add(index)
            })
            .collect();

        let span = traced.then(|| ctx.trace.begin("rep", None)).flatten();
        let started = Instant::now();
        let mut reports = Vec::new();
        let mut lookups = (0, 0);
        for &seed in &seeds {
            let done = sweep(
                &search_args(seed, &dir),
                &store,
                traced.then_some((ctx.trace, span)),
            );
            if !traced {
                measured.latency_ms.push(done.wall_s * 1e3);
            }
            lookups.0 += done.lookups.0;
            lookups.1 += done.lookups.1;
            reports.push(done.reports);
        }
        let wall_s = started.elapsed().as_secs_f64();
        ctx.trace.end(span);

        // Warm replay (untimed): every evaluation now hits, and every
        // report repeats byte for byte.
        for (&seed, cold) in seeds.iter().zip(&reports) {
            let warm = sweep(&search_args(seed, &dir), &store, None);
            let misses: u64 = warm.reports.iter().map(|r| r.eval_misses).sum();
            let same = warm
                .reports
                .iter()
                .zip(cold)
                .all(|(w, c)| w.render() == c.render());
            ctx.ledger.check(misses == 0 && same, || {
                format!("search_sweep seed {seed}: warm replay has {misses} misses, same reports {same}")
            });
        }

        if traced {
            let mut search = SearchStats::default();
            for report in reports.iter().flatten() {
                search.add(SearchStats {
                    cells: report.cells as u64,
                    evaluated: report.evaluated as u64,
                    eval_misses: report.eval_misses,
                    deduped: report.deduped as u64,
                    skipped_invalid: report.skipped_invalid as u64,
                });
            }
            measured.traced_wall_s = Some(wall_s);
            measured.layers = Layers {
                exec_busy_s: [0.0, 0.0, 0.0, wall_s],
                hit_ratio: ratio(lookups.0, lookups.0 + lookups.1),
                dedup: store.dedup_counters(),
                search,
                ..Layers::default()
            };
        } else {
            measured.wall_s.push(wall_s);
        }

        // The suite's `search:*` jobs print exactly what `render()`
        // returned (checked on the first seed of the first rep).
        if rep == 0 {
            let ids: Vec<String> = AttackVector::ALL
                .iter()
                .map(|v| format!("search:{}", v.name()))
                .collect();
            let dag = paper_dag(&search_args(seeds[0], &dir), &store)
                .and_then(|full| full.subgraph(&ids))
                .map_err(|e| e.to_string())?;
            let run = run_dag(&dag, None, "search jobs")?;
            for (id, report) in ids.iter().zip(&reports[0]) {
                let ok = run
                    .report
                    .job(id)
                    .is_some_and(|j| j.stdout == report.render());
                ctx.ledger.check(ok, || {
                    format!("search_sweep: suite job {id} stdout differs from run_search")
                });
            }
        }
        measured.final_store = dir;
    }
    Ok(measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_hides_only_the_dispatch_field() {
        let cold = "## Boundary search: Move_Out (4 generations x 10 candidates, 40 runs/candidate, batch 8, base seed 2020)\n| x | batch 8 |\n";
        let warm = cold.replacen("batch 8,", "batch 32,", 1);
        assert_ne!(cold, warm);
        assert_eq!(mask_dispatch(cold), mask_dispatch(&warm));
        assert!(
            mask_dispatch(cold).ends_with("| x | batch 8 |\n"),
            "body untouched"
        );
    }

    #[test]
    fn coverage_line_parses() {
        let stats = coverage_stats(
            "x\ncoverage: 12 cells | evaluated: 38 candidates | skipped: 1 invalid, 3 duplicate\n",
        )
        .expect("coverage line");
        assert_eq!(
            (
                stats.cells,
                stats.evaluated,
                stats.skipped_invalid,
                stats.deduped
            ),
            (12, 38, 1, 3)
        );
    }

    #[test]
    fn reps_follow_the_budget() {
        assert_eq!(reps_for(10, 2.8), 4);
        assert_eq!(reps_for(10, 11.8), 1);
        assert_eq!(reps_for(1, 11.8), 1, "at least one rep");
    }
}
