//! The work-stealing DAG executor.
//!
//! A fixed pool of workers shares one ready queue behind a mutex+condvar:
//! whenever a job's last dependency completes it becomes ready, and the
//! first idle worker claims it. There is no per-phase barrier — a figure
//! job whose oracle is done runs while other oracles are still training,
//! which is what keeps the pool busy on the wide-then-narrow paper DAG.
//!
//! Completed jobs are appended to the JSONL manifest as they finish (see
//! [`crate::manifest`]); on a resumed run, jobs with a recovered entry are
//! skipped outright and their recorded stdout replayed. Job panics abort
//! the run with [`ExecError::JobPanicked`] after in-flight jobs finish.
//!
//! Each call creates one fresh [`ExecScope`] and hands it to every job it
//! runs: jobs of one execution share in-memory work through it, and
//! nothing in it carries over to the next execution of the same DAG.

use crate::dag::Dag;
use crate::manifest::{self, ManifestEntry};
use crate::scope::ExecScope;
use av_telemetry::{Telemetry, TraceEvent};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A live progress notification from [`execute`], delivered to the
/// [`ExecOptions::observer`] callback as jobs start and finish. This is the
/// hook the evaluation daemon uses to stream per-request events; callbacks
/// run outside the pool lock and may be invoked concurrently from several
/// workers.
#[derive(Debug)]
pub enum ExecEvent<'a> {
    /// A job began executing.
    JobStarted {
        /// The job's id.
        job: &'a str,
    },
    /// A job finished executing, or was recovered from the manifest
    /// (`report.skipped`).
    JobFinished {
        /// The finished job's report.
        report: &'a JobReport,
    },
}

/// The observer callback type (see [`ExecOptions::observer`]).
pub type ExecObserver = Arc<dyn Fn(ExecEvent<'_>) + Send + Sync>;

/// How one run of [`execute`] should behave. Built fluently:
///
/// ```
/// # use av_suite::ExecOptions;
/// let opts = ExecOptions::new().workers(4).manifest("run.jsonl");
/// ```
pub struct ExecOptions {
    workers: usize,
    manifest: Option<PathBuf>,
    resume: bool,
    config_key: u64,
    telemetry: Telemetry,
    observer: Option<ExecObserver>,
}

impl std::fmt::Debug for ExecOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecOptions")
            .field("workers", &self.workers)
            .field("manifest", &self.manifest)
            .field("resume", &self.resume)
            .field("config_key", &self.config_key)
            .field("observer", &self.observer.as_ref().map(|_| "…"))
            .finish_non_exhaustive()
    }
}

impl ExecOptions {
    /// The defaults: 1 worker, no manifest, resume on, config key 0,
    /// telemetry disabled, no observer.
    pub fn new() -> ExecOptions {
        ExecOptions {
            workers: 1,
            manifest: None,
            resume: true,
            config_key: 0,
            telemetry: Telemetry::disabled(),
            observer: None,
        }
    }

    /// Worker threads (`--jobs`). Must be ≥ 1 — [`execute`] rejects 0.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> ExecOptions {
        self.workers = workers;
        self
    }

    /// Manifest path; unset disables persistence (and therefore resume).
    #[must_use]
    pub fn manifest(mut self, path: impl Into<PathBuf>) -> ExecOptions {
        self.manifest = Some(path.into());
        self
    }

    /// Whether to load the manifest and skip recovered jobs. When false,
    /// an existing manifest is truncated and the run starts fresh.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> ExecOptions {
        self.resume = resume;
        self
    }

    /// Digest of the run configuration; a manifest written under a
    /// different digest is ignored wholesale.
    #[must_use]
    pub fn config_key(mut self, key: u64) -> ExecOptions {
        self.config_key = key;
        self
    }

    /// Telemetry handle for `JobStarted`/`JobFinished` events.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> ExecOptions {
        self.telemetry = telemetry;
        self
    }

    /// Streams [`ExecEvent`]s as jobs start and finish (the daemon's
    /// per-request event feed).
    #[must_use]
    pub fn observer(mut self, observer: impl Fn(ExecEvent<'_>) + Send + Sync + 'static) -> Self {
        self.observer = Some(Arc::new(observer));
        self
    }

    fn notify(&self, event: ExecEvent<'_>) {
        if let Some(observer) = &self.observer {
            observer(event);
        }
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions::new()
    }
}

/// Why a run failed.
#[derive(Debug)]
pub enum ExecError {
    /// `--jobs 0` is not a pool.
    ZeroWorkers,
    /// A job's closure panicked; the run stopped after in-flight jobs.
    JobPanicked(String),
    /// The manifest file could not be created or written.
    Manifest(std::io::Error),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ZeroWorkers => write!(f, "worker count must be at least 1"),
            ExecError::JobPanicked(job) => write!(f, "job {job:?} panicked"),
            ExecError::Manifest(e) => write!(f, "manifest I/O failed: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One job's slice of a finished run.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job id.
    pub id: String,
    /// Whether the job contributes to suite stdout.
    pub emits_stdout: bool,
    /// The job's stdout contribution (recorded stdout when skipped).
    pub stdout: String,
    /// Wall time (this run, or the recorded time when skipped).
    pub wall_ms: u64,
    /// Whether the job was skipped via the resumed manifest.
    pub skipped: bool,
    /// Artifact-store hits while the job ran.
    pub artifact_hits: u64,
    /// Artifact-store misses while the job ran.
    pub artifact_misses: u64,
    /// ⟨name, digest⟩ pairs the job reported.
    pub artifacts: Vec<(String, u64)>,
}

/// The finished run: per-job reports in DAG declaration order plus pool
/// utilization numbers.
#[derive(Debug)]
pub struct RunReport {
    /// Per-job reports, in DAG declaration order.
    pub jobs: Vec<JobReport>,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Workers the pool actually spawned.
    pub workers: usize,
    /// Summed busy time across workers.
    pub busy: Duration,
}

impl RunReport {
    /// The report for job `id`, if present.
    pub fn job(&self, id: &str) -> Option<&JobReport> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Fraction of worker-seconds spent running jobs (0 when nothing ran).
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers as f64;
        if capacity > 0.0 {
            (self.busy.as_secs_f64() / capacity).min(1.0)
        } else {
            0.0
        }
    }

    /// Jobs that executed this run (not skipped).
    pub fn jobs_run(&self) -> usize {
        self.jobs.iter().filter(|j| !j.skipped).count()
    }

    /// Jobs skipped via the resumed manifest.
    pub fn jobs_skipped(&self) -> usize {
        self.jobs.len() - self.jobs_run()
    }

    /// Artifact hits/misses summed over jobs that executed this run.
    pub fn artifact_totals(&self) -> (u64, u64) {
        self.jobs
            .iter()
            .filter(|j| !j.skipped)
            .fold((0, 0), |(h, m), j| {
                (h + j.artifact_hits, m + j.artifact_misses)
            })
    }

    /// Renders the end-of-run summary table (for stderr — stdout belongs
    /// to the jobs). The final `totals` line is machine-greppable; CI
    /// asserts on it.
    pub fn render_summary(&self) -> String {
        let mut s = String::new();
        let (hits, misses) = self.artifact_totals();
        let _ = writeln!(
            s,
            "[suite] {} jobs on {} workers in {:.2} s (utilization {:.0}%)",
            self.jobs.len(),
            self.workers,
            self.wall.as_secs_f64(),
            100.0 * self.utilization(),
        );
        let _ = writeln!(
            s,
            "[suite] {:<28} {:>8} {:>9} {:>6} {:>7}",
            "job", "status", "wall(s)", "hits", "misses"
        );
        for job in &self.jobs {
            let _ = writeln!(
                s,
                "[suite] {:<28} {:>8} {:>9.2} {:>6} {:>7}",
                job.id,
                if job.skipped { "skipped" } else { "run" },
                job.wall_ms as f64 / 1000.0,
                job.artifact_hits,
                job.artifact_misses,
            );
        }
        let _ = writeln!(
            s,
            "[suite] totals jobs_run={} jobs_skipped={} artifact_hits={hits} artifact_misses={misses}",
            self.jobs_run(),
            self.jobs_skipped(),
        );
        s
    }
}

/// Shared scheduler state behind the pool's mutex.
struct PoolState {
    ready: VecDeque<usize>,
    remaining_deps: Vec<usize>,
    results: Vec<Option<JobReport>>,
    completed: usize,
    total: usize,
    failed: Option<String>,
    manifest: Option<std::fs::File>,
    busy: Duration,
}

impl PoolState {
    fn done(&self) -> bool {
        self.completed == self.total || self.failed.is_some()
    }
}

/// Executes `dag` under `opts`. Reports come back in DAG declaration
/// order; stdout-emitting jobs' strings concatenated in that order are the
/// suite's stdout.
pub fn execute(dag: &Dag, opts: &ExecOptions) -> Result<RunReport, ExecError> {
    if opts.workers == 0 {
        return Err(ExecError::ZeroWorkers);
    }
    let started = Instant::now();
    let n = dag.len();
    let dependents = dag.dependents();

    // Recover completed jobs from the manifest, then (re)open it for
    // appending — a fresh run truncates and rewrites the header.
    let recovered: Vec<Option<ManifestEntry>> = {
        let loaded = match (&opts.manifest, opts.resume) {
            (Some(path), true) => manifest::load(path, opts.config_key),
            _ => Vec::new(),
        };
        dag.jobs()
            .iter()
            .map(|j| loaded.iter().find(|e| e.job == j.id()).cloned())
            .collect()
    };
    let manifest_file = match &opts.manifest {
        Some(path) => {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).map_err(ExecError::Manifest)?;
            }
            let fresh = !opts.resume || !recovered.iter().any(Option::is_some);
            // A killed run can leave a truncated final line with no
            // newline; appending straight after it would garble the next
            // entry, so terminate the line first.
            let needs_newline = !fresh
                && std::fs::read(path)
                    .ok()
                    .is_some_and(|bytes| bytes.last().is_some_and(|&b| b != b'\n'));
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(!fresh)
                .write(true)
                .truncate(fresh)
                .open(path)
                .map_err(ExecError::Manifest)?;
            if fresh {
                writeln!(file, "{}", manifest::header(opts.config_key))
                    .map_err(ExecError::Manifest)?;
            } else if needs_newline {
                writeln!(file).map_err(ExecError::Manifest)?;
            }
            Some(file)
        }
        None => None,
    };

    let mut state = PoolState {
        ready: VecDeque::new(),
        remaining_deps: dag.jobs().iter().map(|j| j.dep_ids().len()).collect(),
        results: (0..n).map(|_| None).collect(),
        completed: 0,
        total: n,
        failed: None,
        manifest: manifest_file,
        busy: Duration::ZERO,
    };

    // Seed the queue: manifest-recovered jobs complete instantly (their
    // dependents unblock), the rest become ready once dep-free. Record
    // every skipped result BEFORE running any completion — complete()
    // queues dependents whose result slot is still empty, so interleaving
    // would queue (and execute) a skipped job whose dependency happened to
    // be skip-processed first.
    let mut to_skip: Vec<usize> = Vec::new();
    for (i, entry) in recovered.into_iter().enumerate() {
        if let Some(entry) = entry {
            state.results[i] = Some(JobReport {
                id: dag.jobs()[i].id().to_string(),
                emits_stdout: dag.jobs()[i].is_stdout_job(),
                stdout: entry.stdout,
                wall_ms: entry.wall_ms,
                skipped: true,
                artifact_hits: entry.artifact_hits,
                artifact_misses: entry.artifact_misses,
                artifacts: entry.artifacts,
            });
            to_skip.push(i);
        }
    }
    for i in to_skip {
        if let Some(report) = &state.results[i] {
            opts.notify(ExecEvent::JobFinished { report });
        }
        complete(&mut state, &dependents, i);
    }
    for i in 0..n {
        // complete() above may already have queued jobs unblocked by
        // skipped dependencies — don't queue those twice.
        if state.results[i].is_none() && state.remaining_deps[i] == 0 && !state.ready.contains(&i) {
            state.ready.push_back(i);
        }
    }

    let outstanding = n - state.completed;
    let workers = opts.workers.min(outstanding.max(1));
    let pool = Mutex::new(state);
    let work_available = Condvar::new();
    let exec_scope = ExecScope::new();

    if outstanding > 0 {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (pool, work_available, dag, dependents, opts, exec_scope) =
                    (&pool, &work_available, dag, &dependents, opts, &exec_scope);
                scope.spawn(move || {
                    loop {
                        let i = {
                            let mut state = pool.lock().expect("pool lock");
                            loop {
                                if state.done() {
                                    return;
                                }
                                if let Some(i) = state.ready.pop_front() {
                                    break i;
                                }
                                state = work_available.wait(state).expect("pool lock");
                            }
                        };
                        let job = &dag.jobs()[i];
                        opts.telemetry.emit(0.0, || TraceEvent::JobStarted {
                            job: job.id().to_string(),
                        });
                        opts.notify(ExecEvent::JobStarted { job: job.id() });
                        let job_started = Instant::now();
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                job.execute(exec_scope)
                            }));
                        let wall = job_started.elapsed();
                        opts.telemetry.emit(0.0, || TraceEvent::JobFinished {
                            job: job.id().to_string(),
                        });
                        // Build (and stream) the report outside the pool
                        // lock — observers may do I/O.
                        let report = outcome.as_ref().ok().map(|outcome| JobReport {
                            id: job.id().to_string(),
                            emits_stdout: job.is_stdout_job(),
                            stdout: outcome.stdout.clone(),
                            wall_ms: wall.as_millis() as u64,
                            skipped: false,
                            artifact_hits: outcome.artifact_hits,
                            artifact_misses: outcome.artifact_misses,
                            artifacts: outcome.artifacts.clone(),
                        });
                        if let Some(report) = &report {
                            opts.notify(ExecEvent::JobFinished { report });
                        }

                        let mut state = pool.lock().expect("pool lock");
                        state.busy += wall;
                        match report {
                            Some(report) => {
                                let entry = ManifestEntry {
                                    job: report.id.clone(),
                                    wall_ms: report.wall_ms,
                                    artifact_hits: report.artifact_hits,
                                    artifact_misses: report.artifact_misses,
                                    artifacts: report.artifacts.clone(),
                                    stdout: report.stdout.clone(),
                                };
                                if let Some(file) = &mut state.manifest {
                                    let _ = writeln!(file, "{}", entry.to_json());
                                    let _ = file.flush();
                                }
                                state.results[i] = Some(report);
                                complete(&mut state, dependents, i);
                            }
                            None => {
                                state.failed = Some(job.id().to_string());
                            }
                        }
                        // Wake everyone: new ready work, or done/failed.
                        work_available.notify_all();
                    }
                });
            }
        });
    }

    let state = pool.into_inner().expect("pool lock");
    if let Some(job) = state.failed {
        return Err(ExecError::JobPanicked(job));
    }
    let jobs = state
        .results
        .into_iter()
        .map(|r| r.expect("all jobs completed"))
        .collect();
    Ok(RunReport {
        jobs,
        wall: started.elapsed(),
        workers,
        busy: state.busy,
    })
}

/// Marks job `i` completed and promotes newly unblocked dependents.
fn complete(state: &mut PoolState, dependents: &[Vec<usize>], i: usize) {
    state.completed += 1;
    for &d in &dependents[i] {
        state.remaining_deps[d] -= 1;
        if state.remaining_deps[d] == 0 && state.results[d].is_none() {
            state.ready.push_back(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{Job, JobOutcome};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn counting_dag(counter: &Arc<AtomicU64>) -> Dag {
        // data → oracle → {table2, fig6}; fig5 independent.
        let mk = |id: &str, body: &str| {
            let counter = counter.clone();
            let body = body.to_string();
            Job::new(id, move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
                JobOutcome {
                    stdout: body.clone(),
                    artifact_hits: 1,
                    artifact_misses: 0,
                    artifacts: vec![(body.clone(), crate::fnv::fnv1a(body.as_bytes()))],
                }
            })
        };
        Dag::new(vec![
            mk("data", ""),
            mk("oracle", "").dep("data"),
            mk("table2", "TABLE2\n").dep("oracle").emits_stdout(),
            mk("fig5", "FIG5\n").emits_stdout(),
            mk("fig6", "FIG6\n").dep("oracle").emits_stdout(),
        ])
        .expect("valid dag")
    }

    fn stdout_of(report: &RunReport) -> String {
        report
            .jobs
            .iter()
            .filter(|j| j.emits_stdout)
            .map(|j| j.stdout.as_str())
            .collect()
    }

    #[test]
    fn worker_count_does_not_change_outputs() {
        let counter = Arc::new(AtomicU64::new(0));
        let reference = execute(&counting_dag(&counter), &ExecOptions::default()).expect("run");
        assert_eq!(stdout_of(&reference), "TABLE2\nFIG5\nFIG6\n");
        for workers in [2, 4, 8] {
            let report = execute(
                &counting_dag(&counter),
                &ExecOptions::new().workers(workers),
            )
            .expect("run");
            assert_eq!(
                stdout_of(&report),
                stdout_of(&reference),
                "workers={workers}"
            );
            let artifacts: Vec<_> = report.jobs.iter().map(|j| j.artifacts.clone()).collect();
            let expected: Vec<_> = reference.jobs.iter().map(|j| j.artifacts.clone()).collect();
            assert_eq!(artifacts, expected, "workers={workers}");
        }
        // 4 executions of 5 jobs each, nothing skipped.
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn every_execution_gets_one_fresh_scope() {
        // Two producers add to the scope's counter; the reader after them
        // sees exactly their two additions, on every execution.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let add = |id: &str| {
            Job::new(id, |scope: &ExecScope| {
                scope.get::<AtomicU64>().fetch_add(1, Ordering::Relaxed);
                JobOutcome::default()
            })
        };
        let reader = {
            let seen = seen.clone();
            Job::new("read", move |scope: &ExecScope| {
                let n = scope.get::<AtomicU64>().load(Ordering::Relaxed);
                seen.lock().expect("seen").push(n);
                JobOutcome::default()
            })
            .deps(["a", "b"])
        };
        let dag = Dag::new(vec![add("a"), add("b"), reader]).expect("valid dag");
        for workers in [1, 2] {
            execute(&dag, &ExecOptions::new().workers(workers)).expect("run");
        }
        assert_eq!(*seen.lock().expect("seen"), [2, 2]);
    }

    #[test]
    fn zero_workers_is_an_error() {
        let counter = Arc::new(AtomicU64::new(0));
        let err = execute(&counting_dag(&counter), &ExecOptions::new().workers(0)).unwrap_err();
        assert!(matches!(err, ExecError::ZeroWorkers));
    }

    #[test]
    fn manifest_resume_skips_completed_jobs() {
        let dir = std::env::temp_dir().join(format!("suite-exec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("manifest.jsonl");
        let counter = Arc::new(AtomicU64::new(0));
        let opts = ExecOptions::new().workers(2).manifest(path.clone());

        let first = execute(&counting_dag(&counter), &opts).expect("first run");
        assert_eq!(first.jobs_run(), 5);
        assert_eq!(counter.load(Ordering::Relaxed), 5);

        // Rerun: everything recovered, nothing executed, same stdout.
        let second = execute(&counting_dag(&counter), &opts).expect("second run");
        assert_eq!(second.jobs_run(), 0);
        assert_eq!(second.jobs_skipped(), 5);
        assert_eq!(counter.load(Ordering::Relaxed), 5, "no job re-executed");
        assert_eq!(stdout_of(&second), stdout_of(&first));
        assert_eq!(second.artifact_totals(), (0, 0), "skipped jobs don't count");

        // Kill mid-run: drop the trailing half-line; those jobs rerun.
        let contents = std::fs::read_to_string(&path).expect("manifest");
        let keep: Vec<&str> = contents.lines().take(3).collect(); // header + 2 jobs
        let half = contents.lines().nth(3).expect("4th line");
        std::fs::write(
            &path,
            format!("{}\n{}", keep.join("\n"), &half[..half.len() / 2]),
        )
        .expect("truncate");
        let third = execute(&counting_dag(&counter), &opts).expect("third run");
        assert_eq!(third.jobs_skipped(), 2);
        assert_eq!(third.jobs_run(), 3);
        assert_eq!(stdout_of(&third), stdout_of(&first));

        // A config change invalidates the manifest wholesale.
        let fourth = execute(
            &counting_dag(&counter),
            &ExecOptions::new()
                .workers(2)
                .manifest(path.clone())
                .config_key(99),
        )
        .expect("fourth run");
        assert_eq!(fourth.jobs_run(), 5);

        // resume=false reruns everything even with a matching manifest.
        let fifth = execute(
            &counting_dag(&counter),
            &ExecOptions::new()
                .workers(2)
                .manifest(path.clone())
                .resume(false),
        )
        .expect("fifth run");
        assert_eq!(fifth.jobs_run(), 5);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_never_reruns_a_skipped_job_whose_dep_was_also_skipped() {
        // Regression: a → b → {c, d}. With a AND b recovered from the
        // manifest, processing a's completion before b's result was
        // recorded used to queue b for execution anyway — b then completed
        // twice and underflowed c/d's dependency counters.
        let dir = std::env::temp_dir().join(format!("suite-skipchain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("manifest.jsonl");
        let counter = Arc::new(AtomicU64::new(0));
        let mk = |id: &str| {
            let counter = counter.clone();
            Job::new(id, move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
                JobOutcome::default()
            })
        };
        let dag = Dag::new(vec![
            mk("a"),
            mk("b").dep("a"),
            mk("c").dep("b"),
            mk("d").dep("b"),
        ])
        .expect("valid dag");
        let opts = ExecOptions::new().workers(2).manifest(path.clone());
        execute(&dag, &opts).expect("first run");
        assert_eq!(counter.load(Ordering::Relaxed), 4);

        // Keep header + a + b; c and d rerun, b must NOT.
        let contents = std::fs::read_to_string(&path).expect("manifest");
        let keep: Vec<&str> = contents.lines().take(3).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).expect("truncate");
        let resumed = execute(&dag, &opts).expect("resumed run");
        assert_eq!(resumed.jobs_skipped(), 2);
        assert_eq!(resumed.jobs_run(), 2);
        assert_eq!(counter.load(Ordering::Relaxed), 6, "only c and d reran");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_job_fails_the_run() {
        let dag = Dag::new(vec![
            Job::new("ok", |_| JobOutcome::default()),
            Job::new("boom", |_| panic!("job exploded")),
            Job::new("downstream", |_| JobOutcome::default()).dep("boom"),
        ])
        .expect("valid dag");
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let err = execute(&dag, &ExecOptions::default()).unwrap_err();
        std::panic::set_hook(prev);
        assert!(
            matches!(err, ExecError::JobPanicked(ref j) if j == "boom"),
            "{err}"
        );
    }

    #[test]
    fn observer_streams_started_and_finished_for_run_and_skipped_jobs() {
        let dir = std::env::temp_dir().join(format!("suite-observer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("manifest.jsonl");
        type EventLog = Arc<Mutex<Vec<(String, String, bool)>>>;
        let counter = Arc::new(AtomicU64::new(0));
        let events: EventLog = Arc::new(Mutex::new(Vec::new()));
        let opts = |events: &EventLog| {
            let events = events.clone();
            ExecOptions::new()
                .workers(2)
                .manifest(path.clone())
                .observer(move |event| {
                    let mut log = events.lock().expect("event log");
                    match event {
                        ExecEvent::JobStarted { job } => {
                            log.push(("started".into(), job.to_string(), false));
                        }
                        ExecEvent::JobFinished { report } => {
                            log.push(("finished".into(), report.id.clone(), report.skipped));
                        }
                    }
                })
        };

        execute(&counting_dag(&counter), &opts(&events)).expect("cold run");
        {
            let log = events.lock().expect("event log");
            let started = log.iter().filter(|(k, _, _)| k == "started").count();
            let finished = log.iter().filter(|(k, _, _)| k == "finished").count();
            assert_eq!((started, finished), (5, 5), "every job start/finish seen");
            assert!(log.iter().all(|(_, _, skipped)| !skipped));
            // A job's finish never precedes its start.
            for (kind, job, _) in log.iter() {
                if kind == "finished" {
                    assert!(
                        log.iter()
                            .position(|(k, j, _)| k == "started" && j == job)
                            .unwrap()
                            < log
                                .iter()
                                .position(|(k, j, _)| k == "finished" && j == job)
                                .unwrap()
                    );
                }
            }
        }

        // Resumed run: recovered jobs stream as finished+skipped, with no
        // start event.
        events.lock().expect("event log").clear();
        execute(&counting_dag(&counter), &opts(&events)).expect("warm run");
        let log = events.lock().expect("event log");
        assert_eq!(log.len(), 5, "one finished event per recovered job");
        assert!(log
            .iter()
            .all(|(k, _, skipped)| k == "finished" && *skipped));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_mentions_every_job_and_totals() {
        let counter = Arc::new(AtomicU64::new(0));
        let report = execute(&counting_dag(&counter), &ExecOptions::default()).expect("run");
        let summary = report.render_summary();
        for id in ["data", "oracle", "table2", "fig5", "fig6"] {
            assert!(summary.contains(id), "summary lists {id}:\n{summary}");
        }
        assert!(summary.contains("totals jobs_run=5 jobs_skipped=0 artifact_hits=5"));
    }
}
