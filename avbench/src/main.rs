//! `avbench` — the end-to-end and per-layer benchmark of the RoboTack
//! reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path avbench/Cargo.toml -- \
//!     --workload paper_cold --seed 2020 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. One invocation runs the shared set-up and
//! then one workload, prints each metric with its unit and sample count,
//! checks that every output is correct, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every check passed. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer metrics instead and writes
//! the spans to `target/avbench/trace.json`. Scratch stores live under
//! `target/avbench/work-<pid>` and are removed at exit.
//!
//! On a 2-core host an untraced invocation takes about 22–33 s: 12–15 s of
//! set-up plus 10–17 s of measured work and checks at `--seconds 10`, so
//! all four workloads take about 2 minutes. A traced invocation adds one
//! traced rep and ~5 s of layer probes.
//!
//! # Load
//!
//! Every DAG runs on 2 executor workers and every daemon request gets 2
//! workers; the daemon has 2 closed-loop clients. `--seed` drives the
//! campaign and search seeds of the DAG workloads and the daemon's request
//! script. Oracle and dataset keys depend only on the training sweep, so
//! the prepared store is valid for every seed. `--seconds` fixes the amount
//! of work — reps per workload, requests per client — from nominal 2-core
//! rep times, so one `--seconds` always runs the same work and percentiles
//! compare between commits.
//!
//! # Set-up
//!
//! The 12 preparation jobs (`oracle:*` and their `dataset:*` dependencies)
//! on an empty store, run 3 times, each in its own child process; all three
//! must produce identical artifacts. `setup_s` is the median. The last
//! store is the prepared store the warm, search and daemon workloads copy.
//! Training and collection gains show in `setup_s` and `paper_cold`.
//!
//! # Workloads
//!
//! - `paper_cold`: the full 23-job paper DAG on an empty store, default
//!   dispatch. The only workload that collects datasets, trains oracles
//!   and writes them. Checks: every rep prints the same reports, in-flight
//!   dedup leads exactly 12 computations, the trained artifacts equal the
//!   set-up's, and a `--batch 32` rerun over the filled store hits every
//!   artifact and prints the same reports (the search header's `batch N`
//!   field is masked: it records the dispatch by design).
//! - `paper_warm`: the same DAG over a copy of the prepared store under
//!   `--batch 32`. An untimed default-dispatch rep fills the search
//!   evaluations and is the reference. Training, collection and search are
//!   store hits, so the lockstep batch engine and store reads dominate; a
//!   training gain must read as no change here. Timed reps must show 0
//!   artifact misses and the reference's reports.
//! - `search_sweep`: `run_search(SearchConfig::for_args(v, &args))` for all
//!   three vectors at runs=8 (every candidate one batch-8 campaign), over
//!   8 sub-seeds of `--seed` per rep, on a fresh copy of the prepared store
//!   per rep — scenario mutation, many narrow batch-8 campaigns, many small
//!   `search-eval` writes. In `paper_warm` this work is all hits. Search
//!   cost varies a lot with the seed; summing 8 sub-seeds keeps one run's
//!   work close to another's. Checks: a warm replay of every sub-seed
//!   repeats every report with 0 evaluation misses, and the suite's
//!   `search:*` jobs print exactly `render()`.
//! - `serve_mixed`: an in-process `serve_unix` daemon (1 request slot, 2
//!   workers per request) over a copy of the prepared store, in a closed
//!   loop with 2 clients: one sends interactive requests cycling through
//!   {fig5, fig8, ablations}, the other half as many batch requests cycling
//!   through {table2, fig6, fig7, defense, resilience}, all at runs=12; the
//!   seed shuffles the order and gives every request its own seed. Small
//!   requests make admission, wire and queueing a real share of latency,
//!   which no other workload sees. Checks: every reply is `done`, and the
//!   first reply of each kind equals an untimed in-process `execute` of the
//!   same subgraph.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! - `wall_s`: median wall time of a measured rep (for `serve_mixed`, of
//!   the whole client script).
//! - `latency_p50_ms`: median delivery latency of an output — a report
//!   from its DAG's start, one sub-seed's three searches from their start,
//!   a reply from its request's send.
//! - `setup_s`: median set-up wall time.
//! - `peak_rss_mb`: the benchmark process's peak resident set (the set-up
//!   runs in child processes, so this is the workload's).
//!
//! A correctness mismatch counts as a failed operation; operations are
//! jobs, reps, searches, requests and set-ups.
//!
//! # Per-layer metrics (`--trace 1`) and what they should move
//!
//! The traced rep gives the workload's layer numbers (a layer a workload
//! does not exercise reads 0); the probes are the same in every workload.
//!
//! | metrics | layer | should move |
//! |---|---|---|
//! | `neural.train.ms_per_oracle`, `suite.exec.{dataset,oracle}.busy_s` | `train_sh`, `neural` | `setup_s`, `paper_cold` `wall_s`; ~0 on `paper_warm` |
//! | `stage.<stage>.{busy_ms,count}` (probe: DS-1-Disappear-R, NN oracle, 120 runs, work stealing) | simkit, sensing, faults, perception, planning, robotack | `paper_cold` `wall_s`, `serve_mixed` latency |
//! | `experiments.campaign.{batch32,seq}.runs_per_s` (same probe) | `experiments::batch` | `paper_warm` `wall_s` only |
//! | `experiments.search.*`, `suite.exec.search.busy_s` | `search`, `scenarios` | `search_sweep` `wall_s`, ~20% of `paper_cold` |
//! | `suite.store.{get,put}.{files,bytes,busy_ms}`, `experiments.oracle_cache.lookup_ms`, `suite.exec.artifact_hit_ratio` | `suite::store`, `oracle_cache` | puts: `paper_cold`, `search_sweep`; gets: `paper_warm`, `serve_mixed` |
//! | `suite.exec.{utilization,critical_path_s,report.busy_s}` | `suite::exec` | `wall_s` of `paper_cold`, `paper_warm` |
//! | `suite.serve.*` (admit = send → accepted: accept poll, parse, queue, DAG build) | `suite::serve`, `api` | `serve_mixed` latency only |
//! | `suite.dedup.{led,coalesced}` | `suite::dedup` | `paper_cold` |
//! | `trace_overhead_pct` | the tracing itself | traced vs untraced `wall_s` |
//!
//! A `.tail` / `_tail_` metric is the highest percentile with at least ten
//! samples beyond it (p90 for 100 samples, p80 for 50); the human-readable
//! lines name the percentile used.
//!
//! # `trace.json`
//!
//! ```text
//! {"workload": "paper_cold", "seed": 2020, "spans": [
//!   {"id": 0, "name": "setup", "parent": null, "request": null,
//!    "start_us": 0, "end_us": 4912345},
//!   ...]}
//! ```
//!
//! Times are microseconds since the run started. Names: `setup`, `rep`
//! (the traced rep), `job:<job id>` (parent: its rep or request),
//! `search:<vector>:seed<n>`, `request` / `admit` / `reply` (daemon; `request` is
//! the request id), and `probe:<layer>`. A span's self time is its
//! duration minus what its children cover.
//!
//! This benchmark supersedes the hand-run `suite_full` numbers in
//! `BENCH_suite.json`.

mod measure;
mod probes;
mod serve;
mod trace;
mod workloads;

use measure::{correct, end_to_end, median, peak_rss_mb, per_layer, result_line, Ledger, Metrics};
use serve::CLIENTS;
use std::path::{Path, PathBuf};
use trace::Trace;
use workloads::{Ctx, Layers, Measured, WORKERS};

/// The workloads, by the names `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperCold,
    PaperWarm,
    SearchSweep,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperCold,
        Workload::PaperWarm,
        Workload::SearchSweep,
        Workload::ServeMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::PaperWarm => "paper_warm",
            Workload::SearchSweep => "search_sweep",
            Workload::ServeMixed => "serve_mixed",
        }
    }
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Cli {
    fn parse(argv: &[String]) -> Result<Cli, String> {
        let mut workload = None;
        let mut seed = 2020;
        let mut seconds = 10;
        let mut trace = false;
        let mut args = argv.iter().peekable();
        let number = |flag: &str, value: Option<&String>| -> Result<u64, String> {
            let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
            value
                .parse()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--workload" => {
                    let name = args.next().ok_or("--workload needs a value")?;
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == name)
                            .ok_or_else(|| {
                                let names: Vec<_> =
                                    Workload::ALL.iter().map(|w| w.name()).collect();
                                format!("unknown workload {name:?} (one of {})", names.join(", "))
                            })?,
                    );
                }
                "--seed" => seed = number("--seed", args.next())?,
                "--seconds" => {
                    seconds = number("--seconds", args.next())?;
                    if seconds == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                }
                // `--trace 0`, `--trace 1`, or a bare `--trace`.
                "--trace" => {
                    trace = args.peek().is_none_or(|v| *v != "0");
                    if args.peek().is_some_and(|v| *v == "0" || *v == "1") {
                        args.next();
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Cli {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The run's scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new("target")
            .join("avbench")
            .join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sets every per-layer metric the workload's traced rep provides.
fn publish_layers(layers: &Layers, metrics: &mut Metrics) {
    for (kind, secs) in ["dataset", "oracle", "report", "search"]
        .iter()
        .zip(layers.exec_busy_s)
    {
        metrics.set(&format!("suite.exec.{kind}.busy_s"), secs, 1);
    }
    metrics.set("suite.exec.utilization", layers.utilization, 1);
    metrics.set("suite.exec.critical_path_s", layers.critical_path_s, 1);
    metrics.set("suite.exec.artifact_hit_ratio", layers.hit_ratio, 1);
    metrics.set("suite.dedup.led", layers.dedup.0 as f64, 1);
    metrics.set("suite.dedup.coalesced", layers.dedup.1 as f64, 1);

    let s = &layers.search;
    let attempts = s.evaluated + s.deduped + s.skipped_invalid;
    metrics.set("experiments.search.cells", s.cells as f64, 1);
    metrics.set("experiments.search.evaluated", s.evaluated as f64, 1);
    metrics.set("experiments.search.eval_misses", s.eval_misses as f64, 1);
    metrics.set("experiments.search.deduped", s.deduped as f64, 1);
    metrics.set(
        "experiments.search.skipped_invalid",
        s.skipped_invalid as f64,
        1,
    );
    let per_attempt = if attempts == 0 {
        0.0
    } else {
        s.cells as f64 / attempts as f64
    };
    metrics.set(
        "experiments.search.cells_per_attempt",
        per_attempt,
        attempts as usize,
    );

    let v = &layers.serve;
    for (name, value) in [
        ("suite.serve.admit_ms.p50", v.admit_ms.0),
        ("suite.serve.admit_ms.tail", v.admit_ms.1),
        ("suite.serve.exec_ms.p50", v.exec_ms.0),
        ("suite.serve.exec_ms.tail", v.exec_ms.1),
        ("suite.serve.reply_ms.p50", v.reply_ms_p50),
        ("suite.serve.event_bytes", v.event_bytes),
        ("suite.serve.interactive_p50_ms", v.interactive_ms.0),
        ("suite.serve.interactive_tail_ms", v.interactive_ms.1),
        ("suite.serve.batch_p50_ms", v.batch_ms.0),
        ("suite.serve.batch_tail_ms", v.batch_ms.1),
    ] {
        metrics.set(name, value, 1);
    }
}

/// The set-up, the workload, and its metrics.
fn measure(
    cli: &Cli,
    work: &Path,
    trace: &Trace,
    ledger: &mut Ledger,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let prepared = workloads::prepare(work, trace, ledger)?;
    let mut ctx = Ctx {
        seed: cli.seed,
        seconds: cli.seconds,
        work,
        prepared: &prepared,
        trace,
        ledger,
    };
    let measured: Measured = match cli.workload {
        Workload::PaperCold => workloads::paper_cold(&mut ctx)?,
        Workload::PaperWarm => workloads::paper_warm(&mut ctx)?,
        Workload::SearchSweep => workloads::search_sweep(&mut ctx)?,
        Workload::ServeMixed => serve::serve_mixed(&mut ctx)?,
    };
    let peak_rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    println!(
        "  measured reps {:?} s, set-ups {:?} s",
        measured.wall_s, prepared.setup_s
    );
    for note in &measured.notes {
        println!("  {note}");
    }

    if !cli.trace {
        metrics.set("wall_s", median(&measured.wall_s), measured.wall_s.len());
        metrics.set(
            "latency_p50_ms",
            median(&measured.latency_ms),
            measured.latency_ms.len(),
        );
        metrics.set("setup_s", median(&prepared.setup_s), prepared.setup_s.len());
        metrics.set("peak_rss_mb", peak_rss, 1);
        return Ok(());
    }

    publish_layers(&measured.layers, metrics);
    let untraced = median(&measured.wall_s);
    let traced = measured.traced_wall_s.ok_or("no traced rep ran")?;
    metrics.set("trace_overhead_pct", 100.0 * (traced / untraced - 1.0), 1);
    probes::run(
        &prepared.store,
        &measured.final_store,
        work,
        cli.seed,
        trace,
        ctx.ledger,
        metrics,
    )?;
    let path = Path::new("target").join("avbench").join("trace.json");
    trace
        .write(&path, cli.workload.name(), cli.seed)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());
    Ok(())
}

/// Runs one invocation; returns the exit code.
fn run(cli: &Cli) -> i32 {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "avbench: workload {} seed {} seconds {} trace {} | nproc {nproc}, \
         {WORKERS} executor workers, {CLIENTS} daemon clients",
        cli.workload.name(),
        cli.seed,
        cli.seconds,
        u8::from(cli.trace)
    );
    let trace = Trace::new(cli.trace);
    let mut ledger = Ledger::default();
    let mut metrics = Metrics::new(if cli.trace { per_layer() } else { end_to_end() });
    match WorkDir::create() {
        Ok(work) => {
            if let Err(e) = measure(cli, &work.0, &trace, &mut ledger, &mut metrics) {
                ledger.check(false, || e);
            }
        }
        Err(e) => ledger.check(false, || e),
    }
    for failure in &ledger.failures {
        eprintln!("avbench: FAILED {failure}");
    }
    for name in metrics.missing() {
        eprintln!("avbench: metric {name} was not measured");
    }
    print!("{}", metrics.render());
    println!("{}", result_line(&ledger, &metrics));
    if correct(&ledger, &metrics) {
        0
    } else {
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, dir] = argv.as_slice() {
        if flag == "--setup-into" {
            if let Err(e) = workloads::setup_child(Path::new(dir)) {
                eprintln!("avbench set-up: {e}");
                std::process::exit(1);
            }
            return;
        }
    }
    match Cli::parse(&argv) {
        Ok(cli) => std::process::exit(run(&cli)),
        Err(e) => {
            eprintln!("avbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_suite::api::Json;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn cli_takes_the_driver_flags_and_rejects_bad_values() {
        let cli = Cli::parse(&argv(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            cli,
            Cli {
                workload: Workload::ServeMixed,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        let bare = Cli::parse(&argv(&["--trace", "--workload", "paper_cold"])).expect("valid");
        assert!(bare.trace);
        let off = Cli::parse(&argv(&["--workload", "paper_cold", "--trace", "0"])).expect("valid");
        assert!(!off.trace);
        for bad in [
            &["--seed", "7"][..],
            &["--workload", "nope"],
            &["--workload", "paper_cold", "--seed", "2O"],
            &["--workload", "paper_cold", "--seconds", "0"],
            &["--workload", "paper_cold", "--frobnicate"],
        ] {
            assert!(Cli::parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn is_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn printed_names_are_well_formed_and_declared_in_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let pairs = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), pairs(end_to_end()));
        assert_eq!(declared(&doc, "per_layer"), pairs(per_layer()));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for (name, _) in end_to_end().into_iter().chain(per_layer()) {
            assert!(is_name(&name), "{name}");
        }
        assert!(per_layer().len() <= 128);
    }
}
