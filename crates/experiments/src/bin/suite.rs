//! The evaluation-service orchestrator: runs the whole paper — Table II,
//! Figs. 5–8, the ablations, the defense and resilience studies — as one
//! job DAG on a shared worker pool over one content-addressed artifact
//! store.
//!
//! Three modes, all executing the same typed `EvalRequest`:
//!
//! - **One-shot** (no subcommand): parse the flags into a request, build
//!   its DAG, execute it in-process with the resumable JSONL manifest.
//! - **`suite serve`**: run as a daemon on a Unix socket. Clients send
//!   newline-delimited JSON requests; each streams back events and a
//!   terminal response. All requests share one artifact store, so
//!   concurrent identical oracle trainings coalesce onto a single job.
//! - **`suite request`**: the client — send one request to a running
//!   daemon, mirror its progress to stderr, print the reassembled report
//!   stdout (byte-identical to the one-shot binary's stdout for the same
//!   subgraph). `suite request --shutdown` stops the daemon.
//!
//! Dataset collection and oracle training are explicit preparation jobs,
//! so the six 〈scenario, vector〉 arms are collected and trained exactly
//! once per store no matter how many figures consume them. Each report
//! job's stdout is byte-identical to its standalone binary (CI diffs
//! them); everything else — progress, scorecards, summaries — goes to
//! stderr.
//!
//! Flags (on top of the shared experiment flags): `--jobs N` worker
//! threads, `--only JOB` (repeatable), `--list` (print the DAG and exit),
//! `--manifest FILE`, `--no-resume`, `--socket PATH` (serve/request),
//! `--request-slots N` (serve), `--priority interactive|batch`,
//! `--id NAME` and `--shutdown` (request).

use av_experiments::jobs::PaperEvalService;
use av_experiments::suite::SuiteArgs;
use av_suite::serve::{request_over_unix, send_shutdown, serve_unix, EvalService};
use av_suite::{execute, Dag, EvalEvent, EvalResponse, ExecOptions, ServeOptions};
use std::sync::Arc;
use std::time::Duration;

fn list(dag: &Dag) {
    println!("suite: {} jobs", dag.len());
    for job in dag.jobs() {
        let stdout = if job.is_stdout_job() { " [stdout]" } else { "" };
        println!("  {}{stdout}", job.id());
        if !job.dep_ids().is_empty() {
            println!("    after: {}", job.dep_ids().join(", "));
        }
        if !job.declared_inputs().is_empty() {
            println!("    reads: {}", job.declared_inputs().join(", "));
        }
        if !job.declared_outputs().is_empty() {
            println!("    writes: {}", job.declared_outputs().join(", "));
        }
    }
}

/// One-shot mode: build the request's DAG and execute it in-process with
/// the resumable manifest — the same request type and validation path the
/// daemon uses.
fn one_shot(argv: &[String]) {
    let args = SuiteArgs::parse_from(argv).unwrap_or_else(|e| e.exit());
    let store = Arc::new(args.base.artifact_store());
    let service = PaperEvalService::new(args.base.clone(), store);

    let request = args.to_request();
    let dag = match service.dag_for(&request) {
        Ok(dag) => dag,
        Err((_code, message)) => {
            eprintln!("suite: {message}");
            std::process::exit(2);
        }
    };

    if args.list {
        list(&dag);
        return;
    }

    let opts = ExecOptions::new()
        .workers(request.jobs)
        .manifest(args.manifest_path())
        .resume(!args.no_resume)
        .config_key(args.base.config_key());
    eprintln!(
        "suite: {} jobs, {} workers, manifest {}",
        dag.len(),
        request.jobs,
        args.manifest_path().display()
    );

    match execute(&dag, &opts) {
        Ok(report) => {
            for job in report.jobs.iter().filter(|j| j.emits_stdout) {
                print!("{}", job.stdout);
            }
            eprint!("{}", report.render_summary());
        }
        Err(e) => {
            eprintln!("suite: {e}");
            std::process::exit(1);
        }
    }
}

/// Daemon mode: serve evaluation requests on the Unix socket until a
/// shutdown sentinel arrives, then print the greppable summary.
fn serve_main(argv: &[String]) {
    let args = SuiteArgs::parse_from(argv).unwrap_or_else(|e| e.exit());
    let store = Arc::new(args.base.artifact_store());
    let service = PaperEvalService::new(args.base.clone(), store);
    let opts = ServeOptions {
        request_slots: args.request_slots,
        // `--jobs` in serve mode is the per-request worker-pool cap.
        max_workers: args.jobs,
        ..ServeOptions::default()
    };

    let socket = args.socket_path();
    eprintln!(
        "[serve] listening on {} ({} request slots, {} workers/request max)",
        socket.display(),
        opts.request_slots,
        opts.max_workers
    );
    match serve_unix(&socket, &service, &opts) {
        Ok(report) => eprintln!("{}", report.render_summary(service.dedup_counters())),
        Err(e) => {
            eprintln!("suite serve: {e}");
            std::process::exit(1);
        }
    }
}

/// Client mode: send one request (or the shutdown sentinel) to a running
/// daemon, mirror progress to stderr, print the reassembled stdout.
fn request_main(argv: &[String]) {
    let args = SuiteArgs::parse_from(argv).unwrap_or_else(|e| e.exit());
    let socket = args.socket_path();
    let timeout = Duration::from_secs(30);

    if args.shutdown {
        if let Err(e) = send_shutdown(&socket, timeout) {
            eprintln!("suite request: {e}");
            std::process::exit(1);
        }
        eprintln!("[request] shutdown sent to {}", socket.display());
        return;
    }

    let mut request = args.to_request();
    if request.id.is_empty() {
        request.id = format!("cli-{}", std::process::id());
    }

    let outcome = request_over_unix(&socket, &request, timeout, |event| match event {
        EvalEvent::Accepted { request, jobs } => {
            eprintln!("[request {request}] accepted: {jobs} jobs");
        }
        EvalEvent::JobStarted { request, job } => {
            eprintln!("[request {request}] start {job}");
        }
        EvalEvent::JobFinished {
            request,
            job,
            wall_ms,
            skipped,
            ..
        } => {
            let tag = if *skipped { " (skipped)" } else { "" };
            eprintln!("[request {request}] done {job} in {wall_ms} ms{tag}");
        }
        EvalEvent::StdoutChunk { .. } | EvalEvent::Response(_) => {}
    });
    match outcome {
        Ok(outcome) => match &outcome.response {
            EvalResponse::Done {
                jobs_run,
                jobs_skipped,
                dedup_led,
                dedup_coalesced,
                wall_ms,
                ..
            } => {
                print!("{}", outcome.stdout);
                eprintln!(
                    "[request {}] done: jobs_run={jobs_run} jobs_skipped={jobs_skipped} \
                     dedup led={dedup_led} coalesced={dedup_coalesced} wall_ms={wall_ms}",
                    request.id
                );
            }
            EvalResponse::Error {
                code,
                message,
                request,
            } => {
                eprintln!("suite request [{request}]: {}: {message}", code.name());
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("suite request: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => serve_main(&argv[1..]),
        Some("request") => request_main(&argv[1..]),
        _ => one_shot(&argv),
    }
}
