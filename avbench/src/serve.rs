//! The `serve_mixed` workload: closed-loop clients against an in-process
//! evaluation daemon, driven through `PaperEvalService` + `serve_unix` /
//! `request_over_unix`.

use crate::measure::{median, tail, Ledger};
use crate::trace::Trace;
use crate::workloads::{
    copy_store, critical_path_s, kind_index, ms, ratio, reps_for, run_dag, Ctx, Layers, Measured,
    SearchStats, ServeLayers, WORKERS,
};
use av_experiments::jobs::PaperEvalService;
use av_experiments::suite::Args;
use av_suite::serve::{request_over_unix, send_shutdown, serve_unix, EvalService};
use av_suite::{ArtifactStore, EvalEvent, EvalRequest, EvalResponse, Priority, ServeOptions};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent closed-loop clients: one interactive, one batch.
pub const CLIENTS: usize = 2;
/// Campaign runs per request: small, so admission, wire and queueing are
/// a visible share of each request's latency.
const SERVE_RUNS: u64 = 12;
/// Nominal 2-core seconds of one round — a batch request and its two
/// interactive partners. `--seconds 10` buys 43 rounds: 86 interactive
/// requests (tail p80) and 43 batch requests (tail p75).
const SERVE_ROUND_S: f64 = 0.23;
/// Interactive request kinds (small figures) and batch request kinds
/// (campaign-heavy reports).
const INTERACTIVE: [&str; 3] = ["fig5", "fig8", "ablations"];
const BATCH: [&str; 5] = ["table2", "fig6", "fig7", "defense", "resilience"];
/// How long a client keeps retrying to reach the daemon's socket.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// Deterministic generator for the request script (splitmix64), kept
/// apart from the program's own RNG so a change there cannot change the
/// benchmark's inputs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The clients' request scripts for `seed`: `2 × rounds` interactive
/// requests and `rounds` batch requests, each with its own seed. Each
/// script cycles through its kinds evenly and the seed shuffles the order,
/// so every seed sends the same mix and only order and campaign seeds vary.
pub fn serve_script(seed: u64, rounds: usize) -> [Vec<EvalRequest>; CLIENTS] {
    let mut rng = SplitMix64(seed ^ 0x5E5E_5E5E);
    let mut script = |kinds: &[&str], priority: Priority, prefix: &str, n: usize| {
        let mut order: Vec<&str> = kinds.iter().copied().cycle().take(n).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        order
            .into_iter()
            .enumerate()
            .map(|(i, kind)| EvalRequest {
                id: format!("{prefix}{i}"),
                only: vec![kind.to_string()],
                runs: SERVE_RUNS,
                quick: false,
                seed: rng.next() % 1_000_000,
                batch: None,
                jobs: WORKERS,
                priority,
            })
            .collect()
    };
    let interactive = script(&INTERACTIVE, Priority::Interactive, "i", 2 * rounds);
    let batch = script(&BATCH, Priority::Batch, "b", rounds);
    [interactive, batch]
}

/// What one request saw, from the client's side.
struct RequestLog {
    req: EvalRequest,
    sent: Instant,
    accepted: Option<Instant>,
    last_event: Option<Instant>,
    done: Instant,
    event_bytes: usize,
    /// ⟨job, start arrival, finish arrival, server busy ms, hits, misses⟩.
    jobs: Vec<(String, Instant, Instant, u64, u64, u64)>,
    response: EvalResponse,
    stdout: String,
}

impl RequestLog {
    fn latency_ms(&self) -> f64 {
        ms(self.done.duration_since(self.sent))
    }
}

/// Sends `script` one request at a time, each after the previous reply.
/// Traced clients also count the event stream's bytes.
fn run_client(
    socket: &Path,
    script: &[EvalRequest],
    traced: bool,
) -> Result<Vec<RequestLog>, String> {
    let mut logs = Vec::with_capacity(script.len());
    for req in script {
        let sent = Instant::now();
        let mut accepted = None;
        let mut last_event = None;
        let mut event_bytes = 0;
        let mut starts: HashMap<String, Instant> = HashMap::new();
        let mut jobs = Vec::new();
        let outcome = request_over_unix(socket, req, CONNECT_TIMEOUT, |event| {
            let now = Instant::now();
            last_event = Some(now);
            if traced {
                event_bytes += event.to_json().len() + 1;
            }
            match event {
                EvalEvent::Accepted { .. } => accepted = Some(now),
                EvalEvent::JobStarted { job, .. } => {
                    starts.insert(job.clone(), now);
                }
                EvalEvent::JobFinished {
                    job,
                    wall_ms,
                    hits,
                    misses,
                    ..
                } => {
                    let start = starts.get(job).copied().unwrap_or(now);
                    jobs.push((job.clone(), start, now, *wall_ms, *hits, *misses));
                }
                EvalEvent::StdoutChunk { .. } | EvalEvent::Response(_) => {}
            }
        })
        .map_err(|e| format!("request {}: {e}", req.id))?;
        let done = Instant::now();
        if traced {
            event_bytes += EvalEvent::Response(outcome.response.clone())
                .to_json()
                .len()
                + 1;
        }
        logs.push(RequestLog {
            req: req.clone(),
            sent,
            accepted,
            last_event,
            done,
            event_bytes,
            jobs,
            response: outcome.response,
            stdout: outcome.stdout,
        });
    }
    Ok(logs)
}

/// One pass of the client scripts against a fresh in-process daemon.
struct ServePass {
    started: Instant,
    finished: Instant,
    logs: Vec<RequestLog>,
}

/// Starts a daemon on `socket`, runs every client script to the end, shuts
/// the daemon down and waits for it.
fn serve_pass(
    service: &PaperEvalService,
    socket: &Path,
    scripts: &[Vec<EvalRequest>; CLIENTS],
    traced: bool,
) -> Result<ServePass, String> {
    let opts = ServeOptions {
        request_slots: 1,
        max_workers: WORKERS,
        ..ServeOptions::default()
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_unix(socket, service, &opts));
        // Wait for the socket so no client pays the connect retry sleep.
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        while !socket.exists() && Instant::now() < deadline && !server.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let started = Instant::now();
        let clients: Vec<_> = scripts
            .iter()
            .map(|script| scope.spawn(move || run_client(socket, script, traced)))
            .collect();
        let results: Vec<Result<Vec<RequestLog>, String>> = clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        let finished = Instant::now();
        let shutdown = send_shutdown(socket, CONNECT_TIMEOUT);
        let served = server
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))?;
        shutdown.map_err(|e| format!("shutdown: {e}"))?;
        let mut logs = Vec::new();
        for result in results {
            logs.extend(result?);
        }
        if served.requests != logs.len() as u64 || served.errors != 0 {
            return Err(format!(
                "daemon served {} requests with {} errors; clients sent {}",
                served.requests,
                served.errors,
                logs.len()
            ));
        }
        Ok(ServePass {
            started,
            finished,
            logs,
        })
    })
}

impl ServePass {
    fn wall_s(&self) -> f64 {
        self.finished.duration_since(self.started).as_secs_f64()
    }

    /// Request latencies (ms) of one admission class.
    fn latencies(&self, priority: Priority) -> Vec<f64> {
        self.logs
            .iter()
            .filter(|l| l.req.priority == priority)
            .map(RequestLog::latency_ms)
            .collect()
    }

    fn layers(&self, service: &PaperEvalService) -> Layers {
        let since = |a: Instant, b: Instant| ms(b.saturating_duration_since(a));
        let p50_tail = |xs: &[f64]| (median(xs), tail(xs).0);
        let span = |from: fn(&RequestLog) -> Option<Instant>,
                    to: fn(&RequestLog) -> Option<Instant>| {
            self.logs
                .iter()
                .filter_map(|l| Some(since(from(l)?, to(l)?)))
                .collect::<Vec<f64>>()
        };
        let admit = span(|l| Some(l.sent), |l| l.accepted);
        let exec = span(|l| l.accepted, |l| Some(l.done));
        let reply = span(|l| l.last_event, |l| Some(l.done));

        let mut busy = [0.0; 4];
        let (mut hits, mut misses) = (0, 0);
        let (mut job_busy, mut capacity, mut critical) = (0.0, 0.0, 0.0);
        for log in &self.logs {
            let mut durations = HashMap::new();
            for (job, _, _, wall_ms, h, m) in &log.jobs {
                let secs = *wall_ms as f64 / 1e3;
                busy[kind_index(job)] += secs;
                job_busy += secs;
                durations.insert(job.as_str(), secs);
                hits += h;
                misses += m;
            }
            if let (Some(accepted), Ok(dag)) = (log.accepted, service.dag_for(&log.req)) {
                let workers = WORKERS.min(dag.len()).max(1) as f64;
                capacity += log.done.duration_since(accepted).as_secs_f64() * workers;
                critical += critical_path_s(&dag, &|id| durations.get(id).copied());
            }
        }
        Layers {
            exec_busy_s: busy,
            utilization: if capacity > 0.0 {
                job_busy / capacity
            } else {
                0.0
            },
            critical_path_s: critical,
            hit_ratio: ratio(hits, hits + misses),
            dedup: service.dedup_counters(),
            search: SearchStats::default(),
            serve: ServeLayers {
                admit_ms: p50_tail(&admit),
                exec_ms: p50_tail(&exec),
                reply_ms_p50: median(&reply),
                event_bytes: self.logs.iter().map(|l| l.event_bytes).sum::<usize>() as f64
                    / self.logs.len().max(1) as f64,
                interactive_ms: p50_tail(&self.latencies(Priority::Interactive)),
                batch_ms: p50_tail(&self.latencies(Priority::Batch)),
            },
        }
    }

    fn record(&self, trace: &Trace) {
        let rep = trace.record("rep", None, None, self.started, self.finished);
        for log in &self.logs {
            let id = Some(log.req.id.as_str());
            let request = trace.record("request", rep, id, log.sent, log.done);
            if let Some(accepted) = log.accepted {
                trace.record("admit", request, id, log.sent, accepted);
            }
            for (job, start, end, ..) in &log.jobs {
                trace.record(&format!("job:{job}"), request, id, *start, *end);
            }
            if let Some(last) = log.last_event {
                trace.record("reply", request, id, last, log.done);
            }
        }
    }
}

/// Checks one pass: every request is `done`, the reference request of
/// each kind (`expected`: kind → ⟨request id, stdout⟩) printed exactly the
/// in-process result, and nothing was recomputed over the prepared store.
fn check_pass(
    ledger: &mut Ledger,
    pass: &ServePass,
    expected: &HashMap<&str, (&str, String)>,
    service: &PaperEvalService,
) {
    for log in &pass.logs {
        let done = matches!(log.response, EvalResponse::Done { .. });
        let same = expected
            .get(log.req.only[0].as_str())
            .is_none_or(|(id, stdout)| *id != log.req.id || *stdout == log.stdout);
        ledger.check(done && same, || {
            format!(
                "serve_mixed request {}: done {done}, same as in-process execute {same}",
                log.req.id
            )
        });
    }
    let led = service.dedup_counters().0;
    ledger.check(led == 0, || {
        format!("serve_mixed: {led} artifacts recomputed over a prepared store")
    });
}

/// `serve_mixed`: a closed loop of [`CLIENTS`] clients against an
/// in-process daemon (one request slot, [`WORKERS`] workers per request)
/// over a copy of the prepared store. Small interactive figures and
/// campaign-heavy batch reports, each request with its own seed.
pub fn serve_mixed(ctx: &mut Ctx) -> Result<Measured, String> {
    let rounds = reps_for(ctx.seconds, SERVE_ROUND_S);
    let dir = ctx.work.join("serve");
    copy_store(&ctx.prepared.store, &dir)?;
    let service = PaperEvalService::new(
        Args {
            cache_dir: Some(dir.clone()),
            ..Args::default()
        },
        Arc::new(ArtifactStore::at(&dir)),
    );
    let scripts = serve_script(ctx.seed, rounds);

    // Untimed references: the first request of each kind, executed
    // in-process over the same subgraph.
    let mut expected: HashMap<&str, (&str, String)> = HashMap::new();
    for req in scripts.iter().flatten() {
        if expected.contains_key(req.only[0].as_str()) {
            continue;
        }
        let dag = service.dag_for(req).map_err(|(_, m)| m)?;
        let run = run_dag(&dag, None, "serve reference")?;
        let stdout: String = run
            .report
            .jobs
            .iter()
            .filter(|j| j.emits_stdout)
            .map(|j| j.stdout.as_str())
            .collect();
        expected.insert(&req.only[0], (&req.id, stdout));
    }

    // A relative socket path: Unix socket paths are capped near 108
    // bytes, and the checkout's absolute path may be long.
    let socket = ctx.work.join("s.sock");
    let mut measured = Measured {
        final_store: dir,
        ..Measured::default()
    };
    let pass =
        serve_pass(&service, &socket, &scripts, false).map_err(|e| format!("serve_mixed: {e}"))?;
    check_pass(ctx.ledger, &pass, &expected, &service);
    measured.wall_s.push(pass.wall_s());
    measured
        .latency_ms
        .extend(pass.logs.iter().map(RequestLog::latency_ms));
    for (class, priority) in [
        ("interactive", Priority::Interactive),
        ("batch", Priority::Batch),
    ] {
        let xs = pass.latencies(priority);
        let (value, q) = tail(&xs);
        measured.notes.push(format!(
            "{class} requests: n={} p50 {:.1} ms, p{:.0} {value:.1} ms",
            xs.len(),
            median(&xs),
            100.0 * q
        ));
    }
    measured.notes.push(format!(
        "throughput: {:.2} requests/s",
        pass.logs.len() as f64 / pass.wall_s()
    ));

    if ctx.trace.enabled() {
        let pass = serve_pass(&service, &socket, &scripts, true)
            .map_err(|e| format!("serve_mixed traced: {e}"))?;
        check_pass(ctx.ledger, &pass, &expected, &service);
        pass.record(ctx.trace);
        measured.traced_wall_s = Some(pass.wall_s());
        measured.layers = pass.layers(&service);
    }
    Ok(measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_script_is_deterministic_per_seed() {
        let a = serve_script(2020, 5);
        assert_eq!(a, serve_script(2020, 5));
        assert_ne!(a, serve_script(7, 5), "another seed, another script");
        assert_eq!((a[0].len(), a[1].len()), (10, 5));
        assert!(a[0]
            .iter()
            .all(|r| r.priority == Priority::Interactive
                && INTERACTIVE.contains(&r.only[0].as_str())));
        assert!(a[1]
            .iter()
            .all(|r| r.priority == Priority::Batch && BATCH.contains(&r.only[0].as_str())));
        // Every kind appears equally often, whatever the seed.
        for kind in BATCH {
            assert_eq!(a[1].iter().filter(|r| r.only[0] == kind).count(), 1);
        }
    }
}
