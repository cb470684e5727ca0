//! The long-lived evaluation service.
//!
//! `suite serve` turns the one-shot orchestrator into a daemon: clients
//! send newline-delimited JSON [`EvalRequest`]s over stdin/stdout
//! ([`serve_lines`]) or a Unix socket ([`serve_unix`]), and each request
//! streams back [`EvalEvent`] lines — accepted, job-started, job-finished,
//! stdout-chunk — terminated by exactly one done/error response.
//!
//! Three properties define the service:
//!
//! - **One shared store.** Every request executes against the same
//!   [`crate::store::ArtifactStore`], whose in-flight claim registry
//!   (see [`crate::dedup`]) collapses concurrent identical computations:
//!   two requests needing the same oracle block on a single training job.
//! - **Admission control.** A bounded pool of request slots drains a
//!   two-class FIFO queue — `interactive` requests are admitted before any
//!   queued `batch` request — so a 2000-run campaign cannot starve a quick
//!   `--only fig5` query for longer than the slot bound.
//! - **Hostile-input safety.** Both transports run one per-connection
//!   admission loop that keeps at most 64 KiB of a line, so a client that
//!   never sends a newline cannot grow the daemon's memory. A bad line
//!   (not JSON, not UTF-8, over-long, an invalid request) gets a typed
//!   `bad_request` response and nothing else; the daemon never panics or
//!   exits on bad input. Shutdown is explicit: the `{"shutdown":true}`
//!   sentinel (or stdin EOF) stops admission, drains queued requests, and
//!   returns.
//!
//! Everything is std-only scoped threads — no async runtime — and the
//! daemon waits on events, never on a timer. The socket acceptor blocks in
//! `accept`, so a connection is admitted the moment it arrives; the
//! connection that reads the shutdown sentinel wakes it with one connection
//! of its own to the socket path (which must therefore belong to this
//! daemon); and the drain is the join of the connection threads' scope
//! followed by closing the queue. Per-request
//! event ordering is guaranteed (one writer mutex per client);
//! cross-request interleaving is not, which is why every event carries its
//! request id.

use crate::api::{
    ApiError, ClientMessage, ErrorCode, EvalEvent, EvalRequest, EvalResponse, MAX_LINE,
};
use crate::dag::Dag;
use crate::exec::{execute, ExecEvent, ExecOptions};
use av_telemetry::{Telemetry, TraceEvent};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What the daemon needs from the experiment layer: turn a validated
/// request into an executable DAG, and report the shared store's dedup
/// counters. The `suite` binary implements this over `paper_dag`; tests
/// implement it over synthetic DAGs.
pub trait EvalService: Send + Sync {
    /// Builds the subgraph for `req`. Errors become a typed
    /// [`EvalResponse::Error`] for the client (never a panic).
    fn dag_for(&self, req: &EvalRequest) -> Result<Dag, (ErrorCode, String)>;

    /// ⟨led, coalesced⟩ counters of the shared store's in-flight dedup
    /// registry (see [`crate::store::ArtifactStore::dedup_counters`]).
    fn dedup_counters(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Concurrent requests executing at once; further requests queue in
    /// priority-FIFO order. This is the admission bound that keeps a small
    /// request's wait behind a large one finite.
    pub request_slots: usize,
    /// Per-request worker-pool cap: a request's `jobs` field is clamped to
    /// this, so no client can monopolize the machine.
    pub max_workers: usize,
    /// Telemetry handle for `RequestAccepted`/`RequestFinished` events.
    pub telemetry: Telemetry,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            request_slots: 2,
            max_workers: 8,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// What one daemon lifetime processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests admitted to a slot (including ones that ended in a typed
    /// error).
    pub requests: u64,
    /// Typed error responses emitted — parse failures and failed requests.
    pub errors: u64,
}

impl ServeReport {
    /// Renders the machine-greppable shutdown summary (for stderr), with
    /// the shared store's dedup counters appended — CI asserts on the
    /// `dedup led=` value to prove cross-request coalescing.
    pub fn render_summary(&self, dedup: (u64, u64)) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "[serve] requests={} errors={} dedup led={} coalesced={}",
            self.requests, self.errors, dedup.0, dedup.1
        );
        s
    }
}

/// A line-oriented writer shared between the admission loop and request
/// slots: one mutex per client connection keeps each event line atomic.
#[derive(Clone)]
struct SharedWriter {
    inner: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl SharedWriter {
    fn new(writer: Box<dyn Write + Send>) -> SharedWriter {
        SharedWriter {
            inner: Arc::new(Mutex::new(writer)),
        }
    }

    /// Writes `event` as one line, newline included, in a single
    /// `write_all`, so a reader never wakes on half a line. Failures are
    /// ignored — a client that hung up mid-request loses its remaining
    /// events, nothing else.
    fn emit(&self, event: &EvalEvent) {
        let mut line = event.to_json();
        line.push('\n');
        let mut writer = self.inner.lock().expect("serve writer lock");
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.flush();
    }
}

/// One admitted unit of work: the request plus the connection to answer on.
struct Work {
    req: EvalRequest,
    writer: SharedWriter,
}

#[derive(Default)]
struct QueueInner {
    interactive: VecDeque<Work>,
    batch: VecDeque<Work>,
    closed: bool,
}

/// The two-class FIFO admission queue.
#[derive(Default)]
struct RequestQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

impl RequestQueue {
    fn push(&self, work: Work) {
        let mut q = self.inner.lock().expect("request queue lock");
        match work.req.priority {
            crate::api::Priority::Interactive => q.interactive.push_back(work),
            crate::api::Priority::Batch => q.batch.push_back(work),
        }
        drop(q);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.inner.lock().expect("request queue lock").closed = true;
        self.ready.notify_all();
    }

    /// Pops the next request — interactive before batch, FIFO within each
    /// class — blocking until work arrives or the queue closes. `None`
    /// means closed *and* drained: queued requests always complete.
    fn pop(&self) -> Option<Work> {
        let mut q = self.inner.lock().expect("request queue lock");
        loop {
            if let Some(work) = q.interactive.pop_front().or_else(|| q.batch.pop_front()) {
                return Some(work);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).expect("request queue lock");
        }
    }
}

/// Executes one admitted request end to end, streaming events to its
/// writer. Returns whether the request completed successfully.
fn run_request(service: &dyn EvalService, opts: &ServeOptions, work: Work) -> bool {
    let Work { req, writer } = work;
    opts.telemetry.emit(0.0, || TraceEvent::RequestAccepted {
        request: req.id.clone(),
    });
    let finish = |ok: bool| {
        opts.telemetry.emit(0.0, || TraceEvent::RequestFinished {
            request: req.id.clone(),
        });
        ok
    };

    let dag = match service.dag_for(&req) {
        Ok(dag) => dag,
        Err((code, message)) => {
            writer.emit(&EvalEvent::Response(EvalResponse::Error {
                request: req.id.clone(),
                code,
                message,
            }));
            return finish(false);
        }
    };
    writer.emit(&EvalEvent::Accepted {
        request: req.id.clone(),
        jobs: dag.len(),
    });

    let started = Instant::now();
    let observer_writer = writer.clone();
    let observer_request = req.id.clone();
    let exec_opts = ExecOptions::new()
        .workers(req.jobs.clamp(1, opts.max_workers.max(1)))
        .observer(move |event| match event {
            ExecEvent::JobStarted { job } => observer_writer.emit(&EvalEvent::JobStarted {
                request: observer_request.clone(),
                job: job.to_string(),
            }),
            ExecEvent::JobFinished { report } => {
                observer_writer.emit(&EvalEvent::JobFinished {
                    request: observer_request.clone(),
                    job: report.id.clone(),
                    wall_ms: report.wall_ms,
                    hits: report.artifact_hits,
                    misses: report.artifact_misses,
                    skipped: report.skipped,
                });
                if report.emits_stdout {
                    observer_writer.emit(&EvalEvent::StdoutChunk {
                        request: observer_request.clone(),
                        job: report.id.clone(),
                        stdout: report.stdout.clone(),
                    });
                }
            }
        });

    let response = match execute(&dag, &exec_opts) {
        Ok(report) => {
            let (hits, misses) = report.artifact_totals();
            let (led, coalesced) = service.dedup_counters();
            EvalResponse::Done {
                request: req.id.clone(),
                jobs_run: report.jobs_run() as u64,
                jobs_skipped: report.jobs_skipped() as u64,
                artifact_hits: hits,
                artifact_misses: misses,
                dedup_led: led,
                dedup_coalesced: coalesced,
                stdout_jobs: report
                    .jobs
                    .iter()
                    .filter(|j| j.emits_stdout)
                    .map(|j| j.id.clone())
                    .collect(),
                wall_ms: started.elapsed().as_millis() as u64,
            }
        }
        Err(e) => EvalResponse::Error {
            request: req.id.clone(),
            code: ErrorCode::ExecFailed,
            message: e.to_string(),
        },
    };
    let ok = matches!(response, EvalResponse::Done { .. });
    writer.emit(&EvalEvent::Response(response));
    finish(ok)
}

/// The admission side of one daemon lifetime: the queue every connection
/// feeds and the request slots drain, and the counts of the shutdown
/// summary.
#[derive(Default)]
struct Admission {
    queue: RequestQueue,
    requests: AtomicU64,
    errors: AtomicU64,
    next_id: AtomicU64,
}

impl Admission {
    /// Starts `opts.request_slots` request slots; each runs admitted
    /// requests until the queue is closed and drained.
    fn spawn_slots<'scope>(
        &'scope self,
        scope: &'scope std::thread::Scope<'scope, '_>,
        service: &'scope dyn EvalService,
        opts: &'scope ServeOptions,
    ) {
        for _ in 0..opts.request_slots.max(1) {
            scope.spawn(move || {
                while let Some(work) = self.queue.pop() {
                    self.requests.fetch_add(1, Ordering::Relaxed);
                    if !run_request(service, opts, work) {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    }

    /// One connection's admission loop: reads request lines from `input`
    /// until EOF, an I/O error or the shutdown sentinel, enqueueing each
    /// request and answering each bad line with a typed error on `writer`.
    /// Returns whether the connection sent the sentinel.
    fn admit(&self, mut input: impl BufRead, writer: &SharedWriter) -> bool {
        let mut line = Vec::new();
        while let Ok(true) = read_line(&mut input, &mut line) {
            let message = if line.len() > MAX_LINE {
                Err(ApiError::LineTooLong)
            } else {
                match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(text) => EvalRequest::parse(text),
                    Err(e) => Err(ApiError::Syntax(format!("line is not UTF-8: {e}"))),
                }
            };
            match message {
                Ok(ClientMessage::Shutdown) => return true,
                Ok(ClientMessage::Eval(mut req)) => {
                    if req.id.is_empty() {
                        req.id = format!("req-{}", self.next_id.fetch_add(1, Ordering::Relaxed));
                    }
                    self.queue.push(Work {
                        req,
                        writer: writer.clone(),
                    });
                }
                Err(e) => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    writer.emit(&EvalEvent::Response(EvalResponse::Error {
                        request: String::new(),
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    }));
                }
            }
        }
        false
    }

    fn report(&self) -> ServeReport {
        ServeReport {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// Reads one line into `line`, newline excluded, keeping at most
/// `MAX_LINE + 1` of its bytes (so an over-long line shows as one) while
/// still consuming it through its newline. `Ok(false)` at EOF with nothing
/// read.
fn read_line(input: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<bool> {
    line.clear();
    let bound = MAX_LINE as u64 + 1;
    if Read::take(&mut *input, bound).read_until(b'\n', line)? == 0 {
        return Ok(false);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_LINE {
        input.skip_until(b'\n')?;
    }
    Ok(true)
}

/// Serves newline-delimited requests from `input`, streaming all events to
/// `output` (the stdin/stdout transport, also the test harness transport).
/// Returns after EOF or a shutdown sentinel, once queued requests drain.
pub fn serve_lines<R: BufRead>(
    input: R,
    output: Box<dyn Write + Send>,
    service: &dyn EvalService,
    opts: &ServeOptions,
) -> ServeReport {
    let admission = Admission::default();
    std::thread::scope(|scope| {
        admission.spawn_slots(scope, service, opts);
        admission.admit(input, &SharedWriter::new(output));
        admission.queue.close();
    });
    admission.report()
}

/// Serves requests on a Unix socket at `path` (created fresh; a stale
/// socket file is replaced, so `path` must belong to this daemon). Each
/// connection gets its own reader thread and response writer; requests from
/// all connections share the slot pool and the store.
///
/// The acceptor blocks in `accept`, so a connection is admitted the moment
/// it arrives. The connection that reads a `{"shutdown":true}` sentinel
/// sets the shutdown flag and then connects to `path` once itself: that
/// wakes the acceptor, which sees the flag and stops accepting. Returns
/// once open connections close (their threads are joined) and queued
/// requests drain.
pub fn serve_unix(
    path: &Path,
    service: &dyn EvalService,
    opts: &ServeOptions,
) -> std::io::Result<ServeReport> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;

    let admission = Admission::default();
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        admission.spawn_slots(scope, service, opts);
        // The end of this inner scope joins every connection thread: once
        // it returns, no connection can enqueue, so the queue closes and
        // the slots drain and exit.
        std::thread::scope(|connections| {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                let writer = SharedWriter::new(Box::new(write_half));
                let (admission, shutdown) = (&admission, &shutdown);
                connections.spawn(move || {
                    if admission.admit(BufReader::new(stream), &writer) {
                        shutdown.store(true, Ordering::SeqCst);
                        // Wake the acceptor; if it already stopped, the
                        // refused connection is harmless.
                        let _ = UnixStream::connect(path);
                    }
                });
            }
        });
        admission.queue.close();
    });

    let _ = std::fs::remove_file(path);
    Ok(admission.report())
}

// ---------------------------------------------------------------------------
// Client half (used by `suite request` and CI)
// ---------------------------------------------------------------------------

/// Everything a client got back for one request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Progress events in arrival order (excluding the terminal response).
    pub events: Vec<EvalEvent>,
    /// The terminal done/error response.
    pub response: EvalResponse,
    /// Report stdout reassembled from chunks in the response's
    /// `stdout_jobs` order — byte-identical to the one-shot binary's
    /// stdout for the same subgraph. Empty on error.
    pub stdout: String,
}

/// Connects to `path`, retrying until `timeout` elapses — covers the gap
/// between spawning the daemon and the socket appearing. The pause between
/// attempts doubles from 1 ms up to 50 ms, so a daemon that binds its
/// socket just after the first attempt costs about a millisecond.
pub fn connect_unix(path: &Path, timeout: Duration) -> std::io::Result<UnixStream> {
    const MAX_PAUSE: Duration = Duration::from_millis(50);
    let deadline = Instant::now() + timeout;
    let mut pause = Duration::from_millis(1);
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(e);
                }
                std::thread::sleep(pause.min(deadline - now));
                pause = (pause * 2).min(MAX_PAUSE);
            }
        }
    }
}

/// Sends `req` over the socket at `path` and blocks until its terminal
/// response, calling `on_event` for each progress event as it streams in.
pub fn request_over_unix(
    path: &Path,
    req: &EvalRequest,
    timeout: Duration,
    mut on_event: impl FnMut(&EvalEvent),
) -> std::io::Result<RequestOutcome> {
    let mut stream = connect_unix(path, timeout)?;
    let reader = BufReader::new(stream.try_clone()?);
    writeln!(stream, "{}", req.to_json())?;

    let mut events = Vec::new();
    let mut chunks: HashMap<String, String> = HashMap::new();
    for line in reader.lines() {
        let line = line?;
        let Some(event) = EvalEvent::parse(&line) else {
            continue;
        };
        if event.request() != req.id {
            continue;
        }
        if let EvalEvent::Response(response) = event {
            let stdout = match &response {
                EvalResponse::Done { stdout_jobs, .. } => stdout_jobs
                    .iter()
                    .filter_map(|id| chunks.get(id).map(String::as_str))
                    .collect(),
                EvalResponse::Error { .. } => String::new(),
            };
            return Ok(RequestOutcome {
                events,
                response,
                stdout,
            });
        }
        if let EvalEvent::StdoutChunk { job, stdout, .. } = &event {
            chunks.insert(job.clone(), stdout.clone());
        }
        on_event(&event);
        events.push(event);
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "server closed the connection before a terminal response",
    ))
}

/// Sends the shutdown sentinel to the daemon at `path`.
pub fn send_shutdown(path: &Path, timeout: Duration) -> std::io::Result<()> {
    let mut stream = connect_unix(path, timeout)?;
    writeln!(stream, "{}", EvalRequest::shutdown_json())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Priority;
    use crate::dag::{Job, JobOutcome};
    use std::io::Cursor;
    use std::sync::mpsc;

    /// A capture buffer usable as the serve output.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Capture {
        fn take_lines(&self) -> Vec<String> {
            let bytes = self.0.lock().expect("capture lock");
            String::from_utf8_lossy(&bytes)
                .lines()
                .map(str::to_string)
                .collect()
        }
    }

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("capture lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Builds `count` sleep jobs (one stdout job at the end) per request:
    /// `only=["sleep:N"]` → N jobs of ~15 ms each; `only=["noop"]` → one job
    /// that returns at once.
    struct ToyService;

    impl EvalService for ToyService {
        fn dag_for(&self, req: &EvalRequest) -> Result<Dag, (ErrorCode, String)> {
            let (count, pause): (usize, u64) = match req.only.as_slice() {
                [spec] if spec == "noop" => (1, 0),
                [spec] => spec
                    .strip_prefix("sleep:")
                    .and_then(|n| n.parse().ok())
                    .map(|n| (n, 15))
                    .ok_or((ErrorCode::UnknownJob, format!("no job {:?}", spec)))?,
                _ => (1, 15),
            };
            let jobs = (0..count)
                .map(|i| {
                    let job = Job::new(format!("step-{i}"), move |_| {
                        if pause > 0 {
                            std::thread::sleep(Duration::from_millis(pause));
                        }
                        JobOutcome {
                            stdout: format!("step-{i}\n"),
                            ..JobOutcome::default()
                        }
                    });
                    if i == count - 1 {
                        job.emits_stdout()
                    } else {
                        job
                    }
                })
                .collect();
            Dag::new(jobs).map_err(|e| (ErrorCode::BadRequest, e.to_string()))
        }
    }

    fn events_of(lines: &[String]) -> Vec<EvalEvent> {
        lines
            .iter()
            .filter_map(|line| EvalEvent::parse(line))
            .collect()
    }

    #[test]
    fn requests_stream_events_and_terminate_with_done() {
        let capture = Capture::default();
        let input = Cursor::new(format!(
            "{}\n",
            EvalRequest {
                id: "r1".into(),
                only: vec!["sleep:2".into()],
                ..EvalRequest::default()
            }
            .to_json()
        ));
        let report = serve_lines(
            input,
            Box::new(capture.clone()),
            &ToyService,
            &ServeOptions::default(),
        );
        assert_eq!(
            report,
            ServeReport {
                requests: 1,
                errors: 0
            }
        );

        let events = events_of(&capture.take_lines());
        assert!(matches!(
            events.first(),
            Some(EvalEvent::Accepted { jobs: 2, .. })
        ));
        assert!(events.iter().all(|e| e.request() == "r1"));
        let done = events
            .iter()
            .find_map(|e| match e {
                EvalEvent::Response(r @ EvalResponse::Done { .. }) => Some(r.clone()),
                _ => None,
            })
            .expect("terminal done");
        match done {
            EvalResponse::Done {
                jobs_run,
                stdout_jobs,
                ..
            } => {
                assert_eq!(jobs_run, 2);
                assert_eq!(stdout_jobs, vec!["step-1".to_string()]);
            }
            EvalResponse::Error { .. } => unreachable!(),
        }
        // The stdout chunk of the emitting job arrived before done.
        assert!(events.iter().any(|e| matches!(
            e,
            EvalEvent::StdoutChunk { job, stdout, .. } if job == "step-1" && stdout == "step-1\n"
        )));
    }

    #[test]
    fn a_report_streams_before_jobs_that_unblock_no_report_start() {
        // sleep:3 is three independent jobs; only step-2 emits stdout, so
        // one worker runs it first and its event leads the stream.
        let capture = Capture::default();
        let input = Cursor::new(format!(
            "{}\n",
            EvalRequest {
                id: "r1".into(),
                only: vec!["sleep:3".into()],
                jobs: 1,
                ..EvalRequest::default()
            }
            .to_json()
        ));
        serve_lines(
            input,
            Box::new(capture.clone()),
            &ToyService,
            &ServeOptions::default(),
        );
        let events = events_of(&capture.take_lines());
        let report_finished = events
            .iter()
            .position(|e| matches!(e, EvalEvent::JobFinished { job, .. } if job == "step-2"))
            .expect("step-2 finished");
        let first_started = events
            .iter()
            .position(|e| matches!(e, EvalEvent::JobStarted { job, .. } if job == "step-0"))
            .expect("step-0 started");
        assert!(report_finished < first_started, "{events:?}");
    }

    #[test]
    fn malformed_lines_get_typed_errors_and_never_kill_the_daemon() {
        let capture = Capture::default();
        let hostile = [
            "garbage",
            "[1,2,3]",
            "{\"runs\":0}",
            "{\"only\":\"not-an-array\"}",
            &format!("{}1{}", "[".repeat(2000), "]".repeat(2000)),
            "{\"a\":\"\\u12\"}",
        ];
        // Hostile lines interleaved with one valid request: the valid one
        // still completes.
        let mut input = String::new();
        for line in hostile {
            input.push_str(line);
            input.push('\n');
        }
        input.push_str(&format!(
            "{}\n",
            EvalRequest {
                id: "survivor".into(),
                only: vec!["sleep:1".into()],
                ..EvalRequest::default()
            }
            .to_json()
        ));
        let report = serve_lines(
            Cursor::new(input),
            Box::new(capture.clone()),
            &ToyService,
            &ServeOptions::default(),
        );
        assert_eq!(report.requests, 1, "only the valid request was admitted");
        assert_eq!(report.errors as usize, hostile.len());

        let events = events_of(&capture.take_lines());
        let typed_errors = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    EvalEvent::Response(EvalResponse::Error {
                        code: ErrorCode::BadRequest,
                        ..
                    })
                )
            })
            .count();
        assert_eq!(typed_errors, hostile.len(), "every hostile line answered");
        assert!(
            events.iter().any(|e| matches!(
                e,
                EvalEvent::Response(EvalResponse::Done { request, .. }) if request == "survivor"
            )),
            "the valid request completed after the hostile ones"
        );
    }

    #[test]
    fn over_long_and_non_utf8_lines_get_typed_errors_and_admission_goes_on() {
        let mut input = vec![b'{'; 1 << 20];
        input.push(b'\n');
        input.extend_from_slice(b"{\"request\":\"\xff\xfe\"}\n");
        input.extend_from_slice(
            EvalRequest {
                id: "after".into(),
                only: vec!["sleep:1".into()],
                ..EvalRequest::default()
            }
            .to_json()
            .as_bytes(),
        );
        // The reader keeps at most one byte past the bound of a line that
        // never ends, however much of it arrives.
        let mut line = Vec::new();
        assert!(read_line(&mut Cursor::new(&input[..1 << 20]), &mut line).unwrap());
        assert_eq!(line.len(), MAX_LINE + 1);

        let capture = Capture::default();
        let report = serve_lines(
            Cursor::new(input),
            Box::new(capture.clone()),
            &ToyService,
            &ServeOptions::default(),
        );
        assert_eq!(
            report,
            ServeReport {
                requests: 1,
                errors: 2
            }
        );
        let outcomes: Vec<(String, Option<ErrorCode>)> = events_of(&capture.take_lines())
            .into_iter()
            .filter_map(|e| match e {
                EvalEvent::Response(EvalResponse::Error { request, code, .. }) => {
                    Some((request, Some(code)))
                }
                EvalEvent::Response(EvalResponse::Done { request, .. }) => Some((request, None)),
                _ => None,
            })
            .collect();
        assert_eq!(
            outcomes,
            [
                (String::new(), Some(ErrorCode::BadRequest)),
                (String::new(), Some(ErrorCode::BadRequest)),
                ("after".to_string(), None),
            ]
        );
    }

    #[test]
    fn unknown_job_is_a_typed_error_not_a_crash() {
        let capture = Capture::default();
        let input = Cursor::new(format!(
            "{}\n",
            EvalRequest {
                id: "r1".into(),
                only: vec!["sleep:NaN".into()],
                ..EvalRequest::default()
            }
            .to_json()
        ));
        let report = serve_lines(
            input,
            Box::new(capture.clone()),
            &ToyService,
            &ServeOptions::default(),
        );
        assert_eq!(
            report,
            ServeReport {
                requests: 1,
                errors: 1
            }
        );
        let events = events_of(&capture.take_lines());
        assert!(events.iter().any(|e| matches!(
            e,
            EvalEvent::Response(EvalResponse::Error {
                request,
                code: ErrorCode::UnknownJob,
                ..
            }) if request == "r1"
        )));
    }

    #[test]
    fn interactive_requests_jump_the_batch_queue() {
        // One slot, two batch requests queued ahead of a later interactive
        // one. Whichever request happens to grab the slot first, the
        // interactive request must complete before the batch request that
        // is still queued when it arrives — it jumps the batch class.
        let capture = Capture::default();
        let mk = |id: &str, steps: usize, priority: Priority| EvalRequest {
            id: id.into(),
            only: vec![format!("sleep:{steps}")],
            priority,
            ..EvalRequest::default()
        };
        let input = format!(
            "{}\n{}\n{}\n",
            mk("batch-1", 6, Priority::Batch).to_json(),
            mk("batch-2", 6, Priority::Batch).to_json(),
            mk("quick", 1, Priority::Interactive).to_json(),
        );
        let opts = ServeOptions {
            request_slots: 1,
            ..ServeOptions::default()
        };
        let report = serve_lines(
            Cursor::new(input),
            Box::new(capture.clone()),
            &ToyService,
            &opts,
        );
        assert_eq!(report.requests, 3);

        let lines = capture.take_lines();
        let done_order: Vec<String> = events_of(&lines)
            .into_iter()
            .filter_map(|e| match e {
                EvalEvent::Response(EvalResponse::Done { request, .. }) => Some(request),
                _ => None,
            })
            .collect();
        assert_eq!(done_order.len(), 3);
        let pos = |id: &str| done_order.iter().position(|r| r == id).unwrap();
        // At most one batch request can be running when "quick" arrives, so
        // "quick" finishes before at least one of them; FIFO within the
        // batch class means batch-1 never trails batch-2.
        assert!(
            pos("quick") < pos("batch-2"),
            "interactive jumped the queue: {done_order:?}"
        );
        assert!(
            pos("batch-1") < pos("batch-2"),
            "FIFO within the batch class"
        );
    }

    #[test]
    fn small_request_is_not_starved_by_a_large_one() {
        // Two slots: a large campaign in one, a small query right behind
        // it. The small one must complete while the large one is still
        // running — its Done line appears strictly before the large one's.
        let capture = Capture::default();
        let input = format!(
            "{}\n{}\n",
            EvalRequest {
                id: "large".into(),
                only: vec!["sleep:12".into()],
                ..EvalRequest::default()
            }
            .to_json(),
            EvalRequest {
                id: "small".into(),
                only: vec!["sleep:1".into()],
                ..EvalRequest::default()
            }
            .to_json(),
        );
        let report = serve_lines(
            Cursor::new(input),
            Box::new(capture.clone()),
            &ToyService,
            &ServeOptions::default(), // 2 slots
        );
        assert_eq!(
            report,
            ServeReport {
                requests: 2,
                errors: 0
            }
        );
        let done_order: Vec<String> = events_of(&capture.take_lines())
            .into_iter()
            .filter_map(|e| match e {
                EvalEvent::Response(EvalResponse::Done { request, .. }) => Some(request),
                _ => None,
            })
            .collect();
        assert_eq!(done_order, ["small", "large"]);
    }

    #[test]
    fn shutdown_sentinel_drains_queued_requests_before_returning() {
        let capture = Capture::default();
        let input = format!(
            "{}\n{}\n{}\nignored after shutdown\n",
            EvalRequest {
                id: "a".into(),
                only: vec!["sleep:2".into()],
                ..EvalRequest::default()
            }
            .to_json(),
            EvalRequest {
                id: "b".into(),
                only: vec!["sleep:2".into()],
                ..EvalRequest::default()
            }
            .to_json(),
            EvalRequest::shutdown_json(),
        );
        let opts = ServeOptions {
            request_slots: 1,
            ..ServeOptions::default()
        };
        let report = serve_lines(
            Cursor::new(input),
            Box::new(capture.clone()),
            &ToyService,
            &opts,
        );
        // Both pre-shutdown requests ran; the post-shutdown line was never
        // read (and caused no error).
        assert_eq!(
            report,
            ServeReport {
                requests: 2,
                errors: 0
            }
        );
        let done: Vec<String> = events_of(&capture.take_lines())
            .into_iter()
            .filter_map(|e| match e {
                EvalEvent::Response(EvalResponse::Done { request, .. }) => Some(request),
                _ => None,
            })
            .collect();
        assert_eq!(done, ["a", "b"]);
    }

    #[test]
    fn unix_socket_round_trip_with_concurrent_clients() {
        let dir = std::env::temp_dir().join(format!("serve-unix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let socket = dir.join("suite.sock");

        std::thread::scope(|scope| {
            let server = scope.spawn({
                let socket = socket.clone();
                move || serve_unix(&socket, &ToyService, &ServeOptions::default())
            });

            let timeout = Duration::from_secs(10);
            let clients: Vec<_> = (0..2)
                .map(|i| {
                    let socket = socket.clone();
                    scope.spawn(move || {
                        let req = EvalRequest {
                            id: format!("client-{i}"),
                            only: vec!["sleep:3".into()],
                            ..EvalRequest::default()
                        };
                        request_over_unix(&socket, &req, timeout, |_| {})
                    })
                })
                .collect();
            for (i, client) in clients.into_iter().enumerate() {
                let outcome = client
                    .join()
                    .expect("client thread")
                    .expect("client outcome");
                assert!(
                    matches!(outcome.response, EvalResponse::Done { .. }),
                    "client {i}: {:?}",
                    outcome.response
                );
                assert_eq!(outcome.stdout, "step-2\n", "client {i} stdout");
            }

            send_shutdown(&socket, timeout).expect("shutdown");
            let report = server
                .join()
                .expect("server thread")
                .expect("server report");
            assert_eq!(
                report,
                ServeReport {
                    requests: 2,
                    errors: 0
                }
            );
        });

        assert!(!socket.exists(), "socket file removed on shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A socket path in the temp dir, unique per test and process; the
    /// daemon replaces a stale file there and removes its own at shutdown.
    fn scratch_socket(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("serve-{name}-{}.sock", std::process::id()))
    }

    /// Starts a daemon on `socket` on a detached thread, so a daemon that
    /// never returns fails the test at a `recv_timeout` instead of hanging
    /// it; the channel carries the daemon's result.
    fn spawn_daemon(socket: &Path) -> mpsc::Receiver<std::io::Result<ServeReport>> {
        let (tx, rx) = mpsc::channel();
        let socket = socket.to_path_buf();
        std::thread::spawn(move || {
            let _ = tx.send(serve_unix(&socket, &ToyService, &ServeOptions::default()));
        });
        rx
    }

    fn request(id: &str, only: &str) -> EvalRequest {
        EvalRequest {
            id: id.into(),
            only: vec![only.into()],
            ..EvalRequest::default()
        }
    }

    fn assert_done(socket: &Path, req: &EvalRequest) {
        let outcome =
            request_over_unix(socket, req, Duration::from_secs(10), |_| {}).expect("round trip");
        assert!(
            matches!(outcome.response, EvalResponse::Done { .. }),
            "{}: {:?}",
            req.id,
            outcome.response
        );
    }

    #[test]
    fn connections_are_admitted_without_waiting_for_a_poll() {
        let socket = scratch_socket("admit");
        let daemon = spawn_daemon(&socket);
        // The first round trip also waits for the socket to appear.
        assert_done(&socket, &request("warm-up", "noop"));

        // One connection per request, as `suite request` makes them. A
        // daemon that polls its listener every 20 ms makes each of these
        // wait most of a period: about 0.8 s for the 40.
        let started = Instant::now();
        for i in 0..40 {
            assert_done(&socket, &request(&format!("noop-{i}"), "noop"));
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(400),
            "40 sequential round trips took {elapsed:?}"
        );

        send_shutdown(&socket, Duration::from_secs(10)).expect("shutdown");
        let report = daemon
            .recv_timeout(Duration::from_secs(10))
            .expect("daemon returned")
            .expect("daemon report");
        assert_eq!(
            report,
            ServeReport {
                requests: 41,
                errors: 0
            }
        );
    }

    #[test]
    fn shutdown_wakes_an_idle_daemon_promptly() {
        let socket = scratch_socket("shutdown");
        let daemon = spawn_daemon(&socket);
        send_shutdown(&socket, Duration::from_secs(10)).expect("shutdown");
        let report = daemon
            .recv_timeout(Duration::from_secs(2))
            .expect("daemon returned within 2 s of the sentinel")
            .expect("daemon report");
        assert_eq!(
            report,
            ServeReport {
                requests: 0,
                errors: 0
            }
        );
        assert!(!socket.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn shutdown_waits_for_open_connections_to_close() {
        let socket = scratch_socket("drain");
        let daemon = spawn_daemon(&socket);
        let timeout = Duration::from_secs(10);
        let idle = connect_unix(&socket, timeout).expect("idle client");
        // Connections are accepted in order, so once this request is done
        // the idle connection has its own admission thread.
        assert_done(&socket, &request("busy", "sleep:1"));
        send_shutdown(&socket, timeout).expect("shutdown");

        assert!(
            matches!(
                daemon.recv_timeout(Duration::from_millis(300)),
                Err(mpsc::RecvTimeoutError::Timeout)
            ),
            "the daemon returned while a client still held a connection"
        );
        drop(idle);
        let report = daemon
            .recv_timeout(Duration::from_secs(2))
            .expect("daemon returned once the idle connection closed")
            .expect("daemon report");
        assert_eq!(
            report,
            ServeReport {
                requests: 1,
                errors: 0
            }
        );
        assert!(!socket.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn a_client_hanging_up_mid_request_stalls_nothing() {
        let socket = scratch_socket("hangup");
        let daemon = spawn_daemon(&socket);
        let timeout = Duration::from_secs(10);

        // Send a multi-job request and close the socket before any reply:
        // every event the daemon writes for it goes to a closed peer.
        let mut quitter = connect_unix(&socket, timeout).expect("quitter");
        writeln!(quitter, "{}", request("quitter", "sleep:4").to_json()).expect("send");
        quitter.shutdown(std::net::Shutdown::Both).expect("hang up");
        drop(quitter);

        assert_done(&socket, &request("survivor", "sleep:1"));
        send_shutdown(&socket, timeout).expect("shutdown");
        let report = daemon
            .recv_timeout(Duration::from_secs(5))
            .expect("daemon returned")
            .expect("daemon report");
        assert_eq!(
            report,
            ServeReport {
                requests: 2,
                errors: 0
            }
        );
        assert!(!socket.exists(), "socket file removed on shutdown");
    }
}
