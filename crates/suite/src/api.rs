//! The typed evaluation-service wire API.
//!
//! One request type drives everything: the one-shot `suite` CLI parses its
//! flags into an [`EvalRequest`], and `suite serve` parses the same type off
//! newline-delimited JSON — both then execute the identical request through
//! [`crate::exec::execute`]. Responses stream back as one JSON object per
//! line ([`EvalEvent`]), terminated by exactly one [`EvalResponse`] per
//! request, mirroring the JSONL manifest format.
//!
//! Serde is vendored as a no-op stub in this workspace, so writers format
//! their fields by hand (in a fixed order), and readers parse each line
//! with the suite's one hostile-input-safe JSON reader ([`crate::json`])
//! and then read their fields by name. Every request field is bounded
//! here, before a request is admitted.

pub use crate::json::Json;
pub use av_telemetry::json_escape;
use std::fmt;

/// Upper bounds on request lines and fields — admission control starts at
/// the parser. A legitimate request is a few KiB even at the `only` and
/// `request` caps, so a line longer than [`MAX_LINE`] is refused unread.
pub(crate) const MAX_LINE: usize = 64 * 1024;
const MAX_ID_LEN: usize = 128;
const MAX_TARGETS: usize = 64;
const MAX_JOBS: usize = 512;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Scheduling class for admission control: `Interactive` requests are
/// admitted before any queued `Batch` request, FIFO within each class, so a
/// 2000-run campaign can't starve a quick `--only fig5` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Admitted before any queued batch request.
    Interactive,
    /// Yields to queued interactive requests.
    Batch,
}

impl Priority {
    /// The wire name (`"interactive"` / `"batch"`).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }

    /// Parses a wire name back into a priority.
    pub fn parse(name: &str) -> Option<Priority> {
        match name {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }
}

/// One evaluation request — the unit both the CLI and the daemon execute.
///
/// Field ↔ CLI-flag correspondence: `only` ↔ `--only`, `runs` ↔ `--runs`,
/// `quick` ↔ `--quick`, `seed` ↔ `--seed`, `batch` ↔ `--batch`,
/// `jobs` ↔ `--jobs`, `priority` ↔ `--priority`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Client-chosen correlation id echoed on every event; the daemon
    /// assigns `req-N` when empty.
    pub id: String,
    /// Target job ids (with their transitive deps); empty = the full DAG.
    pub only: Vec<String>,
    /// Campaign runs per arm.
    pub runs: u64,
    /// Quick sweep (reduced δ/k grid).
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Campaign workers claim blocks of this many run indices (at least 1);
    /// `None` = one at a time. Outputs are identical either way.
    pub batch: Option<usize>,
    /// DAG executor workers for this request (capped by the daemon).
    pub jobs: usize,
    /// Admission class.
    pub priority: Priority,
}

impl Default for EvalRequest {
    fn default() -> EvalRequest {
        EvalRequest {
            id: String::new(),
            only: Vec::new(),
            runs: 120,
            quick: false,
            seed: 2020,
            batch: None,
            jobs: 2,
            priority: Priority::Interactive,
        }
    }
}

/// One parsed client line: either an evaluation request or the shutdown
/// sentinel `{"shutdown": true}`.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMessage {
    /// An evaluation request to admit.
    Eval(EvalRequest),
    /// Stop admitting, drain, and exit.
    Shutdown,
}

/// Why a client line was rejected. Every variant maps to a typed
/// [`EvalResponse::Error`]; none of them ever kills the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// The line is not valid JSON (or not UTF-8).
    Syntax(String),
    /// The line is longer than the daemon reads.
    LineTooLong,
    /// The line parsed but is not a JSON object.
    NotAnObject,
    /// A field is present with the wrong type or an out-of-range value.
    BadField {
        /// The offending field name.
        field: &'static str,
        /// What the field must be.
        expected: &'static str,
    },
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Syntax(detail) => write!(f, "invalid JSON: {detail}"),
            ApiError::LineTooLong => write!(f, "request line longer than {MAX_LINE} bytes"),
            ApiError::NotAnObject => write!(f, "request must be a JSON object"),
            ApiError::BadField { field, expected } => {
                write!(f, "field '{field}' must be {expected}")
            }
        }
    }
}

impl std::error::Error for ApiError {}

impl EvalRequest {
    /// Parses one request line. Unknown fields are ignored (forward
    /// compatibility); known fields with wrong types are hard errors so a
    /// typo'd request fails loudly instead of silently running defaults.
    pub fn parse(line: &str) -> Result<ClientMessage, ApiError> {
        let value = Json::parse(line).map_err(ApiError::Syntax)?;
        if !matches!(value, Json::Obj(_)) {
            return Err(ApiError::NotAnObject);
        }
        if field(&value, "shutdown", "true", |v| v.as_bool().filter(|&b| b))?.is_some() {
            return Ok(ClientMessage::Shutdown);
        }

        let mut req = EvalRequest::default();
        if let Some(id) = field(&value, "request", "a string", Json::as_str)? {
            if id.len() > MAX_ID_LEN {
                return Err(ApiError::BadField {
                    field: "request",
                    expected: "at most 128 bytes",
                });
            }
            req.id = id.to_string();
        }
        let ids = |v: &Json| {
            let items = v.as_arr()?.iter();
            items.map(|i| i.as_str().map(str::to_string)).collect()
        };
        if let Some(only) = field::<Vec<String>>(&value, "only", "an array of job ids", ids)? {
            if only.len() > MAX_TARGETS {
                return Err(ApiError::BadField {
                    field: "only",
                    expected: "at most 64 job ids",
                });
            }
            req.only = only;
        }
        let positive = |v: &Json| v.as_u64().filter(|&n| n >= 1);
        let batch = |v: &Json| match v {
            Json::Null => Some(None),
            v => positive(v).map(|n| Some(n as usize)),
        };
        let jobs = |v: &Json| v.as_u64().filter(|n| (1..=MAX_JOBS as u64).contains(n));
        let priority = |v: &Json| v.as_str().and_then(Priority::parse);
        req.runs = field(&value, "runs", "a positive integer", positive)?.unwrap_or(req.runs);
        req.quick = field(&value, "quick", "a boolean", Json::as_bool)?.unwrap_or(req.quick);
        req.seed =
            field(&value, "seed", "a non-negative integer", Json::as_u64)?.unwrap_or(req.seed);
        req.batch =
            field(&value, "batch", "a positive integer or null", batch)?.unwrap_or(req.batch);
        if let Some(n) = field(&value, "jobs", "an integer in 1..=512", jobs)? {
            req.jobs = n as usize;
        }
        let expected = "\"interactive\" or \"batch\"";
        req.priority = field(&value, "priority", expected, priority)?.unwrap_or(req.priority);
        Ok(ClientMessage::Eval(req))
    }

    /// Serializes the request as one wire line (what `suite request` sends).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"request\":\"{}\"", json_escape(&self.id)));
        if !self.only.is_empty() {
            let ids: Vec<String> = self
                .only
                .iter()
                .map(|id| format!("\"{}\"", json_escape(id)))
                .collect();
            out.push_str(&format!(",\"only\":[{}]", ids.join(",")));
        }
        out.push_str(&format!(
            ",\"runs\":{},\"quick\":{},\"seed\":{}",
            self.runs, self.quick, self.seed
        ));
        if let Some(batch) = self.batch {
            out.push_str(&format!(",\"batch\":{batch}"));
        }
        out.push_str(&format!(
            ",\"jobs\":{},\"priority\":\"{}\"",
            self.jobs,
            self.priority.name()
        ));
        out.push('}');
        out
    }

    /// The shutdown sentinel line.
    pub fn shutdown_json() -> &'static str {
        "{\"shutdown\":true}"
    }
}

/// Field `name` of a request object as `read` takes it: `Ok(None)` when the
/// field is absent, a [`ApiError::BadField`] saying it must be `expected`
/// when `read` refuses it.
fn field<'v, T>(
    value: &'v Json,
    name: &'static str,
    expected: &'static str,
    read: impl FnOnce(&'v Json) -> Option<T>,
) -> Result<Option<T>, ApiError> {
    let refused = ApiError::BadField {
        field: name,
        expected,
    };
    value.get(name).map(|v| read(v).ok_or(refused)).transpose()
}

// ---------------------------------------------------------------------------
// Events and responses
// ---------------------------------------------------------------------------

/// Machine-readable failure class carried by [`EvalResponse::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line failed to parse or validate.
    BadRequest,
    /// `only` named a job id the DAG doesn't have.
    UnknownJob,
    /// The executor itself failed (e.g. a job panicked).
    ExecFailed,
}

impl ErrorCode {
    /// The wire name (`"bad_request"` etc.).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownJob => "unknown_job",
            ErrorCode::ExecFailed => "exec_failed",
        }
    }

    /// Parses a wire name back into a code.
    pub fn parse(name: &str) -> Option<ErrorCode> {
        match name {
            "bad_request" => Some(ErrorCode::BadRequest),
            "unknown_job" => Some(ErrorCode::UnknownJob),
            "exec_failed" => Some(ErrorCode::ExecFailed),
            _ => None,
        }
    }
}

/// One streamed line of a request's response. Progress events mirror the
/// JSONL manifest schema (job id, wall time, artifact counters); the stream
/// for a request always ends with exactly one [`EvalEvent::Response`].
#[derive(Debug, Clone, PartialEq)]
pub enum EvalEvent {
    /// The request was admitted and its subgraph validated.
    Accepted {
        /// The request id.
        request: String,
        /// Jobs in the validated subgraph.
        jobs: usize,
    },
    /// A job of this request started executing.
    JobStarted {
        /// The request id.
        request: String,
        /// The job id.
        job: String,
    },
    /// A job finished (or was recovered from a manifest, `skipped: true`).
    JobFinished {
        /// The request id.
        request: String,
        /// The job id.
        job: String,
        /// Wall time of the job.
        wall_ms: u64,
        /// Artifact-store hits while the job ran.
        hits: u64,
        /// Artifact-store misses while the job ran.
        misses: u64,
        /// Whether the job was recovered from a manifest instead of run.
        skipped: bool,
    },
    /// A report job's stdout, delivered as it completes.
    StdoutChunk {
        /// The request id.
        request: String,
        /// The job id.
        job: String,
        /// The job's full stdout contribution.
        stdout: String,
    },
    /// The terminal line for the request.
    Response(EvalResponse),
}

/// Terminal outcome of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalResponse {
    /// The request's subgraph executed to completion.
    Done {
        /// The request id.
        request: String,
        /// Jobs that executed this run.
        jobs_run: u64,
        /// Jobs recovered from a manifest.
        jobs_skipped: u64,
        /// Artifact-store hits summed over executed jobs.
        artifact_hits: u64,
        /// Artifact-store misses summed over executed jobs.
        artifact_misses: u64,
        /// Store-wide computations led at completion time (see
        /// [`crate::dedup::InFlight::led`]).
        dedup_led: u64,
        /// Store-wide computations coalesced onto another request's
        /// in-flight work at completion time.
        dedup_coalesced: u64,
        /// Ids of stdout-emitting jobs in DAG (deterministic) order; clients
        /// reassemble chunks in this order to reproduce one-shot stdout.
        stdout_jobs: Vec<String>,
        /// Wall time of the whole request.
        wall_ms: u64,
    },
    /// The request failed; nothing further will stream.
    Error {
        /// The request id (empty for unparseable lines).
        request: String,
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl EvalResponse {
    /// The request id this response terminates.
    pub fn request(&self) -> &str {
        match self {
            EvalResponse::Done { request, .. } | EvalResponse::Error { request, .. } => request,
        }
    }
}

impl EvalEvent {
    /// The request id this event belongs to.
    pub fn request(&self) -> &str {
        match self {
            EvalEvent::Accepted { request, .. }
            | EvalEvent::JobStarted { request, .. }
            | EvalEvent::JobFinished { request, .. }
            | EvalEvent::StdoutChunk { request, .. } => request,
            EvalEvent::Response(resp) => resp.request(),
        }
    }

    /// Serializes the event as one wire line.
    pub fn to_json(&self) -> String {
        match self {
            EvalEvent::Accepted { request, jobs } => format!(
                "{{\"event\":\"accepted\",\"request\":\"{}\",\"jobs\":{jobs}}}",
                json_escape(request)
            ),
            EvalEvent::JobStarted { request, job } => format!(
                "{{\"event\":\"job_started\",\"request\":\"{}\",\"job\":\"{}\"}}",
                json_escape(request),
                json_escape(job)
            ),
            EvalEvent::JobFinished {
                request,
                job,
                wall_ms,
                hits,
                misses,
                skipped,
            } => format!(
                "{{\"event\":\"job_finished\",\"request\":\"{}\",\"job\":\"{}\",\
                 \"wall_ms\":{wall_ms},\"artifact_hits\":{hits},\"artifact_misses\":{misses},\
                 \"skipped\":{skipped}}}",
                json_escape(request),
                json_escape(job)
            ),
            EvalEvent::StdoutChunk {
                request,
                job,
                stdout,
            } => format!(
                "{{\"event\":\"stdout_chunk\",\"request\":\"{}\",\"job\":\"{}\",\"stdout\":\"{}\"}}",
                json_escape(request),
                json_escape(job),
                json_escape(stdout)
            ),
            EvalEvent::Response(EvalResponse::Done {
                request,
                jobs_run,
                jobs_skipped,
                artifact_hits,
                artifact_misses,
                dedup_led,
                dedup_coalesced,
                stdout_jobs,
                wall_ms,
            }) => {
                let ids: Vec<String> = stdout_jobs
                    .iter()
                    .map(|id| format!("\"{}\"", json_escape(id)))
                    .collect();
                format!(
                    "{{\"event\":\"done\",\"request\":\"{}\",\"jobs_run\":{jobs_run},\
                     \"jobs_skipped\":{jobs_skipped},\"artifact_hits\":{artifact_hits},\
                     \"artifact_misses\":{artifact_misses},\"dedup_led\":{dedup_led},\
                     \"dedup_coalesced\":{dedup_coalesced},\"stdout_jobs\":[{}],\
                     \"wall_ms\":{wall_ms}}}",
                    json_escape(request),
                    ids.join(",")
                )
            }
            EvalEvent::Response(EvalResponse::Error {
                request,
                code,
                message,
            }) => format!(
                "{{\"event\":\"error\",\"request\":\"{}\",\"code\":\"{}\",\"message\":\"{}\"}}",
                json_escape(request),
                code.name(),
                json_escape(message)
            ),
        }
    }

    /// Parses one wire line back into an event (the client half of the
    /// codec). Lines that are not events yield `None`.
    pub fn parse(line: &str) -> Option<EvalEvent> {
        let value = Json::parse(line).ok()?;
        let request = value.get("request")?.as_str()?.to_string();
        match value.get("event")?.as_str()? {
            "accepted" => Some(EvalEvent::Accepted {
                request,
                jobs: usize::try_from(value.get("jobs")?.as_u64()?).ok()?,
            }),
            "job_started" => Some(EvalEvent::JobStarted {
                request,
                job: value.get("job")?.as_str()?.to_string(),
            }),
            "job_finished" => Some(EvalEvent::JobFinished {
                request,
                job: value.get("job")?.as_str()?.to_string(),
                wall_ms: value.get("wall_ms")?.as_u64()?,
                hits: value.get("artifact_hits")?.as_u64()?,
                misses: value.get("artifact_misses")?.as_u64()?,
                skipped: value.get("skipped")?.as_bool()?,
            }),
            "stdout_chunk" => Some(EvalEvent::StdoutChunk {
                request,
                job: value.get("job")?.as_str()?.to_string(),
                stdout: value.get("stdout")?.as_str()?.to_string(),
            }),
            "done" => Some(EvalEvent::Response(EvalResponse::Done {
                request,
                jobs_run: value.get("jobs_run")?.as_u64()?,
                jobs_skipped: value.get("jobs_skipped")?.as_u64()?,
                artifact_hits: value.get("artifact_hits")?.as_u64()?,
                artifact_misses: value.get("artifact_misses")?.as_u64()?,
                dedup_led: value.get("dedup_led")?.as_u64()?,
                dedup_coalesced: value.get("dedup_coalesced")?.as_u64()?,
                stdout_jobs: value
                    .get("stdout_jobs")?
                    .as_arr()?
                    .iter()
                    .map(|v| v.as_str().map(str::to_string))
                    .collect::<Option<Vec<String>>>()?,
                wall_ms: value.get("wall_ms")?.as_u64()?,
            })),
            "error" => Some(EvalEvent::Response(EvalResponse::Error {
                request,
                code: ErrorCode::parse(value.get("code")?.as_str()?)?,
                message: value.get("message")?.as_str()?.to_string(),
            })),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_the_wire_format() {
        let req = EvalRequest {
            id: "camp-1".to_string(),
            only: vec!["table2".to_string(), "fig5".to_string()],
            runs: 2,
            quick: true,
            seed: 7,
            batch: Some(16),
            jobs: 4,
            priority: Priority::Batch,
        };
        let line = req.to_json();
        match EvalRequest::parse(&line).expect("round trip") {
            ClientMessage::Eval(parsed) => assert_eq!(parsed, req),
            other => panic!("expected eval, got {other:?}"),
        }
    }

    #[test]
    fn defaults_match_the_cli_defaults() {
        let msg = EvalRequest::parse("{}").expect("empty object is a default request");
        match msg {
            ClientMessage::Eval(req) => {
                assert_eq!(req, EvalRequest::default());
                assert_eq!(req.runs, 120);
                assert_eq!(req.seed, 2020);
                assert_eq!(req.jobs, 2);
                assert_eq!(req.priority, Priority::Interactive);
            }
            other => panic!("expected eval, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_sentinel_parses() {
        assert_eq!(
            EvalRequest::parse(EvalRequest::shutdown_json()).expect("shutdown"),
            ClientMessage::Shutdown
        );
    }

    #[test]
    fn unknown_fields_are_ignored_known_fields_are_validated() {
        match EvalRequest::parse("{\"future_field\":42,\"runs\":3}").expect("forward compat") {
            ClientMessage::Eval(req) => assert_eq!(req.runs, 3),
            other => panic!("expected eval, got {other:?}"),
        }
        // Integers are read exactly: past 2^53 (where an f64 would round
        // to ...992) and up to u64::MAX, the range of the CLI's `--seed`.
        for seed in [9_007_199_254_740_993, u64::MAX] {
            match EvalRequest::parse(&format!("{{\"seed\":{seed}}}")).expect("exact seed") {
                ClientMessage::Eval(req) => assert_eq!(req.seed, seed),
                other => panic!("expected eval, got {other:?}"),
            }
        }
        for bad in [
            "{\"runs\":0}",
            "{\"runs\":-1}",
            "{\"runs\":1.5}",
            "{\"runs\":0.99999999999999999999}",
            "{\"runs\":1.0}",
            "{\"runs\":1e2}",
            "{\"seed\":9007199254740990.7}",
            "{\"seed\":18446744073709551616}",
            "{\"runs\":\"many\"}",
            "{\"jobs\":0}",
            "{\"jobs\":4096}",
            "{\"only\":\"table2\"}",
            "{\"only\":[1,2]}",
            "{\"priority\":\"urgent\"}",
            "{\"quick\":\"yes\"}",
            "{\"shutdown\":false}",
        ] {
            assert!(
                matches!(EvalRequest::parse(bad), Err(ApiError::BadField { .. })),
                "{bad} should be a BadField error"
            );
        }
    }

    #[test]
    fn hostile_lines_error_instead_of_panicking() {
        let deep = format!("{}1{}", "[".repeat(4096), "]".repeat(4096));
        let cases = [
            "",
            "not json at all",
            "[1,2,3]",
            "\"just a string\"",
            "{\"runs\":1e309}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"unterminated",
            "{\"a\":1,}",
            "{unquoted:1}",
            "{} trailing",
            "{\"a\":NaN}",
            deep.as_str(),
        ];
        for line in cases {
            let result = EvalRequest::parse(line);
            assert!(result.is_err(), "{line:.40} should be rejected: {result:?}");
        }
        // Non-object JSON gets the dedicated error; a lone surrogate is a
        // syntax error, not a silent U+FFFD.
        assert_eq!(EvalRequest::parse("[1,2,3]"), Err(ApiError::NotAnObject));
        for lone in ["{\"request\":\"\\ud83d\"}", "{\"request\":\"\\ude00\"}"] {
            assert!(
                matches!(EvalRequest::parse(lone), Err(ApiError::Syntax(_))),
                "{lone}"
            );
        }
    }

    #[test]
    fn escaped_strings_survive_both_directions() {
        let req = EvalRequest {
            id: "weird\"id\\with\nnewline\ttab".to_string(),
            ..EvalRequest::default()
        };
        let line = req.to_json();
        assert!(!line.contains('\n'), "wire lines never embed raw newlines");
        match EvalRequest::parse(&line).expect("escapes round trip") {
            ClientMessage::Eval(parsed) => assert_eq!(parsed.id, req.id),
            other => panic!("expected eval, got {other:?}"),
        }
    }

    #[test]
    fn events_round_trip_through_the_wire_format() {
        let events = vec![
            EvalEvent::Accepted {
                request: "r1".to_string(),
                jobs: 13,
            },
            EvalEvent::JobStarted {
                request: "r1".to_string(),
                job: "oracle:DS-1:loc".to_string(),
            },
            EvalEvent::JobFinished {
                request: "r1".to_string(),
                job: "oracle:DS-1:loc".to_string(),
                wall_ms: 412,
                hits: 1,
                misses: 0,
                skipped: false,
            },
            EvalEvent::StdoutChunk {
                request: "r1".to_string(),
                job: "table2".to_string(),
                stdout: "Table II\nline \"two\"\n".to_string(),
            },
            EvalEvent::Response(EvalResponse::Done {
                request: "r1".to_string(),
                jobs_run: 13,
                jobs_skipped: 0,
                artifact_hits: 6,
                artifact_misses: 12,
                dedup_led: 12,
                dedup_coalesced: 5,
                stdout_jobs: vec!["table2".to_string()],
                wall_ms: 9000,
            }),
            EvalEvent::Response(EvalResponse::Error {
                request: "r2".to_string(),
                code: ErrorCode::UnknownJob,
                message: "unknown target job 'fig99'".to_string(),
            }),
        ];
        for event in events {
            let line = event.to_json();
            assert!(!line.contains('\n'), "one event per line: {line}");
            assert_eq!(EvalEvent::parse(&line), Some(event.clone()), "{line}");
        }
    }
}
