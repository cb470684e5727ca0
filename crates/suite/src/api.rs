//! The typed evaluation-service wire API.
//!
//! One request type drives everything: the one-shot `suite` CLI parses its
//! flags into an [`EvalRequest`], and `suite serve` parses the same type off
//! newline-delimited JSON — both then execute the identical request through
//! [`crate::exec::execute`]. Responses stream back as one JSON object per
//! line ([`EvalEvent`]), terminated by exactly one [`EvalResponse`] per
//! request, mirroring the JSONL manifest format.
//!
//! Serde is vendored as a no-op stub in this workspace, so the codec is
//! hand-rolled like `manifest.rs`: writers emit fields in a fixed order,
//! and the reader is a small recursive-descent JSON parser hardened against
//! hostile input (depth-limited, bounds-checked, never panics) because the
//! daemon feeds it bytes from arbitrary clients.

pub use av_telemetry::json_escape;
use std::fmt;

/// Maximum nesting depth the request parser will follow. Requests are flat
/// objects; anything deeper is an attack or a bug, and recursing into it
/// would let a hostile client overflow the daemon's stack.
const MAX_DEPTH: usize = 32;
/// Upper bounds on request fields — admission control starts at the parser.
const MAX_ID_LEN: usize = 128;
const MAX_TARGETS: usize = 64;
const MAX_JOBS: usize = 512;

// ---------------------------------------------------------------------------
// A minimal hostile-input-safe JSON value
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects keep insertion order; duplicate keys keep
/// the last occurrence (looked up via reverse scan), matching common JSON
/// semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite; the parser rejects the rest).
    Num(f64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ⟨key, value⟩ pairs in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document. Trailing garbage, unterminated
    /// strings, bad escapes, and nesting beyond the depth bound are all
    /// errors — never panics, whatever the input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (last occurrence wins); `None` for non-objects.
    pub fn get(&self, field: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries
                .iter()
                .rev()
                .find(|(k, _)| k == field)
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, for [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, for [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric field as an exact non-negative integer. Fractional,
    /// negative, NaN, or > 2^53 values are rejected rather than rounded.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9007199254740992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The items, for [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!(
                "unexpected '{}' at byte {}",
                char::from(c),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogates map to the replacement character
                            // rather than erroring: the daemon must accept
                            // any line a hostile client sends without dying.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one complete UTF-8 scalar (input is &str, so
                    // boundaries are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let ch = s.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
        if n.is_finite() {
            Ok(Json::Num(n))
        } else {
            Err(format!("non-finite number '{text}' at byte {start}"))
        }
    }
}

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
    /// The line is not valid JSON.
    Syntax(String),
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
        if let Some(flag) = value.get("shutdown") {
            return match flag.as_bool() {
                Some(true) => Ok(ClientMessage::Shutdown),
                _ => Err(ApiError::BadField {
                    field: "shutdown",
                    expected: "true",
                }),
            };
        }

        let mut req = EvalRequest::default();
        if let Some(v) = value.get("request") {
            let id = v.as_str().ok_or(ApiError::BadField {
                field: "request",
                expected: "a string",
            })?;
            if id.len() > MAX_ID_LEN {
                return Err(ApiError::BadField {
                    field: "request",
                    expected: "at most 128 bytes",
                });
            }
            req.id = id.to_string();
        }
        if let Some(v) = value.get("only") {
            let items = v.as_arr().ok_or(ApiError::BadField {
                field: "only",
                expected: "an array of job ids",
            })?;
            if items.len() > MAX_TARGETS {
                return Err(ApiError::BadField {
                    field: "only",
                    expected: "at most 64 job ids",
                });
            }
            for item in items {
                let id = item.as_str().ok_or(ApiError::BadField {
                    field: "only",
                    expected: "an array of job ids",
                })?;
                req.only.push(id.to_string());
            }
        }
        if let Some(v) = value.get("runs") {
            req.runs = v.as_u64().filter(|&n| n >= 1).ok_or(ApiError::BadField {
                field: "runs",
                expected: "a positive integer",
            })?;
        }
        if let Some(v) = value.get("quick") {
            req.quick = v.as_bool().ok_or(ApiError::BadField {
                field: "quick",
                expected: "a boolean",
            })?;
        }
        if let Some(v) = value.get("seed") {
            req.seed = v.as_u64().ok_or(ApiError::BadField {
                field: "seed",
                expected: "a non-negative integer",
            })?;
        }
        if let Some(v) = value.get("batch") {
            if !matches!(v, Json::Null) {
                let n = v.as_u64().filter(|&n| n >= 1).ok_or(ApiError::BadField {
                    field: "batch",
                    expected: "a positive integer or null",
                })?;
                req.batch = Some(n as usize);
            }
        }
        if let Some(v) = value.get("jobs") {
            let n = v
                .as_u64()
                .filter(|&n| (1..=MAX_JOBS as u64).contains(&n))
                .ok_or(ApiError::BadField {
                    field: "jobs",
                    expected: "an integer in 1..=512",
                })?;
            req.jobs = n as usize;
        }
        if let Some(v) = value.get("priority") {
            let name = v.as_str().and_then(Priority::parse);
            req.priority = name.ok_or(ApiError::BadField {
                field: "priority",
                expected: "\"interactive\" or \"batch\"",
            })?;
        }
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
                jobs: value.get("jobs")?.as_u64()? as usize,
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
        for bad in [
            "{\"runs\":0}",
            "{\"runs\":-1}",
            "{\"runs\":1.5}",
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
        // Non-object JSON gets the dedicated error.
        assert_eq!(EvalRequest::parse("[1,2,3]"), Err(ApiError::NotAnObject));
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

    #[test]
    fn json_parser_handles_edge_values() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(
            Json::parse("{\"a\":{\"b\":[1,true,\"x\"]}}")
                .unwrap()
                .get("a")
                .and_then(|a| a.get("b"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
        // Duplicate keys: last wins.
        assert_eq!(
            Json::parse("{\"a\":1,\"a\":2}")
                .unwrap()
                .get("a")
                .and_then(Json::as_u64),
            Some(2)
        );
        // Exactly at the depth limit parses; one past it fails.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&too_deep).is_err());
    }
}
