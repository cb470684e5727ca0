//! In-memory spans for the traced run, written out as `trace.json` when the
//! benchmark ends. A disabled [`Trace`] records nothing and every call on
//! it is a no-op.

use av_suite::api::json_escape;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent of the spans it caused.
pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    request: Option<String>,
    start: Instant,
    end: Option<Instant>,
}

/// The span recorder of one benchmark run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Trace {
    /// A recorder that keeps spans when `enabled`, and otherwise ignores
    /// every call.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn push(&self, span: Span) -> Option<SpanId> {
        let mut spans = self.spans.as_ref()?.lock().expect("trace lock");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Opens a span starting now; close it with [`Trace::end`].
    pub fn begin(&self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        self.push(Span {
            name: name.to_string(),
            parent,
            request: None,
            start: Instant::now(),
            end: None,
        })
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&self, id: Option<SpanId>) {
        if let (Some(spans), Some(id)) = (&self.spans, id) {
            spans.lock().expect("trace lock")[id].end = Some(Instant::now());
        }
    }

    /// Records a finished span measured elsewhere, for the request
    /// `request` when it belongs to one.
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request: Option<&str>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.push(Span {
            name: name.to_string(),
            parent,
            request: request.map(str::to_string),
            start,
            end: Some(end),
        })
    }

    /// The `trace.json` document: one object per span, times in
    /// microseconds since the run started. A span never closed ends where
    /// it started.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let micros = |t: Instant| t.saturating_duration_since(self.origin).as_micros();
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"spans\": [",
            json_escape(workload)
        );
        if let Some(spans) = &self.spans {
            for (id, span) in spans.lock().expect("trace lock").iter().enumerate() {
                let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
                write!(
                    out,
                    "{}\n  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {}, \"request\": {}, \
                     \"start_us\": {}, \"end_us\": {}}}",
                    if id == 0 { "" } else { "," },
                    json_escape(&span.name),
                    opt(span.parent.map(|p| p.to_string())),
                    opt(span
                        .request
                        .as_deref()
                        .map(|r| format!("\"{}\"", json_escape(r)))),
                    micros(span.start),
                    micros(span.end.unwrap_or(span.start)),
                )
                .expect("writing to a String cannot fail");
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes [`Trace::to_json`] to `path`, creating its directory.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let trace = Trace::new(false);
        let id = trace.begin("rep", None);
        assert_eq!(id, None);
        trace.end(id);
        assert!(trace.to_json("w", 1).contains("\"spans\": [\n]}"));
    }

    #[test]
    fn spans_keep_parent_and_request() {
        let trace = Trace::new(true);
        let rep = trace.begin("rep", None);
        let now = Instant::now();
        trace.record("request", rep, Some("i0"), now, now);
        trace.end(rep);
        let json = trace.to_json("serve_mixed", 7);
        assert!(json.contains("\"name\": \"rep\", \"parent\": null, \"request\": null"));
        assert!(json.contains("\"name\": \"request\", \"parent\": 0, \"request\": \"i0\""));
        assert!(av_suite::api::Json::parse(&json).is_ok(), "{json}");
    }
}
