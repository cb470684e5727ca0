//! The resumable JSONL run manifest.
//!
//! One header line pinning the run configuration digest, then one line per
//! completed job carrying its stdout (escaped), a stdout digest, wall time
//! and artifact scorecard. The vendored `serde` is a no-op stub, so both
//! directions are hand-rolled against a fixed field order — the writer
//! below is the only producer, and the parser refuses anything it did not
//! write.
//!
//! Resume semantics: a rerun with the same configuration digest loads the
//! manifest, treats every parseable entry as "already completed" and skips
//! those jobs, replaying their recorded stdout. A run killed mid-write
//! leaves a truncated trailing line; the parser stops at the first
//! malformed line, so partially written entries simply count as "not
//! completed" and the job reruns.

use crate::fnv::fnv1a;
use av_telemetry::json_escape;
use std::fmt::Write as _;
use std::path::Path;

/// Manifest schema version (the header's `version` field).
const VERSION: u32 = 1;

/// One completed job, as recorded in (and recovered from) the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Job id.
    pub job: String,
    /// Wall time the job took (ms).
    pub wall_ms: u64,
    /// Artifact-store hits while the job ran.
    pub artifact_hits: u64,
    /// Artifact-store misses while the job ran.
    pub artifact_misses: u64,
    /// ⟨name, digest⟩ pairs of artifacts the job produced or pinned.
    pub artifacts: Vec<(String, u64)>,
    /// The job's full stdout contribution.
    pub stdout: String,
}

impl ManifestEntry {
    /// Renders this entry as one JSON line (no trailing newline). The
    /// `stdout_digest` field is recomputed from `stdout` — the parser
    /// cross-checks it, so a corrupted line is rejected rather than
    /// replaying wrong bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128 + self.stdout.len());
        let _ = write!(
            s,
            "{{\"job\":\"{}\",\"wall_ms\":{},\"hits\":{},\"misses\":{},\"artifacts\":[",
            json_escape(&self.job),
            self.wall_ms,
            self.artifact_hits,
            self.artifact_misses,
        );
        for (i, (name, digest)) in self.artifacts.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"digest\":\"{digest:016x}\"}}",
                if i == 0 { "" } else { "," },
                json_escape(name),
            );
        }
        let _ = write!(
            s,
            "],\"stdout_digest\":\"{:016x}\",\"stdout\":\"{}\"}}",
            fnv1a(self.stdout.as_bytes()),
            json_escape(&self.stdout),
        );
        s
    }

    /// Parses one manifest line; `None` on any structural mismatch
    /// (including a stdout digest that doesn't match the stdout bytes).
    pub fn parse(line: &str) -> Option<ManifestEntry> {
        let mut r = Scanner(line);
        r.literal("{\"job\":\"")?;
        let job = r.string()?;
        r.literal(",\"wall_ms\":")?;
        let wall_ms = r.integer()?;
        r.literal(",\"hits\":")?;
        let artifact_hits = r.integer()?;
        r.literal(",\"misses\":")?;
        let artifact_misses = r.integer()?;
        r.literal(",\"artifacts\":[")?;
        let mut artifacts = Vec::new();
        if !r.try_literal("]") {
            loop {
                r.literal("{\"name\":\"")?;
                let name = r.string()?;
                r.literal(",\"digest\":\"")?;
                let digest = r.hex_u64()?;
                r.literal("\"}")?;
                artifacts.push((name, digest));
                if r.try_literal("]") {
                    break;
                }
                r.literal(",")?;
            }
        }
        r.literal(",\"stdout_digest\":\"")?;
        let stdout_digest = r.hex_u64()?;
        r.literal("\",\"stdout\":\"")?;
        let stdout = r.string()?;
        r.literal("}")?;
        if !r.0.is_empty() || fnv1a(stdout.as_bytes()) != stdout_digest {
            return None;
        }
        Some(ManifestEntry {
            job,
            wall_ms,
            artifact_hits,
            artifact_misses,
            artifacts,
            stdout,
        })
    }
}

/// The header line for a run with configuration digest `config`.
pub fn header(config: u64) -> String {
    format!("{{\"manifest\":\"av-suite\",\"version\":{VERSION},\"config\":\"{config:016x}\"}}")
}

/// Parses a header line back into its configuration digest.
pub fn parse_header(line: &str) -> Option<u64> {
    let mut r = Scanner(line);
    r.literal("{\"manifest\":\"av-suite\",\"version\":")?;
    let version = r.integer()?;
    if version != u64::from(VERSION) {
        return None;
    }
    r.literal(",\"config\":\"")?;
    let config = r.hex_u64()?;
    r.literal("\"}")?;
    r.0.is_empty().then_some(config)
}

/// Loads the completed-job entries of the manifest at `path`, provided its
/// header matches `config`. An unreadable file or a header mismatch (a
/// different run configuration must not be resumed) loads nothing.
/// Malformed lines — typically one line truncated by a kill mid-write —
/// are skipped, so those jobs rerun; every line is independently validated
/// (strict grammar plus a stdout digest cross-check), so a garbled line
/// can never resurrect wrong bytes. If a job appears twice (a resumed run
/// appends), the last entry wins.
pub fn load(path: &Path, config: u64) -> Vec<ManifestEntry> {
    let Ok(contents) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut lines = contents.lines();
    if lines.next().and_then(parse_header) != Some(config) {
        return Vec::new();
    }
    let mut entries: Vec<ManifestEntry> = Vec::new();
    for entry in lines.filter_map(ManifestEntry::parse) {
        if let Some(slot) = entries.iter_mut().find(|e| e.job == entry.job) {
            *slot = entry;
        } else {
            entries.push(entry);
        }
    }
    entries
}

/// Strict cursor over one manifest line.
struct Scanner<'a>(&'a str);

impl Scanner<'_> {
    /// Consumes an exact literal or fails.
    fn literal(&mut self, lit: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(lit)?;
        Some(())
    }

    /// Consumes `lit` if present, reporting whether it did.
    fn try_literal(&mut self, lit: &str) -> bool {
        match self.0.strip_prefix(lit) {
            Some(rest) => {
                self.0 = rest;
                true
            }
            None => false,
        }
    }

    /// Consumes an unsigned decimal integer.
    fn integer(&mut self) -> Option<u64> {
        let end = self
            .0
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(self.0.len());
        let (digits, rest) = self.0.split_at(end);
        self.0 = rest;
        digits.parse().ok()
    }

    /// Consumes exactly 16 lowercase hex digits.
    fn hex_u64(&mut self) -> Option<u64> {
        let digits = self.0.get(..16)?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.0 = &self.0[16..];
        u64::from_str_radix(digits, 16).ok()
    }

    /// Consumes an escaped string body up to (and including) its closing
    /// quote, unescaping as it goes.
    fn string(&mut self) -> Option<String> {
        let mut out = String::new();
        let mut chars = self.0.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.0 = &self.0[i + 1..];
                    return Some(out);
                }
                '\\' => {
                    let (_, esc) = chars.next()?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let start = i + 2;
                            let hex = self.0.get(start..start + 4)?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            // Skip the 4 hex digits.
                            for _ in 0..4 {
                                chars.next()?;
                            }
                        }
                        _ => return None,
                    }
                }
                c => out.push(c),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ManifestEntry {
        ManifestEntry {
            job: "oracle:DS-1:Disappear".into(),
            wall_ms: 1234,
            artifact_hits: 2,
            artifact_misses: 1,
            artifacts: vec![("oracle:DS-1:Disappear".into(), 0xdead_beef_0000_0001)],
            stdout: "Table II\n  line \"quoted\"\tand\\slash\n".into(),
        }
    }

    #[test]
    fn entry_round_trips_through_json() {
        let entry = sample();
        let line = entry.to_json();
        assert_eq!(ManifestEntry::parse(&line), Some(entry));

        // No-artifact entries round-trip too.
        let bare = ManifestEntry {
            artifacts: Vec::new(),
            ..sample()
        };
        assert_eq!(ManifestEntry::parse(&bare.to_json()), Some(bare));
    }

    #[test]
    fn header_round_trips_and_pins_config() {
        let line = header(0x1234_5678_9abc_def0);
        assert_eq!(parse_header(&line), Some(0x1234_5678_9abc_def0));
        assert_eq!(parse_header("{\"manifest\":\"other\"}"), None);
    }

    #[test]
    fn truncated_and_corrupted_lines_are_rejected() {
        let line = sample().to_json();
        for cut in [0, 1, 10, line.len() / 2, line.len() - 1] {
            assert_eq!(ManifestEntry::parse(&line[..cut]), None, "cut at {cut}");
        }
        // Flip a stdout byte: the digest cross-check rejects it.
        let tampered = line.replace("Table II", "Fable II");
        assert_eq!(ManifestEntry::parse(&tampered), None);
    }

    #[test]
    fn load_skips_mismatched_config_and_stops_at_truncation() {
        let dir = std::env::temp_dir().join(format!("suite-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("m.jsonl");

        let a = ManifestEntry {
            job: "a".into(),
            ..sample()
        };
        let b = ManifestEntry {
            job: "b".into(),
            ..sample()
        };
        let full = format!("{}\n{}\n{}\n", header(42), a.to_json(), b.to_json());
        std::fs::write(&path, &full).expect("write");
        assert_eq!(load(&path, 42), vec![a.clone(), b.clone()]);
        assert_eq!(load(&path, 43), Vec::new(), "config mismatch loads nothing");

        // Kill mid-write: half of b's line is on disk. a survives, b reruns.
        let cut = full.len() - b.to_json().len() / 2 - 1;
        std::fs::write(&path, &full[..cut]).expect("write truncated");
        assert_eq!(load(&path, 42), vec![a.clone()]);

        // A resumed run terminated the dangling line and appended b again
        // (the executor's newline guard): the garbled line is skipped and
        // the appended entry wins.
        let resumed = format!("{}\n{}\n", &full[..cut], b.to_json());
        std::fs::write(&path, &resumed).expect("write resumed");
        assert_eq!(load(&path, 42), vec![a, b]);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
