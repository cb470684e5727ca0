//! The resumable JSONL run manifest.
//!
//! One header line pinning the run configuration digest, then one line per
//! completed job carrying its stdout (escaped), a stdout digest, wall time
//! and artifact scorecard. The workspace has no serialization framework:
//! the writer below formats its fields by hand, and the reader parses each
//! line with the suite's one JSON reader ([`crate::json`]) and then reads
//! the fields by name.
//!
//! What keeps wrong bytes out is the check on each field, not the layout
//! of the line, so field order and whitespace do not matter. A line loads
//! only if every field is present with its type: an exact non-negative
//! integer for each counter, exactly 16 hex digits for each digest, a
//! header `version` of 1, and a `stdout_digest` equal to the FNV-1a digest
//! of the `stdout` it came with. A corrupted stdout fails that cross-check
//! instead of being replayed.
//!
//! Resume semantics: a rerun with the same configuration digest loads the
//! manifest, treats every entry that passes those checks as "already
//! completed" and skips those jobs, replaying their recorded stdout. A run
//! killed mid-write leaves a truncated trailing line, which is not valid
//! JSON, so partially written entries simply count as "not completed" and
//! the job reruns.

use crate::fnv::fnv1a;
use crate::json::Json;
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

    /// Parses one manifest line; `None` if it is not JSON, lacks a field,
    /// holds a field of the wrong type, or carries a stdout digest that
    /// does not match its stdout bytes.
    pub fn parse(line: &str) -> Option<ManifestEntry> {
        let v = Json::parse(line).ok()?;
        let text = |field| v.get(field).and_then(Json::as_str);
        let count = |field| v.get(field).and_then(Json::as_u64);
        let artifacts = v
            .get("artifacts")?
            .as_arr()?
            .iter()
            .map(|a| {
                let name = a.get("name")?.as_str()?.to_string();
                Some((name, hex_digest(a.get("digest")?)?))
            })
            .collect::<Option<_>>()?;
        let stdout = text("stdout")?;
        if fnv1a(stdout.as_bytes()) != hex_digest(v.get("stdout_digest")?)? {
            return None;
        }
        Some(ManifestEntry {
            job: text("job")?.to_string(),
            wall_ms: count("wall_ms")?,
            artifact_hits: count("hits")?,
            artifact_misses: count("misses")?,
            artifacts,
            stdout: stdout.to_string(),
        })
    }
}

/// The header line for a run with configuration digest `config`.
pub fn header(config: u64) -> String {
    format!("{{\"manifest\":\"av-suite\",\"version\":{VERSION},\"config\":\"{config:016x}\"}}")
}

/// Parses a header line back into its configuration digest; `None` for
/// another file kind or manifest version.
pub fn parse_header(line: &str) -> Option<u64> {
    let v = Json::parse(line).ok()?;
    if v.get("manifest")?.as_str()? != "av-suite"
        || v.get("version")?.as_u64()? != u64::from(VERSION)
    {
        return None;
    }
    hex_digest(v.get("config")?)
}

/// A digest field: a string of exactly 16 hex digits.
fn hex_digest(field: &Json) -> Option<u64> {
    let digits = field.as_str().filter(|d| d.len() == 16)?;
    if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

/// Loads the completed-job entries of the manifest at `path`, provided its
/// header matches `config`. An unreadable file or a header mismatch (a
/// different run configuration must not be resumed) loads nothing.
/// Malformed lines — typically one line truncated by a kill mid-write —
/// are skipped, so those jobs rerun; every line is independently validated
/// (every field typed, plus the stdout digest cross-check), so a garbled
/// line can never resurrect wrong bytes. If a job appears twice (a resumed run
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
        for bad in [
            line.replace("\"version\":1", "\"version\":2"),
            line.replace("\"version\":1", "\"version\":1.0"),
            line.replace("\"version\":1,", ""),
            line.replace("9abcdef0", "9abcdef"),
            line.replace("9abcdef0", "9abcdefg"),
            line.replace("\"1234", "\"+234"),
        ] {
            assert_eq!(parse_header(&bad), None, "{bad}");
        }
    }

    #[test]
    fn field_order_and_whitespace_do_not_matter() {
        let digest = format!("{:016x}", fnv1a(b"out\n"));
        let line = format!(
            " {{ \"stdout\" : \"out\\n\", \"misses\":0,\"hits\":1, \"artifacts\":[ {{\"digest\":\
             \"00000000000000ff\",\"name\":\"a\"}} ], \"wall_ms\":7,\"job\":\"j\",\
             \"stdout_digest\":\"{digest}\" }} "
        );
        let entry = ManifestEntry {
            job: "j".into(),
            wall_ms: 7,
            artifact_hits: 1,
            artifact_misses: 0,
            artifacts: vec![("a".into(), 0xff)],
            stdout: "out\n".into(),
        };
        assert_eq!(ManifestEntry::parse(&line), Some(entry));
        let header = format!(
            "{{ \"config\":\"{:016x}\", \"version\": 1, \"manifest\":\"av-suite\" }}",
            9
        );
        assert_eq!(parse_header(&header), Some(9));
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
        // Every field is required, and each holds exactly its type.
        for bad in [
            line.replace("\"wall_ms\":1234,", ""),
            line.replace("\"hits\":2,", ""),
            line.replace("\"job\"", "\"jab\""),
            line.replace("\"wall_ms\":1234", "\"wall_ms\":1234.0"),
            line.replace("\"wall_ms\":1234", "\"wall_ms\":-1234"),
            line.replace("\"hits\":2", "\"hits\":\"2\""),
            line.replace("\"misses\":1", "\"misses\":18446744073709551616"),
            line.replace("dead", "deadd"),
            line.replace("\"digest\":\"dead", "\"digest\":\"xead"),
            line.replace("\"artifacts\":[", "\"artifacts\":[1,"),
        ] {
            assert_eq!(ManifestEntry::parse(&bad), None, "{bad}");
        }
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
