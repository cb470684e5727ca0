//! Fuzzing the suite's JSON reader through every typed reader on top of
//! it: wire requests, streamed events, and run-manifest headers and
//! entries.
//!
//! Two kinds of case. Structured ones generate typed values with hostile
//! strings (quotes, backslashes, control characters, multi-byte
//! characters) and exact-integer extremes, and require that writing and
//! reading them back gives the same value. Byte-mutation ones take a real
//! line — a structured one or a fixed seed — flip, insert, delete, cut,
//! splice and duplicate its bytes, and feed the result to every reader.
//! Whatever the bytes, no reader panics or takes a second over a line, and
//! a reader either refuses the line or returns a value that round-trips
//! through its own writer.

use av_suite::api::Json;
use av_suite::manifest::{header, parse_header};
use av_suite::{
    ClientMessage, ErrorCode, EvalEvent, EvalRequest, EvalResponse, ManifestEntry, Priority,
};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Characters that stress escaping: the JSON specials, control
/// characters, and one-, two- and four-byte UTF-8.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '€',
    '😀', '{', '}', '[', ']', ':', ',',
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn texts() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(text(), 0..4)
}

/// A `u64` that is often an extreme: 0, 2^53 ± 1, `u64::MAX`.
fn count() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        Just(0),
        Just(9_007_199_254_740_993),
        Just(u64::MAX),
        0..1000u64,
    ]
}

fn request() -> impl Strategy<Value = EvalRequest> {
    (
        text(),
        texts(),
        (count(), any::<bool>()),
        count(),
        (0..3u64, 1..=512usize, any::<bool>()),
    )
        .prop_map(
            |(id, only, (runs, quick), seed, (batch, jobs, batch_class))| EvalRequest {
                id,
                only,
                runs: runs.max(1),
                quick,
                seed,
                batch: (batch > 0).then_some(batch as usize * 16),
                jobs,
                priority: if batch_class {
                    Priority::Batch
                } else {
                    Priority::Interactive
                },
            },
        )
}

fn event() -> impl Strategy<Value = EvalEvent> {
    (
        0..6u8,
        (text(), text(), text()),
        (count(), count(), count(), count()),
        any::<bool>(),
        texts(),
    )
        .prop_map(
            |(kind, (request, job, body), (a, b, c, d), flag, jobs)| match kind {
                0 => EvalEvent::Accepted {
                    request,
                    jobs: a as usize,
                },
                1 => EvalEvent::JobStarted { request, job },
                2 => EvalEvent::JobFinished {
                    request,
                    job,
                    wall_ms: a,
                    hits: b,
                    misses: c,
                    skipped: flag,
                },
                3 => EvalEvent::StdoutChunk {
                    request,
                    job,
                    stdout: body,
                },
                4 => EvalEvent::Response(EvalResponse::Done {
                    request,
                    jobs_run: a,
                    jobs_skipped: b,
                    artifact_hits: c,
                    artifact_misses: d,
                    dedup_led: a ^ b,
                    dedup_coalesced: c ^ d,
                    stdout_jobs: jobs,
                    wall_ms: d,
                }),
                _ => EvalEvent::Response(EvalResponse::Error {
                    request,
                    code: [
                        ErrorCode::BadRequest,
                        ErrorCode::UnknownJob,
                        ErrorCode::ExecFailed,
                    ][(a % 3) as usize],
                    message: body,
                }),
            },
        )
}

fn entry() -> impl Strategy<Value = ManifestEntry> {
    (
        (text(), text()),
        (count(), count(), count()),
        prop::collection::vec((text(), any::<u64>()), 0..3),
    )
        .prop_map(
            |((job, stdout), (wall_ms, artifact_hits, artifact_misses), artifacts)| ManifestEntry {
                job,
                wall_ms,
                artifact_hits,
                artifact_misses,
                artifacts,
                stdout,
            },
        )
}

/// Real lines of every kind the readers take: a wire request, the
/// shutdown sentinel, one event of each kind, a manifest header and entry.
fn seeds() -> Vec<String> {
    let request = EvalRequest {
        id: "camp-1".into(),
        only: vec!["table2".into(), "fig5".into()],
        runs: 2,
        quick: true,
        seed: 7,
        batch: Some(16),
        jobs: 4,
        priority: Priority::Batch,
    };
    let job = || "oracle:DS-1:Disappear".to_string();
    let events = [
        EvalEvent::Accepted {
            request: "r1".into(),
            jobs: 13,
        },
        EvalEvent::JobStarted {
            request: "r1".into(),
            job: job(),
        },
        EvalEvent::JobFinished {
            request: "r1".into(),
            job: job(),
            wall_ms: 412,
            hits: 1,
            misses: 0,
            skipped: false,
        },
        EvalEvent::StdoutChunk {
            request: "r1".into(),
            job: "table2".into(),
            stdout: "Table II\n| DS-1 | \"q\" | é |\n".into(),
        },
        EvalEvent::Response(EvalResponse::Done {
            request: "r1".into(),
            jobs_run: 13,
            jobs_skipped: 0,
            artifact_hits: 6,
            artifact_misses: 12,
            dedup_led: 12,
            dedup_coalesced: 5,
            stdout_jobs: vec!["table2".into(), "fig5".into()],
            wall_ms: 9000,
        }),
        EvalEvent::Response(EvalResponse::Error {
            request: "r2".into(),
            code: ErrorCode::UnknownJob,
            message: "unknown target job 'fig99'".into(),
        }),
    ];
    let entry = ManifestEntry {
        job: job(),
        wall_ms: 1234,
        artifact_hits: 2,
        artifact_misses: 1,
        artifacts: vec![(job(), 0xdead_beef_0000_0001)],
        stdout: "Table II\n  line \"quoted\"\tand\\slash\n".into(),
    };
    let mut lines = vec![
        request.to_json(),
        EvalRequest::shutdown_json().to_string(),
        header(0x1234_5678_9abc_def0),
        entry.to_json(),
    ];
    lines.extend(events.iter().map(EvalEvent::to_json));
    lines
}

/// Feeds `line` to every reader: none may panic or take a second (the
/// lines are a few hundred bytes, so this only catches a reader that loops
/// or backtracks), and each value read must round-trip through its writer.
fn read_everything(line: &str) -> Result<(), TestCaseError> {
    let started = Instant::now();
    let _ = Json::parse(line);
    if let Ok(ClientMessage::Eval(req)) = EvalRequest::parse(line) {
        prop_assert_eq!(
            EvalRequest::parse(&req.to_json()),
            Ok(ClientMessage::Eval(req.clone()))
        );
    }
    if let Some(event) = EvalEvent::parse(line) {
        prop_assert_eq!(EvalEvent::parse(&event.to_json()), Some(event.clone()));
    }
    if let Some(entry) = ManifestEntry::parse(line) {
        prop_assert_eq!(ManifestEntry::parse(&entry.to_json()), Some(entry.clone()));
    }
    if let Some(config) = parse_header(line) {
        prop_assert_eq!(parse_header(&header(config)), Some(config));
    }
    prop_assert!(
        started.elapsed() < Duration::from_secs(1),
        "reading {} bytes took {:?}",
        line.len(),
        started.elapsed()
    );
    Ok(())
}

/// `seed` with `edits` applied in order: flip bits of one byte, insert an
/// arbitrary byte, delete a run from the middle, cut the line short,
/// splice in a run of `donor`, or duplicate a run in place.
fn mutate(seed: &str, donor: &str, edits: &[(u8, u64, u64)]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    let donor = donor.as_bytes();
    for &(op, at, arg) in edits {
        let at = (at % (bytes.len() as u64 + 1)) as usize;
        let run = (arg % 24) as usize;
        match op {
            0 if at < bytes.len() => bytes[at] ^= (arg as u8).max(1),
            1 => bytes.insert(at, arg as u8),
            2 => {
                bytes.drain(at..(at + run.max(1)).min(bytes.len()));
            }
            3 => bytes.truncate(at),
            4 => {
                let from = (arg % (donor.len() as u64 + 1)) as usize;
                let end = (from + run).min(donor.len());
                bytes.splice(at..at, donor[from..end].iter().copied());
            }
            _ => {
                let dup = bytes[at..(at + run).min(bytes.len())].to_vec();
                bytes.splice(at..at, dup);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn edits() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0..6u8, any::<u64>(), any::<u64>()), 1..12)
}

proptest! {
    #[test]
    fn fuzz_structured_values_round_trip(
        req in request(),
        event in event(),
        entry in entry(),
        config in any::<u64>(),
    ) {
        prop_assert_eq!(
            EvalRequest::parse(&req.to_json()),
            Ok(ClientMessage::Eval(req.clone()))
        );
        prop_assert_eq!(EvalEvent::parse(&event.to_json()), Some(event.clone()));
        prop_assert_eq!(ManifestEntry::parse(&entry.to_json()), Some(entry.clone()));
        prop_assert_eq!(parse_header(&header(config)), Some(config));
    }

    #[test]
    fn fuzz_mutated_seed_lines(
        pick in (0..10usize, 0..10usize),
        edits in edits(),
    ) {
        let seeds = seeds();
        let (seed, donor) = (&seeds[pick.0 % seeds.len()], &seeds[pick.1 % seeds.len()]);
        read_everything(&mutate(seed, donor, &edits))?;
    }

    #[test]
    fn fuzz_mutated_structured_lines(
        req in request(),
        event in event(),
        entry in entry(),
        which in 0..3u8,
        edits in edits(),
    ) {
        let lines = [req.to_json(), event.to_json(), entry.to_json()];
        let line = &lines[usize::from(which)];
        read_everything(&mutate(line, &lines[(usize::from(which) + 1) % 3], &edits))?;
    }
}

#[test]
fn fuzz_seed_lines_read_back_as_written() {
    let seeds = seeds();
    assert!(EvalRequest::parse(&seeds[0]).is_ok());
    assert_eq!(EvalRequest::parse(&seeds[1]), Ok(ClientMessage::Shutdown));
    assert_eq!(parse_header(&seeds[2]), Some(0x1234_5678_9abc_def0));
    assert!(ManifestEntry::parse(&seeds[3]).is_some());
    assert!(seeds[4..]
        .iter()
        .all(|line| EvalEvent::parse(line).is_some()));
}

#[test]
fn fuzz_megabyte_lines_are_refused_without_overflowing_the_stack() {
    for line in [
        "[".repeat(1 << 20),
        "A".repeat(1 << 20),
        "{\"a\":".repeat(1 << 18),
    ] {
        assert!(Json::parse(&line).is_err());
        assert!(EvalRequest::parse(&line).is_err());
        assert_eq!(EvalEvent::parse(&line), None);
        assert_eq!(ManifestEntry::parse(&line), None);
        assert_eq!(parse_header(&line), None);
    }
    // A megabyte string is read whole, and refused only by the field's
    // own bound.
    let long_id = format!("{{\"request\":\"{}\"}}", "A".repeat(1 << 20));
    assert!(matches!(
        EvalRequest::parse(&long_id),
        Err(av_suite::ApiError::BadField {
            field: "request",
            ..
        })
    ));
}
