//! Replays one fully-instrumented simulation run: the structured event
//! stream goes out as JSONL (stdout or `--out FILE`), the per-stage latency
//! table and a one-line outcome summary go to stderr.
//!
//! Defaults to the paper's highest-impact case — DS-2 (crossing pedestrian)
//! under a timed Move_Out attack — so a bare `cargo run --bin trace` shows
//! every layer of the pipeline reporting: scheduler ticks, sensor samples,
//! detector output, track updates, the attack launch and phase changes,
//! planner mode transitions, and the emergency stop.
//!
//! ```text
//! trace [--scenario ds1..ds5] [--seed N] [--golden] [--out FILE]
//! ```

use av_experiments::prelude::*;
use av_experiments::suite::{parsed, value, ArgError};
use std::io::Write;

#[derive(Debug, PartialEq)]
struct TraceArgs {
    scenario: ScenarioId,
    seed: u64,
    golden: bool,
    out: Option<String>,
}

fn parse_scenario(s: &str) -> Option<ScenarioId> {
    match s.to_ascii_lowercase().as_str() {
        "ds1" | "ds-1" => Some(ScenarioId::Ds1),
        "ds2" | "ds-2" => Some(ScenarioId::Ds2),
        "ds3" | "ds-3" => Some(ScenarioId::Ds3),
        "ds4" | "ds-4" => Some(ScenarioId::Ds4),
        "ds5" | "ds-5" => Some(ScenarioId::Ds5),
        _ => None,
    }
}

/// The `trace` flags, for the usage line.
const USAGE: &str = "[--scenario ds1..ds5] [--seed N] [--golden] [--out FILE]";

/// Parses the `trace` flags out of `argv` (program name excluded). A
/// missing or unparseable value, or an argument no flag takes, is an
/// [`ArgError`].
fn parse_args(argv: &[String]) -> Result<TraceArgs, ArgError> {
    let mut args = TraceArgs {
        scenario: ScenarioId::Ds2,
        seed: 0,
        golden: false,
        out: None,
    };
    let mut iter = argv.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--scenario" => {
                let raw = value(&mut iter, "--scenario")?;
                args.scenario = parse_scenario(raw).ok_or_else(|| ArgError::BadValue {
                    flag: "--scenario",
                    value: raw.to_string(),
                    expected: "ds1..ds5",
                })?;
            }
            "--seed" => args.seed = parsed(&mut iter, "--seed", "a non-negative integer")?,
            "--out" => args.out = Some(value(&mut iter, "--out")?.to_string()),
            "--golden" => args.golden = true,
            other => return Err(ArgError::unknown(other, USAGE)),
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| e.exit());
    let attacker = if args.golden {
        AttackerSpec::None
    } else {
        // A timed Move_Out attack that reliably launches without any oracle
        // training (the same configuration the integration tests pin).
        AttackerSpec::AtDelta {
            vector: Some(AttackVector::MoveOut),
            delta_inject: 24.0,
            k: 60,
        }
    };

    let writer: Box<dyn Write + Send> = match &args.out {
        Some(path) => Box::new(std::fs::File::create(path).expect("create --out file")),
        None => Box::new(std::io::stdout()),
    };
    let telemetry = Telemetry::with_sink(JsonlSink::new(std::io::BufWriter::new(writer)));

    let outcome = SimSession::builder(args.scenario)
        .seed(args.seed)
        .attacker(attacker)
        .telemetry(telemetry.clone())
        .build()
        .run();

    eprintln!(
        "trace: {} seed {} — {:.1} s simulated, digest {}, attack launch {:?}, \
         EB {}, collision {}",
        args.scenario.name(),
        args.seed,
        outcome.sim_seconds,
        outcome.record.digest(),
        outcome.attack.launched_at,
        outcome.eb_any,
        outcome.collided,
    );
    if let Some(snapshot) = telemetry.metrics() {
        eprintln!("\n{}", snapshot.render_latency_table());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_every_flag() {
        let args = parse_args(&argv(&[
            "--scenario",
            "DS-4",
            "--seed",
            "7",
            "--golden",
            "--out",
            "t.jsonl",
        ]))
        .expect("valid flags");
        assert_eq!(
            args,
            TraceArgs {
                scenario: ScenarioId::Ds4,
                seed: 7,
                golden: true,
                out: Some("t.jsonl".into()),
            }
        );
    }

    #[test]
    fn missing_or_bad_values_name_the_flag() {
        for flag in ["--scenario", "--seed", "--out"] {
            assert_eq!(
                parse_args(&argv(&[flag])),
                Err(ArgError::MissingValue { flag })
            );
        }
        assert_eq!(
            parse_args(&argv(&["--seed", "7x"])),
            Err(ArgError::BadValue {
                flag: "--seed",
                value: "7x".into(),
                expected: "a non-negative integer",
            })
        );
        assert_eq!(
            parse_args(&argv(&["--golden", "--seeds", "7"])),
            Err(ArgError::unknown("--seeds", USAGE))
        );
        assert_eq!(
            parse_args(&argv(&["--scenario", "ds9"])),
            Err(ArgError::BadValue {
                flag: "--scenario",
                value: "ds9".into(),
                expected: "ds1..ds5",
            })
        );
    }
}
