//! Coverage-guided boundary search over generated scenarios.
//!
//! Runs the same [`av_experiments::search::run_search`] the `suite`
//! orchestrator runs for its `search:⟨vector⟩` jobs, so stdout here is
//! byte-identical to the suite's; evaluation-cache counters go to stderr.
//!
//! Shared options (`--runs`, `--quick`, `--seed`, `--cache-dir`,
//! `--no-cache`, `--batch`) behave as in every other experiment binary;
//! `--vector NAME` (`Move_Out` | `Move_In` | `Disappear`, repeatable)
//! selects which searches run. Default: all three.

use av_experiments::search::{run_search, SearchConfig};
use av_experiments::suite::{value, ArgError, Args, USAGE};
use robotack::vector::AttackVector;

/// Parses the shared flags and `--vector` out of `argv` (program name
/// excluded); no `--vector` selects every vector.
fn parse_args(argv: &[String]) -> Result<(Args, Vec<AttackVector>), ArgError> {
    let (args, rest) = Args::parse_known(argv)?;
    let mut vectors = Vec::new();
    let mut iter = rest.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--vector" => {
                let raw = value(&mut iter, "--vector")?;
                vectors.push(match raw {
                    "Move_Out" => AttackVector::MoveOut,
                    "Move_In" => AttackVector::MoveIn,
                    "Disappear" => AttackVector::Disappear,
                    _ => {
                        return Err(ArgError::BadValue {
                            flag: "--vector",
                            value: raw.to_string(),
                            expected: "Move_Out, Move_In or Disappear",
                        })
                    }
                });
            }
            other => {
                let usage = format!("{USAGE} [--vector Move_Out|Move_In|Disappear]...");
                return Err(ArgError::unknown(other, &usage));
            }
        }
    }
    if vectors.is_empty() {
        vectors.extend(AttackVector::ALL);
    }
    Ok((args, vectors))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, vectors) = parse_args(&argv).unwrap_or_else(|e| e.exit());

    let cache = args.oracle_cache();
    let sweep = args.sweep();
    for vector in vectors {
        let config = SearchConfig::for_args(vector, &args);
        let report = run_search(&config, &sweep, &cache);
        print!("{}", report.render());
        eprintln!(
            "search eval: hits={} misses={} [{}]",
            report.eval_hits,
            report.eval_misses,
            vector.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_vectors_after_the_shared_flags() {
        let (args, vectors) = parse_args(&argv(&[
            "--quick",
            "--vector",
            "Move_In",
            "--seed",
            "7",
            "--vector",
            "Disappear",
        ]))
        .expect("valid flags");
        assert!(args.quick);
        assert_eq!(args.seed, 7);
        assert_eq!(vectors, [AttackVector::MoveIn, AttackVector::Disappear]);
        let (_, all) = parse_args(&[]).expect("no flags");
        assert_eq!(all, AttackVector::ALL);
    }

    #[test]
    fn unknown_arguments_and_vectors_are_errors() {
        let Err(ArgError::UnknownFlag { flag, usage }) =
            parse_args(&argv(&["--quick", "--vectors", "Move_In"]))
        else {
            panic!("an unknown flag");
        };
        assert_eq!(flag, "--vectors");
        assert!(
            usage.starts_with(USAGE) && usage.contains("--vector"),
            "{usage}"
        );
        assert_eq!(
            parse_args(&argv(&["--vector", "Move_Up"])).map(|_| ()),
            Err(ArgError::BadValue {
                flag: "--vector",
                value: "Move_Up".into(),
                expected: "Move_Out, Move_In or Disappear",
            })
        );
        assert_eq!(
            parse_args(&argv(&["--vector"])).map(|_| ()),
            Err(ArgError::MissingValue { flag: "--vector" })
        );
    }
}
