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
use av_experiments::suite::Args;
use robotack::vector::AttackVector;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, rest) = Args::parse_known(&argv).unwrap_or_else(|e| e.exit());

    let mut vectors = Vec::new();
    let mut iter = rest.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--vector" => match iter.next().map(String::as_str) {
                Some("Move_Out") => vectors.push(AttackVector::MoveOut),
                Some("Move_In") => vectors.push(AttackVector::MoveIn),
                Some("Disappear") => vectors.push(AttackVector::Disappear),
                other => {
                    eprintln!("unknown vector {other:?} (Move_Out | Move_In | Disappear)");
                    std::process::exit(2);
                }
            },
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    if vectors.is_empty() {
        vectors.extend(AttackVector::ALL);
    }

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
