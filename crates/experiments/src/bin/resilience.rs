//! The resilience study: does the ADS degrade gracefully under sensor
//! faults, and does RoboTack's mirrored replica (§III-D) survive them?
//!
//! Thin wrapper over [`av_experiments::jobs::resilience`] — the `suite`
//! orchestrator runs the same function, so its stdout is byte-identical.
//! Like the other oracle-driven binaries it honors `--cache-dir` /
//! `--no-cache` and trains (or loads) the NN oracle per RoboTack arm.

use av_experiments::jobs;
use av_experiments::memo::CampaignMemo;
use av_experiments::suite::Args;

fn main() {
    let args = Args::parse();
    let cache = args.oracle_cache();
    print!("{}", jobs::resilience(&args, &cache, &CampaignMemo::new()));
}
