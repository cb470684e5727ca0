//! Regenerates Table II: attack summary for the six RoboTack campaigns plus
//! the DS-5 random baseline, with the paper's reference numbers inline.
//!
//! Thin wrapper over [`av_experiments::jobs::table2`] — the `suite`
//! orchestrator runs the same function, so its stdout is byte-identical.

use av_experiments::jobs;
use av_experiments::memo::CampaignMemo;
use av_experiments::suite::Args;

fn main() {
    let args = Args::parse();
    let cache = args.oracle_cache();
    print!("{}", jobs::table2(&args, &cache, &CampaignMemo::new()));
}
