//! Regenerates Fig. 7: time-steps K′ needed to move the perceived object
//! in/out by Ω, on vehicles (DS-1/DS-3) and pedestrians (DS-2/DS-4).
//!
//! Thin wrapper over [`av_experiments::jobs::fig7`] — the `suite`
//! orchestrator runs the same function, so its stdout is byte-identical.

use av_experiments::jobs;
use av_experiments::memo::CampaignMemo;
use av_experiments::suite::Args;

fn main() {
    let args = Args::parse();
    let cache = args.oracle_cache();
    print!("{}", jobs::fig7(&args, &cache, &CampaignMemo::new()));
}
