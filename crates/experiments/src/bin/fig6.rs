//! Regenerates Fig. 6: min safety potential boxplots, RoboTack vs RoboTack
//! without the safety hijacker, for DS-1/DS-2 × Disappear/Move_Out.
//!
//! Thin wrapper over [`av_experiments::jobs::fig6`] — the `suite`
//! orchestrator runs the same function, so its stdout is byte-identical.

use av_experiments::jobs;
use av_experiments::memo::CampaignMemo;
use av_experiments::suite::Args;

fn main() {
    let args = Args::parse();
    let cache = args.oracle_cache();
    print!("{}", jobs::fig6(&args, &cache, &CampaignMemo::new()));
}
