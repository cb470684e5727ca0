//! Regenerates Fig. 8: safety-hijacker NN quality — (a) attack success
//! probability vs binned prediction error; (b) predicted vs ground-truth δ
//! after k attacked frames (DS-1 Move_Out).
//!
//! Thin wrapper over [`av_experiments::jobs::fig8`] — the `suite`
//! orchestrator runs the same function, so its stdout is byte-identical.

use av_experiments::jobs;
use av_experiments::memo::CampaignMemo;
use av_experiments::suite::Args;

fn main() {
    let args = Args::parse();
    let cache = args.oracle_cache();
    print!("{}", jobs::fig8(&args, &cache, &CampaignMemo::new()));
}
