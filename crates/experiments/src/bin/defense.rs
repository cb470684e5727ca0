//! The countermeasure study: how well does an onboard IDS (innovation
//! CUSUM, misdetection-streak envelope, cross-sensor consistency, kinematic
//! plausibility — `av-defense`) see RoboTack?
//!
//! Thin wrapper over [`av_experiments::jobs::defense`] — the `suite`
//! orchestrator runs the same function, so its stdout is byte-identical.

use av_experiments::jobs;
use av_experiments::memo::CampaignMemo;
use av_experiments::suite::Args;

fn main() {
    let args = Args::parse();
    let cache = args.oracle_cache();
    print!("{}", jobs::defense(&args, &cache, &CampaignMemo::new()));
}
