//! Ablation studies for the design choices DESIGN.md calls out: the
//! trajectory-hijacker noise gate, the fusion LiDAR registration delay, the
//! SH launch threshold γ, and binary-vs-linear K search.
//!
//! Thin wrapper over [`av_experiments::jobs::ablations`] — the `suite`
//! orchestrator runs the same function, so its stdout is byte-identical.

use av_experiments::jobs;
use av_experiments::memo::CampaignMemo;
use av_experiments::suite::Args;

fn main() {
    let args = Args::parse();
    let cache = args.oracle_cache();
    print!("{}", jobs::ablations(&args, &cache, &CampaignMemo::new()));
}
