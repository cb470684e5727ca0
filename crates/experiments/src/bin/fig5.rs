//! Regenerates Fig. 5: detector noise characterization (misdetection streak
//! distributions and normalized bbox-center error fits, per class).
//!
//! Thin wrapper over [`av_experiments::jobs::fig5`] — the `suite`
//! orchestrator runs the same function, so its stdout is byte-identical.

use av_experiments::jobs;
use av_experiments::suite::Args;

fn main() {
    let args = Args::parse();
    print!("{}", jobs::fig5(&args, &args.oracle_cache()));
}
