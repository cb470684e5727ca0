//! Batch-size sweep for the lockstep batch engine.
//!
//! Times the NN-oracle RoboTack campaign (the paper's primary workload, and
//! the one whose k-search queries the batch engine fuses into cross-session
//! rounds) under sequential dispatch and `DispatchMode::Batched` at several
//! batch sizes, asserting along the way that every per-run digest is
//! bit-identical to the sequential engine.
//!
//! This regenerates the `batched_campaign` section of `BENCH_suite.json`:
//!
//! ```text
//! cargo run --release --example batch_sweep
//! ```

use av_experiments::campaign::{run_campaign_dispatch, DispatchMode};
use av_experiments::prelude::*;
use av_experiments::train_sh::train_oracle_on;
use av_neural::train::Dataset;
use std::time::Instant;

const RUNS: u64 = 32;
const REPS: u32 = 3;

fn synthetic_dataset(n: usize) -> Dataset {
    Dataset::from_rows((0..n).map(|i| {
        let delta = 5.0 + (i % 20) as f64 * 2.0;
        let k = (i % 9) as f64 * 10.0;
        (vec![delta, -3.0, 0.5, -0.1, k], vec![delta - 0.1 * k])
    }))
}

fn campaign() -> Campaign {
    let oracle = train_oracle_on(&synthetic_dataset(128)).expect("synthetic dataset trains");
    Campaign::new(
        "batch-sweep",
        ScenarioId::Ds1,
        AttackerSpec::RoboTack {
            vector: Some(AttackVector::Disappear),
            oracle: OracleSpec::Nn(oracle.oracle),
        },
        RUNS,
        900,
    )
}

/// Best-of-`REPS` wall-clock for one dispatch mode, plus the run digests.
fn time_mode(campaign: &Campaign, mode: DispatchMode) -> (f64, Vec<String>) {
    let mut best = f64::INFINITY;
    let mut digests = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let result = run_campaign_dispatch(campaign, 1, mode).expect("one thread is nonzero");
        best = best.min(t0.elapsed().as_secs_f64());
        digests = result.outcomes.iter().map(|o| o.record.digest()).collect();
    }
    (best, digests)
}

fn main() {
    println!("training the synthetic oracle ...");
    let campaign = campaign();

    println!("timing the {RUNS}-run DS-1 NN campaign (best of {REPS}, 1 thread):\n");
    let (seq_s, seq_digests) = time_mode(&campaign, DispatchMode::WorkStealing);
    println!(
        "{:<14} {:>9.1} ms {:>8}",
        "sequential",
        seq_s * 1e3,
        "1.00x"
    );

    for batch_size in [4usize, 8, 16, 32, 64] {
        let (s, digests) = time_mode(&campaign, DispatchMode::Batched { batch_size });
        assert_eq!(
            digests, seq_digests,
            "batch_size={batch_size}: digests diverged from sequential"
        );
        println!(
            "{:<14} {:>9.1} ms {:>7.2}x   digests identical",
            format!("batched_{batch_size}"),
            s * 1e3,
            seq_s / s
        );
    }
}
