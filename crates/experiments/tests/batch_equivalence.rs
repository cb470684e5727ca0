//! Block-size × thread-count invariance of campaign dispatch.
//!
//! Campaign workers claim blocks of run indices (`--batch N` sets the block
//! size) and run each session of a block through `SimSession::run_with` on
//! one long-lived `SessionWorker`. `RunRecord::digest()` must be
//! **bit-identical** to a plain sequential loop for every scenario, seed,
//! fault plan, attacker, block size and worker count. This suite pins that
//! contract end to end:
//!
//! - the DS-1..DS-5 golden digests (the same committed fixtures the
//!   golden-trace suite pins) reproduced at block sizes 1, 7, and 64 on one
//!   and two workers;
//! - fault-injected runs (sensor-side drops rewriting the RNG-visible
//!   world) and malware runs (kinematic, NN-oracle, random-timing, and
//!   baseline attackers) at every block size and worker count;
//! - mixed blocks: sessions of different scenarios and durations reusing
//!   one worker's warm ADS back to back without perturbing each other.

use av_experiments::prelude::*;
use av_experiments::train_sh::train_oracle_on;
use av_faults::{FaultKind, FaultPlan, FaultSpec};
use av_neural::train::Dataset;
use av_scenarios::{ds, mutate, MutateConfig, ScenarioSpec};
use av_simkit::rng::run_rng;
use robotack::safety_hijacker::NnOracle;
use std::sync::Arc;

/// The committed golden fixtures (kept in sync with `golden_traces.rs`): if
/// block dispatch reproduces these, it reproduces the exact sequential
/// trajectories down to the last ULP.
const GOLDEN: [(ScenarioId, u64, &str); 5] = [
    (ScenarioId::Ds1, 7, "88fd3971a1e3db6f"),
    (ScenarioId::Ds2, 7, "8ac9cef96c26d7c6"),
    (ScenarioId::Ds3, 7, "a7da8c6ce2fbf298"),
    (ScenarioId::Ds4, 7, "a3119dae4c2710e6"),
    (ScenarioId::Ds5, 7, "cfdbc2735d4a6661"),
];

const BATCH_SIZES: [usize; 3] = [1, 7, 64];
const THREADS: [usize; 2] = [1, 2];

fn session(
    scenario: ScenarioId,
    seed: u64,
    attacker: AttackerSpec,
    faults: FaultPlan,
) -> SimSession {
    SimSession::builder(scenario)
        .seed(seed)
        .attacker(attacker)
        .faults(faults)
        .build()
}

/// Runs every session back to back on one worker.
fn sequential(sessions: &[SimSession]) -> Vec<RunOutcome> {
    let mut worker = SessionWorker::new();
    sessions.iter().map(|s| s.run_with(&mut worker)).collect()
}

/// Runs the sessions as one [`run_sweep`] whose `threads` workers claim
/// blocks of `batch_size`, each reusing one `SessionWorker` across its runs
/// exactly like a campaign worker.
fn batched(sessions: &[SimSession], batch_size: usize, threads: usize) -> Vec<RunOutcome> {
    run_sweep(
        sessions.len(),
        threads,
        batch_size,
        &|_| Telemetry::disabled(),
        |i, _| sessions[i].clone(),
        |outcome| outcome,
    )
    .expect("threads and block size are at least 1")
}

/// Checks `sessions` against their sequential outcomes at every block size
/// on every worker count.
fn assert_dispatch_invariant(sessions: &[SimSession], seq: &[RunOutcome], label: &str) {
    for batch_size in BATCH_SIZES {
        for threads in THREADS {
            let bat = batched(sessions, batch_size, threads);
            let label = format!("{label}, batch {batch_size}, {threads} workers");
            assert_outcomes_equivalent(seq, &bat, &label);
        }
    }
}

/// Field-by-field equivalence of a block-dispatched outcome against its
/// sequential twin. The digest covers the full time series bit-exactly; the remaining
/// asserts catch divergence in the outcome summary itself.
fn assert_outcomes_equivalent(seq: &[RunOutcome], bat: &[RunOutcome], label: &str) {
    assert_eq!(seq.len(), bat.len(), "{label}: run count");
    for (a, b) in seq.iter().zip(bat) {
        let ctx = format!("{label}: {:?} seed {}", a.scenario, a.seed);
        assert_eq!(a.record.digest(), b.record.digest(), "{ctx}: digest");
        assert_eq!(a.seed, b.seed, "{ctx}: seed order");
        assert_eq!(
            a.sim_seconds.to_bits(),
            b.sim_seconds.to_bits(),
            "{ctx}: end time"
        );
        assert_eq!(a.collided, b.collided, "{ctx}: collided");
        assert_eq!(a.accident, b.accident, "{ctx}: accident");
        assert_eq!(a.eb_any, b.eb_any, "{ctx}: eb_any");
        assert_eq!(
            a.eb_after_attack, b.eb_after_attack,
            "{ctx}: eb_after_attack"
        );
        assert_eq!(
            a.attack.launched_at, b.attack.launched_at,
            "{ctx}: launch time"
        );
        assert_eq!(a.attack.k, b.attack.k, "{ctx}: planned K");
        assert_eq!(
            a.attack.frames_perturbed, b.attack.frames_perturbed,
            "{ctx}: frames perturbed"
        );
        assert_eq!(
            a.min_delta_post_attack.map(f64::to_bits),
            b.min_delta_post_attack.map(f64::to_bits),
            "{ctx}: min delta"
        );
        assert_eq!(a.k_prime_ads, b.k_prime_ads, "{ctx}: K'");
        assert_eq!(a.faults, b.faults, "{ctx}: fault stats");
        assert_eq!(a.stale_frames, b.stale_frames, "{ctx}: stale frames");
        assert_eq!(a.ids_alarms.len(), b.ids_alarms.len(), "{ctx}: alarm count");
    }
}

/// A small NN oracle trained on a synthetic dataset, shared across sessions
/// as a campaign shares its oracle.
fn synthetic_nn_oracle() -> OracleSpec {
    let data = Dataset::from_rows((0..64).map(|i| {
        let delta = 5.0 + f64::from(i % 16) * 2.0;
        let k = f64::from(i % 8) * 10.0;
        (vec![delta, -3.0, 0.5, -0.1, k], vec![delta - 0.1 * k])
    }));
    OracleSpec::Nn(Arc::clone(
        &train_oracle_on(&data)
            .expect("synthetic dataset trains")
            .oracle,
    ))
}

#[test]
fn golden_digests_identical_at_every_batch_size() {
    // Seed-major interleave: each size-7 block mixes scenarios, so a worker
    // alternates actor counts AND durations (DS-3 is 20 s, DS-1 45 s).
    let mut sessions = Vec::new();
    for seed in [7, 8, 9] {
        for (scenario, _, _) in GOLDEN {
            sessions.push(session(
                scenario,
                seed,
                AttackerSpec::None,
                FaultPlan::none(),
            ));
        }
    }
    let seq = sequential(&sessions);
    // The sequential loop still matches the committed fixtures…
    for (scenario, seed, expected) in GOLDEN {
        let out = seq
            .iter()
            .find(|o| o.scenario == scenario && o.seed == seed)
            .expect("seed 7 present");
        assert_eq!(
            out.record.digest(),
            expected,
            "{scenario:?} seed {seed}: sequential trace drifted from fixture"
        );
    }
    // …and block dispatch reproduces it bit-for-bit at every block size.
    assert_dispatch_invariant(&sessions, &seq, "golden");
}

#[test]
fn faulted_runs_are_batch_equivalent() {
    let plan = FaultPlan::single(FaultSpec::always(FaultKind::CameraFrameDrop {
        probability: 0.3,
    }));
    let mut sessions = Vec::new();
    for scenario in [ScenarioId::Ds1, ScenarioId::Ds2] {
        for seed in [5, 6, 7] {
            sessions.push(session(scenario, seed, AttackerSpec::None, plan.clone()));
        }
    }
    let seq = sequential(&sessions);
    assert!(
        seq.iter().any(|o| o.faults.camera_frames_dropped > 0),
        "the fault plan must actually fire"
    );
    assert_dispatch_invariant(&sessions, &seq, "faulted");
}

#[test]
fn malware_runs_are_batch_equivalent() {
    let nn = synthetic_nn_oracle();
    let mut sessions = Vec::new();
    // Kinematic-oracle RoboTack.
    for seed in [11, 12, 13] {
        sessions.push(session(
            ScenarioId::Ds1,
            seed,
            AttackerSpec::RoboTack {
                vector: Some(AttackVector::MoveOut),
                oracle: OracleSpec::Kinematic,
            },
            FaultPlan::none(),
        ));
    }
    // NN-oracle RoboTack, all sessions sharing ONE oracle as a campaign
    // does.
    for seed in [11, 12, 13, 14] {
        sessions.push(session(
            ScenarioId::Ds1,
            seed,
            AttackerSpec::RoboTack {
                vector: Some(AttackVector::Disappear),
                oracle: nn.clone(),
            },
            FaultPlan::none(),
        ));
    }
    // Random-timing RoboTack (draws launch parameters from the run RNG at
    // build time — any stream perturbation shows up instantly)…
    sessions.push(session(
        ScenarioId::Ds2,
        5,
        AttackerSpec::RoboTackNoSh {
            vector: Some(AttackVector::MoveIn),
        },
        FaultPlan::none(),
    ));
    // …and the Baseline-Random attacker.
    sessions.push(session(
        ScenarioId::Ds1,
        3,
        AttackerSpec::Random,
        FaultPlan::none(),
    ));

    let seq = sequential(&sessions);
    assert!(
        seq.iter().any(|o| o.attack.launched_at.is_some()),
        "at least one attack must launch for the test to mean anything"
    );
    assert_dispatch_invariant(&sessions, &seq, "malware");
}

#[test]
fn generated_scenarios_are_batch_equivalent() {
    // The same population the boundary search explores: each DS root
    // pushed through a few seeded mutation steps, then run as a
    // spec-carrying session (ScenarioId::Gen + out-of-band spec).
    let mut rng = run_rng(0xB47C, 0x7E57);
    let cfg = MutateConfig::default();
    let mut sessions = Vec::new();
    for root in ds::all() {
        let mut spec = root;
        for _ in 0..3 {
            spec = mutate(&spec, &mut rng, &cfg);
        }
        assert!(spec.validate().is_ok(), "mutant stays spec-valid");
        let spec: Arc<ScenarioSpec> = Arc::new(spec);
        for seed in [7, 8] {
            sessions.push(
                SimSession::builder(spec.scenario_id())
                    .spec(spec.clone())
                    .seed(seed)
                    .attacker(AttackerSpec::RoboTack {
                        vector: Some(AttackVector::MoveOut),
                        oracle: OracleSpec::Kinematic,
                    })
                    .build(),
            );
        }
    }

    let seq = sequential(&sessions);
    assert!(
        seq.iter().any(|o| o.attack.launched_at.is_some()),
        "at least one attack must launch on a generated world"
    );
    assert_dispatch_invariant(&sessions, &seq, "generated");
}

/// A second oracle, distinct in identity and in predictions, without a
/// second training run: `oracle`'s network behind a shifted normalizer.
fn shifted_oracle(oracle: &OracleSpec) -> OracleSpec {
    let OracleSpec::Nn(nn) = oracle else {
        panic!("expected an NN oracle")
    };
    let mut normalizer = nn.normalizer().clone();
    normalizer.mean[0] += 4.0;
    OracleSpec::Nn(Arc::new(NnOracle::from_inference(
        nn.inference().clone(),
        nn.dropout(),
        normalizer,
    )))
}

/// The boundary search packs a whole round of small campaigns into one
/// [`run_sweep`]: blocks then span campaigns with different scenarios,
/// specs, oracles, and durations. Every run must still reproduce its own
/// campaign's sequential digest, at any batch size and worker count.
#[test]
fn packed_sweep_matches_per_candidate_campaigns() {
    let nn_a = synthetic_nn_oracle();
    let nn_b = shifted_oracle(&nn_a);
    let robotack = |vector, oracle: &OracleSpec| AttackerSpec::RoboTack {
        vector: Some(vector),
        oracle: oracle.clone(),
    };
    let mut rng = run_rng(0x5EA6, 0x7E57);
    let mut mutant = |root: ScenarioSpec| {
        let spec = mutate(&root, &mut rng, &MutateConfig::default());
        assert!(spec.validate().is_ok(), "mutant stays spec-valid");
        Arc::new(spec)
    };
    // Two runs per campaign, ten in all: neither divides nor is divided by
    // the batch sizes above 1, so blocks straddle campaign boundaries and
    // the last block is partial. DS-1 (45 s) and DS-3 (20 s) make mixed
    // blocks ragged.
    let runs = 2;
    let campaigns = [
        Campaign::new(
            "ds1-nn-a",
            ScenarioId::Ds1,
            robotack(AttackVector::Disappear, &nn_a),
            runs,
            30,
        ),
        Campaign::new(
            "ds3-kinematic",
            ScenarioId::Ds3,
            robotack(AttackVector::MoveOut, &OracleSpec::Kinematic),
            runs,
            30,
        ),
        Campaign::generated(
            "gen-ds2-nn-b",
            mutant(ds::ds2()),
            robotack(AttackVector::MoveOut, &nn_b),
            runs,
            30,
        ),
        Campaign::generated(
            "gen-ds1-nn-a",
            mutant(ds::ds1()),
            robotack(AttackVector::Disappear, &nn_a),
            runs,
            30,
        ),
        Campaign::generated(
            "gen-ds5-kinematic",
            mutant(ds::ds5()),
            robotack(AttackVector::MoveIn, &OracleSpec::Kinematic),
            runs,
            30,
        ),
    ];

    let mut expected = Vec::new();
    let mut launched = 0;
    for campaign in &campaigns {
        let result =
            run_campaign_dispatch(campaign, 1, DispatchMode::WorkStealing).expect("1 worker");
        launched += result.n_launched();
        expected.extend(result.outcomes.iter().map(|o| o.record.digest()));
    }
    assert!(
        launched > 0,
        "an attack must launch for the test to mean anything"
    );

    let per = runs as usize;
    for batch_size in [1, 3, 8, 64] {
        for threads in [1, 2, 3] {
            let packed = run_sweep(
                campaigns.len() * per,
                threads,
                batch_size,
                &|_| Telemetry::disabled(),
                |i, tele| campaigns[i / per].session((i % per) as u64, tele),
                |outcome| outcome.record.digest(),
            )
            .expect("threads >= 1");
            assert_eq!(
                packed, expected,
                "packed sweep at batch {batch_size}, {threads} workers"
            );
        }
    }
}

#[test]
fn ragged_batches_retire_lanes_without_perturbing_survivors() {
    // One block holding every scenario: DS-3 (20 s), DS-4 (25 s), DS-2
    // (30 s) and DS-1/DS-5 (45 s) run back to back on one worker, each
    // reusing the ADS the previous, differently-sized run left behind.
    let sessions: Vec<SimSession> = GOLDEN
        .iter()
        .map(|&(scenario, _, _)| session(scenario, 21, AttackerSpec::None, FaultPlan::none()))
        .collect();
    let seq = sequential(&sessions);
    let mut end_ticks: Vec<u64> = seq.iter().map(|o| o.sim_seconds.to_bits()).collect();
    end_ticks.sort_unstable();
    end_ticks.dedup();
    assert!(
        end_ticks.len() >= 3,
        "the block must actually be ragged (got {} distinct end times)",
        end_ticks.len()
    );
    // All five sessions in one claimed block.
    let bat = batched(&sessions, sessions.len(), 1);
    assert_outcomes_equivalent(&seq, &bat, "ragged full block");
}
