//! Run horizons change how long a run is simulated, never what its
//! consumer reads: dataset examples and fig8(b) rows from runs cut at the
//! label horizon, and search verdicts from runs cut at the verdict
//! horizon, equal those of full runs bit for bit.

use av_experiments::horizon::probe::{self, Cut};
use av_experiments::oracle_cache::dataset_digest;
use av_experiments::prelude::*;
use av_experiments::suite::{Args, ARMS};
use av_experiments::train_sh::{collect_dataset, SweepConfig};
use av_scenarios::{ds, mutate, world_invariants, MutateConfig};
use av_simkit::recorder::Event;
use av_simkit::rng::run_rng;
use std::sync::Arc;

/// `collect_dataset` digests of the six arms over the `--quick` sweep, in
/// [`ARMS`] order, as full-length runs produce them.
const QUICK_DATASETS: [u64; 6] = [
    0x08a9_2cc6_a73f_d594,
    0x2da4_071b_310e_6f9c,
    0x21fa_68a8_49b9_6979,
    0x2dad_9734_1753_21dc,
    0xe3fb_46e2_8354_6a6d,
    0xb46f_c4cd_e697_8444,
];

/// The same over the default sweep.
const DEFAULT_DATASETS: [u64; 6] = [
    0xad5e_f1ad_4045_ba39,
    0xc4c4_aabe_df03_b704,
    0x3f18_bb54_36eb_4747,
    0x97c1_4ae4_b0cb_7ae3,
    0xce44_7293_a8d7_6843,
    0xeb98_2b84_5e9c_58dd,
];

fn quick() -> Args {
    Args {
        quick: true,
        ..Args::default()
    }
}

/// Bit patterns, so `-0.0 != 0.0` and NaN equals itself.
fn example_bits(example: &Option<(Vec<f64>, Vec<f64>)>) -> Option<Vec<u64>> {
    example
        .as_ref()
        .map(|(x, y)| x.iter().chain(y).map(|v| v.to_bits()).collect())
}

/// Whether the label horizon may stop this run before its end: only a
/// launched attack other than Move_In whose window closed.
fn cuttable(full: &RunOutcome) -> bool {
    full.attack.launched_at.is_some()
        && full.attack.vector != Some(AttackVector::MoveIn)
        && full.record.has_event(Event::AttackEnded)
}

fn assert_label_cut(cut: &Cut<Option<(Vec<f64>, Vec<f64>)>>, label: &str) {
    let seed = cut.full.seed;
    assert_eq!(
        example_bits(&cut.cut_read),
        example_bits(&cut.full_read),
        "{label} seed {seed}: example"
    );
    assert!(
        cut.cut_seconds <= cut.full.sim_seconds,
        "{label} seed {seed}"
    );
    if !cuttable(&cut.full) {
        assert_eq!(
            cut.cut_seconds.to_bits(),
            cut.full.sim_seconds.to_bits(),
            "{label} seed {seed}: a run the label horizon must not cut was cut"
        );
    }
}

#[test]
fn label_runs_yield_the_full_runs_examples_on_every_arm() {
    let sweep = quick().sweep();
    for (scenario, vector, label) in ARMS {
        let cuts = probe::dataset(scenario, vector, &sweep);
        assert!(!cuts.is_empty(), "{label}");
        for cut in &cuts {
            assert_label_cut(cut, label);
        }
        let shortened = cuts
            .iter()
            .filter(|c| c.cut_seconds < c.full.sim_seconds)
            .count();
        if vector == AttackVector::MoveIn {
            assert_eq!(shortened, 0, "{label}: Move_In labels read the whole run");
        } else {
            assert!(shortened > 0, "{label}: no run was cut");
        }
    }
}

#[test]
fn a_window_that_never_closes_is_never_cut() {
    // K far beyond the scenario's frames: the attack launches and is
    // still perturbing when the run ends.
    let sweep = SweepConfig {
        delta_injects: vec![30.0],
        ks: vec![5_000],
        seeds_per_cell: 2,
        base_seed: 0x5EED,
    };
    let cuts = probe::dataset(ScenarioId::Ds1, AttackVector::MoveOut, &sweep);
    for cut in &cuts {
        assert!(cut.full.attack.launched_at.is_some(), "the attack launches");
        assert!(!cut.full.record.has_event(Event::AttackEnded));
        assert_label_cut(cut, "open window");
    }
}

#[test]
fn quick_dataset_digests_are_pinned() {
    let sweep = quick().sweep();
    for ((scenario, vector, label), pinned) in ARMS.into_iter().zip(QUICK_DATASETS) {
        let data = collect_dataset(scenario, vector, &sweep);
        assert_eq!(dataset_digest(&data), pinned, "{label}");
    }
}

/// The default sweep's datasets (4 290 runs): run in the release test job
/// with `--include-ignored`; too slow for a debug build.
#[test]
#[ignore = "slow: the default sweep; run with --release -- --include-ignored"]
fn default_dataset_digests_are_pinned() {
    let sweep = SweepConfig::default();
    for ((scenario, vector, label), pinned) in ARMS.into_iter().zip(DEFAULT_DATASETS) {
        let data = collect_dataset(scenario, vector, &sweep);
        assert_eq!(dataset_digest(&data), pinned, "{label}");
    }
}

/// Whether the full run braked after launch before its first accident
/// sample: the runs on which the verdict horizon must wait for both.
fn brakes_before_its_accident(full: &RunOutcome) -> bool {
    let Some(t0) = full.attack.launched_at else {
        return false;
    };
    let eb = full
        .record
        .events
        .iter()
        .find(|(t, e)| *e == Event::EmergencyBrake && *t >= t0 - 1e-9)
        .map(|(t, _)| *t);
    let accident = full
        .record
        .samples
        .iter()
        .find(|s| s.t >= t0 && s.delta < 4.0)
        .map(|s| s.t);
    matches!((eb, accident), (Some(eb), Some(accident)) if eb < accident)
}

#[test]
fn verdict_runs_yield_the_full_runs_verdicts() {
    let mut specs: Vec<(String, Arc<av_scenarios::ScenarioSpec>)> = ds::all()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| (format!("DS-{}", i + 1), Arc::new(spec)))
        .collect();
    // Mutants of DS-1..3 whose sampled worlds are valid. On the fixed
    // scenarios every accident comes before (or with) the braking; a few
    // of these mutants brake first.
    let mut rng = run_rng(2020, 0x5EA6C4);
    for (root, name) in [
        (ds::ds1(), "DS-1"),
        (ds::ds2(), "DS-2"),
        (ds::ds3(), "DS-3"),
    ] {
        let mut kept = 0;
        while kept < 12 {
            let mutant = mutate(&root, &mut rng, &MutateConfig::default());
            if mutant.validate().is_ok() && world_invariants(&mutant.sample(40)).is_ok() {
                kept += 1;
                specs.push((format!("{name} mutant {kept}"), Arc::new(mutant)));
            }
        }
    }
    let (mut cut_short, mut brakes_first) = (0, 0);
    for vector in [
        AttackVector::Disappear,
        AttackVector::MoveOut,
        AttackVector::MoveIn,
    ] {
        for (label, spec) in &specs {
            let attacker = AttackerSpec::RoboTack {
                vector: Some(vector),
                oracle: OracleSpec::Kinematic,
            };
            let campaign = Campaign::generated(label.as_str(), spec.clone(), attacker, 3, 40);
            for i in 0..campaign.runs {
                let cut = probe::verdict(campaign.session(i, &Telemetry::disabled()));
                assert_eq!(
                    cut.cut_read, cut.full_read,
                    "{label} {vector:?} run {i}: verdict"
                );
                cut_short += usize::from(cut.cut_seconds < cut.full.sim_seconds);
                brakes_first += usize::from(brakes_before_its_accident(&cut.full));
            }
        }
    }
    assert!(
        cut_short > 0,
        "the verdict horizon never stopped a run early"
    );
    assert!(brakes_first > 0, "no run braked before its accident");
}

#[test]
fn fig8b_rows_are_identical_under_both_horizons() {
    for args in [quick(), Args::default()] {
        let (full, cut) = probe::fig8b(&args, &OracleSpec::Kinematic);
        assert!(!full.is_empty(), "panel (b) has rows");
        let bits = |rows: &[(u32, f64, f64)]| -> Vec<(u32, u64, u64)> {
            rows.iter()
                .map(|&(k, p, a)| (k, p.to_bits(), a.to_bits()))
                .collect()
        };
        assert_eq!(bits(&cut), bits(&full), "quick = {}", args.quick);
    }
}
