//! The paper's experiments as library functions plus the suite job DAG.
//!
//! Every `src/bin` experiment binary is a ~10-line wrapper around one
//! function here: the function builds the complete stdout report as a
//! `String` (progress and scorecards still go to stderr), the binary
//! `print!`s it. The `suite` orchestrator runs the *same* functions as
//! [`av_suite::Job`]s on a shared worker pool — so a job's stdout inside
//! the suite is byte-identical to its standalone binary's stdout, and CI
//! diffs the two.
//!
//! [`paper_dag`] declares the whole evaluation as one DAG over a shared
//! [`ArtifactStore`]:
//!
//! ```text
//! dataset:⟨scenario⟩:⟨vector⟩   (6 jobs: collect the δ_inject × k sweep)
//!    └─ oracle:⟨scenario⟩:⟨vector⟩   (6 jobs: train + snapshot the NN oracle)
//!          └─ table2, fig6, fig7, fig8, ablations, defense, resilience
//!          └─ search:⟨vector⟩   (3 jobs: coverage-guided boundary search)
//! fig5   (independent: detector characterization, no oracle)
//! ```
//!
//! Report jobs only *read* oracles the preparation jobs already stored, so
//! any worker count yields the same bytes; each job gets its own
//! [`OracleCache`] view over the shared store, which is what makes the
//! per-job hit/miss scorecards in the run summary exact.
//!
//! Report jobs share simulated campaigns through the execution's
//! [`CampaignMemo`] (a value of its [`av_suite::ExecScope`]) and the
//! store's `campaign` namespace behind it: Table II's six RoboTack arms
//! are simulated once per store, and fig6's R panels, fig7, fig8(a) and
//! resilience's healthy cells read the same folded runs — whichever job
//! asks first reads the stored entry or simulates, the others wait or take
//! a prefix. `defense` folds its golden, RoboTack and naive campaigns the
//! same way and reads the IDS alarm counts each [`RunSummary`] keeps;
//! each `ablations` cell is one campaign whose configuration template sets
//! the swept σ fraction, LiDAR registration delay or γ. A later execution
//! over the same store reads every campaign an earlier one simulated; its
//! store lookups count in each job's hit/miss scorecard. A standalone
//! binary runs its report with a fresh memo over its own store view, so
//! its stdout stays byte-identical to the suite job's.
//!
//! Two reports compute outside the campaign memo, and the store keeps what
//! they compute as `figure` entries ([`crate::figures`]): `fig5`'s detector
//! characterization, which runs no campaign, and fig8(b)'s k sweep (one run
//! per k, reading the attack features at launch, which a [`RunSummary`]
//! does not keep; each run stops once its label is final, see
//! [`crate::horizon`]). A warm execution therefore simulates nothing.
//!
//! The jobs of one execution also share an [`OracleMemo`] (another value
//! of its [`av_suite::ExecScope`]): each oracle is decoded or trained once
//! and digested once, whichever jobs use it.

use crate::figures::{self, Fig8bRun};
use crate::horizon::Horizon;
use crate::memo::CampaignMemo;
use crate::oracle_cache::{dataset_digest, OracleCache, OracleMemo};
use crate::prelude::*;
use crate::report::{
    render_fig5, render_fig6_panel, render_fig6_rates, render_fig7_panel, render_fig8a,
    render_fig8b, render_table2, Table2Reference,
};
use crate::stats;
use crate::stats::median;
use crate::suite::{
    baseline_campaign, nosh_campaign, oracle_for, r_campaign, report_cache, Args, ARMS,
};
use av_defense::ids::AlarmKind;
use av_faults::{FaultKind, FaultPlan, FaultSpec};
use av_suite::api::{ErrorCode, EvalRequest};
use av_suite::serve::EvalService;
use av_suite::{ArtifactStore, Dag, DagError, ExecScope, Job, JobOutcome};
use robotack::safety_hijacker::{
    AttackFeatures, KinematicOracle, SafetyHijacker, SafetyHijackerConfig, SafetyOracle,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// `campaign`'s folded runs through `memo` and the store behind `cache`,
/// on the host's default worker count under `args.dispatch`.
fn fold(
    memo: &CampaignMemo,
    cache: &OracleCache,
    args: &Args,
    campaign: &Campaign,
) -> CampaignSummary {
    memo.run(campaign, cache, default_threads(), args.dispatch)
        .expect("default_threads() is nonzero")
}

/// Table II: the six RoboTack campaigns plus the DS-5 random baseline,
/// with the paper's reference numbers inline.
pub fn table2(args: &Args, cache: &OracleCache, memo: &CampaignMemo) -> String {
    let sweep = args.sweep();
    eprintln!("table2: {} runs/campaign (quick={})", args.runs, args.quick);

    let references = [
        Table2Reference {
            k: "48",
            eb_pct: "53.5%",
            crash_pct: "31.7%",
        },
        Table2Reference {
            k: "14",
            eb_pct: "94.4%",
            crash_pct: "82.6%",
        },
        Table2Reference {
            k: "65",
            eb_pct: "37.3%",
            crash_pct: "17.3%",
        },
        Table2Reference {
            k: "32",
            eb_pct: "97.8%",
            crash_pct: "84.1%",
        },
        Table2Reference {
            k: "48",
            eb_pct: "94.6%",
            crash_pct: "—",
        },
        Table2Reference {
            k: "24",
            eb_pct: "78.5%",
            crash_pct: "—",
        },
    ];

    let mut rows = Vec::new();
    for ((scenario, vector, name), reference) in ARMS.iter().zip(references) {
        eprintln!("training oracle for {name} ...");
        let (oracle, desc) = oracle_for(*scenario, *vector, &sweep, cache);
        eprintln!("  {desc}");
        eprintln!("running campaign {name} ...");
        let result = fold(
            memo,
            cache,
            args,
            &r_campaign(name, *scenario, *vector, oracle, args.runs, args.seed),
        );
        let crashes_apply = !name.contains("Move_In");
        rows.push((result, reference, crashes_apply));
    }

    eprintln!("running DS-5-Baseline-Random ...");
    let baseline = fold(
        memo,
        cache,
        args,
        &baseline_campaign(args.runs.max(24), args.seed + 5000),
    );
    report_cache(cache);

    let mut out = String::new();
    writeln!(out, "{}", render_table2(&rows, &baseline)).unwrap();
    out
}

/// Fig. 5: detector noise characterization (misdetection streak
/// distributions and normalized bbox-center error fits, per class), read
/// from the store behind `cache` when an earlier run characterized the same
/// frames.
pub fn fig5(args: &Args, cache: &OracleCache) -> String {
    // The paper characterizes ~10 minutes of 15 Hz video (~9000 frames).
    let frames = if args.quick { 2_000 } else { 9_000 };
    let fold = figures::fig5(cache, frames, args.seed);
    report_cache(cache);
    let mut out = String::new();
    writeln!(out, "{}", render_fig5(&fold)).unwrap();
    out
}

/// Fig. 6: min safety potential boxplots, RoboTack vs RoboTack without the
/// safety hijacker, for DS-1/DS-2 × Disappear/Move_Out.
pub fn fig6(args: &Args, cache: &OracleCache, memo: &CampaignMemo) -> String {
    let sweep = args.sweep();
    let panels = [
        (
            ScenarioId::Ds1,
            AttackVector::Disappear,
            "(a) DS-1-Disappear",
            (19.0, 9.0),
        ),
        (
            ScenarioId::Ds1,
            AttackVector::MoveOut,
            "(b) DS-1-Move_Out",
            (19.0, 13.0),
        ),
        (
            ScenarioId::Ds2,
            AttackVector::Disappear,
            "(c) DS-2-Disappear",
            (7.0, 3.0),
        ),
        (
            ScenarioId::Ds2,
            AttackVector::MoveOut,
            "(d) DS-2-Move_Out",
            (9.0, 3.0),
        ),
    ];
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 6: impact of attack timing on min safety potential δ (m)\n"
    )
    .unwrap();
    for (scenario, vector, label, paper) in panels {
        eprintln!("training oracle for {label} ...");
        let (oracle, desc) = oracle_for(scenario, vector, &sweep, cache);
        eprintln!("  {desc}");
        let with_sh = fold(
            memo,
            cache,
            args,
            &r_campaign("R", scenario, vector, oracle, args.runs, args.seed),
        );
        let without_sh = fold(
            memo,
            cache,
            args,
            &nosh_campaign("R w/o SH", scenario, vector, args.runs, args.seed + 77),
        );
        writeln!(
            out,
            "{}",
            render_fig6_panel(label, &without_sh, &with_sh, paper)
        )
        .unwrap();
        writeln!(out, "{}\n", render_fig6_rates(&without_sh, &with_sh)).unwrap();
    }
    report_cache(cache);
    out
}

/// Fig. 7: time-steps K′ needed to move the perceived object in/out by Ω,
/// on vehicles (DS-1/DS-3) and pedestrians (DS-2/DS-4).
pub fn fig7(args: &Args, cache: &OracleCache, memo: &CampaignMemo) -> String {
    let sweep = args.sweep();
    let run = |scenario, vector, name: &str| {
        eprintln!("campaign {name} ...");
        let (oracle, _) = oracle_for(scenario, vector, &sweep, cache);
        fold(
            memo,
            cache,
            args,
            &r_campaign(name, scenario, vector, oracle, args.runs, args.seed),
        )
        .k_primes()
    };
    let veh = [
        (
            "Disappear",
            run(ScenarioId::Ds1, AttackVector::Disappear, "DS-1-Disappear"),
            13.0,
        ),
        (
            "Move_Out",
            run(ScenarioId::Ds1, AttackVector::MoveOut, "DS-1-Move_Out"),
            6.0,
        ),
        (
            "Move_In",
            run(ScenarioId::Ds3, AttackVector::MoveIn, "DS-3-Move_In"),
            10.0,
        ),
    ];
    let ped = [
        (
            "Disappear",
            run(ScenarioId::Ds2, AttackVector::Disappear, "DS-2-Disappear"),
            4.0,
        ),
        (
            "Move_Out",
            run(ScenarioId::Ds2, AttackVector::MoveOut, "DS-2-Move_Out"),
            5.0,
        ),
        (
            "Move_In",
            run(ScenarioId::Ds4, AttackVector::MoveIn, "DS-4-Move_In"),
            3.0,
        ),
    ];
    let mut out = String::new();
    writeln!(
        out,
        "Fig. 7: K′ (frames) to move the perceived object by Ω\n"
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        render_fig7_panel("(a) on vehicles (DS-1, DS-3)", &veh)
    )
    .unwrap();
    writeln!(
        out,
        "{}",
        render_fig7_panel("(b) on pedestrians (DS-2, DS-4)", &ped)
    )
    .unwrap();
    report_cache(cache);
    out
}

/// Fig. 8: safety-hijacker NN quality — (a) attack success probability vs
/// binned prediction error; (b) predicted vs ground-truth δ after k
/// attacked frames (DS-1 Move_Out).
pub fn fig8(args: &Args, cache: &OracleCache, memo: &CampaignMemo) -> String {
    let sweep = args.sweep();
    let mut out = String::new();

    // Panel (a): per-run |predicted δ − realized min δ| vs success.
    eprintln!("training DS-1 / DS-2 Move_Out oracles ...");
    let (oracle_ds1, desc1) = oracle_for(ScenarioId::Ds1, AttackVector::MoveOut, &sweep, cache);
    eprintln!("  DS-1: {desc1}");
    let (oracle_ds2, desc2) = oracle_for(ScenarioId::Ds2, AttackVector::MoveOut, &sweep, cache);
    eprintln!("  DS-2: {desc2}");
    let mut samples: Vec<(f64, bool)> = Vec::new();
    for (scenario, oracle) in [
        (ScenarioId::Ds1, oracle_ds1.clone()),
        (ScenarioId::Ds2, oracle_ds2),
    ] {
        let result = fold(
            memo,
            cache,
            args,
            &r_campaign(
                "fig8a",
                scenario,
                AttackVector::MoveOut,
                oracle,
                args.runs,
                args.seed,
            ),
        );
        for run in result.launched() {
            if let (Some(pred), Some(actual)) = (run.predicted_delta, run.min_delta_attack_window) {
                // One-sided error: how much the attack under-delivered
                // (did worse, i.e. left a larger δ, than the NN promised).
                samples.push(((actual - pred).max(0.0), run.accident));
            }
        }
    }
    // The paper's bin edges: 0.67 m steps up to 6.7 m.
    let mut bins = Vec::new();
    for i in 1..=10 {
        let upper = 0.67 * f64::from(i);
        let lower = upper - 0.67;
        let in_bin: Vec<&(f64, bool)> = samples
            .iter()
            .filter(|(e, _)| *e >= lower && *e < upper)
            .collect();
        if !in_bin.is_empty() {
            let p = in_bin.iter().filter(|(_, s)| *s).count() as f64 / in_bin.len() as f64;
            bins.push((upper, p, in_bin.len()));
        }
    }
    writeln!(out, "{}", render_fig8a(&bins)).unwrap();

    // Panel (b): δ0 ≈ 41 m, sweep k, compare prediction to ground truth.
    let ks = fig8b_ks(args);
    let runs = figures::fig8b(cache, args.seed, &ks, || {
        fig8b_runs(args.seed, &ks, Horizon::Label)
    });
    report_cache(cache);
    writeln!(
        out,
        "{}",
        render_fig8b(&fig8b_predicted(&runs, &oracle_ds1), FIG8B_DELTA0)
    )
    .unwrap();
    out
}

/// fig8(b)'s launch threshold δ0 (m).
const FIG8B_DELTA0: f64 = 41.0;

/// fig8(b)'s k values.
fn fig8b_ks(args: &Args) -> Vec<u32> {
    if args.quick {
        vec![20, 50, 80]
    } else {
        vec![10, 20, 30, 40, 50, 60, 70, 80, 90]
    }
}

/// fig8(b)'s simulated runs: one DS-1 Move_Out run per k in `ks` (seed
/// `seed + k`) launched at δ0, each stopped at `horizon`; the runs that
/// launched, in k order.
pub(crate) fn fig8b_runs(seed: u64, ks: &[u32], horizon: Horizon) -> Vec<Fig8bRun> {
    ks.iter()
        .filter_map(|&k| {
            let outcome = SimSession::builder(ScenarioId::Ds1)
                .seed(seed + u64::from(k))
                .attacker(AttackerSpec::AtDelta {
                    vector: Some(AttackVector::MoveOut),
                    delta_inject: FIG8B_DELTA0,
                    k,
                })
                .build()
                .with_horizon(horizon)
                .run();
            Some(Fig8bRun {
                k,
                features: outcome.attack.features_at_launch?,
                actual: outcome.min_delta_attack_window?,
            })
        })
        .collect()
}

/// fig8(b)'s rows ⟨k, predicted δ, realized δ⟩: `oracle`'s prediction for
/// each run's launch features next to what the run realized.
fn fig8b_predicted(runs: &[Fig8bRun], oracle: &OracleSpec) -> Vec<(u32, f64, f64)> {
    runs.iter()
        .map(|run| {
            let predicted = match oracle {
                OracleSpec::Nn(nn) => nn.predict_delta(&run.features, run.k),
                OracleSpec::Kinematic => {
                    KinematicOracle::default().predict_delta(&run.features, run.k)
                }
            };
            (run.k, predicted, run.actual)
        })
        .collect()
}

/// fig8(b)'s rows, simulated at `horizon` without the store.
pub(crate) fn fig8b_rows(
    args: &Args,
    oracle: &OracleSpec,
    horizon: Horizon,
) -> Vec<(u32, f64, f64)> {
    fig8b_predicted(&fig8b_runs(args.seed, &fig8b_ks(args), horizon), oracle)
}

/// Ablation studies for the design choices DESIGN.md calls out: the
/// trajectory-hijacker noise gate, the fusion LiDAR registration delay, the
/// SH launch threshold γ, and binary-vs-linear K search. Each cell of the
/// first three is one campaign whose configuration template sets the
/// swept value.
pub fn ablations(args: &Args, cache: &OracleCache, memo: &CampaignMemo) -> String {
    let runs = args.runs.min(40);
    let mut out = String::new();

    writeln!(
        out,
        "=== Ablation 1: trajectory-hijacker noise gate (σ fraction) ==="
    )
    .unwrap();
    writeln!(
        out,
        "(DS-3 Move_In, fixed timing; smaller gate → slower shift → larger K')\n"
    )
    .unwrap();
    writeln!(out, "σ fraction | K' median (frames) | EB rate").unwrap();
    for sigma in [0.25, 0.5, 1.0, 1.5] {
        let attacker = AttackerSpec::AtDelta {
            vector: Some(AttackVector::MoveIn),
            delta_inject: 8.0,
            k: 40,
        };
        let mut cell = Campaign::new("ablation-sigma", ScenarioId::Ds3, attacker, runs, 0);
        cell.config.sigma_fraction = sigma;
        let result = fold(memo, cache, args, &cell);
        let kprimes: Vec<f64> = result
            .runs
            .iter()
            .filter_map(|r| r.k_prime_ads.map(f64::from))
            .collect();
        let eb = result.runs.iter().filter(|r| r.eb).count();
        writeln!(
            out,
            "  {sigma:>7.2}  | {:>18.0} | {:>5.1}%",
            median(&kprimes),
            100.0 * eb as f64 / runs as f64
        )
        .unwrap();
    }

    writeln!(out, "\n=== Ablation 2: fusion LiDAR registration delay ===").unwrap();
    writeln!(
        out,
        "(DS-1 Move_Out, fixed timing; fast re-registration defeats vehicle attacks)\n"
    )
    .unwrap();
    writeln!(out, "register (scans) | accident rate | min-δ median").unwrap();
    for register in [5u32, 15, 40, 80] {
        let attacker = AttackerSpec::AtDelta {
            vector: Some(AttackVector::MoveOut),
            delta_inject: 30.0,
            k: 90,
        };
        let mut cell = Campaign::new("ablation-register", ScenarioId::Ds1, attacker, runs, 0);
        cell.config.fusion.lidar_register = register;
        let result = fold(memo, cache, args, &cell);
        let accidents = result.runs.iter().filter(|r| r.accident).count();
        let deltas: Vec<f64> = result
            .runs
            .iter()
            .filter_map(|r| r.min_delta_post_attack)
            .collect();
        writeln!(
            out,
            "  {register:>14} | {:>12.1}% | {:>8.1} m",
            100.0 * accidents as f64 / runs as f64,
            median(&deltas)
        )
        .unwrap();
    }

    writeln!(
        out,
        "\n=== Ablation 3: safety-hijacker launch threshold γ ==="
    )
    .unwrap();
    writeln!(out, "(DS-2 Move_Out with the trained NN oracle)\n").unwrap();
    let (oracle, desc) = oracle_for(ScenarioId::Ds2, AttackVector::MoveOut, &args.sweep(), cache);
    writeln!(out, "oracle: {desc}\n").unwrap();
    writeln!(out, "γ (m) | launched | EB rate | accident rate").unwrap();
    for gamma in [2.0, 4.0, 8.0] {
        let attacker = AttackerSpec::RoboTack {
            vector: Some(AttackVector::MoveOut),
            oracle: oracle.clone(),
        };
        let mut cell = Campaign::new("ablation-gamma", ScenarioId::Ds2, attacker, runs, 4000);
        cell.config.sh.gamma = gamma;
        let result = fold(memo, cache, args, &cell);
        let count = |hit: fn(&RunSummary) -> bool| result.runs.iter().filter(|r| hit(r)).count();
        let launched = count(|r| r.launched);
        let eb = count(|r| r.eb);
        let accidents = count(|r| r.accident);
        writeln!(
            out,
            "  {gamma:>3.0} | {launched:>8} | {:>6.1}% | {:>6.1}%",
            100.0 * eb as f64 / launched.max(1) as f64,
            100.0 * accidents as f64 / launched.max(1) as f64
        )
        .unwrap();
    }
    report_cache(cache);

    writeln!(
        out,
        "\n=== Ablation 4: K search — binary (Eq. 2) vs linear ===\n"
    )
    .unwrap();
    let sh = SafetyHijacker::new(KinematicOracle::default(), SafetyHijackerConfig::default());
    let mut agree = 0;
    let mut total = 0;
    for delta10 in 5..200 {
        let f = AttackFeatures {
            delta: f64::from(delta10) / 2.0,
            v_rel_lon: -5.0,
            v_rel_lat: 0.0,
            a_rel_lon: 0.0,
        };
        let b = sh.decide(&f).map(|d| d.k);
        let l = sh.decide_linear(&f).map(|d| d.k);
        agree += u64::from(b == l);
        total += 1;
    }
    writeln!(
        out,
        "binary == linear on {agree}/{total} states (O(log K) vs O(K) oracle calls)"
    )
    .unwrap();
    out
}

/// The countermeasure study: IDS false positives on golden runs, IDS vs
/// RoboTack's stealthy perturbations, and IDS vs a naive non-stealthy
/// attacker. Every section reads the per-monitor alarm counts its
/// campaigns fold ([`RunSummary::alarms`], [`RunSummary::alarms_in_attack`]).
pub fn defense(args: &Args, cache: &OracleCache, memo: &CampaignMemo) -> String {
    let runs = args.runs.min(60);
    let sweep_config = args.sweep();
    let mut out = String::new();

    writeln!(
        out,
        "=== IDS false positives (golden runs, {runs} runs/scenario) ===\n"
    )
    .unwrap();
    writeln!(
        out,
        "scenario | runs w/ any alarm | innovation | streak | cross-sensor | kinematics"
    )
    .unwrap();
    for scenario in ScenarioId::ALL {
        let name = format!("{}-golden", scenario.name());
        let golden = fold(
            memo,
            cache,
            args,
            &Campaign::new(name, scenario, AttackerSpec::None, runs, 0),
        );
        let any = golden.runs.iter().filter(|r| r.alarms.total() > 0).count();
        let by_kind = AlarmKind::ALL.map(|kind| {
            golden
                .runs
                .iter()
                .map(|r| u64::from(r.alarms.get(kind)))
                .sum::<u64>()
        });
        writeln!(
            out,
            "{:<8} | {:>17} | {:>10} | {:>6} | {:>12} | {:>10}",
            scenario.name(),
            any,
            by_kind[0],
            by_kind[1],
            by_kind[2],
            by_kind[3]
        )
        .unwrap();
    }

    writeln!(out, "\n=== IDS vs RoboTack ({runs} runs/arm) ===\n").unwrap();
    writeln!(
        out,
        "arm                  | launched | flagged during attack | by monitor"
    )
    .unwrap();
    for (scenario, vector, name) in ARMS {
        let (oracle, _) = oracle_for(scenario, vector, &sweep_config, cache);
        let result = fold(
            memo,
            cache,
            args,
            &r_campaign(name, scenario, vector, oracle, runs, 7000),
        );
        let launched = result.n_launched() as u64;
        let flagged = result
            .launched()
            .filter(|r| r.alarms_in_attack.total() > 0)
            .count() as u64;
        let mut kind_list: Vec<String> = AlarmKind::ALL
            .iter()
            .filter_map(|&kind| {
                let n: u64 = result
                    .launched()
                    .map(|r| u64::from(r.alarms_in_attack.get(kind)))
                    .sum();
                (n > 0).then(|| format!("{kind:?}×{n}"))
            })
            .collect();
        kind_list.sort();
        writeln!(
            out,
            "{name:<20} | {launched:>8} | {:>11} ({:>5.1}%) | {}",
            flagged,
            100.0 * flagged as f64 / launched.max(1) as f64,
            kind_list.join(", ")
        )
        .unwrap();
    }

    writeln!(out, "\n=== IDS vs a non-stealthy attacker ===\n").unwrap();
    writeln!(
        out,
        "A naive Disappear that ignores the misdetection envelope (K = 62 \
             frames on a pedestrian, envelope 31):"
    )
    .unwrap();
    let naive = fold(
        memo,
        cache,
        args,
        &Campaign::new(
            "DS-2-Disappear-naive",
            ScenarioId::Ds2,
            AttackerSpec::AtDelta {
                vector: Some(AttackVector::Disappear),
                delta_inject: 24.0,
                k: 62,
            },
            runs,
            0,
        ),
    );
    let flagged = naive
        .launched()
        .filter(|r| r.alarms.get(AlarmKind::Streak) > 0)
        .count();
    writeln!(out, "  streak-flagged in {flagged}/{runs} runs").unwrap();
    report_cache(cache);
    out
}

/// One fault-intensity level of the resilience sweep.
struct Intensity {
    name: &'static str,
    plan: FaultPlan,
}

fn intensities() -> Vec<Intensity> {
    vec![
        Intensity {
            name: "healthy",
            plan: FaultPlan::none(),
        },
        Intensity {
            name: "mild",
            plan: FaultPlan::none()
                .with(FaultSpec::always(FaultKind::CameraFrameDrop {
                    probability: 0.05,
                }))
                .with(FaultSpec::always(FaultKind::CameraNoise { sigma_px: 1.0 })),
        },
        Intensity {
            name: "moderate",
            plan: FaultPlan::none()
                .with(FaultSpec::always(FaultKind::CameraFrameDrop {
                    probability: 0.15,
                }))
                .with(FaultSpec::always(FaultKind::CameraNoise { sigma_px: 2.5 }))
                .with(FaultSpec::always(FaultKind::LidarDropout {
                    probability: 0.15,
                }))
                .with(FaultSpec::always(FaultKind::GpsBias {
                    bias: 0.5,
                    drift_per_s: 0.02,
                })),
        },
        Intensity {
            name: "severe",
            plan: FaultPlan::none()
                .with(FaultSpec::always(FaultKind::CameraFrameDrop {
                    probability: 0.3,
                }))
                .with(FaultSpec::always(FaultKind::CameraFreeze {
                    probability: 0.02,
                    mean_frames: 6.0,
                }))
                .with(FaultSpec::always(FaultKind::CameraNoise { sigma_px: 4.0 }))
                .with(FaultSpec::always(FaultKind::LidarDropout {
                    probability: 0.4,
                }))
                .with(FaultSpec::always(FaultKind::GpsBias {
                    bias: 1.5,
                    drift_per_s: 0.05,
                }))
                .with(FaultSpec::always(FaultKind::DetectorBlackout {
                    probability: 0.01,
                    mean_frames: 4.0,
                })),
        },
    ]
}

/// The resilience study: does the ADS degrade gracefully under sensor
/// faults, and does RoboTack's mirrored replica (§III-D) survive them?
///
/// The RoboTack arms run with the same trained NN oracle the other
/// experiments use (cache-aware, honoring `--cache-dir`/`--no-cache`),
/// falling back to the kinematic oracle only when training data is scarce.
pub fn resilience(args: &Args, cache: &OracleCache, memo: &CampaignMemo) -> String {
    let runs = if args.quick {
        args.runs.min(8)
    } else {
        args.runs.min(60)
    };
    let sweep = args.sweep();

    // The sweep's 〈scenario, attacker〉 arms, each RoboTack arm with its
    // trained oracle.
    let mut arms: Vec<(&'static str, ScenarioId, AttackerSpec)> =
        vec![("DS-1-golden", ScenarioId::Ds1, AttackerSpec::None)];
    for (name, scenario, vector) in [
        ("DS-1-Disappear-R", ScenarioId::Ds1, AttackVector::Disappear),
        ("DS-2-Disappear-R", ScenarioId::Ds2, AttackVector::Disappear),
        ("DS-3-Move_In-R", ScenarioId::Ds3, AttackVector::MoveIn),
    ] {
        eprintln!("training oracle for {name} ...");
        let (oracle, desc) = oracle_for(scenario, vector, &sweep, cache);
        eprintln!("  {desc}");
        arms.push((
            name,
            scenario,
            AttackerSpec::RoboTack {
                vector: Some(vector),
                oracle,
            },
        ));
    }

    let mut out = String::new();
    writeln!(
        out,
        "## Sensor-fault resilience ({runs} runs/cell, base seed {})\n",
        args.seed
    )
    .unwrap();
    writeln!(
        out,
        "| arm | faults | launched | EB % | accident % | mean div (m) | max div (m) \
         | frames lost | stale frames |"
    )
    .unwrap();
    writeln!(out, "|---|---|---:|---:|---:|---:|---:|---:|---:|").unwrap();

    for (name, scenario, attacker) in arms {
        for intensity in intensities() {
            let campaign = Campaign::new(
                format!("{name}/{}", intensity.name),
                scenario,
                attacker.clone(),
                runs,
                args.seed,
            )
            .with_faults(intensity.plan.clone());
            let result = fold(memo, cache, args, &campaign);

            let launched = result.n_launched();
            let (_, eb_pct) = result.eb();
            let (_, acc_pct) = result.crashes();
            let divs: Vec<f64> = result
                .runs
                .iter()
                .filter_map(|r| r.replica_divergence)
                .collect();
            let (mean_div, max_div) = if divs.is_empty() {
                ("-".to_string(), "-".to_string())
            } else {
                (
                    format!("{:.2}", stats::mean(&divs)),
                    format!("{:.2}", divs.iter().copied().fold(f64::MIN, f64::max)),
                )
            };
            let lost: u64 = result.runs.iter().map(|r| r.frames_lost).sum();
            let stale: u64 = result.runs.iter().map(|r| r.stale_frames).sum();

            writeln!(
                out,
                "| {name} | {} | {launched}/{runs} | {eb_pct:.0} | {acc_pct:.0} \
                 | {mean_div} | {max_div} | {lost} | {stale} |",
                intensity.name
            )
            .unwrap();
        }
    }
    report_cache(cache);

    writeln!(
        out,
        "\nDivergence is the peak distance (m) between the ADS's and the \
         malware replica's ego-relative estimate of the scripted target; '-' \
         means the attacker keeps no replica or the target was never tracked \
         by both. 'frames lost' counts camera frames the injector dropped or \
         froze across all runs; 'stale frames' counts frozen replays the ADS \
         perception rejected (coasting instead of corrupting its tracker)."
    )
    .unwrap();
    out
}

/// The coverage-guided boundary search for one attack vector
/// ([`crate::search`]): renders the deterministic frontier report. The
/// suite's `search:⟨vector⟩` jobs and the `search` binary both run this.
pub fn search_report(vector: AttackVector, args: &Args, cache: &OracleCache) -> String {
    let config = crate::search::SearchConfig::for_args(vector, args);
    crate::search::run_search(&config, &args.sweep(), cache).render()
}

/// The six 〈scenario, vector〉 oracle arms the report jobs share — exactly
/// the Table II matrix.
fn oracle_arms() -> [(ScenarioId, AttackVector); 6] {
    [
        (ScenarioId::Ds1, AttackVector::Disappear),
        (ScenarioId::Ds2, AttackVector::Disappear),
        (ScenarioId::Ds1, AttackVector::MoveOut),
        (ScenarioId::Ds2, AttackVector::MoveOut),
        (ScenarioId::Ds3, AttackVector::MoveIn),
        (ScenarioId::Ds4, AttackVector::MoveIn),
    ]
}

fn dataset_job_id(scenario: ScenarioId, vector: AttackVector) -> String {
    format!("dataset:{}:{}", scenario.name(), vector.name())
}

fn oracle_job_id(scenario: ScenarioId, vector: AttackVector) -> String {
    format!("oracle:{}:{}", scenario.name(), vector.name())
}

fn search_job_id(vector: AttackVector) -> String {
    format!("search:{}", vector.name())
}

fn oracle_deps(arms: &[(ScenarioId, AttackVector)]) -> Vec<String> {
    arms.iter().map(|&(s, v)| oracle_job_id(s, v)).collect()
}

/// A job's own cache view over the shared store, sharing the execution's
/// oracle memo.
fn job_view(store: &Arc<ArtifactStore>, scope: &ExecScope) -> OracleCache {
    OracleCache::over(store.clone()).with_memo(scope.get::<OracleMemo>())
}

/// Wraps one report function as a stdout-emitting suite job with its own
/// cache view over the shared store and the execution's campaign memo.
fn report_job(
    id: &str,
    args: &Args,
    store: &Arc<ArtifactStore>,
    render: impl Fn(&Args, &OracleCache, &CampaignMemo) -> String + Send + Sync + 'static,
) -> Job {
    let args = args.clone();
    let store = store.clone();
    Job::new(id, move |scope| {
        let cache = job_view(&store, scope);
        let stdout = render(&args, &cache, &scope.get::<CampaignMemo>());
        let (artifact_hits, artifact_misses) = cache.artifact_totals();
        JobOutcome {
            stdout,
            artifact_hits,
            artifact_misses,
            artifacts: Vec::new(),
        }
    })
    .emits_stdout()
}

/// The full evaluation DAG over a shared artifact store: dataset collection
/// and oracle training as explicit preparation jobs, then every paper
/// artifact as a stdout-emitting report job (declared in the order their
/// reports should print).
pub fn paper_dag(args: &Args, store: &Arc<ArtifactStore>) -> Result<Dag, DagError> {
    let sweep = args.sweep();
    let mut jobs = Vec::new();

    for (scenario, vector) in oracle_arms() {
        let id = dataset_job_id(scenario, vector);
        let store_ = store.clone();
        let sweep_ = sweep.clone();
        jobs.push(
            Job::new(id.clone(), move |_| {
                let cache = OracleCache::over(store_.clone());
                let data = cache.dataset_for(scenario, vector, &sweep_);
                let (artifact_hits, artifact_misses) = cache.artifact_totals();
                JobOutcome {
                    stdout: String::new(),
                    artifact_hits,
                    artifact_misses,
                    artifacts: vec![(dataset_job_id(scenario, vector), dataset_digest(&data))],
                }
            })
            .input(format!("sweep:{}:{}", scenario.name(), vector.name()))
            .output(id),
        );
    }

    for (scenario, vector) in oracle_arms() {
        let id = oracle_job_id(scenario, vector);
        let dataset_id = dataset_job_id(scenario, vector);
        let store_ = store.clone();
        let sweep_ = sweep.clone();
        jobs.push(
            Job::new(id.clone(), move |scope| {
                let cache = job_view(&store_, scope);
                let trained = cache.oracle_for(scenario, vector, &sweep_);
                let (artifact_hits, artifact_misses) = cache.artifact_totals();
                JobOutcome {
                    stdout: String::new(),
                    artifact_hits,
                    artifact_misses,
                    artifacts: trained
                        .map(|t| {
                            let digest = cache.oracle_digest_of(&t);
                            vec![(oracle_job_id(scenario, vector), digest)]
                        })
                        .unwrap_or_default(),
                }
            })
            .dep(dataset_id.clone())
            .input(dataset_id)
            .output(id),
        );
    }

    let all = oracle_arms();
    let fig6_arms = [
        (ScenarioId::Ds1, AttackVector::Disappear),
        (ScenarioId::Ds1, AttackVector::MoveOut),
        (ScenarioId::Ds2, AttackVector::Disappear),
        (ScenarioId::Ds2, AttackVector::MoveOut),
    ];
    let fig8_arms = [
        (ScenarioId::Ds1, AttackVector::MoveOut),
        (ScenarioId::Ds2, AttackVector::MoveOut),
    ];
    let ablations_arms = [(ScenarioId::Ds2, AttackVector::MoveOut)];
    let resilience_arms = [
        (ScenarioId::Ds1, AttackVector::Disappear),
        (ScenarioId::Ds2, AttackVector::Disappear),
        (ScenarioId::Ds3, AttackVector::MoveIn),
    ];

    jobs.push(
        report_job("table2", args, store, table2)
            .deps(oracle_deps(&all))
            .output("report:table2"),
    );
    jobs.push(
        report_job("fig5", args, store, |args, cache, _| fig5(args, cache))
            .input("detector noise model")
            .output("report:fig5"),
    );
    jobs.push(
        report_job("fig6", args, store, fig6)
            .deps(oracle_deps(&fig6_arms))
            .output("report:fig6"),
    );
    jobs.push(
        report_job("fig7", args, store, fig7)
            .deps(oracle_deps(&all))
            .output("report:fig7"),
    );
    jobs.push(
        report_job("fig8", args, store, fig8)
            .deps(oracle_deps(&fig8_arms))
            .output("report:fig8"),
    );
    jobs.push(
        report_job("ablations", args, store, ablations)
            .deps(oracle_deps(&ablations_arms))
            .output("report:ablations"),
    );
    jobs.push(
        report_job("defense", args, store, defense)
            .deps(oracle_deps(&all))
            .output("report:defense"),
    );
    jobs.push(
        report_job("resilience", args, store, resilience)
            .deps(oracle_deps(&resilience_arms))
            .output("report:resilience"),
    );

    // Boundary search, one job per vector. A search uses the trained NN
    // oracle only for the Table II arms under its vector (off-matrix roots
    // fall back to the kinematic oracle), so those oracle jobs are its
    // preparation dependencies.
    for vector in AttackVector::ALL {
        let search_arms: Vec<(ScenarioId, AttackVector)> = oracle_arms()
            .iter()
            .copied()
            .filter(|&(_, v)| v == vector)
            .collect();
        let id = search_job_id(vector);
        let args_ = args.clone();
        let store_ = store.clone();
        jobs.push(
            Job::new(id.clone(), move |scope| {
                let cache = job_view(&store_, scope);
                let config = crate::search::SearchConfig::for_args(vector, &args_);
                let report = crate::search::run_search(&config, &args_.sweep(), &cache);
                // The scorecard counts the search's evaluation-summary
                // lookups alongside the oracle/dataset ones: a warm store
                // replays the whole search as artifact hits.
                let (artifact_hits, artifact_misses) = cache.artifact_totals();
                JobOutcome {
                    stdout: report.render(),
                    artifact_hits: artifact_hits + report.eval_hits,
                    artifact_misses: artifact_misses + report.eval_misses,
                    artifacts: Vec::new(),
                }
            })
            .emits_stdout()
            .deps(oracle_deps(&search_arms))
            .output(format!("report:{id}")),
        );
    }

    Dag::new(jobs)
}

/// Maps a wire [`EvalRequest`] onto the experiment options it describes —
/// the inverse of [`crate::suite::SuiteArgs::to_request`]. Run shape
/// (`runs`/`quick`/`seed`/`batch`) comes from the request; cache placement
/// (`cache_dir`/`no_cache`) stays with the daemon's `base`, because the
/// store is the shared resource requests dedup against, not something a
/// client may relocate.
pub fn request_args(req: &EvalRequest, base: &Args) -> Args {
    Args {
        runs: req.runs,
        quick: req.quick,
        seed: req.seed,
        cache_dir: base.cache_dir.clone(),
        no_cache: base.no_cache,
        dispatch: match req.batch {
            Some(batch_size) => DispatchMode::Batched { batch_size },
            None => DispatchMode::WorkStealing,
        },
    }
}

/// The [`EvalService`] the `suite` binary serves: [`paper_dag`] subgraphs
/// over one shared [`ArtifactStore`]. Canonical DAGs are cached per
/// configuration key, so concurrent requests with the same run shape
/// validate against one DAG instead of rebuilding it per request.
pub struct PaperEvalService {
    base: Args,
    store: Arc<ArtifactStore>,
    dags: Mutex<HashMap<u64, Arc<Dag>>>,
}

impl PaperEvalService {
    /// A service executing requests against `store`, with `base` supplying
    /// the per-daemon options requests don't carry (cache placement).
    pub fn new(base: Args, store: Arc<ArtifactStore>) -> PaperEvalService {
        PaperEvalService {
            base,
            store,
            dags: Mutex::new(HashMap::new()),
        }
    }

    /// The shared store every request executes against.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    fn canonical_dag(&self, args: &Args) -> Result<Arc<Dag>, DagError> {
        let mut dags = self.dags.lock().expect("canonical DAG cache lock");
        match dags.get(&args.config_key()) {
            Some(dag) => Ok(dag.clone()),
            None => {
                let dag = Arc::new(paper_dag(args, &self.store)?);
                dags.insert(args.config_key(), dag.clone());
                Ok(dag)
            }
        }
    }
}

impl EvalService for PaperEvalService {
    fn dag_for(&self, req: &EvalRequest) -> Result<Dag, (ErrorCode, String)> {
        let args = request_args(req, &self.base);
        let canonical = self
            .canonical_dag(&args)
            .map_err(|e| (ErrorCode::BadRequest, e.to_string()))?;
        if req.only.is_empty() {
            return Ok((*canonical).clone());
        }
        canonical.subgraph(&req.only).map_err(|e| match e {
            DagError::UnknownTarget(_) => (ErrorCode::UnknownJob, e.to_string()),
            other => (ErrorCode::BadRequest, other.to_string()),
        })
    }

    fn dedup_counters(&self) -> (u64, u64) {
        self.store.dedup_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dag_has_the_expected_shape() {
        let args = Args {
            runs: 2,
            quick: true,
            ..Args::default()
        };
        let store = Arc::new(ArtifactStore::disabled());
        let dag = paper_dag(&args, &store).expect("valid DAG");
        assert_eq!(dag.len(), 6 + 6 + 8 + 3);

        let stdout_jobs: Vec<&str> = dag
            .jobs()
            .iter()
            .filter(|j| j.is_stdout_job())
            .map(Job::id)
            .collect();
        assert_eq!(
            stdout_jobs,
            [
                "table2",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "ablations",
                "defense",
                "resilience",
                "search:Move_Out",
                "search:Move_In",
                "search:Disappear"
            ],
            "report order is the paper's artifact order, then the searches"
        );

        // Every oracle job depends on its dataset job.
        for (scenario, vector) in oracle_arms() {
            let i = dag
                .position(&oracle_job_id(scenario, vector))
                .expect("oracle job exists");
            assert_eq!(
                dag.jobs()[i].dep_ids(),
                [dataset_job_id(scenario, vector)],
                "oracle trains on its collected dataset"
            );
        }

        // fig5 is the only report with no oracle dependency.
        let i = dag.position("fig5").expect("fig5 exists");
        assert!(dag.jobs()[i].dep_ids().is_empty());
        let i = dag.position("table2").expect("table2 exists");
        assert_eq!(dag.jobs()[i].dep_ids().len(), 6);

        // Each search depends on exactly its vector's Table II oracles.
        let i = dag.position("search:Move_Out").expect("search exists");
        assert_eq!(
            dag.jobs()[i].dep_ids(),
            ["oracle:DS-1:Move_Out", "oracle:DS-2:Move_Out"],
            "search preparation is the vector's oracle arms"
        );
    }

    #[test]
    fn only_table2_subgraph_is_datasets_oracles_table2() {
        let args = Args::default();
        let store = Arc::new(ArtifactStore::disabled());
        let dag = paper_dag(&args, &store)
            .expect("valid DAG")
            .subgraph(&["table2".into()])
            .expect("subgraph");
        assert_eq!(dag.len(), 13, "6 datasets + 6 oracles + table2");
        assert!(dag.position("fig5").is_none());
    }

    #[test]
    fn request_args_carries_run_shape_and_keeps_daemon_cache_placement() {
        let base = Args {
            cache_dir: Some(std::path::PathBuf::from("/tmp/daemon-cache")),
            no_cache: false,
            ..Args::default()
        };
        let req = EvalRequest {
            runs: 7,
            quick: true,
            seed: 99,
            batch: Some(4),
            ..EvalRequest::default()
        };
        let args = request_args(&req, &base);
        assert_eq!((args.runs, args.quick, args.seed), (7, true, 99));
        assert!(matches!(
            args.dispatch,
            DispatchMode::Batched { batch_size: 4 }
        ));
        assert_eq!(args.cache_dir, base.cache_dir, "store stays the daemon's");

        // The round trip through SuiteArgs::to_request is lossless for the
        // request-carried fields.
        let suite = crate::suite::SuiteArgs {
            base: args.clone(),
            jobs: 3,
            ..crate::suite::SuiteArgs::default()
        };
        let back = suite.to_request();
        assert_eq!(
            (back.runs, back.quick, back.seed, back.batch, back.jobs),
            (7, true, 99, Some(4), 3)
        );
    }

    #[test]
    fn service_validates_requests_into_subgraphs_with_typed_errors() {
        let service = PaperEvalService::new(Args::default(), Arc::new(ArtifactStore::disabled()));

        let full = service
            .dag_for(&EvalRequest::default())
            .expect("full DAG for an unrestricted request");
        assert_eq!(full.len(), 6 + 6 + 8 + 3);

        let search = service
            .dag_for(&EvalRequest {
                only: vec!["search:Move_In".into()],
                ..EvalRequest::default()
            })
            .expect("search subgraph");
        assert_eq!(
            search.len(),
            5,
            "2 datasets + 2 oracles + the Move_In search"
        );

        let table2 = service
            .dag_for(&EvalRequest {
                only: vec!["table2".into()],
                ..EvalRequest::default()
            })
            .expect("table2 subgraph");
        assert_eq!(table2.len(), 13);

        let (code, message) = service
            .dag_for(&EvalRequest {
                only: vec!["fig99".into()],
                ..EvalRequest::default()
            })
            .expect_err("unknown job is rejected");
        assert_eq!(code, ErrorCode::UnknownJob);
        assert!(message.contains("fig99"), "names the offender: {message}");

        // Same run shape → one cached canonical DAG; different shape → two.
        assert_eq!(service.dags.lock().unwrap().len(), 1);
        service
            .dag_for(&EvalRequest {
                quick: true,
                ..EvalRequest::default()
            })
            .expect("quick DAG");
        assert_eq!(service.dags.lock().unwrap().len(), 2);
    }
}
