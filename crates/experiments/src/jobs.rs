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
//! a prefix. A later execution over the same store reads every campaign
//! an earlier one simulated; its store lookups count in each job's
//! hit/miss scorecard. A standalone binary runs its report with a fresh
//! memo over its own store view, so its stdout stays byte-identical to the
//! suite job's. `defense` and `ablations` go through neither tier; each of
//! their sections is one [`run_sweep`] over the host's workers. `ablations`
//! varies its configuration from run to run. Each `defense` section is a
//! set of fixed-configuration seeded campaigns, but it reads the IDS
//! alarms of every run, which a [`RunSummary`] does not fold.

use crate::characterize::characterize_detector;
use crate::memo::CampaignMemo;
use crate::oracle_cache::{dataset_digest, oracle_digest, OracleCache};
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
use av_simkit::units::CAMERA_HZ;
use av_suite::api::{ErrorCode, EvalRequest};
use av_suite::serve::EvalService;
use av_suite::{ArtifactStore, Dag, DagError, Job, JobOutcome};
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

    report_cache(cache);
    eprintln!("running DS-5-Baseline-Random ...");
    let baseline = fold(
        memo,
        cache,
        args,
        &baseline_campaign(args.runs.max(24), args.seed + 5000),
    );

    let mut out = String::new();
    writeln!(out, "{}", render_table2(&rows, &baseline)).unwrap();
    out
}

/// Fig. 5: detector noise characterization (misdetection streak
/// distributions and normalized bbox-center error fits, per class).
pub fn fig5(args: &Args) -> String {
    // The paper characterizes ~10 minutes of 15 Hz video (~9000 frames).
    let frames = if args.quick { 2_000 } else { 9_000 };
    let c = characterize_detector(frames, args.seed);
    let mut out = String::new();
    writeln!(out, "{}", render_fig5(&c)).unwrap();
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
    report_cache(cache);
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
    let delta0 = 41.0;
    let ks: Vec<u32> = if args.quick {
        vec![20, 50, 80]
    } else {
        vec![10, 20, 30, 40, 50, 60, 70, 80, 90]
    };
    let mut rows = Vec::new();
    for k in ks {
        let outcome = SimSession::builder(ScenarioId::Ds1)
            .seed(args.seed + u64::from(k))
            .attacker(AttackerSpec::AtDelta {
                vector: Some(AttackVector::MoveOut),
                delta_inject: delta0,
                k,
            })
            .build()
            .run();
        if let (Some(features), Some(actual)) = (
            outcome.attack.features_at_launch,
            outcome.min_delta_attack_window,
        ) {
            let predicted = match &oracle_ds1 {
                OracleSpec::Nn(nn) => nn.predict_delta(&features, k),
                OracleSpec::Kinematic => KinematicOracle::default().predict_delta(&features, k),
            };
            rows.push((k, predicted, actual));
        }
    }
    writeln!(out, "{}", render_fig8b(&rows, delta0)).unwrap();
    out
}

/// `sessions` runs as one sweep on the host's default worker count, each
/// worker reusing one [`SessionWorker`]: `reduce` of session `make(i)`'s
/// outcome for every index `i`, in index order.
fn sweep<T: Send>(
    sessions: u64,
    make: impl Fn(u64) -> SimSession + Sync,
    reduce: impl Fn(RunOutcome) -> T + Sync,
) -> Vec<T> {
    let sessions = usize::try_from(sessions).expect("session count fits usize");
    run_sweep(
        sessions,
        default_threads(),
        1,
        &|_| Telemetry::disabled(),
        |i, _| make(i as u64),
        reduce,
    )
    .expect("default_threads() is nonzero")
}

/// A [`sweep`]'s output cut into consecutive cells of `per` results, one
/// per swept parameter value (zip it with the values; `per` may be 0).
fn cells<T>(folded: &[T], per: u64) -> impl Iterator<Item = &[T]> {
    let per = usize::try_from(per).expect("cell size fits usize");
    (0..).map(move |j| &folded[j * per..(j + 1) * per])
}

/// Ablation studies for the design choices DESIGN.md calls out: the
/// trajectory-hijacker noise gate, the fusion LiDAR registration delay, the
/// SH launch threshold γ, and binary-vs-linear K search.
pub fn ablations(args: &Args, cache: &OracleCache) -> String {
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
    let sigmas = [0.25, 0.5, 1.0, 1.5];
    let folded = sweep(
        sigmas.len() as u64 * runs,
        |i| {
            let mut cfg = RunConfig::new(ScenarioId::Ds3, i % runs);
            cfg.sigma_fraction = sigmas[(i / runs) as usize];
            SimSession::builder(ScenarioId::Ds3)
                .config(cfg)
                .attacker(AttackerSpec::AtDelta {
                    vector: Some(AttackVector::MoveIn),
                    delta_inject: 8.0,
                    k: 40,
                })
                .build()
        },
        |out| (out.k_prime_ads, out.eb_after_attack),
    );
    for (sigma, cell) in sigmas.iter().zip(cells(&folded, runs)) {
        let kprimes: Vec<f64> = cell
            .iter()
            .filter_map(|(kp, _)| kp.map(f64::from))
            .collect();
        let eb = cell.iter().filter(|(_, eb)| *eb).count();
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
    let registers = [5u32, 15, 40, 80];
    let folded = sweep(
        registers.len() as u64 * runs,
        |i| {
            let mut cfg = RunConfig::new(ScenarioId::Ds1, i % runs);
            cfg.fusion.lidar_register = registers[(i / runs) as usize];
            SimSession::builder(ScenarioId::Ds1)
                .config(cfg)
                .attacker(AttackerSpec::AtDelta {
                    vector: Some(AttackVector::MoveOut),
                    delta_inject: 30.0,
                    k: 90,
                })
                .build()
        },
        |out| (out.accident, out.min_delta_post_attack),
    );
    for (register, cell) in registers.iter().zip(cells(&folded, runs)) {
        let accidents = cell.iter().filter(|(accident, _)| *accident).count();
        let deltas: Vec<f64> = cell.iter().filter_map(|(_, d)| *d).collect();
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
    report_cache(cache);
    writeln!(out, "oracle: {desc}\n").unwrap();
    writeln!(out, "γ (m) | launched | EB rate | accident rate").unwrap();
    let gammas = [2.0, 4.0, 8.0];
    let folded = sweep(
        gammas.len() as u64 * runs,
        |i| {
            let mut cfg = RunConfig::new(ScenarioId::Ds2, 4000 + i % runs);
            cfg.sh.gamma = gammas[(i / runs) as usize];
            SimSession::builder(ScenarioId::Ds2)
                .config(cfg)
                .attacker(AttackerSpec::RoboTack {
                    vector: Some(AttackVector::MoveOut),
                    oracle: oracle.clone(),
                })
                .build()
        },
        |out| {
            (
                out.attack.launched_at.is_some(),
                out.eb_after_attack,
                out.accident,
            )
        },
    );
    for (gamma, cell) in gammas.iter().zip(cells(&folded, runs)) {
        let count = |hit: fn(&(bool, bool, bool)) -> bool| cell.iter().filter(|r| hit(r)).count();
        let launched = count(|r| r.0);
        let eb = count(|r| r.1);
        let accidents = count(|r| r.2);
        writeln!(
            out,
            "  {gamma:>3.0} | {launched:>8} | {:>6.1}% | {:>6.1}%",
            100.0 * eb as f64 / launched.max(1) as f64,
            100.0 * accidents as f64 / launched.max(1) as f64
        )
        .unwrap();
    }

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
/// attacker.
pub fn defense(args: &Args, cache: &OracleCache) -> String {
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
    let kind_index = |kind: AlarmKind| match kind {
        AlarmKind::Innovation => 0,
        AlarmKind::Streak => 1,
        AlarmKind::CrossSensor => 2,
        AlarmKind::Kinematics => 3,
    };
    let folded = sweep(
        ScenarioId::ALL.len() as u64 * runs,
        |i| {
            SimSession::builder(ScenarioId::ALL[(i / runs) as usize])
                .seed(i % runs)
                .build()
        },
        |run_out| {
            let mut by_kind = [0u64; 4];
            for a in &run_out.ids_alarms {
                by_kind[kind_index(a.kind)] += 1;
            }
            (!run_out.ids_alarms.is_empty(), by_kind)
        },
    );
    for (scenario, cell) in ScenarioId::ALL.iter().zip(cells(&folded, runs)) {
        let any = cell.iter().filter(|(alarmed, _)| *alarmed).count();
        let mut by_kind = [0u64; 4];
        for (_, counts) in cell {
            for (total, n) in by_kind.iter_mut().zip(counts) {
                *total += n;
            }
        }
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
    let arms: Vec<(ScenarioId, AttackerSpec)> = ARMS
        .iter()
        .map(|&(scenario, vector, _)| {
            let (oracle, _) = oracle_for(scenario, vector, &sweep_config, cache);
            let attacker = AttackerSpec::RoboTack {
                vector: Some(vector),
                oracle,
            };
            (scenario, attacker)
        })
        .collect();
    // Per launched run: the alarms raised within the attack window, plus
    // one second of grace after it.
    let folded = sweep(
        arms.len() as u64 * runs,
        |i| {
            let (scenario, attacker) = &arms[(i / runs) as usize];
            SimSession::builder(*scenario)
                .seed(7000 + i % runs)
                .attacker(attacker.clone())
                .build()
        },
        |run_out| {
            let t0 = run_out.attack.launched_at?;
            let t1 = t0 + f64::from(run_out.attack.k) / CAMERA_HZ + 1.0;
            Some(
                run_out
                    .ids_alarms
                    .iter()
                    .filter(|a| a.t >= t0 && a.t <= t1)
                    .map(|a| a.kind)
                    .collect::<Vec<AlarmKind>>(),
            )
        },
    );
    for ((_, _, name), cell) in ARMS.iter().zip(cells(&folded, runs)) {
        let launched = cell.iter().flatten().count() as u64;
        let flagged = cell.iter().flatten().filter(|d| !d.is_empty()).count() as u64;
        let mut kinds: HashMap<AlarmKind, u64> = HashMap::new();
        for kind in cell.iter().flatten().flatten() {
            *kinds.entry(*kind).or_default() += 1;
        }
        let mut kind_list: Vec<String> = kinds.iter().map(|(k, n)| format!("{k:?}×{n}")).collect();
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

    report_cache(cache);

    writeln!(out, "\n=== IDS vs a non-stealthy attacker ===\n").unwrap();
    writeln!(
        out,
        "A naive Disappear that ignores the misdetection envelope (K = 62 \
             frames on a pedestrian, envelope 31):"
    )
    .unwrap();
    let folded = sweep(
        runs,
        |seed| {
            SimSession::builder(ScenarioId::Ds2)
                .seed(seed)
                .attacker(AttackerSpec::AtDelta {
                    vector: Some(AttackVector::Disappear),
                    delta_inject: 24.0,
                    k: 62,
                })
                .build()
        },
        |run_out| {
            run_out.attack.launched_at.is_some()
                && run_out
                    .ids_alarms
                    .iter()
                    .any(|a| a.kind == AlarmKind::Streak)
        },
    );
    let flagged = folded.iter().filter(|&&f| f).count();
    writeln!(out, "  streak-flagged in {flagged}/{runs} runs").unwrap();
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
    report_cache(cache);

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
        let cache = OracleCache::over(store.clone());
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
            Job::new(id.clone(), move |_| {
                let cache = OracleCache::over(store_.clone());
                let trained = cache.oracle_for(scenario, vector, &sweep_);
                let (artifact_hits, artifact_misses) = cache.artifact_totals();
                JobOutcome {
                    stdout: String::new(),
                    artifact_hits,
                    artifact_misses,
                    artifacts: trained
                        .map(|t| vec![(oracle_job_id(scenario, vector), oracle_digest(&t))])
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
    {
        let args_ = args.clone();
        jobs.push(
            Job::new("fig5", move |_| JobOutcome {
                stdout: fig5(&args_),
                ..JobOutcome::default()
            })
            .emits_stdout()
            .input("detector noise model")
            .output("report:fig5"),
        );
    }
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
        report_job("ablations", args, store, |args, cache, _| {
            ablations(args, cache)
        })
        .deps(oracle_deps(&ablations_arms))
        .output("report:ablations"),
    );
    jobs.push(
        report_job("defense", args, store, |args, cache, _| {
            defense(args, cache)
        })
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
            Job::new(id.clone(), move |_| {
                let cache = OracleCache::over(store_.clone());
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
