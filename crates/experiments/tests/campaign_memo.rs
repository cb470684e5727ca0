//! The campaign memo's contracts: the report campaigns it shares really are
//! the same runs, a memoized result — fresh, a prefix, or an extension —
//! is bit-equal to direct dispatch, different campaigns never share, one
//! memo lives for exactly one suite execution, and the store keeps
//! campaigns across executions (a corrupt entry is one miss, resimulated),
//! as it keeps the Fig. 5 and fig8(b) figure folds.

use av_experiments::campaign::{run_campaign_dispatch, Campaign, CampaignResult, DispatchMode};
use av_experiments::jobs::{fig5, fig8, paper_dag};
use av_experiments::memo::{CampaignKey, CampaignMemo};
use av_experiments::oracle_cache::{network_digest, Kind, OracleCache};
use av_experiments::prelude::{AttackVector, AttackerSpec, OracleSpec, ScenarioId};
use av_experiments::suite::{oracle_for, r_campaign, Args};
use av_faults::{FaultKind, FaultPlan, FaultSpec};
use av_suite::{execute, ArtifactStore, Dag, ExecOptions, Job, JobOutcome};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

fn quick_args() -> Args {
    Args {
        runs: 2,
        quick: true,
        ..Args::default()
    }
}

/// A store holding the quick-sweep oracles of the Move_Out arms, trained
/// once for this test binary.
fn oracle_store() -> &'static PathBuf {
    static STORE: OnceLock<PathBuf> = OnceLock::new();
    STORE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("campaign-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = OracleCache::at(dir.clone());
        for scenario in [ScenarioId::Ds1, ScenarioId::Ds2] {
            oracle_for(
                scenario,
                AttackVector::MoveOut,
                &quick_args().sweep(),
                &cache,
            );
        }
        dir
    })
}

/// A separately loaded copy of one arm's trained oracle: its own store
/// view, as every suite report job has.
fn load_oracle(scenario: ScenarioId) -> OracleSpec {
    let cache = OracleCache::at(oracle_store().clone());
    let (oracle, desc) = oracle_for(
        scenario,
        AttackVector::MoveOut,
        &quick_args().sweep(),
        &cache,
    );
    assert_eq!(cache.lookups(Kind::Oracle).1, 0, "loaded, not retrained");
    assert!(matches!(oracle, OracleSpec::Nn(_)), "{desc}");
    oracle
}

fn nn(oracle: &OracleSpec) -> &Arc<robotack::safety_hijacker::NnOracle> {
    match oracle {
        OracleSpec::Nn(nn) => nn,
        OracleSpec::Kinematic => panic!("expected an NN oracle"),
    }
}

#[test]
fn duplicate_report_arms_run_bit_identical_campaigns() {
    // What table2 and fig8 each build for DS-2 Move_Out: different names,
    // separately loaded oracles, different dispatch.
    let table2_oracle = load_oracle(ScenarioId::Ds2);
    let fig8_oracle = load_oracle(ScenarioId::Ds2);
    assert!(!Arc::ptr_eq(nn(&table2_oracle), nn(&fig8_oracle)));
    assert_eq!(
        network_digest(nn(&table2_oracle)),
        network_digest(nn(&fig8_oracle))
    );
    let table2 = r_campaign(
        "DS-2-Move_Out-R",
        ScenarioId::Ds2,
        AttackVector::MoveOut,
        table2_oracle,
        6,
        2020,
    );
    let fig8 = r_campaign(
        "fig8a",
        ScenarioId::Ds2,
        AttackVector::MoveOut,
        fig8_oracle,
        6,
        2020,
    );
    assert_eq!(CampaignKey::of(&table2), CampaignKey::of(&fig8));

    let a = run_campaign_dispatch(&table2, 2, DispatchMode::WorkStealing).unwrap();
    let b = run_campaign_dispatch(&fig8, 1, DispatchMode::Batched { batch_size: 4 }).unwrap();
    assert!(a.n_launched() > 0, "the arm attacks");
    let digests = |r: &CampaignResult| -> Vec<String> {
        r.outcomes.iter().map(|o| o.record.digest()).collect()
    };
    assert_eq!(digests(&a), digests(&b), "per-run record digests");
    assert_eq!(a.summary().runs, b.summary().runs);
}

#[test]
fn memoized_results_equal_direct_dispatch() {
    let campaign = |runs| {
        r_campaign(
            "memo",
            ScenarioId::Ds1,
            AttackVector::MoveOut,
            load_oracle(ScenarioId::Ds1),
            runs,
            2020,
        )
    };
    for mode in [
        DispatchMode::WorkStealing,
        DispatchMode::Batched { batch_size: 7 },
    ] {
        let direct = run_campaign_dispatch(&campaign(120), 2, mode)
            .unwrap()
            .summary();
        let memo = CampaignMemo::new();
        let alone = OracleCache::disabled();
        let fresh = memo.run(&campaign(60), &alone, 2, mode).unwrap();
        assert_eq!(fresh.runs[..], direct.runs[..60], "{mode:?}: fresh");
        let extended = memo.run(&campaign(120), &alone, 2, mode).unwrap();
        assert_eq!(extended, direct, "{mode:?}: 60 → 120 extension");
        let prefix = memo.run(&campaign(45), &alone, 1, mode).unwrap();
        assert_eq!(prefix.runs[..], direct.runs[..45], "{mode:?}: prefix");
        assert_eq!(
            (memo.campaigns(), memo.simulated_runs()),
            (1, 120),
            "{mode:?}: every run simulated once"
        );
    }
}

#[test]
fn different_oracle_fault_plan_or_seed_does_not_share() {
    let arm = |oracle| r_campaign("arm", ScenarioId::Ds1, AttackVector::MoveOut, oracle, 2, 7);
    let base = arm(load_oracle(ScenarioId::Ds1));
    let other_oracle = arm(load_oracle(ScenarioId::Ds2));
    let kinematic = arm(OracleSpec::Kinematic);
    let faulted = base
        .clone()
        .with_faults(FaultPlan::single(FaultSpec::always(
            FaultKind::CameraFrameDrop { probability: 0.1 },
        )));
    let reseeded = Campaign {
        base_seed: 8,
        ..base.clone()
    };
    let golden = Campaign {
        attacker: AttackerSpec::None,
        ..base.clone()
    };
    let variants = [
        &base,
        &other_oracle,
        &kinematic,
        &faulted,
        &reseeded,
        &golden,
    ];
    for (i, a) in variants.iter().enumerate() {
        for b in &variants[i + 1..] {
            assert_ne!(CampaignKey::of(a), CampaignKey::of(b));
        }
    }

    let memo = CampaignMemo::new();
    for c in variants {
        let memoized = memo
            .run(c, &OracleCache::disabled(), 2, DispatchMode::WorkStealing)
            .unwrap();
        let direct = run_campaign_dispatch(c, 1, DispatchMode::WorkStealing).unwrap();
        assert_eq!(memoized, direct.summary(), "{:?}", CampaignKey::of(c));
    }
    assert_eq!((memo.campaigns(), memo.simulated_runs()), (6, 12));
}

/// What the probe jobs saw of their execution's memo, in order: distinct
/// campaigns and simulated runs.
type Seen = Arc<Mutex<Vec<(usize, u64)>>>;

/// A job recording what its execution's memo holds.
fn probe(id: &str, seen: &Seen) -> Job {
    let seen = seen.clone();
    Job::new(id, move |scope| {
        let memo = scope.get::<CampaignMemo>();
        seen.lock()
            .unwrap()
            .push((memo.campaigns(), memo.simulated_runs()));
        JobOutcome::default()
    })
}

/// The quick paper DAG — or its subgraph for the `only` reports, when
/// given — between two probes: `start` runs before every job, `end` after
/// every report.
fn probed_paper_dag(store: &Arc<ArtifactStore>, seen: &Seen, only: &[&str]) -> Dag {
    let mut paper = paper_dag(&quick_args(), store).expect("valid DAG");
    if !only.is_empty() {
        let only: Vec<String> = only.iter().map(|id| id.to_string()).collect();
        paper = paper.subgraph(&only).expect("known reports");
    }
    let mut jobs = vec![probe("start", seen)];
    let mut reports = Vec::new();
    for job in paper.jobs() {
        if job.is_stdout_job() {
            reports.push(job.id().to_string());
        }
        jobs.push(if job.dep_ids().is_empty() {
            job.clone().dep("start")
        } else {
            job.clone()
        });
    }
    jobs.push(probe("end", seen).deps(reports));
    Dag::new(jobs).expect("valid DAG")
}

/// Each report's stdout from one two-worker execution of `dag`, in order.
fn stdout(dag: &Dag) -> Vec<(String, String)> {
    execute(dag, &ExecOptions::new().workers(2))
        .expect("suite run")
        .jobs
        .iter()
        .filter(|j| j.emits_stdout)
        .map(|j| (j.id.clone(), j.stdout.clone()))
        .collect()
}

#[test]
fn each_execution_simulates_its_shared_campaigns_once() {
    let dir = std::env::temp_dir().join(format!("campaign-memo-dag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ArtifactStore::at(&dir));
    let seen = Seen::default();
    let dag = probed_paper_dag(&store, &seen, &[]);

    let cold = stdout(&dag);
    assert_eq!(
        store.dedup_counters(),
        (12, 0),
        "6 datasets + 6 oracles led once; campaigns are not store claims"
    );
    let warm = stdout(&dag);
    assert_eq!(cold, warm);
    assert_eq!(
        store.dedup_counters(),
        (12, 0),
        "a warm store claims nothing"
    );

    // The reports that fold campaigns, over a disabled store: every job
    // retrains its oracles, and the memo works alone.
    let alone_seen = Seen::default();
    let disabled = probed_paper_dag(
        &Arc::new(ArtifactStore::disabled()),
        &alone_seen,
        &[
            "table2",
            "fig6",
            "fig7",
            "fig8",
            "ablations",
            "defense",
            "resilience",
        ],
    );
    for report in stdout(&disabled) {
        assert!(
            cold.contains(&report),
            "{}: a disabled store prints the same",
            report.0
        );
    }

    // Quick mode, 2 runs per campaign. Distinct keys: the six Table II arms
    // (shared by fig6's R panels, fig7, fig8 and resilience's healthy
    // RoboTack cells), the 24-run DS-5 baseline, fig6's four w/o-SH arms,
    // resilience's four golden cells and nine faulted RoboTack cells, the
    // eleven ablation cells, and defense's five golden scenarios, six
    // RoboTack arms at seed 7000 and naive Disappear. Unshared, the same
    // reports would simulate 146 runs.
    let per_execution = (
        6 + 1 + 4 + 4 + 9 + 11 + 12,
        6 * 2 + 24 + 4 * 2 + 4 * 2 + 9 * 2 + 11 * 2 + 12 * 2,
    );
    assert_eq!(
        *seen.lock().unwrap(),
        [(0, 0), per_execution, (0, 0), (per_execution.0, 0)],
        "each execution starts with an empty memo; the cold one simulates \
         every distinct campaign once, the warm one reads all of them from \
         the store"
    );
    assert_eq!(
        *alone_seen.lock().unwrap(),
        [(0, 0), per_execution],
        "without a store the memo still simulates each campaign once"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_countermeasure_and_ablation_reports_simulate_nothing() {
    let dir = std::env::temp_dir().join(format!("campaign-memo-ids-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ArtifactStore::at(&dir));
    let seen = Seen::default();
    let reports = ["defense", "ablations"];
    let dag = probed_paper_dag(&store, &seen, &reports);
    let cold = stdout(&dag);
    let warm = stdout(&dag);
    assert_eq!(cold, warm, "a warm execution prints the cold bytes");

    // Quick mode, 2 runs each: defense's five golden scenarios, six
    // RoboTack arms and naive Disappear, and the eleven ablation cells.
    let per_execution = (12 + 11, (12 + 11) * 2);
    assert_eq!(
        *seen.lock().unwrap(),
        [(0, 0), per_execution, (0, 0), (per_execution.0, 0)],
        "the warm execution reads every campaign from the store"
    );

    let alone_seen = Seen::default();
    let disabled = probed_paper_dag(&Arc::new(ArtifactStore::disabled()), &alone_seen, &reports);
    assert_eq!(stdout(&disabled), cold, "a disabled store prints the same");
    assert_eq!(*alone_seen.lock().unwrap(), [(0, 0), per_execution]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_campaign_entry_prints_the_same_report_after_one_miss() {
    // A private copy of the oracle store: this test writes campaigns.
    let dir = std::env::temp_dir().join(format!("campaign-memo-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(oracle_store()).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    let args = Args {
        cache_dir: Some(dir.clone()),
        ..quick_args()
    };
    let cold = OracleCache::at(&dir);
    let expected = fig8(&args, &cold, &CampaignMemo::new());
    assert_eq!(
        cold.lookups(Kind::Campaign),
        (0, 2),
        "fig8(a) folds the DS-1 and DS-2 Move_Out campaigns"
    );
    let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "campaign"))
        .collect();
    assert_eq!(entries.len(), 2);

    let mut bytes = std::fs::read(&entries[0]).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x10;
    std::fs::write(&entries[0], &bytes).unwrap();
    let warm = OracleCache::at(&dir);
    let memo = CampaignMemo::new();
    assert_eq!(fig8(&args, &warm, &memo), expected, "byte-identical stdout");
    assert_eq!(
        warm.lookups(Kind::Campaign),
        (1, 1),
        "the corrupt entry is one counted miss"
    );
    assert_eq!(
        warm.artifact_totals(),
        (4, 1),
        "two oracles, a campaign and the fig8(b) runs hit"
    );
    assert_eq!(
        warm.read_errors(),
        0,
        "corruption is a miss, not an I/O error"
    );
    assert_eq!(memo.simulated_runs(), 2, "only the corrupt campaign reran");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_or_truncated_figure_entry_prints_the_same_report_after_one_miss() {
    // A private copy of the oracle store: this test writes figures.
    let dir = std::env::temp_dir().join(format!("campaign-memo-figure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(oracle_store()).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    let args = Args {
        cache_dir: Some(dir.clone()),
        ..quick_args()
    };
    // Both reports' stdout through one fresh view, and that view's figure
    // ⟨hits, misses⟩.
    let reports = || {
        let view = OracleCache::at(&dir);
        let stdout = fig5(&args, &view) + &fig8(&args, &view, &CampaignMemo::new());
        (stdout, view.lookups(Kind::Figure))
    };
    let (expected, counted) = reports();
    assert_eq!(counted, (0, 2), "a cold store misses both figures");
    let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "figure"))
        .collect();
    assert_eq!(entries.len(), 2, "Fig. 5 and fig8(b) each wrote one entry");
    assert_eq!(reports(), (expected.clone(), (2, 0)), "then both hit");

    let flip = |bytes: &mut Vec<u8>| {
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x10;
    };
    let truncate = |bytes: &mut Vec<u8>| bytes.truncate(bytes.len() / 2);
    for (damage, what) in [
        (&flip as &dyn Fn(&mut Vec<u8>), "corrupt"),
        (&truncate, "truncated"),
    ] {
        for entry in &entries {
            let mut bytes = std::fs::read(entry).unwrap();
            damage(&mut bytes);
            std::fs::write(entry, &bytes).unwrap();
        }
        assert_eq!(
            reports(),
            (expected.clone(), (0, 2)),
            "{what} entries: the same bytes after one counted miss each"
        );
        assert_eq!(
            reports(),
            (expected.clone(), (2, 0)),
            "{what} entries were written back whole"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
