//! End-to-end tests of the `av-suite` orchestrator over the real paper DAG:
//! worker-count determinism, kill/resume from a truncated manifest, and
//! bin ≡ job stdout equivalence (the contract CI's suite smoke relies on).

use av_experiments::jobs::{self, paper_dag};
use av_experiments::memo::CampaignMemo;
use av_experiments::oracle_cache::OracleCache;
use av_experiments::suite::Args;
use av_suite::{execute, ArtifactStore, ExecOptions, RunReport};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("suite-orch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn quick_args() -> Args {
    Args {
        runs: 2,
        quick: true,
        seed: 2020,
        cache_dir: None,
        no_cache: false,
        dispatch: av_experiments::campaign::DispatchMode::WorkStealing,
    }
}

fn suite_stdout(report: &RunReport) -> String {
    report
        .jobs
        .iter()
        .filter(|j| j.emits_stdout)
        .map(|j| j.stdout.as_str())
        .collect()
}

fn artifact_digests(report: &RunReport) -> Vec<(String, Vec<(String, u64)>)> {
    report
        .jobs
        .iter()
        .map(|j| (j.id.clone(), j.artifacts.clone()))
        .collect()
}

/// Runs the full paper DAG cold (own store + manifest) at `workers`.
fn run_cold(dir: &Path, workers: usize) -> RunReport {
    let args = quick_args();
    let store = Arc::new(ArtifactStore::at(dir.join(format!("store-{workers}"))));
    let dag = paper_dag(&args, &store).expect("valid DAG");
    execute(
        &dag,
        &ExecOptions::new()
            .workers(workers)
            .manifest(dir.join(format!("manifest-{workers}.jsonl")))
            .config_key(args.config_key()),
    )
    .expect("suite run")
}

#[test]
fn full_dag_is_deterministic_across_worker_counts() {
    let dir = scratch("workers");

    let reference = run_cold(&dir, 1);
    assert_eq!(
        reference.jobs.len(),
        23,
        "6 datasets + 6 oracles + 8 reports + 3 searches"
    );
    assert_eq!(reference.jobs_run(), 23);
    let ref_stdout = suite_stdout(&reference);
    assert!(ref_stdout.contains("Fig. 6"), "reports made it to stdout");
    let ref_digests = artifact_digests(&reference);
    // Every dataset and oracle job pinned an artifact digest.
    for (id, artifacts) in &ref_digests {
        if id.starts_with("dataset:") || id.starts_with("oracle:") {
            assert_eq!(artifacts.len(), 1, "{id} records its digest");
        }
    }

    for workers in [4, 8] {
        let report = run_cold(&dir, workers);
        assert_eq!(
            suite_stdout(&report),
            ref_stdout,
            "stdout is worker-count invariant (workers={workers})"
        );
        assert_eq!(
            artifact_digests(&report),
            ref_digests,
            "artifact digests are worker-count invariant (workers={workers})"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_run_resumes_from_truncated_manifest() {
    let dir = scratch("resume");
    let args = quick_args();
    let store = Arc::new(ArtifactStore::at(dir.join("store")));
    let manifest = dir.join("manifest.jsonl");
    let opts = ExecOptions::new()
        .workers(2)
        .manifest(manifest.clone())
        .config_key(args.config_key());

    let dag = paper_dag(&args, &store).expect("valid DAG");
    let first = execute(&dag, &opts).expect("first run");
    assert_eq!(first.jobs_run(), 23);

    // Simulate a kill mid-run: keep the header and the first 8 completed
    // entries, then half of the 9th — exactly what a process death between
    // flushes leaves behind.
    let contents = std::fs::read_to_string(&manifest).expect("manifest");
    let lines: Vec<&str> = contents.lines().collect();
    assert_eq!(lines.len(), 24, "header + one entry per job");
    let half = lines[9];
    std::fs::write(
        &manifest,
        format!("{}\n{}", lines[..9].join("\n"), &half[..half.len() / 2]),
    )
    .expect("truncate");

    let dag = paper_dag(&args, &store).expect("valid DAG");
    let second = execute(&dag, &opts).expect("resumed run");
    assert_eq!(second.jobs_skipped(), 8, "recovered entries are skipped");
    assert_eq!(
        second.jobs_run(),
        15,
        "the garbled entry and the rest rerun"
    );
    assert_eq!(
        suite_stdout(&second),
        suite_stdout(&first),
        "resumed stdout is byte-identical"
    );
    assert_eq!(
        artifact_digests(&second),
        artifact_digests(&first),
        "resumed artifact digests are unchanged"
    );

    // Third run: everything recovered, nothing executed.
    let dag = paper_dag(&args, &store).expect("valid DAG");
    let third = execute(&dag, &opts).expect("warm rerun");
    assert_eq!(third.jobs_run(), 0);
    assert_eq!(third.jobs_skipped(), 23);
    assert_eq!(suite_stdout(&third), suite_stdout(&first));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig5_bin_stdout_equals_job_output() {
    let dir = scratch("fig5");
    let args = Args {
        cache_dir: Some(dir.join("store")),
        ..quick_args()
    };
    // The library run characterizes and stores the fold; the binary reads
    // it back, and prints the same bytes.
    let expected = jobs::fig5(&args, &args.oracle_cache());
    let out = Command::new(env!("CARGO_BIN_EXE_fig5"))
        .args(["--quick", "--runs", "2", "--seed", "2020", "--cache-dir"])
        .arg(dir.join("store"))
        .output()
        .expect("fig5 bin runs");
    assert!(out.status.success(), "fig5 exit status: {:?}", out.status);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "standalone fig5 stdout ≡ jobs::fig5"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("figure hits=1 misses=0"), "{stderr}");
    assert_eq!(
        jobs::fig5(&args, &OracleCache::disabled()),
        expected,
        "a disabled store characterizes the same"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table2_bin_stdout_equals_job_output_via_shared_store() {
    let dir = scratch("table2-golden");
    let args = Args {
        cache_dir: Some(dir.join("store")),
        ..quick_args()
    };

    // Cold library run trains and stores the oracles; the binary then
    // reads the same store, so both produce the same oracles — and must
    // produce the same bytes.
    let cache = OracleCache::over(Arc::new(args.artifact_store()));
    let expected = jobs::table2(&args, &cache, &CampaignMemo::new());

    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--quick", "--runs", "2", "--seed", "2020", "--cache-dir"])
        .arg(dir.join("store"))
        .output()
        .expect("table2 bin runs");
    assert!(out.status.success(), "table2 exit status: {:?}", out.status);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "standalone table2 stdout ≡ jobs::table2"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_gemm_mode_is_a_usage_error() {
    // A typo or a retired mode must stop the binary before any kernel runs,
    // not fall back to blocked (which would turn CI's naive-vs-blocked
    // smoke into blocked-vs-blocked).
    for (bin, value) in [
        (env!("CARGO_BIN_EXE_table2"), "tiled"),
        (env!("CARGO_BIN_EXE_suite"), "naiv"),
    ] {
        let out = Command::new(bin)
            .args(["--quick", "--runs", "1", "--no-cache"])
            .env("AV_GEMM_MODE", value)
            .output()
            .expect("bin runs");
        assert_eq!(out.status.code(), Some(2), "{bin} AV_GEMM_MODE={value}");
        assert!(out.stdout.is_empty(), "{bin} printed before failing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "error: AV_GEMM_MODE takes blocked or naive, not {value:?}"
            )),
            "{bin} stderr: {stderr}"
        );
    }
}

#[test]
fn suite_bin_replays_and_skips_on_second_invocation() {
    let dir = scratch("suite-bin");
    let manifest = dir.join("manifest.jsonl");
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_suite"))
            .args(["--quick", "--runs", "2", "--seed", "2020", "--only", "fig5"])
            .arg("--cache-dir")
            .arg(dir.join("store"))
            .arg("--manifest")
            .arg(&manifest)
            .output()
            .expect("suite bin runs")
    };

    let first = run();
    assert!(first.status.success(), "first run: {:?}", first.status);
    let second = run();
    assert!(second.status.success(), "second run: {:?}", second.status);

    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&second.stdout),
        "replayed stdout is byte-identical"
    );
    let summary = String::from_utf8_lossy(&second.stderr);
    assert!(
        summary.contains("jobs_run=0 jobs_skipped=1"),
        "second invocation skipped everything:\n{summary}"
    );

    // And the orchestrated fig5 stdout equals the standalone binary's.
    let standalone = Command::new(env!("CARGO_BIN_EXE_fig5"))
        .args(["--quick", "--runs", "2", "--seed", "2020", "--no-cache"])
        .output()
        .expect("fig5 bin runs");
    assert_eq!(first.stdout, standalone.stdout);

    let _ = std::fs::remove_dir_all(&dir);
}
