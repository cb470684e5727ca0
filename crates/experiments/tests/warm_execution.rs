//! A warm execution recomputes nothing: executing the quick paper DAG a
//! second time over the same store characterizes no detector frame,
//! simulates no run, and decodes and digests each of the six oracles once,
//! printing the cold execution's bytes.
//!
//! The work tallies are process-wide, so this binary holds one test.

use av_experiments::jobs::paper_dag;
use av_experiments::suite::Args;
use av_experiments::tally::Tally;
use av_suite::{execute, ArtifactStore, ExecOptions};
use std::sync::Arc;

#[test]
fn a_warm_execution_reads_everything_and_loads_each_oracle_once() {
    let dir = std::env::temp_dir().join(format!("warm-execution-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ArtifactStore::at(&dir));
    let args = Args {
        runs: 2,
        quick: true,
        ..Args::default()
    };
    let dag = paper_dag(&args, &store).expect("valid DAG");
    // Each report's stdout, the work the execution did and its artifact
    // misses.
    let execute_once = || {
        let before = Tally::now();
        let report = execute(&dag, &ExecOptions::new().workers(2)).expect("suite run");
        let work = Tally::now().since(before);
        let stdout: Vec<(String, String)> = report
            .jobs
            .iter()
            .filter(|j| j.emits_stdout)
            .map(|j| (j.id.clone(), j.stdout.clone()))
            .collect();
        (stdout, work, report.artifact_totals().1)
    };

    let (cold, cold_work, _) = execute_once();
    assert!(
        cold_work.frames > 0 && cold_work.runs > 0,
        "the cold execution characterizes and simulates: {cold_work:?}"
    );
    assert_eq!(
        (
            cold_work.oracle_decodes,
            cold_work.network_digests,
            cold_work.oracle_digests
        ),
        (0, 6, 6),
        "the cold execution shares the six oracles it trains, digesting each once"
    );

    let (warm, warm_work, misses) = execute_once();
    assert_eq!(warm, cold, "a warm execution prints the cold bytes");
    assert_eq!(misses, 0, "every artifact is read from the store");
    assert_eq!(
        warm_work,
        Tally {
            runs: 0,
            frames: 0,
            oracle_decodes: 6,
            network_digests: 6,
            oracle_digests: 6,
        },
        "a warm execution characterizes and simulates nothing, and decodes \
         and digests each oracle once"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
