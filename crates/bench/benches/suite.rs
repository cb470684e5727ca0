//! Suite-throughput benchmarks: campaign dispatch, oracle-cache lookups,
//! minibatch MLP training, and the DAG-orchestrator overhead — the levers
//! behind suite wall-clock.

use av_experiments::campaign::{default_threads, run_campaign_dispatch, DispatchMode};
use av_experiments::oracle_cache::{cache_key, OracleCache};
use av_experiments::prelude::*;
use av_experiments::train_sh::{train_oracle_on, SweepConfig};
use av_neural::mlp::Mlp;
use av_neural::train::{train, Dataset, TrainConfig};
use av_suite::{execute, Dag, ExecOptions, Job, JobOutcome};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_campaign_dispatch(c: &mut Criterion) {
    let campaign = Campaign::new(
        "bench-dispatch",
        ScenarioId::Ds1,
        AttackerSpec::None,
        8,
        900,
    );
    let mut group = c.benchmark_group("campaign_dispatch");
    group.sample_size(10);
    let cases = [
        ("stealing_1_thread", 1, DispatchMode::WorkStealing),
        (
            "stealing_default_threads",
            default_threads(),
            DispatchMode::WorkStealing,
        ),
    ];
    for (name, threads, mode) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), &threads, |b, &t| {
            b.iter(|| black_box(run_campaign_dispatch(black_box(&campaign), t, mode).unwrap()))
        });
    }
    group.finish();
}

fn synthetic_dataset(n: usize) -> Dataset {
    Dataset::from_rows((0..n).map(|i| {
        let delta = 5.0 + (i % 20) as f64 * 2.0;
        let k = (i % 9) as f64 * 10.0;
        (vec![delta, -3.0, 0.5, -0.1, k], vec![delta - 0.1 * k])
    }))
}

/// One training epoch of the paper network, per-example vs minibatch.
fn bench_mlp_epoch(c: &mut Criterion) {
    let data = synthetic_dataset(256);
    let mut group = c.benchmark_group("mlp_train_epoch");
    group.sample_size(10);
    for batch in [1usize, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("batch{batch}")),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(0x0011_ACED);
                    let mut net = Mlp::paper_architecture(5, &mut rng);
                    train(
                        &mut net,
                        &data,
                        &TrainConfig {
                            epochs: 1,
                            batch_size: batch,
                            learning_rate: 1e-3,
                        },
                        &mut rng,
                    );
                    black_box(net)
                })
            },
        );
    }
    group.finish();
}

/// The fused training step, plus the bare interleaved Adam pass at
/// paper-net size (15 801 parameters).
///
/// `fused_epoch` is the production `train()` path: diff-fused forward over
/// the persistent `Wᵀ` shadow, then backward GEMMs whose epilogues run the
/// ReLU/dropout backward, the Adam update, and the shadow refresh.
fn bench_training_pipeline(c: &mut Criterion) {
    use av_neural::optim::Adam;

    let data = synthetic_dataset(128);
    let mut group = c.benchmark_group("training_pipeline");
    group.sample_size(10);
    group.bench_function("fused_epoch", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(0x0011_ACED);
            let mut net = Mlp::paper_architecture(5, &mut rng);
            train(
                &mut net,
                &data,
                &TrainConfig {
                    epochs: 1,
                    batch_size: 16,
                    learning_rate: 1e-3,
                },
                &mut rng,
            );
            black_box(net)
        })
    });
    let mut rng = StdRng::seed_from_u64(0xADA0);
    let mut probe = Mlp::paper_architecture(5, &mut rng);
    let count = probe.param_count();
    let mut params: Vec<f64> = (0..count).map(|i| (i as f64 * 0.13).sin()).collect();
    let grads: Vec<f64> = (0..count).map(|i| (i as f64 * 0.29).cos()).collect();
    let mut adam = Adam::new(count, 1e-3);
    group.bench_function("adam_step", |b| {
        b.iter(|| {
            adam.step()
                .update_slice(black_box(&mut params), black_box(&grads))
        })
    });
    black_box(&mut probe);
    group.finish();
}

/// A warm oracle-cache lookup (read + checked decode of a full snapshot) vs
/// what it replaces: training the oracle from the already-collected dataset.
fn bench_oracle_cache(c: &mut Criterion) {
    let data = synthetic_dataset(128);
    let oracle = train_oracle_on(&data).expect("synthetic dataset trains");
    let dir = std::env::temp_dir().join(format!("oracle-cache-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = OracleCache::at(&dir);
    let key = cache_key(ScenarioId::Ds1, AttackVector::MoveOut, &SweepConfig::tiny());
    cache.put(key, &oracle);

    let mut group = c.benchmark_group("oracle_cache");
    group.bench_function("warm_lookup", |b| {
        b.iter(|| black_box(cache.lookup(black_box(key)).expect("warm hit")))
    });
    group.sample_size(10);
    group.bench_function("train_from_dataset", |b| {
        b.iter(|| black_box(train_oracle_on(black_box(&data)).expect("trains")))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The paper DAG's shape (6 datasets → 6 oracles → 8 reports) with no-op
/// bodies: pure scheduling + manifest overhead per `suite` run. Must stay
/// negligible next to the jobs themselves (milliseconds vs minutes).
fn orchestrator_dag() -> Dag {
    let mk = |id: String| Job::new(id, |_| JobOutcome::default());
    let mut jobs = Vec::new();
    for i in 0..6 {
        jobs.push(mk(format!("dataset:{i}")));
    }
    for i in 0..6 {
        jobs.push(mk(format!("oracle:{i}")).dep(format!("dataset:{i}")));
    }
    for report in [
        "table2", "fig5", "fig6", "fig7", "fig8", "abl", "def", "res",
    ] {
        jobs.push(
            mk(report.to_string())
                .deps((0..6).map(|i| format!("oracle:{i}")))
                .emits_stdout(),
        );
    }
    Dag::new(jobs).expect("valid bench DAG")
}

fn bench_orchestrator(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("suite-orch-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");

    let mut group = c.benchmark_group("suite_orchestrator");
    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("noop_paper_dag_{workers}w")),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    black_box(
                        execute(&orchestrator_dag(), &ExecOptions::new().workers(workers))
                            .expect("bench run"),
                    )
                })
            },
        );
    }
    // With the manifest: adds one JSON append + flush per job, and the
    // resume load on startup.
    group.bench_function("noop_paper_dag_manifest", |b| {
        let path = dir.join("manifest.jsonl");
        b.iter(|| {
            let _ = std::fs::remove_file(&path);
            black_box(
                execute(
                    &orchestrator_dag(),
                    &ExecOptions::new().workers(2).manifest(path.clone()),
                )
                .expect("bench run"),
            )
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_campaign_dispatch,
    bench_mlp_epoch,
    bench_training_pipeline,
    bench_oracle_cache,
    bench_orchestrator
);
criterion_main!(benches);
