//! Component microbenchmarks.

use av_neural::mlp::Mlp;
use av_neural::train::Normalizer;
use av_perception::calibration::DetectorCalibration;
use av_perception::detector::Detector;
use av_perception::hungarian;
use av_perception::kalman::{Kalman, KalmanConfig};
use av_sensing::bbox::BBox;
use av_sensing::camera::Camera;
use av_sensing::frame::capture;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use robotack::patch;
use robotack::safety_hijacker::{AttackFeatures, NnOracle, SafetyOracle};
use robotack_bench::bench_world;
use std::hint::black_box;

fn bench_hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian");
    for n in [4usize, 8, 16, 32] {
        let mut rng = StdRng::seed_from_u64(7);
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.random_range(0.0..10.0)).collect())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &cost, |b, cost| {
            b.iter(|| hungarian::solve(black_box(cost)))
        });
    }
    group.finish();
}

fn bench_kalman(c: &mut Criterion) {
    c.bench_function("kalman_predict_update", |b| {
        let mut kf = Kalman::new(KalmanConfig::default(), 100.0, 100.0);
        b.iter(|| {
            kf.predict(black_box(1.0 / 15.0));
            kf.update(black_box(101.0), black_box(99.5));
            black_box(kf.position())
        })
    });
}

fn bench_detector(c: &mut Criterion) {
    let world = bench_world();
    let camera = Camera::default();
    let frame = capture(&camera, &world, 0, false);
    c.bench_function("detector_frame_5_objects", |b| {
        let mut detector = Detector::new(DetectorCalibration::paper());
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(detector.detect(black_box(&frame), &mut rng)))
    });
}

fn bench_camera(c: &mut Criterion) {
    let world = bench_world();
    let camera = Camera::default();
    let ego = world.ego();
    let target = world.actor(av_simkit::actor::ActorId(1)).expect("actor");
    c.bench_function("camera_project", |b| {
        b.iter(|| black_box(camera.project(black_box(ego), black_box(target))))
    });
    let bbox = BBox::from_center(960.0, 620.0, 120.0, 90.0);
    c.bench_function("camera_back_project_height", |b| {
        b.iter(|| black_box(camera.back_project_with_height(black_box(&bbox), 1.5)))
    });
}

fn bench_nn_oracle(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let net = Mlp::paper_architecture(AttackFeatures::INPUT_DIM, &mut rng);
    let normalizer = Normalizer {
        mean: vec![20.0, -5.0, 0.0, 0.0, 45.0],
        std: vec![10.0, 3.0, 0.5, 0.5, 25.0],
    };
    let oracle = NnOracle::new(net, normalizer);
    let features = AttackFeatures {
        delta: 20.0,
        v_rel_lon: -5.0,
        v_rel_lat: 0.2,
        a_rel_lon: -0.1,
    };
    // One k-search query: both engines answer every query this way.
    c.bench_function("nn_oracle_query", |b| {
        b.iter(|| black_box(oracle.predict_delta(black_box(&features), black_box(40))))
    });
}

fn bench_patch(c: &mut Criterion) {
    let world = bench_world();
    let camera = Camera::default();
    let frame = capture(&camera, &world, 0, true);
    let truth = *frame
        .truth_for(av_simkit::actor::ActorId(1))
        .expect("car in view");
    let raster = frame.raster.expect("raster");
    c.bench_function("patch_apply_shift", |b| {
        b.iter_batched(
            || raster.clone(),
            |mut r| patch::apply_shift(&mut r, &truth.bbox, black_box(60.0)),
            criterion::BatchSize::SmallInput,
        )
    });
    c.bench_function("patch_detect", |b| {
        b.iter(|| black_box(patch::detect(black_box(&raster), &truth.bbox)))
    });
}

criterion_group!(
    benches,
    bench_hungarian,
    bench_kalman,
    bench_detector,
    bench_camera,
    bench_nn_oracle,
    bench_patch
);
criterion_main!(benches);
