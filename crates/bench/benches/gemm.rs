//! GEMM micro-kernel benches: naive vs register-blocked at the paper's
//! training shapes.
//!
//! Shapes: the oracle trains the 5-100-100-50-1 architecture with batch 16
//! (`mlp_train_epoch` in the `suite` bench is the end-to-end twin), and the
//! issue's canonical kernel shapes 9×64 / 64×64 / 64×1 at batch 32 cover
//! the small-reduction, square, and thin-output regimes. Every family runs
//! both implementations so the blocked-vs-naive win stays visible in one
//! report.

use av_neural::gemm;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn filled(len: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..len)
        .map(|_| av_simkit::rng::normal(rng, 0.0, 1.0))
        .collect()
}

/// (label, m, n, reduction) — `nt` computes (m×k)·(n×k)ᵀ, `tn` computes
/// (r×m)ᵀ·(r×n), `nn` computes (m×k)·(k×n); the tuple's last element is the
/// reduction dimension in each family.
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("b32_9x64", 32, 64, 9),
    ("b32_64x64", 32, 64, 64),
    ("b32_64x1", 32, 1, 64),
    ("b16_100x100", 16, 100, 100),
    // The paper net's first (5→100) and last (50→1) layers at batch 16:
    // tiny reduction and single-column output, the shapes dominated by the
    // remainder bands rather than the 4×8 tile interior.
    ("b16_100x5", 16, 100, 5),
    ("b16_1x50", 16, 1, 50),
];

fn bench_nt(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(101);
    let mut group = c.benchmark_group("gemm_nt");
    for &(label, m, n, k) in SHAPES {
        let a = filled(m * k, &mut rng);
        let b = filled(n * k, &mut rng);
        let mut out = vec![0.0; m * n];
        group.bench_function(format!("{label}/naive"), |bch| {
            bch.iter(|| gemm::nt_naive(black_box(&a), black_box(&b), &mut out, m, n, k))
        });
        group.bench_function(format!("{label}/blocked"), |bch| {
            bch.iter(|| gemm::nt_blocked(black_box(&a), black_box(&b), &mut out, m, n, k))
        });
    }
    group.finish();
}

fn bench_tn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(102);
    let mut group = c.benchmark_group("gemm_tn");
    for &(label, m, n, r) in SHAPES {
        let a = filled(r * m, &mut rng);
        let b = filled(r * n, &mut rng);
        let mut out = vec![0.0; m * n];
        group.bench_function(format!("{label}/naive"), |bch| {
            bch.iter(|| gemm::tn_naive(black_box(&a), black_box(&b), &mut out, r, m, n))
        });
        group.bench_function(format!("{label}/blocked"), |bch| {
            bch.iter(|| gemm::tn_blocked(black_box(&a), black_box(&b), &mut out, r, m, n))
        });
    }
    group.finish();
}

fn bench_nn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(103);
    let mut group = c.benchmark_group("gemm_nn");
    for &(label, m, n, k) in SHAPES {
        let a = filled(m * k, &mut rng);
        let b = filled(k * n, &mut rng);
        let mut out = vec![0.0; m * n];
        group.bench_function(format!("{label}/naive"), |bch| {
            bch.iter(|| gemm::nn_naive(black_box(&a), black_box(&b), &mut out, m, k, n))
        });
        group.bench_function(format!("{label}/blocked"), |bch| {
            bch.iter(|| gemm::nn_blocked(black_box(&a), black_box(&b), &mut out, m, k, n))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nt, bench_tn, bench_nn);
criterion_main!(benches);
