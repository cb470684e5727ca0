//! Property-based tests for the statistics toolkit and campaign dispatch.

use av_experiments::campaign::{
    run_campaign_dispatch, run_campaign_with_threads, Campaign, DispatchMode,
};
use av_experiments::oracle_cache::{Kind, OracleCache};
use av_experiments::prelude::*;
use av_experiments::stats::{
    fit_exponential, fit_normal, histogram, mean, median, percentile, std_dev, BoxSummary,
};
use av_experiments::train_sh::train_oracle_on;
use av_neural::train::Dataset;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, 2..200)
}

fn dispatch_campaign() -> Campaign {
    Campaign::new("prop-dispatch", ScenarioId::Ds1, AttackerSpec::None, 5, 40)
}

/// Both dispatch modes, parameterized by a drawn block size (work stealing
/// claims one run at a time).
fn dispatch_mode(selector: u8, batch_size: usize) -> DispatchMode {
    match selector % 2 {
        0 => DispatchMode::WorkStealing,
        _ => DispatchMode::Batched { batch_size },
    }
}

/// (launched, EB, crashes, deterministic telemetry counts) — the summary every
/// dispatch mode must reproduce.
type MetricsBaseline = (usize, usize, usize, Vec<(&'static str, u64)>);

/// Sequential (1-thread) campaign summary + merged telemetry baseline,
/// computed once for all cases.
fn metrics_baseline() -> &'static MetricsBaseline {
    static BASELINE: OnceLock<MetricsBaseline> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let result = run_campaign_with_threads(&dispatch_campaign().with_metrics(), 1)
            .expect("one thread is valid");
        let metrics = result.metrics.as_ref().expect("metrics collected");
        (
            result.n_launched(),
            result.eb().0,
            result.crashes().0,
            metrics.deterministic_counts(),
        )
    })
}

/// Sequential (1-thread) per-run digests, computed once for all cases.
fn sequential_digests() -> &'static [String] {
    static BASELINE: OnceLock<Vec<String>> = OnceLock::new();
    BASELINE.get_or_init(|| {
        run_campaign_with_threads(&dispatch_campaign(), 1)
            .expect("one thread is valid")
            .outcomes
            .iter()
            .map(|o| o.record.digest())
            .collect()
    })
}

/// A scratch cache directory unique to this test binary.
fn hostile_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oracle-cache-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp cache dir");
    dir
}

/// A valid snapshot's on-disk bytes under key 0, encoded once for all cases.
fn valid_snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let data = Dataset::from_rows((0..64).map(|i| {
            let delta = 5.0 + f64::from(i % 16) * 2.0;
            let k = f64::from(i % 8) * 10.0;
            (vec![delta, -3.0, 0.5, -0.1, k], vec![delta - 0.1 * k])
        }));
        let oracle = train_oracle_on(&data).expect("synthetic dataset trains");
        let dir = hostile_cache_dir("encode");
        let cache = OracleCache::at(&dir);
        cache.put(0, &oracle);
        let bytes = std::fs::read(dir.join(format!("{:016x}.oracle", 0))).expect("stored bytes");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

proptest! {
    #[test]
    fn percentile_is_bounded_and_monotone(xs in samples(), q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let p1 = percentile(&xs, q1);
        prop_assert!(p1 >= lo - 1e-9 && p1 <= hi + 1e-9);
        let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(percentile(&xs, qa) <= percentile(&xs, qb) + 1e-9);
    }

    #[test]
    fn box_summary_is_ordered(xs in samples()) {
        let b = BoxSummary::of(&xs);
        prop_assert!(b.min <= b.q1 + 1e-9);
        prop_assert!(b.q1 <= b.median + 1e-9);
        prop_assert!(b.median <= b.q3 + 1e-9);
        prop_assert!(b.q3 <= b.max + 1e-9);
        prop_assert_eq!(b.n, xs.len());
    }

    #[test]
    fn mean_is_translation_equivariant(xs in samples(), shift in -100.0..100.0f64) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((mean(&shifted) - mean(&xs) - shift).abs() < 1e-6);
        // Std-dev is translation invariant.
        prop_assert!((std_dev(&shifted) - std_dev(&xs)).abs() < 1e-6);
    }

    #[test]
    fn median_minimizes_l1_locally(xs in samples()) {
        let m = median(&xs);
        let l1 = |c: f64| xs.iter().map(|x| (x - c).abs()).sum::<f64>();
        prop_assert!(l1(m) <= l1(m + 1.0) + 1e-6);
        prop_assert!(l1(m) <= l1(m - 1.0) + 1e-6);
    }

    #[test]
    fn exponential_fit_location_is_the_minimum(xs in prop::collection::vec(0.0..100.0f64, 3..100)) {
        let fit = fit_exponential(&xs).expect("enough data");
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!((fit.loc - lo).abs() < 1e-12);
        prop_assert!(fit.lambda > 0.0);
    }

    #[test]
    fn normal_fit_matches_moments(xs in samples()) {
        let fit = fit_normal(&xs).expect("enough data");
        prop_assert!((fit.mean - mean(&xs)).abs() < 1e-9);
        prop_assert!((fit.std_dev - std_dev(&xs)).abs() < 1e-9);
    }

    #[test]
    fn histogram_conserves_count(xs in samples(), width in 0.5..50.0f64) {
        let h = histogram(&xs, width, 4096);
        let total: usize = h.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total, xs.len());
    }

    #[test]
    fn work_stealing_digests_are_thread_count_invariant(threads in 1usize..33, selector in any::<u8>(), batch_size in 1usize..9) {
        let mode = dispatch_mode(selector, batch_size);
        let result = run_campaign_dispatch(&dispatch_campaign(), threads, mode)
            .expect("nonzero thread count");
        let digests: Vec<String> = result.outcomes.iter().map(|o| o.record.digest()).collect();
        prop_assert_eq!(&digests[..], sequential_digests(), "threads={} mode={:?}", threads, mode);
    }

    #[test]
    fn campaign_summary_and_metrics_are_dispatch_invariant(threads in 1usize..33, selector in any::<u8>(), batch_size in 1usize..9) {
        let mode = dispatch_mode(selector, batch_size);
        let result = run_campaign_dispatch(&dispatch_campaign().with_metrics(), threads, mode)
            .expect("nonzero thread count");
        let metrics = result.metrics.as_ref().expect("metrics collected");
        let (n_launched, eb, crashes, counts) = metrics_baseline();
        prop_assert_eq!(result.n_launched(), *n_launched, "threads={} mode={:?}", threads, mode);
        prop_assert_eq!(result.eb().0, *eb, "threads={} mode={:?}", threads, mode);
        prop_assert_eq!(result.crashes().0, *crashes, "threads={} mode={:?}", threads, mode);
        prop_assert_eq!(
            &metrics.deterministic_counts(),
            counts,
            "merged telemetry drifted: threads={} mode={:?}", threads, mode
        );
    }

    #[test]
    fn arbitrary_snapshot_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..600), key in any::<u64>()) {
        let dir = hostile_cache_dir("arbitrary");
        let path = dir.join(format!("{key:016x}.oracle"));
        std::fs::write(&path, &bytes).expect("write hostile snapshot");
        let cache = OracleCache::at(&dir);
        // Random bytes must be a silent miss — never a panic or an oracle.
        prop_assert!(cache.lookup(key).is_none());
        prop_assert_eq!(cache.lookups(Kind::Oracle), (0, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_valid_snapshots_never_panic(pos in any::<usize>(), xor in 1..=255u8, cut in any::<usize>(), truncate in any::<bool>()) {
        let valid = valid_snapshot_bytes();
        let mutated = if truncate {
            valid[..cut % valid.len()].to_vec()
        } else {
            let mut v = valid.to_vec();
            let i = pos % v.len();
            v[i] ^= xor;
            v
        };
        let dir = hostile_cache_dir("corrupt");
        let path = dir.join(format!("{:016x}.oracle", 0));
        std::fs::write(&path, &mutated).expect("write corrupted snapshot");
        let cache = OracleCache::at(&dir);
        // A flipped byte lands in the parameter payload more often than not,
        // where any f64 bit pattern is structurally valid — the guarantee
        // under corruption is "never panic", not "always detect".
        let _ = cache.lookup(0);
        let _ = std::fs::remove_file(&path);
    }
}
