//! Property-based pinning of the GEMM micro-kernels against the naive
//! reference.
//!
//! The register-blocked kernels (and the `nt` transpose fast path behind
//! them) claim **bit-identity** with the strict index-order naive loops on
//! every non-NaN output — finite values, signed zeros, and infinities
//! included — and identical NaN *placement* for non-finite inputs (which
//! is exactly what the old sparsity shortcut got wrong; NaN *payloads* are
//! the one thing IEEE-754 leaves implementation-defined). These properties
//! generate random shapes (zero rows/columns, primes, tile-boundary
//! stragglers) and hostile entry mixes and compare `to_bits()` across the
//! whole output.

use av_neural::gemm;
use av_neural::matrix::Matrix;
use proptest::prelude::*;

/// Dimension strategy biased toward the interesting edges: zero (empty
/// operand), one (scalar remainder loops), exact 4-multiples (pure tile
/// path), off-by-one stragglers, and primes.
fn dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(3usize),
        Just(4usize),
        Just(5usize),
        Just(8usize),
        Just(13usize),
        Just(16usize),
        Just(17usize),
        1usize..24,
    ]
}

/// Finite, well-scaled entries.
fn finite() -> impl Strategy<Value = f64> {
    -100.0..100.0f64
}

/// Hostile entries: the values the old `a == 0.0` shortcut mishandled
/// (zeros meeting NaN/∞) plus signed zeros and ordinary magnitudes.
fn hostile() -> impl Strategy<Value = f64> {
    prop_oneof![
        -100.0..100.0f64,
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// Largest operand any generated shape can need (dims are < 24).
const POOL: usize = 24 * 24;

/// Output comparator: [`assert_bits`] or [`assert_ieee_equiv`].
type Comparator = fn(&[f64], &[f64], &str) -> Result<(), TestCaseError>;

fn assert_bits(want: &[f64], got: &[f64], what: &str) -> Result<(), TestCaseError> {
    for (idx, (w, g)) in want.iter().zip(got).enumerate() {
        prop_assert_eq!(
            w.to_bits(),
            g.to_bits(),
            "{} diverged at flat index {}: {} vs {}",
            what,
            idx,
            w,
            g
        );
    }
    Ok(())
}

/// IEEE-value equivalence: every non-NaN result (finite values, signed
/// zeros, infinities) must match bit-for-bit; NaN results must be NaN on
/// both sides. NaN *payloads* are the one thing IEEE-754 leaves
/// implementation-defined (and LLVM may commute add/mul operands, picking
/// the other operand's payload), so they are deliberately not compared.
fn assert_ieee_equiv(want: &[f64], got: &[f64], what: &str) -> Result<(), TestCaseError> {
    for (idx, (w, g)) in want.iter().zip(got).enumerate() {
        if w.is_nan() {
            prop_assert!(
                g.is_nan(),
                "{} diverged at flat index {}: NaN vs {}",
                what,
                idx,
                g
            );
        } else {
            prop_assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "{} diverged at flat index {}: {} vs {}",
                what,
                idx,
                w,
                g
            );
        }
    }
    Ok(())
}

/// Shared body: all three blocked kernels vs their naive references. `cmp`
/// is [`assert_bits`] for finite data and [`assert_ieee_equiv`] when NaNs
/// may appear.
fn check_families(
    m: usize,
    n: usize,
    k: usize,
    a_pool: &[f64],
    b_pool: &[f64],
    cmp: Comparator,
) -> Result<(), TestCaseError> {
    let (a, b) = (&a_pool[..m * k], &b_pool[..n * k]);
    let mut want = vec![7.5; m * n];
    let mut got = vec![-7.5; m * n];
    gemm::nt_naive(a, b, &mut want, m, n, k);
    gemm::nt_blocked(a, b, &mut got, m, n, k);
    cmp(&want, &got, "nt blocked")?;

    let (a, b) = (&a_pool[..k * m], &b_pool[..k * n]);
    gemm::tn_naive(a, b, &mut want, k, m, n);
    gemm::tn_blocked(a, b, &mut got, k, m, n);
    cmp(&want, &got, "tn blocked")?;

    let (a, b) = (&a_pool[..m * k], &b_pool[..k * n]);
    gemm::nn_naive(a, b, &mut want, m, k, n);
    gemm::nn_blocked(a, b, &mut got, m, k, n);
    cmp(&want, &got, "nn blocked")?;
    Ok(())
}

/// A per-element-pure epilogue shaped like the production bias/mask ones
/// (column scale + per-element shift), used to pin the fused kernels
/// against `naive + epilogue_pass`. Relies on the trait's default
/// `apply_row`, so both per-element and row-granular call paths are
/// exercised through the same expressions.
struct AffineEpi<'a> {
    scale: &'a [f64],
    shift: &'a [f64],
    n: usize,
}

impl gemm::Epilogue for AffineEpi<'_> {
    fn apply(&mut self, i: usize, j: usize, s: f64) -> f64 {
        s * self.scale[j] + self.shift[i * self.n + j]
    }
}

/// Counts visits per element — pins the stateful-epilogue contract that
/// every fused kernel applies the epilogue exactly once per output.
struct CountEpi {
    counts: Vec<u32>,
    n: usize,
}

impl gemm::Epilogue for CountEpi {
    fn apply(&mut self, i: usize, j: usize, s: f64) -> f64 {
        self.counts[i * self.n + j] += 1;
        s
    }
}

/// Shared body for the fused-entry properties: every fused kernel (in the
/// process-wide default mode) must agree with `naive + epilogue_pass` on
/// every IEEE-specified bit, including `nt_fused_bt` fed an explicit
/// transposed operand (the forward pass's `Wᵀ`-shadow route).
fn check_fused(
    m: usize,
    n: usize,
    k: usize,
    a_pool: &[f64],
    b_pool: &[f64],
    e_pool: &[f64],
    cmp: Comparator,
) -> Result<(), TestCaseError> {
    let mut epi = AffineEpi {
        scale: &e_pool[..24],
        shift: e_pool,
        n,
    };
    let mut want = vec![7.5; m * n];
    let mut got = vec![-7.5; m * n];

    let (a, b) = (&a_pool[..m * k], &b_pool[..n * k]);
    gemm::nt_naive(a, b, &mut want, m, n, k);
    gemm::epilogue_pass(&mut want, m, n, &mut epi);
    gemm::nt_fused(a, b, &mut got, m, n, k, &mut epi);
    cmp(&want, &got, "nt fused")?;
    // The same product with the transposed operand precomputed (bt is k×n
    // row-major, bt[kk·n + j] = b[j·k + kk]) — the persistent-shadow path.
    let mut bt = vec![0.0; n * k];
    for j in 0..n {
        for kk in 0..k {
            bt[kk * n + j] = b[j * k + kk];
        }
    }
    got.fill(-7.5);
    gemm::nt_fused_bt(a, b, Some(&bt), &mut got, m, n, k, &mut epi);
    cmp(&want, &got, "nt fused (bt shadow)")?;

    let (a, b) = (&a_pool[..k * m], &b_pool[..k * n]);
    gemm::tn_naive(a, b, &mut want, k, m, n);
    gemm::epilogue_pass(&mut want, m, n, &mut epi);
    got.fill(-7.5);
    gemm::tn_fused(a, b, &mut got, k, m, n, &mut epi);
    cmp(&want, &got, "tn fused")?;

    let (a, b) = (&a_pool[..m * k], &b_pool[..k * n]);
    gemm::nn_naive(a, b, &mut want, m, k, n);
    gemm::epilogue_pass(&mut want, m, n, &mut epi);
    got.fill(-7.5);
    gemm::nn_fused(a, b, &mut got, m, k, n, &mut epi);
    cmp(&want, &got, "nn fused")?;
    Ok(())
}

proptest! {
    /// Blocked ≡ naive to the bit on finite data, any shape.
    #[test]
    fn blocked_matches_naive_bits_finite(
        m in dim(), n in dim(), k in dim(),
        a_pool in prop::collection::vec(finite(), POOL),
        b_pool in prop::collection::vec(finite(), POOL),
    ) {
        check_families(m, n, k, &a_pool, &b_pool, assert_bits)?;
    }

    /// With NaN, ±∞, and ±0.0 sprinkled through both operands — the inputs
    /// the old sparsity shortcut mishandled — blocked still agrees with
    /// naive on every IEEE-specified bit: non-NaN outputs are identical and
    /// NaNs appear in exactly the same places (payloads are the one thing
    /// IEEE leaves open).
    #[test]
    fn blocked_matches_naive_bits_hostile(
        m in dim(), n in dim(), k in dim(),
        a_pool in prop::collection::vec(hostile(), POOL),
        b_pool in prop::collection::vec(hostile(), POOL),
    ) {
        check_families(m, n, k, &a_pool, &b_pool, assert_ieee_equiv)?;
    }

    /// A zero in one operand meeting a non-finite partner in the other must
    /// produce NaN in every affected output (IEEE 0×∞ / 0×NaN), in all
    /// three families.
    #[test]
    fn zero_times_nonfinite_is_nan(
        m in 1usize..8, n in 1usize..8, k in 1usize..8,
        poison in prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
    ) {
        let a = vec![0.0; m * k];
        let b = vec![poison; n * k];
        let mut c = vec![0.0; m * n];
        gemm::nt_blocked(&a, &b, &mut c, m, n, k);
        prop_assert!(c.iter().all(|v| v.is_nan()), "nt laundered {} through 0.0", poison);
        let a = vec![0.0; k * m];
        let b = vec![poison; k * n];
        gemm::tn_blocked(&a, &b, &mut c, k, m, n);
        prop_assert!(c.iter().all(|v| v.is_nan()), "tn laundered {} through 0.0", poison);
        let a = vec![0.0; m * k];
        let b = vec![poison; k * n];
        gemm::nn_blocked(&a, &b, &mut c, m, k, n);
        prop_assert!(c.iter().all(|v| v.is_nan()), "nn laundered {} through 0.0", poison);
    }

    /// The `Matrix` product methods (default mode: blocked) agree with the
    /// naive kernels on every IEEE-specified bit — the end-to-end route the
    /// training loop takes.
    #[test]
    fn matrix_products_match_naive_bits(
        m in 1usize..10, n in 1usize..10, k in 1usize..10,
        a_pool in prop::collection::vec(hostile(), POOL),
        b_pool in prop::collection::vec(hostile(), POOL),
    ) {
        // x (m×k) · wᵀ (n×k) — the forward product.
        let x = Matrix::from_vec(m, k, a_pool[..m * k].to_vec());
        let w = Matrix::from_vec(n, k, b_pool[..n * k].to_vec());
        let mut out = Matrix::zeros(0, 0);
        x.matmul_t_into(&w, &mut out);
        let mut want = vec![0.0; m * n];
        gemm::nt_naive(&a_pool[..m * k], &b_pool[..n * k], &mut want, m, n, k);
        assert_ieee_equiv(&want, out.as_slice(), "matmul_t_into")?;

        // dᵀ (r×m)ᵀ · x (r×n) — the weight-gradient product.
        let d = Matrix::from_vec(k, m, a_pool[..k * m].to_vec());
        let x2 = Matrix::from_vec(k, n, b_pool[..k * n].to_vec());
        d.t_matmul_into(&x2, &mut out);
        gemm::tn_naive(&a_pool[..k * m], &b_pool[..k * n], &mut want, k, m, n);
        assert_ieee_equiv(&want, out.as_slice(), "t_matmul_into")?;

        // d (m×k) · w (k×n) — the backpropagated-delta product.
        let d2 = Matrix::from_vec(m, k, a_pool[..m * k].to_vec());
        let w2 = Matrix::from_vec(k, n, b_pool[..k * n].to_vec());
        d2.matmul_into(&w2, &mut out);
        gemm::nn_naive(&a_pool[..m * k], &b_pool[..k * n], &mut want, m, k, n);
        assert_ieee_equiv(&want, out.as_slice(), "matmul_into")?;
    }

    /// Fused-epilogue entries ≡ naive + row-major `epilogue_pass` to the
    /// bit on finite data, any shape — the fused training step's
    /// equivalence contract.
    #[test]
    fn fused_matches_pass_bits_finite(
        m in dim(), n in dim(), k in dim(),
        a_pool in prop::collection::vec(finite(), POOL),
        b_pool in prop::collection::vec(finite(), POOL),
        e_pool in prop::collection::vec(finite(), POOL),
    ) {
        check_fused(m, n, k, &a_pool, &b_pool, &e_pool, assert_bits)?;
    }

    /// The same with NaN/±∞/±0.0 through operands *and* epilogue inputs:
    /// non-NaN outputs identical, NaN placement identical.
    #[test]
    fn fused_matches_pass_hostile(
        m in dim(), n in dim(), k in dim(),
        a_pool in prop::collection::vec(hostile(), POOL),
        b_pool in prop::collection::vec(hostile(), POOL),
        e_pool in prop::collection::vec(hostile(), POOL),
    ) {
        check_fused(m, n, k, &a_pool, &b_pool, &e_pool, assert_ieee_equiv)?;
    }

    /// Every fused entry applies a stateful epilogue exactly once per
    /// output element, whatever shape/path (tile interior, remainder
    /// bands, shadow operand) the dispatch lands on.
    #[test]
    fn fused_visits_each_element_once(
        m in dim(), n in dim(), k in dim(),
        a_pool in prop::collection::vec(finite(), POOL),
        b_pool in prop::collection::vec(finite(), POOL),
    ) {
        let mut c = vec![0.0; m * n];
        let mut epi = CountEpi { counts: vec![0; m * n], n };
        gemm::nt_fused(&a_pool[..m * k], &b_pool[..n * k], &mut c, m, n, k, &mut epi);
        prop_assert!(epi.counts.iter().all(|&v| v == 1), "nt fused visit counts: {:?}", epi.counts);

        let mut bt = vec![0.0; n * k];
        for j in 0..n {
            for kk in 0..k {
                bt[kk * n + j] = b_pool[j * k + kk];
            }
        }
        epi.counts.fill(0);
        gemm::nt_fused_bt(&a_pool[..m * k], &b_pool[..n * k], Some(&bt), &mut c, m, n, k, &mut epi);
        prop_assert!(epi.counts.iter().all(|&v| v == 1), "nt fused bt visit counts: {:?}", epi.counts);

        epi.counts.fill(0);
        gemm::tn_fused(&a_pool[..k * m], &b_pool[..k * n], &mut c, k, m, n, &mut epi);
        prop_assert!(epi.counts.iter().all(|&v| v == 1), "tn fused visit counts: {:?}", epi.counts);

        epi.counts.fill(0);
        gemm::nn_fused(&a_pool[..m * k], &b_pool[..k * n], &mut c, m, k, n, &mut epi);
        prop_assert!(epi.counts.iter().all(|&v| v == 1), "nn fused visit counts: {:?}", epi.counts);
    }
}
