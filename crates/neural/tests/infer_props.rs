//! Property-based pinning of the inference kernel against `Mlp::forward`.
//!
//! `InferenceMlp` answers every oracle query on both engines, so it must
//! reproduce the row-major reference to the bit: each output is one
//! strict-input-order chain from `+0.0`, then the bias, then ReLU, whatever
//! the block width that carries it. These properties draw layer widths
//! around the kernel's 32/16/8/4/2/1 blocks (plus the paper's
//! 5-100-100-50-1 oracle) and weight/input mixes that are either finite or
//! salted with NaN, ±∞ and ±0, and compare every output: non-NaN values by
//! `to_bits()`, NaNs by position (payloads are implementation-defined).

use av_neural::infer::InferenceMlp;
use av_neural::mlp::Mlp;
use av_simkit::rng as simrng;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Layer widths straddling every block edge of the kernel.
const WIDTHS: [usize; 6] = [1, 3, 7, 8, 33, 100];

/// The paper's oracle architecture (§IV-B).
const PAPER: [usize; 5] = [5, 100, 100, 50, 1];

/// The values a fault-injected input or a hostile snapshot can carry.
const SPECIALS: [f64; 5] = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// One draw: a special with probability `rate`, otherwise a finite normal.
fn draw(rng: &mut impl Rng, rate: f64) -> f64 {
    if rng.random::<f64>() < rate {
        SPECIALS[rng.random_range(0..SPECIALS.len())]
    } else {
        simrng::normal(rng, 0.0, 1.5)
    }
}

/// Non-NaN outputs equal by bits, NaN outputs NaN on both sides.
fn assert_ieee_equiv(want: &[f64], got: &[f64], sizes: &[usize]) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.len(), got.len());
    for (idx, (w, g)) in want.iter().zip(got).enumerate() {
        if w.is_nan() {
            prop_assert!(g.is_nan(), "{:?} output {}: NaN vs {}", sizes, idx, g);
        } else {
            prop_assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "{:?} output {}: {} vs {}",
                sizes,
                idx,
                w,
                g
            );
        }
    }
    Ok(())
}

/// Builds the net for `sizes` with parameters drawn at special-value rate
/// `rate`, then compares several inputs through both paths.
fn check(sizes: &[usize], seed: u64, rate: f64) -> Result<(), TestCaseError> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n_params: usize = sizes.windows(2).map(|p| p[0] * p[1] + p[1]).sum();
    let params: Vec<f64> = (0..n_params).map(|_| draw(&mut rng, rate)).collect();
    let net = Mlp::from_flat(sizes, 0.1, &params).expect("consistent shape");
    let inference = InferenceMlp::new(&net);
    let mut out = vec![f64::NAN; inference.output_dim()];
    for _ in 0..4 {
        // Inputs get specials far more often than weights: one poisoned
        // weight only taints one unit, one poisoned input every unit.
        let input: Vec<f64> = (0..sizes[0]).map(|_| draw(&mut rng, 4.0 * rate)).collect();
        inference.forward_into(&input, &mut out);
        assert_ieee_equiv(&net.forward(&input), &out, sizes)?;
    }
    Ok(())
}

/// Special-value rates: finite only, rare, occasional, frequent.
fn rate() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0 / 256.0), Just(1.0 / 32.0), Just(0.25)]
}

proptest! {
    #[test]
    fn kernel_matches_forward_on_drawn_widths(
        picks in prop::collection::vec(0usize..WIDTHS.len(), 2..5),
        seed in any::<u64>(),
        rate in rate(),
    ) {
        let sizes: Vec<usize> = picks.iter().map(|&i| WIDTHS[i]).collect();
        check(&sizes, seed, rate)?;
    }

    #[test]
    fn kernel_matches_forward_on_the_paper_oracle(seed in any::<u64>(), rate in rate()) {
        check(&PAPER, seed, rate)?;
    }
}

#[test]
fn zero_width_layers_answer_without_panicking() {
    // A well-formed snapshot may carry a zero-width layer; both paths
    // answer it as an empty sum plus the bias.
    for sizes in [&[5, 0, 1][..], &[5, 3, 0, 2], &[0, 4, 1]] {
        check(sizes, 7, 0.0).expect("zero-width layer");
        check(sizes, 8, 0.25).expect("zero-width layer, hostile");
    }
}
