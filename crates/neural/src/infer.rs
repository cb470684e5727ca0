//! The inference form of an [`Mlp`]: immutable transposed weights and one
//! register-blocked kernel that answers every dropout-free forward pass.
//!
//! The safety hijacker queries its oracle on every monitored camera frame,
//! one row at a time: each k-search step runs [`InferenceMlp::forward_into`]
//! once. Per layer, the kernel holds a block of 32/16/8/4/2/1 outputs in
//! registers across the whole input loop and streams one contiguous row of
//! `Wᵀ` (in × out) per input element, so the block's accumulators vectorize
//! without any gather.
//!
//! # Bit identity
//!
//! Every output accumulates `x_j · Wᵀ[j][o]` strictly in input order from a
//! `+0.0` start, then adds the bias, then applies ReLU — the same per-output
//! chain as [`Mlp::forward`]. A block only interleaves independent chains:
//! no sum is reassociated and no multiply-add is fused, so each answer is
//! bit-identical to the reference on every non-NaN output, with NaNs in the
//! same places (NaN payloads are implementation-defined, as in
//! [`crate::gemm`]). The kernel never consults [`crate::gemm::GemmMode`].

use crate::mlp::Mlp;
use std::cell::RefCell;

/// An immutable, inference-only copy of an [`Mlp`]: each layer stored as
/// `Wᵀ` (in × out, row-major) followed by its bias.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceMlp {
    /// Layer sizes (input, hidden..., output).
    sizes: Vec<usize>,
    /// Per layer: `Wᵀ` (in × out, row-major) and the bias (out).
    layers: Vec<(Vec<f64>, Vec<f64>)>,
    /// Widest hidden layer: the activation scratch holds two of these.
    max_hidden: usize,
}

thread_local! {
    /// Ping-pong hidden-activation buffers, so steady-state queries perform
    /// no heap allocation.
    static ACTS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

impl InferenceMlp {
    /// Transposes `net`'s weights into the inference layout.
    pub fn new(net: &Mlp) -> InferenceMlp {
        InferenceMlp::from_flat(&net.layer_sizes(), &net.flatten_params())
            .expect("a network's own shape and parameters agree")
    }

    /// Builds the inference form straight from layer sizes and parameters
    /// in [`Mlp::flatten_params`] order (per layer: weights row-major, then
    /// biases), without an intermediate [`Mlp`]. Returns `None` when the
    /// shape and the parameter count disagree (e.g. a corrupted snapshot),
    /// exactly like [`Mlp::from_flat`].
    pub fn from_flat(sizes: &[usize], params: &[f64]) -> Option<InferenceMlp> {
        if sizes.len() < 2 {
            return None;
        }
        let expected = sizes.windows(2).try_fold(0usize, |n, pair| {
            pair[0]
                .checked_mul(pair[1])?
                .checked_add(pair[1])?
                .checked_add(n)
        })?;
        if params.len() != expected {
            return None;
        }
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        let mut cursor = params;
        for pair in sizes.windows(2) {
            let (fan_in, fan_out) = (pair[0], pair[1]);
            let (w, rest) = cursor.split_at(fan_in * fan_out);
            let (b, rest) = rest.split_at(fan_out);
            cursor = rest;
            let wt = (0..fan_in * fan_out)
                .map(|t| w[(t % fan_out) * fan_in + t / fan_out])
                .collect();
            layers.push((wt, b.to_vec()));
        }
        let max_hidden = sizes[1..sizes.len() - 1].iter().copied().max().unwrap_or(0);
        Some(InferenceMlp {
            sizes: sizes.to_vec(),
            layers,
            max_hidden,
        })
    }

    /// Every parameter in [`Mlp::flatten_params`] order (per layer: weights
    /// row-major, then biases), read back out of the transposed layout —
    /// so snapshots and digests can serialize the network without
    /// materializing a second copy of it.
    pub fn params(&self) -> impl Iterator<Item = f64> + '_ {
        self.layers
            .iter()
            .zip(self.sizes.windows(2))
            .flat_map(|((wt, b), pair)| {
                let (fan_in, fan_out) = (pair[0], pair[1]);
                (0..fan_in * fan_out)
                    .map(move |t| wt[(t % fan_in) * fan_out + t / fan_in])
                    .chain(b.iter().copied())
            })
    }

    /// Total number of parameters (the length of [`InferenceMlp::params`]).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|(wt, b)| wt.len() + b.len()).sum()
    }

    /// Layer sizes (input, hidden..., output), as [`Mlp::layer_sizes`].
    pub fn layer_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.sizes[self.sizes.len() - 1]
    }

    /// One forward pass of `input` into `out`, bit-identical to
    /// [`Mlp::forward`] (see the module docs). Allocation-free once this
    /// thread has answered a query of the same or a wider network.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `out` do not match the network's input and
    /// output dimensions.
    pub fn forward_into(&self, input: &[f64], out: &mut [f64]) {
        assert_eq!(input.len(), self.input_dim(), "input dimension");
        assert_eq!(out.len(), self.output_dim(), "output dimension");
        ACTS.with(|cell| {
            let mut acts = cell.borrow_mut();
            if acts.len() < 2 * self.max_hidden {
                acts.resize(2 * self.max_hidden, 0.0);
            }
            // Each hidden layer reads the previous layer's output from
            // `prev` and writes its own into `next`; the last layer writes
            // straight into `out`.
            let (mut prev, mut next) = acts.split_at_mut(self.max_hidden);
            let last = self.layers.len() - 1;
            for (l, ((wt, bias), pair)) in self.layers.iter().zip(self.sizes.windows(2)).enumerate()
            {
                let (fan_in, fan_out) = (pair[0], pair[1]);
                let x: &[f64] = if l == 0 { input } else { &prev[..fan_in] };
                let y: &mut [f64] = if l == last {
                    &mut *out
                } else {
                    &mut next[..fan_out]
                };
                layer(wt, bias, l != last, x, y);
                std::mem::swap(&mut prev, &mut next);
            }
        });
    }
}

/// One dense layer for one row: `y = relu?(x · Wᵀ + b)`, with `wt` the
/// layer's `Wᵀ` (`x.len()` rows of `bias.len()` outputs). A zero-width
/// layer, which a well-formed snapshot may carry, runs no block at all, so
/// the blocks' `chunks_exact(bias.len())` never sees a zero width.
fn layer(wt: &[f64], bias: &[f64], relu: bool, x: &[f64], y: &mut [f64]) {
    let n = bias.len();
    let mut o = 0;
    while o + 32 <= n {
        block::<32>(wt, bias, relu, x, y, o);
        o += 32;
    }
    if o + 16 <= n {
        block::<16>(wt, bias, relu, x, y, o);
        o += 16;
    }
    if o + 8 <= n {
        block::<8>(wt, bias, relu, x, y, o);
        o += 8;
    }
    if o + 4 <= n {
        block::<4>(wt, bias, relu, x, y, o);
        o += 4;
    }
    if o + 2 <= n {
        block::<2>(wt, bias, relu, x, y, o);
        o += 2;
    }
    if o < n {
        block::<1>(wt, bias, relu, x, y, o);
    }
}

/// Outputs `o..o+W` of one layer: `W` register accumulators, each one
/// strict-input-order chain from `+0.0`, then bias and ReLU.
#[inline(always)]
fn block<const W: usize>(wt: &[f64], bias: &[f64], relu: bool, x: &[f64], y: &mut [f64], o: usize) {
    let mut acc = [0.0f64; W];
    for (&xj, row) in x.iter().zip(wt.chunks_exact(bias.len())) {
        for (a, &w) in acc.iter_mut().zip(&row[o..o + W]) {
            *a += xj * w;
        }
    }
    for ((yo, a), &b) in y[o..o + W].iter_mut().zip(acc).zip(&bias[o..o + W]) {
        let v = a + b;
        *yo = if relu && v < 0.0 { 0.0 } else { v };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_simkit::rng as simrng;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(17)
    }

    #[test]
    fn matches_forward_bitwise_on_every_block_width() {
        let mut r = rng();
        // 100 = 32·3 + 4, 63 = 32+16+8+4+2+1, 50 = 32+16+2.
        for sizes in [&[5, 100, 100, 50, 1][..], &[3, 63, 7, 2], &[1, 1]] {
            let net = Mlp::new(sizes, 0.1, &mut r);
            let inf = InferenceMlp::new(&net);
            let mut out = vec![0.0; inf.output_dim()];
            for _ in 0..8 {
                let x: Vec<f64> = (0..sizes[0])
                    .map(|_| simrng::normal(&mut r, 0.0, 2.0))
                    .collect();
                inf.forward_into(&x, &mut out);
                let want = net.forward(&x);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&want), "sizes {sizes:?}");
            }
        }
    }

    #[test]
    fn reads_back_the_training_form_parameters() {
        let net = Mlp::new(&[5, 13, 7, 1], 0.25, &mut rng());
        let inference = InferenceMlp::new(&net);
        assert_eq!(inference.layer_sizes(), net.layer_sizes());
        assert_eq!(inference.param_count(), net.param_count());
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(inference.params().collect()),
            bits(net.flatten_params())
        );
    }

    #[test]
    fn from_flat_rejects_what_mlp_from_flat_rejects() {
        let params = [0.5; 5 * 2 + 2 + 2 + 1];
        assert!(InferenceMlp::from_flat(&[5, 2, 1], &params).is_some());
        for sizes in [&[5][..], &[], &[5, 2, 2], &[5, 3, 1], &[usize::MAX, 2, 1]] {
            assert!(
                InferenceMlp::from_flat(sizes, &params).is_none(),
                "{sizes:?}"
            );
            assert!(Mlp::from_flat(sizes, 0.1, &params).is_none(), "{sizes:?}");
        }
    }

    #[test]
    fn zero_width_hidden_layer_answers_the_bias() {
        // sizes [5, 0, 1]: the only parameter is the output bias. The empty
        // sum is +0.0, so the answer is exactly the bias — no panic.
        let net = Mlp::from_flat(&[5, 0, 1], 0.1, &[-2.5]).expect("well-formed");
        let inf = InferenceMlp::new(&net);
        let mut out = [9.0];
        inf.forward_into(&[1.0; 5], &mut out);
        assert_eq!(out[0].to_bits(), (-2.5f64).to_bits());
        assert_eq!(out[0].to_bits(), net.forward(&[1.0; 5])[0].to_bits());
    }
}
