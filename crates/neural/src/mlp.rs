//! The feed-forward network: dense layers + ReLU + dropout.

use crate::gemm::{self, BiasDiffEpilogue, Epilogue, LayerEpilogue};
use crate::matrix::Matrix;
use crate::optim::{AdamLane, AdamStep};
use av_simkit::rng as simrng;
use rand::Rng;

/// One dense layer: `y = x·Wᵀ + b`, optionally followed by ReLU.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    /// Weights, shape (out, in).
    w: Matrix,
    /// Biases, length `out`.
    b: Vec<f64>,
    /// Apply ReLU after the affine map (all layers except the last).
    relu: bool,
}

/// Owned scratch for a training loop: cached forward activations and
/// dropout masks, backprop deltas, and per-layer gradients, all reshaped in
/// place and reused across minibatches so steady-state training performs
/// no heap allocation.
#[derive(Debug, Default)]
pub struct TrainScratch {
    /// Input and post-activation output of each layer (len = layers + 1);
    /// the last entry holds the output layer's MSE diff.
    activations: Vec<Matrix>,
    /// Dropout keep-masks (already scaled) per hidden layer.
    masks: Vec<Option<Matrix>>,
    delta: Matrix,
    delta_prev: Matrix,
    grads: Vec<(Matrix, Vec<f64>)>,
    /// Persistent transposed-weight shadow: `wt[l]` is `Wₗᵀ` (in × out),
    /// built on the first [`Mlp::backward_adam_into`] call and kept
    /// current by its optimizer epilogue (which writes each updated weight
    /// to both buffers). While non-empty, the fused forward reads it
    /// directly instead of re-transposing every weight matrix on every
    /// minibatch. Empty until the first fused step runs.
    wt: Vec<Matrix>,
}

impl TrainScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        TrainScratch::default()
    }

    /// The output-layer diff `(x·Wᵀ + b) − targets` of the most recent
    /// [`Mlp::forward_train_diff_into`].
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has been run through this scratch.
    pub fn output(&self) -> &Matrix {
        self.activations.last().expect("no forward pass cached")
    }
}

/// A multi-layer perceptron.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
    /// Dropout rate applied after each hidden activation during training.
    pub dropout: f64,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes (input, hidden..., output),
    /// He-initialized. `dropout` is applied after each hidden ReLU during
    /// training (inverted dropout — inference needs no rescaling).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(sizes: &[usize], dropout: f64, rng: &mut R) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let (fan_in, fan_out) = (sizes[i], sizes[i + 1]);
            let std = (2.0 / fan_in as f64).sqrt();
            let mut w = Matrix::zeros(fan_out, fan_in);
            for v in w.as_mut_slice() {
                *v = simrng::normal(rng, 0.0, std);
            }
            layers.push(Dense {
                w,
                b: vec![0.0; fan_out],
                relu: i + 2 < sizes.len(),
            });
        }
        Mlp { layers, dropout }
    }

    /// The architecture the paper specifies: 3 hidden layers of 100/100/50
    /// ReLU units with dropout 0.1 (§IV-B).
    pub fn paper_architecture<R: Rng + ?Sized>(inputs: usize, rng: &mut R) -> Self {
        Mlp::new(&[inputs, 100, 100, 50, 1], 0.1, rng)
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].w.cols()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("nonempty").b.len()
    }

    /// Inference forward pass (dropout disabled) — the row-major reference
    /// the inference kernel ([`crate::infer::InferenceMlp`]) is pinned
    /// against. Each output accumulates `w · x` strictly in input order from
    /// `+0.0`, then adds the bias, then applies ReLU. The explicit `+0.0`
    /// start (rather than `Iterator::sum`, whose neutral element is `-0.0`)
    /// is what every kernel in the crate starts from.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        debug_assert_eq!(input.len(), self.input_dim());
        let mut x = input.to_vec();
        for layer in &self.layers {
            x = layer
                .b
                .iter()
                .enumerate()
                .map(|(o, &b)| {
                    let mut s = 0.0;
                    for (w, xi) in layer.w.row(o).iter().zip(&x) {
                        s += w * xi;
                    }
                    let v = s + b;
                    if layer.relu && v < 0.0 {
                        0.0
                    } else {
                        v
                    }
                })
                .collect();
        }
        x
    }

    /// The training forward pass, with inverted dropout and the output
    /// layer's MSE diff fused into its GEMM epilogue: the last cached
    /// activation ([`TrainScratch::output`]) holds
    /// `diff = (x·Wᵀ + b) − targets` instead of the raw output, so the
    /// training loop reads loss and delta from one buffer without a
    /// separate output-sized subtraction pass. [`Mlp::backward_adam_into`]
    /// never reads the output layer's activation (no ReLU there), only the
    /// delta derived from `diff`.
    ///
    /// Every layer runs one [`gemm::nt_fused_bt`] call whose epilogue
    /// applies bias + ReLU + dropout mask (hidden layers) or bias − target
    /// (the output layer) as each output element's strict-order
    /// accumulator chain completes — the same rounded ops, in the same
    /// order, as separate full-matrix passes.
    ///
    /// Dropout masks are drawn row-major *before* the layer's GEMM; the
    /// draws are data-independent (one `rng.random()` per element,
    /// unconditionally), so the RNG stream is identical to the historical
    /// draw-after-GEMM pass and cached masks match bit-for-bit. Once the
    /// fused optimizer step has built the scratch's persistent `Wᵀ`
    /// shadow, the blocked kernel streams it directly — skipping the
    /// per-layer transpose.
    pub fn forward_train_diff_into<R: Rng + ?Sized>(
        &self,
        batch: &Matrix,
        targets: &Matrix,
        rng: &mut R,
        scratch: &mut TrainScratch,
    ) {
        debug_assert_eq!(targets.rows(), batch.rows());
        debug_assert_eq!(targets.cols(), self.output_dim());
        let TrainScratch {
            activations,
            masks,
            wt,
            ..
        } = scratch;
        // Use the persistent Wᵀ shadow only once the fused optimizer step
        // has built (and is maintaining) it.
        let wt = if wt.len() == self.layers.len() {
            Some(&wt[..])
        } else {
            None
        };
        let n_layers = self.layers.len();
        activations.resize_with(n_layers + 1, || Matrix::zeros(0, 0));
        masks.resize_with(n_layers, || None);
        activations[0].copy_from(batch);
        let rows = batch.rows();
        for (li, layer) in self.layers.iter().enumerate() {
            let out_dim = layer.b.len();
            let mask: Option<&[f64]> = if layer.relu && self.dropout > 0.0 {
                let keep = 1.0 - self.dropout;
                let mask = masks[li].get_or_insert_with(|| Matrix::zeros(0, 0));
                mask.reshape(rows, out_dim);
                for m in mask.as_mut_slice() {
                    *m = if rng.random::<f64>() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    };
                }
                Some(mask.as_slice())
            } else {
                masks[li] = None;
                None
            };
            let (done, rest) = activations.split_at_mut(li + 1);
            let x = &done[li];
            let y = &mut rest[0];
            y.reshape(rows, out_dim);
            let k = layer.w.cols();
            debug_assert_eq!(x.cols(), k);
            let wt_l = wt.map(|wt| {
                debug_assert_eq!(wt[li].rows(), k);
                debug_assert_eq!(wt[li].cols(), out_dim);
                wt[li].as_slice()
            });
            if li + 1 == n_layers {
                let mut epi = BiasDiffEpilogue::new(&layer.b, targets.as_slice(), out_dim);
                gemm::nt_fused_bt(
                    x.as_slice(),
                    layer.w.as_slice(),
                    wt_l,
                    y.as_mut_slice(),
                    rows,
                    out_dim,
                    k,
                    &mut epi,
                );
            } else {
                let mut epi = LayerEpilogue::new(&layer.b, layer.relu, mask, out_dim);
                gemm::nt_fused_bt(
                    x.as_slice(),
                    layer.w.as_slice(),
                    wt_l,
                    y.as_mut_slice(),
                    rows,
                    out_dim,
                    k,
                    &mut epi,
                );
            }
        }
    }

    /// The fused backward + optimizer step: backpropagates `dl_dout`
    /// through the forward pass cached in `scratch` **and** applies one
    /// Adam update to every parameter inside the same sweep. Bit-identical
    /// to a plain backward pass followed by a cursor-order
    /// [`crate::optim::AdamStep::update_slice`] pass (pinned by a unit
    /// test against that split reference here and end-to-end by the CI
    /// kernel-equivalence smoke).
    ///
    /// Three per-element fusions ride the backward GEMMs' store paths:
    ///
    /// - **ReLU/dropout backward** runs in the epilogue of the `nn` GEMM
    ///   that produces each hidden layer's delta (same two ops, same
    ///   order as the historical separate pass over `delta`).
    /// - **Adam on weights** runs in the epilogue of the `tn` GEMM that
    ///   produces each weight gradient: the moment the last contribution
    ///   of a `dW` element lands, that parameter's three divisions and
    ///   square root issue — so the divider unit (which bounds the Adam
    ///   pass on its own: ~9 cycles per parameter) churns *in parallel*
    ///   with the next tile's multiply/add stream instead of serializing
    ///   into a separate memory-bound pass over all parameters after
    ///   backward finishes. Gradients are still stored to
    ///   the scratch's gradient buffers.
    /// - The same epilogue mirrors each updated weight into the scratch's
    ///   persistent `Wᵀ` shadow, which the next fused forward streams
    ///   directly.
    ///
    /// Update order across parameters is tile order rather than cursor
    /// order; each parameter keeps its fixed moment slot and its exact
    /// update expression, and parameters are independent, so the final
    /// state is bit-identical. Within one layer the backpropagated delta
    /// is computed *before* that layer's weights move, exactly as the
    /// split pipeline orders it.
    ///
    /// `step` must come from an [`crate::optim::Adam`] sized for this
    /// net's [`Mlp::param_count`], freshly obtained from
    /// [`crate::optim::Adam::step`] once per minibatch, with its
    /// sequential cursor unused. Callers must not mutate weights between
    /// fused steps that share a `scratch` — the shadow would go stale
    /// (it is rebuilt whenever its shape disagrees with the net, but a
    /// same-shape parameter swap is undetectable).
    pub fn backward_adam_into(
        &mut self,
        dl_dout: &Matrix,
        scratch: &mut TrainScratch,
        step: &mut AdamStep<'_>,
    ) {
        let n_layers = self.layers.len();
        let TrainScratch {
            activations,
            masks,
            delta,
            delta_prev,
            grads,
            wt,
        } = scratch;
        grads.resize_with(n_layers, || (Matrix::zeros(0, 0), Vec::new()));
        // (Re)build the transposed-weight shadow if absent or mis-shaped.
        let stale = wt.len() != n_layers
            || self
                .layers
                .iter()
                .zip(wt.iter())
                .any(|(l, t)| t.rows() != l.w.cols() || t.cols() != l.w.rows());
        if stale {
            wt.resize_with(n_layers, || Matrix::zeros(0, 0));
            for (l, t) in self.layers.iter().zip(wt.iter_mut()) {
                l.w.transpose_into(t);
            }
        }
        delta.copy_from(dl_dout);
        // Start past the last layer; each iteration steps back to the start
        // of layer `li`'s parameters in the flat `flatten_params` order —
        // the moment-slot indexing the cursor-order optimizer pass uses.
        let mut offset: usize = self.param_count();
        for li in (0..n_layers).rev() {
            let n_out = self.layers[li].w.rows();
            let n_in = self.layers[li].w.cols();
            offset -= n_out * n_in + self.layers[li].b.len();
            let rows = delta.rows();
            debug_assert_eq!(delta.cols(), n_out);
            // Bias gradients: column sums of the (already masked) delta.
            let (dw, db) = &mut grads[li];
            db.clear();
            db.resize(n_out, 0.0);
            for r in 0..rows {
                for (o, dbo) in db.iter_mut().enumerate() {
                    *dbo += delta.get(r, o);
                }
            }
            // Backpropagated delta for the layer below — computed *before*
            // this layer's weights move, with the layer-below ReLU/dropout
            // backward fused into the store.
            if li > 0 {
                delta_prev.reshape(rows, n_in);
                let w = self.layers[li].w.as_slice();
                if self.layers[li - 1].relu {
                    let mut epi = ReluMaskEpilogue {
                        mask: masks[li - 1].as_ref().map(|m| m.as_slice()),
                        out: activations[li].as_slice(),
                        n: n_in,
                    };
                    gemm::nn_fused(
                        delta.as_slice(),
                        w,
                        delta_prev.as_mut_slice(),
                        rows,
                        n_out,
                        n_in,
                        &mut epi,
                    );
                } else {
                    gemm::nn_fused(
                        delta.as_slice(),
                        w,
                        delta_prev.as_mut_slice(),
                        rows,
                        n_out,
                        n_in,
                        &mut gemm::NoEpilogue,
                    );
                }
            }
            // Weight gradients with the Adam update (and Wᵀ-shadow
            // refresh) fused into the store path.
            {
                let layer = &mut self.layers[li];
                let input = &activations[li];
                dw.reshape(n_out, n_in);
                let mut epi = AdamWEpilogue {
                    lane: step.lane(offset, n_out * n_in),
                    w: layer.w.as_mut_slice(),
                    wt: wt[li].as_mut_slice(),
                    n_in,
                    n_out,
                };
                gemm::tn_fused(
                    delta.as_slice(),
                    input.as_slice(),
                    dw.as_mut_slice(),
                    rows,
                    n_out,
                    n_in,
                    &mut epi,
                );
            }
            step.update_slice_at(offset + n_out * n_in, &mut self.layers[li].b, db);
            if li > 0 {
                std::mem::swap(delta, delta_prev);
            }
        }
    }

    /// Layer sizes (input, hidden..., output) — the shape [`Mlp::new`] takes.
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(self.layers.len() + 1);
        sizes.push(self.input_dim());
        sizes.extend(self.layers.iter().map(|l| l.b.len()));
        sizes
    }

    /// Flattens every parameter (per layer: weights row-major, then biases)
    /// — the moment-slot order of the optimizer.
    pub fn flatten_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.w.as_slice());
            out.extend_from_slice(&layer.b);
        }
        out
    }

    /// Rebuilds a network from [`Mlp::layer_sizes`], a dropout rate, and
    /// [`Mlp::flatten_params`] output. Returns `None` when the shape and the
    /// parameter count disagree (e.g. a corrupted snapshot) instead of
    /// panicking.
    pub fn from_flat(sizes: &[usize], dropout: f64, params: &[f64]) -> Option<Mlp> {
        if sizes.len() < 2 {
            return None;
        }
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        let mut cursor = params;
        for i in 0..sizes.len() - 1 {
            let (fan_in, fan_out) = (sizes[i], sizes[i + 1]);
            let n_w = fan_in.checked_mul(fan_out)?;
            if cursor.len() < n_w.checked_add(fan_out)? {
                return None;
            }
            let (w, rest) = cursor.split_at(n_w);
            let (b, rest) = rest.split_at(fan_out);
            cursor = rest;
            layers.push(Dense {
                w: Matrix::from_vec(fan_out, fan_in, w.to_vec()),
                b: b.to_vec(),
                relu: i + 2 < sizes.len(),
            });
        }
        if !cursor.is_empty() {
            return None;
        }
        Some(Mlp { layers, dropout })
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.as_slice().len() + l.b.len())
            .sum()
    }
}

/// Backward ReLU/dropout epilogue for [`Mlp::backward_adam_into`]: applies
/// the layer-below mask multiply and ReLU zeroing to each backpropagated
/// delta element as it stores — the same two per-element ops, in the same
/// order, as the historical separate pass over `delta`.
struct ReluMaskEpilogue<'a> {
    /// Scaled keep-mask of the layer below (row-major `m×n`), if dropout.
    mask: Option<&'a [f64]>,
    /// Post-activation output of the layer below (row-major `m×n`).
    out: &'a [f64],
    n: usize,
}

impl Epilogue for ReluMaskEpilogue<'_> {
    #[inline(always)]
    fn apply(&mut self, i: usize, j: usize, s: f64) -> f64 {
        let idx = i * self.n + j;
        let mut v = s;
        if let Some(mask) = self.mask {
            v *= mask[idx];
        }
        if self.out[idx] <= 0.0 {
            v = 0.0;
        }
        v
    }

    #[inline(always)]
    fn apply_row(&mut self, i: usize, j: usize, vals: &mut [f64]) {
        // Per-element identical to `apply` over the run (mask multiply and
        // ReLU zeroing are independent per element), split into two slice
        // passes so each vectorizes.
        let idx0 = i * self.n + j;
        let len = vals.len();
        if let Some(mask) = self.mask {
            for (v, &m) in vals.iter_mut().zip(&mask[idx0..idx0 + len]) {
                *v *= m;
            }
        }
        for (v, &o) in vals.iter_mut().zip(&self.out[idx0..idx0 + len]) {
            if o <= 0.0 {
                *v = 0.0;
            }
        }
    }
}

/// Weight-update epilogue for [`Mlp::backward_adam_into`]: as each element
/// of a layer's `dW` completes its strict-order chain, run that
/// parameter's Adam update (fixed moment slot = its `flatten_params`
/// index) and mirror the new weight into the `Wᵀ` shadow. Stores the
/// untouched gradient, so [`TrainScratch::grads`] stays valid.
struct AdamWEpilogue<'a> {
    lane: AdamLane<'a>,
    /// The layer's weights, row-major (out × in).
    w: &'a mut [f64],
    /// The layer's transposed-weight shadow, row-major (in × out).
    wt: &'a mut [f64],
    n_in: usize,
    n_out: usize,
}

impl Epilogue for AdamWEpilogue<'_> {
    #[inline(always)]
    fn apply(&mut self, i: usize, j: usize, s: f64) -> f64 {
        let idx = i * self.n_in + j;
        let p = &mut self.w[idx];
        self.lane.update(idx, p, s);
        self.wt[j * self.n_out + i] = *p;
        s
    }

    // `inline(never)`: inlined into the GEMM tile loop this body loses its
    // slices' noalias guarantees and the `update_run` divide chain
    // scalarizes (~2× the whole kernel's cost); as an out-of-line call the
    // argument attributes survive and the run vectorizes.
    #[inline(never)]
    fn apply_row(&mut self, i: usize, j: usize, vals: &mut [f64]) {
        // A tile row of `dW` is a contiguous parameter run (`dW` and `W`
        // share row-major out×in layout), so the whole run updates through
        // one vectorizable `update_run` pass instead of per-element scalar
        // divides; per-element identical to `apply`. `vals` (the stored
        // gradients) are left untouched.
        let idx0 = i * self.n_in + j;
        let w = &mut self.w[idx0..idx0 + vals.len()];
        self.lane.update_run(idx0, w, vals);
        for (jj, &wv) in w.iter().enumerate() {
            self.wt[(j + jj) * self.n_out + i] = wv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    #[test]
    fn shapes_and_param_count() {
        let net = Mlp::new(&[5, 100, 100, 50, 1], 0.1, &mut rng());
        assert_eq!(net.input_dim(), 5);
        assert_eq!(net.output_dim(), 1);
        let expected = 5 * 100 + 100 + 100 * 100 + 100 + 100 * 50 + 50 + 50 + 1;
        assert_eq!(net.param_count(), expected);
    }

    #[test]
    fn forward_is_deterministic() {
        let net = Mlp::new(&[3, 8, 2], 0.5, &mut rng());
        let a = net.forward(&[0.1, -0.2, 0.3]);
        let b = net.forward(&[0.1, -0.2, 0.3]);
        assert_eq!(a, b, "inference ignores dropout randomness");
    }

    #[test]
    fn relu_only_on_hidden_layers() {
        // Output can be negative (regression head).
        let mut found_negative = false;
        let mut r = rng();
        for _ in 0..20 {
            let net = Mlp::new(&[2, 4, 1], 0.0, &mut r);
            if net.forward(&[1.0, -1.0])[0] < 0.0 {
                found_negative = true;
            }
        }
        assert!(found_negative, "regression head must be unbounded");
    }

    /// The split reference the fused step is pinned against: a plain
    /// backward pass through the forward cached in `scratch`, leaving
    /// per-layer gradients (aligned with [`Mlp::flatten_params`]) in
    /// `scratch.grads` and touching no parameter.
    fn backward_into(net: &Mlp, dl_dout: &Matrix, scratch: &mut TrainScratch) {
        let TrainScratch {
            activations,
            masks,
            delta,
            delta_prev,
            grads,
            ..
        } = scratch;
        grads.resize_with(net.layers.len(), || (Matrix::zeros(0, 0), Vec::new()));
        delta.copy_from(dl_dout);
        for (li, layer) in net.layers.iter().enumerate().rev() {
            // Through dropout mask and ReLU of this layer's output.
            if layer.relu {
                let out = &activations[li + 1];
                if let Some(mask) = &masks[li] {
                    for (d, m) in delta.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                        *d *= m;
                    }
                }
                for (d, &o) in delta.as_mut_slice().iter_mut().zip(out.as_slice()) {
                    if o <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            let (dw, db) = &mut grads[li];
            // dW (out × in) = deltaᵀ × input
            delta.t_matmul_into(&activations[li], dw);
            db.clear();
            db.resize(layer.b.len(), 0.0);
            for r in 0..delta.rows() {
                for (o, dbo) in db.iter_mut().enumerate() {
                    *dbo += delta.get(r, o);
                }
            }
            // delta for previous layer = delta × W
            if li > 0 {
                delta.matmul_into(&layer.w, delta_prev);
                std::mem::swap(delta, delta_prev);
            }
        }
    }

    #[test]
    fn gradient_check_numeric() {
        // Finite-difference check of the backward pass on a tiny net
        // without dropout: the training forward's diff seeds the MSE delta.
        let sizes = [2, 3, 1];
        let net = Mlp::new(&sizes, 0.0, &mut rng());
        let x = Matrix::from_vec(1, 2, vec![0.7, -0.4]);
        let target = 0.3;
        let loss = |params: &[f64]| {
            let net = Mlp::from_flat(&sizes, 0.0, params).expect("same shape");
            let y = net.forward(&[0.7, -0.4])[0];
            (y - target) * (y - target)
        };
        let mut scratch = TrainScratch::new();
        let y = Matrix::from_vec(1, 1, vec![target]);
        net.forward_train_diff_into(&x, &y, &mut rng(), &mut scratch);
        let dl = Matrix::from_vec(1, 1, vec![2.0 * scratch.output().get(0, 0)]);
        backward_into(&net, &dl, &mut scratch);

        // Collect analytic grads in parameter order, then compare to numeric.
        let mut analytic = Vec::new();
        for (dw, db) in &scratch.grads {
            analytic.extend_from_slice(dw.as_slice());
            analytic.extend_from_slice(db);
        }
        let params = net.flatten_params();
        assert_eq!(analytic.len(), params.len());
        let eps = 1e-6;
        let mut max_err: f64 = 0.0;
        for (idx, &analytic_grad) in analytic.iter().enumerate() {
            let mut p = params.clone();
            p[idx] += eps;
            let lp = loss(&p);
            p[idx] -= 2.0 * eps;
            let lm = loss(&p);
            let numeric = (lp - lm) / (2.0 * eps);
            max_err = max_err.max((numeric - analytic_grad).abs());
        }
        assert!(max_err < 1e-4, "max gradient error {max_err}");
    }

    #[test]
    fn dropout_zeroes_some_activations_in_training() {
        let net = Mlp::new(&[4, 64, 1], 0.5, &mut rng());
        let x = Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let y = Matrix::from_vec(1, 1, vec![0.0]);
        let mut scratch = TrainScratch::new();
        net.forward_train_diff_into(&x, &y, &mut rng(), &mut scratch);
        let mask = scratch.masks[0].as_ref().expect("hidden dropout mask");
        let zeros = mask.as_slice().iter().filter(|&&m| m == 0.0).count();
        assert!(zeros > 10, "dropout disabled? zeros = {zeros}");
        // A dropped unit is exactly zero in the cached activation.
        for (&m, &a) in mask
            .as_slice()
            .iter()
            .zip(scratch.activations[1].as_slice())
        {
            if m == 0.0 {
                assert_eq!(a, 0.0);
            }
        }
    }

    #[test]
    fn paper_architecture_shape() {
        let net = Mlp::paper_architecture(5, &mut rng());
        assert_eq!(net.input_dim(), 5);
        assert_eq!(net.output_dim(), 1);
        assert_eq!(net.dropout, 0.1);
    }

    #[test]
    fn fused_backward_adam_matches_split_reference() {
        use crate::optim::Adam;
        // Several full optimization steps through the fused path (epilogue
        // Adam in tile order, persistent Wᵀ shadow) must leave parameters,
        // gradients, and optimizer state bit-identical to the split
        // reference: backward_into + cursor-order update_slice.
        let mut r = rng();
        let sizes = [5, 13, 7, 2];
        let mut net_split = Mlp::new(&sizes, 0.25, &mut r);
        let mut net_fused = net_split.clone();
        let mut adam_split = Adam::new(net_split.param_count(), 1e-3);
        let mut adam_fused = Adam::new(net_fused.param_count(), 1e-3);
        let mut scratch_split = TrainScratch::new();
        let mut scratch_fused = TrainScratch::new();
        // Two RNGs with identical streams so both paths draw the same
        // dropout masks.
        let mut rng_split = rand::rngs::StdRng::seed_from_u64(99);
        let mut rng_fused = rand::rngs::StdRng::seed_from_u64(99);
        for step_i in 0..5 {
            // Ragged batch sizes exercise remainder tiles.
            let rows = [16, 7, 1, 13, 4][step_i];
            let mut x = Matrix::zeros(rows, 5);
            for v in x.as_mut_slice() {
                *v = simrng::normal(&mut r, 0.0, 1.5);
            }
            let mut y = Matrix::zeros(rows, 2);
            for v in y.as_mut_slice() {
                *v = simrng::normal(&mut r, 0.0, 1.0);
            }
            let n = (rows * 2) as f64;

            net_split.forward_train_diff_into(&x, &y, &mut rng_split, &mut scratch_split);
            let mut dl = Matrix::zeros(rows, 2);
            for rr in 0..rows {
                for cc in 0..2 {
                    dl.set(rr, cc, 2.0 * scratch_split.output().get(rr, cc) / n);
                }
            }
            backward_into(&net_split, &dl, &mut scratch_split);
            let mut step = adam_split.step();
            for (layer, (dw, db)) in net_split.layers.iter_mut().zip(&scratch_split.grads) {
                step.update_slice(layer.w.as_mut_slice(), dw.as_slice());
                step.update_slice(&mut layer.b, db);
            }

            net_fused.forward_train_diff_into(&x, &y, &mut rng_fused, &mut scratch_fused);
            let mut dl2 = Matrix::zeros(rows, 2);
            for rr in 0..rows {
                for cc in 0..2 {
                    dl2.set(rr, cc, 2.0 * scratch_fused.output().get(rr, cc) / n);
                }
            }
            let mut step = adam_fused.step();
            net_fused.backward_adam_into(&dl2, &mut scratch_fused, &mut step);

            let (ps, pf) = (net_split.flatten_params(), net_fused.flatten_params());
            for (i, (a, b)) in ps.iter().zip(&pf).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "step {step_i}: param {i} diverged: {a} vs {b}"
                );
            }
            for (li, ((dw_s, db_s), (dw_f, db_f))) in scratch_split
                .grads
                .iter()
                .zip(&scratch_fused.grads)
                .enumerate()
            {
                for (a, b) in dw_s.as_slice().iter().zip(dw_f.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "step {step_i} layer {li} dW");
                }
                for (a, b) in db_s.iter().zip(db_f) {
                    assert_eq!(a.to_bits(), b.to_bits(), "step {step_i} layer {li} db");
                }
            }
        }
        assert_eq!(adam_split, adam_fused, "optimizer state diverged");
        // The Wᵀ shadow must mirror the final weights bit-for-bit.
        let mut t = Matrix::zeros(0, 0);
        for (li, (layer, shadow)) in net_fused.layers.iter().zip(&scratch_fused.wt).enumerate() {
            layer.w.transpose_into(&mut t);
            assert_eq!(
                t.as_slice(),
                shadow.as_slice(),
                "layer {li} Wᵀ shadow went stale"
            );
        }
    }
}
