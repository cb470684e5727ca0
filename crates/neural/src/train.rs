//! Datasets, normalization, and the training loop.

use crate::infer::InferenceMlp;
use crate::matrix::Matrix;
use crate::mlp::{Mlp, TrainScratch};
use crate::optim::Adam;
use rand::seq::SliceRandom;
use rand::Rng;

/// A supervised regression dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Input feature rows.
    pub inputs: Vec<Vec<f64>>,
    /// Target rows (usually length-1 for scalar regression).
    pub targets: Vec<Vec<f64>>,
}

impl Dataset {
    /// Builds a dataset from (input, target) rows.
    pub fn from_rows<I: IntoIterator<Item = (Vec<f64>, Vec<f64>)>>(rows: I) -> Self {
        let mut d = Dataset::default();
        for (x, y) in rows {
            d.push(x, y);
        }
        d
    }

    /// Appends one example.
    pub fn push(&mut self, input: Vec<f64>, target: Vec<f64>) {
        self.inputs.push(input);
        self.targets.push(target);
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Splits into (train, validation) with `train_fraction` of the examples
    /// in the training set, shuffled with `rng`. The paper uses 60/40.
    ///
    /// Allocating convenience wrapper around [`Dataset::split_owned`] (same
    /// RNG draws, same partition).
    pub fn split<R: Rng + ?Sized>(&self, train_fraction: f64, rng: &mut R) -> (Dataset, Dataset) {
        self.clone().split_owned(train_fraction, rng)
    }

    /// Consuming split: **moves** each example row into its destination set
    /// instead of cloning it, so splitting a dataset the caller no longer
    /// needs performs no per-row allocation. Identical partition and RNG
    /// draws as [`Dataset::split`].
    pub fn split_owned<R: Rng + ?Sized>(
        mut self,
        train_fraction: f64,
        rng: &mut R,
    ) -> (Dataset, Dataset) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        let n_train = ((self.len() as f64) * train_fraction).round() as usize;
        let cap_train = n_train.min(self.len());
        let mut train = Dataset {
            inputs: Vec::with_capacity(cap_train),
            targets: Vec::with_capacity(cap_train),
        };
        let mut val = Dataset {
            inputs: Vec::with_capacity(self.len() - cap_train),
            targets: Vec::with_capacity(self.len() - cap_train),
        };
        for (i, &idx) in order.iter().enumerate() {
            let dst = if i < n_train { &mut train } else { &mut val };
            dst.push(
                std::mem::take(&mut self.inputs[idx]),
                std::mem::take(&mut self.targets[idx]),
            );
        }
        (train, val)
    }
}

/// Per-feature affine normalizer (z-scoring) fitted on the training inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    /// Feature means.
    pub mean: Vec<f64>,
    /// Feature standard deviations (≥ 1e-9).
    pub std: Vec<f64>,
}

impl Normalizer {
    /// Fits a normalizer to the dataset inputs.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn fit(data: &Dataset) -> Self {
        assert!(
            !data.is_empty(),
            "cannot fit a normalizer to an empty dataset"
        );
        let dim = data.inputs[0].len();
        let n = data.len() as f64;
        let mut mean = vec![0.0; dim];
        for row in &data.inputs {
            for (m, x) in mean.iter_mut().zip(row) {
                *m += x / n;
            }
        }
        let mut std = vec![0.0; dim];
        for row in &data.inputs {
            for ((s, x), m) in std.iter_mut().zip(row).zip(&mean) {
                *s += (x - m) * (x - m) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-9);
        }
        Normalizer { mean, std }
    }

    /// Normalizes one input row.
    pub fn apply(&self, input: &[f64]) -> Vec<f64> {
        let mut out = input.to_vec();
        self.apply_in_place(&mut out);
        out
    }

    /// Normalizes one input row in place (same bits as
    /// [`Normalizer::apply`], no allocation).
    pub fn apply_in_place(&self, row: &mut [f64]) {
        for ((x, m), s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
            *x = (*x - m) / s;
        }
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch_size: 32,
            learning_rate: 1e-3,
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Mean squared error on the training set after the final epoch.
    pub final_train_loss: f64,
    /// Number of examples trained on.
    pub examples: usize,
    /// Epochs executed.
    pub epochs: usize,
}

/// Trains `net` on `data` with minibatch Adam under the MSE objective
/// (Eq. 3 of the paper) and returns a report.
///
/// With `epochs == 0` no optimization step is taken and the report is still
/// well-defined: `final_train_loss` is the network's *current* MSE over
/// `data` (one dropout-free evaluation pass via [`mse`]), never the
/// `INFINITY` sentinel the loss accumulator starts from.
pub fn train<R: Rng + ?Sized>(
    net: &mut Mlp,
    data: &Dataset,
    config: &TrainConfig,
    rng: &mut R,
) -> TrainReport {
    assert!(!data.is_empty(), "empty training set");
    if config.epochs == 0 {
        return TrainReport {
            final_train_loss: mse(net, data),
            examples: data.len(),
            epochs: 0,
        };
    }
    let mut adam = Adam::new(net.param_count(), config.learning_rate);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut last_loss = f64::INFINITY;
    let in_dim = net.input_dim();
    let out_dim = net.output_dim();
    // All minibatch staging and backprop buffers live outside the epoch loop:
    // steady-state training performs no heap allocation.
    let mut x = Matrix::zeros(0, 0);
    let mut y = Matrix::zeros(0, 0);
    let mut dl = Matrix::zeros(0, 0);
    let mut scratch = TrainScratch::new();
    for _ in 0..config.epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0;
        for chunk in order.chunks(config.batch_size.max(1)) {
            let rows = chunk.len();
            x.gather_rows(in_dim, &data.inputs, chunk);
            y.gather_rows(out_dim, &data.targets, chunk);
            // Fused forward: the output layer's epilogue already subtracted
            // the targets, so the last activation holds diff = ŷ − y.
            net.forward_train_diff_into(&x, &y, rng, &mut scratch);
            // MSE: L = mean‖y − ŷ‖²; dL/dŷ = 2(ŷ − y)/n. The loss sum stays
            // a row-major pass out here — folding it into the (tile-ordered)
            // epilogue would reassociate the epoch-loss accumulation.
            let n = (rows * out_dim) as f64;
            dl.reshape(rows, out_dim);
            let diff = scratch.output();
            for r in 0..rows {
                for c in 0..out_dim {
                    let d = diff.get(r, c);
                    epoch_loss += d * d / data.len() as f64;
                    dl.set(r, c, 2.0 * d / n);
                }
            }
            // Fused backward + optimizer: the gradients, the ReLU/dropout
            // backward, the Adam update, and the Wᵀ-shadow refresh all ride
            // the backward GEMMs' epilogues — bit-identical to the split
            // backward-then-cursor-order-Adam reference (see
            // `Mlp::backward_adam_into`).
            let mut step = adam.step();
            net.backward_adam_into(&dl, &mut scratch, &mut step);
        }
        last_loss = epoch_loss;
    }
    TrainReport {
        final_train_loss: last_loss,
        examples: data.len(),
        epochs: config.epochs,
    }
}

/// Mean squared error of `net` over a dataset (validation metric).
///
/// Runs every row through the inference kernel
/// ([`crate::infer::InferenceMlp`]), whose answers are pinned bit-identical
/// to [`Mlp::forward`]; the per-row squared-error sums and the cross-row
/// total accumulate in the same order as the historical per-row loop.
pub fn mse(net: &Mlp, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let inference = InferenceMlp::new(net);
    let mut out = vec![0.0; net.output_dim()];
    let mut total = 0.0;
    for (x, y) in data.inputs.iter().zip(&data.targets) {
        inference.forward_into(x, &mut out);
        total += out
            .iter()
            .zip(y)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>();
    }
    total / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn learns_linear_function() {
        let mut r = rng();
        let data = Dataset::from_rows((0..128).map(|i| {
            let x = i as f64 / 128.0;
            (vec![x], vec![3.0 * x - 1.0])
        }));
        let mut net = Mlp::new(&[1, 16, 1], 0.0, &mut r);
        let report = train(
            &mut net,
            &data,
            &TrainConfig {
                epochs: 600,
                batch_size: 32,
                learning_rate: 3e-3,
            },
            &mut r,
        );
        assert!(
            report.final_train_loss < 5e-3,
            "loss {}",
            report.final_train_loss
        );
        let y = net.forward(&[0.5])[0];
        assert!((y - 0.5).abs() < 0.15, "f(0.5) = {y}");
    }

    #[test]
    fn learns_nonlinear_function_with_dropout() {
        let mut r = rng();
        let data = Dataset::from_rows((0..256).map(|i| {
            let x = i as f64 / 256.0 * 2.0 - 1.0;
            (vec![x], vec![x * x])
        }));
        let mut net = Mlp::new(&[1, 32, 32, 1], 0.05, &mut r);
        train(
            &mut net,
            &data,
            &TrainConfig {
                epochs: 400,
                batch_size: 32,
                learning_rate: 2e-3,
            },
            &mut r,
        );
        let err = mse(&net, &data);
        assert!(err < 0.01, "val mse {err}");
    }

    #[test]
    fn split_partitions_all_examples() {
        let data = Dataset::from_rows((0..100).map(|i| (vec![i as f64], vec![0.0])));
        let (train_set, val) = data.split(0.6, &mut rng());
        assert_eq!(train_set.len(), 60);
        assert_eq!(val.len(), 40);
        let mut all: Vec<i64> = train_set
            .inputs
            .iter()
            .chain(val.inputs.iter())
            .map(|r| r[0] as i64)
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<i64>>());
    }

    #[test]
    fn split_owned_matches_split() {
        let data = Dataset::from_rows(
            (0..53).map(|i| (vec![i as f64, -(i as f64)], vec![i as f64 * 0.5])),
        );
        let (t1, v1) = data.split(0.6, &mut rng());
        let (t2, v2) = data.clone().split_owned(0.6, &mut rng());
        assert_eq!(t1.inputs, t2.inputs, "same partition, same order");
        assert_eq!(t1.targets, t2.targets);
        assert_eq!(v1.inputs, v2.inputs);
        assert_eq!(v1.targets, v2.targets);
    }

    #[test]
    fn mse_matches_per_row_forward_reference() {
        // The kernel route must reproduce the historical per-row loop to
        // the bit (kernel rows are pinned equal to forward; the sum orders
        // are unchanged).
        let mut r = rng();
        let net = Mlp::new(&[3, 17, 2], 0.1, &mut r);
        let data = Dataset::from_rows((0..29).map(|i| {
            let x = i as f64 / 29.0;
            (vec![x, -x, x * x], vec![x, 1.0 - x])
        }));
        let mut reference = 0.0;
        for (x, y) in data.inputs.iter().zip(&data.targets) {
            let out = net.forward(x);
            reference += out
                .iter()
                .zip(y)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        reference /= data.len() as f64;
        assert_eq!(mse(&net, &data).to_bits(), reference.to_bits());
    }

    #[test]
    fn normalizer_zscores() {
        let data = Dataset::from_rows(vec![
            (vec![0.0, 10.0], vec![0.0]),
            (vec![2.0, 30.0], vec![0.0]),
        ]);
        let norm = Normalizer::fit(&data);
        assert_eq!(norm.mean, vec![1.0, 20.0]);
        let z = norm.apply(&[1.0, 20.0]);
        assert!(z.iter().all(|v| v.abs() < 1e-9));
        let z2 = norm.apply(&[2.0, 30.0]);
        assert!((z2[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_epochs_reports_current_mse_and_trains_nothing() {
        let mut r = rng();
        let data = Dataset::from_rows((0..16).map(|i| (vec![i as f64 / 16.0], vec![1.0])));
        let mut net = Mlp::new(&[1, 8, 1], 0.1, &mut r);
        let params_before = net.flatten_params();
        let report = train(
            &mut net,
            &data,
            &TrainConfig {
                epochs: 0,
                ..Default::default()
            },
            &mut r,
        );
        assert_eq!(report.epochs, 0);
        assert_eq!(report.examples, 16);
        assert!(
            report.final_train_loss.is_finite(),
            "zero-epoch loss must be well-defined, got {}",
            report.final_train_loss
        );
        assert_eq!(report.final_train_loss, mse(&net, &data));
        assert_eq!(net.flatten_params(), params_before, "no step may be taken");
    }

    #[test]
    fn mse_of_empty_dataset_is_zero() {
        let net = Mlp::new(&[1, 2, 1], 0.0, &mut rng());
        assert_eq!(mse(&net, &Dataset::default()), 0.0);
    }
}
