//! # av-neural — from-scratch feed-forward neural networks
//!
//! A small, dependency-free MLP implementation sufficient to reproduce the
//! paper's safety hijacker (§IV-B): a fully connected network with 3 hidden
//! layers (100, 100, 50 neurons), ReLU activations, dropout 0.1, trained
//! with Adam on an L2 (MSE) objective with a 60/40 train/validation split.
//!
//! - [`matrix`]: row-major `f64` matrices with the handful of ops backprop
//!   needs.
//! - [`gemm`]: the shared register-blocked GEMM micro-kernel layer every
//!   training product routes through, plus the process-wide
//!   [`gemm::GemmMode`] selecting blocked (default) or the bit-identical
//!   naive reference kernels.
//! - [`mlp`]: the network — He initialization, the reference inference
//!   forward, the one fused training step
//!   ([`Mlp::forward_train_diff_into`] + [`Mlp::backward_adam_into`]),
//!   parameter access.
//! - [`infer`]: the immutable inference form (transposed weights) and the
//!   one register-blocked kernel every dropout-free forward pass runs.
//! - [`optim`]: the Adam optimizer over flat parameter/gradient slices.
//! - [`mod@train`]: datasets, normalization, the training loop, and train/val
//!   splitting.
//!
//! # Example
//!
//! ```
//! use av_neural::mlp::Mlp;
//! use av_neural::train::{train, Dataset, TrainConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! // Learn y = 2x on [0, 1].
//! let data = Dataset::from_rows(
//!     (0..64).map(|i| (vec![i as f64 / 64.0], vec![2.0 * i as f64 / 64.0])),
//! );
//! let mut net = Mlp::new(&[1, 16, 1], 0.0, &mut rng);
//! let report = train(&mut net, &data, &TrainConfig { epochs: 200, ..Default::default() }, &mut rng);
//! assert!(report.final_train_loss < 0.01);
//! ```

#![warn(missing_docs)]

pub mod gemm;
pub mod infer;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod train;

pub use gemm::GemmMode;
pub use infer::InferenceMlp;
pub use matrix::Matrix;
pub use mlp::{Mlp, TrainScratch};
pub use optim::Adam;
pub use train::{train, Dataset, Normalizer, TrainConfig, TrainReport};
