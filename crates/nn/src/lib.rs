//! A from-scratch multilayer-perceptron (MLP) library.
//!
//! This crate implements exactly the machinery the paper's methodology
//! needs — no more, no less:
//!
//! - [`Activation`] — the slope-parameterized logistic function of the
//!   paper's Figure 2 plus the usual alternatives.
//! - [`Mlp`] / [`MlpBuilder`] — dense feed-forward networks with
//!   Xavier-uniform random initial weights and back-propagation
//!   ([`Mlp::batch_gradient_with`]).
//! - [`Loss`] — mean-squared error, the paper's ‖Ŷ − Y‖ criterion and
//!   the one training loss.
//! - [`optimizer`] — plain gradient descent (the paper's method) plus
//!   momentum and Adam.
//! - [`Trainer`] — full-batch or shuffled mini-batch training at a
//!   constant learning rate, with the paper's *termination threshold*
//!   (deliberate loose fitting, §3.3).
//! - [`LogarithmicNetwork`] — the unbounded-approximation variant the
//!   paper cites (ref \[23\]) when discussing the extrapolation limitation.
//! - [`RbfNetwork`] — the radial-basis-function family §2.1 names as the
//!   other common function approximator (k-means centers + ridge output).
//! - [`gradcheck`] — finite-difference gradient verification.
//! - [`Workspace`] — reusable scratch buffers making batched training
//!   and inference allocation-free ([`Mlp::batch_gradient_with`],
//!   [`Mlp::forward_batch_with`]). This is the one gradient
//!   implementation, and every GEMM in it, the one-row
//!   [`Mlp::forward`] included, runs through the one
//!   `wlc_math::gemm` kernel, along the band's rows.
//! - [`oracle`] — the naive per-sample reference (a dot product per
//!   neuron, never a GEMM kernel), bit-identical to the production path,
//!   that only tests and `wlc bench` call.
//! - [`BandEngine`] — the batched entry points with their row bands
//!   fanned out over a persistent `wlc_exec::BandPool` worker team,
//!   bit-identical for any worker count.
//!
//! # Examples
//!
//! Fit y = x² on a few points:
//!
//! ```
//! use wlc_math::Matrix;
//! use wlc_nn::{Activation, MlpBuilder, TrainConfig, Trainer};
//!
//! let xs = Matrix::from_rows(&[&[-1.0], &[-0.5], &[0.0], &[0.5], &[1.0]]).unwrap();
//! let ys = Matrix::from_rows(&[&[1.0], &[0.25], &[0.0], &[0.25], &[1.0]]).unwrap();
//!
//! let mut mlp = MlpBuilder::new(1)
//!     .hidden(8, Activation::tanh())
//!     .output(1, Activation::identity())
//!     .seed(7)
//!     .build()
//!     .unwrap();
//!
//! let config = TrainConfig::new().max_epochs(2000).learning_rate(0.05);
//! let report = Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
//! assert!(report.final_train_loss < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod checkpoint;
mod engine;
mod error;
pub mod gradcheck;
mod layer;
mod lognet;
mod loss;
mod mlp;
pub mod optimizer;
pub mod oracle;
mod rbf;
mod serialize;
mod train;
mod workspace;

pub use activation::Activation;
pub use checkpoint::Checkpoint;
pub use engine::BandEngine;
pub use error::NnError;
pub use layer::DenseLayer;
pub use lognet::LogarithmicNetwork;
pub use loss::Loss;
pub use mlp::{Mlp, MlpBuilder};
pub use optimizer::{Optimizer, OptimizerKind};
pub use rbf::RbfNetwork;
pub use train::{StopReason, TrainConfig, TrainReport, Trainer};
pub use workspace::{Workspace, BAND_ROWS};
