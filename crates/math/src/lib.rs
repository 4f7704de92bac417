//! Math substrate for the workload-characterization workspace.
//!
//! This crate provides everything the higher layers need from numerical
//! computing, implemented from scratch so that the whole reproduction is
//! dependency-free and bit-reproducible:
//!
//! - [`Matrix`] — a dense, row-major matrix with the usual arithmetic.
//! - [`gemm`] — allocation-free, cache-blocked matrix-multiply kernels
//!   with a fixed accumulation order (the batched-training hot path).
//! - [`linalg`] — linear solvers (Gaussian elimination, Cholesky) and
//!   least-squares fitting used by the linear baseline models.
//! - [`rng`] — seeded, splittable pseudo-random number generators
//!   ([`rng::Xoshiro256`]) with uniform/exponential sampling.
//! - [`distributions`] — service-time distributions for the simulator.
//! - [`stats`] — descriptive statistics including the paper's
//!   harmonic-mean error metric and an online (Welford) accumulator.
//! - [`quantile`] — the P² streaming quantile estimator used for
//!   percentile response times.
//! - [`propcheck`] — a tiny seeded property-testing harness, so the test
//!   suites need no external dependencies.
//! - [`elementary`] — `exp`, an integer power and the signed-log pair,
//!   built from basic arithmetic in one fixed order, so their bits do
//!   not depend on the host's libm.
//! - [`float_text`] — the writer for every serialized `f64`: the
//!   shortest round-trip digits (Ryū), byte for byte what `{:?}` prints,
//!   with no allocation and no start-up work; and the reader for every
//!   one read back, which returns what `str::parse::<f64>` returns
//!   (Clinger and Eisel–Lemire, with std for the rare rest).
//!
//! # Examples
//!
//! ```
//! use wlc_math::{Matrix, rng::Xoshiro256, stats};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
//! let b = a.transpose();
//! assert_eq!(b.get(0, 1), 3.0);
//!
//! let mut rng = Xoshiro256::seed_from(42);
//! let x: f64 = rng.next_f64();
//! assert!((0.0..1.0).contains(&x));
//!
//! assert_eq!(stats::mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributions;
pub mod elementary;
mod error;
pub mod float_text;
pub mod gemm;
pub mod linalg;
mod matrix;
pub mod propcheck;
pub mod quantile;
pub mod rng;
pub mod stats;

pub use error::MathError;
pub use matrix::Matrix;
