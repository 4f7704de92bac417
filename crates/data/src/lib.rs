//! Datasets, preprocessing, validation splits, error metrics and
//! experiment designs for workload characterization.
//!
//! This crate owns the paper's data pipeline (§3.1, §3.3):
//!
//! - [`Dataset`] — collections of `(X, Y)` samples with named columns,
//!   plus CSV import/export.
//! - [`Scaler`] — feature **standardization** (zero mean, unit variance),
//!   which §3.1 identifies as "crucial to avoid the possibility of MLPs
//!   ending up in a local minimum".
//! - [`KFold`] — the k-fold cross-validation protocol of §3.3.
//! - [`metrics`] — the harmonic-mean relative-error metric and friends.
//! - [`design`] — configuration-space experiment designs (full factorial,
//!   Latin hypercube).
//!
//! # Examples
//!
//! ```
//! use wlc_data::{Dataset, Sample, Scaler};
//!
//! let mut ds = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
//! ds.push(Sample::new(vec![1.0], vec![2.0])).unwrap();
//! ds.push(Sample::new(vec![3.0], vec![6.0])).unwrap();
//!
//! let (xs, _ys) = ds.to_matrices();
//! let scaler = Scaler::standard_fit(&xs).unwrap();
//! let scaled = scaler.transform(&xs).unwrap();
//! // Standardized: mean 0, stdev 1.
//! assert!((scaled.get(0, 0) + 1.0).abs() < 1e-12);
//! assert!((scaled.get(1, 0) - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
pub mod design;
mod error;
pub mod metrics;
mod scale;
mod split;
mod validate;

pub use dataset::{ColumnSummary, Dataset, Sample};
pub use error::DataError;
pub use scale::Scaler;
pub use split::{train_test_split, KFold};
pub use validate::{RowIssue, ValidateMode, ValidationReport};
