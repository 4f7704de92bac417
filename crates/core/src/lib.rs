//! Non-linear workload characterization with neural networks — the core
//! library of the IISWC 2006 reproduction.
//!
//! The paper's thesis: the mapping from workload *configuration
//! parameters* to *performance indicators* is non-linear, so characterize
//! it with a multilayer-perceptron model instead of the linear models of
//! prior work. This crate packages that methodology end to end:
//!
//! - [`WorkloadModel`] — standardization + MLP + inverse transform, built
//!   with [`WorkloadModelBuilder`] (§3.1–§3.2).
//! - [`CrossValidator`] — the 5-fold cross-validation protocol and the
//!   harmonic-mean error metric behind the paper's Table 2 (§3.3).
//! - [`baseline`] — the linear/polynomial/logarithmic comparators
//!   ([`baseline::LinearModel`] is the prior-work approach, §6).
//! - [`ResponseSurface`] / [`classify`] — the 3-D prediction diagrams and
//!   the *parallel slopes* / *valley* / *hill* taxonomy of §5.
//! - [`TuningAdvisor`] — configuration recommendation by model
//!   prediction under response-time constraints (§5.3's scoring function).
//!
//! # Examples
//!
//! Train a model on simulated data and predict an unseen configuration:
//!
//! ```
//! use wlc_model::{PerformanceModel, WorkloadModelBuilder};
//! use wlc_sim::{run_design, ServerConfig};
//!
//! // Collect a small training set from the simulator.
//! let configs: Vec<ServerConfig> = [4u32, 8, 12]
//!     .iter()
//!     .flat_map(|&d| {
//!         [6u32, 10].iter().map(move |&w| {
//!             ServerConfig::builder()
//!                 .injection_rate(200.0)
//!                 .default_threads(d)
//!                 .mfg_threads(8)
//!                 .web_threads(w)
//!                 .build()
//!                 .unwrap()
//!         })
//!     })
//!     .collect();
//! let dataset = run_design(&configs, 7, 3.0, 0.5)?;
//!
//! let outcome = WorkloadModelBuilder::new()
//!     .hidden_layer(8)
//!     .max_epochs(300)
//!     .seed(1)
//!     .train(&dataset)?;
//! let prediction = outcome.model.predict(&[200.0, 8.0, 8.0, 8.0])?;
//! assert_eq!(prediction.len(), 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod classify;
mod cv;
mod error;
pub mod fallback;
mod model;
pub mod report;
mod search;
pub mod sensitivity;
mod surface;
mod tuning;

pub use cv::{CrossValidator, CvReport, CvTrial, QuarantinedFold};
pub use error::ModelError;
pub use model::{
    PerformanceModel, PredictScratch, ScalingKind, TrainedModel, WorkloadModel,
    WorkloadModelBuilder,
};
pub use search::{HyperParameterSearch, SearchCandidate, SearchOutcome};
pub use surface::{evaluate_all, ResponseSurface, SurfaceGrid};
pub use tuning::{Recommendation, ScoringFunction, TuningAdvisor};
