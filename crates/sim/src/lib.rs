//! A discrete-event simulator of the paper's 3-tier web-service workload.
//!
//! The original study ran a commercial Java application server on a
//! 4-socket Xeon box (paper Table 1) driving "transactions among a
//! manufacturing company, its clients and suppliers". That testbed is not
//! reproducible, so this crate simulates the same *structure*:
//!
//! - an open-loop **driver** injecting requests at a configurable rate
//!   (the paper's `injection rate` input parameter),
//! - a middle tier with **three thread-pool work queues** — `mfg`, `web`
//!   and `default` — whose thread counts are the other three input
//!   parameters, contending for a finite number of cores,
//! - a **database** tier with a connection pool that is deliberately not
//!   CPU-bound (as in the paper),
//! - four transaction classes with response-time constraints —
//!   *manufacturing*, *dealer purchase*, *dealer manage*, *dealer browse
//!   autos* — and **effective throughput** counting only transactions that
//!   finish within their constraint.
//!
//! The simulator's contention model (queueing delay when pools are
//! undersized; context-switch/lock/memory overhead when they are
//! oversized) is what makes the configuration→performance mapping
//! non-linear, reproducing the *parallel slopes*, *valley* and *hill*
//! surface shapes of the paper's Figures 4, 7 and 8.
//!
//! # Examples
//!
//! ```
//! use wlc_sim::{ServerConfig, Simulation, TransactionKind};
//!
//! let config = ServerConfig::builder()
//!     .injection_rate(300.0)
//!     .default_threads(10)
//!     .mfg_threads(16)
//!     .web_threads(12)
//!     .build()?;
//! let m = Simulation::new(config)
//!     .seed(42)
//!     .duration_secs(5.0)
//!     .warmup_secs(1.0)
//!     .run()?;
//! assert!(m.throughput() > 0.0);
//! assert!(m.mean_response_time(TransactionKind::Manufacturing) > 0.0);
//! # Ok::<(), wlc_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod config;
mod db;
mod des;
mod drift;
mod engine;
mod error;
mod fault;
mod metrics;
mod runner;
mod threadpool;
mod transaction;

pub use config::{
    ArrivalProcess, DbModel, HardwareModel, ServerConfig, ServerConfigBuilder, WorkloadSpec,
};
pub use des::SimTime;
pub use drift::{stream_window, DriftKind, DriftProfile, StreamConfig};
pub use error::SimError;
pub use fault::{run_design_faulty, run_design_faulty_jobs, FaultKind, FaultProfile, FaultSummary};
pub use metrics::{Measurement, PoolUtilization};
pub use runner::{
    run_design, run_design_jobs, run_design_replicated, run_design_replicated_jobs, simulate,
    Simulation, INPUT_NAMES, OUTPUT_NAMES,
};
pub use transaction::{DomainQueue, StageDemands, TransactionClass, TransactionKind};
