//! Fault-tolerant prediction serving for workload models.
//!
//! The paper's product is a trained model that tuners query
//! interactively; this crate turns that model into a long-running
//! service that stays useful under overload and partial failure,
//! following the workload-characterization theme all the way down: the
//! server itself is a workload whose behaviour under offered load is
//! measured and bounded.
//!
//! Everything is built on the standard library only — a hand-rolled
//! HTTP/1.1 framing layer ([`http`]) and JSON codec ([`Json`]) keep the
//! workspace dependency-free.
//!
//! Robustness mechanisms, each independently testable:
//!
//! - [`Server`] — accept loop dispatching over a fleet of replicas;
//!   when no replica can take a job it is shed with a retriable `503`.
//! - [`Replica`] — one serving unit: its own model slot, breaker,
//!   bounded queue ([`wlc_exec::BoundedQueue`]) and worker threads, so
//!   failure domains are exactly the replicas.
//! - [`Router`] — least-loaded dispatch (round-robin on ties) and
//!   rolling hot reload: drain and swap one replica at a time, so at
//!   most one replica is ever out of rotation during an update.
//! - [`CircuitBreaker`] — consecutive primary-model failures open that
//!   replica's circuit; its requests degrade to the linear baseline
//!   (tagged `degraded`) until a half-open probe succeeds. The
//!   accounting rule is pinned by [`counts_against_breaker`].
//! - [`ModelSlot`] — validated, atomic last-good hot reload; corrupt or
//!   mismatched files never disturb the serving model.
//! - [`ServeClient`] — retry with exponential backoff and seeded
//!   jitter, honouring the server's retriable/non-retriable marking,
//!   over one reused keep-alive connection.
//!
//! # Example
//!
//! ```no_run
//! use wlc_model::fallback::FallbackModel;
//! use wlc_model::WorkloadModel;
//! use wlc_serve::{ClientConfig, ServeClient, ServeConfig, Server};
//!
//! let model = WorkloadModel::load("model.txt")?;
//! let bundle = FallbackModel::new(Some(model), None, vec![], vec![])?;
//! let server = Server::bind("127.0.0.1:0", bundle, ServeConfig::default())?;
//! let addr = server.local_addr();
//! std::thread::spawn(move || server.run());
//!
//! let client = ServeClient::new(addr.to_string(), ClientConfig::default());
//! let prediction = client.predict(&[200.0, 8.0, 8.0, 8.0])?;
//! println!("predicted: {:?}", prediction.outputs);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod client;
mod error;
pub mod http;
mod json;
mod replica;
mod router;
mod server;
mod state;

pub use breaker::{BreakerState, CircuitBreaker};
pub use client::{BatchPrediction, ClientConfig, Prediction, ReloadOutcome, ServeClient};
pub use error::ServeError;
pub use json::Json;
pub use replica::{Replica, ReplicaHealth};
pub use router::{ReloadError, ReloadReport, RouteError, Router};
pub use server::{counts_against_breaker, FailurePhase, ServeConfig, ServeStats, Server};
pub use state::ModelSlot;
