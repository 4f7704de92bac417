//! Std-only parallel execution layer for the workload-characterization
//! workspace.
//!
//! Every hot path in the paper's pipeline is embarrassingly parallel: one
//! independent DES run per configuration point, one independent MLP per
//! cross-validation fold, one independent model evaluation per response-
//! surface grid row. This crate provides the primitive they all share —
//! fan an indexed task set out over a fixed number of worker threads and
//! collect the results *in index order* — built on scoped `std::thread`s,
//! an atomic task cursor and one mutex over the result slots, so the
//! workspace stays dependency-free. The pool reads no clock; a caller
//! that reports wall time measures its own call. For *open* workloads (a
//! long-running server fed by arriving requests) it adds
//! [`BoundedQueue`] + [`ServicePool`]: a strictly bounded request queue
//! with explicit load shedding drained by persistent workers.
//!
//! Determinism: the pool never changes *what* is computed, only *where*.
//! Callers derive any randomness from the task index (e.g.
//! `Seed::derive(index)`), so output is bit-identical for any worker
//! count, including 1.
//!
//! Panics in a worker are re-raised on the calling thread after all
//! in-flight tasks finish — a crashing task surfaces instead of hanging
//! the run.
//!
//! Lock discipline: the crate's own locks (and the serve layer's, which
//! build on them) are [`TrackedMutex`]/[`TrackedRwLock`] wrappers that
//! detect lock-order inversions at runtime in debug builds, backing the
//! static lock-order analysis run by `wlc-lint`.
//!
//! # Examples
//!
//! ```
//! let squares = wlc_exec::try_map_indexed(4, 10, |i| Ok::<_, ()>(i * i));
//! assert_eq!(squares, Ok((0..10).map(|i| i * i).collect::<Vec<_>>()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod band;
mod pool;
mod service;
mod tracked;

pub use band::{band_count, BandPool};
pub use pool::{default_jobs, try_map_indexed, try_map_indexed_retry};
pub use service::{BoundedQueue, PushError, ServicePool};
pub use tracked::{
    tracked_acquisitions, TrackedCondvar, TrackedMutex, TrackedMutexGuard, TrackedReadGuard,
    TrackedRwLock, TrackedWriteGuard,
};
