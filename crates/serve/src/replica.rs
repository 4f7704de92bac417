//! One serving replica: a self-contained unit of serving capacity.
//!
//! A [`Replica`] owns everything a single PR-3-style server owned — a
//! hot-swappable [`ModelSlot`], a [`CircuitBreaker`] guarding its
//! primary model, a bounded request queue and per-replica counters —
//! so the fleet's failure domains are exactly the replicas: one
//! replica's open breaker, full queue, drain, or death never affects
//! the others. The [`crate::Router`] dispatches over a set of replicas
//! and performs rolling reloads one replica at a time.
//!
//! The job type `T` is generic (the server uses accepted connections)
//! so the replica/router substrate stays independent of the HTTP
//! layer and is testable with plain values.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wlc_exec::BoundedQueue;

use wlc_model::fallback::FallbackModel;

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::state::ModelSlot;

/// Point-in-time view of one replica, as reported by `/readyz` and
/// `/stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// Replica index within the fleet.
    pub id: usize,
    /// `false` once the replica has been killed (admin/test hook).
    pub alive: bool,
    /// `true` while a rolling reload is draining this replica.
    pub draining: bool,
    /// Routable and able to answer: alive, not draining, a model is
    /// loaded, and the queue is below the readiness watermark.
    pub ready: bool,
    /// Jobs queued but not yet picked up by a worker.
    pub queue_depth: usize,
    /// Jobs dispatched to this replica and not yet answered (queued
    /// plus in service). A kept-alive connection handed back here
    /// counts until its next response or its close.
    pub in_flight: u64,
    /// Model-slot generation (bumped per successful swap).
    pub generation: u64,
    /// Circuit-breaker state of this replica's primary model.
    pub breaker: BreakerState,
    /// Requests answered by this replica (any status).
    pub handled: u64,
    /// Predictions served by the linear baseline (degraded mode).
    pub degraded: u64,
    /// Requests answered 504 by this replica.
    pub deadline_missed: u64,
}

/// A single serving replica (see module docs).
pub struct Replica<T> {
    id: usize,
    slot: ModelSlot,
    breaker: CircuitBreaker,
    queue: Arc<BoundedQueue<T>>,
    /// Dispatched-but-unanswered jobs: incremented by the router before
    /// the queue push, decremented by the worker after the response is
    /// written. A kept-alive connection handed back to this replica
    /// counts from its re-dispatch until its next response or its
    /// close. This is the replica's load *and* the rolling-reload drain
    /// condition (zero means no request can still observe the old model
    /// slot mid-swap).
    in_flight: AtomicU64,
    draining: AtomicBool,
    alive: AtomicBool,
    handled: AtomicU64,
    degraded: AtomicU64,
    deadline_missed: AtomicU64,
}

impl<T> Replica<T> {
    /// Creates replica `id` with its own copy of the serving bundle,
    /// its own breaker and a bounded queue of `queue_capacity`.
    pub fn new(
        id: usize,
        bundle: FallbackModel,
        breaker_threshold: u32,
        breaker_cooldown: std::time::Duration,
        queue_capacity: usize,
    ) -> Self {
        Replica {
            id,
            slot: ModelSlot::new(bundle),
            breaker: CircuitBreaker::new(breaker_threshold, breaker_cooldown),
            queue: Arc::new(BoundedQueue::new(queue_capacity)),
            in_flight: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            alive: AtomicBool::new(true),
            handled: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
        }
    }

    /// Replica index within the fleet.
    pub fn id(&self) -> usize {
        self.id
    }

    /// This replica's model slot.
    pub fn slot(&self) -> &ModelSlot {
        &self.slot
    }

    /// This replica's circuit breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// A handle to this replica's request queue (workers drain it).
    pub fn queue(&self) -> Arc<BoundedQueue<T>> {
        Arc::clone(&self.queue)
    }

    /// Closes the request queue (graceful shutdown: workers finish
    /// what is queued, then exit).
    pub fn close(&self) {
        self.queue.close();
    }

    /// Dispatched-but-unanswered jobs — the router's load metric.
    pub fn load(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Whether the router may send new work here.
    pub fn routable(&self) -> bool {
        self.alive.load(Ordering::SeqCst) && !self.draining.load(Ordering::SeqCst)
    }

    /// Whether the replica is alive (not killed).
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Whether a rolling reload is currently draining this replica.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Marks the replica dead: the router stops sending work, but jobs
    /// already queued still drain (accepted work is never dropped).
    pub fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Brings a killed replica back into rotation.
    pub fn revive(&self) {
        self.alive.store(true, Ordering::SeqCst);
    }

    /// Router-side: accounts a job about to be pushed to the queue.
    pub fn begin_dispatch(&self) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    /// Router-side: undoes [`Replica::begin_dispatch`] after a failed
    /// queue push (the job was handed back, not dispatched).
    pub fn abort_dispatch(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Worker-side: accounts a job fully answered.
    pub fn finish_request(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Drain gate used by the rolling reload: marks/unmarks the
    /// replica as draining (not routable, still serving what it has).
    pub fn set_draining(&self, draining: bool) {
        self.draining.store(draining, Ordering::SeqCst);
    }

    /// Counts one answered request.
    pub fn count_handled(&self) {
        self.handled.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one baseline-served (degraded) prediction.
    pub fn count_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one 504 deadline miss.
    pub fn count_deadline_missed(&self) {
        self.deadline_missed.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime counters `(handled, degraded, deadline_missed)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.handled.load(Ordering::Relaxed),
            self.degraded.load(Ordering::Relaxed),
            self.deadline_missed.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of this replica's health against the readiness
    /// `watermark` (queued depth at or above it reports not-ready).
    pub fn health(&self, watermark: usize, now: Instant) -> ReplicaHealth {
        let snapshot = self.slot.snapshot();
        let model_loaded = snapshot.has_primary() || snapshot.has_baseline();
        let queue_depth = self.queue.len();
        let alive = self.is_alive();
        let draining = self.is_draining();
        let (handled, degraded, deadline_missed) = self.counters();
        ReplicaHealth {
            id: self.id,
            alive,
            draining,
            ready: alive && !draining && model_loaded && queue_depth < watermark,
            queue_depth,
            in_flight: self.load(),
            generation: self.slot.generation(),
            breaker: self.breaker.state(now),
            handled,
            degraded,
            deadline_missed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wlc_data::{Dataset, Sample};
    use wlc_model::baseline::{LinearFeatures, LinearModel};

    fn bundle() -> FallbackModel {
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], vec!["y".into()]).unwrap();
        for i in 0..8 {
            let (a, b) = (i as f64, (i * 2) as f64);
            ds.push(Sample::new(vec![a, b], vec![a + b])).unwrap();
        }
        let baseline = LinearModel::fit(&ds, LinearFeatures::FirstOrder).unwrap();
        FallbackModel::new(None, Some(baseline), vec![], vec![]).unwrap()
    }

    #[test]
    fn load_tracks_dispatch_and_finish() {
        let r: Replica<u32> = Replica::new(0, bundle(), 3, Duration::from_millis(10), 4);
        assert_eq!(r.load(), 0);
        r.begin_dispatch();
        r.begin_dispatch();
        assert_eq!(r.load(), 2);
        r.abort_dispatch();
        assert_eq!(r.load(), 1);
        r.finish_request();
        assert_eq!(r.load(), 0);
    }

    #[test]
    fn kill_drain_and_health_flags() {
        let r: Replica<u32> = Replica::new(3, bundle(), 3, Duration::from_millis(10), 4);
        let now = Instant::now();
        let h = r.health(2, now);
        assert!(h.ready && h.alive && !h.draining);
        assert_eq!(h.id, 3);
        assert_eq!(h.breaker, BreakerState::Closed);

        r.set_draining(true);
        assert!(!r.routable(), "draining replicas receive no new work");
        assert!(!r.health(2, now).ready);
        r.set_draining(false);

        r.kill();
        assert!(!r.routable() && !r.is_alive());
        assert!(!r.health(2, now).ready);
        r.revive();
        assert!(r.routable());
        assert!(r.health(2, now).ready);
    }

    #[test]
    fn queue_above_watermark_is_not_ready() {
        let r: Replica<u32> = Replica::new(0, bundle(), 3, Duration::from_millis(10), 4);
        r.queue().push(1).unwrap();
        r.queue().push(2).unwrap();
        assert!(!r.health(2, Instant::now()).ready);
        assert_eq!(r.health(2, Instant::now()).queue_depth, 2);
        assert!(r.health(3, Instant::now()).ready);
    }
}
