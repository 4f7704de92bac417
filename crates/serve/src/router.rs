//! The replica router: least-loaded dispatch and rolling hot reload.
//!
//! [`Router`] owns the fleet of [`Replica`]s. Dispatch picks the
//! routable replica with the lowest in-flight load and falls back to
//! the next-loaded one when its queue is full; ties rotate
//! round-robin so an idle fleet spreads evenly instead of piling onto
//! replica 0. Only when *every* routable queue is full (or no replica
//! is routable at all) is the job handed back for the acceptor to
//! shed.
//!
//! [`Router::rolling_reload`] is the fleet-wide model update: the
//! candidate file is loaded and parsed once, then installed replica by
//! replica — mark draining (router routes around it), wait for its
//! in-flight count to reach zero, validate + swap its [`ModelSlot`],
//! un-drain — so at most one replica is ever out of rotation and no
//! accepted request is dropped. A `reload` mutex serializes concurrent
//! reloads; it is held across each per-replica drain + swap, which is
//! the router→replica lock edge (`Router.reload` →
//! `ModelSlot.current`) tracked by the wlc-lint lock-order graph.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wlc_exec::{PushError, TrackedMutex};
use wlc_fault::Fs;

use crate::error::ServeError;
use crate::replica::{Replica, ReplicaHealth};

/// Why the router could not place a job; the job is handed back so the
/// acceptor can shed it explicitly.
#[derive(Debug)]
pub enum RouteError<T> {
    /// Every routable replica's queue is at capacity (retriable).
    Saturated(T),
    /// No replica is routable at all — all killed or draining
    /// (retriable: a reload finishes, or an operator revives one).
    Unavailable(T),
}

impl<T> RouteError<T> {
    /// Recovers the job that was not dispatched.
    pub fn into_inner(self) -> T {
        match self {
            RouteError::Saturated(job) | RouteError::Unavailable(job) => job,
        }
    }

    /// Human-readable shed reason.
    pub fn reason(&self) -> &'static str {
        match self {
            RouteError::Saturated(_) => "server overloaded: every replica queue is full",
            RouteError::Unavailable(_) => "no serving replica available",
        }
    }
}

/// Why a rolling reload did not complete.
#[derive(Debug)]
pub enum ReloadError {
    /// The candidate was rejected — serving is undisturbed. A missing
    /// or corrupt file is the caller's mistake (non-retriable); a
    /// transient storage failure ([`ServeError::Durable`]) is
    /// retriable. Check `is_retriable()` on the inner error.
    Rejected(ServeError),
    /// A replica's in-flight work did not drain within the timeout —
    /// retriable; replicas already swapped keep the new model.
    DrainTimeout {
        /// Replica that failed to drain.
        replica: usize,
    },
    /// Another rolling reload is already in progress — retriable; this
    /// attempt changed nothing and the in-progress reload proceeds
    /// undisturbed.
    Busy,
}

/// Result of a completed rolling reload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadReport {
    /// Final per-replica generations, in replica order.
    pub generations: Vec<u64>,
    /// Generation vector snapshotted after each single-replica swap:
    /// step `i` shows exactly `i + 1` replicas advanced, proving the
    /// one-at-a-time barrier.
    pub steps: Vec<Vec<u64>>,
}

impl ReloadReport {
    /// The fleet's committed generation: the minimum across replicas
    /// (every replica has served at least this many swaps).
    pub fn fleet_generation(&self) -> u64 {
        self.generations.iter().copied().min().unwrap_or(0)
    }
}

/// Least-loaded dispatcher over a fleet of replicas (see module docs).
pub struct Router<T> {
    replicas: Vec<Arc<Replica<T>>>,
    /// Round-robin cursor for load ties.
    rr: AtomicUsize,
    /// Serializes rolling reloads: held across each per-replica
    /// drain + swap so generations advance one replica at a time.
    reload: TrackedMutex<()>,
    /// Fail-fast flag for concurrent reload attempts: the loser gets a
    /// retriable [`ReloadError::Busy`] immediately instead of blocking
    /// (and timing out its own drain barrier) behind the winner.
    reloading: AtomicBool,
}

impl<T> Router<T> {
    /// Wraps a fleet of replicas (at least one).
    pub fn new(replicas: Vec<Arc<Replica<T>>>) -> Self {
        Router {
            replicas,
            rr: AtomicUsize::new(0),
            reload: TrackedMutex::new("Router.reload", ()),
            reloading: AtomicBool::new(false),
        }
    }

    /// The fleet, in replica order.
    pub fn replicas(&self) -> &[Arc<Replica<T>>] {
        &self.replicas
    }

    /// Replica `id`, if it exists.
    pub fn replica(&self, id: usize) -> Option<&Arc<Replica<T>>> {
        self.replicas.get(id)
    }

    /// Number of replicas in the fleet.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the fleet is empty (never true for a bound server).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Dispatches a job to the least-loaded routable replica,
    /// breaking load ties round-robin and falling over to the
    /// next-loaded replica when a queue is full. Returns the chosen
    /// replica id.
    pub fn dispatch(&self, job: T) -> Result<usize, RouteError<T>> {
        // Rotate the candidate scan so equal loads round-robin; the
        // stable sort by load preserves the rotated order within ties.
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let n = self.replicas.len().max(1);
        let mut candidates: Vec<&Arc<Replica<T>>> = (0..self.replicas.len())
            .filter_map(|k| self.replicas.get((start + k) % n))
            .filter(|r| r.routable())
            .collect();
        if candidates.is_empty() {
            return Err(RouteError::Unavailable(job));
        }
        candidates.sort_by_key(|r| r.load());
        let mut job = job;
        for replica in candidates {
            replica.begin_dispatch();
            match replica.queue().push(job) {
                Ok(_) => return Ok(replica.id()),
                Err(rejected) => {
                    replica.abort_dispatch();
                    job = match rejected {
                        PushError::Full(job) | PushError::Closed(job) => job,
                    };
                }
            }
        }
        Err(RouteError::Saturated(job))
    }

    /// Per-replica generations, in replica order.
    pub fn generations(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .map(|r| r.slot().generation())
            .collect()
    }

    /// Per-replica health snapshots against the readiness `watermark`.
    pub fn health(&self, watermark: usize, now: Instant) -> Vec<ReplicaHealth> {
        self.replicas
            .iter()
            .map(|r| r.health(watermark, now))
            .collect()
    }

    /// Marks replica `id` dead (no new traffic; queued work drains).
    /// Returns `false` for an unknown id.
    pub fn kill(&self, id: usize) -> bool {
        match self.replicas.get(id) {
            Some(replica) => {
                replica.kill();
                true
            }
            None => false,
        }
    }

    /// Brings a killed replica back into rotation. Returns `false`
    /// for an unknown id.
    pub fn revive(&self, id: usize) -> bool {
        match self.replicas.get(id) {
            Some(replica) => {
                replica.revive();
                true
            }
            None => false,
        }
    }

    /// Rolling hot reload (see module docs): loads the candidate once,
    /// then drains and swaps one replica at a time.
    ///
    /// `requester` is the replica currently handling the `/reload`
    /// request itself — its drain waits until the reload is the only
    /// request in service, so a reload routed through the fleet cannot
    /// deadlock on itself. Jobs queued behind the reload on that replica
    /// do not hold the drain: with one worker they cannot start before
    /// the reload ends, and they are answered by the new model.
    ///
    /// Dead replicas are not drained (they receive no traffic) but are
    /// still swapped, so a later revive serves the current model.
    ///
    /// Concurrent reload attempts serialize: exactly one proceeds and
    /// every other caller gets a clean, retriable [`ReloadError::Busy`]
    /// without blocking, so the generation vector is never advanced by
    /// two interleaved rolls.
    pub fn rolling_reload(
        &self,
        fs: &dyn Fs,
        path: &Path,
        requester: Option<usize>,
        drain_timeout: Duration,
    ) -> Result<ReloadReport, ReloadError> {
        if self
            .reloading
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return Err(ReloadError::Busy);
        }
        let _in_progress = ClearOnDrop(&self.reloading);
        let _serialized = self.reload.lock();
        let candidate = crate::state::load_candidate(fs, path).map_err(ReloadError::Rejected)?;
        let mut steps = Vec::with_capacity(self.replicas.len());
        for replica in &self.replicas {
            if replica.is_alive() {
                replica.set_draining(true);
                let requester = requester == Some(replica.id());
                if !wait_for_drain(replica, requester, drain_timeout) {
                    replica.set_draining(false);
                    return Err(ReloadError::DrainTimeout {
                        replica: replica.id(),
                    });
                }
            }
            let installed = replica.slot().install(candidate.clone());
            replica.set_draining(false);
            if let Err(err) = installed {
                return Err(ReloadError::Rejected(err));
            }
            steps.push(self.generations());
        }
        Ok(ReloadReport {
            generations: self.generations(),
            steps,
        })
    }
}

/// Clears the reload-in-progress flag on every exit path (success,
/// rejection, drain timeout, panic) of [`Router::rolling_reload`].
struct ClearOnDrop<'a>(&'a AtomicBool);

impl Drop for ClearOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// Polls until the replica's in-flight count falls to zero, or
/// `timeout` elapses. The replica is already un-routable (draining),
/// so the count can only fall. On the `requester`'s replica the reload
/// itself stays in flight, and jobs still queued behind it do not
/// count.
fn wait_for_drain<T>(replica: &Replica<T>, requester: bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        // In-flight first, then the queue: a job popped in between
        // counts as in service, never as queued.
        let mut busy = replica.load();
        if requester {
            busy = busy.saturating_sub(replica.queue().len() as u64 + 1);
        }
        if busy == 0 {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlc_data::{Dataset, Sample};
    use wlc_model::baseline::{LinearFeatures, LinearModel};
    use wlc_model::fallback::FallbackModel;
    use wlc_model::WorkloadModelBuilder;

    fn dataset() -> Dataset {
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], vec!["y".into()]).unwrap();
        for i in 0..10 {
            let (a, b) = (i as f64, (i * 2) as f64);
            ds.push(Sample::new(vec![a, b], vec![a + b])).unwrap();
        }
        ds
    }

    fn bundle() -> FallbackModel {
        let baseline = LinearModel::fit(&dataset(), LinearFeatures::FirstOrder).unwrap();
        FallbackModel::new(None, Some(baseline), vec![], vec![]).unwrap()
    }

    fn fleet(n: usize, queue: usize) -> Router<u32> {
        Router::new(
            (0..n)
                .map(|i| {
                    Arc::new(Replica::new(
                        i,
                        bundle(),
                        3,
                        Duration::from_millis(50),
                        queue,
                    ))
                })
                .collect(),
        )
    }

    #[test]
    fn ties_round_robin_across_idle_replicas() {
        let router = fleet(3, 8);
        let mut seen = vec![0usize; 3];
        for job in 0..9 {
            let id = router.dispatch(job).unwrap();
            // Drain immediately so every dispatch sees an idle fleet.
            let replica = router.replica(id).unwrap();
            assert_eq!(replica.queue().pop(), Some(job));
            replica.finish_request();
            seen[id] += 1;
        }
        assert_eq!(seen, vec![3, 3, 3], "idle ties must rotate evenly");
    }

    #[test]
    fn least_loaded_wins_over_rotation() {
        let router = fleet(3, 8);
        // Load replicas 0 and 1 without draining them.
        for _ in 0..3 {
            router.replica(0).unwrap().begin_dispatch();
        }
        for _ in 0..2 {
            router.replica(1).unwrap().begin_dispatch();
        }
        for job in 0..3 {
            assert_eq!(
                router.dispatch(job).unwrap(),
                2,
                "replica 2 is idle and must win until it catches up"
            );
            router.replica(2).unwrap().queue().pop();
        }
    }

    #[test]
    fn full_queues_fall_over_then_saturate() {
        let router = fleet(2, 1);
        // Fill both single-slot queues (workers never drain them).
        assert!(router.dispatch(1).is_ok());
        assert!(router.dispatch(2).is_ok());
        match router.dispatch(3) {
            Err(RouteError::Saturated(job)) => assert_eq!(job, 3),
            other => panic!("expected saturation, got {other:?}"),
        }
        // In-flight accounting must have been rolled back for the
        // rejected job: queued work still counts, the shed one does not.
        assert_eq!(router.replica(0).unwrap().load(), 1);
        assert_eq!(router.replica(1).unwrap().load(), 1);
    }

    #[test]
    fn killed_and_draining_replicas_are_routed_around() {
        let router = fleet(3, 4);
        router.kill(0);
        router.replica(1).unwrap().set_draining(true);
        for job in 0..4 {
            assert_eq!(router.dispatch(job).unwrap(), 2);
            router.replica(2).unwrap().queue().pop();
            router.replica(2).unwrap().finish_request();
        }
        router.replica(1).unwrap().set_draining(false);
        router.kill(1);
        router.kill(2);
        match router.dispatch(9) {
            Err(RouteError::Unavailable(job)) => assert_eq!(job, 9),
            other => panic!("expected unavailable, got {other:?}"),
        }
        assert!(!router.kill(7), "unknown replica id must be rejected");
        assert!(router.revive(2));
        assert!(router.dispatch(10).is_ok());
    }

    #[test]
    fn rolling_reload_advances_one_replica_at_a_time() {
        let router = fleet(3, 4);
        let trained = WorkloadModelBuilder::new()
            .no_hidden_layers()
            .hidden_layer(4)
            .max_epochs(120)
            .seed(5)
            .train(&dataset())
            .unwrap()
            .model;
        let dir = std::env::temp_dir().join(format!("wlc-router-roll-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        trained.save(&path).unwrap();

        let report = router
            .rolling_reload(&wlc_fault::RealFs, &path, None, Duration::from_secs(5))
            .unwrap();
        assert_eq!(report.generations, vec![1, 1, 1]);
        assert_eq!(report.fleet_generation(), 1);
        assert_eq!(
            report.steps,
            vec![vec![1, 0, 0], vec![1, 1, 0], vec![1, 1, 1]],
            "each step must advance exactly one replica"
        );

        // A dead replica is swapped without draining, so a revive
        // comes back already serving the current generation.
        router.kill(1);
        let report = router
            .rolling_reload(&wlc_fault::RealFs, &path, None, Duration::from_secs(5))
            .unwrap();
        assert_eq!(report.generations, vec![2, 2, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rolling_reload_times_out_on_a_stuck_replica() {
        let router = fleet(2, 4);
        // A request that never finishes pins replica 0's in-flight.
        router.replica(0).unwrap().begin_dispatch();
        let trained = WorkloadModelBuilder::new()
            .no_hidden_layers()
            .hidden_layer(4)
            .max_epochs(120)
            .seed(6)
            .train(&dataset())
            .unwrap()
            .model;
        let dir = std::env::temp_dir().join(format!("wlc-router-stuck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        trained.save(&path).unwrap();

        match router.rolling_reload(&wlc_fault::RealFs, &path, None, Duration::from_millis(30)) {
            Err(ReloadError::DrainTimeout { replica }) => assert_eq!(replica, 0),
            other => panic!("expected drain timeout, got {other:?}"),
        }
        // The stuck replica is back in rotation (not wedged draining),
        // and no generation advanced.
        assert!(router.replica(0).unwrap().routable());
        assert_eq!(router.generations(), vec![0, 0]);

        // With the stuck request counted as the requester, the same
        // drain succeeds: the reload request itself is allowed.
        let report = router
            .rolling_reload(
                &wlc_fault::RealFs,
                &path,
                Some(0),
                Duration::from_millis(200),
            )
            .unwrap();
        assert_eq!(report.generations, vec![1, 1]);
    }

    #[test]
    fn requester_drain_does_not_wait_for_jobs_queued_behind_the_reload() {
        let router = fleet(2, 4);
        let queue_job = |replica: &Replica<u32>| {
            replica.begin_dispatch();
            replica.queue().push(7).unwrap();
        };
        // Replica 1's one worker is running the reload (in flight, not
        // queued), and an idle kept-alive connection waits behind it.
        let replica = router.replica(1).unwrap();
        replica.begin_dispatch();
        queue_job(replica);
        // Replica 0 holds a queued job too, and no worker pops it.
        queue_job(router.replica(0).unwrap());
        let trained = WorkloadModelBuilder::new()
            .no_hidden_layers()
            .hidden_layer(4)
            .max_epochs(120)
            .seed(6)
            .train(&dataset())
            .unwrap()
            .model;
        let dir = std::env::temp_dir().join(format!("wlc-router-queued-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        trained.save(&path).unwrap();

        // A replica that is not the requester still waits for its queue.
        match router.rolling_reload(
            &wlc_fault::RealFs,
            &path,
            Some(1),
            Duration::from_millis(30),
        ) {
            Err(ReloadError::DrainTimeout { replica }) => assert_eq!(replica, 0),
            other => panic!("expected drain timeout on replica 0, got {other:?}"),
        }
        assert!(router.replica(0).unwrap().queue().pop().is_some());
        router.replica(0).unwrap().finish_request();

        let report = router
            .rolling_reload(&wlc_fault::RealFs, &path, Some(1), Duration::from_secs(5))
            .unwrap();
        assert_eq!(report.generations, vec![1, 1]);
        assert_eq!((replica.load(), replica.queue().len()), (2, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_reloads_serialize_with_one_winner_and_one_clean_busy() {
        let router = Arc::new(fleet(2, 4));
        let trained = WorkloadModelBuilder::new()
            .no_hidden_layers()
            .hidden_layer(4)
            .max_epochs(120)
            .seed(6)
            .train(&dataset())
            .unwrap()
            .model;
        let dir = std::env::temp_dir().join(format!("wlc-router-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        trained.save(&path).unwrap();

        // Pin replica 0's in-flight so the first reload parks inside
        // its drain barrier while holding the reload claim.
        router.replica(0).unwrap().begin_dispatch();
        let winner = {
            let router = Arc::clone(&router);
            let path = path.clone();
            std::thread::spawn(move || {
                router.rolling_reload(&wlc_fault::RealFs, &path, None, Duration::from_secs(5))
            })
        };
        // The winner marks replica 0 draining before waiting on it;
        // once that is visible the second attempt is provably
        // concurrent.
        while router.replica(0).unwrap().routable() {
            std::thread::sleep(Duration::from_millis(1));
        }

        // The loser fails fast with a clean retriable Busy — it neither
        // blocks behind the winner nor touches any generation.
        match router.rolling_reload(&wlc_fault::RealFs, &path, None, Duration::from_secs(5)) {
            Err(ReloadError::Busy) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(router.generations(), vec![0, 0]);

        // Unpin: the winner completes a normal one-at-a-time roll with
        // an untorn generation vector.
        router.replica(0).unwrap().abort_dispatch();
        let report = winner.join().unwrap().unwrap();
        assert_eq!(report.generations, vec![1, 1]);
        assert_eq!(report.steps, vec![vec![1, 0], vec![1, 1]]);

        // The claim was released, so retrying the loser now wins.
        let retry = router
            .rolling_reload(&wlc_fault::RealFs, &path, None, Duration::from_secs(5))
            .unwrap();
        assert_eq!(retry.generations, vec![2, 2]);
    }

    #[test]
    fn rejected_candidate_leaves_every_generation_pinned() {
        let router = fleet(3, 4);
        let dir = std::env::temp_dir().join(format!("wlc-router-reject-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "not a model").unwrap();
        match router.rolling_reload(&wlc_fault::RealFs, &bad, None, Duration::from_secs(1)) {
            Err(ReloadError::Rejected(_)) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(router.generations(), vec![0, 0, 0]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
