//! Persistent band-pool worker team for deterministic row-band fan-out.
//!
//! [`BandPool`] owns a fixed team of worker threads that stay parked
//! between calls — no per-call `thread::spawn`, so the batched training
//! and serving loops can fan every 64-row band out on every step without
//! paying thread start-up costs or perturbing the allocator.
//!
//! # The determinism contract
//!
//! Parallelism never changes *what* is computed, only *where*:
//!
//! - **Static assignment.** Band `b` always runs on team member
//!   `b % jobs`, a pure function of the band index and
//!   the worker count — never of timing, queue depth, or load. Worker 0
//!   is the calling thread itself; a pool with `jobs = n` spawns `n - 1`
//!   helpers.
//! - **Index-ordered merge.** [`BandPool::run`] returns band results in
//!   band-index order, and callers fold partial results band-ascending.
//!   Each band's value is produced by exactly one closure invocation
//!   whose inputs are independent of every other band, so the merged
//!   result is bitwise identical for *any* `jobs`, including 1.
//!
//! The inline path (`jobs <= 1`, or a single band) executes the same
//! closure in the same band order on the calling thread with no
//! synchronization at all — it is not a separate algorithm.
//!
//! # Panics
//!
//! A panic inside a band closure is captured on the worker, and the
//! lowest-indexed team member's payload is re-raised on the calling
//! thread once every in-flight band has finished — a crashing band
//! surfaces instead of hanging the run or poisoning the team. The team
//! itself survives: subsequent `run` calls work normally.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::tracked::{TrackedCondvar, TrackedMutex};

/// Number of `band_rows`-sized bands covering `rows` rows (the last
/// band may be ragged). Zero rows means zero bands.
pub fn band_count(rows: usize, band_rows: usize) -> usize {
    rows.div_ceil(band_rows.max(1))
}

/// A type-erased unit of work handed to a parked worker.
type Job = Box<dyn FnOnce() + Send>;

/// Payload of a panic captured on a worker thread.
type PanicPayload = Box<dyn Any + Send>;

/// Hand-off slot state for one worker; the slot is a single-entry
/// ownership ping-pong between the caller and that worker.
enum SlotState {
    /// No work pending; the worker is parked on the condvar.
    Idle,
    /// The caller has published a job the worker has not yet taken.
    Job(Job),
    /// The worker took the job and is executing it (no lock held).
    Running,
    /// The job finished; `Some` carries a captured panic payload.
    Done(Option<PanicPayload>),
    /// The pool is being dropped; the worker should exit.
    Shutdown,
}

/// One worker's hand-off slot: a tracked mutex + condvar pair. The
/// mutex is held only while swapping states, never while computing.
struct Slot {
    state: TrackedMutex<SlotState>,
    signal: TrackedCondvar,
}

/// A parked worker thread plus its hand-off slot.
struct Worker {
    slot: Arc<Slot>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    /// Publishes `job` to the worker. The slot is `Idle` here by
    /// protocol: `run` takes `&mut self`, so calls cannot overlap, and
    /// every submit is paired with a [`Worker::wait_done`] that resets
    /// the slot.
    fn submit(&self, job: Job) {
        // wlc-lint: allow(blocking-in-hot-path, reason = "band-pool hand-off: the slot mutex is held only to swap in the job; workers never hold it while computing")
        let mut guard = self.slot.state.lock();
        *guard = SlotState::Job(job);
        self.slot.signal.notify_all();
    }

    /// Blocks until the worker reports `Done`, resets the slot to
    /// `Idle`, and returns any captured panic payload.
    fn wait_done(&self) -> Option<PanicPayload> {
        // wlc-lint: allow(blocking-in-hot-path, reason = "band-pool hand-off: the caller parks here only after finishing its own bands; the wait is the merge barrier the determinism contract requires")
        let mut guard = self.slot.state.lock();
        loop {
            match std::mem::replace(&mut *guard, SlotState::Idle) {
                SlotState::Done(payload) => return payload,
                other => {
                    *guard = other;
                    // wlc-lint: allow(blocking-in-hot-path, reason = "band-pool hand-off: condvar park until the worker publishes Done")
                    guard = self.slot.signal.wait(guard);
                }
            }
        }
    }
}

/// Runs one worker: park until a job (or shutdown) appears, execute it
/// with panics captured, publish `Done`, repeat.
fn worker_loop(slot: &Slot) {
    loop {
        let taken = {
            let mut guard = slot.state.lock();
            loop {
                match &*guard {
                    SlotState::Job(_) | SlotState::Shutdown => break,
                    _ => guard = slot.signal.wait(guard),
                }
            }
            if let SlotState::Shutdown = &*guard {
                return;
            }
            std::mem::replace(&mut *guard, SlotState::Running)
        };
        let payload = if let SlotState::Job(job) = taken {
            catch_unwind(AssertUnwindSafe(job)).err()
        } else {
            None
        };
        let mut guard = slot.state.lock();
        *guard = SlotState::Done(payload);
        slot.signal.notify_all();
    }
}

/// A persistent team of `jobs - 1` parked worker threads (the calling
/// thread is team member 0) executing statically-assigned row bands.
/// See the module docs for the determinism contract.
pub struct BandPool {
    jobs: usize,
    workers: Vec<Worker>,
}

impl BandPool {
    /// Builds a team sized for `jobs` concurrent band executors.
    /// `jobs <= 1` builds an empty team whose [`BandPool::run`] is a
    /// plain sequential loop on the calling thread.
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        let workers = (1..jobs)
            .map(|member| {
                let slot = Arc::new(Slot {
                    state: TrackedMutex::new("BandPool.slot", SlotState::Idle),
                    signal: TrackedCondvar::new(),
                });
                let worker_slot = Arc::clone(&slot);
                let handle = std::thread::Builder::new()
                    .name(format!("wlc-band-{member}"))
                    .spawn(move || worker_loop(&worker_slot))
                    .ok();
                Worker { slot, handle }
            })
            // A thread that failed to spawn simply shrinks the team;
            // determinism is unaffected because assignment uses the
            // *requested* jobs count only through `run`'s clamp below.
            .filter(|w| w.handle.is_some())
            .collect::<Vec<_>>();
        let jobs = workers.len() + 1;
        BandPool { jobs, workers }
    }

    /// The team size (including the calling thread).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `task(b)` for every band `b in 0..n_bands` on the team,
    /// band `b` on member `b % effective_jobs`, and
    /// returns the results in band-index order.
    ///
    /// Takes `&mut self` so runs cannot overlap — the hand-off slots
    /// are single-entry. The closure must be `'static` because helper
    /// threads outlive the call frame; callers share inputs via `Arc`.
    /// With an effective team of one (or fewer than two bands) the
    /// closure runs inline with no synchronization.
    pub fn run<T, F>(&mut self, n_bands: usize, task: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let jobs = self.jobs.min(n_bands.max(1));
        if jobs <= 1 {
            return (0..n_bands).map(task).collect();
        }

        let task = Arc::new(task);
        let mut init: Vec<Option<T>> = Vec::with_capacity(n_bands);
        init.resize_with(n_bands, || None);
        let results = Arc::new(TrackedMutex::new("BandPool.results", init));

        // Members 1..jobs run on the parked helpers.
        for member in 1..jobs {
            let task = Arc::clone(&task);
            let results = Arc::clone(&results);
            self.workers[member - 1].submit(Box::new(move || {
                let mut local: Vec<(usize, T)> = Vec::new();
                let mut band = member;
                while band < n_bands {
                    local.push((band, task(band)));
                    band += jobs;
                }
                let mut slots = results.lock();
                for (band, value) in local {
                    slots[band] = Some(value);
                }
            }));
        }

        // Member 0 is this thread.
        let mut local: Vec<(usize, T)> = Vec::new();
        let mut band = 0;
        while band < n_bands {
            local.push((band, task(band)));
            band += jobs;
        }
        {
            let mut slots = results.lock();
            for (band, value) in local {
                slots[band] = Some(value);
            }
        }

        // Merge barrier: every submit gets its paired wait, so the team
        // is fully Idle again even if a band panicked; the lowest team
        // member's payload is then re-raised deterministically.
        let mut first_panic: Option<PanicPayload> = None;
        for worker in &self.workers[..jobs - 1] {
            let payload = worker.wait_done();
            if first_panic.is_none() {
                first_panic = payload;
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }

        let mut slots = results.lock();
        slots
            .iter_mut()
            .map(Option::take)
            // wlc-lint: allow(panic, reason = "band-pool invariant: run() stores every band's result before its Done hand-off, so a vacant slot is unreachable")
            .map(|slot| slot.expect("band-pool invariant: every band assigned exactly once"))
            .collect()
    }
}

impl Drop for BandPool {
    fn drop(&mut self) {
        for worker in &self.workers {
            let mut guard = worker.slot.state.lock();
            *guard = SlotState::Shutdown;
            worker.slot.signal.notify_all();
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn band_count_covers_all_rows() {
        assert_eq!(band_count(0, 64), 0);
        assert_eq!(band_count(1, 64), 1);
        assert_eq!(band_count(64, 64), 1);
        assert_eq!(band_count(65, 64), 2);
        assert_eq!(band_count(512, 64), 8);
        assert_eq!(band_count(3, 0), 3);
    }

    #[test]
    fn results_in_band_order_for_any_team_size() {
        for jobs in [1, 2, 3, 5, 9] {
            let mut pool = BandPool::new(jobs);
            let got = pool.run(23, |b| b * 11);
            assert_eq!(got, (0..23).map(|b| b * 11).collect::<Vec<_>>(), "{jobs}");
        }
    }

    #[test]
    fn pool_is_reusable_across_runs() {
        let mut pool = BandPool::new(4);
        for round in 0..20 {
            let got = pool.run(7, move |b| b + round);
            assert_eq!(got, (0..7).map(|b| b + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_bands_is_empty() {
        let mut pool = BandPool::new(4);
        let got: Vec<usize> = pool.run(0, |b| b);
        assert!(got.is_empty());
    }

    #[test]
    fn helpers_actually_execute_their_bands() {
        let mut pool = BandPool::new(3);
        let main_thread = std::thread::current().id();
        let off_main = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&off_main);
        let threads = pool.run(9, move |b| {
            if std::thread::current().id() != main_thread {
                seen.fetch_add(1, Ordering::Relaxed);
            }
            b
        });
        assert_eq!(threads.len(), 9);
        // Bands 1,2,4,5,7,8 belong to the two helpers.
        assert_eq!(off_main.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn band_panic_propagates_and_pool_survives() {
        let mut pool = BandPool::new(3);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(6, |b| {
                if b == 4 {
                    panic!("band exploded");
                }
                b
            })
        }));
        assert!(outcome.is_err());
        // The team is intact and Idle: the next run works.
        let got = pool.run(6, |b| b * 2);
        assert_eq!(got, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn single_job_pool_runs_inline() {
        let mut pool = BandPool::new(1);
        let main_thread = std::thread::current().id();
        let got = pool.run(5, move |b| {
            assert_eq!(std::thread::current().id(), main_thread);
            b
        });
        assert_eq!(got.len(), 5);
    }
}
