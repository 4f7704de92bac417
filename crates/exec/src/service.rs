//! Long-running service primitives: a bounded request queue with explicit
//! load shedding, and a persistent worker pool that drains it.
//!
//! Unlike the batch fan-out in [`crate::try_map_indexed`], these primitives
//! serve an *open* workload: producers push jobs as they arrive and a
//! fixed set of workers consumes them until the queue is closed. The
//! queue is strictly bounded — when it is full, [`BoundedQueue::push`]
//! returns the job to the caller instead of blocking or growing, so an
//! overloaded server sheds deterministically rather than OOMing.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::tracked::{TrackedCondvar, TrackedMutex};

/// Why a [`BoundedQueue::push`] did not enqueue; the job is handed back.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — shed the job (retriable by the caller).
    Full(T),
    /// The queue has been closed — no further work is accepted.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the job that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(t) | PushError::Closed(t) => t,
        }
    }

    /// Whether the rejection is transient (queue full) rather than
    /// permanent (queue closed).
    pub fn is_retriable(&self) -> bool {
        matches!(self, PushError::Full(_))
    }
}

impl<T> fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Full(_) => write!(f, "queue full"),
            PushError::Closed(_) => write!(f, "queue closed"),
        }
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer FIFO queue.
///
/// - [`BoundedQueue::push`] never blocks: at capacity it returns
///   [`PushError::Full`] so the producer can shed the job explicitly.
/// - [`BoundedQueue::pop`] blocks until a job arrives or the queue is
///   closed *and* drained, making close-then-join a graceful drain.
///
/// # Examples
///
/// ```
/// use wlc_exec::BoundedQueue;
///
/// let q = BoundedQueue::new(2);
/// assert!(q.push(1).is_ok());
/// assert!(q.push(2).is_ok());
/// assert!(q.push(3).is_err()); // shed, not blocked
/// q.close();
/// assert_eq!(q.pop(), Some(1)); // closing still drains queued work
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None);
/// ```
pub struct BoundedQueue<T> {
    state: TrackedMutex<QueueState<T>>,
    available: TrackedCondvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` jobs (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: TrackedMutex::new(
                "BoundedQueue.state",
                QueueState {
                    items: VecDeque::new(),
                    closed: false,
                },
            ),
            available: TrackedCondvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        // wlc-lint: allow(guard-coverage, reason = "capacity is immutable after construction; the guard in push protects state, not capacity")
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tries to enqueue a job without blocking, returning the depth after
    /// the push.
    ///
    /// # Errors
    ///
    /// - [`PushError::Full`] at capacity (the caller sheds the job).
    /// - [`PushError::Closed`] after [`BoundedQueue::close`].
    pub fn push(&self, job: T) -> Result<usize, PushError<T>> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(PushError::Closed(job));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(job));
        }
        state.items.push_back(job);
        let depth = state.items.len();
        drop(state);
        self.available.notify_one();
        Ok(depth)
    }

    /// Blocks until a job is available and dequeues it. Returns `None`
    /// once the queue is closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.items.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state);
        }
    }

    /// Closes the queue: further pushes fail, waiting consumers finish
    /// draining what is already queued and then observe `None`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }

    /// Whether [`BoundedQueue::close`] has been called.
    // wlc-lint: allow(unreferenced-pub, reason = "crates/exec/tests/contention.rs::bounded_queue_survives_close_while_push_race observes the close through it")
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

/// A fixed set of worker threads draining a [`BoundedQueue`].
///
/// Workers run `handler(worker_index, job)` for every job until the queue
/// is closed and drained. [`ServicePool::join`] then completes — so the
/// graceful-shutdown sequence is: stop producing, `queue.close()`,
/// `pool.join()`.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use wlc_exec::{BoundedQueue, ServicePool};
///
/// let queue = Arc::new(BoundedQueue::new(16));
/// let done = Arc::new(AtomicUsize::new(0));
/// let counter = Arc::clone(&done);
/// let pool = ServicePool::start(3, Arc::clone(&queue), move |_worker, job: usize| {
///     counter.fetch_add(job, Ordering::Relaxed);
/// });
/// for j in 0..10 {
///     queue.push(j).unwrap();
/// }
/// queue.close();
/// pool.join();
/// assert_eq!(done.load(Ordering::Relaxed), 45);
/// ```
pub struct ServicePool {
    handles: Vec<JoinHandle<()>>,
}

impl ServicePool {
    /// Spawns `workers` threads (minimum 1) that drain `queue` through
    /// `handler`.
    pub fn start<T, F>(workers: usize, queue: Arc<BoundedQueue<T>>, handler: F) -> Self
    where
        T: Send + 'static,
        F: Fn(usize, T) + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        let handles = (0..workers.max(1))
            .map(|worker| {
                let queue = Arc::clone(&queue);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || {
                    while let Some(job) = queue.pop() {
                        handler(worker, job);
                    }
                })
            })
            .collect();
        ServicePool { handles }
    }

    /// Spawns `workers` threads (minimum 1) that each own a mutable state
    /// value built by `init(worker_index)` and drain `queue` through
    /// `handler(worker_index, &mut state, job)`.
    ///
    /// The state lives for the worker's whole lifetime, so expensive
    /// scratch (buffers, workspaces, connections) is built once per
    /// worker and reused across jobs instead of being reallocated per
    /// request.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::atomic::{AtomicUsize, Ordering};
    /// use std::sync::Arc;
    /// use wlc_exec::{BoundedQueue, ServicePool};
    ///
    /// let queue = Arc::new(BoundedQueue::new(16));
    /// let total = Arc::new(AtomicUsize::new(0));
    /// let sink = Arc::clone(&total);
    /// let pool = ServicePool::start_with_state(
    ///     2,
    ///     Arc::clone(&queue),
    ///     |_worker| Vec::<usize>::new(), // per-worker scratch
    ///     move |_worker, scratch, job: usize| {
    ///         scratch.push(job); // reused buffer, never shared
    ///         sink.fetch_add(job, Ordering::Relaxed);
    ///     },
    /// );
    /// for j in 1..=4 {
    ///     queue.push(j).unwrap();
    /// }
    /// queue.close();
    /// pool.join();
    /// assert_eq!(total.load(Ordering::Relaxed), 10);
    /// ```
    pub fn start_with_state<T, S, I, F>(
        workers: usize,
        queue: Arc<BoundedQueue<T>>,
        init: I,
        handler: F,
    ) -> Self
    where
        T: Send + 'static,
        S: Send + 'static,
        I: Fn(usize) -> S + Send + Sync + 'static,
        F: Fn(usize, &mut S, T) + Send + Sync + 'static,
    {
        let init = Arc::new(init);
        let handler = Arc::new(handler);
        let handles = (0..workers.max(1))
            .map(|worker| {
                let queue = Arc::clone(&queue);
                let init = Arc::clone(&init);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || {
                    let mut state = init(worker);
                    while let Some(job) = queue.pop() {
                        handler(worker, &mut state, job);
                    }
                })
            })
            .collect();
        ServicePool { handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Waits for every worker to finish (the queue must be closed first,
    /// or this blocks until it is). Worker panics are propagated.
    pub fn join(self) {
        for handle in self.handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn push_sheds_at_capacity_instead_of_growing() {
        let q = BoundedQueue::new(3);
        for i in 0..3 {
            assert_eq!(q.push(i).unwrap(), i + 1);
        }
        let err = q.push(99).unwrap_err();
        assert!(err.is_retriable());
        assert_eq!(err.into_inner(), 99);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_err());
    }

    #[test]
    fn close_rejects_new_work_but_drains_queued() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert!(q.is_closed());
        let err = q.push(3).unwrap_err();
        assert!(!err.is_retriable());
        assert_eq!(format!("{err}"), "queue closed");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(BoundedQueue::new(1));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                q.push(7usize).unwrap();
            })
        };
        assert_eq!(q.pop(), Some(7));
        producer.join().unwrap();
    }

    #[test]
    fn pool_processes_all_jobs_then_joins() {
        let queue = Arc::new(BoundedQueue::new(64));
        let sum = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&sum);
        let pool = ServicePool::start(4, Arc::clone(&queue), move |_w, job: usize| {
            seen.fetch_add(job, Ordering::Relaxed);
        });
        assert_eq!(pool.workers(), 4);
        for j in 1..=50 {
            queue.push(j).unwrap();
        }
        queue.close();
        pool.join();
        assert_eq!(sum.load(Ordering::Relaxed), (1..=50).sum());
    }

    #[test]
    fn shutdown_drains_in_flight_and_queued_jobs() {
        // One slow worker, several queued jobs: close + join must complete
        // every queued job, not abandon them.
        let queue = Arc::new(BoundedQueue::new(8));
        let done = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&done);
        let pool = ServicePool::start(1, Arc::clone(&queue), move |_w, _job: usize| {
            std::thread::sleep(Duration::from_millis(5));
            counter.fetch_add(1, Ordering::Relaxed);
        });
        for j in 0..6 {
            queue.push(j).unwrap();
        }
        queue.close();
        pool.join();
        assert_eq!(done.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn per_worker_state_is_initialized_once_and_reused() {
        let queue = Arc::new(BoundedQueue::new(64));
        let inits = Arc::new(AtomicUsize::new(0));
        let jobs_via_state = Arc::new(AtomicUsize::new(0));
        let init_counter = Arc::clone(&inits);
        let sink = Arc::clone(&jobs_via_state);
        let pool = ServicePool::start_with_state(
            3,
            Arc::clone(&queue),
            move |worker| {
                init_counter.fetch_add(1, Ordering::Relaxed);
                (worker, 0usize) // per-worker mutable scratch
            },
            move |worker, state, _job: usize| {
                assert_eq!(state.0, worker, "state belongs to its worker");
                state.1 += 1;
                sink.fetch_add(1, Ordering::Relaxed);
            },
        );
        for j in 0..30 {
            queue.push(j).unwrap();
        }
        queue.close();
        pool.join();
        assert_eq!(inits.load(Ordering::Relaxed), 3, "one init per worker");
        assert_eq!(jobs_via_state.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn worker_panic_propagates_on_join() {
        let queue = Arc::new(BoundedQueue::new(4));
        let pool = ServicePool::start(1, Arc::clone(&queue), |_w, job: usize| {
            if job == 2 {
                panic!("worker exploded");
            }
        });
        queue.push(2).unwrap();
        queue.close();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.join())).is_err());
    }
}
