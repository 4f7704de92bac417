//! Debug-build lock-order race detection.
//!
//! [`TrackedMutex`] and [`TrackedRwLock`] are drop-in wrappers around
//! their `std::sync` counterparts that, **in debug builds only**, record
//! the per-thread lock-acquisition order into a global registry and
//! panic the moment two lock *classes* are ever acquired in both orders
//! — the precondition for an ABBA deadlock — with the `file:line` of
//! both conflicting acquisitions. Release builds compile the wrappers
//! down to the plain primitives with no registry, no thread-local state
//! and no extra branches on the lock path.
//!
//! Lock identity is the `&'static str` *class name* passed to the
//! constructor (e.g. `"BoundedQueue.state"`), not the instance address:
//! the ordering discipline this workspace enforces (and that
//! `wlc-lint`'s static lock-order analysis checks) is between lock
//! classes, so two instances of the same class may not be held by one
//! thread at the same time either — that is reported as a recursive
//! acquisition.
//!
//! Because every unit and integration test runs under
//! `debug_assertions`, the existing test suite doubles as a dynamic
//! race/deadlock detector: any test that drives two tracked locks
//! through inverted orders fails loudly instead of deadlocking flakily.
//!
//! Poisoning: the wrappers recover from [`std::sync::PoisonError`] by
//! taking the inner guard. A panic while holding one of these locks is
//! already propagated by [`crate::ServicePool::join`] (or the test
//! harness); refusing to ever hand out the data again would only turn
//! one failure into a cascade, and every guarded structure here is
//! valid after any single mutation.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};

#[cfg(debug_assertions)]
mod order {
    //! The global acquisition-order registry (debug builds only).
    //!
    //! The registry's own lock is always a leaf: it is acquired only
    //! inside [`record_acquire`] while no *other* registry state is
    //! held, so it cannot itself participate in a cycle.

    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// First-observation provenance for an ordered pair of lock classes.
    type Edges = HashMap<(&'static str, &'static str), String>;

    static EDGES: OnceLock<Mutex<Edges>> = OnceLock::new();
    static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// Lock classes currently held by this thread, oldest first,
        /// each with the `file:line` where it was acquired.
        static HELD: RefCell<Vec<(&'static str, String)>> = const { RefCell::new(Vec::new()) };
    }

    fn edges() -> &'static Mutex<Edges> {
        EDGES.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Total tracked acquisitions across all threads since process
    /// start; lets tests assert the checker is actually live.
    pub fn acquisitions() -> u64 {
        ACQUISITIONS.load(Ordering::Relaxed)
    }

    /// Records that the current thread is about to acquire `name` at
    /// `site`. Panics on a recursive acquisition or an order inversion.
    /// Called *before* the underlying lock call so an inversion is
    /// reported instead of deadlocking.
    pub fn record_acquire(name: &'static str, site: &Location<'_>) {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        let site = format!("{}:{}", site.file(), site.line());
        HELD.with(|cell| {
            let mut held = cell.borrow_mut();
            if let Some((_, earlier)) = held.iter().find(|(h, _)| *h == name) {
                // wlc-lint: allow(panic, reason = "the checker's whole purpose: fail fast in debug builds instead of deadlocking")
                panic!(
                    "lock-order violation: recursive acquisition of `{name}` at {site}; \
                     this thread already holds it since {earlier}"
                );
            }
            if !held.is_empty() {
                let mut edges = edges().lock().unwrap_or_else(PoisonError::into_inner);
                for (h, hsite) in held.iter() {
                    if let Some(reverse) = edges.get(&(name, *h)) {
                        // wlc-lint: allow(panic, reason = "the checker's whole purpose: fail fast in debug builds instead of deadlocking")
                        panic!(
                            "lock-order violation: acquiring `{name}` at {site} while holding \
                             `{h}` (acquired at {hsite}), but the opposite order was observed \
                             earlier: {reverse}"
                        );
                    }
                }
                for (h, hsite) in held.iter() {
                    edges.entry((*h, name)).or_insert_with(|| {
                        format!("`{h}` acquired at {hsite}, then `{name}` at {site}")
                    });
                }
            }
            held.push((name, site));
        });
    }

    /// Records that the current thread released `name` (most recent
    /// acquisition first, matching guard drop order).
    pub fn record_release(name: &'static str) {
        HELD.with(|cell| {
            let mut held = cell.borrow_mut();
            if let Some(i) = held.iter().rposition(|(h, _)| *h == name) {
                held.remove(i);
            }
        });
    }
}

/// Total tracked-lock acquisitions observed so far in this process.
///
/// Always 0 in release builds (the checker compiles away); in debug
/// builds, tests use this to assert the detector was live while they
/// exercised a contended path.
// wlc-lint: allow(unreferenced-pub, reason = "the contention tests in crates/exec/tests/contention.rs and crates/serve/tests/contention.rs assert the detector was live")
pub fn tracked_acquisitions() -> u64 {
    #[cfg(debug_assertions)]
    {
        order::acquisitions()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// A [`Mutex`] participating in debug-build lock-order checking.
///
/// # Examples
///
/// ```
/// use wlc_exec::TrackedMutex;
///
/// let m = TrackedMutex::new("Example.counter", 0u32);
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 1);
/// ```
#[derive(Debug, Default)]
pub struct TrackedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

/// RAII guard for [`TrackedMutex`]; releasing it pops the lock from the
/// thread's held-order stack.
#[derive(Debug)]
pub struct TrackedMutexGuard<'a, T> {
    name: &'static str,
    // `Some` from construction until consumed by `TrackedCondvar::wait`;
    // `Drop` only releases the order entry while the guard is live.
    guard: Option<MutexGuard<'a, T>>,
}

impl<T> TrackedMutex<T> {
    /// Wraps `value` under the lock class `name` (e.g.
    /// `"BoundedQueue.state"`). The name is the identity used for order
    /// checking, shared by every instance of the class.
    pub const fn new(name: &'static str, value: T) -> Self {
        TrackedMutex {
            name,
            inner: Mutex::new(value),
        }
    }

    /// The lock-class name.
    pub fn name(&self) -> &'static str {
        // wlc-lint: allow(guard-coverage, reason = "name is an immutable &'static str set at construction")
        self.name
    }

    /// Acquires the lock, recovering from poison (see module docs).
    ///
    /// # Panics
    ///
    /// In debug builds, panics on a lock-order inversion or recursive
    /// acquisition instead of risking a deadlock.
    #[track_caller]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        // wlc-lint: allow(guard-coverage, reason = "order check must read the immutable name before blocking on the lock")
        order::record_acquire(self.name, std::panic::Location::caller());
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        TrackedMutexGuard {
            name: self.name,
            guard: Some(guard),
        }
    }
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.guard {
            Some(g) => g,
            // wlc-lint: allow(panic, reason = "guard invariant: Some until consumed by wait, which never derefs after take")
            None => unreachable!("tracked guard used after being consumed"),
        }
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.guard {
            Some(g) => g,
            // wlc-lint: allow(panic, reason = "guard invariant: Some until consumed by wait, which never derefs after take")
            None => unreachable!("tracked guard used after being consumed"),
        }
    }
}

impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        if self.guard.is_some() {
            order::record_release(self.name);
        }
    }
}

/// A [`Condvar`] usable with [`TrackedMutex`] guards.
///
/// While a thread is parked in [`TrackedCondvar::wait`] the mutex is
/// genuinely released, so the wait un-registers the lock from the
/// thread's held stack and re-registers it (re-checking order) on wake.
#[derive(Debug, Default)]
pub struct TrackedCondvar {
    inner: Condvar,
}

impl TrackedCondvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        TrackedCondvar {
            inner: Condvar::new(),
        }
    }

    /// Atomically releases `guard` and parks until notified, then
    /// re-acquires the same lock (re-checked against the order
    /// registry) and returns a fresh guard.
    #[track_caller]
    pub fn wait<'a, T>(&self, mut guard: TrackedMutexGuard<'a, T>) -> TrackedMutexGuard<'a, T> {
        let name = guard.name;
        match guard.guard.take() {
            Some(inner) => {
                #[cfg(debug_assertions)]
                order::record_release(name);
                #[cfg(debug_assertions)]
                let caller = std::panic::Location::caller();
                let inner = self
                    .inner
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
                #[cfg(debug_assertions)]
                order::record_acquire(name, caller);
                TrackedMutexGuard {
                    name,
                    guard: Some(inner),
                }
            }
            // Unreachable by construction (guards hold `Some` until
            // consumed here, and `wait` consumes the guard); returning
            // the empty guard keeps this path panic-free regardless.
            None => guard,
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// An [`RwLock`] participating in debug-build lock-order checking.
///
/// Read and write acquisitions are deliberately not distinguished in
/// the order registry: reader/writer ordering cycles deadlock just as
/// readily once a writer is queued, so the conservative class-level
/// check applies to both.
///
/// # Examples
///
/// ```
/// use wlc_exec::TrackedRwLock;
///
/// let l = TrackedRwLock::new("Example.table", vec![1, 2]);
/// assert_eq!(l.read().len(), 2);
/// l.write().push(3);
/// assert_eq!(l.read().len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct TrackedRwLock<T> {
    name: &'static str,
    inner: RwLock<T>,
}

/// Shared-read guard for [`TrackedRwLock`].
#[derive(Debug)]
pub struct TrackedReadGuard<'a, T> {
    name: &'static str,
    guard: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`TrackedRwLock`].
#[derive(Debug)]
pub struct TrackedWriteGuard<'a, T> {
    name: &'static str,
    guard: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> TrackedRwLock<T> {
    /// Wraps `value` under the lock class `name`.
    pub const fn new(name: &'static str, value: T) -> Self {
        TrackedRwLock {
            name,
            inner: RwLock::new(value),
        }
    }

    /// The lock-class name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires a shared read guard (order-checked in debug builds,
    /// poison-recovering).
    #[track_caller]
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        order::record_acquire(self.name, std::panic::Location::caller());
        TrackedReadGuard {
            name: self.name,
            guard: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquires the exclusive write guard (order-checked in debug
    /// builds, poison-recovering).
    #[track_caller]
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        order::record_acquire(self.name, std::panic::Location::caller());
        TrackedWriteGuard {
            name: self.name,
            guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<T> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::record_release(self.name);
        #[cfg(not(debug_assertions))]
        let _ = self.name;
    }
}

impl<T> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        order::record_release(self.name);
        #[cfg(not(debug_assertions))]
        let _ = self.name;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_round_trips_and_counts() {
        let before = tracked_acquisitions();
        let m = TrackedMutex::new("tests.round_trip", 41u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.name(), "tests.round_trip");
        if cfg!(debug_assertions) {
            assert!(tracked_acquisitions() >= before + 2);
        }
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = TrackedRwLock::new("tests.rw", String::from("a"));
        {
            let r1 = l.read();
            assert_eq!(&*r1, "a");
        }
        l.write().push('b');
        assert_eq!(&*l.read(), "ab");
        assert_eq!(l.name(), "tests.rw");
    }

    #[test]
    fn condvar_wait_hands_the_guard_back() {
        use std::sync::Arc;

        let m = Arc::new(TrackedMutex::new("tests.cv_state", false));
        let cv = Arc::new(TrackedCondvar::new());
        let waker = {
            let m = Arc::clone(&m);
            let cv = Arc::clone(&cv);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                *m.lock() = true;
                cv.notify_all();
            })
        };
        let mut guard = m.lock();
        while !*guard {
            guard = cv.wait(guard);
        }
        drop(guard);
        waker.join().expect("waker thread");
        // The lock is fully released and re-usable after the wait.
        assert!(*m.lock());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn order_inversion_panics_with_provenance() {
        let a = TrackedMutex::new("tests.inv_a", ());
        let b = TrackedMutex::new("tests.inv_b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // records tests.inv_a -> tests.inv_b
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gb = b.lock();
            let _ga = a.lock(); // inversion: must panic, not deadlock later
        }))
        .expect_err("inverted acquisition order must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(msg.contains("tests.inv_a"), "{msg}");
        assert!(msg.contains("tracked.rs:"), "missing provenance: {msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn recursive_acquisition_panics() {
        let m = TrackedMutex::new("tests.recursive", ());
        let _g = m.lock();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _again = m.lock();
        }))
        .expect_err("recursive acquisition must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("recursive acquisition"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn consistent_order_never_fires() {
        // Same order from two threads: no inversion, no panic.
        use std::sync::Arc;

        let a = Arc::new(TrackedMutex::new("tests.ok_a", 0u64));
        let b = Arc::new(TrackedMutex::new("tests.ok_b", 0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let mut ga = a.lock();
                        let mut gb = b.lock();
                        *ga += 1;
                        *gb += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(*a.lock(), 800);
        assert_eq!(*b.lock(), 800);
    }
}
