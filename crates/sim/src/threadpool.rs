use std::collections::VecDeque;

use crate::des::SimTime;
use crate::transaction::TransactionKind;

/// A transaction in flight: its class routes it and draws its demands,
/// its arrival time gives its response time when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Txn {
    pub(crate) kind: TransactionKind,
    pub(crate) arrival: SimTime,
}

/// A finite pool of servers (threads or DB connections) with a FIFO queue.
///
/// Used for the three middle-tier work queues and the database connection
/// pool. Tracks the busy-server time integral for utilization reporting.
#[derive(Debug, Clone)]
pub(crate) struct Pool {
    servers: u32,
    busy: u32,
    queue: VecDeque<Txn>,
    busy_area: f64,
    last_update: SimTime,
    peak_queue: usize,
}

impl Pool {
    /// Creates a pool with `servers` servers (must be >= 1, validated by
    /// the configuration layer).
    pub(crate) fn new(servers: u32) -> Self {
        debug_assert!(servers >= 1);
        Pool {
            servers,
            busy: 0,
            queue: VecDeque::new(),
            busy_area: 0.0,
            last_update: SimTime::ZERO,
            peak_queue: 0,
        }
    }

    /// Number of servers.
    pub(crate) fn servers(&self) -> u32 {
        self.servers
    }

    /// Currently busy servers.
    pub(crate) fn busy(&self) -> u32 {
        self.busy
    }

    /// Current queue length.
    #[allow(dead_code)] // diagnostic accessor, exercised by tests
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Largest queue length observed.
    #[allow(dead_code)] // diagnostic accessor, exercised by tests
    pub(crate) fn peak_queue(&self) -> usize {
        self.peak_queue
    }

    /// Tries to take a free server at time `now`; returns `true` on
    /// success. On failure the caller should [`Pool::enqueue`].
    pub(crate) fn try_acquire(&mut self, now: SimTime) -> bool {
        if self.busy < self.servers {
            self.advance(now);
            self.busy += 1;
            true
        } else {
            false
        }
    }

    /// Adds a transaction to the wait queue.
    pub(crate) fn enqueue(&mut self, txn: Txn) {
        self.queue.push_back(txn);
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Releases one busy server at time `now` and, if someone is waiting,
    /// immediately re-acquires it for the next queued transaction
    /// (returned so the caller can start its service).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if no server is busy.
    pub(crate) fn release(&mut self, now: SimTime) -> Option<Txn> {
        debug_assert!(self.busy > 0, "release on an idle pool");
        self.advance(now);
        match self.queue.pop_front() {
            Some(next) => {
                // Server hands off directly to the next waiter; busy count
                // is unchanged.
                Some(next)
            }
            None => {
                self.busy -= 1;
                None
            }
        }
    }

    /// Accumulates the busy-time integral up to `now`.
    fn advance(&mut self, now: SimTime) {
        let dt = now.as_secs() - self.last_update.as_secs();
        if dt > 0.0 {
            self.busy_area += self.busy as f64 * dt;
            self.last_update = now;
        }
    }

    /// Mean utilization over `[0, now]` (busy-server fraction).
    pub(crate) fn utilization(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        let total = now.as_secs();
        if total <= 0.0 {
            return 0.0;
        }
        (self.busy_area / (total * self.servers as f64)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A transaction told apart from the others by its arrival time.
    fn txn(arrival: f64) -> Txn {
        Txn {
            kind: TransactionKind::Manufacturing,
            arrival: t(arrival),
        }
    }

    #[test]
    fn acquire_until_full() {
        let mut p = Pool::new(2);
        assert!(p.try_acquire(t(0.0)));
        assert!(p.try_acquire(t(0.0)));
        assert!(!p.try_acquire(t(0.0)));
        assert_eq!(p.busy(), 2);
    }

    #[test]
    fn release_hands_off_to_waiter() {
        let mut p = Pool::new(1);
        assert!(p.try_acquire(t(0.0)));
        p.enqueue(txn(7.0));
        p.enqueue(txn(8.0));
        // First release hands the server to txn 7 without freeing it.
        assert_eq!(p.release(t(1.0)), Some(txn(7.0)));
        assert_eq!(p.busy(), 1);
        assert_eq!(p.release(t(2.0)), Some(txn(8.0)));
        assert_eq!(p.busy(), 1);
        assert_eq!(p.release(t(3.0)), None);
        assert_eq!(p.busy(), 0);
    }

    #[test]
    fn fifo_queue_order() {
        let mut p = Pool::new(1);
        assert!(p.try_acquire(t(0.0)));
        for arrival in [10.0, 11.0, 12.0] {
            p.enqueue(txn(arrival));
        }
        assert_eq!(p.release(t(1.0)), Some(txn(10.0)));
        assert_eq!(p.release(t(2.0)), Some(txn(11.0)));
        assert_eq!(p.release(t(3.0)), Some(txn(12.0)));
    }

    #[test]
    fn utilization_integral() {
        let mut p = Pool::new(2);
        // One of two servers busy from t=0 to t=10:
        // busy integral = 1*10 = 10, capacity = 2*10 = 20 -> 0.5.
        assert!(p.try_acquire(t(0.0)));
        p.release(t(10.0));
        let u = p.utilization(t(10.0));
        assert!((u - 0.5).abs() < 1e-12, "{u}");
    }

    #[test]
    fn utilization_with_idle_tail() {
        let mut p = Pool::new(1);
        assert!(p.try_acquire(t(0.0)));
        p.release(t(5.0));
        let u = p.utilization(t(20.0));
        assert!((u - 0.25).abs() < 1e-12, "{u}");
    }

    #[test]
    fn utilization_zero_time_is_zero() {
        let mut p = Pool::new(1);
        assert_eq!(p.utilization(t(0.0)), 0.0);
    }

    #[test]
    fn peak_queue_tracked() {
        let mut p = Pool::new(1);
        assert!(p.try_acquire(t(0.0)));
        p.enqueue(txn(1.0));
        p.enqueue(txn(2.0));
        p.release(t(1.0));
        p.enqueue(txn(3.0));
        assert_eq!(p.peak_queue(), 2);
        assert_eq!(p.queue_len(), 2);
    }
}
