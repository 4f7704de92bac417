//! Discrete-event-simulation primitives: the simulation clock and a
//! deterministic time-ordered event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, Sub};

/// Simulation time in seconds, as a totally ordered newtype over `f64`.
///
/// # Examples
///
/// ```
/// use wlc_sim::SimTime;
/// let t = SimTime::ZERO + SimTime::from_secs(1.5);
/// assert!(t > SimTime::ZERO);
/// assert_eq!(t.as_secs(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero, the start of every simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite — simulation time is
    /// always a finite, non-negative quantity.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "simulation time must be finite and non-negative, got {secs}"
        );
        SimTime(secs)
    }

    /// The time value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics in debug builds if the result would be negative.
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "negative time difference");
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

/// A scheduled entry in the event queue, ordered by one integer key:
/// the time's [`f64::total_cmp`] order key in the high 64 bits and the
/// insertion sequence number in the low 64. Comparing keys is exactly
/// comparing `(time.total_cmp, seq)`, including `-0.0 < +0.0` and the
/// FIFO order of equal times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn new(time: SimTime, seq: u64, event: E) -> Self {
        let bits = time.0.to_bits();
        // Negative times flip every bit, the rest set the sign bit: the
        // unsigned order of the result is `total_cmp`'s order.
        let order = bits ^ (((bits as i64 >> 63) as u64) | 1 << 63);
        Entry {
            key: (order as u128) << 64 | seq as u128,
            event,
        }
    }

    /// The scheduled time: `new`'s mapping undone (a set top bit marks a
    /// non-negative time).
    fn time(&self) -> SimTime {
        let order = (self.key >> 64) as u64;
        SimTime(f64::from_bits(
            order ^ (((!order as i64 >> 63) as u64) | 1 << 63),
        ))
    }
}

// Reversed so BinaryHeap pops the *smallest* key.
impl<E: Eq> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E: Eq> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A deterministic future-event list: a binary heap plus one slot for
/// the arrival stream.
///
/// Events at equal timestamps pop in insertion order (FIFO tiebreak), so
/// simulations are bit-reproducible for a given seed. The arrival stream
/// has at most one arrival pending, so it waits in its own slot instead
/// of the heap; both draw sequence numbers from one counter, and [`pop`]
/// takes whichever of the slot and the heap top has the smaller key.
///
/// [`pop`]: EventQueue::pop
///
/// # Examples
///
/// ```
/// use wlc_sim::SimTime;
/// // EventQueue is crate-internal; this example shows SimTime ordering.
/// assert!(SimTime::from_secs(1.0) < SimTime::from_secs(2.0));
/// ```
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    arrival: Option<Entry<E>>,
    seq: u64,
}

impl<E: Eq> EventQueue<E> {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            arrival: None,
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub(crate) fn schedule(&mut self, time: SimTime, event: E) {
        self.heap.push(Entry::new(time, self.seq, event));
        self.seq += 1;
    }

    /// Schedules the arrival stream's next `event` at `time` in the
    /// arrival slot.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an arrival is already pending.
    pub(crate) fn schedule_arrival(&mut self, time: SimTime, event: E) {
        debug_assert!(self.arrival.is_none(), "one arrival pending at a time");
        self.arrival = Some(Entry::new(time, self.seq, event));
        self.seq += 1;
    }

    /// Pops the earliest event, returning `(time, event)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let arrival_first = match (&self.arrival, self.heap.peek()) {
            (Some(arrival), Some(top)) => arrival.key < top.key,
            (arrival, _) => arrival.is_some(),
        };
        let entry = if arrival_first {
            self.arrival.take()
        } else {
            self.heap.pop()
        };
        entry.map(|e| (e.time(), e.event))
    }

    /// Number of pending events, the arrival slot included.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + usize::from(self.arrival.is_some())
    }

    /// Whether no events are pending, the arrival slot included.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use wlc_math::propcheck;

    use super::*;

    #[test]
    fn simtime_ordering_and_arithmetic() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.5);
        assert!(a < b);
        assert_eq!((a + b).as_secs(), 3.5);
        assert_eq!((b - a).as_secs(), 1.5);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn simtime_rejects_negative() {
        SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn simtime_rejects_nan() {
        SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn queue_pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), "c");
        q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn queue_fifo_tiebreak_at_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn queue_len_tracking() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule_arrival(SimTime::from_secs(2.0), 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), 2)));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_order_is_a_reference_sort_on_time_then_seq() {
        // Zeros of both signs, subnormals, huge and repeated values (and,
        // though no simulation makes them, negatives): the key must order
        // every one of them as `total_cmp`, with FIFO ties.
        let special = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::MAX,
            f64::INFINITY,
            -f64::from_bits(1),
            -2.5,
        ];
        propcheck::run_cases(64, |g| {
            let mut q = EventQueue::new();
            // The reference: every pending (time, seq), seq as the event.
            let mut pending: Vec<(f64, u64)> = Vec::new();
            let mut arrival: Option<u64> = None;
            let mut seq = 0u64;
            let steps = g.usize_in(1, 300);
            for step in 0..steps + 300 {
                let action = if step < steps { g.usize_in(0, 4) } else { 3 };
                let time = if g.usize_in(0, 2) == 0 {
                    *g.pick(&special)
                } else {
                    g.f64_in(0.0, 4.0)
                };
                match action {
                    0 | 1 => {
                        q.schedule(SimTime(time), seq);
                        pending.push((time, seq));
                        seq += 1;
                    }
                    2 if arrival.is_none() => {
                        q.schedule_arrival(SimTime(time), seq);
                        pending.push((time, seq));
                        arrival = Some(seq);
                        seq += 1;
                    }
                    _ => {
                        let expected = pending
                            .iter()
                            .enumerate()
                            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                            .map(|(i, _)| i);
                        let popped = q.pop();
                        match expected {
                            None => assert!(popped.is_none()),
                            Some(i) => {
                                let (time, event) = pending.remove(i);
                                let (got_time, got_event) = popped.expect("an event is pending");
                                assert_eq!(got_event, event);
                                assert_eq!(got_time.as_secs().to_bits(), time.to_bits());
                                if arrival == Some(event) {
                                    arrival = None;
                                }
                            }
                        }
                    }
                }
                assert_eq!(q.len(), pending.len());
                assert_eq!(q.is_empty(), pending.is_empty());
            }
            assert!(q.is_empty());
        });
    }

    #[test]
    fn pop_returns_scheduled_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(4.25), "x");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t.as_secs(), 4.25);
        assert_eq!(e, "x");
    }

    #[test]
    fn simtime_display() {
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500000s");
    }
}
