//! Load generation: an open loop on a fixed schedule and a closed loop
//! of back-to-back senders.
//!
//! Open loop: request `i` is due at `start + i / rate`. Whichever sender
//! is free takes the next due request, so a stalled sender does not
//! stall the schedule. Latency runs from the *due* time, so a stall
//! also charges every request it delays (no coordinated omission), and
//! how late each send ran is kept to judge the generator itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sleeps are coarse (timer slack); the last stretch before a due time
/// is spun so sends leave on schedule.
const SPIN: Duration = Duration::from_micros(200);

/// One open-loop request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub ok: bool,
}

impl Sample {
    /// Milliseconds from the due time to completion; infinite for a
    /// failed request, which misses every latency limit.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// Milliseconds the send ran behind its due time.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Waits until `deadline`: sleeps most of the way, spins the rest.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Offers `count` requests at `rate` per second from `senders` threads.
/// `send(sender, request, due)` performs and checks one request,
/// returning whether it succeeded. Samples come back in request order.
pub fn open_loop<F>(senders: usize, rate: f64, count: usize, send: F) -> Vec<Sample>
where
    F: Fn(usize, u64, Instant) -> bool + Sync,
{
    let period = Duration::from_secs_f64(1.0 / rate);
    let next = AtomicU64::new(0);
    // Leave the threads time to start before the first due time.
    let start = Instant::now() + Duration::from_millis(5);
    let mut samples: Vec<(u64, Sample)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..senders.max(1))
            .map(|sender| {
                let (next, send) = (&next, &send);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count as u64 {
                            return mine;
                        }
                        let due = start + period.mul_f64(i as f64);
                        wait_until(due);
                        let sent = Instant::now();
                        let ok = send(sender, i, due);
                        let done = Instant::now();
                        mine.push((
                            i,
                            Sample {
                                due,
                                sent,
                                done,
                                ok,
                            },
                        ));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop sender panicked"))
            .collect()
    });
    samples.sort_by_key(|&(i, _)| i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// Totals of a closed-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoop {
    /// Requests that succeeded.
    pub ok: u64,
    pub elapsed: Duration,
}

/// Runs `senders` threads that each send back to back for `duration`.
pub fn closed_loop<F>(senders: usize, duration: Duration, send: F) -> ClosedLoop
where
    F: Fn(usize, u64) -> bool + Sync,
{
    let next = AtomicU64::new(0);
    let ok = AtomicU64::new(0);
    let start = Instant::now();
    let stop = start + duration;
    std::thread::scope(|scope| {
        for sender in 0..senders.max(1) {
            let (next, ok, send) = (&next, &ok, &send);
            scope.spawn(move || {
                while Instant::now() < stop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if send(sender, i) {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    ClosedLoop {
        ok: ok.into_inner(),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // One sender at 1000/s; request 0 stalls for 30 ms, so request 1
        // (due at +1 ms) cannot leave before +30 ms. Its own call is
        // instant, yet its latency must include the ~29 ms it waited.
        let samples = open_loop(1, 1000.0, 3, |_, i, _| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            true
        });
        assert_eq!(samples.len(), 3);
        let s1 = samples[1];
        assert!(s1.done - s1.sent < Duration::from_millis(5));
        assert!(s1.latency_ms() >= 28.0, "latency {}", s1.latency_ms());
        assert!(s1.late_ms() >= 28.0, "late {}", s1.late_ms());
        assert!(samples[0].due < s1.due && s1.due < samples[2].due);
    }

    #[test]
    fn failed_request_is_infinitely_late() {
        let samples = open_loop(2, 2000.0, 4, |_, i, _| i != 2);
        assert!(samples[2].latency_ms().is_infinite());
        assert!(samples[3].latency_ms().is_finite());
    }

    #[test]
    fn closed_loop_counts_only_successes() {
        let sent = AtomicU64::new(0);
        let totals = closed_loop(2, Duration::from_millis(20), |_, i| {
            sent.fetch_add(1, Ordering::Relaxed);
            i % 2 == 0
        });
        let sent = sent.into_inner();
        assert!(totals.ok > 0 && totals.ok < sent);
        assert!(totals.elapsed >= Duration::from_millis(20));
    }
}
