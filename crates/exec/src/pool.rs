//! The indexed worker pool.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The default worker count: the hardware's available parallelism, or 1
/// if it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f(0..n)` on up to `jobs` worker threads and returns the results
/// in index order, or the error of the lowest-index failing task (the
/// same error a sequential run would hit first), skipping tasks not yet
/// claimed once a failure is seen.
///
/// `jobs` is clamped to `1..=n`; with one worker (or one task) everything
/// runs on the calling thread. A panicking task is re-raised here once
/// the remaining in-flight tasks have finished.
///
/// # Errors
///
/// The lowest-index task error, if any task fails.
pub fn try_map_indexed<T, E, F>(jobs: usize, n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let jobs = jobs.min(n);
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let mut init: Vec<Option<Result<T, E>>> = Vec::new();
    init.resize_with(n, || None);
    let slots = Mutex::new(init);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    return;
                }
                let out = f(index);
                if out.is_err() {
                    stop.store(true, Ordering::Relaxed);
                }
                // Poison recovery: a panicking sibling task is re-raised
                // by `thread::scope` anyway; the vector stays valid after
                // any single assignment.
                // wlc-lint: allow(index, reason = "index comes from fetch_add bounded by the n-sized slot vector")
                slots.lock().unwrap_or_else(PoisonError::into_inner)[index] = Some(out);
            });
        }
    });
    // Tasks are claimed in index order and every claimed task finishes,
    // so the filled slots form a prefix that reaches past the lowest
    // failing index: the error returned is the one a sequential run
    // would hit first.
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map_while(|slot| slot)
        .collect()
}

/// [`try_map_indexed`] with bounded per-task retries: task `index` is
/// attempted with `f(index, 0)`, `f(index, 1)`, … up to `max_retries`
/// retries, and the first `Ok` wins.
///
/// Determinism: the attempt number is passed to the closure so callers can
/// derive per-attempt randomness from `(index, attempt)` — results are then
/// bit-identical for any worker count.
///
/// # Errors
///
/// The lowest-index task whose every attempt failed, with the error from
/// its final attempt.
pub fn try_map_indexed_retry<T, E, F>(
    jobs: usize,
    n: usize,
    max_retries: usize,
    f: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize, usize) -> Result<T, E> + Sync,
{
    try_map_indexed(jobs, n, |index| {
        let mut attempt = 0;
        loop {
            match f(index, attempt) {
                Err(_) if attempt < max_retries => attempt += 1,
                out => return out,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    #[test]
    fn results_in_index_order_any_job_count() {
        for jobs in [1, 2, 3, 8, 64] {
            let got = try_map_indexed(jobs, 17, |i| Ok::<_, Infallible>(i * 3)).unwrap();
            assert_eq!(got, (0..17).map(|i| i * 3).collect::<Vec<_>>(), "{jobs}");
        }
    }

    #[test]
    fn zero_tasks_is_empty() {
        let got: Vec<usize> = try_map_indexed(4, 0, Ok::<_, Infallible>).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn lowest_index_error_wins() {
        for jobs in [1, 4] {
            let err = try_map_indexed(jobs, 20, |i| {
                if i == 3 || i == 11 {
                    Err(format!("task {i}"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, "task 3", "jobs={jobs}");
        }
    }

    #[test]
    fn error_matches_sequential_run() {
        let run =
            |jobs| try_map_indexed(jobs, 50, |i| if i >= 30 { Err(i) } else { Ok(i) }).unwrap_err();
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        let outcome = std::panic::catch_unwind(|| {
            try_map_indexed(4, 8, |i| {
                if i == 5 {
                    panic!("worker exploded");
                }
                Ok::<_, Infallible>(i)
            })
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn retry_recovers_transient_failures() {
        // Tasks 2 and 5 fail on their first two attempts, then succeed.
        for jobs in [1, 4] {
            let values = try_map_indexed_retry(jobs, 8, 3, |i, attempt| {
                if (i == 2 || i == 5) && attempt < 2 {
                    Err(format!("task {i} attempt {attempt}"))
                } else {
                    Ok(i * 10 + attempt)
                }
            })
            .unwrap();
            // Successful attempt number is part of the value: deterministic
            // for any worker count.
            let expected: Vec<usize> = (0..8)
                .map(|i| if i == 2 || i == 5 { i * 10 + 2 } else { i * 10 })
                .collect();
            assert_eq!(values, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn retry_exhaustion_returns_lowest_index_final_error() {
        for jobs in [1, 4] {
            let err = try_map_indexed_retry(jobs, 10, 2, |i, attempt| {
                if i == 3 || i == 7 {
                    Err(format!("task {i} attempt {attempt}"))
                } else {
                    Ok::<usize, String>(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, "task 3 attempt 2", "jobs={jobs}");
        }
    }

    #[test]
    fn zero_retries_matches_plain_try_map() {
        let plain = try_map_indexed(2, 6, |i| {
            if i == 4 {
                Err(i)
            } else {
                Ok::<usize, usize>(i)
            }
        });
        let with_retry = try_map_indexed_retry(2, 6, 0, |i, _| {
            if i == 4 {
                Err(i)
            } else {
                Ok::<usize, usize>(i)
            }
        });
        assert_eq!(plain, with_retry);
    }
}
