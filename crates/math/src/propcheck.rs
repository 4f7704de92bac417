//! A tiny, dependency-free property-testing harness.
//!
//! The workspace's property tests draw random cases from the same
//! [`Xoshiro256`] generator the rest of the system uses, so the whole
//! test suite stays offline and bit-reproducible: every case is derived
//! from a fixed root seed, and a failure message names the case index and
//! seed needed to replay it.
//!
//! # Examples
//!
//! ```
//! use wlc_math::propcheck;
//!
//! propcheck::run_cases(32, |g| {
//!     let n = g.usize_in(1, 10);
//!     let v = g.vec_f64(-1.0, 1.0, n);
//!     assert_eq!(v.len(), n);
//! });
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::{Seed, Xoshiro256};

/// Root seed all property-test cases are derived from.
const ROOT_SEED: u64 = 0x5EED_CA5E_0BAD_F00D;

/// Per-case random value source handed to the property closure.
#[derive(Debug)]
pub struct Gen {
    rng: Xoshiro256,
    seed: Seed,
}

impl Gen {
    /// Creates a generator for one case.
    pub fn from_seed(seed: Seed) -> Self {
        Gen {
            rng: Xoshiro256::from_seed(seed),
            seed,
        }
    }

    /// The case's seed (printed on failure; use to replay one case).
    pub fn seed(&self) -> Seed {
        self.seed
    }

    /// An arbitrary `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A `usize` in the half-open range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "usize_in: empty range {lo}..{hi}");
        lo + self.rng.next_below((hi - lo) as u64) as usize
    }

    /// A `u32` in the half-open range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    // wlc-lint: allow(unreferenced-pub, reason = "crates/sim/tests/proptests.rs and the propcheck cases in serve's json.rs and server.rs draw from it")
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "u32_in: empty range {lo}..{hi}");
        lo + self.rng.next_below(u64::from(hi - lo)) as u32
    }

    /// A `u64` in the half-open range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    // wlc-lint: allow(unreferenced-pub, reason = "crates/math/tests/proptests.rs and the propcheck cases in serve's client.rs, json.rs and server.rs draw from it")
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "u64_in: empty range {lo}..{hi}");
        lo + self.rng.next_below(hi - lo)
    }

    /// An `f64` uniform in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.next_range(lo, hi)
    }

    /// A vector of `len` uniform `f64` values in `[lo, hi)`.
    pub fn vec_f64(&mut self, lo: f64, hi: f64, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.f64_in(lo, hi)).collect()
    }

    /// A vector with a random length in `[lo_len, hi_len)` of uniform
    /// `f64` values in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the length range is empty.
    // wlc-lint: allow(unreferenced-pub, reason = "the math, nn and data crates' tests/proptests.rs draw variable-length samples from it")
    pub fn vec_f64_len(&mut self, lo: f64, hi: f64, lo_len: usize, hi_len: usize) -> Vec<f64> {
        let len = self.usize_in(lo_len, hi_len);
        self.vec_f64(lo, hi, len)
    }

    /// Picks one element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        assert!(!options.is_empty(), "pick: empty slice");
        &options[self.usize_in(0, options.len())]
    }
}

/// Runs `property` against `cases` derived-seed cases.
///
/// Each case gets a fresh [`Gen`] seeded from a fixed root, so the suite
/// is deterministic across runs and machines. On failure the panic is
/// re-raised after printing the case index and seed.
///
/// # Panics
///
/// Re-raises the first failing case's panic.
// wlc-lint: allow(unreferenced-pub, reason = "every property test (crates/*/tests/proptests.rs and the propcheck cases in serve and sim) runs through it")
pub fn run_cases<F>(cases: u64, mut property: F)
where
    F: FnMut(&mut Gen),
{
    for case in 0..cases {
        let seed = Seed::new(ROOT_SEED).derive(case);
        let mut gen = Gen::from_seed(seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut gen)));
        if let Err(payload) = outcome {
            eprintln!("propcheck: case {case}/{cases} failed (replay seed {seed})");
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<u64> = Vec::new();
        run_cases(5, |g| first.push(g.u64()));
        let mut second: Vec<u64> = Vec::new();
        run_cases(5, |g| second.push(g.u64()));
        assert_eq!(first, second);
        // Distinct cases see distinct streams.
        assert_ne!(first[0], first[1]);
    }

    #[test]
    fn ranges_are_respected() {
        run_cases(64, |g| {
            let n = g.usize_in(3, 9);
            assert!((3..9).contains(&n));
            let x = g.f64_in(-2.0, 2.0);
            assert!((-2.0..2.0).contains(&x));
            let v = g.vec_f64_len(0.0, 1.0, 1, 5);
            assert!((1..5).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
            let picked = *g.pick(&[10, 20, 30]);
            assert!([10, 20, 30].contains(&picked));
        });
    }

    #[test]
    fn failing_case_panics() {
        let result = catch_unwind(|| run_cases(3, |_| panic!("boom")));
        assert!(result.is_err());
    }
}
