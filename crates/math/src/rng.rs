//! Seeded pseudo-random number generation.
//!
//! Everything in this workspace that needs randomness — weight
//! initialization, mini-batch shuffling, the discrete-event simulator's
//! arrival and service processes — draws from the generators defined here,
//! so every experiment is reproducible from a single [`Seed`].
//!
//! Two generators are provided:
//!
//! - [`SplitMix64`] — tiny, fast; used to expand a seed into state.
//! - [`Xoshiro256`] — xoshiro256++, the general-purpose generator.
//!
//! [`WeightedIndex`] validates a set of weights once for repeated
//! weighted index draws from a [`Xoshiro256`].

use std::fmt;

/// A newtype around a `u64` seed value.
///
/// Using a dedicated type (rather than a bare `u64`) keeps seeds from being
/// confused with counts or identifiers at API boundaries.
///
/// # Examples
///
/// ```
/// use wlc_math::rng::{Seed, Xoshiro256};
///
/// let seed = Seed::new(7);
/// let mut a = Xoshiro256::from_seed(seed);
/// let mut b = Xoshiro256::from_seed(seed);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Seed(u64);

impl Seed {
    /// Creates a seed from a raw `u64`.
    pub fn new(value: u64) -> Self {
        Seed(value)
    }

    /// Returns the raw seed value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Derives a new, statistically independent seed for a sub-stream.
    ///
    /// This lets one experiment seed fan out into per-run or per-component
    /// seeds without correlation between the streams.
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::rng::Seed;
    /// let root = Seed::new(1);
    /// assert_ne!(root.derive(0), root.derive(1));
    /// ```
    pub fn derive(self, stream: u64) -> Seed {
        let mut sm = SplitMix64::new(self.0 ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Seed(sm.next_u64())
    }
}

impl From<u64> for Seed {
    fn from(value: u64) -> Self {
        Seed(value)
    }
}

impl fmt::Display for Seed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The SplitMix64 generator.
///
/// Primarily used to expand a single seed into the larger state of
/// [`Xoshiro256`], but usable on its own for cheap, low-stakes randomness.
///
/// # Examples
///
/// ```
/// use wlc_math::rng::SplitMix64;
/// let mut sm = SplitMix64::new(42);
/// let a = sm.next_u64();
/// let b = sm.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256++ pseudo-random number generator.
///
/// A small, fast, high-quality generator with 256 bits of state. All
/// stochastic components in the workspace are driven by this type.
///
/// # Examples
///
/// ```
/// use wlc_math::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::seed_from(123);
/// let u = rng.next_f64();          // uniform in [0, 1)
/// let e = rng.next_exponential(2.0).unwrap(); // mean 1/2
/// assert!((0.0..1.0).contains(&u));
/// assert!(e >= 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a [`Seed`].
    pub fn from_seed(seed: Seed) -> Self {
        let mut sm = SplitMix64::new(seed.value());
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // Guard against the all-zero state, which is a fixed point.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    /// Convenience constructor from a raw `u64` seed.
    pub fn seed_from(seed: u64) -> Self {
        Self::from_seed(Seed::new(seed))
    }

    /// Returns the next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `low > high`.
    pub fn next_range(&mut self, low: f64, high: f64) -> f64 {
        debug_assert!(low <= high, "next_range requires low <= high");
        low + (high - low) * self.next_f64()
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Widening-multiply rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns an exponential variate with the given rate (mean `1/rate`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::MathError::InvalidParameter`] if `rate <= 0`.
    pub fn next_exponential(&mut self, rate: f64) -> Result<f64, crate::MathError> {
        if rate <= 0.0 || !rate.is_finite() {
            return Err(crate::MathError::InvalidParameter {
                name: "rate",
                reason: "must be positive and finite",
            });
        }
        let u = 1.0 - self.next_f64(); // in (0, 1]
        Ok(-u.ln() / rate)
    }

    /// Shuffles a slice in place (Fisher-Yates).
    ///
    /// # Examples
    ///
    /// ```
    /// use wlc_math::rng::Xoshiro256;
    /// let mut rng = Xoshiro256::seed_from(9);
    /// let mut v: Vec<u32> = (0..10).collect();
    /// rng.shuffle(&mut v);
    /// let mut sorted = v.clone();
    /// sorted.sort();
    /// assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    /// ```
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Returns a random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx
    }

    /// Picks an index according to the given (unnormalized) weights: one
    /// [`WeightedIndex::new`] and one [`WeightedIndex::pick`]. A caller
    /// drawing many times from the same weights should build the
    /// [`WeightedIndex`] once.
    ///
    /// # Errors
    ///
    /// As for [`WeightedIndex::new`].
    pub fn pick_weighted(&mut self, weights: &[f64]) -> Result<usize, crate::MathError> {
        Ok(WeightedIndex::new(weights)?.pick(self))
    }
}

/// Weights validated once for repeated weighted index draws: non-empty,
/// non-negative, finite, with a positive sum.
///
/// # Examples
///
/// ```
/// use wlc_math::rng::{WeightedIndex, Xoshiro256};
///
/// let mix = WeightedIndex::new([0.0, 1.0, 3.0])?;
/// let mut rng = Xoshiro256::seed_from(1);
/// let i = mix.pick(&mut rng);
/// assert!(i == 1 || i == 2);
/// # Ok::<(), wlc_math::MathError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex<W> {
    weights: W,
    total: f64,
}

impl<W: AsRef<[f64]>> WeightedIndex<W> {
    /// Validates `weights` and sums them in index order.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MathError::InvalidParameter`] if `weights` is empty,
    /// contains a negative or non-finite value, or sums to zero.
    pub fn new(weights: W) -> Result<Self, crate::MathError> {
        let slice = weights.as_ref();
        if slice.is_empty() {
            return Err(crate::MathError::InvalidParameter {
                name: "weights",
                reason: "must not be empty",
            });
        }
        let mut total = 0.0;
        for &w in slice {
            if !(w.is_finite() && w >= 0.0) {
                return Err(crate::MathError::InvalidParameter {
                    name: "weights",
                    reason: "must be non-negative and finite",
                });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(crate::MathError::InvalidParameter {
                name: "weights",
                reason: "must sum to a positive value",
            });
        }
        Ok(WeightedIndex { weights, total })
    }

    /// Draws an index with probability proportional to its weight, from
    /// exactly one [`Xoshiro256::next_f64`].
    pub fn pick(&self, rng: &mut Xoshiro256) -> usize {
        let weights = self.weights.as_ref();
        let mut target = rng.next_f64() * self.total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference values for seed 0 from the canonical SplitMix64.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn xoshiro_deterministic_per_seed() {
        let mut a = Xoshiro256::seed_from(1);
        let mut b = Xoshiro256::seed_from(1);
        let mut c = Xoshiro256::seed_from(2);
        let av: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        let cv: Vec<u64> = (0..10).map(|_| c.next_u64()).collect();
        assert_eq!(av, bv);
        assert_ne!(av, cv);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut rng = Xoshiro256::seed_from(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Xoshiro256::seed_from(6);
        let rate = 4.0;
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.next_exponential(rate).unwrap()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        let mut rng = Xoshiro256::seed_from(7);
        assert!(rng.next_exponential(0.0).is_err());
        assert!(rng.next_exponential(-1.0).is_err());
        assert!(rng.next_exponential(f64::NAN).is_err());
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = Xoshiro256::seed_from(9);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = rng.next_below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Xoshiro256::seed_from(10).next_below(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256::seed_from(11);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // With 50 elements, identity permutation is effectively impossible.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_covers_all_indices() {
        let mut rng = Xoshiro256::seed_from(12);
        let p = rng.permutation(20);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let mut rng = Xoshiro256::seed_from(13);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        let n = 40_000;
        for _ in 0..n {
            counts[rng.pick_weighted(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let frac1 = counts[1] as f64 / n as f64;
        assert!((frac1 - 0.25).abs() < 0.02, "frac1 was {frac1}");
    }

    #[test]
    fn pick_weighted_rejects_bad_input() {
        let mut rng = Xoshiro256::seed_from(14);
        assert!(rng.pick_weighted(&[]).is_err());
        assert!(rng.pick_weighted(&[-1.0, 2.0]).is_err());
        assert!(rng.pick_weighted(&[0.0, 0.0]).is_err());
        assert!(rng.pick_weighted(&[f64::NAN]).is_err());
        assert!(rng.pick_weighted(&[1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn weighted_index_pick_draws_one_uniform() {
        // A simulation's stream must not shift with how often its mix is
        // validated: every pick consumes exactly one `next_f64`.
        let mix = WeightedIndex::new([0.4, 0.0, 0.25, 0.35]).unwrap();
        let mut rng = Xoshiro256::seed_from(18);
        let mut reference = rng.clone();
        for _ in 0..1_000 {
            assert_ne!(mix.pick(&mut rng), 1, "a zero weight is never picked");
            reference.next_f64();
            assert_eq!(rng, reference);
        }
    }

    #[test]
    fn seed_derive_distinct_streams() {
        let root = Seed::new(99);
        let mut seen = std::collections::HashSet::new();
        for stream in 0..100 {
            assert!(seen.insert(root.derive(stream)));
        }
    }

    #[test]
    fn seed_display_and_from() {
        let s: Seed = 42u64.into();
        assert_eq!(s.to_string(), "42");
        assert_eq!(s.value(), 42);
    }

    #[test]
    fn next_range_bounds() {
        let mut rng = Xoshiro256::seed_from(16);
        for _ in 0..1000 {
            let x = rng.next_range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn clone_preserves_stream() {
        let mut a = Xoshiro256::seed_from(17);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
