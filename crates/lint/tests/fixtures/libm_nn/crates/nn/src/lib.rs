//! Self-test fixture: std's libm-backed `exp` inside a seeded crate.
//!
//! wlc-lint must report the `exp()` call in non-test code of
//! `crates/nn`; the pinned call, the annotated one and the test-module
//! one must pass.

#![forbid(unsafe_code)]

pub fn logistic(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

pub fn pinned_logistic(x: f64) -> f64 {
    1.0 / (1.0 + wlc_math::elementary::exp(-x))
}

pub fn justified_power(beta: f64, t: f64) -> f64 {
    // wlc-lint: allow(determinism, reason = "fixture: demonstrates a justified suppression")
    beta.powf(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn libm_is_fine_in_tests() {
        assert!((logistic(0.5) - 1.0 / (1.0 + (-0.5f64).exp())).abs() < 1e-15);
    }
}
