//! Fixture: two `pub` items that no non-test code reads. Must trip the
//! `unreferenced-pub` rule exactly twice (and no other rule). The four
//! items read by another crate, by `examples/`, by `e2ebench/src/` or
//! kept under a reasoned allow must pass.

#![forbid(unsafe_code)]

/// Read only by this crate's test module, by `crates/core/tests/`, by
/// the facade's `pub use` and by this doc example:
///
/// ```
/// assert_eq!(wlc_core::orphan(), 1);
/// ```
pub fn orphan() -> u32 {
    1
}

/// Read only by its own `impl` blocks.
pub struct Lonely {
    n: u32,
}

impl Lonely {
    fn fresh() -> Lonely {
        Lonely { n: 0 }
    }
}

impl Clone for Lonely {
    fn clone(&self) -> Lonely {
        let mut copy = Lonely::fresh();
        copy.n = self.n;
        copy
    }
}

/// Called from another crate.
pub fn shared_helper() -> u32 {
    2
}

/// Called from `examples/`.
pub fn example_entry() -> u32 {
    3
}

/// Called from `e2ebench/src/`.
pub fn bench_entry() -> u32 {
    4
}

/// Read only by a test, and kept for it.
// wlc-lint: allow(unreferenced-pub, reason = "crates/core/tests/orphan.rs::kept_for_test pins its value")
pub fn kept_for_test() -> u32 {
    5
}

#[cfg(test)]
mod tests {
    #[test]
    fn orphan_is_one() {
        assert_eq!(super::orphan(), 1);
    }
}
