//! Facade: a `pub use` re-export is not a reader.

#![forbid(unsafe_code)]

pub use wlc_core::orphan;
