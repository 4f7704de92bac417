//! Another crate's non-test code reads `shared_helper`.

#![forbid(unsafe_code)]

fn load_rows() -> u32 {
    wlc_core::shared_helper()
}
