//! Integration tests never count as readers.

#[test]
fn orphan_is_one() {
    assert_eq!(wlc_core::orphan(), 1);
}

#[test]
fn kept_for_test() {
    assert_eq!(wlc_core::kept_for_test(), 5);
}
