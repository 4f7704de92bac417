//! Self-test fixture: bare `unwrap`/`expect` and an `eprintln!` in serve
//! non-test code.
//!
//! wlc-lint must report all three panic sites with file:line; the
//! `println!` in a doc comment and the test-module unwrap must NOT be
//! reported.

#![forbid(unsafe_code)]

/// Splits off the status, as in
/// `println!("{:?}", parse_request_line("GET / 1"))`.
pub fn parse_request_line(line: &str) -> (u32, u32) {
    let status: u32 = line.split(' ').next().unwrap().parse().expect("status");
    eprintln!("wlc-serve status={status}");
    (status, line.len() as u32)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_here() {
        let x: Option<u32> = Some(1);
        assert_eq!(x.unwrap(), 1);
    }
}
