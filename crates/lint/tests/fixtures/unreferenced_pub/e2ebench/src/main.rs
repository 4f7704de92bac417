//! A benchmark workload reads `bench_entry`; its test module does not
//! read `orphan`.

fn main() {
    println!("{}", wlc::core::bench_entry());
}

#[cfg(test)]
mod tests {
    #[test]
    fn orphan_is_one() {
        assert_eq!(wlc::core::orphan(), 1);
    }
}
