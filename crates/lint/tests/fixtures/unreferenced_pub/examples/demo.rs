//! An example program reads `example_entry`.

fn main() {
    println!("{}", wlc::core::example_entry());
}
