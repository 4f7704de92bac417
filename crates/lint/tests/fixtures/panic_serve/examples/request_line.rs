//! Calls the fixture's entry points, as a real example program would,
//! so the `unreferenced-pub` rule sees them read and the fixture trips
//! only its own seeded rule.

fn main() {
    println!("{:?}", wlc_serve::parse_request_line("GET / 1"));
}
