//! Calls the fixture's entry points, as a real example program would,
//! so the `unreferenced-pub` rule sees them read and the fixture trips
//! only its own seeded rule.

fn main() {
    let xs = [1.0, 2.0, 3.0];
    println!("{} {:?}", wlc_nn::hot_sum(&xs), wlc_nn::cold_copy(&xs));
}
