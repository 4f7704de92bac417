//! Calls the fixture's entry points, as a real example program would,
//! so the `unreferenced-pub` rule sees them read and the fixture trips
//! only its own seeded rule.

fn main() {
    let p = wlc_nn::logistic(0.5) + wlc_nn::pinned_logistic(0.5);
    println!("{p} {}", wlc_nn::justified_power(0.9, 3.0));
}
