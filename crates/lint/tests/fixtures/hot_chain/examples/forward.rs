//! Calls the fixture's entry points, as a real example program would,
//! so the `unreferenced-pub` rule sees them read and the fixture trips
//! only its own seeded rule.

fn main() {
    let mut xs = [1.0, 2.0];
    wlc_nn::hot_forward(&mut xs);
}
