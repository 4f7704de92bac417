//! Calls the fixture's entry points, as a real example program would,
//! so the `unreferenced-pub` rule sees them read and the fixture trips
//! only its own seeded rule.

fn main() {
    let mut weights = [0.5, -0.5];
    let loss = wlc_nn::train_epoch(&mut weights);
    println!("{loss} at {:?}", wlc_nn::justified_timing());
}
