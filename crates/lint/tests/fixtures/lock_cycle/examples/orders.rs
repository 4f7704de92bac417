//! Calls the fixture's entry points, as a real example program would,
//! so the `unreferenced-pub` rule sees them read and the fixture trips
//! only its own seeded rule.

fn main() {
    wlc_exec::record_order();
    wlc_exec::flush_metrics();
}
