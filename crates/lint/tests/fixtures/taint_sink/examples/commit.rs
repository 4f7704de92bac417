//! Calls the fixture's entry points, as a real example program would,
//! so the `unreferenced-pub` rule sees them read and the fixture trips
//! only its own seeded rule.

use std::path::Path;

fn main() -> std::io::Result<()> {
    let fs = wlc_fault::real_fs();
    wlc_learn::commit_state(&fs, Path::new("state"))
}
