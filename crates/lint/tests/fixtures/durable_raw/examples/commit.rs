//! Calls the fixture's entry points, as a real example program would,
//! so the `unreferenced-pub` rule sees them read and the fixture trips
//! only its own seeded rule.

use std::path::Path;

fn main() -> std::io::Result<()> {
    wlc_learn::commit_state(Path::new("state"), b"round 1")?;
    wlc_learn::justified_passthrough(Path::new("state/extra"), b"x")
}
