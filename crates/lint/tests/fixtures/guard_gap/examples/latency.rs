//! Calls the fixture's entry points, as a real example program would,
//! so the `unreferenced-pub` rule sees them read and the fixture trips
//! only its own seeded rule.

use wlc_serve::LatencyBook;

fn report(book: &LatencyBook) -> (u64, u64) {
    (book.summarize(), book.peek())
}

fn main() {}
