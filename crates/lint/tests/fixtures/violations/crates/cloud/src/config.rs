//! Fixture: a malformed suppression (SUP). L5 moved to clippy
//! (`clippy::unwrap_used`), so an allow naming it is an unknown rule id:
//! a hard error that suppresses nothing.

fn take(slot: Option<u32>) -> u32 {
    slot.unwrap() // cackle-lint: allow(L5) — SUP: L5 is retired
}
