//! Serving-layer violation: a panic path now that L5 covers
//! `crates/serve/src`.

fn take_token(level: Option<u64>) -> u64 {
    level.unwrap() // L5: panic path in the serving layer
}
