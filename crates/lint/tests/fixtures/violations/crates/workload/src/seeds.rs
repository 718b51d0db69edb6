//! Fixture: deliberate L13 violations — PRNG streams whose seeds cannot
//! be re-derived from the RunSpec: a literal, and a draw fed back in,
//! through a `let` and directly. The salted near-miss at the bottom must
//! stay silent.

fn fixed() -> Pcg32 {
    Pcg32::seed_from_u64(42) // L13: literal seed
}

fn chained(rng: &mut Pcg32) -> Pcg32 {
    let draw = rng.next_u64();
    Pcg32::seed_from_u64(draw) // L13: re-seeded from a stream's output
}

fn direct(rng: &mut Pcg32) -> Pcg32 {
    Pcg32::seed_from_u64(rng.next_u64()) // L13: the same, with no `let`
}

// Near-miss: a salted sub-stream of the RunSpec seed is the blessed
// pattern and must stay silent.
fn arrival_stream(spec: &RunSpec) -> Pcg32 {
    Pcg32::seed_from_u64(spec.seed ^ SALT_ARRIVALS)
}
