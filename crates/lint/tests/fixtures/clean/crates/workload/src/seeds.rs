//! Fixture: seed-provenance near-misses — every stream derives from the
//! RunSpec seed through salts and `splitmix64` expansion, so L13 has
//! nothing to say. near-miss(L13)

const SALT_ARRIVALS: u64 = 0x9e37_79b9;

fn arrival_stream(spec: &RunSpec) -> Pcg32 {
    Pcg32::seed_from_u64(spec.seed ^ SALT_ARRIVALS)
}

fn expanded(seed: u64, salt: u64) -> Pcg32 {
    let mut state = seed ^ salt;
    let stream_key = splitmix64(&mut state);
    Pcg32::seed_from_u64(stream_key)
}
