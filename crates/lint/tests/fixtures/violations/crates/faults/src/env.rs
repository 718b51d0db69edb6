//! Fixture: a leftover of a retired rule. L19 is a test now
//! (`tests/purity.rs`), so an allow naming it is malformed (SUP), like
//! any unknown rule id.

pub fn vm_traits(seed: u64, vm: u64) -> u64 {
    keyed(seed, SALT_ENV_VM, vm) // cackle-lint: allow(L19)
}
