//! Fixture: a same-unit sum of already-minted dollars must stay silent
//! (near-miss(L11)).

fn subtotal(vm_cost: f64, pool_cost: f64) -> f64 {
    vm_cost + pool_cost
}
