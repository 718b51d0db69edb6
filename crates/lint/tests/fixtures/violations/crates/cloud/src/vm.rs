//! Fixture: deliberate L11 violations on a cloud hot path. The two
//! `cost`/`vm_price` lines were L4 before that rule was retired and must
//! flag as L11 (subsumption).

fn bill(seconds: f64, vm_price: f64) -> f64 {
    let cost = seconds * vm_price; // L11: `vm_price` beside `*`
    cost * 2.0 // L11: `cost` beside `*`
}

fn settle(led: &Ledger, rate: f64, hours: f64) {
    led.charge(Cat::Vm, rate * hours); // L11: price computed at the call site
}
