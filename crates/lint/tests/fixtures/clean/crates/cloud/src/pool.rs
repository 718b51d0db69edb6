//! Fixture: a clean cloud file — a well-formed suppression that
//! suppresses a finding (near-miss(SUP)), test-only code, and cost names
//! inside comments and strings, none of which may be flagged.

fn documented() {
    // cost * 2 in a comment is invisible.
    let message = "never compute cost * 2 here";
    let _ = message;
}

fn mirrored(vm_cost: f64, share: f64) -> f64 {
    vm_cost * share // cackle-lint: allow(L11)
}

fn billed(ledger_total: f64) -> f64 {
    // `ledger_total` is not cost-named; arithmetic is fine.
    ledger_total * 2.0
}

fn settle(led: &Ledger, amount: f64) {
    // Charging a precomputed amount keeps the formula in Pricing.
    led.charge(Cat::Vm, amount);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_do_money_arithmetic() {
        let cost = 2.0;
        assert_eq!(cost * 2.0, 4.0);
    }
}
