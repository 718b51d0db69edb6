//! The fault budget of a finished run (DESIGN.md §8, "Recovered by
//! design"): the expected number of operations that fail all
//! `max_retries + 1` of their attempts and so end the run with
//! `RunError::FaultUnrecovered`. It sums, over `store.get`, `store.put`
//! and `pool.invoke`, the run's operations times the point's per-attempt
//! rate to the power `max_retries + 1`. A run that expects `Ok` keeps it
//! at or below [`MAX_FAULT_BUDGET`], so it completes by design rather
//! than by the luck of its realization. Transport drops are outside the
//! budget: a write that drops every attempt falls back to the store.
//!
//! Its own file, so the `fault_injection` example and the bench crate's
//! chaos sweep include this one rule by `#[path]`.

use cackle::RunSpec;

/// The most a run that expects `Ok` may budget.
pub const MAX_FAULT_BUDGET: f64 = 1e-6;

/// The fault budget of the run `spec` drove, from the counters in its
/// sink. Store requests count every attempt, so the budget errs high.
pub fn fault_budget(spec: &RunSpec) -> f64 {
    let (t, f) = (&spec.telemetry, &spec.faults);
    let attempts = spec.recovery.max_retries.saturating_add(1);
    let exponent = i32::try_from(attempts).unwrap_or(i32::MAX);
    [
        ("store.get_requests_total", f.store_get_error_rate),
        ("store.put_requests_total", f.store_put_error_rate),
        ("pool.invocations_total", f.pool_invoke_failure_rate),
    ]
    .into_iter()
    .map(|(operations, rate)| t.counter(operations) as f64 * rate.powi(exponent))
    .sum()
}

/// Assert that the run `spec` drove, named `name`, kept its fault budget.
pub fn assert_fault_budget(name: &str, spec: &RunSpec) {
    assert!(
        spec.telemetry.is_enabled(),
        "{name}: the fault budget reads the run's counters; attach a sink"
    );
    let budget = fault_budget(spec);
    assert!(
        budget <= MAX_FAULT_BUDGET,
        "{name}: fault budget {budget:.3e} exceeds {MAX_FAULT_BUDGET:e}; raise max_retries"
    );
}
