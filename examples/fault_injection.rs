//! Seeded fault injection: run a workload on the full system under an
//! active fault plan and show that every injected fault is recovered —
//! bounded retries with deterministic backoff, pool re-execution of
//! reclaimed tasks, first-wins duplicates for stragglers — with the
//! recovery spend attributed in the telemetry dump.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```
//!
//! The run is fully deterministic: same seed, same faults, same bill,
//! byte-identical telemetry dump (`tests/determinism.rs` pins this). It
//! completes by design: its retry bound keeps the fault budget — the
//! expected count of operations that fail every attempt — at or below
//! 1e-6.

use cackle::model::build_workload;
use cackle::system::run_system;
use cackle::{FaultSpec, RecoveryPolicy, RunSpec, Telemetry};
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;

#[path = "../tests/common/budget.rs"]
mod budget;

fn main() {
    // A half-hour bursty workload of TPC-H-SF100 queries.
    let workload = build_workload(
        &WorkloadSpec {
            duration_s: 1800,
            num_queries: 300,
            baseline_load: 0.3,
            period_s: 600,
            seed: 11,
        },
        &profile_set(100.0),
    );

    // The fault plan: spot reclaims, pool invoke failures and throttles,
    // object-store transient errors, and stragglers — all compiled from
    // the run seed into independent deterministic streams.
    let faults = FaultSpec::default()
        .with_spot_reclaims(2.0)
        .with_pool_invoke_failures(0.05)
        .with_pool_throttles(0.05, 500)
        .with_store_errors(0.05, 0.05)
        .with_stragglers(0.05, 3.0);
    // Over ~775 000 store requests and pool invokes at a rate of 0.05,
    // 9 retries budget ≈ 8e-8; the default 4 would budget ≈ 0.24.
    let recovery = RecoveryPolicy::default().with_max_retries(9);

    let telemetry = Telemetry::new();
    let spec = RunSpec::new()
        .with_strategy("dynamic")
        .with_seed(7)
        .with_faults(faults)
        .with_recovery(recovery)
        .with_telemetry(&telemetry);
    let r = run_system(&workload, &spec);
    budget::assert_fault_budget("fault_injection", &spec);

    println!(
        "ran {} queries in {} simulated seconds; total bill ${:.2}",
        r.latencies.len(),
        r.duration_s,
        r.total_cost()
    );
    println!(
        "injected: {} spot reclaims, {} pool invoke failures, {} throttles,",
        telemetry.counter("fault.spot_reclaims_total"),
        telemetry.counter("fault.pool_invoke_failures_total"),
        telemetry.counter("fault.pool_throttles_total"),
    );
    println!(
        "          {} store errors, {} stragglers",
        telemetry.counter("fault.store_get_errors_total")
            + telemetry.counter("fault.store_put_errors_total"),
        telemetry.counter("fault.stragglers_total"),
    );
    println!(
        "recovered: {} retries, {} re-executions, {} duplicates ({} won), {} unrecovered",
        telemetry.counter("recovery.retries_total"),
        telemetry.counter("recovery.task_reexecs_total"),
        telemetry.counter("recovery.duplicates_launched_total"),
        telemetry.counter("recovery.duplicate_wins_total"),
        telemetry.counter("recovery.unrecovered_total"),
    );
    let recovery_cost = telemetry.cost("recovery", "elastic_pool")
        + telemetry.cost("recovery", "s3_get")
        + telemetry.cost("recovery", "s3_put");
    println!("attributed recovery spend: ${recovery_cost:.4}");
    assert_eq!(
        telemetry.counter("recovery.unrecovered_total"),
        0,
        "this plan must recover every fault"
    );

    if std::fs::create_dir_all("results").is_ok() {
        let path = "results/fault_injection_telemetry.jsonl";
        match std::fs::write(path, telemetry.export_jsonl()) {
            Ok(()) => println!(
                "wrote {path} (validate: cargo run -p cackle-telemetry --bin telemetry-check -- {path})"
            ),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}
