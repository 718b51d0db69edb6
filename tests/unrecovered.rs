//! A store request that fails every attempt ends the run with a typed
//! error, in both task runners.
//!
//! Each retried fault point allows `max_retries` retries after the first
//! attempt. When all `max_retries + 1` attempts of a store request fail,
//! the request is billed for each of them and recorded on the plan's
//! shared keyed handle. After the event that made it, the run loop
//! returns `RunError::FaultUnrecovered` and dumps the spend so far. The
//! plans here fail nine attempts in ten at the default bound of 4, so
//! their fault budget (`common::fault_budget`) is far above 1, and the
//! runs must end in the error, never in a silent success.

#[allow(dead_code)]
mod common;

use cackle::model::build_workload;
use cackle::{try_run_live, try_run_system, FaultSpec, RunError, RunSpec, Telemetry};
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;
use common::budget::fault_budget;
use common::{live_catalog, live_workload};

/// The error of a run whose store requests exhausted their bound.
fn assert_store_unrecovered(name: &str, out: Result<cackle::RunResult, RunError>, spec: &RunSpec) {
    let attempts = spec.recovery.max_retries + 1;
    match out {
        Err(RunError::FaultUnrecovered { point, attempts: a })
            if (point == "store.get" || point == "store.put") && a == attempts => {}
        other => panic!("{name}: expected a store FaultUnrecovered, got {other:?}"),
    }
    let t = &spec.telemetry;
    assert_eq!(t.counter("recovery.unrecovered_total"), 1, "{name}");
    let budget = fault_budget(spec);
    assert!(
        budget >= 1.0,
        "{name}: the partial run alone budgets {budget}"
    );
}

#[test]
fn store_exhaustion_ends_a_system_run_with_a_typed_error() {
    let workload = build_workload(&WorkloadSpec::hour_long(250, 29), &profile_set(10.0));
    let t = Telemetry::new();
    let spec = RunSpec::new()
        .with_faults(FaultSpec::default().with_store_errors(0.9, 0.9))
        .with_telemetry(&t);
    let out = try_run_system(&workload, &spec);
    assert_store_unrecovered("system", out, &spec);
}

#[test]
fn store_exhaustion_ends_a_live_run_alike_at_any_worker_count() {
    // Every node write drops and falls back to the store, where nine
    // attempts in ten fail.
    let (catalog, workload) = (live_catalog(), live_workload());
    let run = |workers: u32| {
        let t = Telemetry::new();
        let spec = RunSpec::new()
            .with_rows_per_task_second(5_000.0)
            .with_workers(workers)
            .with_faults(
                FaultSpec::default()
                    .with_transport_drops(0.95)
                    .with_store_errors(0.9, 0.9),
            )
            .with_telemetry(&t);
        let out = try_run_live(&workload, &catalog, &spec);
        let error = format!("{:?}", out.as_ref().err());
        assert_store_unrecovered(&format!("live at {workers} workers"), out, &spec);
        (error, t.export_jsonl())
    };
    let (serial_error, serial_dump) = run(1);
    let (parallel_error, parallel_dump) = run(3);
    assert_eq!(serial_error, parallel_error);
    assert!(
        serial_dump == parallel_dump,
        "partial dumps differ at 1 and 3 workers (lengths {} vs {})",
        serial_dump.len(),
        parallel_dump.len()
    );
    let errors = cackle_telemetry::check::check_dump(&serial_dump);
    assert!(errors.is_empty(), "{errors:?}");
}
