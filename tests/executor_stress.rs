//! Executor stress gate: a fault-laden run is worker-count independent.
//!
//! The determinism suite checks seeded repeats; this one attacks the
//! parallel executor specifically. A seeded workload runs under an
//! aggressive fault plan — spot reclaims (system runner), stragglers,
//! pool invoke failures and throttles, store errors, and transport
//! drops — and, live, with its tasks on VMs, at 1, 2 and 8 workers (the
//! system runner at 1 and 8), and must produce an identical report and
//! identical fault/recovery counters: fault draws are keyed by operation identity and cross-task
//! effects merge in task-index order, so thread scheduling never leaks
//! into results.

mod common;

use cackle::model::build_workload;
use cackle::system::run_system;
use cackle::{run_live, Env, RunSpec, Telemetry};
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;
use common::budget::assert_fault_budget;
use common::{chaos, chaos_recovery, live_catalog, live_workload, report, store_errors};

/// Every fault and recovery counter the injector maintains.
const COUNTERS: &[&str] = &[
    "fault.spot_reclaims_total",
    "fault.stragglers_total",
    "fault.pool_invoke_failures_total",
    "fault.pool_throttles_total",
    "fault.store_get_errors_total",
    "fault.store_put_errors_total",
    "fault.transport_drops_total",
    "recovery.retries_total",
    "recovery.backoff_ms_total",
    "recovery.transport_fallbacks_total",
    "recovery.task_reexecs_total",
    "recovery.duplicates_launched_total",
    "recovery.duplicate_wins_total",
    "recovery.unrecovered_total",
];

fn counter_snapshot(t: &Telemetry) -> Vec<(&'static str, u64)> {
    COUNTERS.iter().map(|&c| (c, t.counter(c))).collect()
}

#[test]
fn live_fault_runs_are_worker_count_independent() {
    // Real queries through the engine: operator pipelines, hybrid
    // shuffle with transport drops and billed store fallback, straggler
    // draws, pool invoke failures — all at once. The chaos plan's drops
    // almost never reach the store on this workload; the store-errors
    // plan sends every chunk there, where many requests fail. The VM plan
    // boots four VMs at once, so tasks run on VM slots as well as on the
    // pool (the workload ends before a default VM boots), under the
    // chaos plan's stragglers.
    let (catalog, workload) = (live_catalog(), live_workload());
    fn chaos_plan(s: RunSpec) -> RunSpec {
        s.with_faults(chaos()).with_recovery(chaos_recovery())
    }
    let vm_plan = |s: RunSpec| {
        chaos_plan(s)
            .with_strategy("fixed_4")
            .with_env(Env::default().with_vm_startup_s(0))
    };
    for (plan, configure) in [
        ("chaos", chaos_plan as fn(RunSpec) -> RunSpec),
        ("store-errors", store_errors),
        ("vms", vm_plan),
    ] {
        let run = |workers: u32| {
            let t = Telemetry::new();
            let spec = configure(
                RunSpec::new()
                    .with_strategy("dynamic")
                    .with_rows_per_task_second(5_000.0)
                    .with_workers(workers)
                    .with_telemetry(&t),
            );
            let r = run_live(&workload, &catalog, &spec);
            assert_fault_budget(plan, &spec);
            (
                r.compute.vm_cost,
                report(&r),
                counter_snapshot(&t),
                t.export_jsonl(),
            )
        };
        let (vm_cost, serial_report, serial_counters, serial_dump) = run(1);
        assert!(
            serial_counters.iter().any(|&(_, v)| v > 0),
            "{plan}: fault plan was not active: {serial_counters:?}"
        );
        if plan == "vms" {
            assert!(vm_cost > 0.0, "{plan}: no task ran on a VM");
        }
        if plan == "store-errors" {
            let errors = serial_counters
                .iter()
                .filter(|(c, _)| c.starts_with("fault.store_"));
            for (c, v) in errors {
                assert!(
                    *v >= 5,
                    "{plan}: {c} reads {v}; several requests should fail"
                );
            }
        }
        for workers in [2u32, 8] {
            let (_, parallel_report, parallel_counters, parallel_dump) = run(workers);
            assert_eq!(
                serial_counters, parallel_counters,
                "{plan}: counters diverged at {workers} workers"
            );
            assert!(
                serial_report == parallel_report,
                "{plan}: reports diverged:\n--- 1 worker\n{serial_report}\n--- {workers} workers\n{parallel_report}"
            );
            assert!(
                serial_dump == parallel_dump,
                "{plan}: dumps diverged at {workers} workers (lengths {} vs {})",
                serial_dump.len(),
                parallel_dump.len()
            );
        }
    }
}

#[test]
fn system_fault_runs_are_worker_count_independent() {
    // The profile replay exercises the injection points live runs cannot
    // (spot reclaims, duplicate launches) through the same executor.
    let workload = build_workload(&WorkloadSpec::hour_long(250, 29), &profile_set(10.0));
    let run = |workers: u32| {
        let t = Telemetry::new();
        let spec = RunSpec::new()
            .with_strategy("dynamic")
            .with_workers(workers)
            .with_faults(chaos())
            .with_recovery(chaos_recovery())
            .with_telemetry(&t);
        let r = run_system(&workload, &spec);
        assert_fault_budget("system/chaos", &spec);
        (report(&r), counter_snapshot(&t))
    };
    let (serial_report, serial_counters) = run(1);
    assert!(
        serial_counters
            .iter()
            .any(|&(c, v)| c == "fault.spot_reclaims_total" && v > 0),
        "spot reclaims were not active: {serial_counters:?}"
    );
    let (parallel_report, parallel_counters) = run(8);
    assert_eq!(serial_counters, parallel_counters, "counters diverged");
    assert!(
        serial_report == parallel_report,
        "reports diverged:\n--- 1 worker\n{serial_report}\n--- 8 workers\n{parallel_report}"
    );
}
