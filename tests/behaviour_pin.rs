//! Behaviour pin: the report and the full telemetry dump of both runners
//! hash to committed constants at 1, 2 and 8 workers.
//!
//! The worker-count tests compare a run with itself; this one compares
//! it with the past. The `run_system` constants were recorded from the
//! tree before the two runners were folded onto one event loop, the
//! `run_live` constants from the tree in which the hybrid transport
//! stopped probing the billed store for chunks that might have spilled
//! (against the constants before it, only `store` cost,
//! `fault.store_get_errors_total` and `recovery.retries_total` lines of
//! the dump and the report's GET count and totals moved), so a refactor
//! of the loop that moves any byte of any scenario fails
//! here. All five were re-recorded once when the ledgers moved to integer
//! nano-dollar money: against the constants before, only the report's
//! cost fields and totals and the dump's `"type":"cost"` lines moved.
//! They were re-recorded again when each runner began writing its cost
//! table once, from the ledgers' exact totals, instead of mirroring every
//! charge as it was billed, and the result's `timeseries` field went:
//! only the dump's `"type":"cost"` lines (moved to the exact totals, or
//! gone where a category held no money) and the report's `timeseries`
//! line moved. All five were re-recorded once more when both runners'
//! store requests moved into the run loop's one `ObjectStore`: every
//! dump gained its `store.*_requests_total` counters, and in the system
//! chaos run alone, whose modeled requests now draw their retries keyed
//! by `(query, stage, request)` instead of from sequential streams, the
//! report's `puts`/`gets`, S3 costs and total, and the dump's
//! `fault.store_*_errors_total`, `recovery.retries_total` and
//! `store`/`recovery` S3 cost lines moved; no latency moved. All five
//! were re-recorded once more, and `live/store-errors` added (the chaos
//! plan's live run makes no store request), when both runners began
//! driving the strategy through one clock and the loop's `Tick` event
//! went: the strategy now sees the second that just ended at every tick,
//! is repriced under market motion, `run.target` at second 0 is the
//! target chosen then, and no tick fires after the last second. The
//! live dumps moved only in that second-0 sample and the dropped late
//! tick (`meta.ticks_total`, `meta.switches_total` and the last point
//! of each `meta.*` series); the system runs moved throughout. The two
//! live fault runs were re-recorded once more when every retried point
//! moved onto one bounded draw and shuffle reads stopped drawing
//! transport drops: `live/chaos` moved only in the dump's
//! `fault.transport_drops_total` and `recovery.retries_total` (the read
//! drops went), and `live/store-errors` also moved because its store
//! error rate fell from 0.5 to 0.025 to keep its fault budget.
//! `live/store-errors` was re-recorded once more when its run stopped
//! reaching the store through transport drops: its shuffle nodes now
//! hold no chunk, so every chunk goes through the store, where requests
//! fail at the chaos plan's rate under its retry bound. Every run
//! here asserts its fault budget (`common::assert_fault_budget`), and
//! the chaos runs carry `common::chaos_recovery`'s bound of 13 retries,
//! which moved no byte of the system chaos run. A deliberate behaviour
//! change re-records the constant it moves (the failure message prints
//! the new value) and says why in CHANGES.md.

mod common;

use cackle::model::build_workload;
use cackle::system::run_system;
use cackle::{run_live, EnvironmentSpec, FaultSpec, RunResult, RunSpec, Telemetry};
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;
use common::budget::assert_fault_budget;
use common::{chaos, chaos_recovery, live_catalog, live_workload, report, store_errors};

/// FNV-1a over the report, then the dump.
fn fnv1a(parts: [&str; 2]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in parts.iter().flat_map(|p| p.bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `scenario` at 1, 2 and 8 workers; every run must hit `pinned`.
fn assert_pinned(name: &str, pinned: u64, scenario: impl Fn(RunSpec) -> RunResult) {
    for workers in [1u32, 2, 8] {
        let t = Telemetry::new();
        let spec = RunSpec::new()
            .with_strategy("dynamic")
            .with_workers(workers)
            .with_telemetry(&t);
        let r = scenario(spec);
        assert!(
            r.latencies.iter().all(|&l| l > 0.0),
            "{name}: a query never ran"
        );
        let got = fnv1a([&report(&r), &t.export_jsonl()]);
        assert_eq!(
            got, pinned,
            "{name} at {workers} workers hashes to {got:#018x}, pinned {pinned:#018x}"
        );
    }
}

fn system_pinned(name: &str, pinned: u64, configure: impl Fn(RunSpec) -> RunSpec) {
    let workload = build_workload(&WorkloadSpec::hour_long(250, 29), &profile_set(10.0));
    assert_pinned(name, pinned, |spec| {
        let spec = configure(spec);
        let r = run_system(&workload, &spec);
        assert_fault_budget(name, &spec);
        r
    });
}

fn live_pinned(name: &str, pinned: u64, configure: impl Fn(RunSpec) -> RunSpec) {
    let (catalog, workload) = (live_catalog(), live_workload());
    assert_pinned(name, pinned, |spec| {
        let spec = configure(spec.with_rows_per_task_second(5_000.0));
        let r = run_live(&workload, &catalog, &spec);
        assert_fault_budget(name, &spec);
        r
    });
}

#[test]
fn system_chaos_run_is_pinned() {
    system_pinned("system/chaos", 0x42a9_4755_213d_7990, |s| {
        s.with_faults(chaos()).with_recovery(chaos_recovery())
    });
}

#[test]
fn system_environment_run_is_pinned() {
    // The environment of `golden_env_run_dumps_are_byte_identical_…`.
    let env = EnvironmentSpec::default()
        .with_vm_heterogeneity(0.25, 2.0, 0.5)
        .with_market_motion(0.3, 900)
        .with_reclaim_storms(24.0, 600, 12.0)
        .with_remote_region(0.5, 700, 20_000);
    system_pinned("system/environment", 0x033b_8f20_e09e_550b, |s| {
        s.with_faults(FaultSpec::default().with_environment(env.clone()))
    });
}

#[test]
fn system_fault_free_run_is_pinned() {
    system_pinned("system/fault-free", 0x0035_573a_202f_0b45, |s| s);
}

#[test]
fn live_chaos_run_is_pinned() {
    live_pinned("live/chaos", 0x32ea_32a6_a3ce_a5cf, |s| {
        s.with_faults(chaos()).with_recovery(chaos_recovery())
    });
}

#[test]
fn live_store_errors_run_is_pinned() {
    // The chaos plan's live run makes no store request; this one sends
    // every chunk through the store, where many requests fail.
    live_pinned("live/store-errors", 0x8ddb_15f2_b589_41eb, store_errors);
}

#[test]
fn live_fault_free_run_is_pinned() {
    live_pinned("live/fault-free", 0x93ef_f37e_3949_cdaa, |s| s);
}
