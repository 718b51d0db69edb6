//! Tier-1 gate: identically-seeded runs are byte-identical.
//!
//! This is the behavioural counterpart of the static checks — clippy.toml,
//! the hermetic build and the `Seed` type forbid the *sources* of
//! nondeterminism (host clocks, entropy seeding, hash-order iteration,
//! literal seeds); this test checks the *outcome*: the same seed produces
//! the same report — and the same telemetry dump — byte for byte, run to
//! run.

// The shared fixtures; this file needs only the fault budget.
#[allow(dead_code)]
mod common;

use cackle::model::{build_workload, run_model_with};
use cackle::system::{run_system, run_system_with};
use cackle::{
    Env, FamilyConfig, FaultSpec, MetaStrategy, RecoveryPolicy, RunResult, RunSpec, Telemetry,
    Timeseries,
};
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;

/// Render a full run report: every cost field, every latency, the
/// timeseries read back from the run's sink. `{:?}` on `f64` prints the shortest exact
/// round-trip decimal, so any drift in any float shows up here.
fn report(r: &RunResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("strategy    {}\n", r.strategy));
    out.push_str(&format!("duration_s  {}\n", r.duration_s));
    out.push_str(&format!("compute     {:?}\n", r.compute));
    out.push_str(&format!("shuffle     {:?}\n", r.shuffle));
    out.push_str(&format!("total       {:?}\n", r.total_cost()));
    out.push_str(&format!("latencies   {:?}\n", r.latencies));
    let timeseries = Timeseries::from_telemetry(&r.telemetry);
    out.push_str(&format!("timeseries  {timeseries:?}\n"));
    out
}

fn strategy(env: &Env) -> MetaStrategy {
    MetaStrategy::with_family(FamilyConfig::small(), env)
}

fn workload(seed: u64) -> Vec<cackle::QueryArrival> {
    build_workload(&WorkloadSpec::hour_long(250, seed), &profile_set(10.0))
}

#[test]
fn model_runs_are_byte_identical_across_repeats() {
    // A fresh sink per run, so each report reads only its own series.
    let spec = || RunSpec::new().with_telemetry(&Telemetry::new());
    let run = || {
        let w = workload(11);
        let mut s = strategy(&spec().env);
        report(&run_model_with(&w, &mut s, &spec()))
    };
    let first = run();
    let second = run();
    assert!(
        first == second,
        "model reports diverged:\n--- a\n{first}\n--- b\n{second}"
    );
    // A different seed must actually change the report, or the check
    // above is vacuous.
    let w = workload(12);
    let mut s = strategy(&spec().env);
    let other = report(&run_model_with(&w, &mut s, &spec()));
    assert!(first != other, "seed change did not move the report");
}

#[test]
fn system_runs_are_byte_identical_across_repeats() {
    let spec = RunSpec::new();
    let run = || {
        let w = workload(13);
        let mut s = strategy(&spec.env);
        report(&run_system_with(&w, &mut s, &spec))
    };
    let first = run();
    let second = run();
    assert!(
        first == second,
        "system reports diverged:\n--- a\n{first}\n--- b\n{second}"
    );
}

#[test]
fn golden_telemetry_dumps_are_byte_identical() {
    // The tentpole guarantee of the telemetry crate: an identically-seeded
    // run produces a byte-identical JSONL dump — every counter, gauge,
    // histogram bucket, series point, cost cell, and trace event included.
    let dump = |seed: u64| {
        let w = workload(seed);
        let t = Telemetry::new();
        let spec = RunSpec::new().with_strategy("dynamic").with_telemetry(&t);
        run_system(&w, &spec);
        t.export_jsonl()
    };
    let first = dump(17);
    let second = dump(17);
    assert!(!first.is_empty());
    assert!(
        first == second,
        "telemetry dumps diverged (lengths {} vs {})",
        first.len(),
        second.len()
    );
    // A seed change must move the dump, or the comparison is vacuous.
    let other = dump(18);
    assert!(
        first != other,
        "seed change did not move the telemetry dump"
    );
    // And the dump passes the format checker that CI runs on example output.
    let errors = cackle_telemetry::check::check_dump(&first);
    assert!(errors.is_empty(), "{errors:?}");
}

#[test]
fn golden_fault_run_dumps_are_byte_identical() {
    // Same guarantee with an *active* fault plan: the injected reclaims,
    // invoke failures, throttles, store errors, and stragglers — and all
    // the recovery work they trigger — replay identically from the seed.
    // The retry bound keeps the run's fault budget (an expected count of
    // operations that fail every attempt) at or below 1e-6.
    let dump = |seed: u64| {
        let w = workload(seed);
        let t = Telemetry::new();
        let spec = RunSpec::new()
            .with_strategy("dynamic")
            .with_faults(
                FaultSpec::default()
                    .with_spot_reclaims(4.0)
                    .with_pool_invoke_failures(0.1)
                    .with_pool_throttles(0.1, 400)
                    .with_store_errors(0.1, 0.1)
                    .with_stragglers(0.1, 2.5),
            )
            .with_recovery(RecoveryPolicy::default().with_max_retries(10))
            .with_telemetry(&t);
        run_system(&w, &spec);
        common::budget::assert_fault_budget("golden fault run", &spec);
        t.export_jsonl()
    };
    let first = dump(19);
    let second = dump(19);
    assert!(
        first.contains("fault.") && first.contains("recovery."),
        "fault plan was not active"
    );
    assert!(
        first == second,
        "fault-run telemetry dumps diverged (lengths {} vs {})",
        first.len(),
        second.len()
    );
    let other = dump(20);
    assert!(
        first != other,
        "seed change did not move the fault-run dump"
    );
    let errors = cackle_telemetry::check::check_dump(&first);
    assert!(errors.is_empty(), "{errors:?}");
}

#[test]
fn golden_dumps_are_byte_identical_across_worker_counts() {
    // The headline guarantee of the stage executor: the worker count is
    // a pure throughput knob, never an input to the simulation. The
    // telemetry dump must not move by a byte between 1, 2 and 8 workers,
    // with and without an active fault plan.
    let dump = |workers: u32, faulted: bool| {
        let w = workload(23);
        let t = Telemetry::new();
        let mut spec = RunSpec::new()
            .with_strategy("dynamic")
            .with_workers(workers)
            .with_telemetry(&t);
        if faulted {
            spec = spec.with_faults(
                FaultSpec::default()
                    .with_spot_reclaims(4.0)
                    .with_pool_invoke_failures(0.1)
                    .with_store_errors(0.1, 0.1)
                    .with_stragglers(0.1, 2.5),
            );
            spec = spec.with_recovery(RecoveryPolicy::default().with_max_retries(10));
        }
        run_system(&w, &spec);
        common::budget::assert_fault_budget("golden worker-count run", &spec);
        t.export_jsonl()
    };
    for faulted in [false, true] {
        let serial = dump(1, faulted);
        assert!(!serial.is_empty());
        for workers in [2u32, 8] {
            let parallel = dump(workers, faulted);
            assert!(
                serial == parallel,
                "dump moved at {workers} workers (faulted {faulted}; lengths {} vs {})",
                serial.len(),
                parallel.len()
            );
        }
    }
}

#[test]
fn golden_env_run_dumps_are_byte_identical_across_worker_counts() {
    // Same worker-count guarantee with the full environment model active:
    // per-VM heterogeneity, a moving spot market with reclaim storms, and
    // a remote region billing egress. Every environmental draw is a pure
    // keyed function of (seed, entity), never a stream consumption, so
    // the dump must not move by a byte between 1, 2 and 8 workers.
    let env = cackle::EnvironmentSpec::default()
        .with_vm_heterogeneity(0.25, 2.0, 0.5)
        .with_market_motion(0.3, 900)
        .with_reclaim_storms(24.0, 600, 12.0)
        .with_remote_region(0.5, 700, 20_000);
    let dump = |workers: u32| {
        let w = workload(29);
        let t = Telemetry::new();
        let spec = RunSpec::new()
            .with_strategy("dynamic")
            .with_faults(FaultSpec::default().with_environment(env.clone()))
            .with_workers(workers)
            .with_telemetry(&t);
        run_system(&w, &spec);
        t.export_jsonl()
    };
    let serial = dump(1);
    assert!(
        serial.contains("env.vm_slowdown") && serial.contains("env.egress_bytes_total"),
        "environment model was not active"
    );
    for workers in [2u32, 8] {
        let parallel = dump(workers);
        assert!(
            serial == parallel,
            "env dump moved at {workers} workers (lengths {} vs {})",
            serial.len(),
            parallel.len()
        );
    }
    let errors = cackle_telemetry::check::check_dump(&serial);
    assert!(errors.is_empty(), "{errors:?}");
}

#[test]
fn zero_intensity_environment_leaves_the_dump_untouched() {
    // The environment counterpart of the zero-rate fault guarantee: a
    // default (all-zero) environment spec compiles to artifacts that
    // record nothing and multiply by exactly 1.0, so attaching one must
    // not move a single byte relative to no environment at all.
    let dump = |attached: bool| {
        let w = workload(31);
        let t = Telemetry::new();
        let mut spec = RunSpec::new().with_strategy("dynamic").with_telemetry(&t);
        if attached {
            spec = spec.with_faults(
                FaultSpec::default().with_environment(cackle::EnvironmentSpec::default()),
            );
        }
        run_system(&w, &spec);
        t.export_jsonl()
    };
    let plain = dump(false);
    let zero = dump(true);
    assert!(
        plain == zero,
        "zero-intensity environment moved the dump (lengths {} vs {})",
        plain.len(),
        zero.len()
    );
}

#[test]
fn zero_rate_fault_plan_leaves_the_dump_untouched() {
    // The no-op guarantee: attaching an all-zero fault plan must not move
    // a single byte of the telemetry dump relative to no plan at all —
    // fault draws live on their own PRNG streams and a zero-rate point
    // makes no draws.
    let dump = |faulted: bool| {
        let w = workload(21);
        let t = Telemetry::new();
        let mut spec = RunSpec::new().with_strategy("dynamic").with_telemetry(&t);
        if faulted {
            spec = spec.with_faults(FaultSpec::default());
        }
        run_system(&w, &spec);
        t.export_jsonl()
    };
    let plain = dump(false);
    let zero_rate = dump(true);
    assert!(
        plain == zero_rate,
        "zero-rate fault plan moved the dump (lengths {} vs {})",
        plain.len(),
        zero_rate.len()
    );
}
