//! Replay: every runner drives its strategy through the one strategy
//! clock, so a run's recorded `run.demand`, fed to a fresh strategy of the
//! same label, reproduces the run's `run.target` bit for bit. The replay
//! is `simulate_compute`, the analytical model over a bare demand curve,
//! which advances the same clock second by second under the run's own
//! price timeline. This is what judging a scaling policy offline against
//! a recorded trace needs: the dump alone must say what the strategy saw.

// The shared fixtures; this file has no use for the report rendering.
#[allow(dead_code)]
mod common;

use cackle::model::{build_workload, simulate_compute};
use cackle::{
    make_strategy, run_live, run_model, run_system, EnvironmentSpec, FaultSpec, RecoveryPolicy,
    RunSpec, Telemetry,
};
use cackle_serve::{run_serve, Runner, ServeSpec, TenantRegistry};
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;
use common::budget::assert_fault_budget;
use common::{chaos, chaos_recovery, live_catalog, live_workload};

/// A per-second series as the sink holds it: `(t_ms, value)`.
fn series(t: &Telemetry, name: &str) -> Vec<(u64, f64)> {
    t.series(name).unwrap_or_default()
}

/// Run `run` under `spec` with a fresh sink: its per-second demand and
/// the targets its strategy chose.
fn record(name: &str, spec: &RunSpec, run: impl FnOnce(&RunSpec)) -> (Vec<u32>, Vec<(u64, f64)>) {
    let recorded = Telemetry::new();
    let spec = spec.clone().with_telemetry(&recorded);
    run(&spec);
    assert_fault_budget(name, &spec);
    let demand: Vec<u32> = (series(&recorded, "run.demand").iter())
        .map(|&(_, d)| d as u32)
        .collect();
    assert!(demand.len() >= 30, "{name}: only {} seconds", demand.len());
    assert!(demand.iter().any(|&d| d > 0), "{name}: no demand");
    let targets = series(&recorded, "run.target");
    assert_eq!(targets.len(), demand.len(), "{name}: one target per second");
    (demand, targets)
}

/// The targets a fresh strategy of `spec`'s label chooses over `demand`.
fn replay(demand: &[u32], spec: &RunSpec) -> Vec<(u64, f64)> {
    let replayed = Telemetry::new();
    let mut strategy = make_strategy(&spec.strategy, &spec.env);
    let spec = spec
        .clone()
        .with_compute_only(true)
        .with_telemetry(&replayed);
    simulate_compute(demand, strategy.as_mut(), &spec);
    series(&replayed, "run.target")
}

/// The first second at which two target series differ.
fn first_mismatch(want: &[(u64, f64)], got: &[(u64, f64)]) -> Option<usize> {
    (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i))
}

/// Record a run, replay its demand under the same spec, and compare the
/// targets sample by sample.
fn assert_replays(name: &str, spec: RunSpec, run: impl FnOnce(&RunSpec)) {
    let (demand, want) = record(name, &spec, run);
    let got = replay(&demand, &spec);
    if let Some(i) = first_mismatch(&want, &got) {
        panic!(
            "{name}: first mismatch at second {i}: run {:?}, replay {:?}",
            want.get(i),
            got.get(i)
        );
    }
}

fn hour() -> Vec<cackle::QueryArrival> {
    build_workload(&WorkloadSpec::hour_long(200, 29), &profile_set(10.0))
}

fn market() -> FaultSpec {
    FaultSpec::default().with_environment(EnvironmentSpec::default().with_market_motion(0.3, 900))
}

#[test]
fn model_targets_replay_from_its_demand() {
    let w = hour();
    for label in ["mean_1", "dynamic"] {
        let spec = RunSpec::new().with_strategy(label).with_compute_only(true);
        assert_replays(&format!("model/{label}"), spec, |s| {
            run_model(&w, s);
        });
    }
    let spec = RunSpec::new().with_seed(12).with_faults(market());
    assert_replays("model/dynamic/market", spec, |s| {
        run_model(&w, s);
    });
}

#[test]
fn system_targets_replay_from_its_demand() {
    let w = hour();
    for label in ["mean_1", "dynamic"] {
        let spec = RunSpec::new().with_strategy(label);
        assert_replays(&format!("system/{label}"), spec, |s| {
            run_system(&w, s);
        });
    }
    let spec = RunSpec::new()
        .with_faults(chaos())
        .with_recovery(chaos_recovery());
    assert_replays("system/dynamic/chaos", spec, |s| {
        run_system(&w, s);
    });
}

#[test]
fn system_targets_replay_under_market_motion() {
    // The clock reprices the strategy whenever the market steps, in the
    // run and in the replay alike.
    let w = hour();
    let spec = RunSpec::new().with_seed(12).with_faults(market());
    let name = "system/dynamic/market";
    let (demand, want) = record(name, &spec, |s| {
        run_system(&w, s);
    });
    assert_eq!(
        first_mismatch(&want, &replay(&demand, &spec)),
        None,
        "{name}"
    );
    // The market moved the strategy: the same demand under flat prices
    // picks other targets.
    let flat = RunSpec::new().with_seed(12);
    assert!(
        first_mismatch(&want, &replay(&demand, &flat)).is_some(),
        "{name}: the strategy was never repriced"
    );
}

#[test]
fn live_targets_replay_from_its_demand() {
    let (catalog, w) = (live_catalog(), live_workload());
    for (name, faults, recovery) in [
        (
            "live/fault-free",
            FaultSpec::default(),
            RecoveryPolicy::default(),
        ),
        ("live/chaos", chaos(), chaos_recovery()),
    ] {
        let spec = RunSpec::new()
            .with_rows_per_task_second(5_000.0)
            .with_faults(faults)
            .with_recovery(recovery);
        assert_replays(name, spec, |s| {
            run_live(&w, &catalog, s);
        });
    }
}

#[test]
fn serve_over_system_targets_replay_from_its_demand() {
    let aggregate = WorkloadSpec::hour_long(120, 5);
    let mix = profile_set(10.0);
    assert_replays("serve/system", RunSpec::new(), |s| {
        let spec = ServeSpec::new(TenantRegistry::homogeneous(7, &aggregate))
            .with_run(s.clone())
            .with_runner(Runner::System);
        run_serve(&spec, &mix).expect("serve run");
    });
}
