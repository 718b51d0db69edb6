//! Baseline pin: the three work-delaying baselines — `run_delaying`,
//! `run_redshift`, `run_databricks` — hash to committed constants.
//!
//! The constants were recorded from the tree in which each baseline was
//! its own hand-written event loop, before they were put on one
//! queued-capacity core ([`cackle::delaying::QueuedRun`]): a change that
//! moves one latency, one billed second or one telemetry byte of any of
//! them fails here, and so would move Figures 1, 11 and 14. A deliberate
//! behaviour change re-records the constant it moves (the failure message
//! prints the new value) and says why in CHANGES.md.

use cackle::delaying::run_delaying;
use cackle::model::build_workload;
use cackle::{QueryArrival, RunResult, RunSpec, Telemetry};
use cackle_comparators::{
    run_databricks, run_redshift, DatabricksConfig, RedshiftConfig, WarehouseSize,
};
use cackle_tpch::profiles::evaluation_mix;
use cackle_workload::arrivals::WorkloadSpec;

/// FNV-1a over what a figure reads from a run, then the dump. `{:?}` on
/// `f64` prints the shortest exact round-trip decimal, so any drift in
/// any float shows up.
fn fingerprint(r: &RunResult, t: &Telemetry) -> u64 {
    let report = format!(
        "latencies {:?}\nvm_seconds {:?}\nduration_s {}\n",
        r.latencies, r.compute.vm_seconds, r.duration_s
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in report.bytes().chain(t.export_jsonl().bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

type Baseline = fn(&[QueryArrival], &Telemetry) -> RunResult;

fn delaying<const SLOTS: u32>(w: &[QueryArrival], t: &Telemetry) -> RunResult {
    run_delaying(w, SLOTS, &RunSpec::new().with_telemetry(t))
}

#[test]
fn work_delaying_baselines_are_pinned() {
    // Figure 14's workload at 500 queries.
    let w = build_workload(&WorkloadSpec::hour_long(500, 14), &evaluation_mix());
    let table: [(&str, u64, Baseline); 7] = [
        ("delaying/60", 0xa549_3e64_d5a5_03e7, delaying::<60>),
        ("delaying/150", 0x460f_1286_71db_dd0b, delaying::<150>),
        ("delaying/500", 0xb085_84cb_32fb_5020, delaying::<500>),
        ("redshift/default", 0x8b9b_dce2_717c_5b32, |w, t| {
            run_redshift(w, &RedshiftConfig::default().with_telemetry(t))
        }),
        ("databricks/small-fixed-5", 0x706f_b762_e664_de05, |w, t| {
            let cfg = DatabricksConfig::fixed(WarehouseSize::Small, 5);
            run_databricks(w, &cfg.with_telemetry(t))
        }),
        ("databricks/small-auto-8", 0x2d41_3f1e_040a_1a64, |w, t| {
            let cfg = DatabricksConfig::autoscaling(WarehouseSize::Small, 8);
            run_databricks(w, &cfg.with_telemetry(t))
        }),
        ("databricks/medium-auto-5", 0xaed2_0fe4_3b82_2885, |w, t| {
            let cfg = DatabricksConfig::autoscaling(WarehouseSize::Medium, 5);
            run_databricks(w, &cfg.with_telemetry(t))
        }),
    ];
    let mut moved = Vec::new();
    for (name, pinned, run) in table {
        let t = Telemetry::new();
        let r = run(&w, &t);
        assert!(
            r.latencies.iter().all(|&l| l > 0.0),
            "{name}: a query never ran"
        );
        let got = fingerprint(&r, &t);
        if got != pinned {
            moved.push(format!(
                "{name} hashes to {got:#018x}, pinned {pinned:#018x}"
            ));
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}
