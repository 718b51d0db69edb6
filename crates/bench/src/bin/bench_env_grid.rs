//! Environment grid: scenario pack × strategy family.
//!
//! Sweeps the environment model's scenario pack — per-VM performance
//! heterogeneity, a moving spot market with reclaim storms, and a second
//! region with cross-region egress — against the paper's strategy
//! families (fixed, mean, predictive, and the §4.4 meta-strategy). Every
//! cell asserts exact ledger conservation: the per-component
//! micro-dollar shares must sum to the layer totals and the layer totals
//! to the bill, and the egress component must appear exactly when (and
//! only when) the environment has a remote region. A drifting component
//! fails the bench rather than quietly skewing the CSV.
//!
//! Pass `--smoke` for the reduced grid used by CI; it writes under
//! `target/smoke/` instead of `results/`. One cell's telemetry dump is
//! written beside the CSV as `env_grid_telemetry.jsonl` so the CI
//! telemetry-check can validate the `env.*` series schema end to end.

use cackle::system::run_system_with;
use cackle::{make_strategy, EnvironmentSpec, FaultSpec, RunSpec, Telemetry};
use cackle_bench::*;
use cackle_cloud::micro_dollars;

fn scenarios() -> Vec<(&'static str, EnvironmentSpec)> {
    vec![
        ("baseline", EnvironmentSpec::default()),
        (
            "hetero",
            EnvironmentSpec::default().with_vm_heterogeneity(0.25, 2.0, 0.5),
        ),
        (
            "spot_market",
            EnvironmentSpec::default()
                .with_market_motion(0.3, 900)
                .with_reclaim_storms(24.0, 600, 12.0),
        ),
        (
            "multi_region",
            EnvironmentSpec::default().with_remote_region(0.5, 700, 20_000),
        ),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (queries, strategies): (usize, &[&str]) = if smoke {
        (150, &["fixed_8", "mean_2", "dynamic"])
    } else {
        (600, &["fixed_8", "mean_2", "predictive", "dynamic"])
    };
    let w = hour_workload(queries, 47);
    let mut t = ResultTable::new(
        "Environment grid: scenario pack \u{d7} strategy family",
        &[
            "environment",
            "strategy",
            "p50_latency_s",
            "p95_latency_s",
            "total_cost",
            "egress_cost",
            "env_vms",
            "remote_vms",
            "storm_reclaims",
            "total_micros",
        ],
    );
    let mut dump: Option<String> = None;
    for (env_name, env) in scenarios() {
        for &label in strategies {
            let telemetry = Telemetry::new();
            let spec = RunSpec::new()
                .with_faults(FaultSpec::default().with_environment(env.clone()))
                .with_telemetry(&telemetry);
            let mut s = make_strategy(label, &spec.env);
            let r = run_system_with(&w, s.as_mut(), &spec);

            // Exact conservation: each layer's bill is the sum of its
            // component shares on the micro-dollar grid, and the grand
            // total is the sum of the layers. No ±1 re-rounding slack.
            let compute_parts =
                micro_dollars(r.compute.vm_cost) + micro_dollars(r.compute.pool_cost);
            let shuffle_parts = micro_dollars(r.shuffle.node_cost)
                + micro_dollars(r.shuffle.s3_put_cost)
                + micro_dollars(r.shuffle.s3_get_cost)
                + micro_dollars(r.shuffle.egress_cost);
            assert_eq!(
                compute_parts,
                r.compute_cost_micros(),
                "compute shares must conserve at {env_name}/{label}"
            );
            assert_eq!(
                shuffle_parts,
                r.shuffle_cost_micros(),
                "shuffle shares must conserve at {env_name}/{label}"
            );
            assert_eq!(
                compute_parts + shuffle_parts,
                r.total_cost_micros(),
                "layer totals must sum to the bill at {env_name}/{label}"
            );
            // The result's egress component is the instrumented env
            // ledger, read back through telemetry: both views must agree
            // exactly, and the component must be populated iff the
            // environment has a remote region.
            assert_eq!(
                micro_dollars(telemetry.cost("env", "egress")),
                micro_dollars(r.shuffle.egress_cost),
                "egress ledger views must agree at {env_name}/{label}"
            );
            if env.remote_vm_fraction > 0.0 {
                assert!(
                    r.shuffle.egress_cost > 0.0,
                    "a remote region must bill egress at {env_name}/{label}"
                );
            } else {
                assert_eq!(
                    r.shuffle.egress_cost, 0.0,
                    "no remote region, no egress at {env_name}/{label}"
                );
            }

            if dump.is_none() && env_name == "multi_region" {
                dump = Some(telemetry.export_jsonl());
            }
            t.row_strings(vec![
                env_name.to_string(),
                label.to_string(),
                secs(r.latency_percentile(50.0)),
                secs(r.latency_percentile(95.0)),
                usd(r.total_cost()),
                usd4(r.shuffle.egress_cost),
                telemetry.counter("env.vms_total").to_string(),
                telemetry.counter("env.remote_vms_total").to_string(),
                telemetry.counter("env.storm_reclaims_total").to_string(),
                r.total_cost_micros().to_string(),
            ]);
            eprintln!("  done {env_name}/{label}");
        }
    }
    let dir = out_dir(smoke);
    t.emit_in(&dir, "env_grid");
    if let Some(d) = dump {
        let path = dir.join("env_grid_telemetry.jsonl");
        if std::fs::write(&path, d).is_ok() {
            eprintln!("wrote {}", path.display());
        }
    }
    println!("every cell conserved its ledger exactly: component micro-dollar");
    println!("shares summed to the layer totals and the layers to the bill.");
}
