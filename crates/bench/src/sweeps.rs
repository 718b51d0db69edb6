//! Sweeps over the reproduction's own extensions — fault injection, the
//! environment scenario pack and multi-tenant serving — each of which
//! asserts its invariant at every row, so a regression fails the run
//! rather than quietly skewing the CSV.

use crate::*;
use cackle::system::run_system_with;
use cackle::{make_strategy, EnvironmentSpec, FaultSpec, MetaStrategy, RecoveryPolicy, Telemetry};
use cackle_cloud::micro_dollars;
use cackle_serve::{run_serve, ServeSpec, TenantRegistry};

#[path = "../../../tests/common/budget.rs"]
mod budget;

/// Chaos sweep: fault intensity vs recovered cost and latency.
///
/// Scales a composite fault plan — spot reclaims, pool invoke
/// failures/throttles, object-store transient errors, stragglers — by an
/// intensity factor and runs the full system under the dynamic strategy.
/// Every injected fault must be recovered (bounded retries, pool
/// re-execution, first-wins duplicates); the table reports how much
/// latency and attributed recovery spend that resilience costs.
///
/// That assert holds by design, not by luck of the draw: an operation is
/// lost only when its first attempt and every retry fail, and every row
/// asserts its fault budget (the expected count of such operations) is
/// at most 1e-6. At intensity 2 invokes and store requests fail at 0.1
/// over about 39 000 launches and 278 000 store requests, so the default
/// bound of 4 retries would expect ≈ 3 lost operations per run, and the
/// sweep's bound of 11 expects ≈ 3e-7.
pub(crate) fn chaos_fault_sweep() -> Report {
    let w = hour_workload(600, 47);
    let mut t = ResultTable::new(
        "Chaos: fault intensity vs recovered cost and latency",
        &[
            "intensity",
            "p50_latency_s",
            "p95_latency_s",
            "total_cost",
            "faults",
            "retries",
            "reexecs",
            "dups",
            "recovery_cost",
        ],
    );
    for k in [0.0f64, 0.25, 0.5, 1.0, 2.0] {
        let faults = FaultSpec::default()
            .with_spot_reclaims(2.0 * k)
            .with_pool_invoke_failures(0.05 * k)
            .with_pool_throttles(0.05 * k, 500)
            .with_store_errors(0.05 * k, 0.05 * k)
            .with_stragglers(0.05 * k, 3.0);
        let telemetry = Telemetry::new();
        let spec = RunSpec::new()
            .with_faults(faults)
            .with_recovery(RecoveryPolicy::default().with_max_retries(11))
            .with_telemetry(&telemetry);
        let mut s = MetaStrategy::new(&spec.env);
        let r = run_system_with(&w, &mut s, &spec);
        budget::assert_fault_budget(&format!("chaos_fault_sweep at {k}"), &spec);
        let faults_total = telemetry.counter("fault.spot_reclaims_total")
            + telemetry.counter("fault.pool_invoke_failures_total")
            + telemetry.counter("fault.pool_throttles_total")
            + telemetry.counter("fault.store_get_errors_total")
            + telemetry.counter("fault.store_put_errors_total")
            + telemetry.counter("fault.stragglers_total");
        let recovery_cost = telemetry.cost("recovery", "elastic_pool")
            + telemetry.cost("recovery", "s3_get")
            + telemetry.cost("recovery", "s3_put");
        assert_eq!(
            telemetry.counter("recovery.unrecovered_total"),
            0,
            "sweep plans must stay within the recovery bound"
        );
        t.row_strings(vec![
            format!("{k}"),
            secs(r.latency_percentile(50.0)),
            secs(r.latency_percentile(95.0)),
            usd(r.total_cost()),
            faults_total.to_string(),
            telemetry.counter("recovery.retries_total").to_string(),
            telemetry.counter("recovery.task_reexecs_total").to_string(),
            telemetry
                .counter("recovery.duplicates_launched_total")
                .to_string(),
            usd4(recovery_cost),
        ]);
    }
    Report::default()
        .table("chaos_fault_sweep", &t)
        .note("all injected faults recovered within the policy bound; the")
        .note("recovery_cost column is the attributed price of that resilience.")
}

/// Environment grid: scenario pack × strategy family.
///
/// Sweeps the environment model's scenario pack — per-VM performance
/// heterogeneity, a moving spot market with reclaim storms, and a second
/// region with cross-region egress — against the paper's strategy
/// families (fixed, mean, predictive, and the §4.4 meta-strategy). Every
/// cell asserts exact ledger conservation: the per-component
/// micro-dollar shares must sum to the layer totals and the layer totals
/// to the bill, and the egress component must appear exactly when (and
/// only when) the environment has a remote region. A drifting component
/// fails the run rather than quietly skewing the CSV.
///
/// One multi-region cell's telemetry dump is written beside the CSV as
/// `env_grid_telemetry.jsonl` so the CI telemetry-check can validate the
/// `env.*` series schema end to end.
pub(crate) fn bench_env_grid() -> Report {
    let scenarios = [
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
    ];
    let w = hour_workload(600, 47);
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
    for (env_name, env) in scenarios {
        for label in ["fixed_8", "mean_2", "predictive", "dynamic"] {
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
            // The dump's egress row is the env ledger's total, the same
            // bits as the result's egress component, and the component
            // must be populated iff the environment has a remote region.
            assert_eq!(
                telemetry.cost("env", "egress").to_bits(),
                r.shuffle.egress_cost.to_bits(),
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
        }
    }
    Report::default()
        .table("env_grid", &t)
        .file("env_grid_telemetry.jsonl", dump.unwrap_or_default())
        .note("every cell conserved its ledger exactly: component micro-dollar")
        .note("shares summed to the layer totals and the layers to the bill.")
}

/// Tenant sweep: fixed aggregate demand spread over 1 → 10,000 tenants.
///
/// The serving front-end must make multi-tenancy free in two senses:
/// the per-tenant cost ledger has to sum back to the aggregate bill to
/// the exact integer micro-dollar at every fan-out, and the end-to-end
/// p99 latency must stay within 10% of the single-tenant baseline —
/// admission and fair scheduling may reorder work but not slow it down
/// when nobody is throttled. Both properties are asserted per row, so a
/// regression fails the run rather than quietly skewing the CSV.
pub(crate) fn bench_tenant_sweep() -> Report {
    let aggregate = WorkloadSpec::hour_long(4000, 47);
    let mix = evaluation_mix();
    let mut t = ResultTable::new(
        "Tenant sweep: fixed aggregate demand, 1 \u{2192} 10,000 tenants",
        &[
            "tenants",
            "admitted",
            "rejected",
            "deferrals",
            "p50_latency_s",
            "p99_latency_s",
            "aggregate_micros",
            "attributed_micros",
            "exact",
            "p99_vs_single",
        ],
    );
    let mut single_p99 = 0.0f64;
    for n in [1usize, 10, 100, 1000, 10000] {
        let spec =
            ServeSpec::new(TenantRegistry::homogeneous(n, &aggregate)).with_run(RunSpec::new());
        let r = run_serve(&spec, &mix).expect("sweep spec is valid");
        let aggregate_micros = r.run.total_cost_micros();
        let attributed_micros = r.attributed_total_micros();
        assert_eq!(
            attributed_micros, aggregate_micros,
            "attribution must be exact at {n} tenants"
        );
        let p99 = r.latency_percentile(99.0);
        if n == 1 {
            single_p99 = p99;
        }
        let ratio = p99 / single_p99;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "p99 at {n} tenants drifted {ratio:.3}x from the single-tenant baseline"
        );
        t.row_strings(vec![
            n.to_string(),
            r.admitted().to_string(),
            r.rejected().to_string(),
            r.deferrals().to_string(),
            secs(r.latency_percentile(50.0)),
            secs(p99),
            aggregate_micros.to_string(),
            attributed_micros.to_string(),
            "yes".to_string(),
            format!("{ratio:.4}"),
        ]);
    }
    Report::default()
        .table("tenant_sweep", &t)
        .note("per-tenant shares summed to the aggregate bill exactly at every")
        .note("sweep point, and p99 stayed within 10% of the single-tenant run.")
}
