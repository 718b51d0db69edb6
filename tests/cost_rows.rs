//! Every runner writes its cost table once, from the figures its
//! `RunResult` reports: each `"type":"cost"` row that mirrors a result
//! field equals that field bit for bit, so a dump states the run's bill
//! exactly rather than a re-summed float near it. The only other rows a
//! dump may carry are the `recovery` component's, which attribute spend
//! the mirrored rows already contain. The runners that move store
//! requests also count them: each `store` row is the price of the
//! `store.*_requests_total` counter beside it, and a chaos run that
//! injected store errors attributes the retried requests to `recovery`.

mod common;

use cackle::delaying::run_delaying;
use cackle::model::{build_workload, run_model};
use cackle::system::run_system;
use cackle::{
    run_live, Env, EnvironmentSpec, FaultSpec, RecoveryPolicy, RunResult, RunSpec, Telemetry,
};
use cackle_cloud::Pricing;
use cackle_comparators::{
    run_databricks, run_redshift, DatabricksConfig, RedshiftConfig, WarehouseSize,
};
use cackle_faults::StoreOp;
use cackle_serve::{run_serve, Runner, ServeSpec, TenantRegistry};
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;
use common::budget::assert_fault_budget;
use common::{chaos, chaos_recovery, live_catalog, live_workload, report, store_errors};

/// The cost rows the model, system, live and serve runners write, each
/// with the result field it mirrors.
fn mirrored(r: &RunResult) -> Vec<(&'static str, &'static str, f64)> {
    vec![
        ("fleet", "vm_compute", r.compute.vm_cost),
        ("pool", "elastic_pool", r.compute.pool_cost),
        ("shuffle_fleet", "shuffle_node", r.shuffle.node_cost),
        ("store", "s3_put", r.shuffle.s3_put_cost),
        ("store", "s3_get", r.shuffle.s3_get_cost),
        ("env", "egress", r.shuffle.egress_cost),
    ]
}

/// Each of `rows` reads exactly its field in `t`, and `t` holds no cost
/// row outside `rows` but the `recovery` component's.
fn assert_rows(name: &str, t: &Telemetry, r: &RunResult, rows: &[(&str, &str, f64)]) {
    assert!(r.total_cost() > 0.0, "{name}: the run billed nothing");
    for &(component, category, field) in rows {
        let row = t.cost(component, category);
        assert_eq!(
            row.to_bits(),
            field.to_bits(),
            "{name}: {component}/{category} reads {row:?}, the run reports {field:?}\n{}",
            report(r)
        );
    }
    let registry = t.snapshot().expect("an enabled sink");
    for (component, category, _) in registry.costs() {
        let known = rows
            .iter()
            .any(|&(c, k, _)| (c, k) == (component, category));
        assert!(
            known || component == "recovery",
            "{name}: unexpected cost row {component}/{category}"
        );
    }
}

/// Each `store` row is what its request counter costs, by `to_bits`,
/// and where injected store errors were counted their retries carry a
/// `recovery` row of the same category.
fn assert_store_rows(name: &str, t: &Telemetry) {
    let pricing = Pricing::default();
    for (op, category, requests, errors) in [
        (
            StoreOp::Put,
            "s3_put",
            "store.put_requests_total",
            "fault.store_put_errors_total",
        ),
        (
            StoreOp::Get,
            "s3_get",
            "store.get_requests_total",
            "fault.store_get_errors_total",
        ),
    ] {
        let row = t.cost("store", category);
        let priced = pricing.requests(op, t.counter(requests)).dollars();
        assert_eq!(
            row.to_bits(),
            priced.to_bits(),
            "{name}: store/{category} reads {row:?}, {requests} {} prices to {priced:?}",
            t.counter(requests)
        );
        if t.counter(errors) > 0 {
            let retried = t.cost("recovery", category);
            assert!(
                retried > 0.0,
                "{name}: {errors} {} but recovery/{category} reads {retried:?}",
                t.counter(errors)
            );
        }
    }
}

fn sink() -> (Telemetry, RunSpec) {
    let t = Telemetry::new();
    let spec = RunSpec::new().with_strategy("dynamic").with_telemetry(&t);
    (t, spec)
}

fn remote_region() -> FaultSpec {
    FaultSpec::default().with_environment(
        EnvironmentSpec::default()
            .with_vm_heterogeneity(0.25, 2.0, 0.5)
            .with_market_motion(0.3, 900)
            .with_remote_region(0.5, 700, 20_000),
    )
}

#[test]
fn every_runner_dumps_the_costs_it_reports() {
    let mix = profile_set(10.0);
    let workload = build_workload(&WorkloadSpec::hour_long(250, 29), &mix);

    for (name, faults) in [
        ("model", FaultSpec::default()),
        ("model/remote-region", remote_region()),
    ] {
        let (t, spec) = sink();
        let r = run_model(&workload, &spec.with_faults(faults));
        assert_rows(name, &t, &r, &mirrored(&r));
    }

    let default = RecoveryPolicy::default();
    for (name, faults, recovery) in [
        ("system/fault-free", FaultSpec::default(), default),
        ("system/chaos", chaos(), chaos_recovery()),
        ("system/remote-region", remote_region(), default),
    ] {
        let (t, spec) = sink();
        let spec = spec.with_faults(faults).with_recovery(recovery);
        let r = run_system(&workload, &spec);
        assert_fault_budget(name, &spec);
        assert_rows(name, &t, &r, &mirrored(&r));
        assert_store_rows(name, &t);
    }

    // The chaos plan's transport drops almost never exhaust their retry
    // bound on this small workload, so its store sees no request; the
    // store-errors run sends every chunk through the store, where many
    // requests fail and retry.
    let chaos_plan = |s: RunSpec| s.with_faults(chaos()).with_recovery(chaos_recovery());
    for (name, configure) in [
        ("live/fault-free", (|s| s) as fn(RunSpec) -> RunSpec),
        ("live/chaos", chaos_plan),
        ("live/store-errors", store_errors),
    ] {
        let (t, spec) = sink();
        let spec = configure(spec.with_rows_per_task_second(5_000.0));
        let r = run_live(&live_workload(), &live_catalog(), &spec);
        assert_fault_budget(name, &spec);
        assert_rows(name, &t, &r, &mirrored(&r));
        assert_store_rows(name, &t);
        if name == "live/store-errors" {
            for c in ["store_get", "store_put"].map(|op| format!("fault.{op}_errors_total")) {
                let n = t.counter(&c);
                assert!(
                    n >= 5,
                    "{name}: {c} reads {n}; several requests should fail"
                );
            }
        }
    }

    let (t, spec) = sink();
    let r = run_delaying(&workload, 64, &spec);
    let rows = [("fleet", "vm_compute", r.compute.vm_cost)];
    assert_rows("delaying", &t, &r, &rows);

    let t = Telemetry::new();
    let r = run_redshift(&workload, &RedshiftConfig::default().with_telemetry(&t));
    let rows = [("endpoint", "vm_compute", r.compute.vm_cost)];
    assert_rows("redshift", &t, &r, &rows);

    let t = Telemetry::new();
    let cfg = DatabricksConfig::autoscaling(WarehouseSize::Small, 4).with_telemetry(&t);
    let r = run_databricks(&workload, &cfg);
    let rows = [("warehouse", "vm_compute", r.compute.vm_cost)];
    assert_rows("databricks", &t, &r, &rows);

    let (t, spec) = sink();
    let tenants = TenantRegistry::homogeneous(7, &WorkloadSpec::hour_long(100, 23));
    let serve = ServeSpec::new(tenants)
        .with_run(spec)
        .with_runner(Runner::System);
    let r = run_serve(&serve, &mix).expect("serve run must succeed").run;
    assert_rows("serve/system", &t, &r, &mirrored(&r));
    assert_store_rows("serve/system", &t);
}

#[test]
fn live_remote_vms_bill_egress() {
    // The live workload ends long before a VM boots, so this run's VMs
    // are up at once; half of them are in the remote region, and each
    // ships the bytes its tasks publish out of it.
    let (t, spec) = sink();
    let spec = spec
        .with_strategy("fixed_4")
        .with_env(Env::default().with_vm_startup_s(0))
        .with_rows_per_task_second(5_000.0)
        .with_faults(remote_region());
    let r = run_live(&live_workload(), &live_catalog(), &spec);
    assert_rows("live/remote-region", &t, &r, &mirrored(&r));
    assert!(r.compute.vm_cost > 0.0, "no task ran on a VM");
    let egress = t.cost("env", "egress");
    assert!(egress > 0.0, "env/egress reads {egress:?}");
    assert!(t.counter("env.egress_bytes_total") > 0);
}
