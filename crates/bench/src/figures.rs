//! The paper's tables and figures, in paper order.

use crate::*;
use cackle::delaying::run_delaying;
use cackle::model::{predict_cost_from_history, run_model};
use cackle::oracle::{oracle_cost, oracle_cost_without_pool};
use cackle::system::run_system;
use cackle::{AllocationSim, RunSpec, Telemetry};
use cackle_comparators::{
    run_databricks, run_redshift, DatabricksConfig, RedshiftConfig, WarehouseSize,
};
use cackle_workload::demand::{percentile_f64, DemandCurve};
use cackle_workload::traces;

/// The strategies Figures 5–8 compare: fixed_0 (pool only), fixed_500,
/// mean_2, predictive, oracle, dynamic.
const STRATEGIES: &[&str] = &[
    "fixed_0",
    "fixed_500",
    "mean_2",
    "predictive",
    "oracle",
    "dynamic",
];

/// Figure 1: CDF of query latencies in an hour-long 1500-query workload —
/// Cackle (starting from zero compute) vs a Databricks SQL small warehouse
/// with five fixed clusters vs small with autoscaling.
pub(crate) fn fig01_latency_cdf() -> Report {
    let w = hour_workload(1500, 11);
    let cackle_run = run_system(&w, &RunSpec::new());
    let fixed5 = run_databricks(&w, &DatabricksConfig::fixed(WarehouseSize::Small, 5));
    let auto = run_databricks(&w, &DatabricksConfig::autoscaling(WarehouseSize::Small, 8));

    let mut t = ResultTable::new(
        "Fig 1: latency CDF, 1500 TPC-H queries in one hour",
        &[
            "percentile",
            "cackle_s",
            "databricks_small_5clusters_s",
            "databricks_small_autoscaling_s",
        ],
    );
    for pct in [
        10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 95.0, 99.0, 100.0,
    ] {
        t.row_strings(vec![
            format!("{pct:.0}"),
            secs(percentile_f64(&cackle_run.latencies, pct)),
            secs(percentile_f64(&fixed5.latencies, pct)),
            secs(percentile_f64(&auto.latencies, pct)),
        ]);
    }
    Report::default()
        .table("fig01_latency_cdf", &t)
        .note(format!(
            "costs: cackle ${:.2}, databricks fixed-5 ${:.2}, autoscaling ${:.2}",
            cackle_run.total_cost(),
            fixed5.total_cost(),
            auto.total_cost()
        ))
}

/// Figures 2-4: the three real-world workload traces (synthetic stand-ins;
/// see DESIGN.md §1). Logs summary statistics plus the hourly-max series
/// for the full span and a minute-max series for a two-hour window,
/// mirroring each figure's top/bottom panels.
pub(crate) fn fig02_04_traces() -> Report {
    let mut report = Report::default();
    for (fig, name, unit, curve, window_start_h) in [
        (
            "Fig02",
            "startup workload",
            "concurrent queries",
            traces::startup_trace(1),
            115,
        ),
        (
            "Fig03",
            "Alibaba 2018 workload",
            "concurrent CPUs (thousands)",
            traces::alibaba_trace(1),
            72,
        ),
        (
            "Fig04",
            "Azure Synapse workload",
            "nodes requested",
            traces::azure_trace(1),
            150,
        ),
    ] {
        let mut full = ResultTable::new(
            format!("{fig} full span (hourly max, {unit})"),
            &["hour", "demand"],
        );
        for (h, v) in curve.downsample_max(3600).iter().enumerate() {
            full.row_strings(vec![h.to_string(), v.to_string()]);
        }
        let mut zoom = ResultTable::new(
            format!("{fig} two-hour window from hour {window_start_h} (minute max, {unit})"),
            &["minute", "demand"],
        );
        let start = window_start_h * 3600;
        let window = DemandCurve::from_samples(
            curve.samples[start..(start + 7200).min(curve.len())].to_vec(),
        );
        for (m, v) in window.downsample_max(60).iter().enumerate() {
            zoom.row_strings(vec![m.to_string(), v.to_string()]);
        }
        let file = fig.to_lowercase();
        report = report
            .note(format!(
                "{fig} — {name}: span {} h, peak {} {unit}, mean {:.1}, p50 {}, p99 {}",
                curve.len() / 3600,
                curve.peak(),
                curve.mean(),
                curve.percentile(50),
                curve.percentile(99)
            ))
            .table(&format!("{file}_full"), &full)
            .table(&format!("{file}_window"), &zoom);
    }
    report
}

/// Table 1: default workload and environment parameters of the analytical
/// model. Regenerates the table directly from the defaults in code so any
/// drift between documentation and implementation is visible.
pub(crate) fn table01_defaults() -> Report {
    let spec = WorkloadSpec::default();
    let env = env();
    let mut workload = ResultTable::new(
        "Table 1: Default Workload Parameters",
        &["parameter", "value"],
    );
    for (parameter, value) in [
        (
            "Workload Duration",
            format!("{} Hours", spec.duration_s / 3600),
        ),
        ("# Queries", spec.num_queries.to_string()),
        (
            "Baseline Load",
            format!("{:.0}%", spec.baseline_load * 100.0),
        ),
        (
            "Period Of Query Arrivals",
            format!("{} Hours", spec.period_s / 3600),
        ),
    ] {
        workload.row_strings(vec![parameter.into(), value]);
    }
    let mut environment = ResultTable::new(
        "Table 1: Default Environment Parameters",
        &["parameter", "value"],
    );
    for (parameter, value) in [
        (
            "VM Startup Latency",
            format!("{} Minutes", env.vm_startup_s() / 60),
        ),
        (
            "Minimum VM Billing Time",
            format!("{} Minute", env.vm_min_billing_s() / 60),
        ),
        (
            "Cost of VM (2vCPUs)",
            format!("${}/Hour", env.pricing.vm_per_hour),
        ),
        (
            "Cost of Elastic Pool (2vCPUs)",
            format!(
                "${}/Hour ({}x VM)",
                env.pricing.pool_per_hour,
                env.pricing.pool_premium()
            ),
        ),
    ] {
        environment.row_strings(vec![parameter.into(), value]);
    }
    Report::default()
        .table("table01_workload", &workload)
        .table("table01_environment", &environment)
}

/// Figure 5: cost of the query workload as the number of queries varies
/// (Table 1 defaults otherwise). Strategies: fixed_0 (pool only),
/// fixed_500, mean_2, predictive, oracle, dynamic.
pub(crate) fn fig05_query_density() -> Report {
    let rows = [1000usize, 2000, 4000, 8000, 16384, 32768, 65536, 100_000]
        .map(|n| (n.to_string(), demand(&default_workload(n)), env()));
    let t = cost_grid(
        "Fig 5: cost ($) vs number of queries (12 h window)",
        "queries",
        rows,
        STRATEGIES,
        |cost, _| usd(cost),
    );
    Report::default().table("fig05_query_density", &t)
}

/// Figure 6: cost as the period of query arrivals varies (Table 1 defaults
/// otherwise: 16384 queries over 12 h, 30 % baseline).
pub(crate) fn fig06_period() -> Report {
    let rows = [100u64, 300, 1000, 3000, 10_800, 30_000].map(|period| {
        let spec = WorkloadSpec {
            period_s: period,
            ..WorkloadSpec::default()
        };
        let w = build_workload(&spec, &model_mix());
        (period.to_string(), demand(&w), env())
    });
    let t = cost_grid(
        "Fig 6: cost ($) vs period of arrivals (s)",
        "period_s",
        rows,
        STRATEGIES,
        |cost, _| usd(cost),
    );
    Report::default().table("fig06_period", &t)
}

/// Figure 7: cost as the baseline (uniform) share of query arrivals varies
/// from fully sinusoidal (0.0) to fully uniform (1.0).
pub(crate) fn fig07_baseline() -> Report {
    let rows = [0.0f64, 0.2, 0.4, 0.6, 0.8, 1.0].map(|pct| {
        let spec = WorkloadSpec {
            baseline_load: pct,
            ..WorkloadSpec::default()
        };
        let w = build_workload(&spec, &model_mix());
        (format!("{pct:.1}"), demand(&w), env())
    });
    let t = cost_grid(
        "Fig 7: cost ($) vs baseline load fraction",
        "baseline",
        rows,
        STRATEGIES,
        |cost, _| usd(cost),
    );
    Report::default().table("fig07_baseline", &t)
}

/// Figure 8: cost as the elastic pool's price premium over VMs varies from
/// 1x to 100x (the Jan-Mar 2023 spot-price swing motivates this sweep).
pub(crate) fn fig08_pool_cost() -> Report {
    let d = demand(&default_workload(16384));
    let rows = [1.0f64, 2.0, 3.0, 6.0, 10.0, 20.0, 50.0, 100.0].map(|ratio| {
        (
            format!("{ratio:.0}"),
            d.clone(),
            env().with_pool_premium(ratio),
        )
    });
    let t = cost_grid(
        "Fig 8: cost ($) vs elastic-pool premium over VM",
        "premium",
        rows,
        STRATEGIES,
        |cost, _| usd(cost),
    );
    Report::default().table("fig08_pool_cost", &t)
}

/// Figure 9: cost as VM startup latency varies from instant to 800 s.
/// Adds mean_1 alongside mean_2 - the paper highlights how their relative
/// order flips with startup time while dynamic stays near optimal.
pub(crate) fn fig09_startup() -> Report {
    let d = demand(&default_workload(16384));
    let rows = [0u64, 60, 120, 180, 300, 450, 600, 800].map(|startup| {
        (
            startup.to_string(),
            d.clone(),
            env().with_vm_startup_s(startup),
        )
    });
    let t = cost_grid(
        "Fig 9: cost ($) vs VM startup time (s)",
        "startup_s",
        rows,
        &[
            "fixed_0",
            "fixed_500",
            "mean_1",
            "mean_2",
            "predictive",
            "oracle",
            "dynamic",
        ],
        |cost, _| usd(cost),
    );
    Report::default().table("fig09_startup", &t)
}

/// Figure 10: cost of strategies on the three real-world workload traces
/// (synthetic stand-ins, DESIGN.md §1), normalized to fixed_0. The paper
/// converts each trace to a task-demand curve: startup queries count as 20
/// tasks each, Azure nodes as 20 tasks each, Alibaba CPUs as one task per
/// CPU (scaled to keep the curve in range).
pub(crate) fn fig10_real_workloads() -> Report {
    let rows = [
        ("Startup", traces::startup_trace(1).scale(20.0)),
        ("Alibaba 2018", traces::alibaba_trace(1).scale(100.0)),
        ("Azure", traces::azure_trace(1).scale(20.0)),
    ]
    .map(|(name, curve)| (name.to_string(), curve.samples, env()));
    let t = cost_grid(
        "Fig 10: cost normalized to fixed_0",
        "workload",
        rows,
        &["fixed_0", "mean_1", "predictive", "dynamic", "oracle"],
        |cost, fixed_0| format!("{:.3}", cost / fixed_0),
    );
    Report::default().table("fig10_real_workloads", &t)
}

/// Figure 11: the cost of delaying work. A work-delaying system with fixed
/// provisioning sweeps its VM count (blue dots in the paper); Cackle's
/// oracle with and without the elastic pool and the cost-based dynamic
/// strategy show what elastic pools unlock. Workload: 2048 queries over
/// 12 h, 30 % baseline, 12 h period (§5.5).
pub(crate) fn fig11_delaying() -> Report {
    let e = env();
    let spec = WorkloadSpec {
        num_queries: 2048,
        period_s: 12 * 3600,
        ..WorkloadSpec::default()
    };
    let w = build_workload(&spec, &model_mix());
    let d = demand(&w);
    let no_delay_p95 = percentile_f64(
        &w.iter()
            .map(|q| q.profile.critical_path_seconds() as f64)
            .collect::<Vec<_>>(),
        95.0,
    );

    let mut t = ResultTable::new(
        "Fig 11: cost vs p95 latency, delaying vs elastic strategies",
        &["series", "vms", "p95_latency_s", "cost_usd"],
    );
    for slots in [60u32, 80, 100, 125, 150, 200, 250, 300, 400, 500] {
        let r = run_delaying(&w, slots, &RunSpec::new().with_env(e.clone()));
        t.row_strings(vec![
            "work_delaying_fixed".into(),
            slots.to_string(),
            secs(r.latency_percentile(95.0)),
            usd(r.compute.total()),
        ]);
    }
    let oc = oracle_cost(&d, &e);
    t.row_strings(vec![
        "cackle_oracle".into(),
        "-".into(),
        secs(no_delay_p95),
        usd(oc.total()),
    ]);
    let ocn = oracle_cost_without_pool(&d, &e);
    t.row_strings(vec![
        "cackle_oracle_no_pool".into(),
        "-".into(),
        secs(no_delay_p95),
        usd(ocn.total()),
    ]);
    let rspec = RunSpec::new().with_env(e.clone()).with_compute_only(true);
    let r = run_model(&w, &rspec);
    t.row_strings(vec![
        "cackle_dynamic".into(),
        "-".into(),
        secs(r.latency_percentile(95.0)),
        usd(r.compute.total()),
    ]);
    Report::default().table("fig11_delaying", &t)
}

/// Figure 12: demand, VM target, active VMs, and the analytical model's
/// predicted active VMs over an hour-long 750-query workload executed on
/// the full system with the dynamic strategy; plus the §7.2 cost
/// validation (model-predicted vs measured cost).
///
/// The per-second series are consumed straight from the telemetry
/// registry (`run.demand` / `run.target` / `run.active`), and the full
/// registry is dumped as `fig12_telemetry.jsonl` next to the CSVs for
/// external plotting.
pub(crate) fn fig12_timeseries() -> Report {
    let telemetry = Telemetry::new();
    let spec = RunSpec::new().with_telemetry(&telemetry);
    let w = hour_workload(750, 12);
    let r = run_system(&w, &spec);
    let series_u32 = |name: &str| -> Vec<u32> {
        telemetry
            .series(name)
            .unwrap_or_default()
            .iter()
            .map(|&(_, v)| v.round().max(0.0) as u32)
            .collect()
    };
    let demand = series_u32("run.demand");
    let target = series_u32("run.target");
    let active = series_u32("run.active");

    // Model-predicted active VMs: replay the recorded targets through the
    // §4.4.2 allocation simulation.
    let mut sim = AllocationSim::new(&spec.env);
    let mut predicted_active = Vec::with_capacity(target.len());
    for (&tgt, &d) in target.iter().zip(&demand) {
        sim.step(tgt, d);
        predicted_active.push(sim.active_count() as u32);
    }

    let mut series = ResultTable::new(
        "Fig 12: per-minute series over a 750-query hour (dynamic strategy)",
        &[
            "minute",
            "demand_max",
            "vm_target",
            "active_vms",
            "model_predicted_active",
        ],
    );
    for m in 0..demand.len().div_ceil(60) {
        let lo = m * 60;
        let hi = ((m + 1) * 60).min(demand.len());
        let mx = |v: &[u32]| v[lo..hi].iter().copied().max().unwrap_or(0).to_string();
        series.row_strings(vec![
            m.to_string(),
            mx(&demand),
            mx(&target),
            mx(&active),
            mx(&predicted_active),
        ]);
    }

    // Cost validation: feed the executed history back into the model.
    let predicted = predict_cost_from_history(&demand, &target, &spec.env);
    let mut validation = ResultTable::new(
        "Fig 12 validation: model-predicted vs measured compute cost",
        &["quantity", "model_predicted", "measured"],
    );
    for (quantity, model, measured) in [
        ("vm_cost", predicted.vm_cost, r.compute.vm_cost),
        ("pool_cost", predicted.pool_cost, r.compute.pool_cost),
        ("total", predicted.total(), r.compute.total()),
    ] {
        validation.row_strings(vec![quantity.into(), usd(model), usd(measured)]);
    }
    let delta = (predicted.total() - r.compute.total()).abs() / r.compute.total() * 100.0;
    Report::default()
        .table("fig12_timeseries", &series)
        .file("fig12_telemetry.jsonl", telemetry.export_jsonl())
        .note(format!(
            "model vs measured delta: {delta:.1}% (paper reports 12%)"
        ))
        .table("fig12_validation", &validation)
}

/// Figure 13: analytical-model vs real-execution cost per query across
/// hour-long workloads of 60-2000 queries, split into VM and elastic-pool
/// components, with the oracle's best-case provisioning for comparison.
///
/// Both runs record into telemetry sinks and the table reads the
/// per-component cost attribution (`fleet`/`vm_compute`,
/// `pool`/`elastic_pool`) from the registries rather than the summary
/// cost structs.
pub(crate) fn fig13_model_validation() -> Report {
    let e = env();
    let mut t = ResultTable::new(
        "Fig 13: cost per query ($): modeled vs real vs oracle (VM / pool split)",
        &[
            "queries",
            "model_vm",
            "model_pool",
            "real_vm",
            "real_pool",
            "oracle_vm",
            "oracle_pool",
        ],
    );
    for n in [60usize, 250, 500, 750, 1000, 1500, 2000] {
        let w = hour_workload(n, 13);
        let nf = n as f64;
        let model_t = Telemetry::new();
        let model_spec = RunSpec::new()
            .with_compute_only(true)
            .with_telemetry(&model_t);
        run_model(&w, &model_spec);
        let real_t = Telemetry::new();
        let real_spec = RunSpec::new().with_telemetry(&real_t);
        run_system(&w, &real_spec);
        let oc = oracle_cost(&demand(&w), &e);
        t.row_strings(vec![
            n.to_string(),
            usd4(model_t.cost("fleet", "vm_compute") / nf),
            usd4(model_t.cost("pool", "elastic_pool") / nf),
            usd4(real_t.cost("fleet", "vm_compute") / nf),
            usd4(real_t.cost("pool", "elastic_pool") / nf),
            usd4(oc.vm_cost / nf),
            usd4(oc.pool_cost / nf),
        ]);
    }
    Report::default().table("fig13_model_validation", &t)
}

/// Figure 14: cost and latency stability across workload sizes — Cackle
/// (full system, dynamic strategy, compute + shuffle cost) vs Databricks
/// small/medium warehouses with fixed and autoscaling provisioning vs
/// Redshift Serverless. Left panel: p90 query latency; right panel: cost
/// per query.
///
/// Every run (Cackle and the comparators) records into a telemetry sink;
/// the cost panel reads total dollars and completed-query counts from the
/// registries, so all six systems are compared through the same
/// instrumentation.
pub(crate) fn fig14_stability() -> Report {
    let systems = [
        "queries",
        "cackle",
        "databricks_small_fixed5",
        "databricks_small_auto8",
        "databricks_medium_fixed3",
        "databricks_medium_auto5",
        "redshift_8rpu",
    ];
    let mut latency = ResultTable::new(
        "Fig 14 (left): p90 query latency (s) vs number of queries",
        &systems,
    );
    let mut cost = ResultTable::new(
        "Fig 14 (right): cost per query ($) vs number of queries",
        &systems,
    );
    for n in [60usize, 250, 500, 750, 1000, 1500, 2000] {
        let w = hour_workload(n, 14);
        let sinks: Vec<Telemetry> = (0..6).map(|_| Telemetry::new()).collect();
        let runs = [
            run_system(&w, &RunSpec::new().with_telemetry(&sinks[0])),
            run_databricks(
                &w,
                &DatabricksConfig::fixed(WarehouseSize::Small, 5).with_telemetry(&sinks[1]),
            ),
            run_databricks(
                &w,
                &DatabricksConfig::autoscaling(WarehouseSize::Small, 8).with_telemetry(&sinks[2]),
            ),
            run_databricks(
                &w,
                &DatabricksConfig::fixed(WarehouseSize::Medium, 3).with_telemetry(&sinks[3]),
            ),
            run_databricks(
                &w,
                &DatabricksConfig::autoscaling(WarehouseSize::Medium, 5).with_telemetry(&sinks[4]),
            ),
            run_redshift(&w, &RedshiftConfig::default().with_telemetry(&sinks[5])),
        ];
        let mut lrow = vec![n.to_string()];
        let mut crow = vec![n.to_string()];
        for (r, t) in runs.iter().zip(&sinks) {
            lrow.push(secs(r.latency_percentile(90.0)));
            let queries = t.counter("run.queries_total").max(1) as f64;
            let dollars = t.snapshot().map(|reg| reg.cost_total()).unwrap_or_default();
            crow.push(usd4(dollars / queries));
        }
        latency.row_strings(lrow);
        cost.row_strings(crow);
    }
    Report::default()
        .table("fig14_latency", &latency)
        .table("fig14_cost", &cost)
}
