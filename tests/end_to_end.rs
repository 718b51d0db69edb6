//! Cross-crate integration tests: the full pipeline from TPC-H data
//! generation through plan execution, profiling, workload generation,
//! provisioning strategies, the analytical model, the full system, and the
//! comparators — the paper's claims checked end-to-end at test scale.

use cackle::delaying::try_run_delaying;
use cackle::model::{build_workload, run_model, run_model_with, workload_curves};
use cackle::oracle::{oracle_cost, oracle_cost_without_pool};
use cackle::system::{run_system_with, try_run_system};
use cackle::{Env, FamilyConfig, MetaStrategy, RunError, RunSpec};
use cackle_comparators::{
    run_databricks, try_run_databricks, try_run_redshift, DatabricksConfig, RedshiftConfig,
    WarehouseSize,
};
use cackle_tpch::dbgen::{generate_catalog, DbGenConfig};
use cackle_tpch::profiles::{measured_profile, profile_set};
use cackle_workload::arrivals::WorkloadSpec;
use cackle_workload::profile::{ProfileRef, QueryProfile, StageProfile};
use std::sync::Arc;

fn small_dynamic(env: &Env) -> MetaStrategy {
    MetaStrategy::with_family(FamilyConfig::small(), env)
}

fn mix() -> Vec<ProfileRef> {
    profile_set(10.0)
}

fn workload(n: usize, seed: u64) -> Vec<cackle::QueryArrival> {
    build_workload(&WorkloadSpec::hour_long(n, seed), &mix())
}

fn compute_only(label: &str) -> RunSpec {
    RunSpec::new().with_strategy(label).with_compute_only(true)
}

#[test]
fn paper_claim_dynamic_beats_both_fixed_extremes() {
    // The core pitch (§1): fixed over-provisioning pays for idle VMs,
    // pool-only pays the premium; the hybrid dynamic strategy undercuts
    // both on a cyclical workload.
    let env = Env::default();
    let w = workload(600, 3);

    let pool_only = run_model(&w, &compute_only("fixed_0")).compute.total();
    let over = run_model(&w, &compute_only("fixed_500")).compute.total();
    let dynamic = {
        let mut s = small_dynamic(&env);
        run_model_with(&w, &mut s, &compute_only("dynamic"))
            .compute
            .total()
    };
    assert!(
        dynamic < pool_only,
        "dynamic {dynamic} vs pool-only {pool_only}"
    );
    assert!(dynamic < over, "dynamic {dynamic} vs fixed-500 {over}");
}

#[test]
fn paper_claim_oracle_bounds_everything() {
    let env = Env::default();
    let w = workload(400, 4);
    let curves = workload_curves(&w);
    let oracle = oracle_cost(&curves.demand.samples, &env).total();
    for label in ["fixed_0", "fixed_100", "mean_1", "mean_2", "predictive"] {
        let c = run_model(&w, &compute_only(label)).compute.total();
        assert!(oracle <= c + 1e-9, "{label}: oracle {oracle} > {c}");
    }
    // And removing the pool can only cost more.
    let no_pool = oracle_cost_without_pool(&curves.demand.samples, &env).total();
    assert!(no_pool >= oracle);
}

#[test]
fn paper_claim_latency_stays_stable_while_delaying_systems_cliff() {
    // §5.5 / Figure 11: Cackle's latency is queue-free; a work-delaying
    // system's p95 explodes when under-provisioned.
    let env = Env::default();
    let w = workload(500, 5);
    let mut s = small_dynamic(&env);
    let cackle_run = run_model_with(&w, &mut s, &compute_only("dynamic"));
    let starved = cackle::delaying::run_delaying(&w, 8, &RunSpec::new());
    assert!(
        starved.latency_percentile(95.0) > cackle_run.latency_percentile(95.0) * 3.0,
        "delaying p95 {} vs cackle p95 {}",
        starved.latency_percentile(95.0),
        cackle_run.latency_percentile(95.0)
    );
}

#[test]
fn model_predicts_real_system_cost_within_reason() {
    // §7.2 / Figure 13: the analytical model lands near the event-driven
    // system's measured cost despite runtime noise and feedback.
    let env = Env::default();
    let w = workload(400, 6);
    let mut ms = small_dynamic(&env);
    let model = run_model_with(&w, &mut ms, &compute_only("dynamic"))
        .compute
        .total();
    let mut ss = small_dynamic(&env);
    let real = run_system_with(&w, &mut ss, &RunSpec::new())
        .compute
        .total();
    let ratio = model / real;
    assert!(
        (0.5..2.0).contains(&ratio),
        "model ${model:.2} vs real ${real:.2} (ratio {ratio:.2})"
    );
}

#[test]
fn measured_profiles_flow_into_the_model() {
    // Full integration: generate data, execute the real engine to measure
    // a profile, then run that profile through the analytical model.
    let cfg = DbGenConfig {
        scale_factor: 0.002,
        rows_per_partition: 512,
        seed: 7,
    };
    let catalog = generate_catalog(&cfg);
    let profile = std::sync::Arc::new(measured_profile("q06", &catalog, 0.002, 10.0));
    let w: Vec<cackle::QueryArrival> = (0..50)
        .map(|i| cackle::QueryArrival {
            at_s: i * 20,
            profile: profile.clone(),
        })
        .collect();
    let r = run_model(&w, &RunSpec::new().with_strategy("mean_1"));
    assert_eq!(r.latencies.len(), 50);
    assert!(r.compute.total() > 0.0);
}

#[test]
fn comparators_run_the_same_workload_shape() {
    // Databricks autoscaling must show a worse tail than an
    // over-provisioned fixed warehouse under a burst (Figure 1's story).
    let w = {
        let mut w = workload(300, 7);
        // Compress arrivals into 10 minutes to create a hard burst.
        for q in &mut w {
            q.at_s %= 600;
        }
        w.sort_by_key(|q| q.at_s);
        w
    };
    let auto = run_databricks(&w, &DatabricksConfig::autoscaling(WarehouseSize::Small, 8));
    let fixed = run_databricks(&w, &DatabricksConfig::fixed(WarehouseSize::Small, 5));
    assert!(
        auto.latency_percentile(90.0) >= fixed.latency_percentile(90.0),
        "auto p90 {} vs fixed p90 {}",
        auto.latency_percentile(90.0),
        fixed.latency_percentile(90.0)
    );
}

#[test]
fn every_baseline_reports_a_malformed_workload_as_a_typed_error() {
    // "All systems run identical workloads" includes the broken ones: a
    // stage graph that cannot execute is the same typed error, naming the
    // query, from Cackle and from each work-delaying baseline — never a
    // query that "finished" in zero seconds.
    type Shape = [(u32, Vec<usize>)];
    let query = |shape: &Shape| {
        let stages = shape.iter().map(|(tasks, deps)| StageProfile {
            tasks: *tasks,
            task_seconds: 8,
            shuffle_bytes: 0,
            shuffle_writes: 0,
            shuffle_reads: 0,
            deps: deps.clone(),
        });
        // Built field by field: `QueryProfile::new` would assert first.
        let profile = Arc::new(QueryProfile {
            name: "q".to_string(),
            stages: stages.collect(),
        });
        cackle::QueryArrival { at_s: 0, profile }
    };
    let shapes: [(&str, &Shape); 4] = [
        ("a dependency cycle", &[(1, vec![1]), (1, vec![0])]),
        ("a dependency on a missing stage", &[(1, vec![5])]),
        ("a stage with no tasks", &[(0, vec![])]),
        ("a profile with no stages", &[]),
    ];
    type Runner = fn(&[cackle::QueryArrival]) -> Result<cackle::RunResult, RunError>;
    let runners: [(&str, Runner); 4] = [
        ("system", |w| try_run_system(w, &RunSpec::new())),
        ("delaying", |w| try_run_delaying(w, 4, &RunSpec::new())),
        ("redshift", |w| {
            try_run_redshift(w, &RedshiftConfig::default())
        }),
        ("databricks", |w| {
            try_run_databricks(w, &DatabricksConfig::fixed(WarehouseSize::Small, 1))
        }),
    ];
    let sound = query(&[(2, vec![]), (1, vec![0])]);
    for (runner, run) in runners {
        assert!(run(std::slice::from_ref(&sound)).is_ok(), "{runner}");
        for (name, shape) in shapes {
            match run(&[sound.clone(), query(shape)]) {
                Err(RunError::InvalidWorkload(why)) => {
                    assert!(why.contains("query 1"), "{runner}, {name}: {why}")
                }
                other => panic!("{runner} should reject {name}, got {other:?}"),
            }
        }
    }
}

#[test]
fn shuffle_layer_costs_scale_with_query_volume() {
    // §5.6: more queries, more requests; the provisioned node floor keeps
    // the request overflow bounded.
    let spec = RunSpec::new().with_strategy("mean_1");
    let small = run_model(&workload(100, 8), &spec);
    let large = run_model(&workload(800, 8), &spec);
    assert!(large.shuffle.total() >= small.shuffle.total());
    assert!(large.shuffle.node_cost > 0.0);
}

#[test]
fn cost_per_query_stability_band() {
    // Figure 14's headline: Cackle's cost per query stays within a modest
    // band across an order of magnitude of workload sizes.
    let env = Env::default();
    let mut costs = Vec::new();
    for n in [200usize, 600, 1800] {
        let w = workload(n, 9);
        let mut s = small_dynamic(&env);
        let r = run_model_with(&w, &mut s, &compute_only("dynamic"));
        costs.push(r.compute.total() / n as f64);
    }
    let max = costs.iter().cloned().fold(f64::MIN, f64::max);
    let min = costs.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min < 4.0,
        "cost/query should be stable across sizes: {costs:?}"
    );
}
