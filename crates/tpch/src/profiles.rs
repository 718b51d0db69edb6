//! Query execution profiles for the analytical model.
//!
//! The paper (§5.1) profiles each TPC-H query by running it five times on
//! the real system and recording, for the median run: per-task durations
//! (rounded to ≥ 1 s), stage dependencies, shuffle volumes, and storage
//! request counts. Without AWS we produce profiles two ways:
//!
//! * [`calibrated_profile`] — derived statically from the physical plan
//!   structure and table cardinalities at a scale factor, using throughput
//!   constants calibrated to the magnitudes reported for Starling-class
//!   engines (SF100 TPC-H queries run tens of seconds with ~128-way
//!   shuffles). Deterministic, no execution needed; these drive the large
//!   analytical-model experiments.
//! * [`measured_profile`] — run the real engine on a generated catalog and
//!   convert observed per-task row counts and shuffle bytes into simulated
//!   durations with the same throughput constant, scaled from the measured
//!   scale factor up to the target one. These validate that the model's
//!   input format matches what real executions produce.
//!
//! Shuffle request counts follow Starling's object layout: each producer
//! task writes 2 combined objects per exchange, and each consumer task
//! issues one ranged GET per producer object — a 128→128 shuffle costs
//! 256 PUTs and 128·128 GETs, the §7.1.3 arithmetic.

use crate::dbgen::DbGenConfig;
use crate::plans::{self, Par};
use cackle_engine::executor::Executor;
use cackle_engine::plan::{ExchangeMode, PlanNode, Stage, StageDag};
use cackle_engine::shuffle::{MemoryShuffle, ShuffleTransport};
use cackle_engine::table::Catalog;
use cackle_faults::FaultInjector;
use cackle_telemetry::Telemetry;
use cackle_workload::profile::{ProfileRef, QueryProfile, StageProfile};
use std::sync::Arc;

/// Rows one task processes per second (calibration constant; ~50 MB/s over
/// ~125-byte rows).
pub const ROWS_PER_TASK_SECOND: f64 = 400_000.0;

/// Approximate bytes per row for each table (for scan-volume estimates).
fn row_width(table: &str) -> u64 {
    match table {
        "lineitem" => 125,
        "orders" => 110,
        "customer" => 160,
        "part" => 155,
        "partsupp" => 145,
        "supplier" => 160,
        "nation" => 120,
        "region" => 120,
        _ => 128,
    }
}

fn table_rows(table: &str, cfg: &DbGenConfig) -> u64 {
    let c = cfg.row_counts();
    match table {
        "region" => c.region as u64,
        "nation" => c.nation as u64,
        "supplier" => c.supplier as u64,
        "customer" => c.customer as u64,
        "part" => c.part as u64,
        "partsupp" => c.partsupp as u64,
        "orders" => c.orders as u64,
        // Expected 4 lineitems per order.
        "lineitem" => c.orders as u64 * 4,
        _ => 0,
    }
}

/// How much of a stage's input survives to its output, by root operator.
fn output_ratio(node: &PlanNode) -> f64 {
    match node {
        PlanNode::HashAggregate { .. } => 0.02,
        PlanNode::Sort { limit: Some(_), .. } => 0.01,
        PlanNode::Sort { .. } => 1.0,
        PlanNode::Filter { input, .. } => 0.4 * output_ratio(input),
        PlanNode::Project { input, .. } => 0.8 * output_ratio(input),
        PlanNode::HashJoin { probe, .. } => 0.9 * output_ratio(probe),
        PlanNode::Scan { filter, .. } => {
            if filter.is_some() {
                0.35
            } else {
                1.0
            }
        }
        PlanNode::ShuffleRead { .. } | PlanNode::BroadcastRead { .. } => 1.0,
        PlanNode::Union { inputs } => {
            inputs.iter().map(output_ratio).sum::<f64>() / inputs.len() as f64
        }
    }
}

/// Build the calibrated profile for one plan at a scale factor.
pub fn calibrated_profile(name: &str, scale_factor: f64) -> QueryProfile {
    let par = Par::for_scale(scale_factor);
    let dag = plans::plan(name, par);
    let cfg = DbGenConfig::at_scale(scale_factor);
    profile_from_structure(&dag, &cfg, scale_factor)
}

fn profile_from_structure(dag: &StageDag, cfg: &DbGenConfig, sf: f64) -> QueryProfile {
    let n = dag.stages.len();
    // First pass: input bytes per stage (scan bytes + upstream shuffle
    // bytes), then output (shuffle) bytes via the ratio model.
    let mut out_bytes = vec![0u64; n];
    let mut profiles: Vec<StageProfile> = Vec::with_capacity(n);
    for (i, stage) in dag.stages.iter().enumerate() {
        let mut tables = Vec::new();
        stage.root.scanned_tables(&mut tables);
        let scan_bytes: u64 = tables
            .iter()
            .map(|t| table_rows(t, cfg) * row_width(t))
            .sum();
        let deps = stage.dependencies();
        let upstream_bytes: u64 = deps.iter().map(|&d| out_bytes[d]).sum();
        let input_bytes = scan_bytes + upstream_bytes;
        let stage_out = ((input_bytes as f64) * output_ratio(&stage.root)).round() as u64;
        // Final gather stages don't shuffle.
        let is_final = i == n - 1;
        out_bytes[i] = if is_final { 0 } else { stage_out };

        // Duration: bytes -> rows (125 B/row) -> seconds at the calibrated
        // task throughput, split across this stage's tasks.
        let rows = input_bytes as f64 / 125.0;
        let secs = (rows / stage.tasks as f64 / ROWS_PER_TASK_SECOND).ceil();
        // `f64 as u32` saturates, and the clamp bounds the result to
        // [1, 120] by design: stage durations are capped, never wrapped.
        let task_seconds = (secs as u32).clamp(1, 120);

        let (writes, reads) = request_counts(dag, stage, &deps);
        profiles.push(StageProfile {
            tasks: stage.tasks,
            task_seconds,
            shuffle_bytes: out_bytes[i],
            shuffle_writes: writes,
            shuffle_reads: reads,
            deps,
        });
    }
    let _ = sf;
    QueryProfile::new(format!("{}_sf{}", dag.name, cfg.scale_factor), profiles)
}

fn request_counts(dag: &StageDag, stage: &Stage, deps: &[usize]) -> (u64, u64) {
    // Writes by this stage (Starling layout: 2 combined objects per task).
    let writes = match stage.exchange {
        ExchangeMode::Gather => 0,
        ExchangeMode::Broadcast => stage.tasks as u64,
        ExchangeMode::Hash { .. } => 2 * stage.tasks as u64,
    };
    // Reads performed by this stage: one GET per producer object per task
    // for hash inputs, one GET per task for broadcast inputs.
    let reads: u64 = deps
        .iter()
        .map(|&d| {
            let producer = &dag.stages[d];
            match producer.exchange {
                ExchangeMode::Hash { .. } => stage.tasks as u64 * producer.tasks as u64,
                ExchangeMode::Broadcast => stage.tasks as u64,
                ExchangeMode::Gather => 0,
            }
        })
        .sum();
    (writes, reads)
}

/// Profile a query by actually executing it on `catalog` (generated at
/// `measured_sf`) and scaling the observed work up to `target_sf`.
pub fn measured_profile(
    name: &str,
    catalog: &Catalog,
    measured_sf: f64,
    target_sf: f64,
) -> QueryProfile {
    let par = Par::for_scale(target_sf);
    // Execute with a small, fixed parallelism to keep measurement cheap;
    // work is then re-divided across the target task counts.
    let exec_par = Par {
        fact: 2,
        mid: 2,
        join: 2,
    };
    let dag = plans::plan(name, exec_par);
    let target_dag = plans::plan(name, par);
    let shuffle = MemoryShuffle::new();
    let scale_up = target_sf / measured_sf;

    let mut stage_rows = vec![0u64; dag.stages.len()];
    let mut stage_bytes = vec![0u64; dag.stages.len()];
    let (telemetry, faults) = (Telemetry::disabled(), FaultInjector::disabled());
    for stage in &dag.stages {
        let results = Executor::new(1)
            .execute_stage(&dag, stage.id, 99, catalog, &shuffle, &telemetry, &faults);
        for r in results {
            stage_rows[stage.id] += r.rows_in;
            stage_bytes[stage.id] += r.shuffle_bytes_written;
        }
    }
    shuffle.delete_query(99);

    let profiles = target_dag
        .stages
        .iter()
        .map(|stage| {
            let rows = stage_rows[stage.id] as f64 * scale_up;
            let secs = (rows / stage.tasks as f64 / ROWS_PER_TASK_SECOND).ceil();
            let deps = stage.dependencies();
            let (writes, reads) = request_counts(&target_dag, stage, &deps);
            StageProfile {
                tasks: stage.tasks,
                // `f64 as u32` saturates; the clamp caps it at the model's range.
                task_seconds: (secs as u32).clamp(1, 120),
                shuffle_bytes: (stage_bytes[stage.id] as f64 * scale_up) as u64,
                shuffle_writes: writes,
                shuffle_reads: reads,
                deps,
            }
        })
        .collect();
    QueryProfile::new(format!("{name}_sf{target_sf}_measured"), profiles)
}

/// The calibrated profile set for one scale factor (all 25 queries).
pub fn profile_set(scale_factor: f64) -> Vec<ProfileRef> {
    plans::QUERIES
        .iter()
        .map(|(n, _)| Arc::new(calibrated_profile(n, scale_factor)))
        .collect()
}

/// The §7.1.6 evaluation mix: all 25 queries at scale factors 10, 50 and
/// 100, uniformly sampled by workloads.
pub fn evaluation_mix() -> Vec<ProfileRef> {
    let mut out = Vec::with_capacity(75);
    for sf in [10.0, 50.0, 100.0] {
        out.extend(profile_set(sf));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_q01_sf100_magnitudes() {
        let p = calibrated_profile("q01", 100.0);
        // Two stages: big scan+partial agg, small final.
        assert_eq!(p.stages.len(), 2);
        assert_eq!(p.stages[0].tasks, 128);
        // SF100 lineitem ≈ 600M rows / 128 tasks at 400k rows/s ≈ 12 s.
        assert!(
            (5..=40).contains(&p.stages[0].task_seconds),
            "scan task_seconds {}",
            p.stages[0].task_seconds
        );
        assert!(p.critical_path_seconds() < 180);
        assert!(p.total_task_seconds() > 500);
    }

    #[test]
    fn profiles_scale_with_sf() {
        let small = calibrated_profile("q05", 10.0);
        let big = calibrated_profile("q05", 100.0);
        assert!(big.total_task_seconds() > small.total_task_seconds() * 3);
        assert!(big.total_shuffle_bytes() > small.total_shuffle_bytes() * 5);
    }

    #[test]
    fn shuffle_request_arithmetic_matches_starling() {
        // A synthetic 128->128 hash exchange: 256 PUTs, 128*128 GETs.
        let p = calibrated_profile("q01", 100.0);
        // Stage 0 has 128 tasks hashing: writes = 2*128.
        assert_eq!(p.stages[0].shuffle_writes, 256);
        // Final stage reads 1 task × 128 producers.
        assert_eq!(p.stages[1].shuffle_reads, 128);
    }

    #[test]
    fn all_queries_have_calibrated_profiles() {
        let set = profile_set(100.0);
        assert_eq!(set.len(), 25);
        for p in &set {
            assert!(p.critical_path_seconds() >= 2, "{} too fast", p.name);
            assert!(p.peak_concurrency() >= 1);
        }
        assert_eq!(evaluation_mix().len(), 75);
    }

    #[test]
    fn measured_profile_runs_engine_and_scales() {
        let cfg = DbGenConfig {
            scale_factor: 0.002,
            rows_per_partition: 512,
            seed: 7,
        };
        let catalog = crate::dbgen::generate_catalog(&cfg);
        let m = measured_profile("q06", &catalog, 0.002, 100.0);
        let c = calibrated_profile("q06", 100.0);
        assert_eq!(m.stages.len(), c.stages.len());
        // Same order of magnitude as the calibrated estimate.
        let ratio = m.total_task_seconds() as f64 / c.total_task_seconds() as f64;
        assert!(
            ratio > 0.1 && ratio < 10.0,
            "measured/calibrated ratio {ratio}"
        );
    }
}
