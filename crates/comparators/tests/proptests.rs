//! Randomized tests for the comparator models: every query always
//! completes, latency is bounded below by the warm critical path, and
//! billing is consistent with the makespan. Cases come from the in-repo
//! deterministic PRNG so failures reproduce exactly.

use cackle::model::QueryArrival;
use cackle_comparators::{
    run_databricks, run_redshift, DatabricksConfig, RedshiftConfig, WarehouseSize,
};
use cackle_prng::{Pcg32, Seed};
use cackle_workload::profile::{QueryProfile, StageProfile};
use std::sync::Arc;

fn workload(arrivals: &[u16], tasks: u8, secs: u8) -> Vec<QueryArrival> {
    let profile = Arc::new(QueryProfile::new(
        "p",
        vec![
            StageProfile {
                tasks: tasks as u32 + 1,
                task_seconds: secs as u32 + 1,
                shuffle_bytes: 0,
                shuffle_writes: 0,
                shuffle_reads: 0,
                deps: vec![],
            },
            StageProfile {
                tasks: 1,
                task_seconds: secs as u32 + 1,
                shuffle_bytes: 0,
                shuffle_writes: 0,
                shuffle_reads: 0,
                deps: vec![0],
            },
        ],
    ));
    arrivals
        .iter()
        .map(|&a| QueryArrival {
            at_s: a as u64,
            profile: profile.clone(),
        })
        .collect()
}

fn gen_arrivals(rng: &mut Pcg32) -> Vec<u16> {
    (0..rng.gen_range(1usize..40))
        .map(|_| rng.gen_range(0u16..600))
        .collect()
}

/// Databricks model: every query finishes, no latency is below the
/// warm two-stage critical path, and cluster billing covers at least
/// the minimum clusters over the makespan.
#[test]
fn databricks_conserves_queries() {
    let mut rng = Pcg32::new(Seed::root(0xC0_4B_01));
    for _ in 0..24 {
        let arrivals = gen_arrivals(&mut rng);
        let tasks = rng.gen_range(0u8..40);
        let secs = rng.gen_range(0u8..30);
        let auto = rng.gen_bool(0.5);
        let w = workload(&arrivals, tasks, secs);
        let cfg = if auto {
            DatabricksConfig::autoscaling(WarehouseSize::Small, 4)
        } else {
            DatabricksConfig::fixed(WarehouseSize::Small, 2)
        };
        let r = run_databricks(&w, &cfg);
        assert_eq!(r.latencies.len(), w.len());
        let warm_stage = ((secs as f64 + 1.0) / cfg.warm_speedup).ceil();
        for &l in &r.latencies {
            assert!(l >= 2.0 * warm_stage - 1e-9, "latency {l} too fast");
        }
        // Billing at least min_clusters × makespan.
        assert!(
            r.compute.vm_seconds + 1e-9 >= cfg.min_clusters as f64 * r.duration_s as f64,
            "billed {} < floor {}",
            r.compute.vm_seconds,
            cfg.min_clusters as f64 * r.duration_s as f64
        );
    }
}

/// Redshift model: every query finishes; billing never exceeds max
/// capacity × (makespan + minimum billing) and is positive when any
/// work ran.
#[test]
fn redshift_conserves_queries() {
    let mut rng = Pcg32::new(Seed::root(0xC0_4B_02));
    for _ in 0..24 {
        let arrivals = gen_arrivals(&mut rng);
        let tasks = rng.gen_range(0u8..40);
        let secs = rng.gen_range(0u8..30);
        let w = workload(&arrivals, tasks, secs);
        let cfg = RedshiftConfig::default();
        let r = run_redshift(&w, &cfg);
        assert_eq!(r.latencies.len(), w.len());
        assert!(r.latencies.iter().all(|&l| l >= 2.0 - 1e-9));
        assert!(r.compute.vm_seconds > 0.0);
        let cap = (cfg.base_rpus * cfg.max_scale) as f64;
        let bound = cap * (r.duration_s as f64 + 2.0 * cfg.min_billing_s as f64);
        assert!(
            r.compute.vm_seconds <= bound + 1e-6,
            "billed {} beyond bound {}",
            r.compute.vm_seconds,
            bound
        );
    }
}
