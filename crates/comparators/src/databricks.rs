//! A Databricks-SQL-style warehouse model (§7.1.7).
//!
//! Mechanics reproduced from the paper's description and Databricks'
//! public documentation:
//!
//! * a warehouse is a set of identical *clusters*; each admits a bounded
//!   number of concurrent queries and runs their tasks on its fixed slot
//!   pool — queries beyond every cluster's admission limit **queue**;
//! * autoscaling adds *a cluster at a time, only after queries are queued*,
//!   and new clusters take minutes to come online;
//! * clusters scale down only after being idle for several minutes;
//! * billing is per DBU-hour for every running cluster, warmup included.
//!
//! These are exactly the mechanisms behind Figure 1 / Figure 14's
//! comparisons: low tail latency when over-provisioned (at high idle cost),
//! latency cliffs under autoscaling, no sub-minute elasticity.

use cackle::delaying::QueuedRun;
use cackle::{QueryArrival, RunError, RunResult, Telemetry};
use std::collections::VecDeque;

/// Warehouse T-shirt size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarehouseSize {
    /// 1 driver + 4 workers, 12 DBU/hour/cluster.
    Small,
    /// 1 driver + 8 workers, 24 DBU/hour/cluster.
    Medium,
}

impl WarehouseSize {
    /// Task slots per cluster (workers × slots-per-worker).
    pub fn slots(self) -> u32 {
        match self {
            WarehouseSize::Small => 32,
            WarehouseSize::Medium => 64,
        }
    }

    /// DBU per hour per cluster.
    pub fn dbu_per_hour(self) -> f64 {
        match self {
            WarehouseSize::Small => 12.0,
            WarehouseSize::Medium => 24.0,
        }
    }
}

/// Warehouse configuration.
#[derive(Debug, Clone)]
pub struct DatabricksConfig {
    /// Cluster size.
    pub size: WarehouseSize,
    /// Minimum (and starting) cluster count.
    pub min_clusters: u32,
    /// Maximum cluster count (== min for fixed provisioning).
    pub max_clusters: u32,
    /// Queries admitted concurrently per cluster.
    pub max_concurrency: u32,
    /// Time for an added cluster to come online, seconds.
    pub provision_s: u64,
    /// Idle time before an added cluster is released, seconds.
    pub idle_release_s: u64,
    /// Dollars per DBU-hour ($0.70 in the paper).
    pub dollars_per_dbu_hour: f64,
    /// Queries on a warm cluster run this factor faster than the Cackle
    /// profile durations. Cackle profiles are Starling-style Lambda+S3
    /// task times; a warm warehouse with local NVMe caches executes the
    /// same queries several times faster per core (§7.1.7 pre-warms all
    /// caches before measuring), so this defaults to 8.
    pub warm_speedup: f64,
    /// Telemetry sink the run records into (disabled by default).
    pub telemetry: Telemetry,
}

impl DatabricksConfig {
    /// Fixed warehouse of `n` clusters.
    pub fn fixed(size: WarehouseSize, n: u32) -> Self {
        DatabricksConfig {
            size,
            min_clusters: n,
            max_clusters: n,
            max_concurrency: 10,
            provision_s: 150,
            idle_release_s: 600,
            dollars_per_dbu_hour: 0.70,
            warm_speedup: 8.0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Autoscaling warehouse from 1 to `max` clusters.
    pub fn autoscaling(size: WarehouseSize, max: u32) -> Self {
        DatabricksConfig {
            min_clusters: 1,
            max_clusters: max,
            ..Self::fixed(size, 1)
        }
    }

    /// Attach a telemetry sink to record query and cost metrics into.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    fn label(&self) -> String {
        let size = match self.size {
            WarehouseSize::Small => "small",
            WarehouseSize::Medium => "medium",
        };
        if self.min_clusters == self.max_clusters {
            format!("databricks_{size}_fixed{}", self.min_clusters)
        } else {
            format!("databricks_{size}_auto{}", self.max_clusters)
        }
    }
}

#[derive(Debug)]
struct Cluster {
    /// When it came (or comes) online; `u64::MAX` while provisioning.
    up_at: u64,
    free_slots: u32,
    admitted: Vec<usize>,
    idle_since: u64,
}

impl Cluster {
    fn is_up(&self, now: u64) -> bool {
        self.up_at <= now
    }
}

/// Where an admitted query runs and what it has ready to launch there.
#[derive(Default)]
struct Admission {
    cluster: Option<usize>,
    /// `(stage, tasks not yet launched)`, oldest first.
    ready: VecDeque<(usize, u32)>,
}

/// Run a workload on the modelled warehouse. Panics on a malformed
/// workload — use [`try_run_databricks`] to handle that gracefully.
pub fn run_databricks(workload: &[QueryArrival], cfg: &DatabricksConfig) -> RunResult {
    try_run_databricks(workload, cfg).unwrap_or_else(|e| e.raise())
}

/// [`run_databricks`], reporting a malformed workload instead of
/// panicking.
pub fn try_run_databricks(
    workload: &[QueryArrival],
    cfg: &DatabricksConfig,
) -> Result<RunResult, RunError> {
    let mut run = QueuedRun::try_new(workload, &cfg.telemetry)?;
    // A released cluster leaves `None` behind so indices stay stable.
    // Initial clusters are already warm at t=0.
    let mut clusters: Vec<Option<Cluster>> = (0..cfg.min_clusters)
        .map(|_| {
            Some(Cluster {
                up_at: 0,
                free_slots: cfg.size.slots(),
                admitted: Vec::new(),
                idle_since: 0,
            })
        })
        .collect();
    // The one cluster being provisioned: (online at, index).
    let mut cluster_start: Option<(u64, usize)> = None;
    let mut admission_queue: VecDeque<usize> = VecDeque::new();
    let mut admissions: Vec<Admission> = workload.iter().map(|_| Admission::default()).collect();
    let mut billed_cluster_seconds = 0u64;
    let mut now = 0u64;

    loop {
        // --- arrivals at `now`
        while let Some(q) = run.next_arrival(now) {
            admission_queue.push_back(q);
        }
        // --- completions at `now`
        while let Some(done) = run.next_completion(now) {
            let admission = &mut admissions[done.query];
            admission.ready.extend(done.ready);
            let cluster = admission.cluster.and_then(|ci| clusters[ci].as_mut());
            if let Some(c) = cluster {
                c.free_slots += 1;
                if done.query_done {
                    c.admitted.retain(|&x| x != done.query);
                    if c.admitted.is_empty() {
                        c.idle_since = now;
                    }
                }
            }
        }
        // --- cluster start at `now`
        if let Some((_, ci)) = cluster_start.filter(|&(t, _)| t <= now) {
            if let Some(c) = clusters[ci].as_mut() {
                c.up_at = now;
                c.idle_since = now;
            }
            cluster_start = None;
        }
        // --- admit queued queries to clusters with headroom
        while let Some(&q) = admission_queue.front() {
            // Pick the live cluster with the fewest admitted queries.
            let best = clusters
                .iter_mut()
                .enumerate()
                .filter_map(|(i, c)| c.as_mut().map(|c| (i, c)))
                .filter(|(_, c)| c.is_up(now) && (c.admitted.len() as u32) < cfg.max_concurrency)
                .min_by_key(|(_, c)| c.admitted.len());
            let Some((ci, c)) = best else {
                break;
            };
            admission_queue.pop_front();
            c.admitted.push(q);
            admissions[q].cluster = Some(ci);
            admissions[q].ready.extend(run.roots(q));
        }
        // --- autoscale up: queries queued and room to grow
        if !admission_queue.is_empty()
            && cluster_start.is_none()
            && (clusters.iter().flatten().count() as u32) < cfg.max_clusters
        {
            clusters.push(Some(Cluster {
                up_at: u64::MAX,
                free_slots: cfg.size.slots(),
                admitted: Vec::new(),
                idle_since: now,
            }));
            cluster_start = Some((now + cfg.provision_s, clusters.len() - 1));
        }
        // --- launch ready tasks on each query's own cluster
        for c in clusters.iter_mut().flatten() {
            if !c.is_up(now) {
                continue;
            }
            let mut free = c.free_slots;
            for &q in &c.admitted {
                while free > 0 {
                    let Some((si, tasks)) = admissions[q].ready.pop_front() else {
                        break;
                    };
                    let launch = tasks.min(free);
                    free -= launch;
                    let warm_s =
                        workload[q].profile.stages[si].task_seconds as f64 / cfg.warm_speedup;
                    run.launch(now + warm_s.ceil() as u64, q, si, launch);
                    if tasks > launch {
                        admissions[q].ready.push_front((si, tasks - launch));
                    }
                }
            }
            c.free_slots = free;
        }
        // --- autoscale down: idle beyond-minimum clusters
        let mut live = clusters.iter().flatten().count() as u32;
        for slot in clusters.iter_mut() {
            if live <= cfg.min_clusters {
                break;
            }
            let idle_out = |c: &mut Cluster| {
                c.is_up(now)
                    && c.admitted.is_empty()
                    && now.saturating_sub(c.idle_since) >= cfg.idle_release_s
            };
            if let Some(c) = slot.take_if(idle_out) {
                billed_cluster_seconds += now - c.up_at;
                live -= 1;
            }
        }
        // --- advance to the next event
        let idle_release_s = clusters
            .iter()
            .flatten()
            .filter(|c| c.is_up(now) && c.admitted.is_empty())
            .map(|c| c.idle_since + cfg.idle_release_s)
            .min();
        let start_s = cluster_start.map(|(t, _)| t);
        match [run.next_event_s(), start_s, idle_release_s]
            .into_iter()
            .flatten()
            .min()
        {
            Some(t) if t > now => now = t,
            Some(_) if !run.is_finished() => now += 1,
            _ => break,
        }
    }

    // Bill remaining clusters until the makespan.
    let makespan = run.makespan_s();
    for c in clusters.iter().flatten().filter(|c| c.is_up(makespan)) {
        billed_cluster_seconds += makespan - c.up_at;
    }
    let dollars =
        billed_cluster_seconds as f64 / 3600.0 * cfg.size.dbu_per_hour() * cfg.dollars_per_dbu_hour;
    let vm_seconds = billed_cluster_seconds as f64;
    Ok(run.finish(vm_seconds, dollars, "warehouse", cfg.label()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cackle_workload::profile::{QueryProfile, StageProfile};
    use std::sync::Arc;

    fn profile(tasks: u32, secs: u32) -> Arc<QueryProfile> {
        Arc::new(QueryProfile::new(
            "q",
            vec![StageProfile {
                tasks,
                task_seconds: secs,
                shuffle_bytes: 0,
                shuffle_writes: 0,
                shuffle_reads: 0,
                deps: vec![],
            }],
        ))
    }

    fn burst(n: usize, at: u64) -> Vec<QueryArrival> {
        (0..n)
            .map(|_| QueryArrival {
                at_s: at,
                profile: profile(16, 15),
            })
            .collect()
    }

    #[test]
    fn single_query_runs_warm() {
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(16, 15),
        }];
        let r = run_databricks(&w, &DatabricksConfig::fixed(WarehouseSize::Small, 1));
        // 16 tasks on 32 slots, ceil(15/8) = 2 s warm.
        assert_eq!(r.latencies[0], 2.0);
    }

    #[test]
    fn burst_queues_on_autoscaler_but_not_on_big_fixed() {
        let w = burst(40, 0);
        let auto = run_databricks(&w, &DatabricksConfig::autoscaling(WarehouseSize::Small, 8));
        let fixed5 = run_databricks(&w, &DatabricksConfig::fixed(WarehouseSize::Small, 5));
        // 40 concurrent queries swamp one cluster (10-query admission);
        // autoscaling pays provisioning latency, the fixed-5 warehouse has
        // capacity ready.
        assert!(
            auto.latency_percentile(90.0) > fixed5.latency_percentile(90.0) * 2.0,
            "auto p90 {} vs fixed p90 {}",
            auto.latency_percentile(90.0),
            fixed5.latency_percentile(90.0)
        );
    }

    #[test]
    fn fixed_warehouse_bills_for_idle_time() {
        // One query in an hour: fixed-5 still bills five clusters for the span.
        let mut w = burst(1, 0);
        w.push(QueryArrival {
            at_s: 3600,
            profile: profile(16, 15),
        });
        let r = run_databricks(&w, &DatabricksConfig::fixed(WarehouseSize::Small, 5));
        // 5 clusters × ~3610 s ≈ 18050 cluster-seconds.
        assert!(r.compute.vm_seconds > 5.0 * 3500.0);
        let auto = run_databricks(&w, &DatabricksConfig::autoscaling(WarehouseSize::Small, 8));
        assert!(auto.compute.total() < r.compute.total());
    }

    #[test]
    fn all_queries_finish() {
        let w: Vec<QueryArrival> = (0..200)
            .map(|i| QueryArrival {
                at_s: i * 3,
                profile: profile(8, 10),
            })
            .collect();
        let r = run_databricks(&w, &DatabricksConfig::autoscaling(WarehouseSize::Small, 4));
        assert_eq!(r.latencies.len(), 200);
        assert!(r.latencies.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn telemetry_mirrors_warehouse_billing() {
        let w = burst(5, 0);
        let t = Telemetry::new();
        let cfg = DatabricksConfig::fixed(WarehouseSize::Small, 2).with_telemetry(&t);
        let r = run_databricks(&w, &cfg);
        assert_eq!(t.counter("run.queries_total"), 5);
        assert_eq!(t.cost("warehouse", "vm_compute"), r.compute.vm_cost);
        assert_eq!(
            t.histogram("run.query_latency_seconds").map(|h| h.count),
            Some(5)
        );
    }

    #[test]
    fn labels() {
        assert_eq!(
            DatabricksConfig::fixed(WarehouseSize::Small, 5).label(),
            "databricks_small_fixed5"
        );
        assert_eq!(
            DatabricksConfig::autoscaling(WarehouseSize::Medium, 5).label(),
            "databricks_medium_auto5"
        );
    }
}
