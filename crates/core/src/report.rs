//! Result types shared by the analytical model and the full system.
//!
//! Every runner returns the same [`RunResult`]: cost splits, per-query
//! latencies, and the telemetry handle the run recorded into. The
//! per-second [`Timeseries`] is read back from that handle's
//! `run.demand` / `run.target` / `run.active` series with
//! [`Timeseries::from_telemetry`], so plots and exports read one store.

use cackle_telemetry::Telemetry;
use cackle_workload::demand::percentile_f64;

/// Compute-layer cost split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComputeCost {
    /// Dollars on provisioned VMs.
    pub vm_cost: f64,
    /// Dollars on the elastic pool.
    pub pool_cost: f64,
    /// Billed VM seconds.
    pub vm_seconds: f64,
    /// Pool slot-seconds.
    pub pool_seconds: f64,
}

impl ComputeCost {
    /// Total compute dollars.
    pub fn total(&self) -> f64 {
        self.vm_cost + self.pool_cost
    }
}

/// Shuffle-layer cost split (§5.6).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShuffleCost {
    /// Dollars on provisioned shuffle nodes.
    pub node_cost: f64,
    /// Dollars on object-store PUTs.
    pub s3_put_cost: f64,
    /// Dollars on object-store GETs.
    pub s3_get_cost: f64,
    /// Dollars on cross-region shuffle egress (zero unless the
    /// environment model places VMs in a second region).
    pub egress_cost: f64,
    /// PUT request count.
    pub puts: u64,
    /// GET request count.
    pub gets: u64,
}

impl ShuffleCost {
    /// Total shuffle dollars.
    pub fn total(&self) -> f64 {
        self.node_cost + self.s3_put_cost + self.s3_get_cost + self.egress_cost
    }
}

/// Per-second series recorded during a run (Figure 12).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeseries {
    /// Task demand.
    pub demand: Vec<u32>,
    /// Strategy's VM target.
    pub target: Vec<u32>,
    /// Active (started, not terminated) VMs.
    pub active: Vec<u32>,
}

impl Timeseries {
    /// Rebuild the per-second series from a run's telemetry registry.
    ///
    /// Runners sample `run.demand`, `run.target` and `run.active` once per
    /// simulated second; this reads them back as the classic column
    /// vectors. Returns `None` when the handle is disabled or the run
    /// recorded no demand samples.
    pub fn from_telemetry(telemetry: &Telemetry) -> Option<Self> {
        let col = |name: &str| -> Vec<u32> {
            telemetry
                .series(name)
                .unwrap_or_default()
                .iter()
                .map(|&(_, v)| v.round().max(0.0) as u32)
                .collect()
        };
        let demand = col("run.demand");
        if demand.is_empty() {
            return None;
        }
        Some(Timeseries {
            demand,
            target: col("run.target"),
            active: col("run.active"),
        })
    }
}

/// Result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Compute-layer costs.
    pub compute: ComputeCost,
    /// Shuffle-layer costs.
    pub shuffle: ShuffleCost,
    /// Per-query latencies in seconds.
    pub latencies: Vec<f64>,
    /// Simulated workload span in seconds.
    pub duration_s: u64,
    /// Label of the strategy that produced this run.
    pub strategy: String,
    /// The telemetry handle the run recorded into (disabled when the spec
    /// attached no sink). Export with
    /// [`Telemetry::export_jsonl`] / [`Telemetry::export_series_csv`].
    pub telemetry: Telemetry,
}

impl RunResult {
    /// Total dollars (compute + shuffle).
    pub fn total_cost(&self) -> f64 {
        self.compute.total() + self.shuffle.total()
    }

    /// Compute-layer cost as exact integer micro-dollars, summed
    /// per component (VM + pool) so component shares conserve exactly:
    /// `micro(vm) + micro(pool)` equals this by construction, with no
    /// ±1 re-rounding slack.
    pub fn compute_cost_micros(&self) -> i64 {
        cackle_cloud::micro_dollars(self.compute.vm_cost)
            + cackle_cloud::micro_dollars(self.compute.pool_cost)
    }

    /// Shuffle-layer cost as exact integer micro-dollars, summed per
    /// component (nodes + PUTs + GETs + egress) for the same exact-
    /// conservation guarantee as [`RunResult::compute_cost_micros`].
    pub fn shuffle_cost_micros(&self) -> i64 {
        cackle_cloud::micro_dollars(self.shuffle.node_cost)
            + cackle_cloud::micro_dollars(self.shuffle.s3_put_cost)
            + cackle_cloud::micro_dollars(self.shuffle.s3_get_cost)
            + cackle_cloud::micro_dollars(self.shuffle.egress_cost)
    }

    /// Total cost as exact integer micro-dollars, defined as the sum of
    /// the per-layer micro totals. Per-tenant attribution splits each
    /// layer separately, so this — not a re-rounding of
    /// [`RunResult::total_cost`] — is the aggregate that tenant shares
    /// must sum to byte-identically (`cackle-serve`).
    pub fn total_cost_micros(&self) -> i64 {
        self.compute_cost_micros() + self.shuffle_cost_micros()
    }

    /// Cost per query in dollars.
    pub fn cost_per_query(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.total_cost() / self.latencies.len() as f64
    }

    /// The `pct`-th latency percentile in seconds.
    pub fn latency_percentile(&self, pct: f64) -> f64 {
        percentile_f64(&self.latencies, pct)
    }

    /// Mean latency in seconds.
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cackle_telemetry::catalog;

    #[test]
    fn totals_and_percentiles() {
        let r = RunResult {
            compute: ComputeCost {
                vm_cost: 3.0,
                pool_cost: 1.0,
                ..Default::default()
            },
            shuffle: ShuffleCost {
                node_cost: 0.5,
                s3_put_cost: 0.25,
                s3_get_cost: 0.2,
                egress_cost: 0.05,
                puts: 10,
                gets: 20,
            },
            latencies: (1..=100).map(|x| x as f64).collect(),
            duration_s: 3600,
            strategy: "test".into(),
            telemetry: Telemetry::disabled(),
        };
        assert!((r.total_cost() - 5.0).abs() < 1e-12);
        assert_eq!(r.compute_cost_micros(), 4_000_000);
        assert_eq!(r.shuffle_cost_micros(), 1_000_000);
        assert_eq!(r.total_cost_micros(), 5_000_000);
        assert!((r.cost_per_query() - 0.05).abs() < 1e-12);
        assert_eq!(r.latency_percentile(95.0), 95.0);
        assert_eq!(r.latency_percentile(50.0), 50.0);
        assert!((r.mean_latency() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_zero() {
        let r = RunResult::default();
        assert_eq!(r.total_cost(), 0.0);
        assert_eq!(r.cost_per_query(), 0.0);
        assert_eq!(r.latency_percentile(99.0), 0.0);
        assert_eq!(r.mean_latency(), 0.0);
    }

    #[test]
    fn timeseries_rebuilds_from_telemetry() {
        let t = Telemetry::new();
        for s in 0..3u64 {
            t.sample(catalog::RUN_DEMAND, s * 1000, (s * 10) as f64);
            t.sample(catalog::RUN_TARGET, s * 1000, (s * 10 + 1) as f64);
            t.sample(catalog::RUN_ACTIVE, s * 1000, (s * 10 + 2) as f64);
        }
        let ts = Timeseries::from_telemetry(&t).unwrap();
        assert_eq!(ts.demand, vec![0, 10, 20]);
        assert_eq!(ts.target, vec![1, 11, 21]);
        assert_eq!(ts.active, vec![2, 12, 22]);
        // Disabled or empty registries yield no timeseries.
        assert!(Timeseries::from_telemetry(&Telemetry::disabled()).is_none());
        assert!(Timeseries::from_telemetry(&Telemetry::new()).is_none());
    }
}
