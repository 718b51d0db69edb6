//! The provisioning-strategy interface and the simple strategy families
//! (§4.2–§4.3): fixed, mean and predictive. The percentile experts are
//! the meta-strategy's ([`crate::meta`]), read from a sliding quantile.

use crate::config::Env;
use crate::history::WorkloadHistory;
use cackle_telemetry::Telemetry;

/// Anything that can pick a VM provisioning target from the workload
/// history. Called at every strategy tick (5 s).
pub trait ProvisioningStrategy: Send {
    /// Display name (used in experiment output, e.g. `fixed_500`).
    fn name(&self) -> String;

    /// Choose the target number of VMs at second `now`.
    fn target(&mut self, now: u64, history: &WorkloadHistory, env: &Env) -> u32;

    /// Notify the strategy that prices changed (§4.4.3: cost conditions
    /// may shift mid-workload). Cost-insensitive strategies ignore this —
    /// that insensitivity is exactly what §4.3 criticizes.
    fn on_rates_changed(&mut self, _vm_per_sec: f64, _pool_per_sec: f64) {}

    /// Hand the strategy a telemetry sink. Runners call this once before
    /// the tick loop; stateless strategies ignore it, the meta-strategy
    /// records its expert choices (`meta.*` metrics).
    fn set_telemetry(&mut self, _telemetry: &Telemetry) {}
}

/// §4.2 — a fixed provisioning chosen up front and never changed.
/// `fixed_0` = everything on the elastic pool.
#[derive(Debug, Clone, Copy)]
pub struct FixedStrategy {
    /// The constant VM count.
    pub vms: u32,
}

impl ProvisioningStrategy for FixedStrategy {
    fn name(&self) -> String {
        format!("fixed_{}", self.vms)
    }

    fn target(&mut self, _now: u64, _history: &WorkloadHistory, _env: &Env) -> u32 {
        self.vms
    }
}

/// §4.3 / §5.1 — `mean_y`: the mean of the previous five minutes of demand
/// multiplied by `y`.
#[derive(Debug, Clone, Copy)]
pub struct MeanStrategy {
    /// Lookback in seconds (300 in the paper's `mean_y` strategies).
    pub lookback_s: usize,
    /// Multiplier applied to the mean.
    pub multiplier: f64,
}

impl MeanStrategy {
    /// The paper's `mean_y` with a five-minute lookback.
    pub fn times(multiplier: f64) -> Self {
        MeanStrategy {
            lookback_s: 300,
            multiplier,
        }
    }
}

impl ProvisioningStrategy for MeanStrategy {
    fn name(&self) -> String {
        if (self.multiplier - self.multiplier.round()).abs() < 1e-9 {
            format!("mean_{}", self.multiplier as i64)
        } else {
            format!("mean_{}", self.multiplier)
        }
    }

    fn target(&mut self, _now: u64, history: &WorkloadHistory, _env: &Env) -> u32 {
        (history.mean(self.lookback_s) * self.multiplier).round() as u32
    }
}

/// §5.1 — `predictive`: ordinary least squares over the previous five
/// minutes, evaluated at `now + vm_startup` (the moment newly requested
/// VMs would arrive), floored at the current prediction.
#[derive(Debug, Clone, Copy, Default)]
pub struct PredictiveStrategy {
    /// Regression window in seconds (300 default).
    pub lookback_s: usize,
}

impl PredictiveStrategy {
    /// Five-minute regression window.
    pub fn new() -> Self {
        PredictiveStrategy { lookback_s: 300 }
    }
}

/// Least-squares line fit over `ys` at x = 0..n; returns (intercept, slope).
pub fn linear_fit(ys: &[u32]) -> (f64, f64) {
    let n = ys.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n == 1 {
        return (ys[0] as f64, 0.0);
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = ys.iter().map(|&y| y as f64).sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (x, &y) in ys.iter().enumerate() {
        let dx = x as f64 - mean_x;
        sxy += dx * (y as f64 - mean_y);
        sxx += dx * dx;
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    (mean_y - slope * mean_x, slope)
}

impl ProvisioningStrategy for PredictiveStrategy {
    fn name(&self) -> String {
        "predictive".to_string()
    }

    fn target(&mut self, _now: u64, history: &WorkloadHistory, env: &Env) -> u32 {
        let w = history.window(self.lookback_s);
        let (intercept, slope) = linear_fit(w);
        let x_now = w.len().saturating_sub(1) as f64;
        let x_future = x_now + env.vm_startup_s() as f64;
        // Max of the predicted demand now and when VMs would arrive.
        let predicted = (intercept + slope * x_now).max(intercept + slope * x_future);
        predicted.round().max(0.0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(vals: &[u32]) -> WorkloadHistory {
        let mut h = WorkloadHistory::new();
        for &v in vals {
            h.push(v);
        }
        h
    }

    #[test]
    fn fixed_never_moves() {
        let mut s = FixedStrategy { vms: 500 };
        let env = Env::default();
        assert_eq!(s.name(), "fixed_500");
        assert_eq!(s.target(0, &hist(&[]), &env), 500);
        assert_eq!(s.target(99, &hist(&[1000; 50]), &env), 500);
    }

    #[test]
    fn mean_strategy_scales() {
        let mut s = MeanStrategy::times(2.0);
        let env = Env::default();
        assert_eq!(s.name(), "mean_2");
        assert_eq!(s.target(0, &hist(&[10; 100]), &env), 20);
        assert_eq!(s.target(0, &hist(&[]), &env), 0);
    }

    #[test]
    fn linear_fit_recovers_lines() {
        let (b, m) = linear_fit(&[2, 4, 6, 8, 10]);
        assert!((m - 2.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        let (b, m) = linear_fit(&[7, 7, 7]);
        assert!((m).abs() < 1e-9);
        assert!((b - 7.0).abs() < 1e-9);
        assert_eq!(linear_fit(&[]), (0.0, 0.0));
        assert_eq!(linear_fit(&[5]), (5.0, 0.0));
    }

    #[test]
    fn predictive_extrapolates_growth() {
        // Demand rising 1/s: with 180 s startup the prediction should be
        // ~180 above the latest sample.
        let vals: Vec<u32> = (0..300).collect();
        let mut s = PredictiveStrategy::new();
        let env = Env::default();
        let t = s.target(300, &hist(&vals), &env);
        assert!((t as i64 - (299 + 180)).abs() <= 2, "target {t}");
    }

    #[test]
    fn predictive_never_negative_and_holds_flat() {
        // Falling demand: predicted future is below now; target should not
        // go below the current prediction, and never negative.
        let vals: Vec<u32> = (0..300).rev().collect();
        let mut s = PredictiveStrategy::new();
        let env = Env::default();
        let t = s.target(300, &hist(&vals), &env);
        assert!(t <= 2, "falling demand target {t} should track 'now' (~0)");
    }
}
