//! Cost models for every billable cloud resource.
//!
//! Defaults follow the paper's Table 1 and §7.1: a 2-vCPU spot VM at
//! $0.03/hour, an elastic-pool slot (AWS Lambda, 3 GB) at $0.18/hour (a 6×
//! premium), S3 request pricing, and a 4-vCPU/8 GB shuffle node at
//! $0.08/hour. Every experiment that varies an environmental condition
//! (Figures 8 and 9) does so by perturbing one field of this struct.

use crate::ledger::{micro_dollars, CostCategory};
use crate::time::SimDuration;

/// Remote-region hourly rate as per-mille of the home region: the
/// environment model's second region bills compute and shuffle nodes
/// at 70% of the home price (a cheaper but farther region, matching
/// `EnvironmentSpec::remote_rate_milli`'s default).
pub const REMOTE_REGION_RATE_MILLI: u32 = 700;

/// Cross-region shuffle-egress price in micro-dollars per GiB
/// ($0.02/GiB — the discounted inter-region transfer tier). Matches
/// `EnvironmentSpec::egress_micros_per_gib`'s default.
pub const EGRESS_MICROS_PER_GIB: u64 = 20_000;

/// Exact integer egress charge for `bytes` at `micros_per_gib`,
/// rounded to the nearest micro-dollar. Integer throughout so egress
/// billing never accumulates f64 drift (lint L11).
pub fn egress_micros(bytes: u64, micros_per_gib: u64) -> i64 {
    const GIB: u128 = 1 << 30;
    let num = bytes as u128 * micros_per_gib as u128;
    ((num + GIB / 2) / GIB) as i64 // micro-dollar totals sit far below 2^63
}

/// Prices and billing rules for the simulated cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct Pricing {
    /// Price of one provisioned VM (2 vCPU, 4 GB) in dollars per hour.
    pub vm_per_hour: f64,
    /// Minimum billed runtime for a provisioned VM. AWS bills at least one
    /// minute even if the instance is terminated sooner.
    pub vm_min_billing: SimDuration,
    /// Latency between requesting a VM and it being able to execute tasks.
    pub vm_startup: SimDuration,
    /// Price of one elastic-pool slot in dollars per hour. The paper's
    /// default is 6× the VM price for an equivalently sized slot.
    pub pool_per_hour: f64,
    /// Latency between an elastic-pool invocation request and task start
    /// (99% of Lambda starts observed within 200 ms; default 100 ms).
    pub pool_invoke_latency: SimDuration,
    /// Dollars per object-store PUT request.
    pub s3_put: f64,
    /// Dollars per object-store GET request.
    pub s3_get: f64,
    /// Price of one shuffle node (4 vCPU, 8 GB) in dollars per hour.
    pub shuffle_node_per_hour: f64,
    /// Memory capacity of one shuffle node in bytes (8 GB default).
    pub shuffle_node_capacity_bytes: u64,
    /// Minimum billed runtime for a shuffle node (billed like VMs).
    pub shuffle_min_billing: SimDuration,
    /// Price of the always-on coordinator VM in dollars per hour
    /// (on-demand c5a.xlarge in the paper).
    pub coordinator_per_hour: f64,
}

impl Default for Pricing {
    fn default() -> Self {
        Pricing {
            vm_per_hour: 0.03,
            vm_min_billing: SimDuration::from_secs(60),
            vm_startup: SimDuration::from_secs(180),
            pool_per_hour: 0.18,
            pool_invoke_latency: SimDuration::from_millis(100),
            s3_put: 5.0e-6,
            s3_get: 4.0e-7,
            shuffle_node_per_hour: 0.08,
            shuffle_node_capacity_bytes: 8 * (1 << 30),
            shuffle_min_billing: SimDuration::from_secs(60),
            coordinator_per_hour: 0.154,
        }
    }
}

impl Pricing {
    /// Cost of running one VM for `d`, **without** the minimum-billing
    /// adjustment (apply that at termination time via [`Pricing::vm_billed`]).
    pub fn vm_cost(&self, d: SimDuration) -> f64 {
        self.vm_per_hour * d.as_hours_f64()
    }

    /// Billed cost of a VM whose actual runtime was `d`, applying the
    /// minimum billing time.
    pub fn vm_billed(&self, d: SimDuration) -> f64 {
        self.vm_cost(d.max(self.vm_min_billing))
    }

    /// Cost of one elastic-pool slot for `d` (billed at millisecond
    /// granularity with no minimum).
    pub fn pool_cost(&self, d: SimDuration) -> f64 {
        self.pool_per_hour * d.as_hours_f64()
    }

    /// Billed cost of a shuffle node whose actual runtime was `d`.
    pub fn shuffle_billed(&self, d: SimDuration) -> f64 {
        self.shuffle_node_per_hour * d.max(self.shuffle_min_billing).as_hours_f64()
    }

    /// Cost of `d` of fleet time billed against `category`: shuffle
    /// nodes bill at the shuffle-node rate, every other category at the
    /// VM rate. Minimum-billing adjustment is the fleet's job (it knows
    /// the actual runtime); this prices the already-rounded duration.
    pub fn fleet_cost(&self, category: CostCategory, d: SimDuration) -> f64 {
        let rate = match category {
            CostCategory::ShuffleNode => self.shuffle_node_per_hour,
            _ => self.vm_per_hour,
        };
        rate * d.as_hours_f64()
    }

    /// The pool-to-VM cost premium (6.0 under defaults).
    pub fn pool_premium(&self) -> f64 {
        self.pool_per_hour / self.vm_per_hour
    }

    /// Scale the elastic-pool price so the premium becomes `ratio`
    /// (used by the Figure 8 sweep). The scaled price is computed in
    /// integer micro-dollars and rounded once, so sweeping premiums
    /// (or compounding with a price timeline) never accumulates f64
    /// representation drift into the billing rate.
    pub fn with_pool_premium(mut self, ratio: f64) -> Self {
        let scaled = (micro_dollars(self.vm_per_hour) as f64 * ratio).round();
        self.pool_per_hour = scaled / 1e6;
        self
    }

    /// The second region's price table: compute, pool, and shuffle
    /// nodes bill at [`REMOTE_REGION_RATE_MILLI`]/1000 of this table's
    /// rates, scaled in integer micro-dollars (request pricing and
    /// billing rules are identical across regions). This is the table
    /// the environment model's `remote_rate_milli` default reproduces
    /// per-VM.
    pub fn second_region(&self) -> Self {
        fn scale(per_hour: f64) -> f64 {
            let micros = micro_dollars(per_hour) as i128 * REMOTE_REGION_RATE_MILLI as i128 / 1000;
            micros as f64 / 1e6
        }
        let mut p = self.clone();
        p.vm_per_hour = scale(self.vm_per_hour);
        p.pool_per_hour = scale(self.pool_per_hour);
        p.shuffle_node_per_hour = scale(self.shuffle_node_per_hour);
        p
    }

    /// Replace the VM startup latency (used by the Figure 9 sweep).
    pub fn with_vm_startup(mut self, startup: SimDuration) -> Self {
        self.vm_startup = startup;
        self
    }

    /// Per-second VM price in dollars.
    pub fn vm_per_sec(&self) -> f64 {
        self.vm_per_hour / 3600.0
    }

    /// Per-second elastic pool price in dollars.
    pub fn pool_per_sec(&self) -> f64 {
        self.pool_per_hour / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table_1() {
        let p = Pricing::default();
        assert_eq!(p.vm_per_hour, 0.03);
        assert_eq!(p.pool_per_hour, 0.18);
        assert_eq!(p.vm_startup, SimDuration::from_mins(3));
        assert_eq!(p.vm_min_billing, SimDuration::from_secs(60));
        assert!((p.pool_premium() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn min_billing_applies_only_below_threshold() {
        let p = Pricing::default();
        let short = p.vm_billed(SimDuration::from_secs(10));
        let exactly_min = p.vm_billed(SimDuration::from_secs(60));
        let long = p.vm_billed(SimDuration::from_secs(120));
        assert_eq!(short, exactly_min);
        assert!((long - 2.0 * exactly_min).abs() < 1e-12);
    }

    #[test]
    fn premium_builder_scales_pool_price() {
        let p = Pricing::default().with_pool_premium(10.0);
        assert!((p.pool_per_hour - 0.30).abs() < 1e-12);
        assert!((p.pool_premium() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn fleet_cost_rate_follows_category() {
        let p = Pricing::default();
        let hour = SimDuration::from_hours(1);
        assert!((p.fleet_cost(CostCategory::VmCompute, hour) - p.vm_per_hour).abs() < 1e-12);
        assert!(
            (p.fleet_cost(CostCategory::ShuffleNode, hour) - p.shuffle_node_per_hour).abs() < 1e-12
        );
        // Matches the per-duration VM price used elsewhere.
        let d = SimDuration::from_secs(90);
        assert!((p.fleet_cost(CostCategory::VmCompute, d) - p.vm_cost(d)).abs() < 1e-12);
    }

    #[test]
    fn premium_scaling_is_micro_exact() {
        // The Figure 8 sweep applies with_pool_premium across a ratio
        // grid; each scaled rate must land on an exact micro-dollar so
        // a price timeline compounding on top never amplifies f64
        // representation error.
        for ratio in [0.5, 1.0, 1.5, 2.0, 4.0, 6.0, 10.0, 24.0] {
            let p = Pricing::default().with_pool_premium(ratio);
            let expected = (30_000.0 * ratio).round() as i64;
            assert_eq!(
                micro_dollars(p.pool_per_hour),
                expected,
                "ratio {ratio} drifted off the micro grid"
            );
        }
    }

    #[test]
    fn second_region_scales_rates_in_micros() {
        let p = Pricing::default();
        let r = p.second_region();
        assert_eq!(micro_dollars(r.vm_per_hour), 21_000); // 0.03 × 0.7
        assert_eq!(micro_dollars(r.pool_per_hour), 126_000); // 0.18 × 0.7
        assert_eq!(micro_dollars(r.shuffle_node_per_hour), 56_000); // 0.08 × 0.7
                                                                    // Billing rules and request prices are unchanged.
        assert_eq!(r.vm_min_billing, p.vm_min_billing);
        assert_eq!(r.s3_put, p.s3_put);
        assert_eq!(r.s3_get, p.s3_get);
    }

    #[test]
    fn egress_micros_rounds_to_nearest() {
        assert_eq!(egress_micros(1 << 30, EGRESS_MICROS_PER_GIB), 20_000);
        assert_eq!(egress_micros(1 << 29, EGRESS_MICROS_PER_GIB), 10_000);
        assert_eq!(egress_micros(0, EGRESS_MICROS_PER_GIB), 0);
        // 100 MiB × $0.02/GiB = $0.001953125 → 1953 micros (rounded).
        assert_eq!(egress_micros(100 << 20, 20_000), 1953);
        // Half-GiB boundary rounds up.
        assert_eq!(egress_micros((1 << 30) + (1 << 29), 1), 2);
    }

    #[test]
    fn hourly_and_per_second_agree() {
        let p = Pricing::default();
        assert!((p.vm_per_sec() * 3600.0 - p.vm_per_hour).abs() < 1e-12);
        assert!((p.vm_cost(SimDuration::from_hours(2)) - 0.06).abs() < 1e-12);
        assert!((p.pool_cost(SimDuration::from_mins(30)) - 0.09).abs() < 1e-12);
    }
}
