//! Cost models for every billable cloud resource.
//!
//! Defaults follow the paper's Table 1 and §7.1: a 2-vCPU spot VM at
//! $0.03/hour, an elastic-pool slot (AWS Lambda, 3 GB) at $0.18/hour (a 6×
//! premium), S3 request pricing, and a 4-vCPU/8 GB shuffle node at
//! $0.08/hour. Every experiment that varies an environmental condition
//! (Figures 8 and 9) does so by perturbing one field of this struct.
//!
//! `Pricing` is the only place that mints [`Money`]: each billing method
//! snaps its `f64` rate to nano-dollars once, does all its arithmetic in
//! integers and rounds once at the end. The per-second rates
//! ([`Pricing::vm_per_sec`], [`Pricing::pool_per_sec`]) stay `f64`: they
//! feed the strategy's cost estimates, never a ledger.

use crate::ledger::{micro_dollars, CostCategory};
use crate::money::Money;
use crate::time::SimDuration;
use cackle_faults::StoreOp;

/// Cross-region shuffle-egress price in micro-dollars per GiB
/// ($0.02/GiB — the discounted inter-region transfer tier). Matches
/// `EnvironmentSpec::egress_micros_per_gib`'s default.
pub const EGRESS_MICROS_PER_GIB: u64 = 20_000;

/// Milliseconds per hour, the denominator of every hourly rate.
const MS_PER_HOUR: u128 = 3_600_000;

/// A dollar price snapped to whole nano-dollars (a negative or
/// non-finite price bills nothing).
fn nanos(dollars: f64) -> u128 {
    if dollars.is_finite() && dollars > 0.0 {
        (dollars * 1e9).round() as u128
    } else {
        0
    }
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
        }
    }
}

impl Pricing {
    /// Cost of one elastic-pool slot for `d` (billed at millisecond
    /// granularity with no minimum).
    pub fn pool_cost(&self, d: SimDuration) -> Money {
        Money::from_ratio(
            nanos(self.pool_per_hour) * d.as_millis() as u128,
            MS_PER_HOUR,
        )
    }

    /// Cost of one fleet instance billed against `category`: shuffle
    /// nodes at the shuffle-node rate, everything else at the VM rate.
    /// `integral_milli_ms` is the market price multiplier integrated
    /// over the billed lifetime (per-mille × milliseconds; a flat
    /// market integrates to `1000 ×` the span) and `rate_milli` the
    /// instance's regional rate (1000 = home). Minimum billing is the
    /// fleet's job: it knows the actual runtime.
    pub fn fleet_charge(
        &self,
        category: CostCategory,
        integral_milli_ms: u128,
        rate_milli: u32,
    ) -> Money {
        let per_hour = match category {
            CostCategory::ShuffleNode => self.shuffle_node_per_hour,
            _ => self.vm_per_hour,
        };
        // n$/h × per-mille·ms × per-mille ÷ (1000 · ms/h · 1000)
        Money::from_ratio(
            nanos(per_hour) * integral_milli_ms * rate_milli as u128,
            1000 * MS_PER_HOUR * 1000,
        )
    }

    /// Cost of `count` object-store requests of kind `op`.
    pub fn requests(&self, op: StoreOp, count: u64) -> Money {
        let unit = match op {
            StoreOp::Put => self.s3_put,
            StoreOp::Get => self.s3_get,
        };
        Money::from_ratio(nanos(unit) * count as u128, 1)
    }

    /// Cross-region egress of `bytes` at `micros_per_gib` micro-dollars
    /// per GiB (the environment model's egress price).
    pub fn egress(bytes: u64, micros_per_gib: u64) -> Money {
        Money::from_ratio(bytes as u128 * micros_per_gib as u128 * 1000, 1 << 30)
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

    /// Replace the VM startup latency (used by the Figure 9 sweep).
    pub fn with_vm_startup(mut self, startup: SimDuration) -> Self {
        self.vm_startup = startup;
        self
    }

    /// Per-second VM price in dollars.
    pub fn vm_per_sec(&self) -> f64 {
        self.vm_per_hour / 3600.0
    }

    /// Per-second VM price in dollars under a `PriceTimeline`
    /// multiplier of `milli` per-mille: the hourly rate snapped to
    /// whole micro-dollars, scaled in integers (truncating) and divided
    /// once. It feeds the strategy's cost estimates; the fleets bill
    /// the same multiplier through [`Pricing::fleet_charge`].
    pub fn vm_per_sec_at(&self, milli: u32) -> f64 {
        let micros = micro_dollars(self.vm_per_hour).max(0) as i128 * milli as i128 / 1000;
        micros as f64 / 1e6 / 3600.0
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
    fn fleet_charge_rate_follows_category_and_region() {
        let p = Pricing::default();
        let hour = 1000 * 3_600_000;
        assert_eq!(
            p.fleet_charge(CostCategory::VmCompute, hour, 1000).micros(),
            30_000
        );
        assert_eq!(
            p.fleet_charge(CostCategory::ShuffleNode, hour, 1000)
                .micros(),
            80_000
        );
        assert_eq!(
            p.fleet_charge(CostCategory::VmCompute, hour, 700).micros(),
            21_000
        );
        // Two hours cost exactly twice one hour: one rounding, at the end.
        let two = p.fleet_charge(CostCategory::VmCompute, 2 * hour, 1000);
        let one = p.fleet_charge(CostCategory::VmCompute, hour, 1000);
        assert_eq!(two, one + one);
        // 1 ms at $0.03/h is 8.33 n$: rounded once, to 8.
        let ms = p.fleet_charge(CostCategory::VmCompute, 1000, 1000);
        assert_eq!(ms.dollars(), 8e-9);
    }

    #[test]
    fn premium_builder_scales_pool_price() {
        let p = Pricing::default().with_pool_premium(10.0);
        assert!((p.pool_per_hour - 0.30).abs() < 1e-12);
        assert!((p.pool_premium() - 10.0).abs() < 1e-12);
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
    fn vm_rate_at_a_multiplier_scales_the_micro_grid_rate() {
        let p = Pricing::default();
        assert_eq!(p.vm_per_sec_at(1000), p.vm_per_sec());
        assert_eq!(p.vm_per_sec_at(2000), 60_000.0 / 1e6 / 3600.0);
        assert_eq!(p.vm_per_sec_at(700), 21_000.0 / 1e6 / 3600.0);
        // One hour at the scaled rate is what the fleet bills for an
        // hour at the same multiplier.
        let hour = 3_600_000u128;
        for milli in [100u32, 720, 1000, 1295, 2000] {
            let billed = p.fleet_charge(CostCategory::VmCompute, hour * milli as u128, 1000);
            assert!((p.vm_per_sec_at(milli) * 3600.0 - billed.dollars()).abs() < 1e-15);
        }
    }

    #[test]
    fn requests_bill_below_the_micro_grid() {
        let p = Pricing::default();
        // One GET is 0.4 µ$: whole nano-dollars hold it exactly.
        assert_eq!(p.requests(StoreOp::Get, 1).dollars(), 4e-7);
        assert_eq!(p.requests(StoreOp::Get, 5).micros(), 2);
        assert_eq!(p.requests(StoreOp::Put, 3).micros(), 15);
        assert_eq!(p.requests(StoreOp::Put, 0), Money::ZERO);
    }

    #[test]
    fn egress_rounds_to_nearest_nano() {
        assert_eq!(
            Pricing::egress(1 << 30, EGRESS_MICROS_PER_GIB).micros(),
            20_000
        );
        assert_eq!(
            Pricing::egress(1 << 29, EGRESS_MICROS_PER_GIB).micros(),
            10_000
        );
        assert_eq!(Pricing::egress(0, EGRESS_MICROS_PER_GIB), Money::ZERO);
        // 100 MiB × $0.02/GiB = $0.001953125, exact in nano-dollars.
        assert_eq!(Pricing::egress(100 << 20, 20_000).dollars(), 0.001_953_125);
        // A half-nano tie rounds up: 64 MiB at 125 µ$/GiB is 7 812.5 n$.
        assert_eq!(Pricing::egress(1 << 26, 125), Money::from_nanos(7_813));
    }

    #[test]
    fn hourly_and_per_second_agree() {
        let p = Pricing::default();
        assert!((p.vm_per_sec() * 3600.0 - p.vm_per_hour).abs() < 1e-12);
        assert_eq!(p.pool_cost(SimDuration::from_mins(30)).dollars(), 0.09);
        // 250 ms at $0.18/h: 12 500 n$, exactly.
        assert_eq!(
            p.pool_cost(SimDuration::from_millis(250)).dollars(),
            1.25e-5
        );
    }
}
