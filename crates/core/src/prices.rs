//! Time-varying prices (§5.3).
//!
//! The paper motivates cost sensitivity with a real swing: between January
//! and March 2023 the spot price of a c5a.large nearly doubled while
//! Lambda's price held, shrinking the pool premium from 7× to 3.6×. A
//! [`PriceTimeline`] is a step function of `(vm, pool)` rates; the §4.4.3
//! machinery re-prices every expert's accruals from the moment conditions
//! change, so the meta-strategy re-ranks its family mid-run without being
//! told anything happened.
//!
//! Rates are stored as integer micro-dollars per hour and converted to
//! per-second f64 rates with a single division at read time, so a sweep
//! that compounds price shifts (the Figure 8 ablation, or the environment
//! model's market schedule) never accumulates f64 representation drift
//! into the step table. These rates price the strategy's cost
//! *estimates*; they never reach a ledger, which bills through
//! `cackle_cloud::Pricing` and the fleet's own market timeline.

use crate::config::Env;
use cackle_cloud::micro_dollars;

/// A step function of hourly prices over the workload, held as exact
/// integer micro-dollars.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceTimeline {
    /// `(from_second, vm_micros_per_hour, pool_micros_per_hour)`, sorted
    /// by time, first entry at second 0.
    steps: Vec<(u64, i64, i64)>,
}

impl PriceTimeline {
    /// Constant prices from the environment.
    pub fn constant(env: &Env) -> Self {
        PriceTimeline {
            steps: vec![(
                0,
                micro_dollars(env.pricing.vm_per_hour),
                micro_dollars(env.pricing.pool_per_hour),
            )],
        }
    }

    /// Start from the environment's prices and append a change at `at_s`.
    /// Later calls must use non-decreasing times. The hourly dollar
    /// arguments are snapped to the micro-dollar grid once, here.
    pub fn then(mut self, at_s: u64, vm_per_hour: f64, pool_per_hour: f64) -> Self {
        let last = self.steps.last().expect("non-empty").0;
        assert!(at_s >= last, "price steps must be time-ordered");
        self.steps.push((
            at_s,
            micro_dollars(vm_per_hour),
            micro_dollars(pool_per_hour),
        ));
        self
    }

    /// The §5.3 scenario: VM spot price jumps by `vm_factor` at `at_s`
    /// while the pool price holds (premium shrinks).
    pub fn spot_spike(env: &Env, at_s: u64, vm_factor: f64) -> Self {
        Self::constant(env).then(
            at_s,
            env.pricing.vm_per_hour * vm_factor,
            env.pricing.pool_per_hour,
        )
    }

    /// Translate the environment model's compiled market schedule into
    /// model-layer rate steps over `[0, horizon_s]`: the VM rate follows
    /// the per-interval per-mille multiplier (integer arithmetic on the
    /// micro-dollar base rate, one truncation per step) while the pool
    /// price holds flat — Lambda does not ride the spot market. The
    /// analytical model prices compute under exactly the schedule the
    /// system runner bills through.
    pub fn from_market(env: &Env, market: &cackle_faults::PriceTimeline, horizon_s: u64) -> Self {
        let mut tl = Self::constant(env);
        if market.is_flat() {
            return tl;
        }
        let base_vm = micro_dollars(env.pricing.vm_per_hour).max(0);
        let pool = tl.steps[0].2;
        let interval = market.interval_s().max(1);
        let mut k = 0u64;
        while k.saturating_mul(interval) <= horizon_s {
            let at = k * interval;
            let vm = (base_vm as i128 * market.multiplier_milli(at) as i128 / 1000) as i64;
            match tl.steps.last() {
                Some(&(_, last_vm, _)) if last_vm == vm => {}
                _ if at == 0 => tl.steps[0].1 = vm,
                _ => tl.steps.push((at, vm, pool)),
            }
            k += 1;
        }
        tl
    }

    /// `(vm_per_sec, pool_per_sec)` in force at second `t`, derived from
    /// the integer hourly rates with one division each.
    pub fn rates_at(&self, t: u64) -> (f64, f64) {
        let (vm, pool) = self.micros_at(t);
        (vm as f64 / 1e6 / 3600.0, pool as f64 / 1e6 / 3600.0)
    }

    /// `(vm, pool)` hourly rates in micro-dollars in force at second `t`.
    pub fn micros_at(&self, t: u64) -> (i64, i64) {
        let mut current = (self.steps[0].1, self.steps[0].2);
        for &(from, vm, pool) in &self.steps {
            if from > t {
                break;
            }
            current = (vm, pool);
        }
        current
    }

    /// Seconds at which prices change (excluding second 0).
    pub fn change_points(&self) -> Vec<u64> {
        self.steps.iter().skip(1).map(|&(t, _, _)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_timeline_matches_env() {
        let env = Env::default();
        let t = PriceTimeline::constant(&env);
        assert_eq!(
            t.rates_at(0),
            (env.pricing.vm_per_sec(), env.pricing.pool_per_sec())
        );
        assert_eq!(t.rates_at(1_000_000), t.rates_at(0));
        assert!(t.change_points().is_empty());
        assert_eq!(t.micros_at(0), (30_000, 180_000));
    }

    #[test]
    fn steps_apply_from_their_time() {
        let env = Env::default();
        let t = PriceTimeline::constant(&env).then(100, 0.06, 0.18);
        let before = t.rates_at(99);
        let after = t.rates_at(100);
        assert_eq!(before.0, 0.03 / 3600.0);
        assert!((after.0 - 0.06 / 3600.0).abs() < 1e-15);
        assert_eq!(before.1, after.1);
        assert_eq!(t.change_points(), vec![100]);
    }

    #[test]
    fn spot_spike_halves_premium() {
        let env = Env::default();
        let t = PriceTimeline::spot_spike(&env, 3600, 2.0);
        let (vm0, pool0) = t.rates_at(0);
        let (vm1, pool1) = t.rates_at(3600);
        assert!((pool0 / vm0 - 6.0).abs() < 1e-9);
        assert!((pool1 / vm1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn compounded_shifts_stay_on_the_micro_grid() {
        // The Figure 8-style sweep compounds a premium shift with a spot
        // spike; every resulting step must land on an exact micro-dollar
        // so a run billed from the table matches the hand-computed
        // integer charge. Hand ledger: 1000 s at 30 000 µ$/h then 1000 s
        // at 51 000 µ$/h = (30 000 + 51 000) × 1000 / 3600 = 22 500 µ$.
        let env = Env::default();
        let t = PriceTimeline::spot_spike(&env, 1000, 1.7);
        assert_eq!(t.micros_at(0).0, 30_000);
        assert_eq!(t.micros_at(1000).0, 51_000);
        let accrued_micros: i128 = [(0u64, 1000u64), (1000, 2000)]
            .iter()
            .map(|&(s, e)| t.micros_at(s).0 as i128 * (e - s) as i128)
            .sum::<i128>()
            / 3600;
        assert_eq!(accrued_micros, 22_500);
        // The f64 per-second view reproduces the same total to within
        // one rounding of the final sum.
        let f64_total: f64 = 1000.0 * t.rates_at(0).0 + 1000.0 * t.rates_at(1000).0;
        assert_eq!(micro_dollars(f64_total), 22_500);
    }

    #[test]
    fn market_timeline_matches_hand_computed_micros() {
        use cackle_faults::EnvironmentSpec;
        let env = Env::default();
        let espec = EnvironmentSpec::default().with_market_motion(0.3, 900);
        let market = cackle_faults::PriceTimeline::compile(&espec, cackle_prng::Seed::root(42));
        let t = PriceTimeline::from_market(&env, &market, 3600);
        for at in [0u64, 899, 900, 1800, 3599] {
            let expected = (30_000i128 * market.multiplier_milli(at) as i128 / 1000) as i64;
            assert_eq!(t.micros_at(at).0, expected, "vm rate at {at}");
            // Pool (Lambda) price holds flat under market motion.
            assert_eq!(t.micros_at(at).1, 180_000, "pool rate at {at}");
        }
        // Volatility 0.3 must actually move the price off the base.
        assert!(!t.change_points().is_empty());
        // A flat market collapses to the constant table.
        let flat = PriceTimeline::from_market(&env, &cackle_faults::PriceTimeline::flat(), 3600);
        assert_eq!(flat, PriceTimeline::constant(&env));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_steps_rejected() {
        let env = Env::default();
        let _ = PriceTimeline::constant(&env)
            .then(100, 0.06, 0.18)
            .then(50, 0.03, 0.18);
    }
}
