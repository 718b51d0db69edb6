//! Environment and system configuration (Table 1 defaults).

use cackle_cloud::{Pricing, SimDuration};

/// Everything the provisioning strategies may observe about the execution
/// environment: prices and timing behaviour of the cloud (§3.2 — "the cost
/// models of both provisioned resources and the elastic pool are known, and
/// the time to start new provisioned resources is predictable").
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// Cloud pricing and timing.
    pub pricing: Pricing,
    /// How often the meta-strategy re-evaluates (5 s in Cackle, §4.4.4):
    /// a positive whole number of seconds, which
    /// [`RunSpec::validate`](crate::RunSpec::validate) checks.
    pub strategy_tick: SimDuration,
    /// Shuffle-node lookback for the max-intermediate-state rule (§5.6).
    pub shuffle_lookback: SimDuration,
    /// Minimum provisioned shuffle memory (§5.6: never below 16 GB).
    pub shuffle_min_bytes: u64,
}

impl Default for Env {
    fn default() -> Self {
        Env {
            pricing: Pricing::default(),
            strategy_tick: SimDuration::from_secs(5),
            shuffle_lookback: SimDuration::from_mins(20),
            shuffle_min_bytes: 16 * (1 << 30),
        }
    }
}

impl Env {
    /// VM startup latency in whole seconds.
    pub fn vm_startup_s(&self) -> u64 {
        self.pricing.vm_startup.as_secs()
    }

    /// VM minimum billing time in whole seconds.
    pub fn vm_min_billing_s(&self) -> u64 {
        self.pricing.vm_min_billing.as_secs()
    }

    /// Override the VM startup latency (Figure 9 sweep).
    pub fn with_vm_startup_s(mut self, secs: u64) -> Self {
        self.pricing.vm_startup = SimDuration::from_secs(secs);
        self
    }

    /// Override the elastic-pool cost premium (Figure 8 sweep).
    pub fn with_pool_premium(mut self, ratio: f64) -> Self {
        self.pricing = self.pricing.clone().with_pool_premium(ratio);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let e = Env::default();
        assert_eq!(e.vm_startup_s(), 180);
        assert_eq!(e.vm_min_billing_s(), 60);
        assert_eq!(e.strategy_tick, SimDuration::from_secs(5));
        assert_eq!(e.shuffle_lookback, SimDuration::from_mins(20));
        assert_eq!(e.shuffle_min_bytes, 16 << 30);
        assert!((e.pricing.pool_premium() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_builders() {
        let e = Env::default()
            .with_vm_startup_s(600)
            .with_pool_premium(12.0);
        assert_eq!(e.vm_startup_s(), 600);
        assert!((e.pricing.pool_premium() - 12.0).abs() < 1e-12);
    }
}
