//! The elastic compute pool (AWS Lambda in the paper).
//!
//! The pool grants effectively unlimited slots with a small invocation
//! latency and bills actual usage at millisecond granularity with no
//! minimum — the two properties §2.2 requires — at a per-hour price that is
//! a multiple of the equivalent VM.

use crate::ledger::{CostCategory, CostLedger};
use crate::pricing::Pricing;
use crate::time::{SimDuration, SimTime};
use cackle_faults::{FaultInjector, PoolDecision};
use cackle_telemetry::{catalog, Telemetry};
use std::collections::BTreeMap;

/// Identifier of one elastic-pool invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InvocationId(pub u64);

/// A simulated elastic pool with unbounded capacity.
#[derive(Debug)]
pub struct ElasticPool {
    pricing: Pricing,
    next_id: u64,
    active: BTreeMap<InvocationId, SimTime>,
    ledger: CostLedger,
    invocations_total: u64,
    peak_concurrency: usize,
    /// Telemetry sink (disabled by default); see [`ElasticPool::instrument`].
    telemetry: Telemetry,
}

impl ElasticPool {
    /// Create an empty pool.
    pub fn new(pricing: Pricing) -> Self {
        ElasticPool {
            pricing,
            next_id: 0,
            active: BTreeMap::new(),
            ledger: CostLedger::new(),
            invocations_total: 0,
            peak_concurrency: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Report the pool's invocation count and billed-duration histogram
    /// to `telemetry`.
    pub fn instrument(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// Request a slot at `now`. Returns the invocation id and the time the
    /// slot is actually able to begin work (after the invoke latency).
    pub fn invoke(&mut self, now: SimTime) -> (InvocationId, SimTime) {
        let id = InvocationId(self.next_id);
        self.next_id += 1;
        let start = now + self.pricing.pool_invoke_latency;
        self.active.insert(id, start);
        self.invocations_total += 1;
        self.peak_concurrency = self.peak_concurrency.max(self.active.len());
        self.telemetry.add(catalog::POOL_INVOCATIONS_TOTAL, 1);
        (id, start)
    }

    /// [`ElasticPool::invoke`], consulting a fault plan first. An
    /// injected throttle delays the slot's start (the provider does not
    /// bill queue time, so billing begins at the delayed start); an
    /// injected failure consumes no slot and returns `None`, and the
    /// caller retries under its recovery policy or surfaces a typed
    /// error once the retry bound is exhausted.
    pub fn invoke_faulted(
        &mut self,
        now: SimTime,
        faults: &FaultInjector,
    ) -> Option<(InvocationId, SimTime)> {
        match faults.pool_invoke() {
            PoolDecision::Fail => None,
            PoolDecision::Throttle { delay_ms } => {
                let (id, start) = self.invoke(now);
                let delayed = start + SimDuration::from_millis(delay_ms);
                self.active.insert(id, delayed);
                Some((id, delayed))
            }
            PoolDecision::Proceed => Some(self.invoke(now)),
        }
    }

    /// Complete an invocation at `now`, billing its actual runtime at
    /// millisecond granularity. Returns the billed duration, or `None`
    /// when the id is unknown or already completed (nothing is billed).
    pub fn try_complete(&mut self, now: SimTime, id: InvocationId) -> Option<SimDuration> {
        let start = self.active.remove(&id)?;
        let ran = now - start;
        self.ledger
            .bill(CostCategory::ElasticPool, self.pricing.pool_cost(ran));
        self.ledger.pool_seconds += ran.as_secs_f64();
        self.telemetry
            .record(catalog::POOL_INVOCATION_SECONDS, ran.as_secs_f64());
        Some(ran)
    }

    /// [`ElasticPool::try_complete`], treating an unknown invocation as a
    /// zero-duration no-op (it trips a debug assertion: completing an
    /// invocation twice means the caller lost track of its slots).
    pub fn complete(&mut self, now: SimTime, id: InvocationId) -> SimDuration {
        let billed = self.try_complete(now, id);
        debug_assert!(billed.is_some(), "completed unknown invocation {id:?}");
        billed.unwrap_or(SimDuration::ZERO)
    }

    /// Number of currently active invocations.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Highest concurrency observed so far.
    pub fn peak_concurrency(&self) -> usize {
        self.peak_concurrency
    }

    /// Total invocations over the pool's lifetime.
    pub fn invocations_total(&self) -> u64 {
        self.invocations_total
    }

    /// The accumulated billing ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invoke_latency_delays_start() {
        let mut p = ElasticPool::new(Pricing::default());
        let (_, start) = p.invoke(SimTime::from_secs(10));
        assert_eq!(
            start,
            SimTime::from_secs(10) + SimDuration::from_millis(100)
        );
    }

    #[test]
    fn bills_millisecond_granularity_no_minimum() {
        let mut p = ElasticPool::new(Pricing::default());
        let (id, start) = p.invoke(SimTime::ZERO);
        let end = start + SimDuration::from_millis(250);
        let ran = p.complete(end, id);
        assert_eq!(ran, SimDuration::from_millis(250));
        // 250 ms at $0.18/h is 12 500 n$, exactly.
        assert_eq!(p.ledger().total().dollars(), 1.25e-5);
    }

    #[test]
    fn tracks_concurrency_and_totals() {
        let mut p = ElasticPool::new(Pricing::default());
        let (a, sa) = p.invoke(SimTime::ZERO);
        let (b, _sb) = p.invoke(SimTime::ZERO);
        assert_eq!(p.active_count(), 2);
        p.complete(sa + SimDuration::from_secs(1), a);
        assert_eq!(p.active_count(), 1);
        let (_c, _) = p.invoke(SimTime::from_secs(2));
        p.complete(SimTime::from_secs(5), b);
        assert_eq!(p.peak_concurrency(), 2);
        assert_eq!(p.invocations_total(), 3);
    }

    #[test]
    fn faulted_invoke_throttles_and_fails_deterministically() {
        use cackle_faults::{FaultPlan, FaultSpec, RecoveryPolicy};
        // Disabled injector: identical to a plain invoke.
        let mut p = ElasticPool::new(Pricing::default());
        let (_, start) = p
            .invoke_faulted(SimTime::from_secs(10), &FaultInjector::disabled())
            .unwrap();
        assert_eq!(
            start,
            SimTime::from_secs(10) + SimDuration::from_millis(100)
        );
        // Throttle-only plan: every invoke starts late and bills from the
        // delayed start; failure-only plan: invokes fail without billing.
        let throttled = FaultSpec::default().with_pool_throttles(0.95, 700);
        let inj = FaultInjector::new(
            FaultPlan::compile(&throttled, 3).unwrap(),
            RecoveryPolicy::default(),
        );
        let mut p = ElasticPool::new(Pricing::default());
        let mut saw_throttle = false;
        for _ in 0..20 {
            let (id, start) = p.invoke_faulted(SimTime::ZERO, &inj).unwrap();
            if start == SimTime::from_millis(800) {
                saw_throttle = true;
            }
            // Billing starts at the (possibly delayed) start time.
            assert_eq!(p.complete(start + SimDuration::from_secs(1), id), {
                SimDuration::from_secs(1)
            });
        }
        assert!(saw_throttle, "p=0.95 throttles never fired");
        let failing = FaultSpec::default().with_pool_invoke_failures(0.95);
        let inj = FaultInjector::new(
            FaultPlan::compile(&failing, 3).unwrap(),
            RecoveryPolicy::default(),
        );
        let mut p = ElasticPool::new(Pricing::default());
        let failures = (0..20)
            .filter(|_| p.invoke_faulted(SimTime::ZERO, &inj).is_none())
            .count();
        assert!(failures > 0, "p=0.95 failures never fired");
        assert_eq!(p.invocations_total(), 20 - failures as u64);
        assert_eq!(p.ledger().total(), crate::Money::ZERO);
    }

    #[test]
    fn thousand_one_second_slots_cost_matches_closed_form() {
        let mut p = ElasticPool::new(Pricing::default());
        let mut ids = Vec::new();
        for _ in 0..1000 {
            ids.push(p.invoke(SimTime::ZERO));
        }
        for (id, start) in ids {
            p.complete(start + SimDuration::from_secs(1), id);
        }
        // 1000 slot-seconds at $0.18/hour: $0.05, to the nano-dollar.
        assert_eq!(p.ledger().total().dollars(), 0.05);
        assert!((p.ledger().pool_seconds - 1000.0).abs() < 1e-9);
    }
}
