//! Allocation-history simulation and cost calculation (§4.4.2–§4.4.3).
//!
//! Given a stream of `(target, demand)` pairs at one-second granularity and
//! the environment (VM startup latency, minimum billing, prices), predict
//! the *allocation history* — how many VMs would have been running — and
//! the exact cost split between VMs and the elastic pool. The meta-strategy
//! keeps one incremental [`AllocationSim`] per expert.
//!
//! Fleet rules mirror [`cackle_cloud::vm::VmFleet`]: pending requests are
//! free to cancel; only idle VMs terminate (idle = beyond current demand),
//! oldest first; every terminated VM bills at least the minimum time.

use crate::config::Env;
use std::collections::VecDeque;

/// Incremental fleet/cost simulator driven one second at a time.
///
/// VMs requested in the same second are interchangeable, so the fleet is
/// kept as run-length cohorts `(second, count)`: a request, a cancel or a
/// promotion touches one entry per cohort, not one per VM, and a target
/// of `u32::MAX` is one entry.
#[derive(Debug, Clone)]
pub struct AllocationSim {
    startup_s: u64,
    min_billing_s: u64,
    vm_rate_per_s: f64,
    pool_rate_per_s: f64,
    /// Dollars accrued so far (supports time-varying rates; with constant
    /// rates this equals the billed-seconds × rate arithmetic exactly).
    /// A cost *estimate* for the strategy, never billed to a ledger: it
    /// stays `f64` because decisions depend on it bit for bit.
    vm_dollars: f64,
    pool_dollars: f64,
    now: u64,
    /// `(start second, VMs)` of running VMs, oldest first.
    active: VecDeque<(u64, usize)>,
    /// `(ready second, VMs)` of requested-but-not-started VMs, soonest
    /// first.
    pending: VecDeque<(u64, usize)>,
    /// VMs across all `active` cohorts.
    active_n: usize,
    /// VMs across all `pending` cohorts.
    pending_n: usize,
    /// Accumulated billed VM-seconds (min billing applied at termination).
    vm_billed_s: f64,
    /// Accumulated elastic-pool slot-seconds.
    pool_s: f64,
}

impl AllocationSim {
    /// Fresh simulator at second 0 with execution-layer VM rates.
    pub fn new(env: &Env) -> Self {
        Self::with_rates(
            env.vm_startup_s(),
            env.vm_min_billing_s(),
            env.pricing.vm_per_sec(),
            env.pricing.pool_per_sec(),
        )
    }

    /// Fresh simulator with explicit rates (the shuffle layer reuses the
    /// same fleet mechanics at shuffle-node prices).
    pub fn with_rates(
        startup_s: u64,
        min_billing_s: u64,
        vm_rate_per_s: f64,
        pool_rate_per_s: f64,
    ) -> Self {
        AllocationSim {
            startup_s,
            min_billing_s,
            vm_rate_per_s,
            pool_rate_per_s,
            now: 0,
            active: VecDeque::new(),
            pending: VecDeque::new(),
            active_n: 0,
            pending_n: 0,
            vm_billed_s: 0.0,
            pool_s: 0.0,
            vm_dollars: 0.0,
            pool_dollars: 0.0,
        }
    }

    /// Number of currently running VMs.
    pub fn active_count(&self) -> usize {
        self.active_n
    }

    /// Number of requested VMs not yet started.
    pub fn pending_count(&self) -> usize {
        self.pending_n
    }

    /// Current simulated second.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Terminate the `n` oldest running VMs.
    fn terminate_oldest(&mut self, mut n: usize) {
        self.active_n -= n;
        while n > 0 {
            let (start, count) = self
                .active
                .front_mut()
                .expect("terminate with no active VM");
            let take = n.min(*count);
            let ran = self.now - *start;
            *count -= take;
            if *count == 0 {
                self.active.pop_front();
            }
            n -= take;
            // Runtime seconds were already accrued second-by-second in `bill`;
            // terminating early bills the minimum-billing shortfall on top,
            // at the rate in force at termination time — one accrual per
            // VM, so the f64 sums round exactly as a per-VM fleet's would.
            if ran < self.min_billing_s {
                let shortfall = (self.min_billing_s - ran) as f64;
                for _ in 0..take {
                    self.vm_billed_s += shortfall;
                    self.vm_dollars += shortfall * self.vm_rate_per_s;
                }
            }
        }
    }

    /// Update the prices in force from now on (§4.4.3: the environment's
    /// cost conditions may change mid-workload; already-accrued dollars are
    /// untouched).
    pub fn set_rates(&mut self, vm_rate_per_s: f64, pool_rate_per_s: f64) {
        self.vm_rate_per_s = vm_rate_per_s;
        self.pool_rate_per_s = pool_rate_per_s;
    }

    fn promote_ready(&mut self) {
        while let Some(&(ready, count)) = self.pending.front() {
            if ready > self.now {
                break;
            }
            self.pending.pop_front();
            self.pending_n -= count;
            self.active.push_back((ready, count));
            self.active_n += count;
        }
    }

    /// Cancel the `n` most recently requested pending VMs (free).
    fn cancel_newest(&mut self, mut n: usize) {
        self.pending_n -= n;
        while n > 0 {
            let (_, count) = self.pending.back_mut().expect("cancel with none pending");
            let take = n.min(*count);
            *count -= take;
            if *count == 0 {
                self.pending.pop_back();
            }
            n -= take;
        }
    }

    /// Advance one second with the given provisioning target and demand
    /// (see [`advance`](Self::advance)).
    pub fn step(&mut self, target: u32, demand: u32) {
        self.advance(target, std::slice::from_ref(&demand));
    }

    /// Advance one second per entry of `demands`, all under `target`.
    ///
    /// Order of operations within a second: pending VMs whose startup
    /// elapsed come online; the target is applied (request new / cancel
    /// pending / terminate idle); then the second of usage is billed —
    /// `min(active, demand)` VM-slots do work, the rest of `demand` runs on
    /// the pool, and every active VM bills whether busy or idle.
    ///
    /// A second is *settled* when the fleet already totals `target` and
    /// the front pending cohort is not due: until that cohort's ready
    /// second nothing is requested, cancelled, promoted or terminated, so
    /// the whole stretch is billed in one pass. The accumulators receive
    /// the same f64 additions in the same order as one-second steps would
    /// give them.
    pub fn advance(&mut self, target: u32, demands: &[u32]) {
        let target = target as usize;
        let mut rest = demands;
        while let Some(&demand) = rest.first() {
            let due = self.pending.front().map_or(u64::MAX, |&(ready, _)| ready);
            let seconds = if self.active_n + self.pending_n == target && due > self.now {
                (due - self.now).min(rest.len() as u64) as usize
            } else {
                self.apply(target, demand);
                1
            };
            let (billed, tail) = rest.split_at(seconds);
            self.bill(billed);
            rest = tail;
        }
    }

    /// Promote the ready cohorts and move the fleet toward `target`.
    fn apply(&mut self, target: usize, demand: u32) {
        // 1. Promote pending VMs that are ready.
        self.promote_ready();
        // 2. Apply the target.
        let total = self.active_n + self.pending_n;
        if target > total {
            self.pending
                .push_back((self.now + self.startup_s, target - total));
            self.pending_n += target - total;
        } else if target < total {
            let excess = total - target;
            // Cancel pending first (free).
            let cancelled = excess.min(self.pending_n);
            self.cancel_newest(cancelled);
            // Terminate idle VMs (beyond demand), oldest first.
            let idle = self.active_n.saturating_sub(demand as usize);
            self.terminate_oldest((excess - cancelled).min(idle));
        }
        // 2b. With zero startup latency, fresh requests are usable at once.
        if self.startup_s == 0 {
            self.promote_ready();
        }
    }

    /// Bill one second per entry of `demands` at the rates in force, with
    /// the fleet held as it is.
    fn bill(&mut self, demands: &[u32]) {
        let active = self.active_n as f64;
        let vm_per_s = active * self.vm_rate_per_s;
        let mut vm_billed_s = self.vm_billed_s;
        let mut vm_dollars = self.vm_dollars;
        let mut pool_s = self.pool_s;
        let mut pool_dollars = self.pool_dollars;
        for &demand in demands {
            vm_billed_s += active;
            vm_dollars += vm_per_s;
            let overflow = (demand as usize).saturating_sub(self.active_n) as f64;
            pool_s += overflow;
            pool_dollars += overflow * self.pool_rate_per_s;
        }
        self.vm_billed_s = vm_billed_s;
        self.vm_dollars = vm_dollars;
        self.pool_s = pool_s;
        self.pool_dollars = pool_dollars;
        self.now += demands.len() as u64;
    }

    /// Billed VM-seconds so far (not counting min-billing remainders of
    /// still-running VMs).
    pub fn vm_billed_seconds(&self) -> f64 {
        self.vm_billed_s
    }

    /// Elastic-pool slot-seconds so far.
    pub fn pool_seconds(&self) -> f64 {
        self.pool_s
    }

    /// Total accrued cost so far in dollars (running VMs billed for elapsed
    /// runtime; min-billing remainders land at termination).
    pub fn cost(&self) -> f64 {
        self.vm_dollars + self.pool_dollars
    }

    /// Dollars accrued on VMs.
    pub fn vm_dollars(&self) -> f64 {
        self.vm_dollars
    }

    /// Dollars accrued on the pool.
    pub fn pool_dollars(&self) -> f64 {
        self.pool_dollars
    }

    /// Terminate everything and return the final cost.
    pub fn finalize(&mut self) -> f64 {
        self.pending.clear();
        self.pending_n = 0;
        self.terminate_oldest(self.active_n);
        self.cost()
    }
}

/// The per-VM fleet the cohort representation replaced — one deque entry
/// per VM — kept as the reference the differential test compares
/// against bit for bit.
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;

    pub struct PerVmSim {
        startup_s: u64,
        min_billing_s: u64,
        vm_rate_per_s: f64,
        pool_rate_per_s: f64,
        pub vm_dollars: f64,
        pub pool_dollars: f64,
        pub now: u64,
        pub active: VecDeque<u64>,
        pub pending: VecDeque<u64>,
        pub vm_billed_s: f64,
        pub pool_s: f64,
    }

    impl PerVmSim {
        pub fn with_rates(startup_s: u64, min_billing_s: u64, vm: f64, pool: f64) -> Self {
            PerVmSim {
                startup_s,
                min_billing_s,
                vm_rate_per_s: vm,
                pool_rate_per_s: pool,
                vm_dollars: 0.0,
                pool_dollars: 0.0,
                now: 0,
                active: VecDeque::new(),
                pending: VecDeque::new(),
                vm_billed_s: 0.0,
                pool_s: 0.0,
            }
        }

        fn terminate_oldest(&mut self) {
            let start = self.active.pop_front().expect("active VM");
            let ran = self.now - start;
            if ran < self.min_billing_s {
                let shortfall = (self.min_billing_s - ran) as f64;
                self.vm_billed_s += shortfall;
                self.vm_dollars += shortfall * self.vm_rate_per_s;
            }
        }

        pub fn set_rates(&mut self, vm: f64, pool: f64) {
            self.vm_rate_per_s = vm;
            self.pool_rate_per_s = pool;
        }

        fn promote_ready(&mut self) {
            while let Some(&ready) = self.pending.front() {
                if ready > self.now {
                    break;
                }
                self.pending.pop_front();
                self.active.push_back(ready);
            }
        }

        pub fn step(&mut self, target: u32, demand: u32) {
            self.promote_ready();
            let total = self.active.len() + self.pending.len();
            let target = target as usize;
            if target > total {
                for _ in 0..target - total {
                    self.pending.push_back(self.now + self.startup_s);
                }
            } else if target < total {
                let mut excess = total - target;
                while excess > 0 && !self.pending.is_empty() {
                    self.pending.pop_back();
                    excess -= 1;
                }
                let busy = (demand as usize).min(self.active.len());
                let idle = self.active.len() - busy;
                for _ in 0..excess.min(idle) {
                    self.terminate_oldest();
                }
            }
            if self.startup_s == 0 {
                self.promote_ready();
            }
            self.vm_billed_s += self.active.len() as f64;
            self.vm_dollars += self.active.len() as f64 * self.vm_rate_per_s;
            let overflow = (demand as usize).saturating_sub(self.active.len());
            self.pool_s += overflow as f64;
            self.pool_dollars += overflow as f64 * self.pool_rate_per_s;
            self.now += 1;
        }

        pub fn finalize(&mut self) {
            self.pending.clear();
            while !self.active.is_empty() {
                self.terminate_oldest();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::PerVmSim;
    use super::*;
    use crate::model::predict_cost_from_history;
    use cackle_cloud::SimDuration;
    use cackle_prng::{Pcg32, Seed};

    fn env() -> Env {
        Env::default()
    }

    /// Env with zero startup for arithmetic-friendly tests.
    fn instant_env() -> Env {
        let mut e = Env::default();
        e.pricing.vm_startup = SimDuration::ZERO;
        e
    }

    #[test]
    fn all_pool_when_target_zero() {
        let e = env();
        let demand = vec![10u32; 100];
        let cost = predict_cost_from_history(&demand, &vec![0; 100], &e).total();
        let expected = 10.0 * 100.0 * e.pricing.pool_per_sec();
        assert!((cost - expected).abs() < 1e-9);
    }

    #[test]
    fn startup_latency_delays_vms() {
        let e = env(); // 180 s startup
        let mut sim = AllocationSim::new(&e);
        for _ in 0..180 {
            sim.step(5, 5);
            assert_eq!(sim.active_count(), 0, "VMs can't start before 180 s");
        }
        sim.step(5, 5);
        assert_eq!(sim.active_count(), 5);
        // First 180 s of demand ran on the pool (and second 181 on VMs).
        assert!((sim.pool_seconds() - 5.0 * 180.0).abs() < 1e-9);
    }

    #[test]
    fn min_billing_on_fast_terminate() {
        let e = instant_env();
        let mut sim = AllocationSim::new(&e);
        sim.step(1, 0); // VM appears (instant startup) and idles
        sim.step(0, 0); // terminated after ~1 s: bills 60 s anyway
        let cost = sim.finalize();
        // 1 s accrued while active + 59 s min-billing remainder... the sim
        // bills max(runtime, 60) at terminate plus per-second accrual; the
        // exact invariant we care about: at least a full minute was billed.
        assert!(cost >= 60.0 * e.pricing.vm_per_sec() - 1e-9, "cost {cost}");
    }

    #[test]
    fn busy_vms_not_terminated() {
        let e = instant_env();
        let mut sim = AllocationSim::new(&e);
        sim.step(4, 4);
        assert_eq!(sim.active_count(), 4);
        // Target drops to 0 but demand keeps all 4 busy: nothing terminates.
        sim.step(0, 4);
        assert_eq!(sim.active_count(), 4);
        // Demand drops to 1: three idle VMs terminate.
        sim.step(0, 1);
        assert_eq!(sim.active_count(), 1);
    }

    #[test]
    fn cancelling_pending_is_free() {
        let e = env();
        let mut sim = AllocationSim::new(&e);
        sim.step(50, 0);
        assert_eq!(sim.pending_count(), 50);
        sim.step(0, 0);
        assert_eq!(sim.pending_count(), 0);
        assert_eq!(sim.finalize(), 0.0);
    }

    #[test]
    fn perfect_provisioning_cheaper_than_pool_only() {
        // Flat demand: provisioning VMs beats the 6x pool.
        let e = instant_env();
        let demand = vec![20u32; 3600];
        let provisioned = predict_cost_from_history(&demand, &vec![20; 3600], &e).total();
        let pool_only = predict_cost_from_history(&demand, &vec![0; 3600], &e).total();
        assert!(
            provisioned < pool_only / 5.0,
            "{provisioned} vs {pool_only}"
        );
    }

    /// Demand exceeding `active.len()` mid-startup: pending VMs do no
    /// work, so the whole demand overflows to the pool until startup
    /// elapses — and each overflow second is charged exactly once.
    /// Every quantity is hand-computed and cross-checked against a
    /// [`CostLedger`] charged with the same arithmetic.
    #[test]
    fn mid_startup_overflow_charged_to_pool_exactly_once() {
        use cackle_cloud::ledger::{CostCategory, CostLedger};
        let vm_rate = 0.01;
        let pool_rate = 0.06;
        let mut sim = AllocationSim::with_rates(3, 5, vm_rate, pool_rate);
        // t=0..=2: 2 VMs requested (ready at t=3), demand 4 all on pool.
        for t in 0..3 {
            sim.step(2, 4);
            assert_eq!(sim.active_count(), 0, "mid-startup at t={t}");
            assert_eq!(sim.pending_count(), 2);
        }
        // t=3: both come online; 2 slots on VMs, overflow 2 on pool.
        sim.step(2, 4);
        assert_eq!(sim.active_count(), 2);
        // t=4: demand 1 < active 2 — saturating overflow is 0, not huge.
        sim.step(2, 1);
        // t=5: target 0, demand 0 — both idle VMs terminate after running
        // 2 s each, billing the 3 s min-billing shortfall apiece.
        sim.step(0, 0);
        assert_eq!(sim.active_count(), 0);
        let cost = sim.finalize();

        // Hand-computed: pool = 4+4+4+2+0+0 = 14 slot-seconds;
        // VM = 2 (t=3) + 2 (t=4) + 2×3 shortfall = 10 billed seconds.
        assert!((sim.pool_seconds() - 14.0).abs() < 1e-12);
        assert!((sim.vm_billed_seconds() - 10.0).abs() < 1e-12);
        let mut ledger = CostLedger::new();
        ledger.charge(CostCategory::VmCompute, 10.0 * vm_rate);
        ledger.charge(CostCategory::ElasticPool, 14.0 * pool_rate);
        let vm = ledger.category(CostCategory::VmCompute).dollars();
        let pool = ledger.category(CostCategory::ElasticPool).dollars();
        assert!((sim.vm_dollars() - vm).abs() < 1e-12);
        assert!((sim.pool_dollars() - pool).abs() < 1e-12);
        assert!((cost - ledger.total().dollars()).abs() < 1e-12);
    }

    /// The `demand as usize` cast and pool accrual hold at the extreme of
    /// the domain: one second of `u32::MAX` demand with no VMs lands on
    /// the pool exactly once.
    #[test]
    fn extreme_demand_accrues_pool_seconds_exactly_once() {
        let mut sim = AllocationSim::with_rates(0, 60, 0.01, 0.06);
        sim.step(0, u32::MAX);
        assert!((sim.pool_seconds() - u32::MAX as f64).abs() < 1e-3);
        assert_eq!(sim.vm_billed_seconds(), 0.0);
        sim.step(0, 0);
        assert!(
            (sim.pool_seconds() - u32::MAX as f64).abs() < 1e-3,
            "no re-charge"
        );
    }

    #[test]
    fn double_billing_never_happens() {
        // Billed VM seconds + pool seconds ≈ max(demand, active) integral.
        let e = instant_env();
        let mut sim = AllocationSim::new(&e);
        let demand = [3u32, 8, 2, 9, 0, 4];
        for &d in &demand {
            sim.step(4, d);
        }
        // Active stays 4 (instant startup, idle terminations only when
        // target < active — target is constant 4).
        // pool = sum(max(0, d-4)) = 4 + 5 = 9.
        assert!((sim.pool_seconds() - 9.0).abs() < 1e-9);
        assert!((sim.vm_billed_seconds() - 4.0 * 6.0).abs() < 1e-9);
    }

    fn assert_same(sim: &AllocationSim, per_vm: &PerVmSim, at: impl std::fmt::Debug) {
        assert_eq!(sim.now(), per_vm.now, "now {at:?}");
        assert_eq!(sim.active_count(), per_vm.active.len(), "active {at:?}");
        assert_eq!(sim.pending_count(), per_vm.pending.len(), "pending {at:?}");
        for (name, got, want) in [
            ("vm_dollars", sim.vm_dollars(), per_vm.vm_dollars),
            ("pool_dollars", sim.pool_dollars(), per_vm.pool_dollars),
            ("cost", sim.cost(), per_vm.vm_dollars + per_vm.pool_dollars),
            ("vm_billed_s", sim.vm_billed_seconds(), per_vm.vm_billed_s),
            ("pool_s", sim.pool_seconds(), per_vm.pool_s),
        ] {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{name} {at:?}: {got} vs {want}"
            );
        }
    }

    /// Cohorts against the per-VM reference, bit for bit after every
    /// step: targets that follow demand, swing ×20 and collapse to 0,
    /// a price change mid-run, one second of `u32::MAX` demand, and a
    /// `finalize` that lands while requests are still starting up.
    #[test]
    fn differential_cohorts_vs_per_vm_fleet() {
        let mut rng = Pcg32::new(Seed::root(0xA110C));
        for (startup, min_billing) in [(0u64, 5u64), (0, 60), (3, 5), (3, 60), (180, 60)] {
            for round in 0..6 {
                let (vm, pool) = (0.0123, 0.0731);
                let mut sim = AllocationSim::with_rates(startup, min_billing, vm, pool);
                let mut per_vm = PerVmSim::with_rates(startup, min_billing, vm, pool);
                let len = rng.gen_range(200usize..700);
                let rate_change = rng.gen_range(0..len);
                let extreme = rng.gen_range(0..len);
                let mut demand = rng.gen_range(0u32..60);
                let mut target = demand;
                for t in 0..len {
                    demand = (demand + rng.gen_range(0u32..7)).saturating_sub(3).min(90);
                    // Hold a target for a few seconds, then move it.
                    if rng.gen_ratio(1, 4) {
                        target = match rng.gen_range(0u32..6) {
                            0 => 0,
                            1 => demand * 20,
                            2 => target.saturating_sub(1),
                            3 => target + 1,
                            _ => demand + rng.gen_range(0u32..5),
                        };
                    }
                    if t == rate_change {
                        sim.set_rates(vm * 1.7, pool * 0.6);
                        per_vm.set_rates(vm * 1.7, pool * 0.6);
                    }
                    let d = if t == extreme { u32::MAX } else { demand };
                    sim.step(target, d);
                    per_vm.step(target, d);
                    assert_same(&sim, &per_vm, (startup, min_billing, round, t));
                }
                // Leave requests in flight so finalize cancels mid-startup.
                sim.step(target + 40, demand);
                per_vm.step(target + 40, demand);
                sim.finalize();
                per_vm.finalize();
                assert_same(&sim, &per_vm, (startup, min_billing, round, "finalize"));
            }
        }
    }

    /// `advance` over slices of 0..=12 seconds against the per-VM reference
    /// stepped one second at a time, bit for bit after every call: targets
    /// held across calls or moved, cohorts falling due mid-slice, targets
    /// below a fleet that busy VMs hold up, a price change between calls,
    /// a `u32::MAX` demand inside a slice, and a `finalize` that lands
    /// while requests are still starting up.
    #[test]
    fn differential_advance_vs_per_vm_fleet() {
        let mut rng = Pcg32::new(Seed::root(0xADA7CE));
        let (mut due_mid_slice, mut held_mid_slice) = (0, 0);
        for (startup, min_billing) in [(0u64, 5u64), (0, 60), (3, 5), (3, 60), (180, 60)] {
            for round in 0..6 {
                let (vm, pool) = (0.0123, 0.0731);
                let mut sim = AllocationSim::with_rates(startup, min_billing, vm, pool);
                let mut per_vm = PerVmSim::with_rates(startup, min_billing, vm, pool);
                let calls = rng.gen_range(40usize..140);
                let rate_change = rng.gen_range(0..calls);
                let extreme = rng.gen_range(0..calls);
                let mut demand = rng.gen_range(0u32..60);
                let mut target = demand;
                let mut demands = Vec::new();
                for call in 0..calls {
                    if call == rate_change {
                        sim.set_rates(vm * 1.7, pool * 0.6);
                        per_vm.set_rates(vm * 1.7, pool * 0.6);
                    }
                    if rng.gen_ratio(1, 2) {
                        target = match rng.gen_range(0u32..6) {
                            0 => 0,
                            1 => demand * 20,
                            2 => target.saturating_sub(1),
                            3 => target + 1,
                            _ => demand + rng.gen_range(0u32..5),
                        };
                    }
                    demands.clear();
                    for _ in 0..rng.gen_range(0usize..=12) {
                        demand = (demand + rng.gen_range(0u32..7)).saturating_sub(3).min(90);
                        demands.push(demand);
                    }
                    if call == extreme {
                        demands.extend([u32::MAX, demand]);
                    }
                    for (i, &d) in demands.iter().enumerate() {
                        if i > 0 && per_vm.pending.front().is_some_and(|&r| r <= per_vm.now) {
                            due_mid_slice += 1;
                        }
                        per_vm.step(target, d);
                        if i > 0 && per_vm.active.len() + per_vm.pending.len() > target as usize {
                            held_mid_slice += 1;
                        }
                    }
                    sim.advance(target, &demands);
                    assert_same(&sim, &per_vm, (startup, min_billing, round, call));
                }
                // Leave requests in flight so finalize cancels mid-startup.
                let grow = (sim.active_count() + sim.pending_count()) as u32 + 40;
                sim.advance(grow, &[demand, demand]);
                per_vm.step(grow, demand);
                per_vm.step(grow, demand);
                assert!(startup == 0 || sim.pending_count() >= 40);
                sim.finalize();
                per_vm.finalize();
                assert_same(&sim, &per_vm, (startup, min_billing, round, "finalize"));
            }
        }
        assert!(due_mid_slice > 0, "no cohort fell due mid-slice");
        assert!(held_mid_slice > 0, "no busy fleet held above target");
    }

    /// A request is one cohort whatever its size: a target at the top of
    /// the type's range costs no memory or time per VM to request, cancel,
    /// bring online, bill, or terminate past min billing.
    #[test]
    fn extreme_target_is_one_cohort() {
        let mut sim = AllocationSim::with_rates(180, 60, 0.01, 0.06);
        sim.advance(u32::MAX, &[0, 0, 0]);
        assert_eq!(sim.pending_count(), u32::MAX as usize);
        sim.step(0, 0);
        assert_eq!(sim.pending_count(), 0);
        assert_eq!(sim.active_count(), 0);
        assert_eq!(sim.cost(), 0.0);

        // Online at once: every VM bills each second exactly once.
        let mut sim = AllocationSim::with_rates(0, 1, 0.01, 0.06);
        sim.step(u32::MAX, 0);
        assert_eq!(sim.active_count(), u32::MAX as usize);
        assert_eq!(sim.vm_billed_seconds(), u32::MAX as f64);
        sim.advance(u32::MAX, &[u32::MAX, 0]);
        assert_eq!(sim.vm_billed_seconds(), 3.0 * u32::MAX as f64);
        assert_eq!(sim.pool_seconds(), 0.0);
        // Past min billing, terminating the whole cohort adds nothing.
        sim.step(0, 0);
        assert_eq!(sim.active_count(), 0);
        assert_eq!(sim.vm_billed_seconds(), 3.0 * u32::MAX as f64);
    }
}
