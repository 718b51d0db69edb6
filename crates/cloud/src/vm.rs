//! Provisioned virtual-machine fleet simulator.
//!
//! Models EC2 spot-request semantics as assumed by the paper (§4.1):
//!
//! * Changing the provisioning target is a *spot request modification*: the
//!   fleet requests new instances (which become usable after the startup
//!   latency) or releases instances.
//! * Not-yet-started requests are cancelled for free when the target drops.
//! * Running instances are terminated **only once idle**, and each billed
//!   `max(runtime, min_billing)` — AWS's one-minute minimum.
//! * Termination picks the **oldest** idle VM first, since old VMs have
//!   already amortized their minimum billing charge while a freshly started
//!   VM would forfeit the remainder of its first minute.
//!
//! Each VM executes one task at a time (demand and allocation are both
//! measured in task-sized slots throughout the paper). Idle VMs sit in
//! one set ordered by `(started_at, id)`, so assignment (newest first)
//! and termination (oldest first) each take one end of it in O(log n).

use crate::ledger::{CostCategory, CostLedger};
use crate::pricing::Pricing;
use crate::time::{SimDuration, SimTime};
use cackle_faults::PriceTimeline;
use cackle_telemetry::catalog::{self, Counter};
use cackle_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Identifier of a provisioned VM, unique within one fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u64);

/// The fleet's metrics, as catalogue handles: the execution fleet and
/// the shuffle fleet record the same four under their own component.
#[derive(Debug, Clone, Copy)]
struct FleetMetrics {
    /// `fleet` or `shuffle_fleet`: the `vm.interrupted` event's detail.
    component: &'static str,
    vms_started_total: Counter,
    vms_reclaimed_total: Counter,
    vms_terminated_total: Counter,
    vm_billed_seconds: catalog::Histogram,
}

impl FleetMetrics {
    /// The metrics of a fleet billing `category`.
    fn of(category: CostCategory) -> Self {
        match category {
            CostCategory::ShuffleNode => FleetMetrics {
                component: "shuffle_fleet",
                vms_started_total: catalog::SHUFFLE_FLEET_VMS_STARTED_TOTAL,
                vms_reclaimed_total: catalog::SHUFFLE_FLEET_VMS_RECLAIMED_TOTAL,
                vms_terminated_total: catalog::SHUFFLE_FLEET_VMS_TERMINATED_TOTAL,
                vm_billed_seconds: catalog::SHUFFLE_FLEET_VM_BILLED_SECONDS,
            },
            _ => FleetMetrics {
                component: "fleet",
                vms_started_total: catalog::FLEET_VMS_STARTED_TOTAL,
                vms_reclaimed_total: catalog::FLEET_VMS_RECLAIMED_TOTAL,
                vms_terminated_total: catalog::FLEET_VMS_TERMINATED_TOTAL,
                vm_billed_seconds: catalog::FLEET_VM_BILLED_SECONDS,
            },
        }
    }
}

#[derive(Debug, Clone)]
struct RunningVm {
    started_at: SimTime,
    /// Hourly-rate multiplier in per-mille (1000 = home-region rate);
    /// remote-region VMs carry their discounted rate here.
    rate_milli: u32,
}

/// How a fleet bills a terminated VM: its prices, its ledger category
/// and the spot-market schedule. Its own type so the test reference
/// fleet bills through exactly the same arithmetic.
#[derive(Debug, Clone)]
struct Billing {
    pricing: Pricing,
    category: CostCategory,
    /// Spot-market schedule modulating the hourly rate over time (flat
    /// by default).
    timeline: PriceTimeline,
}

impl Billing {
    fn min_billing(&self) -> SimDuration {
        match self.category {
            CostCategory::ShuffleNode => self.pricing.shuffle_min_billing,
            _ => self.pricing.vm_min_billing,
        }
    }

    /// Charge `ledger` for `vm`, terminated at `now`: `max(runtime,
    /// min_billing)` at the VM's regional rate under the market
    /// multiplier, integrated over the billed window in integers and
    /// rounded once (a flat market integrates to `1000 ×` the window).
    /// Returns the billed seconds.
    fn charge(&self, ledger: &mut CostLedger, vm: &RunningVm, now: SimTime) -> f64 {
        let billed = (now - vm.started_at).max(self.min_billing());
        let start_ms = vm.started_at.as_millis();
        let integral = self
            .timeline
            .integral_milli_ms(start_ms, start_ms + billed.as_millis());
        let cost = self
            .pricing
            .fleet_charge(self.category, integral, vm.rate_milli);
        ledger.bill(self.category, cost);
        let secs = billed.as_secs_f64();
        match self.category {
            CostCategory::ShuffleNode => ledger.shuffle_seconds += secs,
            _ => ledger.vm_seconds += secs,
        }
        secs
    }
}

/// A simulated fleet of provisioned VMs.
#[derive(Debug)]
pub struct VmFleet {
    billing: Billing,
    next_id: u64,
    /// Requested instances that have not yet started, with their ready times
    /// (FIFO in request order, so ready times are non-decreasing).
    pending: VecDeque<(VmId, SimTime)>,
    running: BTreeMap<VmId, RunningVm>,
    /// The running VMs without a task, ordered by `(started_at, id)`:
    /// membership is the only record of "idle". The last entry is the
    /// newest idle VM (assigned first), the first the oldest (terminated
    /// first). Ids are unique, so the order has no ties.
    idle: BTreeSet<(SimTime, VmId)>,
    target: usize,
    ledger: CostLedger,
    /// Lifetime counters for reporting.
    started_total: u64,
    terminated_total: u64,
    /// Telemetry sink (disabled by default); see [`VmFleet::instrument`].
    telemetry: Telemetry,
}

impl VmFleet {
    /// Create an empty fleet billed as execution-layer VMs.
    pub fn new(pricing: Pricing) -> Self {
        Self::with_category(pricing, CostCategory::VmCompute)
    }

    /// Create a fleet billed against an arbitrary category (the shuffle
    /// layer reuses this fleet logic with [`CostCategory::ShuffleNode`]).
    pub fn with_category(pricing: Pricing, category: CostCategory) -> Self {
        VmFleet {
            billing: Billing {
                pricing,
                category,
                timeline: PriceTimeline::flat(),
            },
            next_id: 0,
            pending: VecDeque::new(),
            running: BTreeMap::new(),
            idle: BTreeSet::new(),
            target: 0,
            ledger: CostLedger::new(),
            started_total: 0,
            terminated_total: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Install a spot-market schedule: every subsequent termination
    /// bills by integrating the hourly rate over the instance's billed
    /// lifetime.
    pub fn set_price_timeline(&mut self, timeline: PriceTimeline) {
        self.billing.timeline = timeline;
    }

    /// Tag a running VM with a per-mille hourly-rate multiplier (the
    /// environment model tags remote-region VMs as they start). Unknown
    /// ids are ignored.
    pub fn set_vm_rate_milli(&mut self, id: VmId, rate_milli: u32) {
        if let Some(vm) = self.running.get_mut(&id) {
            vm.rate_milli = rate_milli.max(1);
        }
    }

    /// Report this fleet's lifecycle counters to `telemetry`, as `fleet.*`
    /// for execution-layer VMs and `shuffle_fleet.*` for shuffle nodes
    /// (the fleet's [`CostCategory`] picks which).
    pub fn instrument(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    fn metrics(&self) -> FleetMetrics {
        FleetMetrics::of(self.billing.category)
    }

    /// The current provisioning target.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Number of instances that are started and able to run tasks.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Number of requested instances that have not yet started.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Number of running instances currently executing a task.
    pub fn busy_count(&self) -> usize {
        self.running.len() - self.idle.len()
    }

    /// Number of running instances idle and ready for a task.
    pub fn idle_count(&self) -> usize {
        self.idle.len()
    }

    /// Instances started over the fleet's lifetime.
    pub fn started_total(&self) -> u64 {
        self.started_total
    }

    /// Instances terminated over the fleet's lifetime.
    pub fn terminated_total(&self) -> u64 {
        self.terminated_total
    }

    /// The accumulated billing ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Modify the spot request to aim for `target` instances, requesting or
    /// releasing as needed. Running busy instances in excess of the target
    /// are terminated lazily as they become idle (see [`VmFleet::release`]).
    pub fn set_target(&mut self, now: SimTime, target: usize) {
        self.target = target;
        let total = self.running.len() + self.pending.len();
        if target > total {
            let ready_at = now + self.billing.pricing.vm_startup;
            for _ in 0..(target - total) {
                let id = VmId(self.next_id);
                self.next_id += 1;
                self.pending.push_back((id, ready_at));
            }
        } else if target < total {
            let mut excess = total - target;
            // Cancel pending requests first: they are free to cancel.
            while excess > 0 && !self.pending.is_empty() {
                self.pending.pop_back();
                excess -= 1;
            }
            // Terminate idle running VMs, oldest first; any left over
            // are busy and trimmed on release.
            while excess > 0 {
                let Some(&(_, id)) = self.idle.first() else {
                    break;
                };
                self.terminate(now, id);
                excess -= 1;
            }
        }
    }

    /// Move pending instances whose startup latency has elapsed into the
    /// running set. Returns the ids of newly started instances.
    pub fn poll(&mut self, now: SimTime) -> Vec<VmId> {
        let mut started = Vec::new();
        while let Some(&(id, ready_at)) = self.pending.front() {
            if ready_at > now {
                break;
            }
            self.pending.pop_front();
            let started_at = now.max(ready_at);
            self.running.insert(
                id,
                RunningVm {
                    started_at,
                    rate_milli: 1000,
                },
            );
            self.idle.insert((started_at, id));
            self.started_total += 1;
            started.push(id);
        }
        if !started.is_empty() && self.telemetry.is_enabled() {
            let n = started.len() as u64;
            self.telemetry.add(self.metrics().vms_started_total, n);
        }
        started
    }

    /// Claim an idle VM for a task. Prefers the most recently started idle
    /// instance, leaving the oldest idle (and min-billing-amortized)
    /// instances free to be terminated if the target drops.
    pub fn try_assign(&mut self, _now: SimTime) -> Option<VmId> {
        self.idle.pop_last().map(|(_, id)| id)
    }

    /// Return a VM to the idle set after its task completes. If the fleet is
    /// above target, the instance is terminated immediately instead.
    /// Releasing an unknown id (e.g. a VM reclaimed by the provider while
    /// its task ran) or an already idle one is a no-op.
    pub fn release(&mut self, now: SimTime, id: VmId) {
        let Some(vm) = self.running.get(&id) else {
            return;
        };
        if !self.idle.insert((vm.started_at, id)) {
            return;
        }
        if self.running.len() + self.pending.len() > self.target {
            self.terminate(now, id);
        }
    }

    /// Spot interruption: the provider reclaims a (possibly busy) VM.
    /// The instance bills like a normal termination; the caller is
    /// responsible for rescheduling whatever task it was running.
    pub fn reclaim(&mut self, now: SimTime, id: VmId) {
        if self.running.contains_key(&id) {
            self.terminate(now, id);
            if self.telemetry.is_enabled() {
                let metrics = self.metrics();
                self.telemetry.add(metrics.vms_reclaimed_total, 1);
                self.telemetry
                    .event(now.as_millis(), "vm.interrupted", metrics.component);
            }
        }
    }

    /// Bill and drop a running VM, idle or busy.
    fn terminate(&mut self, now: SimTime, id: VmId) {
        let Some(vm) = self.running.remove(&id) else {
            debug_assert!(false, "terminated unknown VM {id:?}");
            return;
        };
        self.idle.remove(&(vm.started_at, id));
        let secs = self.billing.charge(&mut self.ledger, &vm, now);
        self.terminated_total += 1;
        if self.telemetry.is_enabled() {
            let metrics = self.metrics();
            self.telemetry.add(metrics.vms_terminated_total, 1);
            self.telemetry.record(metrics.vm_billed_seconds, secs);
        }
    }

    /// End of workload: terminate every instance (idle or not) and bill it,
    /// cancelling all pending requests for free.
    pub fn finalize(&mut self, now: SimTime) {
        self.pending.clear();
        self.target = 0;
        let ids: Vec<VmId> = self.running.keys().copied().collect();
        for id in ids {
            self.terminate(now, id);
        }
    }
}

/// The fleet before the idle set — a busy flag per VM and a linear scan
/// of the whole fleet for every assignment and termination — kept as the
/// reference the differential test compares against. It bills through
/// the same [`Billing`], so equal ledgers mean the same VMs terminated at
/// the same instants in the same order.
#[cfg(test)]
mod reference {
    use super::{Billing, RunningVm, VmId};
    use crate::ledger::CostLedger;
    use crate::time::SimTime;
    use std::collections::{BTreeMap, VecDeque};

    pub struct ScanFleet {
        billing: Billing,
        next_id: u64,
        pub pending: VecDeque<(VmId, SimTime)>,
        /// Each running VM with its busy flag.
        pub running: BTreeMap<VmId, (RunningVm, bool)>,
        target: usize,
        pub ledger: CostLedger,
    }

    impl ScanFleet {
        pub fn new(billing: Billing) -> Self {
            ScanFleet {
                billing,
                next_id: 0,
                pending: VecDeque::new(),
                running: BTreeMap::new(),
                target: 0,
                ledger: CostLedger::new(),
            }
        }

        pub fn set_target(&mut self, now: SimTime, target: usize) {
            self.target = target;
            let total = self.running.len() + self.pending.len();
            if target > total {
                for _ in 0..(target - total) {
                    let id = VmId(self.next_id);
                    self.next_id += 1;
                    let ready_at = now + self.billing.pricing.vm_startup;
                    self.pending.push_back((id, ready_at));
                }
            } else if target < total {
                let mut excess = total - target;
                while excess > 0 && !self.pending.is_empty() {
                    self.pending.pop_back();
                    excess -= 1;
                }
                while excess > 0 {
                    let oldest_idle = self
                        .running
                        .iter()
                        .filter(|(_, (_, busy))| !busy)
                        .min_by_key(|(id, (vm, _))| (vm.started_at, **id))
                        .map(|(id, _)| *id);
                    match oldest_idle {
                        Some(id) => {
                            self.terminate(now, id);
                            excess -= 1;
                        }
                        None => break,
                    }
                }
            }
        }

        pub fn poll(&mut self, now: SimTime) -> Vec<VmId> {
            let mut started = Vec::new();
            while let Some(&(id, ready_at)) = self.pending.front() {
                if ready_at > now {
                    break;
                }
                self.pending.pop_front();
                let vm = RunningVm {
                    started_at: now.max(ready_at),
                    rate_milli: 1000,
                };
                self.running.insert(id, (vm, false));
                started.push(id);
            }
            started
        }

        pub fn try_assign(&mut self) -> Option<VmId> {
            let id = self
                .running
                .iter()
                .filter(|(_, (_, busy))| !busy)
                .max_by_key(|(id, (vm, _))| (vm.started_at, **id))
                .map(|(id, _)| *id)?;
            self.running.get_mut(&id)?.1 = true;
            Some(id)
        }

        pub fn release(&mut self, now: SimTime, id: VmId) {
            match self.running.get_mut(&id) {
                Some((_, busy)) if *busy => *busy = false,
                _ => return,
            }
            if self.running.len() + self.pending.len() > self.target {
                self.terminate(now, id);
            }
        }

        pub fn reclaim(&mut self, now: SimTime, id: VmId) {
            if self.running.contains_key(&id) {
                self.terminate(now, id);
            }
        }

        pub fn set_vm_rate_milli(&mut self, id: VmId, rate_milli: u32) {
            if let Some((vm, _)) = self.running.get_mut(&id) {
                vm.rate_milli = rate_milli.max(1);
            }
        }

        fn terminate(&mut self, now: SimTime, id: VmId) {
            if let Some((vm, _)) = self.running.remove(&id) {
                self.billing.charge(&mut self.ledger, &vm, now);
            }
        }

        pub fn finalize(&mut self, now: SimTime) {
            self.pending.clear();
            self.target = 0;
            let ids: Vec<VmId> = self.running.keys().copied().collect();
            for id in ids {
                self.terminate(now, id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ScanFleet;
    use super::*;
    use crate::money::Money;

    fn fleet() -> VmFleet {
        VmFleet::new(Pricing::default())
    }

    /// What one home-rate VM billed for `secs` costs on a flat market.
    fn vm_cost_of_secs(secs: u128) -> Money {
        Pricing::default().fleet_charge(CostCategory::VmCompute, secs * 1000 * 1000, 1000)
    }

    fn assert_same_fleet(f: &VmFleet, r: &ScanFleet, at: impl std::fmt::Debug) {
        let ids: Vec<VmId> = f.running.keys().copied().collect();
        let want: Vec<VmId> = r.running.keys().copied().collect();
        assert_eq!(ids, want, "running {at:?}");
        let idle: BTreeSet<VmId> = f.idle.iter().map(|&(_, id)| id).collect();
        let want_idle: BTreeSet<VmId> = r
            .running
            .iter()
            .filter(|(_, (_, busy))| !busy)
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(idle, want_idle, "idle {at:?}");
        assert_eq!(f.idle_count(), want_idle.len(), "idle_count {at:?}");
        assert_eq!(f.busy_count(), want.len() - want_idle.len(), "busy {at:?}");
        assert_eq!(f.pending, r.pending, "pending {at:?}");
        // Above target no VM sits idle: `set_target` terminated them all.
        let above = f.running_count() + f.pending_count() > f.target();
        assert!(!above || idle.is_empty(), "idle VM above target {at:?}");
        let (got, want) = (f.ledger(), &r.ledger);
        for c in CostCategory::ALL {
            assert_eq!(got.category(c), want.category(c), "{c} {at:?}");
        }
        for (name, g, w) in [
            ("vm_seconds", got.vm_seconds, want.vm_seconds),
            ("shuffle_seconds", got.shuffle_seconds, want.shuffle_seconds),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{name} {at:?}: {g} vs {w}");
        }
    }

    /// The idle set against the linear-scan reference, compared after
    /// every step of 36 seeded op streams: targets up, down and to 0,
    /// polls, assignment on empty / partly busy / fully busy fleets,
    /// releases above and below the target and of idle and unknown ids,
    /// reclaims of busy and idle VMs, regional rates, a market price
    /// timeline on and off, and a `finalize` mid-run.
    #[test]
    fn differential_idle_set_vs_linear_scan() {
        use cackle_faults::EnvironmentSpec;
        use cackle_prng::{Pcg32, Seed};
        let mut rng = Pcg32::new(Seed::root(0xF1EE7));
        let mut seen: BTreeMap<&str, u32> = BTreeMap::new();
        for stream in 0..36u64 {
            let category = match stream % 6 {
                5 => CostCategory::ShuffleNode,
                _ => CostCategory::VmCompute,
            };
            let timeline = match stream % 2 {
                1 => {
                    let env = EnvironmentSpec::default().with_market_motion(0.3, 900);
                    PriceTimeline::compile(&env, Seed::root(stream))
                }
                _ => PriceTimeline::flat(),
            };
            let pricing = Pricing::default();
            let mut f = VmFleet::with_category(pricing.clone(), category);
            f.set_price_timeline(timeline.clone());
            let mut r = ScanFleet::new(Billing {
                pricing,
                category,
                timeline,
            });
            let mut held: Vec<VmId> = Vec::new();
            let mut now = SimTime::ZERO;
            let finalize_at = rng.gen_range(100..300);
            for step in 0..400 {
                now += SimDuration::from_millis(rng.gen_range(0u64..40_000));
                match rng.gen_range(0u32..9) {
                    0 => {
                        let target = match rng.gen_range(0u32..4) {
                            0 => 0,
                            1 => f.target() + rng.gen_range(1usize..12),
                            2 => f.target().saturating_sub(rng.gen_range(1usize..6)),
                            _ => rng.gen_range(0usize..30),
                        };
                        f.set_target(now, target);
                        r.set_target(now, target);
                    }
                    1 => assert_eq!(f.poll(now), r.poll(now), "poll {stream}/{step}"),
                    2 | 3 => {
                        for _ in 0..rng.gen_range(1u32..6) {
                            let case = match (f.running_count(), f.idle_count()) {
                                (0, _) => "assign on an empty fleet",
                                (_, 0) => "assign on a fully busy fleet",
                                (n, idle) if idle < n => "assign on a partly busy fleet",
                                _ => "assign on an idle fleet",
                            };
                            *seen.entry(case).or_default() += 1;
                            let got = f.try_assign(now);
                            assert_eq!(got, r.try_assign(), "assign {stream}/{step}");
                            held.extend(got);
                        }
                    }
                    4 | 5 if !held.is_empty() => {
                        let id = held.swap_remove(rng.gen_range(0..held.len()));
                        let above = f.running_count() + f.pending_count() > f.target();
                        *seen
                            .entry(match above {
                                true => "release above target",
                                false => "release at or below target",
                            })
                            .or_default() += 1;
                        f.release(now, id);
                        r.release(now, id);
                    }
                    6 => {
                        let id = VmId(rng.gen_range(0..f.next_id + 2));
                        if f.running.contains_key(&id) {
                            *seen
                                .entry(match held.contains(&id) {
                                    true => "reclaim a busy VM",
                                    false => "reclaim an idle VM",
                                })
                                .or_default() += 1;
                        }
                        f.reclaim(now, id);
                        r.reclaim(now, id);
                        held.retain(|&h| h != id);
                    }
                    7 => {
                        let id = VmId(rng.gen_range(0..f.next_id + 1));
                        let rate = rng.gen_range(500u32..1500);
                        f.set_vm_rate_milli(id, rate);
                        r.set_vm_rate_milli(id, rate);
                    }
                    _ => {
                        // Releasing an idle or unknown VM is a no-op.
                        let id = match f.idle.first() {
                            Some(&(_, id)) if rng.gen_bool(0.5) => id,
                            _ => VmId(f.next_id + 7),
                        };
                        let before = (f.running_count(), f.idle_count());
                        f.release(now, id);
                        r.release(now, id);
                        assert_eq!((f.running_count(), f.idle_count()), before);
                    }
                }
                if step == finalize_at {
                    f.finalize(now);
                    r.finalize(now);
                    held.clear();
                }
                assert_same_fleet(&f, &r, (stream, step));
            }
            f.finalize(now);
            r.finalize(now);
            assert_same_fleet(&f, &r, (stream, "finalize"));
        }
        for case in [
            "assign on an empty fleet",
            "assign on a fully busy fleet",
            "assign on a partly busy fleet",
            "release above target",
            "release at or below target",
            "reclaim a busy VM",
            "reclaim an idle VM",
        ] {
            assert!(
                seen.contains_key(case),
                "no stream exercised `{case}`: {seen:?}"
            );
        }
    }

    #[test]
    fn startup_latency_gates_availability() {
        let mut f = fleet();
        f.set_target(SimTime::ZERO, 3);
        assert_eq!(f.pending_count(), 3);
        assert!(f.poll(SimTime::from_secs(179)).is_empty());
        let started = f.poll(SimTime::from_secs(180));
        assert_eq!(started.len(), 3);
        assert_eq!(f.running_count(), 3);
        assert_eq!(f.idle_count(), 3);
    }

    #[test]
    fn cancelling_pending_is_free() {
        let mut f = fleet();
        f.set_target(SimTime::ZERO, 10);
        f.set_target(SimTime::from_secs(1), 0);
        assert_eq!(f.pending_count(), 0);
        f.poll(SimTime::from_secs(600));
        assert_eq!(f.running_count(), 0);
        assert_eq!(f.ledger().total(), Money::ZERO);
    }

    #[test]
    fn min_billing_charged_on_quick_terminate() {
        let mut f = fleet();
        f.set_target(SimTime::ZERO, 1);
        f.poll(SimTime::from_secs(180));
        // Terminate after running only 10 s: billed the full minimum minute.
        f.set_target(SimTime::from_secs(190), 0);
        assert_eq!(f.ledger().total(), vm_cost_of_secs(60));
        assert_eq!(f.ledger().total().micros(), 500); // $0.03/h × 60 s
        assert!((f.ledger().vm_seconds - 60.0).abs() < 1e-9);
    }

    #[test]
    fn busy_vms_terminate_lazily_on_release() {
        let mut f = fleet();
        f.set_target(SimTime::ZERO, 1);
        f.poll(SimTime::from_secs(180));
        let vm = f.try_assign(SimTime::from_secs(180)).unwrap();
        // Target drops while the VM is busy: nothing terminates yet.
        f.set_target(SimTime::from_secs(200), 0);
        assert_eq!(f.running_count(), 1);
        // On release the excess VM terminates immediately.
        f.release(SimTime::from_secs(400), vm);
        assert_eq!(f.running_count(), 0);
        assert_eq!(f.ledger().total(), vm_cost_of_secs(220));
    }

    #[test]
    fn assign_prefers_newest_terminate_prefers_oldest() {
        let mut f = fleet();
        f.set_target(SimTime::ZERO, 1);
        f.poll(SimTime::from_secs(180));
        f.set_target(SimTime::from_secs(300), 2);
        f.poll(SimTime::from_secs(480));
        assert_eq!(f.running_count(), 2);
        // Newest VM (id 1, started at 480) is assigned first.
        let assigned = f.try_assign(SimTime::from_secs(480)).unwrap();
        assert_eq!(assigned, VmId(1));
        // Dropping the target terminates the idle oldest VM (id 0).
        f.set_target(SimTime::from_secs(500), 1);
        assert_eq!(f.running_count(), 1);
        assert!(f.running.contains_key(&VmId(1)));
    }

    #[test]
    fn finalize_bills_everything() {
        let mut f = fleet();
        f.set_target(SimTime::ZERO, 2);
        f.poll(SimTime::from_secs(180));
        f.try_assign(SimTime::from_secs(180)).unwrap();
        f.finalize(SimTime::from_secs(180 + 3600));
        assert_eq!(f.running_count(), 0);
        assert_eq!(f.pending_count(), 0);
        // Two VMs, one hour each at $0.03/hour.
        assert_eq!(f.ledger().total().dollars(), 0.06);
        assert_eq!(f.terminated_total(), 2);
    }

    #[test]
    fn reclaim_interrupts_busy_vms() {
        let mut f = fleet();
        f.set_target(SimTime::ZERO, 1);
        f.poll(SimTime::from_secs(180));
        let vm = f.try_assign(SimTime::from_secs(180)).unwrap();
        // Spot reclaim mid-task: the busy VM disappears and bills normally.
        f.reclaim(SimTime::from_secs(400), vm);
        assert_eq!(f.running_count(), 0);
        assert_eq!(f.ledger().total(), vm_cost_of_secs(220));
        // Reclaiming an unknown id is a no-op.
        f.reclaim(SimTime::from_secs(401), vm);
        assert_eq!(f.terminated_total(), 1);
    }

    #[test]
    fn remote_rate_bills_in_exact_micros() {
        // One VM tagged at 700 per-mille, run exactly one hour: the
        // hand-computed charge is 30 000 µ$ × 0.7 = 21 000 µ$.
        let mut f = fleet();
        f.set_target(SimTime::ZERO, 1);
        let started = f.poll(SimTime::from_secs(180));
        f.set_vm_rate_milli(started[0], 700);
        f.finalize(SimTime::from_secs(180 + 3600));
        assert_eq!(
            f.ledger().total().micros(),
            21_000,
            "remote VM must bill at exactly 70% of the home rate"
        );
        // Tagging an unknown id is a no-op.
        f.set_vm_rate_milli(VmId(99), 500);
    }

    /// The common case, the home rate on a flat market: a VM and a
    /// shuffle node each bill exactly the fleet method's result, below,
    /// at and above the minimum billing time, with or without an
    /// explicit flat timeline.
    #[test]
    fn home_rate_on_a_flat_market_bills_the_fleet_charge() {
        let p = Pricing::default();
        for category in [CostCategory::VmCompute, CostCategory::ShuffleNode] {
            for ran_ms in [10_000u64, 59_999, 60_000, 61_001, 5_417_123] {
                for explicit_flat in [false, true] {
                    let mut f = VmFleet::with_category(p.clone(), category);
                    if explicit_flat {
                        f.set_price_timeline(PriceTimeline::flat());
                    }
                    f.set_target(SimTime::ZERO, 1);
                    f.poll(SimTime::from_secs(180));
                    f.finalize(SimTime::from_secs(180) + SimDuration::from_millis(ran_ms));
                    let billed_ms = ran_ms.max(60_000) as u128;
                    let want = p.fleet_charge(category, billed_ms * 1000, 1000);
                    assert_eq!(
                        f.ledger().category(category),
                        want,
                        "{category} {ran_ms} ms"
                    );
                    assert_eq!(f.ledger().total(), want);
                }
            }
        }
        // By hand: one minimum minute of a shuffle node at $0.08/h is
        // 1 333 333.3 n$, rounded once.
        let minute = p.fleet_charge(CostCategory::ShuffleNode, 60_000 * 1000, 1000);
        assert_eq!(minute.dollars(), 0.001_333_333);
    }

    #[test]
    fn timeline_billing_integrates_the_market_steps() {
        use cackle_faults::EnvironmentSpec;
        let env = EnvironmentSpec::default().with_market_motion(0.3, 900);
        let tl = cackle_faults::PriceTimeline::compile(&env, cackle_prng::Seed::root(77));
        let mut f = fleet();
        f.set_price_timeline(tl.clone());
        f.set_target(SimTime::ZERO, 1);
        f.poll(SimTime::from_secs(180));
        f.finalize(SimTime::from_secs(180 + 7200));
        // Hand-integrate: 30 000 000 n$/h over [180 s, 7380 s) under the
        // per-interval multipliers, one rounding at the end.
        let integral = tl.integral_milli_ms(180_000, 7_380_000);
        let den: u128 = 1000 * 3_600_000;
        let nanos = (integral * 30_000_000 + den / 2) / den;
        assert_eq!(f.ledger().total().dollars(), nanos as f64 / 1e9);
        // The multipliers actually moved the price off the flat value.
        assert_ne!(
            f.ledger().total().micros(),
            60_000,
            "volatility 0.3 over 2 h must move billing"
        );
    }

    #[test]
    fn shuffle_category_uses_shuffle_rate() {
        let mut f = VmFleet::with_category(Pricing::default(), CostCategory::ShuffleNode);
        f.set_target(SimTime::ZERO, 1);
        f.poll(SimTime::from_secs(180));
        f.finalize(SimTime::from_secs(180 + 3600));
        assert_eq!(
            f.ledger().category(CostCategory::ShuffleNode).dollars(),
            0.08
        );
        assert!((f.ledger().shuffle_seconds - 3600.0).abs() < 1e-9);
    }
}
