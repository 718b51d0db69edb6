//! Randomized property tests for the cloud substrate: event-queue
//! ordering, VM fleet billing invariants, and elastic-pool accounting.
//! Cases are generated from the in-repo deterministic PRNG so every
//! failure is reproducible.

use cackle_cloud::{
    CostCategory, CostLedger, ElasticPool, EventQueue, Money, Pricing, SimDuration, SimTime,
    VmFleet,
};
use cackle_faults::StoreOp;
use cackle_prng::{Pcg32, Seed};

/// Events pop in non-decreasing time order with FIFO ties, no matter the
/// insertion order.
#[test]
fn event_queue_total_order() {
    let mut rng = Pcg32::new(Seed::root(0xC10D_01));
    for _ in 0..64 {
        let times: Vec<u64> = (0..rng.gen_range(1usize..100))
            .map(|_| rng.gen_range(0u64..1_000))
            .collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut last = (SimTime::ZERO, 0usize);
        let mut popped = 0;
        while let Some((at, idx)) = q.pop() {
            assert!(at >= last.0, "time went backwards");
            if at == last.0 && popped > 0 {
                assert!(idx > last.1, "FIFO tie-break violated");
            }
            assert_eq!(SimTime::from_secs(times[idx]), at);
            last = (at, idx);
            popped += 1;
        }
        assert_eq!(popped, times.len());
    }
}

/// Whatever sequence of target changes is applied, the fleet bills at
/// least the minimum time per started VM and never bills cancelled
/// pending requests.
#[test]
fn fleet_billing_invariants() {
    let mut rng = Pcg32::new(Seed::root(0xC10D_02));
    for _ in 0..64 {
        let targets: Vec<usize> = (0..rng.gen_range(1usize..60))
            .map(|_| rng.gen_range(0usize..12))
            .collect();
        let step_s = rng.gen_range(1u64..240);
        let pricing = Pricing::default();
        let mut fleet = VmFleet::new(pricing.clone());
        let mut now = SimTime::ZERO;
        for &t in &targets {
            fleet.poll(now);
            fleet.set_target(now, t);
            now += SimDuration::from_secs(step_s);
        }
        // Let stragglers start, then tear down.
        now += SimDuration::from_secs(300);
        fleet.poll(now);
        fleet.finalize(now);
        let started = fleet.started_total();
        assert_eq!(
            fleet.terminated_total(),
            started,
            "all started VMs terminate"
        );
        let minute = pricing.fleet_charge(CostCategory::VmCompute, 60_000 * 1000, 1000);
        let min_cost: Money = (0..started).map(|_| minute).sum();
        assert!(
            fleet.ledger().category(CostCategory::VmCompute) >= min_cost,
            "billed below the per-VM minimum"
        );
        // Billed seconds consistent with dollars, to half a nano-dollar
        // per VM (each termination rounds once).
        let dollars = fleet.ledger().category(CostCategory::VmCompute).dollars();
        let expect = fleet.ledger().vm_seconds / 3600.0 * pricing.vm_per_hour;
        assert!((dollars - expect).abs() <= started as f64 * 0.5e-9 + 1e-12);
    }
}

/// Pool money is the sum of each slot's priced runtime exactly, and
/// slot-seconds × rate, for any interleaving of invocations and
/// completions.
#[test]
fn pool_accounting_exact() {
    let mut rng = Pcg32::new(Seed::root(0xC10D_03));
    for _ in 0..64 {
        let durations_ms: Vec<u64> = (0..rng.gen_range(1usize..50))
            .map(|_| rng.gen_range(1u64..100_000))
            .collect();
        let pricing = Pricing::default();
        let mut pool = ElasticPool::new(pricing.clone());
        let mut handles = Vec::new();
        for (i, &d) in durations_ms.iter().enumerate() {
            let (id, start) = pool.invoke(SimTime::from_millis(i as u64 * 37));
            handles.push((id, start, d));
        }
        let mut total_s = 0.0;
        let mut priced = Money::ZERO;
        for (id, start, d) in handles {
            let ran = pool.complete(start + SimDuration::from_millis(d), id);
            total_s += ran.as_secs_f64();
            priced += pricing.pool_cost(ran);
        }
        assert_eq!(pool.active_count(), 0);
        let got = pool.ledger().category(CostCategory::ElasticPool);
        assert_eq!(got, priced);
        let expect = total_s / 3600.0 * pricing.pool_per_hour;
        assert!((got.dollars() - expect).abs() < 1e-9, "{got:?} vs {expect}");
        assert_eq!(pool.invocations_total(), durations_ms.len() as u64);
    }
}

/// Assign/release cycles never lose VMs: the fleet's running count is
/// conserved and a released VM is terminated only when above target.
#[test]
fn assign_release_conserves_fleet() {
    let mut rng = Pcg32::new(Seed::root(0xC10D_04));
    for _ in 0..64 {
        let ops: Vec<bool> = (0..rng.gen_range(1usize..80))
            .map(|_| rng.gen_bool(0.5))
            .collect();
        let mut fleet = VmFleet::new(Pricing::default());
        let now = SimTime::from_secs(200);
        fleet.set_target(SimTime::ZERO, 6);
        fleet.poll(now);
        assert_eq!(fleet.running_count(), 6);
        let mut held = Vec::new();
        for (i, &assign) in ops.iter().enumerate() {
            let t = now + SimDuration::from_secs(i as u64);
            if assign {
                if let Some(id) = fleet.try_assign(t) {
                    held.push(id);
                }
            } else if let Some(id) = held.pop() {
                fleet.release(t, id);
            }
            assert_eq!(fleet.running_count(), 6, "target never changed");
            assert_eq!(fleet.busy_count(), held.len());
        }
    }
}

/// Unknown-id completion and release are billed-free no-ops (release
/// builds only; in debug builds they trip assertions instead).
#[test]
fn unknown_ids_never_bill() {
    let pricing = Pricing::default();
    let mut pool = ElasticPool::new(pricing.clone());
    let (id, start) = pool.invoke(SimTime::ZERO);
    pool.complete(start + SimDuration::from_secs(1), id);
    let before = pool.ledger().total();
    assert_eq!(
        pool.try_complete(start + SimDuration::from_secs(9), id),
        None
    );
    assert_eq!(pool.ledger().total(), before);
}

/// One random charge minted through `Pricing`, with its category.
fn random_charge(rng: &mut Pcg32, pricing: &Pricing) -> (CostCategory, Money) {
    match rng.gen_range(0u32..5) {
        0 => {
            let ran = SimDuration::from_millis(rng.gen_range(0u64..10_000_000));
            (CostCategory::ElasticPool, pricing.pool_cost(ran))
        }
        1 | 2 => {
            let category = match rng.gen_bool(0.5) {
                true => CostCategory::ShuffleNode,
                false => CostCategory::VmCompute,
            };
            let integral = rng.gen_range(0u64..100_000_000_000) as u128;
            let cost = pricing.fleet_charge(category, integral, rng.gen_range(100u32..2000));
            (category, cost)
        }
        3 => {
            let (category, op) = match rng.gen_bool(0.5) {
                true => (CostCategory::S3Put, StoreOp::Put),
                false => (CostCategory::S3Get, StoreOp::Get),
            };
            (category, pricing.requests(op, rng.gen_range(0u64..100_000)))
        }
        _ => {
            let bytes = rng.gen_range(0u64..1 << 40);
            let micros_per_gib = rng.gen_range(0u64..100_000);
            (CostCategory::Egress, Pricing::egress(bytes, micros_per_gib))
        }
    }
}

/// Per-category charges always sum to `total()` exactly, for any
/// sequence of charges minted through `Pricing`.
#[test]
fn ledger_categories_sum_to_total() {
    let mut rng = Pcg32::new(Seed::root(0xC10D_05));
    let pricing = Pricing::default();
    for _ in 0..64 {
        let mut ledger = CostLedger::new();
        let mut by_category = [Money::ZERO; CostCategory::ALL.len()];
        for _ in 0..rng.gen_range(1usize..200) {
            let (category, cost) = random_charge(&mut rng, &pricing);
            ledger.bill(category, cost);
            let i = CostCategory::ALL
                .iter()
                .position(|&c| c == category)
                .unwrap();
            by_category[i] += cost;
        }
        for (i, c) in CostCategory::ALL.into_iter().enumerate() {
            assert_eq!(ledger.category(c), by_category[i], "category {c}");
        }
        assert_eq!(ledger.total(), by_category.into_iter().sum());
    }
}

/// The `f64` adapters reject invalid charges (NaN, infinite, negative)
/// and leave the ledger untouched.
#[test]
fn ledger_rejects_invalid_charges() {
    let mut ledger = CostLedger::new();
    ledger.charge(CostCategory::VmCompute, 1.25);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.01] {
        let out = ledger.try_charge(CostCategory::VmCompute, bad);
        assert!(out.is_err(), "{bad} accepted");
    }
    assert_eq!(ledger.total().dollars(), 1.25);
    assert_eq!(ledger.category(CostCategory::VmCompute).dollars(), 1.25);
    // charge_requests with a zero count is a no-op even at weird prices.
    ledger.charge_requests(CostCategory::S3Put, 0, 5.0e-6);
    ledger.charge_micros(CostCategory::S3Put, -7);
    assert_eq!(ledger.total().dollars(), 1.25);
}
