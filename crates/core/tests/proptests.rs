//! Randomized property tests on the core provisioning machinery: the
//! oracle's lower-bound property, allocation-simulation billing
//! invariants, and the sliding-quantile structure against naive
//! recomputation. Cases come from the in-repo deterministic PRNG so
//! every failure is reproducible from the seed constant alone.

use cackle::allocsim::{cost_of_target_history, AllocationSim};
use cackle::history::SlidingQuantile;
use cackle::oracle::{level_intervals, oracle_cost, oracle_cost_without_pool};
use cackle::Env;
use cackle_cloud::SimDuration;
use cackle_prng::{Pcg32, Seed};
use cackle_workload::demand::percentile_of;

fn random_walk_demand(rng: &mut Pcg32, len: usize, max_step: i8, start: u8, cap: u32) -> Vec<u32> {
    let mut d = start as i64;
    (0..len)
        .map(|_| {
            let s = rng.gen_range(-max_step..=max_step);
            d = (d + s as i64).clamp(0, cap as i64);
            d as u32
        })
        .collect()
}

/// The oracle never exceeds the simulated cost of ANY target history —
/// online strategies included (tested with zero startup latency, the
/// most favourable case for the online side).
#[test]
fn oracle_is_a_lower_bound() {
    let mut rng = Pcg32::new(Seed::root(0xC04E_01));
    for _ in 0..48 {
        let len = rng.gen_range(20usize..200);
        let start = rng.gen_range(0u8..20);
        let flat_target = rng.gen_range(0u32..25);
        let demand = random_walk_demand(&mut rng, len, 3, start, 40);
        let mut env = Env::default();
        env.pricing.vm_startup = SimDuration::ZERO;
        let oracle = oracle_cost(&demand, &env).total();
        let targets = [
            vec![flat_target; demand.len()],
            demand.clone(),
            demand
                .iter()
                .map(|&d| d.saturating_sub(2))
                .collect::<Vec<_>>(),
        ];
        for t in targets {
            let online = cost_of_target_history(&t, &demand, &env);
            assert!(oracle <= online + 1e-6, "oracle {oracle} > online {online}");
        }
    }
}

/// Removing the pool can never reduce the oracle's cost.
#[test]
fn pool_never_hurts_oracle() {
    let mut rng = Pcg32::new(Seed::root(0xC04E_02));
    for _ in 0..48 {
        let len = rng.gen_range(20usize..150);
        let start = rng.gen_range(0u8..10);
        let demand = random_walk_demand(&mut rng, len, 4, start, 30);
        let env = Env::default();
        let with = oracle_cost(&demand, &env).total();
        let without = oracle_cost_without_pool(&demand, &env).total();
        assert!(without + 1e-9 >= with);
    }
}

/// Level intervals exactly tile the demand: summing interval lengths
/// over all levels recovers the total slot-seconds.
#[test]
fn level_intervals_tile_demand() {
    let mut rng = Pcg32::new(Seed::root(0xC04E_03));
    for _ in 0..48 {
        let len = rng.gen_range(10usize..150);
        let start = rng.gen_range(0u8..15);
        let demand = random_walk_demand(&mut rng, len, 5, start, 50);
        let total: u64 = demand.iter().map(|&d| d as u64).sum();
        let tiled: u64 = level_intervals(&demand)
            .iter()
            .flat_map(|lv| lv.iter())
            .map(|&(s, e)| e - s)
            .sum();
        assert_eq!(total, tiled);
    }
}

/// Billing conservation: every second of demand is served exactly once
/// (by a VM slot or the pool), and VM-billed seconds are at least the
/// VM-served seconds.
#[test]
fn allocation_sim_conserves_work() {
    let mut rng = Pcg32::new(Seed::root(0xC04E_04));
    for _ in 0..48 {
        let len = rng.gen_range(10usize..150);
        let start = rng.gen_range(0u8..10);
        let demand = random_walk_demand(&mut rng, len, 3, start, 25);
        let targets: Vec<u32> = (0..150).map(|_| rng.gen_range(0u32..20)).collect();
        let mut env = Env::default();
        env.pricing.vm_startup = SimDuration::from_secs(30);
        let mut sim = AllocationSim::new(&env);
        let mut vm_served = 0.0f64;
        for (i, &d) in demand.iter().enumerate() {
            let t = targets[i % targets.len()];
            let before_pool = sim.pool_seconds();
            sim.step(t, d);
            let pool_this = sim.pool_seconds() - before_pool;
            let vm_this = d as f64 - pool_this;
            assert!(vm_this >= -1e-9, "negative vm work");
            assert!(vm_this <= sim.active_count() as f64 + 1e-9);
            vm_served += vm_this;
        }
        sim.finalize();
        // Billed at least the served seconds (idle + min billing on top).
        assert!(sim.vm_billed_seconds() + 1e-9 >= vm_served);
        // Total service = demand.
        let total: f64 = demand.iter().map(|&d| d as f64).sum();
        assert!((vm_served + sim.pool_seconds() - total).abs() < 1e-6);
    }
}

/// Cost is monotone in prices: doubling the pool price can't reduce a
/// strategy's cost.
#[test]
fn cost_monotone_in_pool_price() {
    let mut rng = Pcg32::new(Seed::root(0xC04E_05));
    for _ in 0..48 {
        let len = rng.gen_range(20usize..120);
        let start = rng.gen_range(0u8..10);
        let target = rng.gen_range(0u32..15);
        let demand = random_walk_demand(&mut rng, len, 3, start, 25);
        let cheap = Env::default();
        let pricey = Env::default().with_pool_premium(12.0);
        let targets = vec![target; demand.len()];
        let c1 = cost_of_target_history(&targets, &demand, &cheap);
        let c2 = cost_of_target_history(&targets, &demand, &pricey);
        assert!(c2 + 1e-9 >= c1);
    }
}

/// The value-list sliding quantile agrees with naive nearest-rank
/// percentile over the trailing window at every step.
#[test]
fn sliding_quantile_matches_naive() {
    let mut rng = Pcg32::new(Seed::root(0xC04E_06));
    for _ in 0..48 {
        let values: Vec<u32> = (0..rng.gen_range(1usize..120))
            .map(|_| rng.gen_range(0u32..5_000))
            .collect();
        let window = rng.gen_range(1usize..40);
        let pct = rng.gen_range(1u8..=100);
        let mut q = SlidingQuantile::new(window);
        for (i, &v) in values.iter().enumerate() {
            q.push(v);
            let lo = (i + 1).saturating_sub(window);
            let naive = percentile_of(&values[lo..=i], pct);
            assert_eq!(q.percentile(pct), naive, "step {i}");
        }
    }
}
