//! Strategy-layer benchmarks: meta-strategy tick cost with the full
//! 800-expert family, the sliding-quantile structure, the allocation
//! simulation, and the offline oracle. Plain wall-clock harness
//! (`harness = false`) — run with `cargo bench -p cackle-bench`.

use cackle::history::{SlidingQuantile, WorkloadHistory};
use cackle::oracle::oracle_cost;
use cackle::strategy::ProvisioningStrategy;
use cackle::{AllocationSim, Env, MetaStrategy};
use cackle_bench::bench_wall;
use cackle_prng::Pcg32;
use std::hint::black_box;

fn sine_demand(len: usize) -> Vec<u32> {
    let mut rng = Pcg32::seed_from_u64(1);
    (0..len)
        .map(|t| {
            let base = 60.0 + 50.0 * (t as f64 * std::f64::consts::TAU / 1200.0).sin();
            (base + rng.gen_range(0.0..20.0)) as u32
        })
        .collect()
}

fn main() {
    let env = Env::default();

    // One strategy tick with the full paper family over an hour of history.
    let demand = sine_demand(3600);
    bench_wall("meta_strategy_hour_of_ticks_full_family", 10, || {
        let mut meta = MetaStrategy::new(&env);
        let mut history = WorkloadHistory::new();
        let mut total = 0u64;
        for (t, &d) in demand.iter().enumerate() {
            history.push(d);
            if t % 5 == 0 {
                total += meta.target(t as u64, &history, &env) as u64;
            }
        }
        black_box(total)
    });

    let demand = sine_demand(10_000);
    // What one meta-strategy tick asks of a lookback: five pushes, then
    // every percentile 0..=100 in one pass.
    bench_wall("sliding_quantile_push5_and_sweep_10k", 10, || {
        let mut q = SlidingQuantile::new(3600);
        let mut acc = 0u32;
        for tick in demand.chunks(5) {
            tick.iter().for_each(|&d| q.push(d));
            acc ^= q.percentiles()[80];
        }
        black_box(acc)
    });

    let demand = sine_demand(43_200);
    bench_wall("allocation_sim_12h", 10, || {
        let mut sim = AllocationSim::new(&env);
        for &d in &demand {
            sim.step(d / 2, d);
        }
        black_box(sim.finalize())
    });

    bench_wall("oracle_12h_sine", 10, || {
        black_box(oracle_cost(&demand, &env).total())
    });
}
