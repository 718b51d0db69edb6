//! Purity: every keyed-draw artifact answers the same in any call order
//! and on any thread.
//!
//! The environment pack's artifacts (`EnvironmentSpec::vm_traits`, the
//! `PriceTimeline` and `ReclaimStorm` constructors and queries), the
//! fault plan's storm lookup, the two keyed fault draws on
//! `TaskFaults` and `SimTime::saturating_sub` are each documented as a
//! pure function of their arguments. That is what makes draws
//! independent of worker count and arrival order. This test holds them
//! to it: one job list over a grid of inputs runs serially, in order,
//! then again in seeded permutations across four executor workers with
//! every artifact interleaved, and every answer must match bit for bit
//! (f64 values by their bits). A function that reads anything besides
//! its arguments — a shared counter, a cache, its call order — answers
//! differently the second time.

use cackle_cloud::{SimDuration, SimTime};
use cackle_engine::executor::Executor;
use cackle_faults::{
    EnvironmentSpec, FaultInjector, FaultPlan, FaultSpec, PriceTimeline, ReclaimStorm,
    RecoveryPolicy, StoreOp, TaskFaults,
};
use cackle_prng::{Pcg32, Seed};

const SEEDS: [u64; 4] = [0, 12, 0xDEAD_BEEF, u64::MAX];
const TIMES_S: [u64; 7] = [0, 1, 899, 900, 3_599, 86_399, 3 * 86_400 + 17];
const KEYS: [u64; 4] = [0, 1, 1 << 32, u64::MAX];
const BASE_RATES: [f64; 3] = [0.0, 2.0, 1e6];

/// The environments of the grid: none, everything on, and storms alone.
fn environments() -> Vec<EnvironmentSpec> {
    vec![
        EnvironmentSpec::default(),
        EnvironmentSpec::default()
            .with_vm_heterogeneity(0.25, 2.0, 0.5)
            .with_market_motion(0.3, 900)
            .with_reclaim_storms(4.0, 300, 60.0)
            .with_remote_region(0.5, 700, 20_000),
        EnvironmentSpec::default().with_reclaim_storms(24.0, 3_000, 500.0),
    ]
}

/// One call of one pure function: indices into the grid's artifacts
/// plus plain arguments.
#[derive(Debug, Clone, Copy)]
enum Job {
    VmTraits {
        env: usize,
        seed: usize,
        vm: u64,
    },
    TimelineCompile {
        env: usize,
        seed: usize,
    },
    Multiplier {
        art: usize,
        now_s: u64,
    },
    Integral {
        art: usize,
        start_ms: u64,
        end_ms: u64,
    },
    StormCompile {
        env: usize,
        seed: usize,
    },
    StormIn {
        art: usize,
        now_s: u64,
    },
    StormRate {
        art: usize,
        now_s: u64,
        base: f64,
    },
    PlanInStorm {
        art: usize,
        now_s: u64,
    },
    StoreAttempts {
        seed: usize,
        get: bool,
        key: u64,
    },
    WriteFallback {
        seed: usize,
        key: u64,
    },
    SaturatingSub {
        t_ms: u64,
        d_ms: u64,
    },
}

/// Artifacts compiled once and shared by every job that queries them:
/// per `(environment, seed)` pair, then per seed for the keyed draws.
struct Grid {
    envs: Vec<EnvironmentSpec>,
    timelines: Vec<PriceTimeline>,
    storms: Vec<Option<ReclaimStorm>>,
    plans: Vec<FaultPlan>,
    draws: Vec<TaskFaults>,
}

impl Grid {
    fn new() -> Grid {
        let envs = environments();
        let mut timelines = Vec::new();
        let mut storms = Vec::new();
        let mut plans = Vec::new();
        for env in &envs {
            for &seed in &SEEDS {
                timelines.push(PriceTimeline::compile(env, Seed::root(seed)));
                storms.push(ReclaimStorm::compile(env, Seed::root(seed)));
                let spec = FaultSpec::default()
                    .with_spot_reclaims(1.0)
                    .with_environment(env.clone());
                plans.push(FaultPlan::compile(&spec, seed).expect("valid plan"));
            }
        }
        let faulty = FaultSpec::default()
            .with_store_errors(0.3, 0.4)
            .with_transport_drops(0.35);
        let draws = SEEDS
            .iter()
            .map(|&seed| {
                let plan = FaultPlan::compile(&faulty, seed).expect("valid plan");
                FaultInjector::new(plan, RecoveryPolicy::default().with_max_retries(8)).keyed()
            })
            .collect();
        Grid {
            envs,
            timelines,
            storms,
            plans,
            draws,
        }
    }

    /// Every job of the grid, in a fixed order.
    fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        let arts = self.timelines.len();
        for env in 0..self.envs.len() {
            for seed in 0..SEEDS.len() {
                jobs.push(Job::TimelineCompile { env, seed });
                jobs.push(Job::StormCompile { env, seed });
                for vm in 0..8 {
                    jobs.push(Job::VmTraits { env, seed, vm });
                }
            }
        }
        for art in 0..arts {
            for &now_s in &TIMES_S {
                jobs.push(Job::Multiplier { art, now_s });
                jobs.push(Job::StormIn { art, now_s });
                jobs.push(Job::PlanInStorm { art, now_s });
                jobs.push(Job::Integral {
                    art,
                    start_ms: now_s * 1000,
                    end_ms: now_s * 1000 + 2_700_500,
                });
                for &base in &BASE_RATES {
                    jobs.push(Job::StormRate { art, now_s, base });
                }
            }
        }
        for seed in 0..SEEDS.len() {
            for &key in &KEYS {
                for get in [true, false] {
                    jobs.push(Job::StoreAttempts { seed, get, key });
                }
                jobs.push(Job::WriteFallback { seed, key });
            }
        }
        for &t_ms in &[0, 5, 1_000, u64::MAX] {
            for &d_ms in &[0, 5, 2_000, u64::MAX] {
                jobs.push(Job::SaturatingSub { t_ms, d_ms });
            }
        }
        jobs
    }

    /// Run one job; the answer as words, f64s by their bits.
    fn run(&self, job: Job) -> Vec<u64> {
        let storm_words = |storm: Option<&ReclaimStorm>| match storm {
            None => vec![0],
            Some(s) => {
                let mut w = vec![1, s.storm_rate().to_bits()];
                w.extend(TIMES_S.iter().map(|&t| s.in_storm(t) as u64));
                w
            }
        };
        match job {
            Job::VmTraits { env, seed, vm } => {
                let t = self.envs[env].vm_traits(Seed::root(SEEDS[seed]), vm);
                vec![t.slowdown.to_bits(), t.remote as u64, t.rate_milli as u64]
            }
            Job::TimelineCompile { env, seed } => {
                let t = PriceTimeline::compile(&self.envs[env], Seed::root(SEEDS[seed]));
                let mut w = vec![t.is_flat() as u64, t.interval_s()];
                w.extend(TIMES_S.iter().map(|&s| t.multiplier_milli(s) as u64));
                w
            }
            Job::Multiplier { art, now_s } => {
                vec![self.timelines[art].multiplier_milli(now_s) as u64]
            }
            Job::Integral {
                art,
                start_ms,
                end_ms,
            } => {
                let v = self.timelines[art].integral_milli_ms(start_ms, end_ms);
                vec![v as u64, (v >> 64) as u64]
            }
            Job::StormCompile { env, seed } => storm_words(
                ReclaimStorm::compile(&self.envs[env], Seed::root(SEEDS[seed])).as_ref(),
            ),
            Job::StormIn { art, now_s } => {
                vec![self.storms[art]
                    .as_ref()
                    .map_or(2, |s| s.in_storm(now_s) as u64)]
            }
            Job::StormRate { art, now_s, base } => vec![self.storms[art]
                .as_ref()
                .map_or(base, |s| s.rate_at(now_s, base))
                .to_bits()],
            Job::PlanInStorm { art, now_s } => vec![self.plans[art].in_storm(now_s) as u64],
            Job::StoreAttempts { seed, get, key } => {
                let op = if get { StoreOp::Get } else { StoreOp::Put };
                vec![self.draws[seed].store_attempts_keyed(op, key)]
            }
            Job::WriteFallback { seed, key } => {
                vec![self.draws[seed].transport_write_fallback_keyed(key) as u64]
            }
            Job::SaturatingSub { t_ms, d_ms } => {
                vec![SimTime(t_ms).saturating_sub(SimDuration(d_ms)).as_millis()]
            }
        }
    }
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Pcg32::new(Seed::root(seed));
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

#[test]
fn keyed_artifacts_answer_the_same_in_any_order_on_any_thread() {
    let grid = Grid::new();
    let jobs = grid.jobs();
    let serial: Vec<Vec<u64>> = jobs.iter().map(|&j| grid.run(j)).collect();
    // The grid must reach past the defaults: some VMs are slow, some
    // prices move, some storms blow, some draws retry.
    let saw = |hit: fn(&Job, &[u64]) -> bool| jobs.iter().zip(&serial).any(|(j, w)| hit(j, w));
    assert!(saw(
        |j, w| matches!(j, Job::VmTraits { .. }) && w[0] != 1f64.to_bits()
    ));
    assert!(saw(
        |j, w| matches!(j, Job::Multiplier { .. }) && w[0] != 1000
    ));
    assert!(saw(|j, w| matches!(j, Job::StormIn { .. }) && w[0] == 1));
    assert!(saw(|j, w| matches!(j, Job::PlanInStorm { .. }) && w[0] == 1));
    assert!(saw(
        |j, w| matches!(j, Job::StoreAttempts { .. }) && w[0] > 1
    ));
    let executor = Executor::new(4);
    for shuffle_seed in [1u64, 2, 3] {
        let order = permutation(jobs.len(), shuffle_seed);
        let shuffled = executor.run_indexed(order.len(), |i| grid.run(jobs[order[i]]));
        let mut unshuffled = vec![Vec::new(); jobs.len()];
        for (answer, &j) in shuffled.into_iter().zip(&order) {
            unshuffled[j] = answer;
        }
        for (j, job) in jobs.iter().enumerate() {
            assert_eq!(
                unshuffled[j], serial[j],
                "{job:?} answered differently in permutation {shuffle_seed}"
            );
        }
    }
}
