//! The full Cackle system (§3, §7.1): an event-driven execution of a query
//! workload on the simulated cloud substrate.
//!
//! Unlike the analytical model — which replays profiles against a
//! strategy-independent demand curve — this is the "real" system: the
//! coordinator schedules individual tasks onto a `VmFleet` first and the
//! `ElasticPool` as overflow, VMs start after real startup latency and
//! bill with a minimum, the dynamic strategy runs in the loop off the
//! history the system itself records, intermediate results go to shuffle
//! nodes with object-store fallback, and task runtimes carry noise: pool
//! tasks run ~25 % slower than VM tasks (§7.1.2) with lognormal jitter.
//! Figures 12–13 validate the analytical model against exactly this gap.
//!
//! The coordinator — events, fleets, pool, history, recovery, the result —
//! is the crate-private `runloop` module, shared with [`crate::live`].
//! This module is its profile-replay task source: what a profiled stage's
//! tasks cost in simulated seconds, the modeled resident bytes behind the
//! shuffle-node tier, and the object-store requests that miss it, which
//! the run's [`ObjectStore`] counts, retries and prices.
//!
//! Entry points: [`run_system`] builds the strategy from the spec label;
//! [`run_system_with`] takes an explicit strategy; the `try_` variants
//! surface [`RunError`] instead of panicking — malformed workloads (deps
//! pointing at missing stages, dependency cycles, empty or task-less
//! profiles) are rejected up front rather than hanging or underflowing the
//! event loop.
//!
//! Fault injection: the spec's [`FaultSpec`](cackle_faults::FaultSpec)
//! compiles into a seeded [`FaultInjector`] whose per-injection-point
//! streams drive spot reclaims, pool invoke failures/throttles and
//! straggler slowdowns; the store draws its modeled requests' transient
//! errors keyed by `(query, stage, request)`. A replayed
//! task is still running while its slot is occupied, so every launch
//! carries the recovery data the loop needs to re-execute or duplicate
//! it. Fault draws never touch the runner's main RNG, so a zero-rate plan
//! leaves a run bit-identical to one without the subsystem.

// Hot path: no panic paths outside tests (clippy.toml exempts test code).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::factory::try_make_strategy;
use crate::model::QueryArrival;
use crate::report::RunResult;
use crate::runloop::{self, QueryGraph, Recovery, Stage, TaskLaunch, TaskSource};
use crate::spec::{RunError, RunSpec};
use crate::strategy::ProvisioningStrategy;
use cackle_cloud::ObjectStore;
use cackle_faults::{FaultInjector, StoreOp};
use cackle_prng::{Pcg32, Seed};
use cackle_workload::profile::StageProfile;
use std::sync::Arc;

/// Profile replay: stage durations from measured profiles plus noise,
/// intermediate state as modeled byte counts.
struct ProfileSource<'a> {
    workload: &'a [QueryArrival],
    spec: &'a RunSpec,
    /// Duration jitter; fault draws have their own streams.
    rng: Pcg32,
    faults: FaultInjector,
    /// Modeled shuffle bytes of finished stages of unfinished queries.
    resident_total: u64,
    /// The run's store, which takes the modeled requests.
    store: Arc<ObjectStore>,
}

impl<'a> ProfileSource<'a> {
    fn stage(&self, query: usize, stage: usize) -> &'a StageProfile {
        &self.workload[query].profile.stages[stage]
    }

    /// Send the store the share of a stage's `op` requests that misses
    /// the node tier right now; the store retries injected transient
    /// errors and bills every attempt (S3 bills errored requests too).
    fn bill_overflow(&self, query: usize, stage: usize, op: StoreOp, shuffle_nodes: usize) {
        let profile = self.stage(query, stage);
        let requests = match op {
            StoreOp::Get => profile.shuffle_reads,
            StoreOp::Put => profile.shuffle_writes,
        };
        let cap = shuffle_nodes as u64 * self.spec.env.pricing.shuffle_node_capacity_bytes;
        let overflow = if self.resident_total > cap && self.resident_total > 0 {
            (self.resident_total - cap) as f64 / self.resident_total as f64
        } else {
            0.0
        };
        let n = (requests as f64 * overflow).round() as u64;
        self.store
            .modeled_requests(op, query as u64, stage as u64, n);
    }
}

impl TaskSource for ProfileSource<'_> {
    fn launch_stage(
        &mut self,
        query: usize,
        stage: usize,
        shuffle_nodes: usize,
    ) -> Vec<TaskLaunch> {
        // Reads happen at stage start; the node tier serves what fits.
        self.bill_overflow(query, stage, StoreOp::Get, shuffle_nodes);
        let stage = self.stage(query, stage);
        let base = stage.task_seconds as f64;
        let pool_slowdown = self.spec.pool_slowdown;
        // A task's share of the stage's shuffle bytes, rounded to nearest.
        let tasks = u64::from(stage.tasks.max(1));
        let publish_bytes = (stage.shuffle_bytes + tasks / 2) / tasks;
        // Every stochastic draw whose stream position matters, serially
        // and in task order: jitter from the main RNG, stragglers from
        // the plan's dedicated stream (a zero-rate plan makes no straggler
        // draw at all, so the main RNG sequence is untouched). The
        // durations are four multiplies per task — far cheaper than any
        // hand-off to a worker pool — so `spec.workers` plays no part here.
        (0..stage.tasks)
            .map(|_| {
                let jitter = if self.spec.duration_jitter > 0.0 {
                    let u: f64 = self.rng.gen_range(-1.0..1.0);
                    (u * self.spec.duration_jitter).exp()
                } else {
                    1.0
                };
                let slowdown = self.faults.straggler().unwrap_or(1.0);
                let nominal = base * jitter;
                TaskLaunch {
                    vm_secs: nominal * slowdown,
                    pool_secs: nominal * pool_slowdown * slowdown,
                    publish_bytes,
                    recovery: Some(Recovery {
                        base_secs: base,
                        unstraggled_secs: (slowdown > 1.0).then_some(nominal),
                    }),
                }
            })
            .collect()
    }

    /// Stage output lands in the shuffle tier; what the nodes cannot hold
    /// is written to the object store.
    fn stage_finished(&mut self, query: usize, stage: usize, shuffle_nodes: usize) {
        self.resident_total += self.stage(query, stage).shuffle_bytes;
        self.bill_overflow(query, stage, StoreOp::Put, shuffle_nodes);
    }

    /// Every stage of the query has finished, so what it holds is the
    /// sum of its stages' shuffle bytes.
    fn query_finished(&mut self, query: usize) {
        let stages = &self.workload[query].profile.stages;
        let freed: u64 = stages.iter().map(|s| s.shuffle_bytes).sum();
        self.resident_total = self.resident_total.saturating_sub(freed);
    }

    fn resident_bytes(&self) -> u64 {
        self.resident_total
    }
}

/// Run the full system over a workload; the strategy comes from
/// `spec.strategy`. Panics on a malformed spec or workload or an
/// unrecovered injected fault — use [`try_run_system`] to handle those
/// gracefully.
pub fn run_system(workload: &[QueryArrival], spec: &RunSpec) -> RunResult {
    try_run_system(workload, spec).unwrap_or_else(|e| e.raise())
}

/// [`run_system`], reporting malformed specs and workloads and
/// unrecovered faults instead of panicking.
pub fn try_run_system(workload: &[QueryArrival], spec: &RunSpec) -> Result<RunResult, RunError> {
    let mut strategy = try_make_strategy(&spec.strategy, &spec.env)?;
    try_run_system_with(workload, strategy.as_mut(), spec)
}

/// Run the full system under an explicitly constructed strategy.
/// Panics where [`run_system`] does; use [`try_run_system_with`] to
/// observe the error.
pub fn run_system_with(
    workload: &[QueryArrival],
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
) -> RunResult {
    try_run_system_with(workload, strategy, spec).unwrap_or_else(|e| e.raise())
}

/// The stage graphs of a profile workload, as the run loop and the
/// work-delaying comparator validate them.
pub(crate) fn profile_graphs(workload: &[QueryArrival]) -> impl Iterator<Item = QueryGraph<'_>> {
    workload.iter().map(|q| {
        let stages = q.profile.stages.iter().map(|s| Stage {
            remaining_tasks: s.tasks,
            deps: s.deps.clone(),
        });
        QueryGraph {
            at_s: q.at_s,
            name: &q.profile.name,
            stages: stages.collect(),
        }
    })
}

/// [`run_system_with`] as a fallible operation: the spec's knobs and the
/// workload's stage graphs are validated before any event is scheduled.
pub fn try_run_system_with(
    workload: &[QueryArrival],
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
) -> Result<RunResult, RunError> {
    #[expect(
        clippy::disallowed_methods,
        reason = "mint: run_system receives the RunSpec seed"
    )]
    let seed = Seed::root(spec.seed);
    let source = |_: &_, faults: &FaultInjector, store: &Arc<ObjectStore>| ProfileSource {
        workload,
        spec,
        rng: Pcg32::new(seed),
        faults: faults.clone(),
        resident_total: 0,
        store: store.clone(),
    };
    runloop::run(spec, profile_graphs(workload), Some(strategy), source).map(|(run, _)| run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::FixedStrategy;
    use cackle_telemetry::Telemetry;
    use cackle_workload::profile::{QueryProfile, StageProfile};
    use std::sync::Arc;

    fn profile(tasks: u32, secs: u32) -> Arc<QueryProfile> {
        Arc::new(QueryProfile::new(
            "p",
            vec![
                StageProfile {
                    tasks,
                    task_seconds: secs,
                    shuffle_bytes: 32 << 20,
                    shuffle_writes: 2 * tasks as u64,
                    shuffle_reads: 0,
                    deps: vec![],
                },
                StageProfile {
                    tasks: 1,
                    task_seconds: 2,
                    shuffle_bytes: 0,
                    shuffle_writes: 0,
                    shuffle_reads: tasks as u64,
                    deps: vec![0],
                },
            ],
        ))
    }

    fn noiseless() -> RunSpec {
        RunSpec::new()
            .with_pool_slowdown(1.0)
            .with_duration_jitter(0.0)
    }

    #[test]
    fn pool_only_latency_is_critical_path_plus_invoke() {
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(8, 10),
        }];
        let mut s = FixedStrategy { vms: 0 };
        let r = run_system_with(&w, &mut s, &noiseless());
        // 10 s + 2 s + two 100 ms invoke latencies.
        assert!(
            (r.latencies[0] - 12.2).abs() < 0.01,
            "latency {}",
            r.latencies[0]
        );
        assert_eq!(r.compute.vm_seconds, 0.0);
        assert!((r.compute.pool_seconds - 82.0).abs() < 0.5);
    }

    #[test]
    fn vm_fleet_reduces_latency_once_started() {
        let w: Vec<QueryArrival> = (0..30)
            .map(|i| QueryArrival {
                at_s: i * 30,
                profile: profile(4, 10),
            })
            .collect();
        let base = RunSpec::new();
        let mut s0 = FixedStrategy { vms: 0 };
        let pool_run = run_system_with(&w, &mut s0, &base);
        let mut s8 = FixedStrategy { vms: 8 };
        let vm_run = run_system_with(&w, &mut s8, &base);
        // Once VMs are up (query 10 onward), latency beats the pool-only
        // run (pool tasks run 1.25× slower).
        let late_vm: f64 = vm_run.latencies[10..].iter().sum::<f64>() / 20.0;
        let late_pool: f64 = pool_run.latencies[10..].iter().sum::<f64>() / 20.0;
        assert!(late_vm < late_pool, "vm {late_vm} vs pool {late_pool}");
    }

    #[test]
    fn vms_start_after_latency_and_get_used() {
        let w: Vec<QueryArrival> = (0..50)
            .map(|i| QueryArrival {
                at_s: i * 12,
                profile: profile(4, 10),
            })
            .collect();
        let r = run_system(&w, &noiseless().with_strategy("fixed_4"));
        assert!(r.compute.vm_seconds > 0.0, "VMs never used");
        assert!(
            r.compute.pool_seconds > 0.0,
            "early tasks must use the pool"
        );
        // The fixed fleet stays up from ~180 s to the end.
        assert!(r.compute.vm_seconds >= 4.0 * (r.duration_s as f64 - 220.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let w: Vec<QueryArrival> = (0..20)
            .map(|i| QueryArrival {
                at_s: i * 7,
                profile: profile(3, 5),
            })
            .collect();
        let spec = RunSpec::new();
        let mut s1 = FixedStrategy { vms: 2 };
        let a = run_system_with(&w, &mut s1, &spec);
        let mut s2 = FixedStrategy { vms: 2 };
        let b = run_system_with(&w, &mut s2, &spec);
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.total_cost(), b.total_cost());
    }

    #[test]
    fn timeseries_tracks_fleet() {
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(6, 300),
        }];
        let spec = noiseless().with_telemetry(&Telemetry::new());
        let mut s = FixedStrategy { vms: 3 };
        let r = run_system_with(&w, &mut s, &spec);
        let ts = crate::Timeseries::from_telemetry(&r.telemetry).expect("recorded");
        assert!(ts.demand.iter().take(100).any(|&d| d == 6));
        // Active VMs reach the target after the 180 s startup.
        assert_eq!(ts.active[250.min(ts.active.len() - 1)], 3);
        assert!(ts.active[..170].iter().all(|&a| a == 0));
    }

    #[test]
    fn dynamic_strategy_runs_in_the_loop() {
        use crate::meta::{FamilyConfig, MetaStrategy};
        let w: Vec<QueryArrival> = (0..120)
            .map(|i| QueryArrival {
                at_s: i * 10,
                profile: profile(4, 8),
            })
            .collect();
        let spec = RunSpec::new();
        let mut dynamic = MetaStrategy::with_family(FamilyConfig::small(), &spec.env);
        let r = run_system_with(&w, &mut dynamic, &spec);
        assert_eq!(r.latencies.len(), 120);
        assert!(r.latencies.iter().all(|&l| l > 0.0));
        assert!(r.total_cost() > 0.0);
        assert_eq!(r.strategy, "dynamic");
    }

    #[test]
    fn spot_interruptions_restart_tasks_on_the_pool() {
        let w: Vec<QueryArrival> = (0..40)
            .map(|i| QueryArrival {
                at_s: i * 20,
                profile: profile(4, 30),
            })
            .collect();
        // Absurdly high rate so interruptions certainly occur.
        let spec =
            noiseless().with_faults(cackle_faults::FaultSpec::default().with_spot_reclaims(60.0));
        let mut s = FixedStrategy { vms: 6 };
        let interrupted = run_system_with(&w, &mut s, &spec);
        let mut s2 = FixedStrategy { vms: 6 };
        let calm = run_system_with(&w, &mut s2, &noiseless());
        // Every query still completes...
        assert_eq!(interrupted.latencies.len(), 40);
        assert!(interrupted.latencies.iter().all(|&l| l > 0.0));
        // ...but restarts push work to the pool and stretch latency.
        assert!(
            interrupted.compute.pool_seconds > calm.compute.pool_seconds,
            "restarts must hit the pool"
        );
        assert!(
            interrupted.mean_latency() > calm.mean_latency(),
            "interruptions should cost latency: {} vs {}",
            interrupted.mean_latency(),
            calm.mean_latency()
        );
    }

    #[test]
    fn shuffle_overflow_hits_s3_before_nodes_start() {
        // Heavy intermediate state right at workload start: nodes are still
        // provisioning, so writes overflow to the object store.
        let big = Arc::new(QueryProfile::new(
            "big",
            vec![StageProfile {
                tasks: 4,
                task_seconds: 5,
                shuffle_bytes: 64 << 30,
                shuffle_writes: 100,
                shuffle_reads: 0,
                deps: vec![],
            }],
        ));
        let w = vec![QueryArrival {
            at_s: 0,
            profile: big,
        }];
        let mut s = FixedStrategy { vms: 0 };
        let r = run_system_with(&w, &mut s, &noiseless());
        assert!(r.shuffle.puts > 0, "expected S3 fallback puts");
    }

    #[test]
    fn try_run_rejects_malformed_workloads() {
        use crate::delaying::try_run_delaying;
        use crate::live::{try_run_live, LiveQuery};
        use crate::model::try_run_model;
        use cackle_engine::plan::{ExchangeMode, PlanNode, Stage, StageDag};
        use cackle_engine::schema::Schema;
        use cackle_engine::table::Catalog;
        let spec = noiseless();
        // A stage graph as `(tasks, deps)` per stage, built into profiles
        // and plans directly (`QueryProfile::new`/`StageDag::new` would
        // assert first) — these model corrupt workloads arriving from
        // outside the crate.
        type Shape = [(u32, Vec<usize>)];
        let profiles = |shape: &Shape| {
            let stages = shape.iter().map(|(tasks, deps)| StageProfile {
                tasks: *tasks,
                task_seconds: 1,
                shuffle_bytes: 0,
                shuffle_writes: 0,
                shuffle_reads: 0,
                deps: deps.clone(),
            });
            vec![QueryArrival {
                at_s: 0,
                profile: Arc::new(QueryProfile {
                    name: "bad".to_string(),
                    stages: stages.collect(),
                }),
            }]
        };
        let plans = |shape: &Shape| {
            let stages = shape.iter().enumerate().map(|(id, (tasks, deps))| Stage {
                id,
                root: PlanNode::Union {
                    inputs: (deps.iter())
                        .map(|&stage| PlanNode::ShuffleRead { stage })
                        .collect(),
                },
                tasks: *tasks,
                exchange: ExchangeMode::Gather,
                output_schema: Arc::new(Schema::new(vec![])),
            });
            vec![LiveQuery {
                at_s: 0,
                plan: Arc::new(StageDag {
                    name: "bad".to_string(),
                    stages: stages.collect(),
                }),
            }]
        };
        let catalog = Catalog::new();
        type Runner<'a> = &'a dyn Fn(&Shape) -> Result<RunResult, RunError>;
        let runners: [(&str, Runner); 4] = [
            ("system", &|shape| {
                try_run_system_with(&profiles(shape), &mut FixedStrategy { vms: 0 }, &spec)
            }),
            ("live", &|shape| {
                try_run_live(&plans(shape), &catalog, &spec)
            }),
            ("delaying", &|shape| {
                try_run_delaying(&profiles(shape), 4, &spec)
            }),
            ("model", &|shape| try_run_model(&profiles(shape), &spec)),
        ];
        let shapes: [(&str, &Shape); 4] = [
            ("no stages at all", &[]),
            (
                "a dependency on a stage that does not exist",
                &[(1, vec![5])],
            ),
            (
                "a two-stage dependency cycle",
                &[(1, vec![1]), (1, vec![0])],
            ),
            ("a stage that can never complete: no tasks", &[(0, vec![])]),
        ];
        for (runner, run) in runners {
            for (name, shape) in &shapes {
                let out = run(shape);
                assert!(
                    matches!(out, Err(RunError::InvalidWorkload(_))),
                    "{runner} should reject {name}, got {out:?}"
                );
            }
        }
        // A bad knob is caught before the workload is inspected.
        let mut s = FixedStrategy { vms: 0 };
        let bad_spec = noiseless().with_duration_jitter(f64::NAN);
        let ok = profiles(&[(1, vec![])]);
        assert!(matches!(
            try_run_system_with(&ok, &mut s, &bad_spec),
            Err(RunError::InvalidKnob { .. })
        ));
        // And the valid workload still runs.
        assert!(try_run_system_with(&ok, &mut s, &spec).is_ok());
    }

    #[test]
    fn try_run_rejects_a_tick_that_is_not_whole_seconds() {
        use crate::live::{try_run_live, LiveQuery};
        use crate::model::try_run_model;
        use cackle_cloud::SimDuration;
        use cackle_engine::plan::{ExchangeMode, PlanNode, Stage, StageDag};
        use cackle_engine::schema::Schema;
        use cackle_engine::table::Catalog;
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(2, 5),
        }];
        let stage = Stage {
            id: 0,
            root: PlanNode::Union { inputs: vec![] },
            tasks: 1,
            exchange: ExchangeMode::Gather,
            output_schema: Arc::new(Schema::new(vec![])),
        };
        let live = vec![LiveQuery {
            at_s: 0,
            plan: Arc::new(StageDag::new("one", vec![stage])),
        }];
        let catalog = Catalog::new();
        // The strategy decides on whole seconds of history: a zero tick
        // never lets the clock advance, and a fractional one names no
        // whole second.
        for ms in [0, 500, 2_500] {
            let mut spec = noiseless().with_strategy("fixed_1");
            spec.env.strategy_tick = SimDuration::from_millis(ms);
            let expected = RunError::InvalidKnob {
                name: "env.strategy_tick",
                value: ms as f64 / 1000.0,
            };
            let runs = [
                ("model", try_run_model(&w, &spec)),
                ("system", try_run_system(&w, &spec)),
                ("live", try_run_live(&live, &catalog, &spec)),
            ];
            for (runner, run) in runs {
                assert_eq!(run.err().as_ref(), Some(&expected), "{runner}, {ms} ms");
            }
        }
    }

    #[test]
    fn a_stage_may_name_one_upstream_twice() {
        use crate::delaying::run_delaying;
        use crate::model::run_model;
        // Readiness reads dependencies as a set, so a repeated upstream
        // runs exactly as the single one does.
        let query = |deps: Vec<usize>| {
            let stage = |tasks, deps| StageProfile {
                tasks,
                task_seconds: 4,
                shuffle_bytes: 8 << 20,
                shuffle_writes: 2,
                shuffle_reads: 2,
                deps,
            };
            let stages = vec![stage(3, vec![]), stage(2, vec![]), stage(1, deps)];
            vec![QueryArrival {
                at_s: 3,
                profile: Arc::new(QueryProfile::new("q", stages)),
            }]
        };
        let (once, twice) = (query(vec![0, 1]), query(vec![0, 1, 0, 1]));
        let spec = noiseless().with_strategy("fixed_1");
        let key = |r: RunResult| format!("{:?} {:?} {:?}", r.compute, r.shuffle, r.latencies);
        assert_eq!(
            key(run_system(&twice, &spec)),
            key(run_system(&once, &spec))
        );
        assert_eq!(key(run_model(&twice, &spec)), key(run_model(&once, &spec)));
        assert_eq!(
            key(run_delaying(&twice, 2, &spec)),
            key(run_delaying(&once, 2, &spec))
        );
    }

    #[test]
    fn telemetry_attribution_matches_ledgers() {
        let w: Vec<QueryArrival> = (0..10)
            .map(|i| QueryArrival {
                at_s: i * 15,
                profile: profile(4, 10),
            })
            .collect();
        let t = Telemetry::new();
        let spec = noiseless().with_strategy("fixed_2").with_telemetry(&t);
        let r = run_system(&w, &spec);
        // Per-component dollars in the registry are the result's splits.
        assert_eq!(t.cost("fleet", "vm_compute"), r.compute.vm_cost);
        assert_eq!(t.cost("pool", "elastic_pool"), r.compute.pool_cost);
        assert_eq!(t.cost("shuffle_fleet", "shuffle_node"), r.shuffle.node_cost);
        assert_eq!(t.cost("store", "s3_put"), r.shuffle.s3_put_cost);
        assert_eq!(t.cost("store", "s3_get"), r.shuffle.s3_get_cost);
        assert_eq!(t.cost("env", "egress"), r.shuffle.egress_cost);
        // Query accounting and the demand series were recorded.
        assert_eq!(t.counter("run.queries_total"), 10);
        let h = t.histogram("run.query_latency_seconds").expect("histogram");
        assert_eq!(h.count, 10);
        assert_eq!(
            t.series("run.demand").map(|s| s.len() as u64),
            Some(r.duration_s)
        );
    }

    #[test]
    fn zero_rate_fault_plan_is_a_noop() {
        use cackle_faults::{FaultSpec, RecoveryPolicy};
        let w: Vec<QueryArrival> = (0..15)
            .map(|i| QueryArrival {
                at_s: i * 10,
                profile: profile(3, 8),
            })
            .collect();
        let mut a = FixedStrategy { vms: 2 };
        let plain = run_system_with(&w, &mut a, &RunSpec::new());
        // An explicitly attached all-zero plan (with a non-default
        // recovery policy, which must also be inert) changes nothing.
        let spec = RunSpec::new()
            .with_faults(FaultSpec::default())
            .with_recovery(RecoveryPolicy::default().with_max_retries(9));
        let mut b = FixedStrategy { vms: 2 };
        let faulted = run_system_with(&w, &mut b, &spec);
        assert_eq!(plain.latencies, faulted.latencies);
        assert_eq!(plain.compute, faulted.compute);
        assert_eq!(plain.shuffle, faulted.shuffle);
    }

    #[test]
    fn injected_faults_recover_and_attribute_cost() {
        use cackle_faults::FaultSpec;
        let w: Vec<QueryArrival> = (0..30)
            .map(|i| QueryArrival {
                at_s: i * 15,
                profile: profile(4, 20),
            })
            .collect();
        let t = Telemetry::new();
        let faults = FaultSpec::default()
            .with_spot_reclaims(20.0)
            .with_pool_invoke_failures(0.2)
            .with_pool_throttles(0.2, 400)
            .with_stragglers(0.25, 3.0)
            .with_store_errors(0.3, 0.3);
        let spec = RunSpec::new()
            .with_strategy("fixed_4")
            .with_faults(faults)
            .with_telemetry(&t);
        let r = run_system(&w, &spec);
        // Every fault is recovered: all queries complete, nothing is
        // surfaced as unrecovered, and no panic occurred.
        assert_eq!(r.latencies.len(), 30);
        assert!(r.latencies.iter().all(|&l| l > 0.0));
        assert_eq!(t.counter("recovery.unrecovered_total"), 0);
        assert!(t.counter("fault.spot_reclaims_total") > 0);
        assert!(t.counter("fault.stragglers_total") > 0);
        assert!(t.counter("fault.pool_invoke_failures_total") > 0);
        assert!(t.counter("recovery.retries_total") > 0);
        assert!(t.counter("recovery.task_reexecs_total") > 0);
        assert!(t.counter("recovery.duplicates_launched_total") > 0);
        // Retry/duplicate/re-execution spend is attributed under the
        // recovery component in the cost registry.
        assert!(t.cost("recovery", "elastic_pool") > 0.0);
    }

    #[test]
    fn pool_invoke_exhaustion_surfaces_typed_error() {
        use cackle_faults::{FaultSpec, RecoveryPolicy};
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(8, 10),
        }];
        let spec = noiseless()
            .with_faults(FaultSpec::default().with_pool_invoke_failures(0.95))
            .with_recovery(RecoveryPolicy::default().with_max_retries(0));
        let mut s = FixedStrategy { vms: 0 };
        let out = try_run_system_with(&w, &mut s, &spec);
        assert!(
            matches!(
                out,
                Err(RunError::FaultUnrecovered {
                    point: "pool.invoke",
                    attempts: 1
                })
            ),
            "{out:?}"
        );
    }

    #[test]
    fn an_aborted_run_dumps_its_partial_spend() {
        use cackle_faults::{FaultSpec, RecoveryPolicy};
        // Queries far apart, so some finish and bill before an invoke
        // failure exhausts the (zero) retry bound.
        let w: Vec<QueryArrival> = (0..40)
            .map(|i| QueryArrival {
                at_s: i * 60,
                profile: profile(2, 5),
            })
            .collect();
        let t = Telemetry::new();
        let spec = noiseless()
            .with_faults(FaultSpec::default().with_pool_invoke_failures(0.05))
            .with_recovery(RecoveryPolicy::default().with_max_retries(0))
            .with_telemetry(&t);
        let mut s = FixedStrategy { vms: 0 };
        let out = try_run_system_with(&w, &mut s, &spec);
        assert!(
            matches!(out, Err(RunError::FaultUnrecovered { .. })),
            "{out:?}"
        );
        assert!(t.counter("run.queries_total") > 0, "no query finished");
        assert!(t.cost("pool", "elastic_pool") > 0.0, "spend so far lost");
    }
}
