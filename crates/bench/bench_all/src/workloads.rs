//! The four workloads: how each one's inputs are generated from the
//! seed, and how one op is run — plainly through the product's entry
//! point for the end-to-end pass, and through the `_with` variants
//! under a timing strategy decorator for the traced pass.
//!
//! An op's inputs are a function of `(seed, i)` only and are built
//! before its clock starts: the program receives generated inputs and
//! nothing else. Set-up (mix, catalog, plans) depends on `seed` only.

use crate::trace::{SpanId, Tracer};
use cackle::{
    build_workload, make_strategy, run_live_collect, run_live_with, run_model_with,
    run_system_with, try_run_live, try_run_model, Env, FaultSpec, LiveQuery, ProvisioningStrategy,
    QueryArrival, RecoveryPolicy, RunResult, RunSpec, Telemetry, WorkloadHistory,
};
use cackle_engine::batch::Batch;
use cackle_engine::executor::Executor;
use cackle_engine::shuffle::MemoryShuffle;
use cackle_engine::table::Catalog;
use cackle_serve::{run_serve, Runner, ServeSpec, TenantRegistry};
use cackle_tpch::plans::{self, Par};
use cackle_tpch::{generate_catalog, DbGenConfig};
use cackle_workload::{ProfileRef, WorkloadSpec};
use std::sync::Arc;

/// Name and reason of each workload, in the order the suite runs them.
/// `BENCHMARK.json` repeats these verbatim (a unit test compares them).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "model_sweep",
        "what every figure sweep pays per cell: >=90% is the 800-expert MetaStrategy tick, engine/cloud/telemetry idle, so only strategy-layer work moves it",
    ),
    (
        "serve_system_hour",
        "the event-loop side: run_system queue/fleet/pool/ledger, fault draws and recovery, telemetry recording, serve admission/WDRR/attribution; engine idle",
    ),
    (
        "live_scan_agg",
        "few fat engine tasks: filter, arithmetic projection, LIKE and group-by kernels do the work; codec, transport and the publish barrier do little",
    ),
    (
        "live_join_shuffle",
        "many small engine tasks under faults: join build/probe, codec, serial publish barrier, per-attempt store billing, telemetry shard merges",
    ),
];

/// `model_sweep`: one Table-1-density period under `dynamic`.
#[derive(Debug, Clone, Copy)]
pub struct ModelShape {
    pub duration_s: u64,
    pub queries: usize,
}

/// `serve_system_hour`: an hour-long trace split over tenants, through
/// admission and WDRR into the event-driven system runner.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub tenants: usize,
    pub queries: usize,
    /// The moderate fault plan ([`serve_faults`]) or none.
    pub faults: bool,
    /// A live telemetry sink or `Telemetry::disabled()`.
    pub sink: bool,
    pub workers: u32,
}

/// The live workloads: real plans over a generated catalog.
#[derive(Debug, Clone, Copy)]
pub struct LiveShape {
    pub scale_factor: f64,
    pub rows_per_partition: usize,
    pub queries: &'static [&'static str],
    pub par: Par,
    /// Tiny shuffle nodes (chunks spill to the billed object store) and
    /// the live fault plan ([`live_faults`]); false is the default `Env`
    /// with no faults.
    pub stressed: bool,
    pub workers: u32,
}

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Model(ModelShape),
    Serve(ServeShape),
    Live(LiveShape),
}

pub const MODEL_SWEEP: ModelShape = ModelShape {
    duration_s: 3600,
    queries: 1365,
};

pub const SERVE_SYSTEM_HOUR: ServeShape = ServeShape {
    tenants: 1000,
    queries: 250,
    faults: true,
    sink: true,
    workers: 1,
};

pub const LIVE_SCAN_AGG: LiveShape = LiveShape {
    scale_factor: 0.035,
    rows_per_partition: 8192,
    queries: &["q01", "q06", "q12", "q14", "q15", "q19"],
    par: Par {
        fact: 4,
        mid: 2,
        join: 2,
    },
    stressed: false,
    workers: 2,
};

/// One worker, unlike `live_scan_agg`: this op crosses about sixty stage
/// barriers, each a spawn and join of the executor's threads, and with two
/// workers on a 2-vCPU shared host every one of them waits for the host to
/// schedule the other vCPU. Ten runs of one commit then spread by 4 % in a
/// quiet hour and 19-66 % in a busy one (the driver saw 25 %) while the
/// other workloads slowed by 15-20 %; at one worker the spread was 8-9 %
/// in both. The two-worker path stays covered by `live_scan_agg`, by
/// `engine.executor.w2_over_w1`, and by the gate's two-worker re-run.
pub const LIVE_JOIN_SHUFFLE: LiveShape = LiveShape {
    scale_factor: 0.015,
    rows_per_partition: 2048,
    queries: &["q03", "q05", "q07", "q08", "q09", "q10", "q18", "q21"],
    par: Par {
        fact: 16,
        mid: 8,
        join: 8,
    },
    stressed: true,
    workers: 1,
};

/// Task throughput the live workloads convert row counts to simulated
/// seconds with. At the default 400 000 rows/s every task of these small
/// catalogs hits the runner's 0.2 s floor and simulated latency stops
/// depending on the data; at this rate a fact-scan task runs 0.5–3 s.
pub const LIVE_ROWS_PER_TASK_SECOND: f64 = 20_000.0;

pub fn shape_of(name: &str) -> Option<Shape> {
    match name {
        "model_sweep" => Some(Shape::Model(MODEL_SWEEP)),
        "serve_system_hour" => Some(Shape::Serve(SERVE_SYSTEM_HOUR)),
        "live_scan_agg" => Some(Shape::Live(LIVE_SCAN_AGG)),
        "live_join_shuffle" => Some(Shape::Live(LIVE_JOIN_SHUFFLE)),
        _ => None,
    }
}

impl Shape {
    /// Queries one op completes when nothing is lost.
    pub fn queries_per_op(&self) -> usize {
        match self {
            Shape::Model(m) => m.queries,
            Shape::Serve(s) => s.queries,
            Shape::Live(l) => l.queries.len(),
        }
    }

    /// The program's own worker threads (the benchmark adds none).
    pub fn workers(&self) -> u32 {
        match self {
            Shape::Model(_) => 1,
            Shape::Serve(s) => s.workers,
            Shape::Live(l) => l.workers,
        }
    }
}

/// The moderate plan `serve_system_hour` runs under: every injection
/// point the system runner has, at rates its recovery always absorbs.
pub fn serve_faults() -> FaultSpec {
    FaultSpec::default()
        .with_spot_reclaims(2.0)
        .with_pool_invoke_failures(0.05)
        .with_pool_throttles(0.05, 300)
        .with_store_errors(0.05, 0.05)
        .with_transport_drops(0.1)
        .with_stragglers(0.1, 3.0)
}

/// The plan `live_join_shuffle` runs under (spot reclaims and throttles
/// are system-runner-only).
pub fn live_faults() -> FaultSpec {
    FaultSpec::default()
        .with_store_errors(0.1, 0.1)
        .with_transport_drops(0.1)
        .with_pool_invoke_failures(0.05)
        .with_stragglers(0.1, 3.0)
}

/// Recovery under both plans: the default policy with the retry bound
/// raised from 4 to 8. At the default a pool invoke that fails five
/// times in a row (0.05^5 per launch) aborted about one serve op in 1200
/// — and a workload on which ops fail cannot be a benchmark.
pub fn recovery() -> RecoveryPolicy {
    RecoveryPolicy::default().with_max_retries(8)
}

/// A workload's set-up: everything that depends on `seed` alone.
pub enum Workload {
    Model {
        shape: ModelShape,
        mix: Vec<ProfileRef>,
    },
    Serve {
        shape: ServeShape,
        mix: Vec<ProfileRef>,
    },
    Live {
        shape: LiveShape,
        catalog: Catalog,
        queries: Vec<LiveQuery>,
    },
}

/// One op's generated inputs.
pub enum Input {
    Model(Vec<QueryArrival>, RunSpec),
    Serve(ServeSpec),
    Live(RunSpec),
}

/// What one op returned, reduced to what the harness reads.
pub struct OpResult {
    pub run: RunResult,
    /// `run_serve` only: admitted, rejected, deferrals, and the sum of
    /// the tenants' attributed micro-dollars.
    pub serve: Option<ServeCounts>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounts {
    pub admitted: u64,
    pub rejected: u64,
    pub deferrals: u64,
    pub attributed_micros: i64,
}

fn sink(on: bool) -> Telemetry {
    if on {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    }
}

impl Workload {
    pub fn set_up(shape: Shape, seed: u64) -> Workload {
        match shape {
            Shape::Model(shape) => Workload::Model {
                shape,
                mix: cackle_tpch::profiles::profile_set(100.0),
            },
            Shape::Serve(shape) => Workload::Serve {
                shape,
                mix: cackle_tpch::profiles::evaluation_mix(),
            },
            Shape::Live(shape) => Workload::Live {
                shape,
                catalog: generate_catalog(&DbGenConfig {
                    scale_factor: shape.scale_factor,
                    rows_per_partition: shape.rows_per_partition,
                    seed,
                }),
                queries: shape
                    .queries
                    .iter()
                    .enumerate()
                    .map(|(k, name)| LiveQuery {
                        at_s: 5 * k as u64,
                        plan: Arc::new(plans::plan(name, shape.par)),
                    })
                    .collect(),
            },
        }
    }

    /// Inputs of op `i`: a pure function of `(seed, i)`.
    pub fn prepare(&self, seed: u64, i: u64) -> Input {
        let op_seed = seed.wrapping_add(i);
        match self {
            Workload::Model { shape, mix } => {
                let spec = WorkloadSpec {
                    duration_s: shape.duration_s,
                    num_queries: shape.queries,
                    baseline_load: 0.30,
                    period_s: shape.duration_s,
                    seed: op_seed,
                };
                Input::Model(
                    build_workload(&spec, mix),
                    RunSpec::new().with_seed(op_seed),
                )
            }
            Workload::Serve { shape, .. } => Input::Serve(
                ServeSpec::new(TenantRegistry::homogeneous(
                    shape.tenants,
                    &WorkloadSpec::hour_long(shape.queries, op_seed),
                ))
                .with_runner(Runner::System)
                .with_run(serve_run_spec(shape, op_seed)),
            ),
            Workload::Live { shape, .. } => {
                let mut spec = RunSpec::new()
                    .with_seed(op_seed)
                    .with_workers(shape.workers)
                    .with_rows_per_task_second(LIVE_ROWS_PER_TASK_SECOND)
                    .with_telemetry(&Telemetry::new());
                if shape.stressed {
                    let mut env = Env {
                        shuffle_min_bytes: 256 << 10,
                        ..Env::default()
                    };
                    env.pricing.shuffle_node_capacity_bytes = 64 << 10;
                    spec = spec
                        .with_env(env)
                        .with_faults(live_faults())
                        .with_recovery(recovery());
                }
                Input::Live(spec)
            }
        }
    }

    /// Run one op through the product's plain entry point.
    pub fn run(&self, input: &Input) -> Result<OpResult, String> {
        match (self, input) {
            (Workload::Model { .. }, Input::Model(workload, spec)) => try_run_model(workload, spec)
                .map(|run| OpResult { run, serve: None })
                .map_err(|e| e.to_string()),
            (Workload::Serve { mix, .. }, Input::Serve(spec)) => run_serve(spec, mix)
                .map(|r| OpResult {
                    serve: Some(ServeCounts {
                        admitted: r.admitted(),
                        rejected: r.rejected(),
                        deferrals: r.deferrals(),
                        attributed_micros: r.attributed_total_micros(),
                    }),
                    run: r.run,
                })
                .map_err(|e| e.to_string()),
            (
                Workload::Live {
                    catalog, queries, ..
                },
                Input::Live(spec),
            ) => try_run_live(queries, catalog, spec)
                .map(|run| OpResult { run, serve: None })
                .map_err(|e| e.to_string()),
            _ => Err("input does not belong to this workload".to_string()),
        }
    }

    /// Run one op with spans: `op` → the runner call → every strategy
    /// tick. `run_serve` builds its own strategy, so the serve op is
    /// followed — outside its `op` span — by the same hour under
    /// `run_system_with`, whose ticks can be timed; the `OpResult` is
    /// the serve call's.
    pub fn run_traced(&self, input: &Input, tracer: &Tracer, op: u32) -> Result<OpResult, String> {
        match (self, input) {
            (Workload::Model { .. }, Input::Model(workload, spec)) => {
                let mut strategy = TimedStrategy::dynamic(&spec.env, tracer, op);
                let run = tracer.span("op", op, None, |op_span| {
                    tracer.span("run_model", op, Some(op_span), |parent| {
                        strategy.parent = Some(parent);
                        run_model_with(workload, &mut strategy, spec)
                    })
                });
                Ok(OpResult { run, serve: None })
            }
            (Workload::Serve { shape, mix }, Input::Serve(spec)) => {
                let served = tracer.span("op", op, None, |op_span| {
                    tracer.span("run_serve", op, Some(op_span), |_| self.run(input))
                });
                let seed = spec.run.seed;
                let hour = build_workload(&WorkloadSpec::hour_long(shape.queries, seed), mix);
                let system_spec = serve_run_spec(shape, seed);
                let mut strategy = TimedStrategy::dynamic(&system_spec.env, tracer, op);
                tracer.span("run_system", op, None, |parent| {
                    strategy.parent = Some(parent);
                    run_system_with(&hour, &mut strategy, &system_spec)
                });
                served
            }
            (
                Workload::Live {
                    catalog, queries, ..
                },
                Input::Live(spec),
            ) => {
                let mut strategy = TimedStrategy::dynamic(&spec.env, tracer, op);
                let run = tracer.span("op", op, None, |op_span| {
                    tracer.span("run_live", op, Some(op_span), |parent| {
                        strategy.parent = Some(parent);
                        run_live_with(queries, catalog, &mut strategy, spec)
                    })
                });
                Ok(OpResult { run, serve: None })
            }
            _ => Err("input does not belong to this workload".to_string()),
        }
    }

    /// Live workloads only: run the op once more, at two workers whatever
    /// the workload's own count, gathering every query's output batches,
    /// and compare each with a one-worker `execute_query` of the same plan
    /// over a `MemoryShuffle`. Faults and worker count may cost time and
    /// money, never rows.
    pub fn reference_check(&self, input: &Input) -> Option<Result<(), String>> {
        let (
            Workload::Live {
                shape,
                catalog,
                queries,
            },
            Input::Live(spec),
        ) = (self, input)
        else {
            return None;
        };
        let spec = spec.clone().with_workers(2);
        let mut strategy = make_strategy("dynamic", &spec.env);
        let (_, collected) = run_live_collect(queries, catalog, strategy.as_mut(), &spec);
        let serial = Executor::new(1);
        for (qi, q) in queries.iter().enumerate() {
            let reference =
                serial.execute_query(&q.plan, qi as u64, catalog, &MemoryShuffle::new());
            let schema = q.plan.final_stage().output_schema.clone();
            if Batch::concat(schema, &collected[qi]) != reference {
                return Some(Err(format!(
                    "{} returned different rows from its one-worker reference",
                    shape.queries[qi]
                )));
            }
        }
        Some(Ok(()))
    }
}

/// The fleet `RunSpec` of a serve-shaped op.
pub fn serve_run_spec(shape: &ServeShape, op_seed: u64) -> RunSpec {
    let mut spec = RunSpec::new()
        .with_seed(op_seed)
        .with_workers(shape.workers)
        .with_telemetry(&sink(shape.sink));
    if shape.faults {
        spec = spec.with_faults(serve_faults()).with_recovery(recovery());
    }
    spec
}

/// `make_strategy("dynamic")` behind a decorator that records one span
/// per `target` call — the only way to see strategy time from outside
/// the runners.
pub struct TimedStrategy<'t> {
    inner: Box<dyn ProvisioningStrategy>,
    tracer: &'t Tracer,
    op: u32,
    pub parent: Option<SpanId>,
}

impl<'t> TimedStrategy<'t> {
    pub fn dynamic(env: &Env, tracer: &'t Tracer, op: u32) -> Self {
        TimedStrategy {
            inner: make_strategy("dynamic", env),
            tracer,
            op,
            parent: None,
        }
    }
}

impl ProvisioningStrategy for TimedStrategy<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn target(&mut self, now: u64, history: &WorkloadHistory, env: &Env) -> u32 {
        let inner = &mut self.inner;
        self.tracer.span("tick", self.op, self.parent, |_| {
            inner.target(now, history, env)
        })
    }

    fn on_rates_changed(&mut self, vm_per_sec: f64, pool_per_sec: f64) {
        self.inner.on_rates_changed(vm_per_sec, pool_per_sec);
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.set_telemetry(telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(input: &Input) -> Vec<(u64, String)> {
        match input {
            Input::Model(w, _) => w.iter().map(|q| (q.at_s, q.profile.name.clone())).collect(),
            _ => panic!("model input expected"),
        }
    }

    #[test]
    fn equal_seeds_generate_identical_inputs() {
        let shape = Shape::Model(ModelShape {
            duration_s: 600,
            queries: 40,
        });
        let a = Workload::set_up(shape, 12);
        let b = Workload::set_up(shape, 12);
        for i in 0..3 {
            assert_eq!(arrivals(&a.prepare(12, i)), arrivals(&b.prepare(12, i)));
        }
        // Op i of seed s is op 0 of seed s+i, and different ops differ.
        assert_eq!(arrivals(&a.prepare(12, 2)), arrivals(&a.prepare(14, 0)));
        assert_ne!(arrivals(&a.prepare(12, 0)), arrivals(&a.prepare(12, 1)));
    }

    #[test]
    fn serve_and_live_inputs_carry_the_op_seed() {
        let serve = Workload::set_up(
            Shape::Serve(ServeShape {
                tenants: 3,
                queries: 9,
                faults: true,
                sink: false,
                workers: 1,
            }),
            5,
        );
        match serve.prepare(5, 4) {
            Input::Serve(spec) => {
                assert_eq!(spec.run.seed, 9);
                assert_eq!(spec.tenants.len(), 3);
                assert_eq!(spec.run.faults, serve_faults());
                assert!(!spec.run.telemetry.is_enabled());
            }
            _ => panic!("serve input expected"),
        }
    }

    #[test]
    fn every_workload_name_has_a_shape() {
        for (name, why) in WORKLOADS {
            assert!(shape_of(name).is_some(), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!(shape_of("nope").is_none());
    }
}
