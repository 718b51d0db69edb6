//! Layer probes: each layer's public functions, timed from outside at
//! fixed sizes. They run the same way in every traced process, whatever
//! its workload, so a probe row means the same thing in all four
//! reports; the rows that describe the workload itself come from its own
//! traced ops (see `harness.rs`). Inputs derive from the seed.

use crate::metrics::{Row, Rows};
use crate::stats::{median, sorted, Summary};
use crate::trace::{durations, Tracer};
use crate::workloads::{
    live_faults, serve_run_spec, Input, LiveShape, ServeShape, Shape, TimedStrategy, Workload,
    LIVE_JOIN_SHUFFLE, LIVE_SCAN_AGG, MODEL_SWEEP, SERVE_SYSTEM_HOUR,
};
use cackle::history::SlidingQuantile;
use cackle::model::workload_curves;
use cackle::{
    build_workload, make_strategy, oracle_cost, run_system_with, AllocationSim, Env, FaultInjector,
    FaultPlan, HybridShuffle, QueryArrival, StoreOp, Telemetry, WorkloadHistory,
};
use cackle_cloud::{
    CostCategory, CostLedger, ElasticPool, EventQueue, ObjectStore, Pricing, SimDuration, SimTime,
    VmFleet,
};
use cackle_engine::codec::{decode_batch, encode_batch};
use cackle_engine::executor::Executor;
use cackle_engine::shuffle::{MemoryShuffle, ShuffleKey, ShuffleStats, ShuffleTransport};
use cackle_serve::{
    attribute, Meter, PriorityClass, QueuedQuery, QuotaSpec, SchedulerConfig, TokenBucket,
    WdrrScheduler,
};
use cackle_workload::WorkloadSpec;
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Deterministic xorshift64* for probe inputs (the repository's PRNG
/// crate is not part of the surface this benchmark pins).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Seconds one call of `f` takes; its result is kept observable so the
/// compiler cannot delete the work.
pub fn time_s<R>(mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Nanoseconds per call of `f`: `reps` samples, each the mean over
/// `calls` back-to-back calls, after one warm-up batch.
fn ns_per_call(reps: usize, calls: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let mut batch = || time_s(|| (0..calls).for_each(&mut f)) * 1e9 / calls as f64;
    batch();
    (0..reps).map(|_| batch()).collect()
}

fn mib_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / (1 << 20) as f64 / seconds
}

/// Median wall milliseconds of `f` over `reps` calls.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| time_s(&mut f) * 1e3).collect();
    median(&sorted(&samples))
}

/// Run every probe and push its rows.
/// Run every probe and push its rows. `reps` is the number of samples
/// behind each median (five in a full run, one in a smoke run).
pub fn run_all(seed: u64, reps: usize, rows: &mut Rows) {
    core_strategy(seed, reps, rows);
    workload_and_model(seed, reps, rows);
    cloud(reps, rows);
    faults(seed, reps, rows);
    telemetry(reps, rows);
    serve_parts(seed, reps, rows);
    system_and_serve_ops(seed, reps, rows);
    transports(reps, rows);
    codec_and_shuffle(seed, reps, rows);
    crate::kernels::kernel_rows(seed, reps, rows);
    live_engine(seed, reps, rows);
}

fn demand_curve(seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed);
    (0..3600u64)
        .map(|t| {
            let wave = ((t as f64 / 3600.0 * std::f64::consts::TAU).sin() + 1.2) * 200.0;
            wave as u32 + rng.below(40) as u32
        })
        .collect()
}

fn core_strategy(seed: u64, reps: usize, rows: &mut Rows) {
    let demand = demand_curve(seed);
    let mut history = WorkloadHistory::new();
    demand.iter().for_each(|&d| history.push(d));
    rows.median_of(
        "core.history.percentile_ns",
        "ns",
        &ns_per_call(reps, 2_000, |i| {
            black_box(history.percentile(300, 50 + (i % 50) as u8));
        }),
    );
    let mut sliding = SlidingQuantile::new(300);
    rows.median_of(
        "core.history.sliding_ns",
        "ns",
        &ns_per_call(reps, 20_000, |i| {
            sliding.push(demand[i % demand.len()]);
            black_box(sliding.percentile(90));
        }),
    );
    let env = Env::default();
    let mut sim = AllocationSim::new(&env);
    rows.median_of(
        "core.allocsim.step_ns",
        "ns",
        &ns_per_call(reps, 20_000, |i| {
            let d = demand[i % demand.len()];
            sim.step(d / 2 + (i % 7) as u32, d);
        }),
    );
    let samples: Vec<f64> = (0..reps.min(3))
        .map(|_| time_s(|| oracle_cost(&demand, &env)) * 1e3)
        .collect();
    rows.median_of("core.oracle.cost_ms", "ms", &samples);
}

fn model_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        duration_s: MODEL_SWEEP.duration_s,
        num_queries: MODEL_SWEEP.queries,
        baseline_load: 0.30,
        period_s: MODEL_SWEEP.duration_s,
        seed,
    }
}

fn workload_and_model(seed: u64, reps: usize, rows: &mut Rows) {
    let mix = cackle_tpch::profiles::profile_set(100.0);
    let mut built: Vec<QueryArrival> = Vec::new();
    let build: Vec<f64> = (0..reps as u64)
        .map(|k| {
            let spec = model_spec(seed + k);
            time_s(|| built = build_workload(&spec, &mix)) * 1e6 / (spec.num_queries as f64 / 1e3)
        })
        .collect();
    rows.median_of("workload.build_us_per_kquery", "us", &build);
    let curves: Vec<f64> = (0..reps)
        .map(|_| time_s(|| workload_curves(&built)) * 1e3)
        .collect();
    rows.median_of("workload.curves_ms", "ms", &curves);

    // The model runner's own time: op wall minus its strategy ticks.
    let model = Workload::set_up(Shape::Model(MODEL_SWEEP), seed);
    let tracer = Tracer::new();
    for op in 0..reps.min(3) as u32 {
        let input = model.prepare(seed, op as u64);
        black_box(model.run_traced(&input, &tracer, op).is_ok());
    }
    let spans = tracer.into_spans();
    let own = crate::trace::self_ns(&spans);
    let self_ms: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "run_model")
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    rows.median_of("core.model.self_ms", "ms", &self_ms);
}

fn cloud(reps: usize, rows: &mut Rows) {
    // Event queue at 10^5 pending: schedule all, pop all.
    const PENDING: u64 = 100_000;
    let mut rng = Rng::new(1);
    let times: Vec<SimTime> = (0..PENDING)
        .map(|_| SimTime::from_millis(rng.below(3_600_000)))
        .collect();
    let per_event: Vec<f64> = (0..reps)
        .map(|_| {
            let mut q: EventQueue<u32> = EventQueue::new();
            time_s(|| {
                for (i, &at) in times.iter().enumerate() {
                    q.schedule(at, i as u32);
                }
                while let Some(ev) = q.pop() {
                    black_box(ev);
                }
            }) * 1e9
                / PENDING as f64
        })
        .collect();
    rows.median_of("cloud.events.ns_per_event", "ns", &per_event);

    let pricing = Pricing::default();
    let ready = SimTime::ZERO + pricing.vm_startup;
    let mut fleet = VmFleet::new(pricing.clone());
    fleet.set_target(SimTime::ZERO, 256);
    fleet.poll(ready);
    rows.median_of(
        "cloud.vm.assign_release_ns",
        "ns",
        &ns_per_call(reps, 20_000, |i| {
            let now = ready + SimDuration::from_millis(i as u64);
            if let Some(id) = fleet.try_assign(now) {
                fleet.release(now, id);
            }
        }),
    );
    let mut fleet = VmFleet::new(pricing.clone());
    rows.median_of(
        "cloud.vm.resize_poll_ns",
        "ns",
        &ns_per_call(reps, 5_000, |i| {
            let now = SimTime::from_secs(i as u64 * 5);
            fleet.set_target(now, 64 + (i % 5) * 16);
            black_box(fleet.poll(now));
        }),
    );
    let mut pool = ElasticPool::new(pricing.clone());
    rows.median_of(
        "cloud.pool.invoke_complete_ns",
        "ns",
        &ns_per_call(reps, 20_000, |i| {
            let now = SimTime::from_millis(i as u64);
            let (id, start) = pool.invoke(now);
            black_box(pool.complete(start + SimDuration::from_millis(250), id));
        }),
    );
    let mut ledger = CostLedger::new();
    rows.median_of(
        "cloud.ledger.charge_ns",
        "ns",
        &ns_per_call(reps, 20_000, |i| {
            ledger.charge(CostCategory::VmCompute, 1e-5);
            ledger.charge_requests(CostCategory::S3Get, 1 + (i % 3) as u64, pricing.s3_get);
            ledger.charge_micros(CostCategory::Egress, 3);
        })
        .iter()
        .map(|ns| ns / 3.0)
        .collect::<Vec<f64>>(),
    );
    let store = ObjectStore::new(pricing);
    let object = vec![7u8; 64 << 10];
    let put_get: Vec<f64> = ns_per_call(reps, 500, |i| {
        let key = format!("probe/{}", i % 64);
        store.put(&key, object.clone());
        black_box(store.get(&key));
    })
    .iter()
    .map(|ns| ns / 1e3)
    .collect();
    rows.median_of("cloud.store.put_get_us", "us", &put_get);
}

fn injector(spec: &cackle::FaultSpec, seed: u64) -> FaultInjector {
    let plan = FaultPlan::compile(spec, seed).expect("the benchmark's fault plans are valid");
    FaultInjector::new(plan, crate::workloads::recovery())
}

fn faults(seed: u64, reps: usize, rows: &mut Rows) {
    let inj = injector(&live_faults(), seed);
    rows.median_of(
        "faults.keyed_draw_ns",
        "ns",
        &ns_per_call(reps, 20_000, |i| {
            black_box(inj.store_attempts_keyed(StoreOp::Get, i as u64));
        }),
    );
    rows.median_of(
        "faults.seq_draw_ns",
        "ns",
        &ns_per_call(reps, 20_000, |_| {
            black_box(inj.straggler());
        }),
    );
}

/// A telemetry shard the size one engine task records.
fn task_shard() -> Telemetry {
    let shard = Telemetry::new();
    shard.counter_add("engine.tasks_total", 1);
    shard.counter_add("engine.task_rows_out_total", 4096);
    shard.counter_add("engine.shuffle_writes_total", 8);
    shard.counter_add("engine.shuffle_bytes_written_total", 65_536);
    shard.counter_add("engine.scratch_checkouts_total", 12);
    shard.counter_add("engine.scratch_reuses_total", 9);
    shard.observe("engine.task_rows_in", 8192.0);
    shard
}

fn telemetry(reps: usize, rows: &mut Rows) {
    let sink = Telemetry::new();
    let shard = task_shard();
    let merge: Vec<f64> = ns_per_call(reps, 5_000, |_| sink.merge(&shard))
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    rows.median_of("telemetry.merge_us_per_shard", "us", &merge);
    rows.median_of(
        "telemetry.counter_add_ns",
        "ns",
        &ns_per_call(reps, 50_000, |_| sink.counter_add("run.queries_total", 1)),
    );
}

fn serve_parts(seed: u64, reps: usize, rows: &mut Rows) {
    let mut bucket = TokenBucket::new(QuotaSpec::per_second(50.0));
    rows.median_of(
        "serve.admission.take_ns",
        "ns",
        &ns_per_call(reps, 50_000, |i| {
            black_box(bucket.try_take(i as u64 / 40));
        }),
    );
    const QUEUED: usize = 10_000;
    let mut out: Vec<QueuedQuery> = Vec::with_capacity(QUEUED);
    let per_query: Vec<f64> = (0..reps)
        .map(|_| {
            let mut sched = WdrrScheduler::new(SchedulerConfig::default());
            out.clear();
            time_s(|| {
                for i in 0..QUEUED {
                    let class = PriorityClass::ALL[i % 3];
                    sched.enqueue(
                        class,
                        QueuedQuery {
                            tenant: i % 1000,
                            arrival_s: (i / 100) as u64,
                            seq: i,
                        },
                    );
                }
                while sched.queued() > 0 {
                    sched.dispatch_second(&mut out);
                }
            }) * 1e9
                / QUEUED as f64
        })
        .collect();
    rows.median_of("serve.scheduler.ns_per_query", "ns", &per_query);

    // Attribution of one real serve op's bill over its 1000 tenants.
    let serve = Workload::set_up(Shape::Serve(SERVE_SYSTEM_HOUR), seed);
    let result = serve
        .run(&serve.prepare(seed, 0))
        .expect("the serve op succeeds on generated inputs");
    let mut rng = Rng::new(seed);
    let mut meter = Meter::new(SERVE_SYSTEM_HOUR.tenants);
    for t in 0..SERVE_SYSTEM_HOUR.tenants {
        meter.task_seconds[t] = rng.below(5_000);
        meter.shuffle_requests[t] = rng.below(20_000);
    }
    let attribution: Vec<f64> = (0..reps)
        .map(|_| time_s(|| attribute(&result.run, &meter)) * 1e3)
        .collect();
    rows.median_of("serve.attribution_ms", "ms", &attribution);

    // The same op's sink, exported.
    let mut dump = String::new();
    let export: Vec<f64> = (0..reps.min(3))
        .map(|_| time_s(|| dump = result.run.telemetry.export_jsonl()) * 1e3)
        .collect();
    rows.median_of("telemetry.export_ms", "ms", &export);
    rows.single("telemetry.dump_bytes", "bytes", dump.len() as f64);
}

/// Median wall milliseconds of each of `variants`, run round-robin for
/// `reps` rounds so that drift on the host lands on all of them alike.
/// Each variant is told which round it is in.
fn interleaved_ms<const N: usize>(reps: usize, mut variants: [&mut dyn FnMut(u64); N]) -> [f64; N] {
    let mut samples = vec![Vec::with_capacity(reps); N];
    for round in 0..reps as u64 {
        for (variant, out) in variants.iter_mut().zip(&mut samples) {
            out.push(time_s(|| variant(round)) * 1e3);
        }
    }
    std::array::from_fn(|k| median(&sorted(&samples[k])))
}

fn system_and_serve_ops(seed: u64, reps: usize, rows: &mut Rows) {
    // The serve op against itself with one thing taken away: op `round`
    // of the same seed under every variant.
    let base = SERVE_SYSTEM_HOUR;
    let serve = |shape: ServeShape| {
        let w = Workload::set_up(Shape::Serve(shape), seed);
        move |round: u64| {
            black_box(w.run(&w.prepare(seed, round)).is_ok());
        }
    };
    let [full, no_plan, no_sink, one_tenant] = interleaved_ms(
        reps,
        [
            &mut serve(base),
            &mut serve(ServeShape {
                faults: false,
                ..base
            }),
            &mut serve(ServeShape {
                sink: false,
                ..base
            }),
            &mut serve(ServeShape { tenants: 1, ..base }),
        ],
    );
    rows.single("faults.plan_overhead_frac", "ratio", full / no_plan - 1.0);
    rows.single(
        "telemetry.sink_overhead_frac",
        "ratio",
        full / no_sink - 1.0,
    );
    rows.single(
        "serve.tenant_overhead_frac",
        "ratio",
        full / one_tenant - 1.0,
    );

    // The system runner alone, ticks timed: self time and time per task.
    let mix = cackle_tpch::profiles::evaluation_mix();
    let hour = |queries: usize| build_workload(&WorkloadSpec::hour_long(queries, seed), &mix);
    let tasks = |w: &[QueryArrival]| -> f64 {
        w.iter()
            .flat_map(|q| q.profile.stages.iter())
            .map(|s| s.tasks as f64)
            .sum()
    };
    let small = hour(base.queries);
    let tracer = Tracer::new();
    for op in 0..reps.min(3) as u32 {
        let spec = serve_run_spec(&base, seed);
        let mut strategy = TimedStrategy::dynamic(&spec.env, &tracer, op);
        tracer.span("run_system", op, None, |parent| {
            strategy.parent = Some(parent);
            black_box(run_system_with(&small, &mut strategy, &spec));
        });
    }
    let spans = tracer.into_spans();
    let own = crate::trace::self_ns(&spans);
    let self_ms: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "run_system")
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    rows.median_of("core.system.self_ms", "ms", &self_ms);
    let wall_ms = Summary::of(&durations(&spans, "run_system", 1e6)).median;
    let us_per_task = wall_ms * 1e3 / tasks(&small);
    rows.single("core.system.us_per_task", "us", us_per_task);

    // Untimed-strategy runs for the two ratios.
    let system = |w: &[QueryArrival], workers: u32| {
        let spec = serve_run_spec(&ServeShape { workers, ..base }, seed);
        let mut strategy = make_strategy("dynamic", &spec.env);
        black_box(run_system_with(w, strategy.as_mut(), &spec));
    };
    let [w1, w2] = interleaved_ms(
        reps,
        [&mut |_| system(&small, 1), &mut |_| system(&small, 2)],
    );
    rows.single("core.system.w2_over_w1", "ratio", w2 / w1);
    let large = hour(base.queries * 4);
    let large_ms = median_ms(reps.min(2), || system(&large, 1));
    rows.single(
        "core.system.scale_ratio",
        "ratio",
        (large_ms / tasks(&large)) / (w1 / tasks(&small)),
    );
}

fn transports(reps: usize, rows: &mut Rows) {
    const CHUNKS: u32 = 256;
    const CHUNK_BYTES: usize = 64 << 10;
    let chunk = vec![5u8; CHUNK_BYTES];
    let throughput = |node_capacity: u64| -> Vec<f64> {
        (0..reps as u64)
            .map(|rep| {
                let store = Arc::new(ObjectStore::new(Pricing::default()));
                let shuffle = HybridShuffle::new(4, node_capacity, store);
                let key = |partition: u32| ShuffleKey {
                    query: rep,
                    stage: 0,
                    partition,
                };
                let s = time_s(|| {
                    for p in 0..CHUNKS {
                        shuffle.write(key(p % 16), p / 16, chunk.clone());
                    }
                    for p in 0..16 {
                        black_box(shuffle.read(key(p)));
                    }
                });
                mib_per_s(CHUNKS as usize * CHUNK_BYTES * 2, s)
            })
            .collect()
    };
    rows.median_of(
        "core.transport.node_mib_per_s",
        "MiB/s",
        &throughput(1 << 30),
    );
    // 64 KiB nodes hold one chunk each: everything else takes the
    // billed object-store fallback.
    rows.median_of(
        "core.transport.s3_fallback_mib_per_s",
        "MiB/s",
        &throughput(64 << 10),
    );
}

fn codec_and_shuffle(seed: u64, reps: usize, rows: &mut Rows) {
    let mut rng = Rng::new(seed);
    let batches = crate::kernels::make_batches(&mut rng, 16, crate::kernels::ROWS, "");
    let schema = batches[0].schema.clone();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let encode_s: Vec<f64> = (0..=reps)
        .map(|_| time_s(|| encoded = batches.iter().map(encode_batch).collect()))
        .collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let decode_s: Vec<f64> = (0..=reps)
        .map(|_| {
            time_s(|| {
                for e in &encoded {
                    black_box(decode_batch(e, schema.clone()));
                }
            })
        })
        .collect();
    let rate = |s: &[f64]| -> Vec<f64> { s[1..].iter().map(|&s| mib_per_s(bytes, s)).collect() };
    rows.median_of("engine.codec.encode_mib_per_s", "MiB/s", &rate(&encode_s));
    rows.median_of("engine.codec.decode_mib_per_s", "MiB/s", &rate(&decode_s));

    let memory: Vec<f64> = (0..reps as u64)
        .map(|rep| {
            let shuffle = MemoryShuffle::new();
            let key = |partition: u32| ShuffleKey {
                query: rep,
                stage: 0,
                partition,
            };
            let s = time_s(|| {
                for (i, e) in encoded.iter().enumerate() {
                    shuffle.write(key(i as u32 % 4), i as u32 / 4, e.clone());
                }
                for p in 0..4 {
                    black_box(shuffle.read(key(p)));
                }
            });
            mib_per_s(bytes * 2, s)
        })
        .collect();
    rows.median_of("engine.shuffle.memory_mib_per_s", "MiB/s", &memory);
}

/// A transport that records one span per `write` and `read` under the
/// stage span the driver names before each stage.
struct TracedTransport<'t> {
    inner: &'t dyn ShuffleTransport,
    tracer: &'t Tracer,
    /// Span id of the stage in flight. Stored before the stage starts
    /// and read by its tasks; the executor's thread scope orders the two.
    stage: AtomicU32,
    op: u32,
}

impl ShuffleTransport for TracedTransport<'_> {
    fn write(&self, key: ShuffleKey, producer_task: u32, data: Vec<u8>) {
        let parent = Some(self.stage.load(Ordering::Relaxed));
        self.tracer.span("transport.write", self.op, parent, |_| {
            self.inner.write(key, producer_task, data)
        })
    }

    fn read(&self, key: ShuffleKey) -> Vec<Arc<[u8]>> {
        let parent = Some(self.stage.load(Ordering::Relaxed));
        self.tracer
            .span("transport.read", self.op, parent, |_| self.inner.read(key))
    }

    fn delete_query(&self, query: u64) {
        self.inner.delete_query(query)
    }

    fn stats(&self) -> ShuffleStats {
        self.inner.stats()
    }
}

/// Stand-alone wall milliseconds of each query of a live shape
/// (`Executor::execute_query` over a `MemoryShuffle`), median of up to three.
fn query_ms(shape: &LiveShape, w: &Workload, workers: u32, reps: usize) -> Vec<f64> {
    let Workload::Live {
        catalog, queries, ..
    } = w
    else {
        return Vec::new();
    };
    let executor = Executor::new(workers);
    (0..shape.queries.len())
        .map(|qi| {
            median_ms(reps.min(3), || {
                let shuffle = MemoryShuffle::new();
                black_box(executor.execute_query(&queries[qi].plan, qi as u64, catalog, &shuffle));
            })
        })
        .collect()
}

fn live_engine(seed: u64, reps: usize, rows: &mut Rows) {
    let mut dbgen = Vec::new();
    let mut set_up = |shape: LiveShape| {
        let mut w = None;
        let s = time_s(|| w = Some(Workload::set_up(Shape::Live(shape), seed)));
        let w = w.expect("set up");
        if let Workload::Live { catalog, .. } = &w {
            let table_rows: usize = catalog
                .table_names()
                .iter()
                .map(|t| catalog.get(t).num_rows())
                .sum();
            // Plan building is microseconds against dbgen's hundreds of
            // milliseconds; it is timed on its own below.
            dbgen.push(table_rows as f64 / 1e3 / s);
        }
        w
    };
    let scan = set_up(LIVE_SCAN_AGG);
    let join = set_up(LIVE_JOIN_SHUFFLE);
    rows.median_of("tpch.dbgen.krows_per_s", "krows/s", &dbgen);

    let names: Vec<&str> = LIVE_SCAN_AGG
        .queries
        .iter()
        .chain(LIVE_JOIN_SHUFFLE.queries)
        .copied()
        .collect();
    let plan_us: Vec<f64> = ns_per_call(reps, 20, |i| {
        let name = names[i % names.len()];
        black_box(cackle_tpch::plans::plan(name, LIVE_JOIN_SHUFFLE.par));
    })
    .iter()
    .map(|ns| ns / 1e3)
    .collect();
    rows.median_of("tpch.plans.build_us", "us", &plan_us);

    // Every query stand-alone, at its workload's worker count.
    let scan_ms = query_ms(&LIVE_SCAN_AGG, &scan, LIVE_SCAN_AGG.workers, reps);
    let join_ms = query_ms(&LIVE_JOIN_SHUFFLE, &join, LIVE_JOIN_SHUFFLE.workers, reps);
    for (name, ms) in names.iter().zip(scan_ms.iter().chain(&join_ms)) {
        rows.single(&format!("engine.query.{name}.ms"), "ms", *ms);
    }
    // `live_join_shuffle` runs at one worker, so its rows above are the
    // one-worker side of the ratio.
    const _: () = assert!(LIVE_JOIN_SHUFFLE.workers == 1);
    let join_w2: f64 = query_ms(&LIVE_JOIN_SHUFFLE, &join, 2, reps).iter().sum();
    let join_total: f64 = join_ms.iter().sum();
    rows.single("engine.executor.w2_over_w1", "ratio", join_w2 / join_total);

    // What the live runner adds on top of executing the same plans.
    let live_op_ms = {
        let samples: Vec<f64> = (0..reps.min(3) as u64)
            .map(|i| {
                let input = join.prepare(seed, i);
                time_s(|| join.run(&input).is_ok()) * 1e3
            })
            .collect();
        median(&sorted(&samples))
    };
    rows.single(
        "core.live.overhead_frac",
        "ratio",
        (live_op_ms - join_total) / live_op_ms,
    );

    let barrier: Vec<f64> = ns_per_call(reps, 200, |_| {
        black_box(Executor::new(2).run_indexed(16, |i| i));
    })
    .iter()
    .map(|ns| ns / 1e3)
    .collect();
    rows.median_of("engine.executor.barrier_us", "us", &barrier);

    staged_execution(seed, reps, &join, rows);
}

/// Drive `live_join_shuffle`'s plans stage by stage the way the live
/// runner does — tiny shuffle nodes over a faulted, billed store, a live
/// sink taking shard merges — through [`TracedTransport`], so the serial
/// publish inside each stage shows as child spans.
fn staged_execution(seed: u64, reps: usize, join: &Workload, rows: &mut Rows) {
    let Workload::Live {
        catalog, queries, ..
    } = join
    else {
        return;
    };
    let Input::Live(spec) = join.prepare(seed, 0) else {
        return;
    };
    let tracer = Tracer::new();
    for op in 0..reps.min(2) as u32 {
        let sink = Telemetry::new();
        let faults = injector(&live_faults(), seed).instrumented(&sink);
        let pricing = spec.env.pricing.clone();
        let store = Arc::new(ObjectStore::new(pricing.clone()));
        store.inject_faults(&faults);
        let nodes = (spec.env.shuffle_min_bytes / pricing.shuffle_node_capacity_bytes).max(1);
        let hybrid = HybridShuffle::new(nodes as usize, pricing.shuffle_node_capacity_bytes, store)
            .with_faults(&faults);
        let transport = TracedTransport {
            inner: &hybrid,
            tracer: &tracer,
            stage: AtomicU32::new(0),
            op,
        };
        let executor = Executor::new(LIVE_JOIN_SHUFFLE.workers);
        for (qi, q) in queries.iter().enumerate() {
            for stage in &q.plan.stages {
                tracer.span("engine.stage", op, None, |id| {
                    transport.stage.store(id, Ordering::Relaxed);
                    black_box(executor.execute_stage(
                        &q.plan, stage.id, qi as u64, catalog, &transport, &sink, &faults,
                    ));
                });
            }
            transport.delete_query(qi as u64);
        }
    }
    let spans = tracer.into_spans();
    let stage_ms = durations(&spans, "engine.stage", 1e6);
    rows.median_of("engine.executor.stage_ms_p50", "ms", &stage_ms);
    rows.push(Row::percentile_of(
        "engine.executor.stage_ms_p90",
        "ms",
        &stage_ms,
        90.0,
    ));
    let publish: f64 = durations(&spans, "transport.write", 1e6).iter().sum();
    rows.single(
        "engine.executor.publish_frac",
        "ratio",
        publish / stage_ms.iter().sum::<f64>(),
    );
}
