//! Deterministic worker-pool stage executor.
//!
//! A Cackle stage fans its tasks out across many workers at once (Lambda
//! invocations in the paper; Starling runs hundreds of cloud-function
//! tasks concurrently). This module is the one blessed home of threads in
//! the workspace (clippy.toml disallows `std::thread::{spawn, scope}`
//! anywhere else):
//! it runs all ready tasks of a stage on a small `std::thread` pool while
//! keeping every run byte-identical for *any* worker count, including 1.
//!
//! Determinism comes from structure, not luck:
//!
//! * **Fixed work-item ordering.** The work list is the stage's task
//!   indices `0..tasks`; workers claim indices from a shared atomic
//!   counter, but results land in index-addressed slots, so the output
//!   vector is always in task order no matter which worker ran what.
//! * **Publication at the barrier, by type.** The parallel phase only
//!   *computes*: each task materializes its operator tree and returns its
//!   exchange chunks and engine counters ([`TaskExecution::run_buffered`]).
//!   A task's [`TaskContext`] holds the shuffle as a read-only
//!   [`ShuffleReader`](crate::shuffle::ShuffleReader) and no telemetry
//!   sink, and the engine does not depend on `cackle-cloud`, so task code
//!   cannot publish a chunk, record a metric or name a `CostLedger`. The
//!   stage barrier below writes the chunks and records the counters
//!   serially in task-index order — node-tier placement is
//!   first-come-first-served, so publication order must not depend on
//!   thread scheduling. Every worker count — including 1 — goes through
//!   the same barrier, so the registry is identical at `workers = 1, 2, 8`.
//! * **Keyed fault draws.** Task code draws no fault. The object store
//!   and the shuffle transport it reaches hold a
//!   [`TaskFaults`](cackle_faults::TaskFaults) view, whose only draws are
//!   keyed by the operation's stable identity and so are dispatch-order-
//!   independent. The coordinator's `FaultInjector`, with its shared
//!   sequential streams, is `!Sync`: a worker closure that captures one
//!   does not compile (see [`Executor::run_indexed`]).
//!
//! Worker count is therefore a pure throughput knob — it is deliberately
//! *not* part of the seed, and changing it must not move a single byte
//! of any report or telemetry dump (`tests/determinism.rs` enforces
//! this at workers = 1, 2, 8).

// Hot path: no panic paths outside tests (clippy.toml exempts test code).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::batch::Batch;
use crate::plan::{StageDag, StageId};
use crate::shuffle::ShuffleTransport;
use crate::table::Catalog;
use crate::task::{TaskContext, TaskExecution, TaskResult};
use cackle_faults::FaultInjector;
use cackle_telemetry::{catalog, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

// Compile-time proof that everything a worker closure captures can cross
// threads (`dyn ShuffleTransport` is `Send + Sync` by declaration).
#[allow(dead_code)]
fn assert_sync<T: ?Sized + Sync>() {}
const _: () = {
    let _ = assert_sync::<StageDag>;
    let _ = assert_sync::<Catalog>;
    let _ = assert_sync::<dyn ShuffleTransport>;
    let _ = assert_sync::<Telemetry>;
};

/// A deterministic worker pool. Cheap to construct; holds no threads —
/// each [`Executor::run_indexed`] call spins up scoped workers and joins
/// them before returning.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    workers: u32,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(1)
    }
}

impl Executor {
    /// An executor with `workers` threads (`0` is treated as `1`).
    pub fn new(workers: u32) -> Self {
        Executor {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// Run `f(0..n)` across the pool and return the results **in index
    /// order**. Workers claim indices dynamically from an atomic counter
    /// (load balancing), but each result lands in its index's slot, so
    /// the returned vector is independent of scheduling. With one worker
    /// (or one item) this is a plain serial loop on the caller's thread.
    ///
    /// `f` must be safe to call from multiple threads at once; any
    /// cross-index effects it has must be order-independent (commutative
    /// counters, keyed draws) or buffered for the caller to apply in
    /// index order after the pool joins.
    ///
    /// The `Sync` bound is what keeps sequential fault draws out of the
    /// pool: the coordinator's `FaultInjector` is `!Sync`, so a closure
    /// that captures one is rejected —
    ///
    /// ```compile_fail
    /// use cackle_engine::executor::Executor;
    /// use cackle_faults::FaultInjector;
    /// let inj = FaultInjector::disabled();
    /// Executor::new(2).run_indexed(4, |_| inj.straggler());
    /// ```
    ///
    /// — while its keyed view crosses threads freely:
    ///
    /// ```
    /// use cackle_engine::executor::Executor;
    /// use cackle_faults::{FaultInjector, StoreOp};
    /// let inj = FaultInjector::disabled();
    /// let tasks = inj.keyed();
    /// let attempts =
    ///     Executor::new(2).run_indexed(4, |i| tasks.store_attempts_keyed(StoreOp::Get, i as u64));
    /// assert_eq!(attempts, [1; 4]);
    /// ```
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.workers == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "the stage executor is the workspace's one thread pool"
        )]
        std::thread::scope(|scope| {
            for _ in 0..(self.workers as usize).min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i);
                    if let Ok(mut slot) = slots[i].lock() {
                        *slot = Some(r);
                    }
                });
            }
        });
        // The scope propagates worker panics, so every slot is filled
        // here; flatten instead of unwrapping keeps this panic-free.
        slots
            .into_iter()
            .filter_map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect()
    }

    /// Execute every task of one stage: the parallel phase computes,
    /// then the serial barrier writes each task's shuffle chunks and
    /// records its engine counters into `telemetry`, in task-index order.
    /// This barrier is the engine's only caller of
    /// [`ShuffleTransport::write`]. Returns the per-task results in task
    /// order. Tasks draw no fault, so `_faults` goes unread: the run's
    /// plan reaches the transport and the object store through their own
    /// keyed views.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_stage(
        &self,
        dag: &StageDag,
        stage_id: StageId,
        query_id: u64,
        catalog: &Catalog,
        shuffle: &dyn ShuffleTransport,
        telemetry: &Telemetry,
        _faults: &FaultInjector,
    ) -> Vec<TaskResult> {
        let tasks = dag.stages[stage_id].tasks as usize;
        let ran = self.run_indexed(tasks, |i| {
            let ctx = TaskContext::new(dag, stage_id, i as u32, query_id, catalog, shuffle);
            TaskExecution::new(&ctx).run_buffered()
        });
        let mut results = Vec::with_capacity(ran.len());
        for (task, buffered) in ran.into_iter().enumerate() {
            for (key, data) in buffered.writes {
                shuffle.write(key, task as u32, data);
            }
            record_engine_counters(telemetry, &buffered.result);
            results.push(buffered.result);
        }
        results
    }

    /// Execute every stage of a plan in dependency order (stages are
    /// barriers), gathering the final stage's output, with telemetry and
    /// faults off.
    pub fn execute_query(
        &self,
        dag: &StageDag,
        query_id: u64,
        catalog: &Catalog,
        shuffle: &dyn ShuffleTransport,
    ) -> Batch {
        let telemetry = Telemetry::disabled();
        let faults = FaultInjector::disabled();
        let mut gathered: Vec<Batch> = Vec::new();
        for stage in &dag.stages {
            let results = self.execute_stage(
                dag, stage.id, query_id, catalog, shuffle, &telemetry, &faults,
            );
            for r in results {
                if let Some(batches) = r.output {
                    gathered.extend(batches);
                }
            }
        }
        shuffle.delete_query(query_id);
        let schema = dag.final_stage().output_schema.clone();
        Batch::concat(schema, &gathered)
    }
}

/// One task's `engine.*` counters, recorded at the barrier (a no-op when
/// `telemetry` is disabled).
fn record_engine_counters(telemetry: &Telemetry, r: &TaskResult) {
    telemetry.add(catalog::ENGINE_TASKS_TOTAL, 1);
    telemetry.add(catalog::ENGINE_TASK_ROWS_OUT_TOTAL, r.rows_out);
    telemetry.add(
        catalog::ENGINE_SHUFFLE_BYTES_WRITTEN_TOTAL,
        r.shuffle_bytes_written,
    );
    telemetry.add(catalog::ENGINE_SHUFFLE_WRITES_TOTAL, r.shuffle_writes);
    telemetry.record(catalog::ENGINE_TASK_ROWS_IN, r.rows_in as f64);
    telemetry.add(catalog::ENGINE_SCRATCH_CHECKOUTS_TOTAL, r.scratch_checkouts);
    telemetry.add(catalog::ENGINE_SCRATCH_REUSES_TOTAL, r.scratch_reuses);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_batch;

    #[test]
    fn run_indexed_returns_results_in_index_order() {
        for workers in [1, 2, 3, 8, 16] {
            let ex = Executor::new(workers);
            let out = ex.run_indexed(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        // Degenerate sizes.
        assert_eq!(Executor::new(8).run_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(Executor::new(8).run_indexed(1, |i| i), vec![0]);
        // Zero workers behaves as one.
        assert_eq!(Executor::new(0).workers(), 1);
    }

    #[test]
    fn parallel_query_matches_serial_query_bytes() {
        // The tentpole contract at engine level: the executor's gathered
        // output is byte-identical to the serial driver's, for any
        // worker count.
        let cat = crate::task::tests::catalog();
        let dag = crate::task::tests::agg_plan();
        let serial = {
            let shuffle = crate::shuffle::MemoryShuffle::new();
            Executor::new(1).execute_query(&dag, 1, &cat, &shuffle)
        };
        let serial_bytes = encode_batch(&serial);
        for workers in [1u32, 2, 8] {
            let shuffle = crate::shuffle::MemoryShuffle::new();
            let parallel = Executor::new(workers).execute_query(&dag, 1, &cat, &shuffle);
            assert_eq!(
                encode_batch(&parallel),
                serial_bytes,
                "workers={workers} diverged from serial execution"
            );
            assert_eq!(shuffle.resident_bytes(), 0, "query state cleaned up");
        }
    }

    #[test]
    fn stage_results_and_telemetry_are_worker_count_independent() {
        let cat = crate::task::tests::catalog();
        let dag = crate::task::tests::agg_plan();
        let dump = |workers: u32| {
            let shuffle = crate::shuffle::MemoryShuffle::new();
            let t = Telemetry::new();
            let ex = Executor::new(workers);
            let mut rows = Vec::new();
            for stage in &dag.stages {
                let results = ex.execute_stage(
                    &dag,
                    stage.id,
                    7,
                    &cat,
                    &shuffle,
                    &t,
                    &FaultInjector::disabled(),
                );
                rows.extend(results.iter().map(|r| (r.rows_in, r.rows_out)));
            }
            (rows, t.export_jsonl())
        };
        let baseline = dump(1);
        for workers in [2u32, 8] {
            assert_eq!(dump(workers), baseline, "workers={workers}");
        }
        assert!(baseline.1.contains("engine.tasks_total"));
    }

    #[test]
    fn barrier_records_the_sums_of_the_task_results() {
        let cat = crate::task::tests::catalog();
        let dag = crate::task::tests::agg_plan();
        for workers in [1u32, 3] {
            let shuffle = crate::shuffle::MemoryShuffle::new();
            let t = Telemetry::new();
            let mut results = Vec::new();
            for stage in &dag.stages {
                results.extend(Executor::new(workers).execute_stage(
                    &dag,
                    stage.id,
                    7,
                    &cat,
                    &shuffle,
                    &t,
                    &FaultInjector::disabled(),
                ));
            }
            let sum = |f: fn(&TaskResult) -> u64| results.iter().map(f).sum::<u64>();
            let expected = [
                ("engine.tasks_total", results.len() as u64),
                ("engine.task_rows_out_total", sum(|r| r.rows_out)),
                (
                    "engine.shuffle_bytes_written_total",
                    sum(|r| r.shuffle_bytes_written),
                ),
                ("engine.shuffle_writes_total", sum(|r| r.shuffle_writes)),
                (
                    "engine.scratch_checkouts_total",
                    sum(|r| r.scratch_checkouts),
                ),
                ("engine.scratch_reuses_total", sum(|r| r.scratch_reuses)),
            ];
            for (name, want) in expected {
                assert_eq!(t.counter(name), want, "{name} at workers={workers}");
            }
            let rows_in = t.histogram("engine.task_rows_in").expect("recorded");
            assert_eq!(rows_in.count, results.len() as u64);
            assert_eq!(rows_in.sum, sum(|r| r.rows_in) as f64, "workers={workers}");
            // The sums are not vacuous: every counter but reuses moved
            // (each task checks out of a fresh arena, so nothing is reused).
            assert_eq!(results.len(), 6);
            assert!(expected[..5].iter().all(|&(_, v)| v > 0), "{expected:?}");
        }
    }
}
