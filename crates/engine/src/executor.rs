//! Deterministic worker-pool stage executor.
//!
//! A Cackle stage fans its tasks out across many workers at once (Lambda
//! invocations in the paper; Starling runs hundreds of cloud-function
//! tasks concurrently). This module is the one blessed home of threads in
//! the workspace (clippy.toml disallows `std::thread::{spawn, scope}` and
//! `std::thread::Builder::{spawn, spawn_scoped}` anywhere else): it runs
//! all ready tasks of a stage on a process-wide pool of parked
//! `std::thread`s while keeping every run byte-identical for *any* worker
//! count, including 1.
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
//!
//! The pool's threads outlive the call that spawned them: they start
//! lazily, grow to the largest worker count any call asked for, and park
//! on a `Condvar` between calls, so a run pays no thread spawn (and no
//! fresh thread stack and malloc arena to fault in) at each stage. The
//! caller works as one of the workers. A one-worker or one-item call, and
//! a call made from inside a job, is a plain loop on the caller's thread;
//! a call that finds the pool's threads busy with another caller's job
//! runs with the threads that are free, or alone, and never waits for
//! that job. DESIGN §9 has the lifetime and safety argument.

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
use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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

/// A deterministic worker pool handle. Cheap to construct and `Copy`: it
/// holds only its worker count. Every [`Executor::run_indexed`] call
/// borrows threads from one process-wide pool, which outlives the call.
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
    /// (or one item), and when called from inside another call's `f`,
    /// this is a plain serial loop on the caller's thread. A panic in `f`
    /// reaches the caller with its original payload once every pool
    /// thread has left the call.
    ///
    /// `f` must be safe to call from multiple threads at once; any
    /// cross-index effects it has must be order-independent (commutative
    /// counters, keyed draws) or buffered for the caller to apply in
    /// index order after the call returns.
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
        POOL.run_indexed(self.workers as usize, n, f)
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

/// A panic payload, carried from a pool thread to the caller.
type Payload = Box<dyn Any + Send>;

/// A call's share of its items: claim indices until none is left.
type Share<'a> = dyn Fn() + Sync + 'a;

/// The pool behind every [`Executor`].
static POOL: Pool = Pool::new();

thread_local! {
    /// Set while this thread runs a share of a pooled call: on a pool
    /// thread always, on a caller for the length of its own share. A call
    /// made while it is set runs its items on its own thread.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Parked `std` threads that run shares of [`Pool::run_indexed`] calls.
/// One lock guards all of its bookkeeping, and no path holds it while
/// running a share (a share takes the calls' result-slot locks). Its
/// threads are never joined: each serves until the process exits, and
/// catches every panic of the shares it runs for their caller.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a call posts seats.
    posted: Condvar,
    /// Signalled when a pool thread leaves a job.
    left: Condvar,
}

struct PoolState {
    /// Threads spawned so far; the pool never shrinks.
    threads: usize,
    /// Threads neither inside a job nor promised to an untaken seat.
    free: usize,
    /// The calls in flight, each with the seats it posted.
    jobs: Vec<Job>,
    next_id: u64,
}

/// One call's share as the pool sees it.
struct Job {
    id: u64,
    /// The caller's share, its borrows' lifetime erased: valid until the
    /// caller's [`Posted`] settles, which removes this job first.
    share: &'static Share<'static>,
    /// Seats no pool thread has taken yet.
    seats: usize,
    /// Pool threads inside `share`.
    active: usize,
    /// The first panic a pool thread caught in `share`.
    panic: Option<Payload>,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            state: Mutex::new(PoolState {
                threads: 0,
                free: 0,
                jobs: Vec::new(),
                next_id: 0,
            }),
            posted: Condvar::new(),
            left: Condvar::new(),
        }
    }

    /// The pool's bookkeeping; no path panics while holding it, and a
    /// poisoned lock is forgiven.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Executor::run_indexed`] on this pool.
    fn run_indexed<R, F>(&'static self, workers: usize, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if workers <= 1 || n <= 1 || IN_JOB.get() {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let share = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let r = f(i);
            if let Ok(mut slot) = slots[i].lock() {
                *slot = Some(r);
            }
        };
        self.run(workers.min(n) - 1, &share);
        // `run` resumed any panic, so every slot is filled here; flatten
        // instead of unwrapping keeps this panic-free.
        slots
            .into_iter()
            .filter_map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect()
    }

    /// Run `share` on the caller and on up to `helpers` pool threads at
    /// once, and return once every one of them has left it. A panic in
    /// any of them reaches the caller with its payload.
    fn run(&'static self, helpers: usize, share: &Share<'_>) {
        #[expect(
            unsafe_code,
            reason = "pool threads outlive the call: the handoff erases a borrow"
        )]
        // SAFETY: the erased reference is reachable only through this
        // call's job in the pool's list and through the pool threads that
        // took one of its seats, which copy it out under the pool lock in
        // the same critical section that counts them `active`. `post`
        // pushes the job after the last step of it that can fail and
        // hands back its guard `posted` at once, and this function
        // neither returns nor unwinds past `share`'s borrows without
        // settling it (by `settle` below, or by its `Drop` during an
        // unwind; it is never forgotten). Settling cancels the untaken
        // seats, waits until no pool thread is `active`, and removes the
        // job, all under the lock, so afterwards no thread holds the
        // reference and none can take it.
        let erased = unsafe { std::mem::transmute::<&Share<'_>, &'static Share<'static>>(share) };
        let mut posted = self.post(helpers, erased);
        {
            let _inside = InJob::enter();
            share();
        }
        if let Some(payload) = posted.settle() {
            panic::resume_unwind(payload);
        }
    }

    /// Grow the pool to `helpers` threads, post `share` with a seat for
    /// each free thread (at most `helpers`), and wake them.
    fn post(&'static self, helpers: usize, share: &'static Share<'static>) -> Posted {
        let mut state = self.lock();
        while state.threads < helpers {
            let name = format!("cackle-executor-{}", state.threads);
            #[expect(
                clippy::disallowed_methods,
                reason = "the stage executor is the workspace's one thread pool"
            )]
            let spawned = std::thread::Builder::new()
                .name(name)
                .spawn(move || self.serve());
            if spawned.is_err() {
                break;
            }
            state.threads += 1;
            state.free += 1;
        }
        let seats = helpers.min(state.free);
        state.free -= seats;
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.push(Job {
            id,
            share,
            seats,
            active: 0,
            panic: None,
        });
        if seats > 0 {
            self.posted.notify_all();
        }
        Posted {
            pool: self,
            id: Some(id),
        }
    }

    /// A pool thread's life: take a seat, run the share, leave, park.
    fn serve(&'static self) {
        IN_JOB.set(true);
        let mut state = self.lock();
        loop {
            let Some(job) = state.jobs.iter_mut().find(|j| j.seats > 0) else {
                state = self
                    .posted
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            job.seats -= 1;
            job.active += 1;
            let (id, share) = (job.id, job.share);
            drop(state);
            let outcome = panic::catch_unwind(AssertUnwindSafe(share));
            state = self.lock();
            state.free += 1;
            if let Some(job) = state.jobs.iter_mut().find(|j| j.id == id) {
                job.active -= 1;
                if let Err(payload) = outcome {
                    job.panic.get_or_insert(payload);
                }
            }
            self.left.notify_all();
        }
    }

    /// Threads spawned so far.
    #[cfg(test)]
    fn threads(&self) -> usize {
        self.lock().threads
    }
}

/// A posted job, until its caller settles it.
struct Posted {
    pool: &'static Pool,
    /// `None` once settled.
    id: Option<u64>,
}

impl Posted {
    /// Cancel the seats no pool thread took, wait until every thread
    /// that took one has left, and remove the job. Returns the first
    /// panic a pool thread caught in its share; `None` once settled.
    fn settle(&mut self) -> Option<Payload> {
        let id = self.id.take()?;
        let mut state = self.pool.lock();
        loop {
            let at = state.jobs.iter().position(|j| j.id == id)?;
            let untaken = std::mem::take(&mut state.jobs[at].seats);
            state.free += untaken;
            if state.jobs[at].active == 0 {
                return state.jobs.swap_remove(at).panic;
            }
            state = self
                .pool
                .left
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Posted {
    fn drop(&mut self) {
        // Unwinding from the caller's own share: its panic wins, and a
        // pool thread's is dropped.
        drop(self.settle());
    }
}

/// Marks the caller's thread as inside a job while it runs its share.
struct InJob(bool);

impl InJob {
    fn enter() -> Self {
        InJob(IN_JOB.replace(true))
    }
}

impl Drop for InJob {
    fn drop(&mut self) {
        IN_JOB.set(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_batch;
    use std::sync::atomic::Ordering::SeqCst;
    use std::time::{Duration, Instant};

    /// A pool of its own, so that its thread count is the test's alone
    /// (its threads park for the rest of the test process).
    fn own_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    fn on_pool_thread() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("cackle-executor-"))
    }

    fn wait_until(cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn panic_message(payload: &Payload) -> Option<String> {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
    }

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

    #[test]
    fn pool_resumes_a_panicking_item_and_survives_it() {
        for workers in [2, 8] {
            let pool = own_pool();
            for round in 0..4 {
                let caught = panic::catch_unwind(|| {
                    pool.run_indexed(workers, 64, |i| {
                        assert_ne!(i, 37, "item 37 of round {round}");
                        i
                    })
                });
                let payload = caught.expect_err("item 37 panics");
                let message = panic_message(&payload).expect("a string payload");
                assert!(
                    message.contains("item 37 of round"),
                    "workers={workers}: {message}"
                );
                let out = pool.run_indexed(workers, 64, |i| i * 3);
                assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
            }
            assert_eq!(pool.threads(), workers - 1);
        }
    }

    #[test]
    fn pool_resumes_a_pool_threads_panic_on_the_caller() {
        for workers in [2, 8] {
            let pool = own_pool();
            let started = AtomicUsize::new(0);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_indexed(workers, 32, |i| {
                    if on_pool_thread() {
                        started.fetch_add(1, SeqCst);
                        panic!("a pool thread's item");
                    }
                    // The caller's items wait for a pool thread to panic.
                    wait_until(|| started.load(SeqCst) > 0);
                    i
                })
            }));
            let payload = caught.expect_err("a pool thread panics");
            assert_eq!(
                panic_message(&payload).as_deref(),
                Some("a pool thread's item")
            );
            let out = pool.run_indexed(workers, 32, |i| i + 1);
            assert_eq!(out, (1..33).collect::<Vec<_>>());
            assert_eq!(pool.threads(), workers - 1, "the pool threads survived");
        }
    }

    #[test]
    fn pool_waits_for_its_threads_when_the_callers_share_panics() {
        let pool = own_pool();
        let caller = std::thread::current().id();
        let (claimed, started, finished) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(2, 8, |_| {
                if std::thread::current().id() == caller {
                    claimed.fetch_add(1, SeqCst);
                    wait_until(|| started.load(SeqCst) > 0);
                    panic!("the caller's share");
                }
                started.fetch_add(1, SeqCst);
                wait_until(|| claimed.load(SeqCst) > 0);
                std::thread::sleep(Duration::from_millis(5));
                finished.fetch_add(1, SeqCst);
            })
        }));
        let payload = caught.expect_err("the caller's share panics");
        assert_eq!(
            panic_message(&payload).as_deref(),
            Some("the caller's share")
        );
        let (started, finished) = (started.load(SeqCst), finished.load(SeqCst));
        assert!(started > 0, "no pool thread took part");
        assert_eq!(
            started, finished,
            "the call unwound while a pool thread was inside it"
        );
    }

    #[test]
    fn pool_serves_concurrent_callers_in_index_order() {
        let pool = own_pool();
        std::thread::scope(|s| {
            for t in 0..4usize {
                s.spawn(move || {
                    for call in 0..200usize {
                        let out = pool.run_indexed(3, 17, |i| (t, call, i));
                        assert_eq!(out, (0..17).map(|i| (t, call, i)).collect::<Vec<_>>());
                    }
                });
            }
        });
        assert!(pool.threads() <= 2, "{} threads", pool.threads());
    }

    #[test]
    fn pool_runs_a_nested_call_on_its_own_thread() {
        let expected: Vec<Vec<usize>> = (0..6)
            .map(|i| (0..5).map(|j| 10 * i + j).collect())
            .collect();
        for workers in [1, 2, 8] {
            let out = Executor::new(workers)
                .run_indexed(6, |i| Executor::new(4).run_indexed(5, |j| 10 * i + j));
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn pool_spawns_one_thread_for_a_thousand_two_worker_calls() {
        let pool = own_pool();
        assert_eq!(pool.run_indexed(1, 9, |i| i), (0..9).collect::<Vec<_>>());
        assert_eq!(pool.run_indexed(4, 1, |i| i), [0]);
        assert_eq!(
            pool.threads(),
            0,
            "one worker or one item runs on the caller"
        );
        for call in 0..1000 {
            let out = pool.run_indexed(2, 5, |i| call + i);
            assert_eq!(out, (call..call + 5).collect::<Vec<_>>());
        }
        assert_eq!(pool.threads(), 1);
    }
}
