//! Allocation budget: a live query's allocation *count* does not grow
//! with its rows.
//!
//! Cackle turns rows into billed task seconds (paper §6), so a live
//! task's cost must scale with its data and nothing else. An allocation
//! per row breaks that quietly: it shows up as host time, never as a
//! wrong answer. This binary installs a counting global allocator and
//! runs both live query sets through `Executor::new(1).execute_query`
//! over a `MemoryShuffle` at two catalog sizes with the *same* partition
//! count — `(SF, rows_per_partition)` and `(2·SF, 2·rows_per_partition)`.
//! A per-batch or per-task cost is then identical at both sizes, and a
//! per-row (or per-distinct-key) cost doubles. Every query must stay
//! flat within [`SLACK_PCT`], except the entries of [`SPARSE_OUTPUT`],
//! each of which names its measured growth and its cause.
//!
//! The serving layer's admission and dispatch loops get the same test
//! on the tenant axis: allocations per dispatched query are equal at 10
//! and at 1 000 tenants.
//!
//! The allocator counts only while a thread-local flag is set, so the
//! test harness's own threads never pollute a count; one worker keeps
//! every task on the counting thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cackle_engine::executor::Executor;
use cackle_engine::shuffle::MemoryShuffle;
use cackle_serve::{
    PriorityClass, QueuedQuery, QuotaSpec, SchedulerConfig, TokenBucket, WdrrScheduler,
};
use cackle_tpch::plans::{self, Par};
use cackle_tpch::{generate_catalog, DbGenConfig};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` requires; `bump` allocates
// nothing (const-initialised thread-locals with no destructor), so the
// allocator never re-enters itself.
#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; this one counts and forwards to System"
)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (`alloc` + `alloc_zeroed` + `realloc`) `f` makes on this
/// thread. What `f` returns is dropped after counting stops.
fn allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (r, ALLOCS.with(Cell::get))
}

/// How much a flat query's count may grow from 1× to 2× rows, in
/// percent of its 1× count. The flat queries grow by at most 2.8 % on the
/// catalogs below (q21, 14 493 -> 14 899).
const SLACK_PCT: u64 = 5;

/// One live query set at its workload's parallelism and catalog size.
struct QuerySet {
    queries: &'static [&'static str],
    par: Par,
    scale_factor: f64,
    rows_per_partition: usize,
}

/// `live_scan_agg`'s queries and parallelism.
const SCAN_AGG: QuerySet = QuerySet {
    queries: &["q01", "q06", "q12", "q14", "q15", "q19"],
    par: Par {
        fact: 4,
        mid: 2,
        join: 2,
    },
    scale_factor: 0.035,
    rows_per_partition: 8192,
};

/// `live_join_shuffle`'s queries and parallelism.
const JOIN_SHUFFLE: QuerySet = QuerySet {
    queries: &["q03", "q05", "q07", "q08", "q09", "q10", "q18", "q21"],
    par: Par {
        fact: 16,
        mid: 8,
        join: 8,
    },
    scale_factor: 0.015,
    rows_per_partition: 2048,
};

/// Queries most of whose batches are empty after a selective filter or
/// join at these sizes: a batch with rows allocates its columns, a
/// zero-row batch nothing, so the count grows with the batches that
/// carry rows — a per-batch cost whose batch count is not yet fixed.
/// `(query, measured growth from 1× to 2×, cause)`. The query is checked
/// like a flat one with its growth added to the 1× count, so a per-batch
/// change that leaves emptiness alone never trips it, and a per-row cost
/// (thousands at these sizes) still does. The effect stops once every
/// batch carries rows; an entry whose growth has fallen under half its
/// allowance is stale and fails.
const SPARSE_OUTPUT: &[(&str, u64, &str)] = &[
    (
        "q19",
        48,
        "2 -> 11 rows pass the join filter, nearly each in a batch of its own",
    ),
    ("q05", 1_067, "zero-row takes 997 -> 325"),
    (
        "q07",
        1_135,
        "non-empty takes and exchange chunks 3 291 -> 3 984",
    ),
    ("q08", 830, "zero-row takes 990 -> 740"),
    ("q03", 400, "non-empty join outputs 89 -> 116 of 128"),
];

/// Allocations of each query of `set` at 1× and 2× rows, same partition
/// count.
fn measure(set: &QuerySet) -> Vec<(&'static str, u64, u64)> {
    let counts = |scale: f64, rows: usize| -> Vec<u64> {
        let catalog = generate_catalog(&DbGenConfig {
            scale_factor: set.scale_factor * scale,
            rows_per_partition: rows,
            seed: 12,
        });
        let executor = Executor::new(1);
        set.queries
            .iter()
            .enumerate()
            .map(|(qi, name)| {
                let plan = plans::plan(name, set.par);
                let shuffle = MemoryShuffle::new();
                allocs(|| executor.execute_query(&plan, qi as u64, &catalog, &shuffle)).1
            })
            .collect()
    };
    let one = counts(1.0, set.rows_per_partition);
    let two = counts(2.0, 2 * set.rows_per_partition);
    set.queries
        .iter()
        .zip(one.into_iter().zip(two))
        .map(|(&name, (a, b))| (name, a, b))
        .collect()
}

fn within(measured: u64, budget: u64) -> bool {
    measured <= budget + budget * SLACK_PCT / 100
}

/// Check one set against the budget; returns one line per violation.
fn violations(set: &QuerySet) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, one, two) in measure(set) {
        eprintln!("{name}: {one} -> {two} allocations");
        match SPARSE_OUTPUT.iter().find(|e| e.0 == name) {
            Some(&(_, growth, cause)) if two.saturating_sub(one) <= growth / 2 => {
                bad.push(format!(
                    "{name}: stale SPARSE_OUTPUT entry ({cause}): {one} -> {two} grows by \
                     under half its {growth}"
                ))
            }
            Some(&(_, growth, cause)) if !within(two, one + growth) => bad.push(format!(
                "{name}: {one} -> {two} allocations, beyond its SPARSE_OUTPUT growth \
                     {growth} and the {SLACK_PCT} % slack ({cause})"
            )),
            None if !within(two, one) => bad.push(format!(
                "{name}: {one} -> {two} allocations at twice the rows, beyond the \
                 {SLACK_PCT} % slack: a cost that grows with rows"
            )),
            _ => {}
        }
    }
    bad
}

#[test]
fn exception_entries_are_well_formed() {
    for (i, (name, growth, cause)) in SPARSE_OUTPUT.iter().enumerate() {
        assert!(
            SCAN_AGG.queries.contains(name) || JOIN_SHUFFLE.queries.contains(name),
            "{name}: not a live query"
        );
        assert!(
            !SPARSE_OUTPUT[..i].iter().any(|e| e.0 == *name),
            "{name}: listed twice"
        );
        assert!(*growth > 0 && !cause.is_empty(), "{name}");
    }
}

#[test]
fn scan_agg_allocations_are_per_batch() {
    let bad = violations(&SCAN_AGG);
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn join_shuffle_allocations_are_per_batch() {
    let bad = violations(&JOIN_SHUFFLE);
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// Allocations per dispatched query of the serving loop — one
/// `TokenBucket::try_take` and one `WdrrScheduler::enqueue` per arrival,
/// one `dispatch_second` per simulated second — with `queries` arrivals
/// spread round-robin over `tenants`. Priority classes follow the
/// arrival, not the tenant, so queue depths are the same at any tenant
/// count.
fn serve_allocs_per_query(tenants: usize, queries: usize) -> f64 {
    const PER_SECOND: usize = 50;
    let mut buckets: Vec<TokenBucket> = (0..tenants)
        .map(|_| TokenBucket::new(QuotaSpec::per_second(1000.0)))
        .collect();
    let mut scheduler = WdrrScheduler::new(SchedulerConfig::default().with_dispatch_per_s(40));
    let mut out = Vec::with_capacity(64);
    let mut dispatched = 0;
    let ((), n) = allocs(|| {
        let mut now_s = 0;
        let mut seq = 0;
        while seq < queries || scheduler.queued() > 0 {
            let second_end = (seq + PER_SECOND).min(queries);
            while seq < second_end {
                let tenant = seq % tenants;
                if buckets[tenant].try_take(now_s) {
                    let q = QueuedQuery {
                        tenant,
                        arrival_s: now_s,
                        seq,
                    };
                    scheduler.enqueue(PriorityClass::ALL[seq % 3], q);
                }
                seq += 1;
            }
            out.clear();
            dispatched += scheduler.dispatch_second(&mut out);
            now_s += 1;
        }
    });
    assert_eq!(dispatched, queries, "the quota admits every arrival");
    n as f64 / dispatched as f64
}

#[test]
fn serve_dispatch_allocations_do_not_grow_with_tenants() {
    let few = serve_allocs_per_query(10, 20_000);
    let many = serve_allocs_per_query(1_000, 20_000);
    eprintln!("serve: {few} allocations per query at 10 tenants, {many} at 1000");
    // Slack: one allocation per thousand dispatched queries.
    assert!(
        many <= few + 0.001,
        "{many} allocations per dispatched query at 1000 tenants vs {few} at 10"
    );
}
