//! Fixture: L17 near-misses — registry publication at the stage
//! barrier (not reachable from `run_buffered`), and a parallel-phase
//! `merge` on a non-registry receiver (a kernel merge pass).
//! near-miss(L17)

// The phase root: everything reachable from here is parallel-phase.
pub fn run_buffered(left: &mut Run, right: Run) {
    combine_runs(left, right);
}

// The barrier runs after the worker pool joins: nothing here is
// parallel-phase, so these registry writes ARE the blessed publication.
pub fn publish_barrier(ctx: &mut TaskCtx, shards: &[Shard]) {
    for shard in shards {
        ctx.telemetry.merge(shard);
        ctx.ledger.charge(Cat::Compute, shard.amount);
    }
}

// Reachable from the pool, but `merge` on a sorted run is a kernel merge
// pass, not a registry publish: receiver sensitivity keeps it clean.
pub fn combine_runs(left: &mut Run, right: Run) {
    left.merge(right);
}
