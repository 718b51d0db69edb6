//! Fixture: deliberate L17 violations — parallel-phase writes to shared
//! registries, bypassing the shard / stage-barrier publication APIs.

pub fn run_buffered(ctx: &mut TaskCtx, shard: &Shard) {
    ctx.ledger.charge(Cat::Compute, shard.amount); // L17: direct ledger write
    ctx.telemetry.merge(shard); // L17: registry publish off the barrier
    flush_side_channel(ctx, shard);
}

// Reachable through the root above: still parallel-phase.
fn flush_side_channel(ctx: &mut TaskCtx, shard: &Shard) {
    ctx.shuffle.write(shard.key, shard.task, &shard.payload); // L17: raw transport write
}
