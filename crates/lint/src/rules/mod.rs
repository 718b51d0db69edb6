//! Rule registry: each rule family lives in its own module and emits
//! [`RawFinding`]s against a [`Workspace`]. Scoping, test-item
//! exclusion, suppressions, and sorting are applied centrally in
//! `lib.rs` — rules only decide *what* is wrong, never *whether it
//! counts here*.

use crate::index::Workspace;
use crate::LintId;

pub mod ledger;
pub mod phase;
pub mod seeds;

/// A finding before central filtering: anchored to a (file, token)
/// pair so test-item exclusion can be applied by token index.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Anchor token (for `#[test]`-item exclusion).
    pub tok: usize,
    /// The violated rule.
    pub id: LintId,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

/// Run every rule family over the workspace.
pub fn run(ws: &Workspace) -> Vec<RawFinding> {
    let mut out = Vec::new();
    ledger::check(ws, &mut out);
    seeds::check(ws, &mut out);
    phase::check(ws, &mut out);
    out
}

/// One-line machine-readable summary per rule, for `--list-rules`.
pub fn summary(id: LintId) -> &'static str {
    match id {
        LintId::L11 => "no money arithmetic outside the billing layer",
        LintId::L13 => "no PRNG seeded from a literal or from another stream's draws",
        LintId::L17 => "no parallel-phase writes to shared registries",
        LintId::Sup => "malformed cackle-lint comment (hard error)",
    }
}

/// Long-form `--explain` text for a rule.
pub fn explain(id: LintId) -> &'static str {
    match id {
        LintId::L11 => {
            "L11 · ledger hygiene\n\
             \n\
             Dollars are minted in exactly two places: `Pricing` (rates) and\n\
             `CostLedger` (accumulation). Everywhere else, (a) arithmetic on a\n\
             cost-named binding (*, /, %, compound assignment, or `==`\n\
             comparison) is flagged — except `+`/`-` where BOTH operands are\n\
             cost-named, which is a legitimate sum of already-minted dollars —\n\
             and (b) a `*` or `/` inside a `.charge(...)`/`.try_charge(...)`/\n\
             `.charge_requests(...)` argument list computes a price at the call\n\
             site; move the formula into a Pricing method.\n\
             \n\
             Scope: everywhere except crates/cloud/src/{ledger,pricing}.rs,\n\
             crates/core/src/prices.rs, and crates/bench."
        }
        LintId::L13 => {
            "L13 · seed provenance\n\
             \n\
             Every PRNG stream must be re-derivable from the RunSpec seed. Two\n\
             `seed_from_u64(...)` arguments provably are not: an integer\n\
             literal (`seed_from_u64(42)` bakes in randomness no RunSpec can\n\
             reproduce) and an argument that calls a draw method (`next_u32`,\n\
             `next_u64`, `gen_*`), in the argument itself or in the `let`\n\
             that binds a lone identifier argument. Feeding a stream's\n\
             output into a new stream couples the new stream to draw order,\n\
             the exact coupling\n\
             keyed streams exist to break. Derive sub-streams from the seed\n\
             with a salt (`seed ^ SALT_X`, `splitmix64`) instead. The check\n\
             is lexical: the argument's tokens, plus one `let` in the same fn.\n\
             \n\
             Scope: everywhere except crates/prng (where the primitive\n\
             lives) and crates/bench; `#[test]` items are exempt."
        }
        LintId::L17 => {
            "L17 · phase discipline\n\
             \n\
             The byte-identical-at-any-worker-count guarantee (DESIGN §9)\n\
             rests on a two-phase protocol: tasks compute concurrently into\n\
             private buffers/shards, and the executor publishes them serially\n\
             at the stage barrier in task-index order. Every fn BFS-reachable\n\
             from `TaskExecution::run_buffered` is parallel-phase code; a direct\n\
             write to a shared registry there — `telemetry.merge(&shard)`,\n\
             `registry.absorb(...)`, a `CostLedger` `.charge(...)` /\n\
             `.try_charge(...)` / `.charge_requests(...)`, or a shuffle\n\
             `.write(...)` publication — commits in thread-scheduling order\n\
             and breaks the guarantee. Buffer into the per-task shard (or the\n\
             BufferedTask write list) and let the serial barrier publish. A\n\
             tree that has crates/engine/src/task.rs but no `run_buffered` is\n\
             itself a finding: the rule would otherwise pass by seeing nothing.\n\
             \n\
             Scope: crates/engine, crates/core, crates/cloud\n\
             (crates/telemetry and crates/faults define the shard/merge\n\
             APIs and are exempt)."
        }
        LintId::Sup => {
            "SUP · malformed suppression\n\
             \n\
             A `// cackle-lint: allow(...)` comment that fails to parse —\n\
             unknown or retired rule id, trailing comma, duplicate entry,\n\
             empty list, missing `)`, or any other word after the marker\n\
             (the retired `unit(...)` and `pure(...)` annotations included)\n\
             — used to be silently ignored, leaving the finding it meant to\n\
             suppress active. Malformed cackle-lint comments are hard errors.\n\
             SUP itself cannot be suppressed.\n\
             \n\
             A well-formed allow that suppresses no finding is not SUP but\n\
             stale: the run exits 3."
        }
    }
}
