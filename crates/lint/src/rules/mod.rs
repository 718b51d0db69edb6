//! Rule registry: each rule family lives in its own module and emits
//! [`RawFinding`]s against a [`Workspace`]. Scoping, test-item
//! exclusion, suppressions, and sorting are applied centrally in
//! `lib.rs` — rules only decide *what* is wrong, never *whether it
//! counts here*.

use crate::index::Workspace;
use crate::LintId;

pub mod atomics;
pub mod ledger;
pub mod lexical;
pub mod locks;
pub mod phase;

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
    lexical::check(ws, &mut out);
    locks::check(ws, &mut out);
    atomics::check(ws, &mut out);
    ledger::check(ws, &mut out);
    phase::check(ws, &mut out);
    out
}

/// One-line machine-readable summary per rule, for `--list-rules`.
pub fn summary(id: LintId) -> &'static str {
    match id {
        LintId::L1 => "no host clock (Instant/SystemTime) outside the simulated clock",
        LintId::L2 => "no entropy-seeded RNG (thread_rng/from_entropy/rand::)",
        LintId::L3 => "no order-revealing HashMap/HashSet iteration",
        LintId::L5 => "no unwrap/expect/panic! on hot paths",
        LintId::L6 => "no ad-hoc threading outside the stage executor",
        LintId::L7 => "no lock-order cycles (static deadlock detector)",
        LintId::L8 => "no Ordering::Relaxed on atomics shared with worker closures",
        LintId::L11 => "no money arithmetic outside the billing layer",
        LintId::L13 => "no PRNG seeded from a literal or from another stream's draws",
        LintId::L17 => "no parallel-phase writes to shared registries",
        LintId::Sup => "malformed cackle-lint comment (hard error)",
    }
}

/// Long-form `--explain` text for a rule.
pub fn explain(id: LintId) -> &'static str {
    match id {
        LintId::L1 => {
            "L1 · host clock\n\
             \n\
             `Instant` and `SystemTime` read the host's clock, which differs\n\
             across machines and runs. Every timestamp in a simulation must come\n\
             from the simulated clock (`cackle_cloud::time`), or reruns stop\n\
             being byte-identical.\n\
             \n\
             Scope: everywhere except crates/bench and crates/cloud/src/time.rs."
        }
        LintId::L2 => {
            "L2 · unseeded RNG\n\
             \n\
             `thread_rng`, `from_entropy`, `OsRng`, and anything under `rand::`\n\
             seed from the OS entropy pool, so two runs of the same RunSpec\n\
             diverge. All randomness must flow from `cackle_prng::Pcg32::\n\
             seed_from_u64` with a seed recorded in the RunSpec.\n\
             \n\
             Scope: everywhere."
        }
        LintId::L3 => {
            "L3 · hash-order iteration\n\
             \n\
             Iterating a `HashMap`/`HashSet` (`.iter()`, `.values()`, `for k in\n\
             &map`, ...) observes SipHash bucket order, which is randomized per\n\
             process. Any fold, dump, or schedule built from that order differs\n\
             between runs. Use `BTreeMap`/`BTreeSet`, or collect-and-sort first.\n\
             \n\
             Scope: crates/engine, crates/core, crates/telemetry."
        }
        LintId::L5 => {
            "L5 · panic paths on hot paths\n\
             \n\
             `.unwrap()`, `.expect()`, and the panic! macro family abort the\n\
             whole simulation on inputs the type system already told you were\n\
             fallible. On the hot paths (cloud primitives, telemetry, fault\n\
             injection, the engine's task/shuffle/table/executor files) every\n\
             such site must either handle the case or carry an allow comment\n\
             justifying why it is unreachable.\n\
             \n\
             Scope: crates/cloud/src, crates/telemetry/src, crates/faults/src,\n\
             core/{system,transport}.rs, engine/{task,shuffle,table,executor}.rs."
        }
        LintId::L6 => {
            "L6 · ad-hoc threading\n\
             \n\
             `thread::spawn` / `thread::scope` outside the stage executor\n\
             creates workers with no index-ordered result slot, no telemetry\n\
             shard, and no keyed fault stream — their effects depend on the OS\n\
             scheduler. All parallelism goes through\n\
             `cackle_engine::executor::Executor`. (The lint driver's own\n\
             parser pool in crates/lint/src/index.rs is the second blessed\n\
             site: it copies the executor's claim-by-index pattern and merges\n\
             results in input order.)\n\
             \n\
             Scope: everywhere except engine/src/executor.rs and\n\
             lint/src/index.rs."
        }
        LintId::L7 => {
            "L7 · lock-order cycles\n\
             \n\
             A static deadlock detector. Per function, the analyzer records\n\
             which `Mutex`/`RwLock` guards are still live when another lock is\n\
             acquired (a `let`-bound guard lives to the end of its block, a\n\
             temporary to the end of its statement), propagates acquisitions\n\
             through the approximate call graph, and builds a global\n\
             acquired-before relation. Any cycle in that relation means two\n\
             call paths can interleave into a deadlock. Fix by acquiring locks\n\
             in one global order, or by narrowing the first guard's scope so\n\
             the acquisitions no longer overlap.\n\
             \n\
             Lock identity is `file_stem.binding_name` (e.g. `shuffle.stats`);\n\
             the call graph is name-approximate, so a cycle report names the\n\
             acquisition sites it was derived from.\n\
             \n\
             Scope: crates/engine, crates/core."
        }
        LintId::L8 => {
            "L8 · relaxed atomics across the worker pool\n\
             \n\
             `Ordering::Relaxed` provides no happens-before edge. On an atomic\n\
             that is touched both inside and outside the executor's worker\n\
             closures (`spawn(...)` argument bodies), Relaxed means the main\n\
             thread can observe stale values — acceptable only for pure\n\
             counters whose value is never used to publish data. Use\n\
             Acquire/Release (or SeqCst) when the atomic synchronizes, or add\n\
             an allow comment stating why atomicity alone suffices.\n\
             \n\
             Scope: crates/engine, crates/core."
        }
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
