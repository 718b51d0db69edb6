//! Rule registry: each rule lives in its own module and emits
//! [`RawFinding`]s against the parsed files. Scoping, test-item
//! exclusion, suppressions, and sorting are applied centrally in
//! `lib.rs` — rules only decide *what* is wrong, never *whether it
//! counts here*.

use crate::{LintId, SourceFile};

pub mod ledger;

/// A finding before central filtering: anchored to a (file, token)
/// pair so test-item exclusion can be applied by token index.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Index into the linted files.
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

/// Run every rule over the files.
pub fn run(files: &[SourceFile]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    ledger::check(files, &mut out);
    out
}

/// One-line machine-readable summary per rule, for `--list-rules`.
pub fn summary(id: LintId) -> &'static str {
    match id {
        LintId::L11 => "no money arithmetic outside the billing layer",
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
