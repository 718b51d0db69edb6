//! L17 · phase discipline: no shared-registry writes from the
//! parallel phase.
//!
//! The engine's byte-identical-at-any-worker-count guarantee (DESIGN
//! §9) is a two-phase protocol: every fn BFS-reachable from
//! `TaskExecution::run_buffered` ([`PHASE_ROOT`]) runs concurrently
//! (*parallel phase*) and must only touch task-private state — buffers,
//! shards, the `BufferedTask` write list; the executor publishes at the
//! stage barrier in task-index order (*publication phase*). A direct
//! write to a shared registry from parallel-phase code commits in
//! thread-scheduling order and silently re-opens the guarantee.
//!
//! Flagged method calls inside the reachable set:
//!
//! * `.charge(...)` / `.try_charge(...)` / `.charge_requests(...)` —
//!   `CostLedger` mutations, unconditionally (the names are unique to
//!   the ledger API);
//! * `.merge(...)` when the receiver names a telemetry registry or
//!   ledger (`telemetry.merge(&shard)`) — a bare `.merge(` is too
//!   common (kernel merge passes) to flag on name alone;
//! * `.absorb(...)` when the receiver names a registry or telemetry;
//! * `.write(...)` when the receiver names a shuffle — publication
//!   must go through the buffered write list, not the transport.
//!
//! Receiver sensitivity is the honest trade for a name-approximate
//! graph: `self.merge(...)` (receiver `self`) and `left.merge(right)`
//! stay clean; the shard/merge APIs themselves live in
//! crates/telemetry and crates/faults, which the central scope
//! exempts. One more carve-out: the ledger API *implementing itself*
//! — a `self.try_charge(...)` call inside `CostLedger::charge` is
//! delegation within the publication surface, not a bypass of it, so
//! `self.<ledger call>` is exempt when the enclosing fn is itself a
//! ledger wrapper.

use super::RawFinding;
use crate::index::{Workspace, PHASE_ROOT};
use crate::LintId;

/// Ledger-mutation method names flagged regardless of receiver.
const LEDGER_CALLS: [&str; 3] = ["charge", "try_charge", "charge_requests"];

/// Fns allowed to delegate to another ledger call via `self.` — the
/// ledger API surface itself (wrappers funnel into `try_charge`).
const LEDGER_WRAPPERS: [&str; 4] = ["charge", "try_charge", "charge_requests", "charge_micros"];

/// `(method, receiver-substring)` pairs flagged only when the
/// receiver identifier contains one of the substrings.
const RECEIVER_CALLS: [(&str, &[&str]); 3] = [
    ("merge", &["telemetry", "ledger"]),
    ("absorb", &["registry", "telemetry"]),
    ("write", &["shuffle"]),
];

pub fn check(ws: &Workspace, out: &mut Vec<RawFinding>) {
    // An empty set is not a pass: `lint_root_with_meta` reports a tree
    // whose phase root does not resolve.
    for id in ws.reachable_from(PHASE_ROOT) {
        let f = &ws.index.fns[id];
        let p = &ws.files[f.file].parsed;
        for call in &f.calls {
            // Method calls only: the registry APIs are all `&self`
            // methods, and a free fn of the same name is not one.
            if call.name_tok == 0 || p.toks[call.name_tok - 1].punct() != "." {
                continue;
            }
            let receiver = if call.name_tok >= 2 {
                p.toks[call.name_tok - 2].ident().to_ascii_lowercase()
            } else {
                String::new()
            };
            let what = if LEDGER_CALLS.contains(&call.name.as_str()) {
                if receiver == "self" && LEDGER_WRAPPERS.contains(&ws.fn_item(id).name.as_str()) {
                    None // ledger-internal delegation, not a bypass
                } else {
                    Some("the cost ledger")
                }
            } else {
                RECEIVER_CALLS
                    .iter()
                    .find(|(m, subs)| *m == call.name && subs.iter().any(|s| receiver.contains(s)))
                    .map(|(m, _)| match *m {
                        "write" => "the shuffle transport",
                        _ => "a shared registry",
                    })
            };
            let Some(what) = what else {
                continue;
            };
            out.push(RawFinding {
                file: f.file,
                tok: call.name_tok,
                id: LintId::L17,
                message: format!(
                    "parallel-phase write `.{}(...)` to {} is reachable from \
                     `run_buffered` (via fn `{}`)",
                    call.name,
                    what,
                    ws.fn_item(id).qualified
                ),
                suggestion: "buffer into the per-task shard / write list and let the \
                             serial stage barrier publish (Telemetry::merge, \
                             Registry::absorb, buffered shuffle writes)"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(files: &[(&str, &str)]) -> Vec<RawFinding> {
        let ws = Workspace::build(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        );
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    #[test]
    fn ledger_charge_reached_through_helper_flagged() {
        let f = findings(&[
            (
                "crates/engine/src/task.rs",
                "pub fn run_buffered() { helper(); }",
            ),
            (
                "crates/core/src/system.rs",
                "pub fn helper(&self) { self.ledger.charge(vm, cost); }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].id, LintId::L17);
        assert!(f[0].message.contains("via fn `helper`"));
        assert!(f[0].message.contains("cost ledger"));
    }

    #[test]
    fn receiver_sensitive_merge_and_shuffle_write() {
        // telemetry.merge and shuffle.write flagged; a kernel merge pass
        // (`left.merge(right)`) and `self.merge(...)` are not.
        let f = findings(&[(
            "crates/engine/src/task.rs",
            "pub fn run_buffered(&self) {\n\
                 self.telemetry.merge(&shard);\n\
                 self.ctx.shuffle.write(key, task, data);\n\
                 left.merge(right);\n\
                 self.merge(other);\n\
             }",
        )]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|r| r.message.contains(".merge(")));
        assert!(f.iter().any(|r| r.message.contains(".write(")));
    }

    #[test]
    fn publication_phase_code_not_flagged() {
        // The barrier publishes after the pool joins; it is not
        // reachable from `run_buffered`.
        let f = findings(&[(
            "crates/engine/src/executor.rs",
            "pub fn run_buffered(&self) { compute(); }\n\
             fn compute() {}\n\
             pub fn publish_barrier(&self) { self.telemetry.merge(&shard); }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn ledger_internal_delegation_exempt_but_outside_caller_flagged() {
        // `charge` funneling into `self.try_charge` is the ledger API
        // implementing itself; an engine fn calling `.charge(...)` on a
        // ledger field is still a bypass.
        let f = findings(&[
            (
                "crates/engine/src/task.rs",
                "pub fn run_buffered(&self) { self.ledger.charge(c, d); }",
            ),
            (
                "crates/cloud/src/ledger.rs",
                "pub fn charge(&mut self, c: C, d: f64) { let _ = self.try_charge(c, d); }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("via fn `run_buffered`"));
    }

    #[test]
    fn free_fn_charge_not_flagged() {
        let f = findings(&[(
            "crates/engine/src/task.rs",
            "pub fn run_buffered() { charge(); }\nfn charge() {}",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
