//! L7 · lock-order cycle detection (static deadlock detector).
//!
//! Per function body, find `Mutex`/`RwLock` acquisitions
//! (`.lock()` / `.read()` / `.write()` on a binding the index knows is
//! a lock) and compute each guard's live range: a `let`-bound guard
//! lives to the end of its enclosing block, a temporary to the end of
//! its statement. Every acquisition (or call whose callee transitively
//! acquires) inside that range contributes an `acquired-before` edge.
//! Edges are collected globally — lock identity is `file_stem.name` —
//! and any strongly-connected component with two or more locks is a
//! potential deadlock: two call paths can each hold one lock of the
//! cycle while waiting for the next.
//!
//! Self-edges (`a` before `a`) are discarded: at name granularity they
//! are usually distinct instances (`slots[i]` vs `slots[j]`), and
//! re-entrant self-deadlock is better caught by review than by a
//! name-approximate graph.

use super::RawFinding;
use crate::index::Workspace;
use crate::parser::ParsedFile;
use crate::LintId;
use std::collections::{BTreeMap, BTreeSet};

const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];

/// One acquisition site inside a fn body.
struct Acquisition {
    /// Token index of the method name (`lock`/`read`/`write`).
    tok: usize,
    /// Qualified lock identity (`shuffle.stats`).
    lock: String,
    /// Last token index at which the guard is live.
    live_end: usize,
}

/// One `acquired-before` edge occurrence, anchored at a source site.
struct EdgeSite {
    file: usize,
    tok: usize,
    from: String,
    to: String,
    /// Empty for a direct acquisition; the callee name when the second
    /// lock is reached through a call.
    via: String,
}

pub fn check(ws: &Workspace, out: &mut Vec<RawFinding>) {
    // Acquisitions per workspace fn id.
    let acqs: Vec<Vec<Acquisition>> = ws
        .index
        .fns
        .iter()
        .map(|f| {
            let file = &ws.files[f.file];
            match file.parsed.fns[f.item].body {
                Some(body) => {
                    acquisitions(&file.parsed, &ws.index.lock_names[f.file], &file.stem, body)
                }
                None => Vec::new(),
            }
        })
        .collect();

    // Transitive acquisitions per fn id (fixed point over the call
    // graph; the graph may contain cycles).
    let direct: Vec<BTreeSet<String>> = acqs
        .iter()
        .map(|a| a.iter().map(|x| x.lock.clone()).collect())
        .collect();
    let mut trans = direct.clone();
    loop {
        let mut changed = false;
        for id in 0..trans.len() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for callee in ws.callees(id) {
                for l in &trans[callee] {
                    if !trans[id].contains(l) {
                        add.insert(l.clone());
                    }
                }
            }
            if !add.is_empty() {
                trans[id].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Edge occurrences: for each acquisition, everything acquired while
    // its guard is live.
    let mut edges: Vec<EdgeSite> = Vec::new();
    for (id, f) in ws.index.fns.iter().enumerate() {
        for a in &acqs[id] {
            for b in &acqs[id] {
                if b.tok > a.tok && b.tok <= a.live_end && b.lock != a.lock {
                    edges.push(EdgeSite {
                        file: f.file,
                        tok: a.tok,
                        from: a.lock.clone(),
                        to: b.lock.clone(),
                        via: String::new(),
                    });
                }
            }
            for call in &ws.index.fns[id].calls {
                if call.name_tok <= a.tok || call.name_tok > a.live_end {
                    continue;
                }
                if !Workspace::edge_name_kept(&call.name) {
                    continue;
                }
                let Some(callee_ids) = ws.index.by_name.get(&call.name) else {
                    continue;
                };
                for &callee in callee_ids {
                    for l in &trans[callee] {
                        if *l != a.lock {
                            edges.push(EdgeSite {
                                file: f.file,
                                tok: a.tok,
                                from: a.lock.clone(),
                                to: l.clone(),
                                via: call.name.clone(),
                            });
                        }
                    }
                }
            }
        }
    }

    // Strongly-connected components of the acquired-before digraph.
    let mut graph: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        graph.entry(&e.from).or_default().insert(&e.to);
        graph.entry(&e.to).or_default();
    }
    let comp = scc(&graph);

    // A cyclic edge is one whose endpoints share a multi-node SCC.
    let mut reported: BTreeSet<(usize, usize, String, String)> = BTreeSet::new();
    for e in &edges {
        let (Some(&ca), Some(&cb)) = (comp.get(e.from.as_str()), comp.get(e.to.as_str())) else {
            continue;
        };
        if ca != cb {
            continue;
        }
        if !reported.insert((e.file, e.tok, e.from.clone(), e.to.clone())) {
            continue;
        }
        let how = if e.via.is_empty() {
            "directly".to_string()
        } else {
            format!("via call to `{}`", e.via)
        };
        out.push(RawFinding {
            file: e.file,
            tok: e.tok,
            id: LintId::L7,
            message: format!(
                "lock-order cycle: `{}` is held while `{}` is acquired ({how}), but another \
                 path acquires them in the opposite order",
                e.from, e.to
            ),
            suggestion: "acquire locks in one global order, or drop the first guard before \
                         taking the second"
                .into(),
        });
    }
}

/// Acquisition sites in `body`: `.lock()` / `.read()` / `.write()` whose
/// receiver's terminal name is a known lock binding of this file.
fn acquisitions(
    p: &ParsedFile,
    lock_names: &BTreeSet<String>,
    stem: &str,
    body: (usize, usize),
) -> Vec<Acquisition> {
    let toks = &p.toks;
    let mut out = Vec::new();
    let hi = body.1.min(toks.len().saturating_sub(1));
    for i in body.0..=hi {
        if !ACQUIRE_METHODS.contains(&toks[i].ident()) {
            continue;
        }
        if toks.get(i + 1).map(|t| t.punct()) != Some("(") {
            continue;
        }
        if i == 0 || toks[i - 1].punct() != "." {
            continue;
        }
        let Some(name) = receiver_name(p, i - 1) else {
            continue;
        };
        if !lock_names.contains(&name) {
            continue;
        }
        let live_end = if p.statement_is_let_bound(i) {
            p.scope_end(i)
        } else {
            p.statement_end(i)
        };
        out.push(Acquisition {
            tok: i,
            lock: format!("{stem}.{name}"),
            live_end,
        });
    }
    out
}

/// Terminal identifier of the receiver chain ending at the `.` token
/// `dot`: `stats.lock()` → `stats`; `self.slots[i].lock()` → `slots`;
/// `make().lock()` → None (unresolvable).
fn receiver_name(p: &ParsedFile, dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let mut r = dot - 1;
    // Skip a trailing index group `[...]`.
    if p.toks[r].punct() == "]" {
        let open = open_of(p, r)?;
        if open == 0 {
            return None;
        }
        r = open - 1;
    }
    let t = &p.toks[r];
    if t.ident().is_empty() {
        return None;
    }
    Some(t.text.clone())
}

/// The matching open delimiter for the close delimiter at `close`.
fn open_of(p: &ParsedFile, close: usize) -> Option<usize> {
    (0..close).rev().find(|&k| p.close_of(k) == Some(close))
}

/// Map each node to a component id; nodes in the same multi-node SCC (a
/// cycle) share an id distinct from every singleton's. Kosaraju over a
/// BTreeMap graph for determinism.
fn scc<'a>(graph: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> BTreeMap<&'a str, usize> {
    // First pass: finish order on the forward graph.
    let mut order: Vec<&str> = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for &start in graph.keys() {
        if seen.contains(start) {
            continue;
        }
        // Iterative DFS with an explicit "exit" marker.
        let mut stack: Vec<(&str, bool)> = vec![(start, false)];
        while let Some((node, exit)) = stack.pop() {
            if exit {
                order.push(node);
                continue;
            }
            if !seen.insert(node) {
                continue;
            }
            stack.push((node, true));
            if let Some(next) = graph.get(node) {
                for &n in next.iter().rev() {
                    if !seen.contains(n) {
                        stack.push((n, false));
                    }
                }
            }
        }
    }
    // Reverse graph.
    let mut rev: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (&from, tos) in graph {
        rev.entry(from).or_default();
        for &to in tos {
            rev.entry(to).or_default().insert(from);
        }
    }
    // Second pass: components in reverse finish order.
    let mut comp: BTreeMap<&str, usize> = BTreeMap::new();
    let mut next_id = 0usize;
    for &start in order.iter().rev() {
        if comp.contains_key(start) {
            continue;
        }
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            if comp.contains_key(node) {
                continue;
            }
            comp.insert(node, next_id);
            if let Some(prev) = rev.get(node) {
                stack.extend(prev.iter().copied().filter(|n| !comp.contains_key(*n)));
            }
        }
        next_id += 1;
    }
    // Collapse: only multi-node components matter to callers, but the
    // id mapping already distinguishes them (singletons never share).
    comp
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
        out.retain(|f| f.id == LintId::L7);
        out
    }

    #[test]
    fn opposite_orders_in_one_file_cycle() {
        let f = findings(&[(
            "crates/engine/src/pair.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
               fn fwd(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
               fn bwd(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n\
             }",
        )]);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let f = findings(&[(
            "crates/engine/src/pair.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
               fn one(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
               fn two(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cycle_through_call_graph_detected() {
        let f = findings(&[
            (
                "crates/engine/src/x.rs",
                "struct X { a: Mutex<u32> }\n\
                 impl X { fn fwd(&self) { let g = self.a.lock(); takes_b(); } }",
            ),
            (
                "crates/engine/src/y.rs",
                "struct Y { b: Mutex<u32> }\n\
                 impl Y { fn takes_b(&self) { let g = self.b.lock(); }\n\
                          fn bwd(&self) { let g = self.b.lock(); takes_a(); }\n\
                          fn takes_a(&self) { lock_a(); } }\n\
                 fn lock_a() {}",
            ),
            ("crates/engine/src/z.rs", "struct Z { a2: Mutex<u32> }"),
        ]);
        // x.a -> y.b (via takes_b) and y.b -> x.a would need lock_a to
        // actually lock; it does not, so only if we close the loop:
        let f2 = findings(&[
            (
                "crates/engine/src/x.rs",
                "struct X { a: Mutex<u32> }\n\
                 impl X { fn fwd(&self) { let g = self.a.lock(); takes_b(); }\n\
                          fn lock_a(&self) { let g = self.a.lock(); } }",
            ),
            (
                "crates/engine/src/y.rs",
                "struct Y { b: Mutex<u32> }\n\
                 impl Y { fn takes_b(&self) { let g = self.b.lock(); }\n\
                          fn bwd(&self) { let g = self.b.lock(); lock_a(); } }",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(f2.len(), 2, "{f2:?}");
        assert!(f2
            .iter()
            .any(|x| x.message.contains("via call to `takes_b`")));
    }

    #[test]
    fn statement_scoped_temporary_does_not_overlap() {
        // `*self.a.lock() += 1;` releases at the statement end, so the
        // later `b` acquisition overlaps nothing.
        let f = findings(&[(
            "crates/engine/src/pair.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
               fn fwd(&self) { *self.a.lock() += 1; let h = self.b.lock(); }\n\
               fn bwd(&self) { *self.b.lock() += 1; let h = self.a.lock(); }\n\
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unknown_receiver_and_index_receiver() {
        // `slots[i].lock()` resolves to `slots`; `make().lock()` is
        // skipped.
        let f = findings(&[(
            "crates/engine/src/slots.rs",
            "struct S { slots: Vec<Mutex<u32>>, b: Mutex<u32> }\n\
             impl S {\n\
               fn fwd(&self) { let g = self.slots[0].lock(); let h = self.b.lock(); }\n\
               fn bwd(&self) { let g = self.b.lock(); let h = self.slots[1].lock(); }\n\
             }",
        )]);
        // slots is typed Vec<Mutex<..>> — the `:` scan finds Mutex within
        // 8 tokens, so it IS a lock binding; cycle slots<->b flagged.
        assert_eq!(f.len(), 2, "{f:?}");
    }
}
