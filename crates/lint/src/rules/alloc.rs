//! L14 · per-iteration allocation on the engine's hot paths.
//!
//! The columnar engine's throughput claims die by a thousand
//! `Vec::new()`s: an allocation inside an operator loop runs once per
//! batch/row/partition instead of once per task. This rule flags, in
//! *hot-path* functions only, these shapes inside `for`/`while`/`loop`
//! bodies:
//!
//! * `Vec::new()` / `vec![...]` — per-iteration buffer construction;
//! * `.collect()` — materializes a fresh container per iteration;
//! * `.clone()` — deep copy per iteration (`Arc::clone` and
//!   schema-named receivers are exempt: refcount bumps and shared
//!   `Arc<Schema>` handles are cheap by design);
//! * `format!` — per-iteration string allocation;
//! * `.push(...)` into a vector whose initializer was `Vec::new()` /
//!   `vec![]` with no `with_capacity` — growth reallocations inside
//!   the loop.
//!
//! Hot-path = BFS-reachable from `TaskExecution::run_buffered`
//! ([`PHASE_ROOT`]) or from any operator `next` fn, plus everything
//! defined in the columnar kernel files
//! `crates/engine/src/{batch,column}.rs` and the vectorized kernel tree
//! `crates/engine/src/kernels/` — the kernels every operator bottoms out
//! in, which reachability alone misses because ubiquitous method names
//! (`take`, `len`) are call-graph stoplisted.
//!
//! Every suggestion is machine-readable: it starts with
//! `reuse-buffer:` and names the reusable-buffer alternative.

use super::RawFinding;
use crate::dataflow::Flows;
use crate::index::{Workspace, PHASE_ROOT};
use crate::lexer::TokKind;
use crate::LintId;
use std::collections::BTreeSet;

/// Kernel files whose fns are hot by definition.
const KERNEL_FILES: [&str; 2] = ["crates/engine/src/batch.rs", "crates/engine/src/column.rs"];

/// Every fn under the vectorized kernel tree is hot by definition too.
const KERNEL_DIR: &str = "crates/engine/src/kernels/";

/// Serving-layer files whose loops run once per simulated second per
/// tenant (admission gating, WDRR dispatch) — hot by definition, since
/// reachability from the engine roots cannot see them.
const SERVE_HOT_FILES: [&str; 2] = [
    "crates/serve/src/admission.rs",
    "crates/serve/src/scheduler.rs",
];

pub fn check(ws: &Workspace, fl: &Flows, out: &mut Vec<RawFinding>) {
    let mut domain: BTreeSet<usize> = ws.reachable_from(PHASE_ROOT);
    domain.extend(ws.reachable_from("next"));
    for (id, f) in ws.index.fns.iter().enumerate() {
        let rel = ws.files[f.file].rel_path.as_str();
        if KERNEL_FILES.contains(&rel)
            || rel.starts_with(KERNEL_DIR)
            || SERVE_HOT_FILES.contains(&rel)
        {
            domain.insert(id);
        }
    }

    for &id in &domain {
        let f = &ws.index.fns[id];
        let p = &ws.files[f.file].parsed;
        let toks = &p.toks;
        let flow = &fl.flows[id];
        if flow.loops.is_empty() {
            continue;
        }
        let Some(body) = ws.fn_item(id).body else {
            continue;
        };

        for i in body.0 + 1..body.1 {
            if !flow.in_loop(i) || toks[i].kind != TokKind::Ident {
                continue;
            }
            let next = toks.get(i + 1).map(|t| t.punct()).unwrap_or("");
            if toks[i].text == "Vec"
                && next == "::"
                && toks.get(i + 2).map(|t| t.ident()) == Some("new")
                && toks.get(i + 3).map(|t| t.punct()) == Some("(")
            {
                out.push(finding(
                    f.file,
                    i,
                    "`Vec::new()` allocates inside a hot-path loop",
                    "reuse-buffer: hoist a `Vec::with_capacity(...)` above the loop and \
                     `clear()` it per iteration",
                ));
            }
            if toks[i].text == "vec" && next == "!" {
                out.push(finding(
                    f.file,
                    i,
                    "`vec![...]` allocates inside a hot-path loop",
                    "reuse-buffer: hoist a `Vec::with_capacity(...)` above the loop and \
                     refill it per iteration",
                ));
            }
            if toks[i].text == "format" && next == "!" {
                out.push(finding(
                    f.file,
                    i,
                    "`format!` allocates a String inside a hot-path loop",
                    "reuse-buffer: `write!` into a String hoisted above the loop and \
                     cleared per iteration",
                ));
            }
        }

        for call in &f.calls {
            if !flow.in_loop(call.name_tok) || call.name_tok == 0 {
                continue;
            }
            let prev = toks[call.name_tok - 1].punct();
            match call.name.as_str() {
                "collect" if prev == "." => {
                    out.push(finding(
                        f.file,
                        call.name_tok,
                        "`.collect()` materializes a fresh container inside a hot-path loop",
                        "reuse-buffer: `extend(...)` into a buffer hoisted above the loop \
                         (or use a pre-sized slice path)",
                    ));
                }
                "clone" if prev == "." => {
                    // `Arc`-style refcount bumps and shared schema
                    // handles are cheap by design.
                    let recv = receiver_ident(p, call.name_tok);
                    if recv
                        .as_deref()
                        .is_some_and(|r| r.to_ascii_lowercase().contains("schema"))
                    {
                        continue;
                    }
                    out.push(finding(
                        f.file,
                        call.name_tok,
                        "`.clone()` deep-copies inside a hot-path loop",
                        "reuse-buffer: borrow the value, or move it out of the loop and \
                         reuse one copy",
                    ));
                }
                "push" if prev == "." => {
                    let Some(recv) = receiver_ident(p, call.name_tok) else {
                        continue;
                    };
                    // Find the receiver's initializer; flag only when it
                    // provably starts from an unsized `Vec::new`/`vec!`.
                    let mut unsized_init = false;
                    for a in &flow.assigns {
                        if a.target != recv {
                            continue;
                        }
                        let rhs: Vec<&str> = toks[a.rhs.0..=a.rhs.1.min(toks.len() - 1)]
                            .iter()
                            .map(|t| t.text.as_str())
                            .collect();
                        if rhs.contains(&"with_capacity") {
                            unsized_init = false;
                            break;
                        }
                        if rhs.contains(&"vec") || (rhs.contains(&"Vec") && rhs.contains(&"new")) {
                            unsized_init = true;
                        }
                    }
                    if unsized_init {
                        out.push(finding(
                            f.file,
                            call.name_tok,
                            &format!(
                                "`.push` into `{recv}`, which was initialized without \
                                 `with_capacity`, reallocates inside a hot-path loop"
                            ),
                            &format!(
                                "reuse-buffer: initialize `{recv}` with \
                                 `Vec::with_capacity(...)` sized from the loop bound"
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

fn finding(file: usize, tok: usize, message: &str, suggestion: &str) -> RawFinding {
    RawFinding {
        file,
        tok,
        id: LintId::L14,
        message: message.to_string(),
        suggestion: suggestion.to_string(),
    }
}

/// Terminal identifier of a method call's receiver: `xs.push` → `xs`,
/// `per_partition[p].push` → `per_partition`, `self.buf.push` → `buf`.
/// `Arc::clone` style path calls return None (no `.` receiver).
fn receiver_ident(p: &crate::parser::ParsedFile, name_tok: usize) -> Option<String> {
    if name_tok < 2 {
        return None;
    }
    let toks = &p.toks;
    let mut i = name_tok - 2;
    if toks[i].punct() == "]" {
        // Index expression: hop to the `[` and take the ident before it.
        let open = (0..i).rev().find(|&k| p.close_of(k) == Some(i))?;
        i = open.checked_sub(1)?;
    }
    (toks[i].kind == TokKind::Ident).then(|| toks[i].text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Flows;

    fn findings(files: &[(&str, &str)]) -> Vec<RawFinding> {
        let ws = Workspace::build(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        );
        let fl = Flows::build(&ws);
        let mut out = Vec::new();
        check(&ws, &fl, &mut out);
        out
    }

    #[test]
    fn allocations_in_reachable_loops_flagged() {
        let f = findings(&[(
            "crates/engine/src/task.rs",
            "pub fn run_buffered(n: usize) {\n\
                 for i in 0..n {\n\
                     let idx: Vec<usize> = (0..i).collect();\n\
                     let s = format!(\"{i}\");\n\
                 }\n\
             }",
        )]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.suggestion.starts_with("reuse-buffer:")));
    }

    #[test]
    fn outside_loops_or_outside_domain_clean() {
        // Same shapes outside any loop: clean.
        assert!(findings(&[(
            "crates/engine/src/task.rs",
            "pub fn run_buffered(n: usize) { let v: Vec<usize> = (0..n).collect(); }",
        )])
        .is_empty());
        // Same shapes in a loop, but unreachable from any root: clean.
        assert!(findings(&[(
            "crates/engine/src/plan.rs",
            "pub fn cold(n: usize) { for i in 0..n { let v = Vec::new(); v.len(); } }",
        )])
        .is_empty());
    }

    #[test]
    fn kernel_files_are_hot_without_reachability() {
        let f = findings(&[(
            "crates/engine/src/batch.rs",
            "impl Batch { pub fn chunks(&self, n: usize) {\n\
                 let mut start = 0;\n\
                 while start < n {\n\
                     let idx: Vec<usize> = (start..n).collect();\n\
                     start += n;\n\
                 }\n\
             } }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("collect"));
    }

    #[test]
    fn kernels_dir_is_hot_without_reachability() {
        let f = findings(&[(
            "crates/engine/src/kernels/select.rs",
            "pub fn gather_all(masks: &[Mask]) {\n\
                 for m in masks { let v: Vec<usize> = m.ones().collect(); v.len(); }\n\
             }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("collect"));
    }

    #[test]
    fn serve_hot_files_are_hot_without_reachability() {
        let f = findings(&[(
            "crates/serve/src/scheduler.rs",
            "pub fn drain_round(classes: &[Class]) {\n\
                 for c in classes { let names: Vec<u32> = c.ids().collect(); names.len(); }\n\
             }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("collect"));
        // Other serve files still need reachability to join the domain.
        assert!(findings(&[(
            "crates/serve/src/run.rs",
            "pub fn assemble(n: usize) { for i in 0..n { let v = Vec::new(); v.len(); } }",
        )])
        .is_empty());
    }

    #[test]
    fn push_without_capacity_flagged_and_sized_push_clean() {
        let hot = |body: &str| {
            findings(&[(
                "crates/engine/src/task.rs",
                &format!("pub fn run_buffered(n: usize) {{ {body} }}"),
            )])
        };
        let f = hot("let mut acc = Vec::new();\n\
             for i in 0..n { acc.push(i); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("with_capacity"));
        assert!(hot("let mut acc = Vec::with_capacity(n);\n\
             for i in 0..n { acc.push(i); }")
        .is_empty());
        // Indexed receivers resolve through the `[...]` group.
        let f = hot("let mut parts = vec![Vec::new(); 4];\n\
             for i in 0..n { parts[i % 4].push(i); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("parts"));
    }

    #[test]
    fn schema_clones_and_arc_clone_exempt() {
        let f = findings(&[(
            "crates/engine/src/task.rs",
            "pub fn run_buffered(parts: &[Part], out_schema: &Schema) {\n\
                 for p in parts {\n\
                     emit(out_schema.clone());\n\
                     emit2(Arc::clone(&out_schema));\n\
                     consume(p.clone());\n\
                 }\n\
             }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("clone"));
    }

    #[test]
    fn next_paths_are_roots_too() {
        let f = findings(&[(
            "crates/engine/src/operator.rs",
            "impl Filter { pub fn next(&mut self) -> Option<Batch> {\n\
                 for b in &self.pending { self.out.push(b.clone()); }\n\
                 None\n\
             } }",
        )]);
        // `.clone()` in the loop is flagged; `.push` is not (receiver
        // `out` has no local unsized initializer).
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("clone"));
    }
}
