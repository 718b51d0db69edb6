//! Workspace symbol index: per-file parse results, fn items, and an
//! approximate call graph.
//!
//! The call graph is resolved **by bare name**: a call `foo(...)` or
//! `.foo(...)` is an edge to every workspace `fn foo`. That is the
//! honest trade for staying dependency-free (no type information): it
//! over-approximates — trait-object dispatch like `dyn ShuffleTransport`
//! is exactly why over-approximation is the *right* direction for the
//! phase rule (a missed edge hides a parallel-phase write; an extra
//! edge at worst widens the phase). A small stoplist of pure-std utility
//! names (`new`, `clone`, `push`, ...) keeps ubiquitous std methods from
//! connecting everything to everything; names that can plausibly host
//! a registry write (`read`, `write`, `get`) are deliberately NOT
//! stoplisted.

use crate::parser::ParsedFile;
use std::collections::{BTreeMap, BTreeSet};

/// Std-utility method names excluded from call-graph edges. Everything
/// here is a name no workspace fn should reuse for a registry write;
/// `tests/fixtures` exercise the consequence.
const CALL_EDGE_STOPLIST: [&str; 40] = [
    "new",
    "default",
    "clone",
    "fmt",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "contains",
    "contains_key",
    "entry",
    "extend",
    "collect",
    "map",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "min",
    "max",
    "sum",
    "abs",
    "to_string",
    "as_str",
    "as_ref",
    "from",
    "into",
    "eq",
    "cmp",
    "partial_cmp",
    "sort",
    "retain",
    "take",
    "replace",
];

/// Bare name of the fn the parallel-phase rule (L17) roots its
/// call-graph walk at:
/// `TaskExecution::run_buffered`, the compute phase the executor's worker
/// closures call.
pub const PHASE_ROOT: &str = "run_buffered";

/// One source file of the linted tree.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the linted root, forward slashes.
    pub rel_path: String,
    /// Raw source (the suppression scanner reads lines).
    pub source: String,
    /// Lexed + structured form.
    pub parsed: ParsedFile,
}

/// A call site inside an indexed fn.
#[derive(Debug, Clone)]
pub struct Call {
    /// Bare callee name.
    pub name: String,
    /// Token index of the name.
    pub name_tok: usize,
}

/// One `fn` of the workspace, addressed as (file, item).
#[derive(Debug)]
pub struct IndexedFn {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's `parsed.fns`.
    pub item: usize,
    /// Call sites in the body, source order.
    pub calls: Vec<Call>,
}

/// The cross-file symbol index.
#[derive(Debug, Default)]
pub struct Index {
    /// Every fn item in the workspace.
    pub fns: Vec<IndexedFn>,
    /// Bare fn name → fn ids defining it (any file, any impl) — the
    /// call targets. Test code is never one: a `#[test] fn probe()`
    /// must not capture every `.probe(...)` call in the workspace.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

/// The whole linted tree: parsed files plus the symbol index.
#[derive(Debug)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub index: Index,
}

impl Workspace {
    /// Parse and index `(rel_path, source)` pairs. The index is built
    /// in input order, so every finding derived from it is too.
    pub fn build(inputs: Vec<(String, String)>) -> Workspace {
        let files: Vec<SourceFile> = inputs
            .into_iter()
            .map(|(rel_path, source)| SourceFile {
                parsed: ParsedFile::parse(&source),
                rel_path,
                source,
            })
            .collect();
        let mut index = Index::default();
        for (fi, f) in files.iter().enumerate() {
            for (ii, item) in f.parsed.fns.iter().enumerate() {
                let calls = match item.body {
                    Some(body) => f
                        .parsed
                        .calls_in(body)
                        .into_iter()
                        .map(|(name, name_tok, _)| Call { name, name_tok })
                        .collect(),
                    None => Vec::new(),
                };
                let id = index.fns.len();
                index.fns.push(IndexedFn {
                    file: fi,
                    item: ii,
                    calls,
                });
                if f.parsed.test_excluded[item.kw] {
                    continue;
                }
                index.by_name.entry(item.name.clone()).or_default().push(id);
            }
        }
        Workspace { files, index }
    }

    /// The fn item record for fn id `id`.
    pub fn fn_item(&self, id: usize) -> &crate::parser::FnItem {
        let f = &self.index.fns[id];
        &self.files[f.file].parsed.fns[f.item]
    }

    /// Call-graph successors of fn `id` (stoplist applied), as fn ids.
    pub fn callees(&self, id: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for call in &self.index.fns[id].calls {
            if CALL_EDGE_STOPLIST.contains(&call.name.as_str()) {
                continue;
            }
            if let Some(ids) = self.index.by_name.get(&call.name) {
                out.extend(ids.iter().copied());
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Fn ids reachable from every fn named `root` (roots included),
    /// following name-resolved call edges.
    pub fn reachable_from(&self, root: &str) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut work: Vec<usize> = self.index.by_name.get(root).cloned().unwrap_or_default();
        while let Some(id) = work.pop() {
            if !seen.insert(id) {
                continue;
            }
            work.extend(self.callees(id));
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        )
    }

    #[test]
    fn cross_file_reachability_by_name() {
        let w = ws(&[
            (
                "crates/engine/src/task.rs",
                "pub fn run_buffered() { helper(); }",
            ),
            (
                "crates/core/src/transport.rs",
                "pub fn helper() { leaf(); }\npub fn leaf() {}",
            ),
            ("crates/core/src/other.rs", "pub fn unrelated() {}"),
        ]);
        let reach = w.reachable_from(PHASE_ROOT);
        let names: BTreeSet<&str> = reach
            .iter()
            .map(|&id| w.fn_item(id).name.as_str())
            .collect();
        assert_eq!(
            names,
            ["run_buffered", "helper", "leaf"].into_iter().collect()
        );
    }

    #[test]
    fn stoplisted_names_do_not_create_edges() {
        let w = ws(&[
            ("a.rs", "fn root() { x.clone(); target(); }"),
            (
                "b.rs",
                "fn clone() { leak(); }\nfn target() {}\nfn leak() {}",
            ),
        ]);
        let reach = w.reachable_from("root");
        let names: BTreeSet<&str> = reach
            .iter()
            .map(|&id| w.fn_item(id).name.as_str())
            .collect();
        assert!(names.contains("target"));
        assert!(!names.contains("clone"), "{names:?}");
        assert!(!names.contains("leak"));
    }

    #[test]
    fn test_fns_are_never_call_targets() {
        // A test named like a method it exercises must not stand in for
        // that method in the call graph.
        let w = ws(&[(
            "crates/engine/src/join.rs",
            "pub fn run_buffered(t: &T) { t.probe(); }\n\
             impl JoinHashTable { pub fn probe(&self) {} }\n\
             #[cfg(test)]\n\
             mod tests { #[test] fn probe() { in_module(); } }\n\
             fn in_module() {}",
        )]);
        assert_eq!(w.index.by_name["probe"].len(), 1);
        let reach = w.reachable_from(PHASE_ROOT);
        let names: Vec<&str> = reach
            .iter()
            .map(|&id| w.fn_item(id).qualified.as_str())
            .collect();
        assert_eq!(names, ["run_buffered", "JoinHashTable::probe"]);
    }

    #[test]
    fn fn_ids_are_file_major_in_input_order() {
        let inputs: Vec<(String, String)> = (0..4)
            .map(|i| {
                (
                    format!("crates/core/src/f{i}.rs"),
                    format!("pub fn f{i}() {{ helper(); }}"),
                )
            })
            .collect();
        let w = Workspace::build(inputs.clone());
        for (i, f) in w.files.iter().enumerate() {
            assert_eq!(f.rel_path, inputs[i].0);
        }
        for (id, f) in w.index.fns.iter().enumerate() {
            assert_eq!(f.file, id);
        }
    }
}
