//! Workspace symbol index: per-file parse results, fn items, `use`
//! edges, lock/atomic bindings, and an approximate call graph.
//!
//! The call graph is resolved **by bare name**: a call `foo(...)` or
//! `.foo(...)` is an edge to every workspace `fn foo`. That is the
//! honest trade for staying dependency-free (no type information): it
//! over-approximates — trait-object dispatch like `dyn ShuffleTransport`
//! is exactly why over-approximation is the *right* direction for the
//! concurrency rules (a missed edge hides a deadlock; an extra edge at
//! worst widens a scope). A small stoplist of pure-std utility names
//! (`new`, `clone`, `push`, ...) keeps ubiquitous std methods from
//! connecting everything to everything; names that can plausibly host
//! lock or fault-draw behaviour (`read`, `write`, `get`, `lock`) are
//! deliberately NOT stoplisted.

use crate::parser::ParsedFile;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Std-utility method names excluded from call-graph edges. Everything
/// here is a name no workspace fn should reuse for lock-taking or
/// fault-drawing behaviour; `tests/fixtures` exercise the consequence.
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
    /// File stem (`shuffle` for `crates/engine/src/shuffle.rs`) —
    /// qualifies lock identities across files.
    pub stem: String,
    /// Lives under a `tests/` or `benches/` directory (restricted rule
    /// set).
    pub is_test_dir: bool,
}

/// A call site inside an indexed fn.
#[derive(Debug, Clone)]
pub struct Call {
    /// Bare callee name.
    pub name: String,
    /// Token index of the name.
    pub name_tok: usize,
    /// Token index of the opening `(`.
    pub open: usize,
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
    /// Per file: identifiers bound with `Mutex`/`RwLock` types.
    pub lock_names: Vec<BTreeSet<String>>,
    /// Per file: identifiers bound with `Atomic*` types.
    pub atomic_names: Vec<BTreeSet<String>>,
}

/// The whole linted tree: parsed files plus the symbol index.
#[derive(Debug)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub index: Index,
}

/// Wall-clock accounting for the parallel lex+parse stage: `task_ms`
/// is the sum of per-worker busy time, `wall_ms` the elapsed time of
/// the whole stage, so `task_ms / wall_ms` is the realized speedup.
/// All three zero out under `--timings none` (worker count is
/// machine-dependent, so determinism requires hiding it too).
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelStats {
    /// Worker threads used (1 = serial path).
    pub workers: usize,
    /// Sum of per-worker busy milliseconds.
    pub task_ms: u128,
    /// Elapsed milliseconds of the parse stage.
    pub wall_ms: u128,
}

impl ParallelStats {
    /// Realized parse-stage speedup ×1000 (`2500` = 2.5×), `0` when
    /// the stage was too fast to measure.
    pub fn speedup_milli(&self) -> u128 {
        if self.wall_ms == 0 {
            0
        } else {
            self.task_ms * 1000 / self.wall_ms
        }
    }
}

fn parse_one(rel_path: String, source: String) -> SourceFile {
    let parsed = ParsedFile::parse(&source);
    let stem = rel_path
        .rsplit('/')
        .next()
        .unwrap_or(&rel_path)
        .trim_end_matches(".rs")
        .to_string();
    let is_test_dir = rel_path.split('/').any(|c| c == "tests" || c == "benches");
    SourceFile {
        rel_path,
        source,
        parsed,
        stem,
        is_test_dir,
    }
}

impl Workspace {
    /// Parse and index `(rel_path, source)` pairs.
    pub fn build(inputs: Vec<(String, String)>) -> Workspace {
        Workspace::build_with_stats(inputs).0
    }

    /// [`Workspace::build`] plus parse-stage parallelism accounting.
    ///
    /// Lex+parse is embarrassingly parallel (per-file, no shared
    /// state), so files are claimed by index from a
    /// `std::thread::scope` pool — the same claim-by-index pattern as
    /// the engine executor, and the second blessed L6 site. Results
    /// land in index-ordered slots and the symbol index is built
    /// serially afterwards, so the workspace — and every finding and
    /// byte of output derived from it — is identical at any worker
    /// count.
    pub fn build_with_stats(inputs: Vec<(String, String)>) -> (Workspace, ParallelStats) {
        let wall = Instant::now();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
            .min(inputs.len().max(1));
        let (files, task_ms) = if workers < 2 {
            let t = Instant::now();
            let files = inputs
                .into_iter()
                .map(|(p, s)| parse_one(p, s))
                .collect::<Vec<_>>();
            (files, t.elapsed().as_millis())
        } else {
            let n = inputs.len();
            let next = AtomicUsize::new(0);
            let busy_ms = AtomicU64::new(0);
            let mut slots: Vec<Option<SourceFile>> = Vec::new();
            slots.resize_with(n, || None);
            let parsed: Vec<(usize, SourceFile)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| {
                            let t = Instant::now();
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::SeqCst);
                                if i >= n {
                                    break;
                                }
                                let (p, src) = &inputs[i];
                                local.push((i, parse_one(p.clone(), src.clone())));
                            }
                            busy_ms.fetch_add(t.elapsed().as_millis() as u64, Ordering::SeqCst);
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("parser worker panicked"))
                    .collect()
            });
            for (i, file) in parsed {
                slots[i] = Some(file);
            }
            let files = slots
                .into_iter()
                .map(|f| f.expect("every input index claimed exactly once"))
                .collect();
            (files, busy_ms.load(Ordering::SeqCst) as u128)
        };
        let stats = ParallelStats {
            workers,
            task_ms,
            wall_ms: wall.elapsed().as_millis(),
        };

        let mut index = Index::default();
        for (fi, f) in files.iter().enumerate() {
            index.lock_names.push(typed_bindings(&f.parsed, &|name| {
                name == "Mutex" || name == "RwLock"
            }));
            index.atomic_names.push(typed_bindings(&f.parsed, &|name| {
                name.starts_with("Atomic") && name.len() > "Atomic".len()
            }));
            for (ii, item) in f.parsed.fns.iter().enumerate() {
                let calls = match item.body {
                    Some(body) => f
                        .parsed
                        .calls_in(body)
                        .into_iter()
                        .map(|(name, name_tok, open)| Call {
                            name,
                            name_tok,
                            open,
                        })
                        .collect(),
                    None => Vec::new(),
                };
                let id = index.fns.len();
                index.fns.push(IndexedFn {
                    file: fi,
                    item: ii,
                    calls,
                });
                if f.is_test_dir || f.parsed.test_excluded[item.kw] {
                    continue;
                }
                index.by_name.entry(item.name.clone()).or_default().push(id);
            }
        }
        (Workspace { files, index }, stats)
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
        let mut work: Vec<usize> = self
            .index
            .by_name
            .get(root)
            .map(|ids| ids.clone())
            .unwrap_or_default();
        while let Some(id) = work.pop() {
            if !seen.insert(id) {
                continue;
            }
            work.extend(self.callees(id));
        }
        seen
    }

    /// Is the call edge through `name` kept in the graph?
    pub fn edge_name_kept(name: &str) -> bool {
        !CALL_EDGE_STOPLIST.contains(&name)
    }
}

/// Identifiers declared with a type accepted by `is_type`:
/// `name: ...Type<...>` (fields, params, statics) and
/// `let [mut] name = ... Type::new(...)`-style initializers.
fn typed_bindings(parsed: &ParsedFile, is_type: &dyn Fn(&str) -> bool) -> BTreeSet<String> {
    let toks = &parsed.toks;
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].ident().is_empty() {
            continue;
        }
        // `name : ... Type` within a few tokens, before any delimiter.
        if toks.get(i + 1).map(|t| t.punct()) == Some(":") {
            for t in toks.iter().skip(i + 2).take(8) {
                if is_type(t.ident()) {
                    names.insert(toks[i].text.clone());
                    break;
                }
                if matches!(t.punct(), "," | ";" | ")" | "{" | "}" | "=") {
                    break;
                }
            }
        }
        // `let [mut] name ... = ... Type ... ;`
        if toks[i].ident() == "let" {
            let mut j = i + 1;
            if toks.get(j).map(|t| t.ident()) == Some("mut") {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|t| !t.ident().is_empty()) {
                let mut k = j + 1;
                while k < toks.len() && toks[k].punct() != ";" {
                    if is_type(toks[k].ident()) {
                        names.insert(name.text.clone());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    names
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
        // that method in the call graph, from a `tests/` file or from a
        // `#[cfg(test)]` module.
        let w = ws(&[
            (
                "crates/engine/src/join.rs",
                "pub fn run_buffered(t: &T) { t.probe(); }\n\
                 impl JoinHashTable { pub fn probe(&self) {} }\n\
                 #[cfg(test)]\n\
                 mod tests { #[test] fn probe() { in_module(); } }\n\
                 fn in_module() {}",
            ),
            (
                "crates/engine/tests/join.rs",
                "#[test]\nfn probe() { in_tests_dir(); }\nfn in_tests_dir() {}",
            ),
        ]);
        assert_eq!(w.index.by_name["probe"].len(), 1);
        let reach = w.reachable_from(PHASE_ROOT);
        let names: Vec<&str> = reach
            .iter()
            .map(|&id| w.fn_item(id).qualified.as_str())
            .collect();
        assert_eq!(names, ["run_buffered", "JoinHashTable::probe"]);
    }

    #[test]
    fn lock_and_atomic_bindings_collected() {
        let w = ws(&[(
            "crates/engine/src/shuffle.rs",
            "struct S { data: RwLock<u32>, stats: Mutex<u8>, n: AtomicUsize }\n\
             fn f() { let local = Mutex::new(0); let c = AtomicU64::new(0); }",
        )]);
        let locks = &w.index.lock_names[0];
        assert!(locks.contains("data") && locks.contains("stats") && locks.contains("local"));
        assert!(!locks.contains("n"));
        let atomics = &w.index.atomic_names[0];
        assert!(atomics.contains("n") && atomics.contains("c"));
        assert!(!atomics.contains("data"));
    }

    #[test]
    fn parallel_parse_preserves_input_order_and_index() {
        // Enough files that a multi-core machine takes the pooled path;
        // the workspace must come out in input order regardless, with
        // fn ids assigned file-major exactly as the serial path would.
        let inputs: Vec<(String, String)> = (0..40)
            .map(|i| {
                (
                    format!("crates/core/src/f{i:02}.rs"),
                    format!("pub fn f{i:02}() {{ helper(); }}"),
                )
            })
            .collect();
        let (w, stats) = Workspace::build_with_stats(inputs.clone());
        assert!(stats.workers >= 1);
        assert_eq!(w.files.len(), 40);
        for (i, f) in w.files.iter().enumerate() {
            assert_eq!(f.rel_path, inputs[i].0);
        }
        for (id, f) in w.index.fns.iter().enumerate() {
            assert_eq!(f.file, id, "fn ids must be file-major in input order");
        }
        assert_eq!(w.index.by_name.len(), 40);
    }

    #[test]
    fn test_dir_files_flagged() {
        let w = ws(&[
            ("crates/cloud/tests/proptests.rs", "fn t() {}"),
            ("crates/cloud/src/vm.rs", "fn f() {}"),
        ]);
        assert!(w.files[0].is_test_dir);
        assert!(!w.files[1].is_test_dir);
    }
}
