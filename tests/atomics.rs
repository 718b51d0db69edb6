//! The workspace's shared-memory surface, pinned by listing it.
//!
//! Byte-identical output at any worker count rests on the stage
//! executor's claim-by-index pool and on locks that are never nested.
//! Both are small enough to list, so this test lists them instead of a
//! lint rule analysing them:
//!
//! * `Ordering::Relaxed` gives no happens-before edge. The one place it
//!   is enough is the executor's claim counter, whose value only picks
//!   the next task index and never publishes data. Anything else that
//!   synchronizes uses Acquire/Release or SeqCst.
//! * A lock-order cycle needs two locks held at once. The engine and
//!   core hold the locks in [`ENGINE_AND_CORE_LOCKS`], and no path holds
//!   two of them: each is taken through a one-line helper and dropped
//!   before the next. A new lock joins the list with its acquisition
//!   order argued in review.
//! * `unsafe` is denied in every workspace manifest. Under `crates/*/src`
//!   the one kept site is the executor pool's handoff, which erases the
//!   lifetime of a caller's borrowed share so that threads outliving the
//!   call can run it; its `// SAFETY:` argument sits at the site.
//!
//! The scan is textual over every `.rs` file under `crates/*/src`
//! (test modules included), skipping `//` comment lines.

use std::path::{Path, PathBuf};

/// The engine and core lock declarations, as `(file, line text)`.
///
/// The executor holds two. A call's result slots are taken by a worker
/// only inside the call's share, to store one result. The pool's `state`
/// is taken only by the pool's own bookkeeping (post, take a seat, leave,
/// settle), never while a share runs, so no path holds it and a result
/// slot together.
const ENGINE_AND_CORE_LOCKS: [(&str, &str); 7] = [
    (
        "crates/core/src/transport.rs",
        "placement: Mutex<Placement>,",
    ),
    ("crates/core/src/transport.rs", "stats: Mutex<HybridStats>,"),
    (
        "crates/engine/src/executor.rs",
        "let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();",
    ),
    ("crates/engine/src/executor.rs", "state: Mutex<PoolState>,"),
    (
        "crates/engine/src/shuffle.rs",
        "data: RwLock<BTreeMap<ShuffleKey, Vec<ShuffleChunk>>>,",
    ),
    (
        "crates/engine/src/shuffle.rs",
        "stats: Mutex<ShuffleStats>,",
    ),
    (
        "crates/engine/src/table.rs",
        "tables: RwLock<BTreeMap<String, Arc<Table>>>,",
    ),
];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("reading a source directory").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every non-comment line under `crates/*/src` that contains one of
/// `needles`, as `(path relative to the repo root, trimmed line)`, sorted.
fn code_lines_containing(needles: &[&str]) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("reading crates/") {
        rs_files(
            &krate.expect("reading crates/").path().join("src"),
            &mut files,
        );
    }
    let mut hits = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path).expect("reading a source file");
        let rel = path
            .strip_prefix(root)
            .expect("under the repo root")
            .to_string_lossy()
            .replace('\\', "/");
        for line in source.lines().map(str::trim) {
            if !line.starts_with("//") && needles.iter().any(|n| line.contains(n)) {
                hits.push((rel.clone(), line.to_string()));
            }
        }
    }
    hits.sort();
    hits
}

#[test]
fn the_executor_claim_counter_is_the_only_relaxed_atomic() {
    assert_eq!(
        code_lines_containing(&["Relaxed"]),
        [(
            "crates/engine/src/executor.rs".to_string(),
            "let i = next.fetch_add(1, Ordering::Relaxed);".to_string()
        )],
        "a new `Relaxed` atomic: use Acquire/Release (or SeqCst) when it \
         synchronizes anything"
    );
}

#[test]
fn the_pool_handoff_is_the_only_unsafe() {
    let line = |l: &str| ("crates/engine/src/executor.rs".to_string(), l.to_string());
    assert_eq!(
        code_lines_containing(&["unsafe"]),
        [
            line(
                "let erased = unsafe { std::mem::transmute::<&Share<'_>, &'static Share<'static>>(share) };"
            ),
            line("unsafe_code,"),
        ],
        "new `unsafe`: the executor pool's handoff is the one kept site, \
         with its SAFETY argument"
    );
}

#[test]
fn engine_and_core_hold_only_the_listed_locks() {
    let hits: Vec<(String, String)> = code_lines_containing(&["Mutex<", "RwLock<"])
        .into_iter()
        .filter(|(path, _)| path.starts_with("crates/core/") || path.starts_with("crates/engine/"))
        .collect();
    let listed: Vec<(String, String)> = ENGINE_AND_CORE_LOCKS
        .iter()
        .map(|&(f, l)| (f.to_string(), l.to_string()))
        .collect();
    assert_eq!(
        hits, listed,
        "engine/core locks changed: a new lock joins ENGINE_AND_CORE_LOCKS \
         with an argument that no path holds it together with another"
    );
}
