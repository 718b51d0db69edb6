//! `cackle-lint`: a dependency-free determinism & cost-hygiene static
//! analyzer for this workspace.
//!
//! The simulator's headline claims — byte-identical reruns and exact
//! cost accounting — rest on invariants the types do not carry yet, so
//! this crate enforces them mechanically at the source level. Where a
//! type or a test can carry one, the type or test wins and the rule
//! goes: fault draws are keyed by `TaskFaults` (formerly L9/L18),
//! scratch buffers are scoped by `ScratchArena::with_*` closures
//! (formerly L16), allocation per row is counted by
//! `tests/alloc_budget.rs` (formerly L14), keyed draws are checked for
//! call-order independence by `tests/purity.rs` (formerly L19), and
//! metrics are recorded through typed `cackle_telemetry::catalog`
//! handles (formerly L10). It is a small *analyzer*, not just a
//! lexer: source is tokenized
//! ([`lexer`]), brace-matched into items, blocks, statements, and call
//! sites ([`parser`]), indexed across the workspace into fn items and
//! an approximate call graph ([`index`]), and the rule families
//! ([`rules`]) match on whichever layer they need. The crate still has
//! zero external dependencies (no `syn`, no `regex`) and is immune to
//! the classic grep failure modes (matches inside strings or comments).
//!
//! # Rules
//!
//! | id | rule | scope |
//! |----|------|-------|
//! | L1 | no `Instant` / `SystemTime` (host clock) | everywhere except `crates/bench` and `crates/cloud/src/time.rs` |
//! | L2 | no `thread_rng` / `from_entropy` / `rand::` (unseeded RNG) | everywhere |
//! | L3 | no order-revealing iteration of `HashMap` / `HashSet` | `crates/engine`, `crates/core`, `crates/telemetry` |
//! | L5 | no `unwrap()` / `expect()` / `panic!` on hot paths | `crates/cloud/src`, `crates/telemetry/src`, `crates/faults/src`, `crates/serve/src`, `core/{system,transport}.rs`, `engine/{task,shuffle,table,executor}.rs` |
//! | L6 | no `thread::spawn` / `thread::scope` (ad-hoc threading) | everywhere except `engine/src/executor.rs`, `lint/src/index.rs` |
//! | L7 | no lock-order cycles (static deadlock detector) | `crates/engine`, `crates/core` |
//! | L8 | no `Ordering::Relaxed` on atomics shared with worker closures | `crates/engine`, `crates/core` |
//! | L11 | no raw money arithmetic / call-site price formulas | everywhere except `cloud/src/{ledger,pricing}.rs`, `core/src/prices.rs`, `crates/bench` |
//! | L13 | no PRNG seeded from a literal or from another stream's draws | everywhere except `crates/prng`, `crates/bench` |
//! | L17 | no parallel-phase writes to shared registries (telemetry / shuffle / ledger) | `crates/engine`, `crates/core`, `crates/cloud` |
//!
//! L7 and L17 sit on the interprocedural layer: an approximate call
//! graph resolved by bare name ([`index`]). Every fn BFS-reachable from
//! `TaskExecution::run_buffered` ([`index::PHASE_ROOT`]) is classified
//! *parallel-phase*, and such code may not write shared registries
//! directly (L17). Which fault draws it may make is not a lint: tasks
//! hold `cackle_faults::TaskFaults`, which has only the keyed ones, and
//! the sequential handle is `!Sync`.
//!
//! `tests/`, `benches/`, and `#[cfg(test)]` / `#[test]` items are
//! skipped by default: test code may use the host clock, unwraps, and
//! hash iteration freely. With `--include-tests`, files under `tests/`
//! and `benches/` are linted against the restricted rule set {L2} (a
//! test that seeds from entropy is a flake factory even though panics
//! there are fine).
//!
//! # Suppressions
//!
//! A finding is suppressed by an inline comment on the offending line:
//!
//! ```text
//! .unwrap_or_else(|| panic!("no such table")) // cackle-lint: allow(L5)
//! ```
//!
//! A suppression on its own comment line also covers the statement
//! beginning on the next line (however the formatter wraps it), so a
//! longer justification can sit above the flagged code:
//!
//! ```text
//! // cackle-lint: allow(L5) — the id was checked against the table above
//! let row = table.get(id).unwrap();
//! ```
//!
//! Multiple ids may be listed: `// cackle-lint: allow(L1,L5)`. A
//! malformed list — unknown or retired id, duplicate id, trailing comma,
//! empty list, missing `)` — is itself a hard error (reported as `SUP`,
//! which cannot be suppressed): a typo'd allow that silently does
//! nothing is worse than no allow at all. A well-formed allow that
//! suppresses no finding is stale and fails the run too (exit code 3):
//! an allow that outlives its finding hides the next one.
//!
//! There is no baseline file. Any finding fails the run; an inline allow
//! with its reason beside the code is the only way to accept one.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod index;
pub mod lexer;
pub mod parser;
pub mod rules;

use index::Workspace;

pub use rules::explain;

/// The rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// Host clock access.
    L1,
    /// Nondeterministic RNG source.
    L2,
    /// Order-revealing hash-collection iteration.
    L3,
    /// Panic paths (`unwrap`/`expect`/`panic!`) on hot paths.
    L5,
    /// Ad-hoc threading outside the deterministic stage executor.
    L6,
    /// Lock-order cycles (static deadlock detector).
    L7,
    /// `Ordering::Relaxed` on atomics shared with worker closures.
    L8,
    /// Ledger hygiene: money arithmetic outside the billing layer.
    L11,
    /// Seed provenance: no literal seed, no seed drawn from a stream.
    L13,
    /// Phase discipline: parallel-phase writes to shared registries.
    L17,
    /// Malformed suppression comment (cannot itself be suppressed).
    Sup,
}

impl LintId {
    /// All rules, in report order.
    pub const ALL: [LintId; 11] = [
        LintId::L1,
        LintId::L2,
        LintId::L3,
        LintId::L5,
        LintId::L6,
        LintId::L7,
        LintId::L8,
        LintId::L11,
        LintId::L13,
        LintId::L17,
        LintId::Sup,
    ];

    /// Parse a live rule id (`"L1"`..`"L17"`). Retired ids do not
    /// parse, and neither does `"SUP"`: it cannot appear in an allow
    /// list.
    pub fn parse(s: &str) -> Option<LintId> {
        match s.trim() {
            "L1" => Some(LintId::L1),
            "L2" => Some(LintId::L2),
            "L3" => Some(LintId::L3),
            "L5" => Some(LintId::L5),
            "L6" => Some(LintId::L6),
            "L7" => Some(LintId::L7),
            "L8" => Some(LintId::L8),
            "L11" => Some(LintId::L11),
            "L13" => Some(LintId::L13),
            "L17" => Some(LintId::L17),
            _ => None,
        }
    }

    /// Diagnostic severity. Every rule guards an invariant whose
    /// violation breaks reruns or billing, so everything is an error —
    /// the field exists so the JSON schema has room for advisory rules
    /// later without a format break.
    pub fn severity(self) -> &'static str {
        "error"
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LintId::L1 => "L1",
            LintId::L2 => "L2",
            LintId::L3 => "L3",
            LintId::L5 => "L5",
            LintId::L6 => "L6",
            LintId::L7 => "L7",
            LintId::L8 => "L8",
            LintId::L11 => "L11",
            LintId::L13 => "L13",
            LintId::L17 => "L17",
            LintId::Sup => "SUP",
        };
        f.write_str(s)
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the linted root, with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// The violated rule.
    pub id: LintId,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.path, self.line, self.id, self.message
        )?;
        if !self.suggestion.is_empty() {
            write!(f, " — {}", self.suggestion)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Rule scoping
// ---------------------------------------------------------------------------

fn applies(id: LintId, path: &str) -> bool {
    let engine_or_core = path.starts_with("crates/engine/") || path.starts_with("crates/core/");
    match id {
        LintId::L1 => !path.starts_with("crates/bench/") && path != "crates/cloud/src/time.rs",
        LintId::L2 => true,
        LintId::L3 => engine_or_core || path.starts_with("crates/telemetry/"),
        LintId::L5 => {
            path.starts_with("crates/cloud/src/")
                || path.starts_with("crates/telemetry/src/")
                || path.starts_with("crates/faults/src/")
                || path.starts_with("crates/serve/src/")
                || matches!(
                    path,
                    "crates/core/src/system.rs"
                        | "crates/core/src/transport.rs"
                        | "crates/engine/src/task.rs"
                        | "crates/engine/src/shuffle.rs"
                        | "crates/engine/src/table.rs"
                        | "crates/engine/src/executor.rs"
                )
        }
        // All threading goes through the deterministic stage executor —
        // an ad-hoc thread has no index-ordered result slot, no telemetry
        // shard, and no keyed fault stream, so its effects depend on the
        // scheduler. The lint driver's own parser pool is the second
        // blessed site: it copies the executor's claim-by-index pattern
        // and merges results in input order.
        LintId::L6 => path != "crates/engine/src/executor.rs" && path != "crates/lint/src/index.rs",
        LintId::L7 | LintId::L8 => engine_or_core,
        LintId::L11 => {
            path != "crates/cloud/src/ledger.rs"
                && path != "crates/cloud/src/pricing.rs"
                && path != "crates/core/src/prices.rs"
                && !path.starts_with("crates/bench/")
        }
        // crates/prng defines the primitive: seeding it *is* its job.
        LintId::L13 => !path.starts_with("crates/prng/") && !path.starts_with("crates/bench/"),
        // The parallel phase is an engine concept, and the registries it
        // must not touch live in core/cloud. crates/faults and
        // crates/telemetry define the shard/merge primitives — their
        // internals are the API, not misuse of it.
        LintId::L17 => engine_or_core || path.starts_with("crates/cloud/"),
        LintId::Sup => true,
    }
}

/// Rules that still apply inside `tests/` / `benches/` files when those
/// are linted at all (`--include-tests`): entropy-seeded randomness
/// makes tests flaky, while panics and host clocks are fine there.
fn applies_in_test_dir(id: LintId) -> bool {
    matches!(id, LintId::L2 | LintId::Sup)
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// One `allow(...)` entry: the rule it names and the line its comment
/// is on (an own-line comment also covers the line below it).
type Allow = (LintId, usize);

/// Parse `// cackle-lint: allow(L1,L5)` comments. Returns, per covered
/// line, the allows in force there, plus a finding for every malformed
/// suppression: unknown id, duplicate id, trailing comma / empty
/// element, empty list, or missing `)`.
fn suppressions(rel_path: &str, source: &str) -> (BTreeMap<usize, BTreeSet<Allow>>, Vec<Finding>) {
    const MARKER: &str = "cackle-lint:";
    let mut map: BTreeMap<usize, BTreeSet<Allow>> = BTreeMap::new();
    let mut bad = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        let line = i + 1;
        let Some(at) = raw.find(MARKER) else {
            continue;
        };
        let mut err = |what: String| {
            bad.push(Finding {
                path: rel_path.to_string(),
                line,
                id: LintId::Sup,
                message: what,
                suggestion: "write `// cackle-lint: allow(L1,...)` with known, unique rule ids"
                    .into(),
            });
        };
        let rest = raw[at + MARKER.len()..].trim_start();
        // Anything else after the marker — the retired `unit(...)` and
        // `pure(...)` annotations included — is malformed.
        let Some(list) = rest.strip_prefix("allow(") else {
            err(format!(
                "malformed suppression: expected `allow(...)` after `{MARKER}`"
            ));
            continue;
        };
        let Some(close) = list.find(')') else {
            err("malformed suppression: missing `)`".into());
            continue;
        };
        let body = &list[..close];
        if body.trim().is_empty() {
            err("malformed suppression: empty allow list".into());
            continue;
        }
        let mut ids = BTreeSet::new();
        let mut ok = true;
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                err("malformed suppression: empty element (trailing comma?)".into());
                ok = false;
                break;
            }
            let Some(id) = LintId::parse(part) else {
                err(format!("malformed suppression: unknown rule id `{part}`"));
                ok = false;
                break;
            };
            if !ids.insert(id) {
                err(format!("malformed suppression: duplicate rule id `{id}`"));
                ok = false;
                break;
            }
        }
        if ok {
            let allows = ids.iter().map(|&id| (id, line));
            map.entry(line).or_default().extend(allows.clone());
            // A suppression on its own comment line also covers the next
            // line, so the justification can sit above the flagged code
            // (a trailing comment covers only its own line).
            let prefix = raw[..at].trim();
            if !prefix.is_empty() && prefix.chars().all(|c| c == '/' || c == '!') {
                map.entry(line + 1).or_default().extend(allows);
            }
        }
    }
    (map, bad)
}

// ---------------------------------------------------------------------------
// The analyzer pipeline
// ---------------------------------------------------------------------------

/// Wall-clock time of one analyzer phase (for the JSON `meta` block).
#[derive(Debug, Clone)]
pub struct PhaseTime {
    /// Phase name: `collect`, `parse`, `rules`, `filter`.
    pub name: &'static str,
    /// Elapsed milliseconds.
    pub ms: u128,
}

/// Run metadata accompanying the findings in `--format json`.
#[derive(Debug, Clone, Default)]
pub struct LintMeta {
    /// Number of files linted.
    pub files: usize,
    /// Per-phase wall-clock timings, pipeline order.
    pub phases: Vec<PhaseTime>,
    /// Parse-stage parallelism accounting (workers, busy vs wall time).
    pub parallel: index::ParallelStats,
    /// Well-formed inline allows that suppressed no finding, as
    /// `<lint-id> <path>:<line>: ...`; any one fails the run (exit 3).
    pub stale_allows: Vec<String>,
    /// Names of the fns classified parallel-phase (reachable from
    /// [`index::PHASE_ROOT`]). Empty means L17 saw nothing to check.
    pub parallel_phase: BTreeSet<String>,
}

impl LintMeta {
    /// Zero every machine-dependent field — wall-clock timings *and*
    /// the worker count — so `--timings none` output is byte-identical
    /// across runs and machines.
    pub fn zero_timings(&mut self) {
        for p in &mut self.phases {
            p.ms = 0;
        }
        self.parallel = index::ParallelStats::default();
    }
}

/// Lint a set of `(rel_path, source)` files as one workspace: parse and
/// index everything, run every rule family,
/// then centrally apply rule scoping, `#[test]`-item exclusion, the
/// tests-dir restricted rule set, and inline suppressions. Findings
/// come back sorted by (path, line, rule), with per-phase timings, the
/// allows that suppressed nothing, and the parallel-phase set.
pub fn lint_files_with_meta(inputs: Vec<(String, String)>) -> (Vec<Finding>, LintMeta) {
    let files = inputs.len();
    let t = Instant::now();
    let (ws, parallel) = Workspace::build_with_stats(inputs);
    let parse_ms = t.elapsed().as_millis();

    let t = Instant::now();
    let raw = rules::run(&ws);
    let rules_ms = t.elapsed().as_millis();

    let t = Instant::now();
    let mut findings = Vec::new();

    // Every allow starts out unused, as (file, allow); suppressing a
    // finding removes it, and what is left at the end is stale.
    let mut unused_allows: BTreeSet<(usize, Allow)> = BTreeSet::new();
    let mut suppressed = Vec::with_capacity(ws.files.len());
    for (fi, file) in ws.files.iter().enumerate() {
        let (map, bad) = suppressions(&file.rel_path, &file.source);
        findings.extend(bad);
        unused_allows.extend(map.values().flatten().map(|&allow| (fi, allow)));
        suppressed.push(map);
    }

    for r in raw {
        let file = &ws.files[r.file];
        if file
            .parsed
            .test_excluded
            .get(r.tok)
            .copied()
            .unwrap_or(false)
        {
            continue;
        }
        if file.is_test_dir && !applies_in_test_dir(r.id) {
            continue;
        }
        if !applies(r.id, &file.rel_path) {
            continue;
        }
        let line = file.parsed.toks[r.tok].line;
        // A suppression counts on the finding's own line or on the first
        // line of its statement — an own-line allow comment above a
        // statement covers it however the formatter wraps it.
        let stmt_line = file.parsed.toks[file.parsed.statement_start(r.tok)].line;
        let allow = [line, stmt_line].iter().find_map(|l| {
            let allows = suppressed[r.file].get(l)?;
            allows.iter().find(|(id, _)| *id == r.id).copied()
        });
        if let Some(allow) = allow {
            unused_allows.remove(&(r.file, allow));
            continue;
        }
        findings.push(Finding {
            path: file.rel_path.clone(),
            line,
            id: r.id,
            message: r.message,
            suggestion: r.suggestion,
        });
    }
    findings.sort();
    // Nested fns are indexed as their own items *and* scanned as part of
    // their enclosing fn's body, so site-anchored rules can report the
    // same (path, line, rule, message) twice. One site, one finding.
    findings.dedup();
    let stale_allows = unused_allows
        .into_iter()
        .map(|(fi, (id, line))| {
            let path = &ws.files[fi].rel_path;
            format!("{id} {path}:{line}: inline allow suppresses no finding")
        })
        .collect();
    let parallel_phase = ws
        .reachable_from(index::PHASE_ROOT)
        .into_iter()
        .map(|id| ws.fn_item(id).name.clone())
        .collect();
    let filter_ms = t.elapsed().as_millis();

    let meta = LintMeta {
        files,
        phases: vec![
            PhaseTime {
                name: "parse",
                ms: parse_ms,
            },
            PhaseTime {
                name: "rules",
                ms: rules_ms,
            },
            PhaseTime {
                name: "filter",
                ms: filter_ms,
            },
        ],
        parallel,
        stale_allows,
        parallel_phase,
    };
    (findings, meta)
}

/// [`lint_files_with_meta`] without the metadata.
pub fn lint_files(inputs: Vec<(String, String)>) -> Vec<Finding> {
    lint_files_with_meta(inputs).0
}

/// Lint one file's source. `rel_path` selects which rules apply. The
/// file is its own one-file workspace, so cross-file rules see only
/// local structure.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    lint_files(vec![(rel_path.to_string(), source.to_string())])
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Collect the workspace's lintable `.rs` files (sorted, relative,
/// forward-slash paths). Skips `target/`, hidden dirs, and
/// `crates/lint` itself (its fixtures contain deliberate violations);
/// skips `tests/` and `benches/` dirs unless `include_tests`.
pub fn collect_files_with(root: &Path, include_tests: bool) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, Path::new(""), include_tests, &mut out)?;
    out.sort();
    Ok(out)
}

/// [`collect_files_with`] without test dirs.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    collect_files_with(root, false)
}

fn walk(
    root: &Path,
    rel: &Path,
    include_tests: bool,
    out: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(root.join(rel))?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.file_name())
        .collect();
    entries.sort();
    for name in entries {
        let name_str = name.to_string_lossy().into_owned();
        let rel_child = rel.join(&name);
        let abs = root.join(&rel_child);
        if abs.is_dir() {
            if name_str.starts_with('.')
                || matches!(name_str.as_str(), "target" | "results")
                || (!include_tests && matches!(name_str.as_str(), "tests" | "benches"))
                || rel_child == Path::new("crates/lint")
            {
                continue;
            }
            walk(root, &rel_child, include_tests, out)?;
        } else if name_str.ends_with(".rs") {
            out.push(rel_child);
        }
    }
    Ok(())
}

/// The file that defines [`index::PHASE_ROOT`] in the real workspace.
const PHASE_ROOT_FILE: &str = "crates/engine/src/task.rs";

/// Lint every file under `root` as one workspace, returning findings
/// sorted by (path, line, rule) plus per-phase timings (including the
/// file-collection phase). A tree that contains the engine's task file
/// but no phase root gets an L17 finding of its own.
pub fn lint_root_with_meta(
    root: &Path,
    include_tests: bool,
) -> std::io::Result<(Vec<Finding>, LintMeta)> {
    let t = Instant::now();
    let mut inputs = Vec::new();
    for rel in collect_files_with(root, include_tests)? {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let source = std::fs::read_to_string(root.join(&rel))?;
        inputs.push((rel_str, source));
    }
    let collect_ms = t.elapsed().as_millis();
    let has_task_rs = inputs.iter().any(|(p, _)| p == PHASE_ROOT_FILE);
    let (mut findings, mut meta) = lint_files_with_meta(inputs);
    // A tree with the engine's task file but no phase root would pass
    // L17 by checking nothing.
    if has_task_rs && meta.parallel_phase.is_empty() {
        findings.push(Finding {
            path: PHASE_ROOT_FILE.to_string(),
            line: 1,
            id: LintId::L17,
            message: format!(
                "phase root `{}` resolves to no fn: the parallel-phase set is empty",
                index::PHASE_ROOT
            ),
            suggestion: "keep `TaskExecution::run_buffered` as the task compute entry point, \
                         or re-root `index::PHASE_ROOT` at its replacement"
                .into(),
        });
        findings.sort();
    }
    meta.phases.insert(
        0,
        PhaseTime {
            name: "collect",
            ms: collect_ms,
        },
    );
    Ok((findings, meta))
}

/// [`lint_root_with_meta`] without the metadata.
pub fn lint_root_with(root: &Path, include_tests: bool) -> std::io::Result<Vec<Finding>> {
    Ok(lint_root_with_meta(root, include_tests)?.0)
}

/// [`lint_root_with`] without test dirs.
pub fn lint_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    lint_root_with(root, false)
}

// ---------------------------------------------------------------------------
// JSON diagnostics
// ---------------------------------------------------------------------------

/// Render findings and stale allows as the deterministic
/// machine-readable document emitted by `--format json`: one finding
/// object per line, keys in fixed order, `BTreeMap` ordering throughout
/// — byte-identical across runs on identical input by construction,
/// except for the `meta` block's machine-dependent values, which
/// [`LintMeta::zero_timings`] (`--timings none`) zeroes.
pub fn render_json(findings: &[Finding], meta: &LintMeta) -> String {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for f in findings {
        *counts.entry(f.id.to_string()).or_default() += 1;
    }
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"cackle-lint\",\n  \"version\": 5,\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"file\": ");
        json_str(&mut out, &f.path);
        out.push_str(&format!(", \"line\": {}, \"rule\": \"{}\", ", f.line, f.id));
        out.push_str(&format!(
            "\"severity\": \"{}\", \"message\": ",
            f.id.severity()
        ));
        json_str(&mut out, &f.message);
        out.push_str(", \"suggestion\": ");
        json_str(&mut out, &f.suggestion);
        out.push('}');
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"stale_allows\": [");
    for (i, s) in meta.stale_allows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, s);
    }
    out.push_str("],\n  \"counts\": {");
    for (i, (id, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, id);
        out.push_str(&format!(": {n}"));
    }
    out.push_str("},\n  \"meta\": {");
    out.push_str(&format!("\"files\": {}, \"rules\": {{", meta.files));
    for (i, (id, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, id);
        out.push_str(&format!(": {n}"));
    }
    out.push_str("}, \"phases\": [");
    for (i, p) in meta.phases.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{{\"name\": \"{}\", \"ms\": {}}}", p.name, p.ms));
    }
    out.push_str(&format!(
        "], \"parallel\": {{\"workers\": {}, \"task_ms\": {}, \"wall_ms\": {}, \
         \"speedup_milli\": {}}}",
        meta.parallel.workers,
        meta.parallel.task_ms,
        meta.parallel.wall_ms,
        meta.parallel.speedup_milli()
    ));
    out.push_str("}\n}\n");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_flagged_outside_time_rs() {
        let src = "fn f() { let t = Instant::now(); }";
        let f = lint_source("crates/engine/src/task.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].id, LintId::L1);
        assert_eq!(f[0].line, 1);
        assert!(lint_source("crates/cloud/src/time.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn clock_in_comment_or_string_ignored() {
        let src = "// Instant::now is banned\nfn f() { let s = \"Instant::now\"; }";
        assert!(lint_source("crates/core/src/model.rs", src).is_empty());
    }

    #[test]
    fn rng_sources_flagged_everywhere() {
        let src = "fn f() { let mut r = rand::thread_rng(); }";
        let f = lint_source("crates/bench/src/bin/x.rs", src);
        assert!(f.iter().any(|f| f.id == LintId::L2), "{f:?}");
    }

    #[test]
    fn hash_iteration_flagged_in_engine_only() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) { for v in s.m.values() { let _ = v; } }";
        let f = lint_source("crates/engine/src/shuffle.rs", src);
        assert!(f.iter().any(|f| f.id == LintId::L3 && f.line == 2), "{f:?}");
        assert!(lint_source("crates/workload/src/demand.rs", src)
            .iter()
            .all(|f| f.id != LintId::L3));
    }

    #[test]
    fn hash_lookup_without_iteration_ok() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> Option<&u32> { s.m.get(&1) }";
        assert!(lint_source("crates/engine/src/table.rs", src)
            .iter()
            .all(|f| f.id != LintId::L3));
    }

    #[test]
    fn dollar_arithmetic_flagged_as_l11() {
        let src = "fn f(n: u64, s3_put_cost: f64) -> f64 { n as f64 * s3_put_cost }";
        let f = lint_source("crates/cloud/src/vm.rs", src);
        assert!(f.iter().any(|f| f.id == LintId::L11), "{f:?}");
        // The billing layer itself is exempt.
        assert!(lint_source("crates/cloud/src/ledger.rs", src).is_empty());
        // L11 is workspace-wide: the same code in core is flagged too.
        assert!(lint_source("crates/core/src/meta.rs", src)
            .iter()
            .any(|f| f.id == LintId::L11));
    }

    #[test]
    fn cost_equality_flagged() {
        let src = "fn f(cost: f64) -> bool { cost == 1.0 }";
        let f = lint_source("crates/engine/src/codec.rs", src);
        assert!(f.iter().any(|f| f.id == LintId::L11));
    }

    #[test]
    fn cost_sum_of_costs_allowed() {
        let src = "fn f(&self) -> f64 { self.vm_cost + self.store_cost }";
        assert!(lint_source("crates/core/src/report.rs", src).is_empty());
    }

    #[test]
    fn unwrap_flagged_on_hot_paths_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(lint_source("crates/cloud/src/vm.rs", src).len(), 1);
        assert!(lint_source("crates/workload/src/traces.rs", src).is_empty());
        // `unwrap_or_else` is a different identifier, not flagged.
        let ok = "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }";
        assert!(lint_source("crates/cloud/src/vm.rs", ok).is_empty());
    }

    #[test]
    fn panic_macros_flagged() {
        let src = "fn f() { panic!(\"boom\"); }";
        let f = lint_source("crates/core/src/system.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].id, LintId::L5);
    }

    #[test]
    fn telemetry_crate_is_covered() {
        // The observability layer feeds the golden-dump determinism test,
        // so it gets the same hash-iteration and panic-path guarantees.
        let hash = "struct S { m: HashMap<String, u64> }\n\
                    fn f(s: &S) { for v in s.m.values() { let _ = v; } }";
        let f = lint_source("crates/telemetry/src/lib.rs", hash);
        assert!(f.iter().any(|f| f.id == LintId::L3), "{f:?}");
        let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let f = lint_source("crates/telemetry/src/json.rs", unwrap);
        assert!(f.iter().any(|f| f.id == LintId::L5), "{f:?}");
    }

    #[test]
    fn cfg_test_items_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f() { let t = Instant::now(); }\n}\n\
                   fn g() { let x: Option<u32> = None; x.unwrap(); }";
        let f = lint_source("crates/cloud/src/pool.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].id, LintId::L5);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn test_attribute_skips_one_fn() {
        let src = "#[test]\nfn t() { Instant::now(); }\nfn g() { Instant::now(); }";
        let f = lint_source("crates/core/src/oracle.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn thread_spawn_flagged_outside_executor() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        let f = lint_source("crates/core/src/live.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].id, LintId::L6);
        // `thread::scope` is the same hazard.
        let scope = "fn f() { std::thread::scope(|_| {}); }";
        assert!(lint_source("crates/cloud/src/vm.rs", scope)
            .iter()
            .any(|f| f.id == LintId::L6));
        // The blessed executor is the one place threads may be made.
        assert!(lint_source("crates/engine/src/executor.rs", src)
            .iter()
            .all(|f| f.id != LintId::L6));
        // Test items may thread freely (e.g. store sharing tests).
        let test_src = "#[test]\nfn t() { std::thread::spawn(|| {}); }";
        assert!(lint_source("crates/cloud/src/object_store.rs", test_src).is_empty());
        // An unrelated `spawn` method is not flagged.
        let method = "fn f(p: &Pool) { p.spawn(); }";
        assert!(lint_source("crates/core/src/live.rs", method).is_empty());
    }

    #[test]
    fn inline_allow_suppresses_exact_rule() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // cackle-lint: allow(L5)";
        assert!(lint_source("crates/cloud/src/vm.rs", src).is_empty());
        // The wrong id does not suppress.
        let wrong = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // cackle-lint: allow(L1)";
        assert_eq!(lint_source("crates/cloud/src/vm.rs", wrong).len(), 1);
    }

    #[test]
    fn own_line_allow_covers_the_next_statement() {
        // A suppression on a comment-only line covers the statement that
        // begins on the following line, so the justification can sit
        // above the flagged code.
        let src = "fn f(x: Option<u32>) -> u32 {\n    // cackle-lint: allow(L5) — reason\n    x.unwrap()\n}";
        assert!(lint_source("crates/cloud/src/vm.rs", src).is_empty());
        // Even when the formatter wraps the statement so the flagged
        // token is several lines below the comment.
        let wrapped = "fn f(s: &S) {\n    // cackle-lint: allow(L5) — reason\n    s.telemetry\n        .thing()\n        .unwrap();\n}";
        assert!(
            lint_source("crates/cloud/src/vm.rs", wrapped).is_empty(),
            "{:?}",
            lint_source("crates/cloud/src/vm.rs", wrapped)
        );
        // It does NOT leak into the following statement.
        let far = "fn f(x: Option<u32>) -> u32 {\n    // cackle-lint: allow(L5)\n    let _y = 1;\n    x.unwrap()\n}";
        assert_eq!(lint_source("crates/cloud/src/vm.rs", far).len(), 1);
        // A trailing comment covers only its own line, not the next.
        let trailing = "fn f(x: Option<u32>) -> u32 { // cackle-lint: allow(L5)\n    x.unwrap()\n}";
        assert_eq!(lint_source("crates/cloud/src/vm.rs", trailing).len(), 1);
    }

    #[test]
    fn malformed_suppressions_are_hard_errors() {
        // Unknown id.
        let f = lint_source(
            "crates/cloud/src/vm.rs",
            "fn f() {} // cackle-lint: allow(L99)",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].id, LintId::Sup);
        assert!(f[0].message.contains("unknown rule id `L99`"));
        // Trailing comma.
        let f = lint_source(
            "crates/cloud/src/vm.rs",
            "fn f() {} // cackle-lint: allow(L5,)",
        );
        assert!(f.iter().any(|f| f.id == LintId::Sup), "{f:?}");
        // Duplicate id.
        let f = lint_source(
            "crates/cloud/src/vm.rs",
            "fn f() {} // cackle-lint: allow(L5,L5)",
        );
        assert!(f.iter().any(|f| f.id == LintId::Sup), "{f:?}");
        // Empty list.
        let f = lint_source(
            "crates/cloud/src/vm.rs",
            "fn f() {} // cackle-lint: allow()",
        );
        assert!(f.iter().any(|f| f.id == LintId::Sup), "{f:?}");
        // Missing close paren.
        let f = lint_source(
            "crates/cloud/src/vm.rs",
            "fn f() {} // cackle-lint: allow(L5",
        );
        assert!(f.iter().any(|f| f.id == LintId::Sup), "{f:?}");
        // Marker without allow() at all.
        let f = lint_source(
            "crates/cloud/src/vm.rs",
            "fn f() {} // cackle-lint: allowed(L5)",
        );
        assert!(f.iter().any(|f| f.id == LintId::Sup), "{f:?}");
        // SUP cannot be suppressed (it is not a parseable id).
        let f = lint_source(
            "crates/cloud/src/vm.rs",
            "fn f() {} // cackle-lint: allow(SUP)",
        );
        assert!(f.iter().any(|f| f.id == LintId::Sup), "{f:?}");
        // A malformed suppression does NOT suppress the finding it rode on.
        let f = lint_source(
            "crates/cloud/src/vm.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // cackle-lint: allow(L5,)",
        );
        assert!(f.iter().any(|f| f.id == LintId::L5), "{f:?}");
        assert!(f.iter().any(|f| f.id == LintId::Sup), "{f:?}");
        // Well-formed multi-id lists still work.
        let ok = "fn f() { Instant::now(); } // cackle-lint: allow(L1,L5)";
        assert!(lint_source("crates/cloud/src/vm.rs", ok).is_empty());
        // Retired ids are unknown ids: an allow naming one is SUP.
        for retired in ["L4", "L9", "L10", "L12", "L14", "L15", "L16", "L19"] {
            assert_eq!(LintId::parse(retired), None);
            let src = format!("fn f() {{}} // cackle-lint: allow({retired})");
            let f = lint_source("crates/engine/src/task.rs", &src);
            assert_eq!(f.len(), 1, "{f:?}");
            assert_eq!(f[0].id, LintId::Sup);
            assert!(f[0].message.contains(&format!("`{retired}`")), "{f:?}");
        }
        // So are the retired `unit(...)` and `pure(...)` annotations,
        // trailing or on their own line.
        for src in [
            "fn f(s: usize) -> usize { s + 1 } // cackle-lint: \
             unit(none)",
            "// cackle-lint: \
             pure(seed, vm)\nfn g(seed: u64, vm: u64) -> u64 { seed ^ vm }",
            "fn g(seed: u64) -> u64 { seed } // cackle-lint: \
             pure(seed)",
        ] {
            let f = lint_source("crates/faults/src/env.rs", src);
            assert_eq!(f.len(), 1, "{f:?}");
            assert_eq!(f[0].id, LintId::Sup);
            assert!(f[0].message.contains("expected `allow(...)`"), "{f:?}");
        }
    }

    #[test]
    fn test_dir_files_use_restricted_rule_set() {
        // Panics / clocks are fine in tests...
        let src = "fn t() { Instant::now(); let x: Option<u32> = None; x.unwrap(); }";
        assert!(lint_source("crates/cloud/tests/chaos.rs", src).is_empty());
        // ...but entropy-seeded RNG is not.
        let rng = "fn t() { let r = rand::thread_rng(); }";
        let f = lint_source("crates/cloud/tests/chaos.rs", rng);
        assert!(f.iter().any(|f| f.id == LintId::L2), "{f:?}");
    }

    #[test]
    fn workspace_pass_links_files_for_reachability_rules() {
        // L17 draws on the cross-file call graph: the write sits in core,
        // the phase root in the engine.
        let (f, meta) = lint_files_with_meta(vec![
            (
                "crates/engine/src/task.rs".to_string(),
                "pub fn run_buffered() { helper(); }".to_string(),
            ),
            (
                "crates/core/src/system.rs".to_string(),
                "pub fn helper(ledger: &mut CostLedger) { ledger.charge(c, d); }".to_string(),
            ),
        ]);
        assert!(f.iter().any(|f| f.id == LintId::L17), "{f:?}");
        assert_eq!(f[0].path, "crates/core/src/system.rs");
        let phase: Vec<&str> = meta.parallel_phase.iter().map(String::as_str).collect();
        assert_eq!(phase, ["helper", "run_buffered"]);
    }

    #[test]
    fn allows_that_suppress_nothing_are_stale() {
        let stale = |src: &str| {
            lint_files_with_meta(vec![(
                "crates/cloud/src/vm.rs".to_string(),
                src.to_string(),
            )])
            .1
            .stale_allows
        };
        // A used allow is not stale, trailing or on its own line.
        assert!(
            stale("fn f(x: Option<u32>) -> u32 { x.unwrap() } // cackle-lint: allow(L5)")
                .is_empty()
        );
        assert!(stale(
            "fn f(x: Option<u32>) -> u32 {\n    // cackle-lint: allow(L5)\n    x.unwrap()\n}"
        )
        .is_empty());
        // Nothing to suppress, or the wrong rule: stale, by rule and line.
        assert_eq!(
            stale("fn f() {}\nfn g() {} // cackle-lint: allow(L5)"),
            ["L5 crates/cloud/src/vm.rs:2: inline allow suppresses no finding"]
        );
        // Each listed id is tracked on its own.
        assert_eq!(
            stale("fn f(x: Option<u32>) -> u32 { x.unwrap() } // cackle-lint: allow(L1,L5)"),
            ["L1 crates/cloud/src/vm.rs:1: inline allow suppresses no finding"]
        );
        // So is an allow for a rule that does not apply to the path.
        assert_eq!(
            stale("fn f() { Instant::now(); } // cackle-lint: allow(L1,L3)").len(),
            1
        );
    }

    #[test]
    fn a_tree_with_task_rs_but_no_phase_root_is_a_finding() {
        let dir = std::env::temp_dir().join(format!("cackle-lint-root-{}", std::process::id()));
        let src = dir.join("crates/engine/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("task.rs"), "pub fn execute() {}\n").unwrap();
        let (f, meta) = lint_root_with_meta(&dir, false).unwrap();
        assert!(meta.parallel_phase.is_empty());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].id, f[0].line), (LintId::L17, 1));
        assert!(f[0].message.contains("run_buffered"), "{f:?}");
        // With the root in place the finding goes.
        std::fs::write(src.join("task.rs"), "pub fn run_buffered() {}\n").unwrap();
        let (f, meta) = lint_root_with_meta(&dir, false).unwrap();
        assert!(f.is_empty(), "{f:?}");
        assert!(meta.parallel_phase.contains("run_buffered"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_rendering_is_escaped_and_stable() {
        let f = vec![Finding {
            path: "crates/x/src/a.rs".into(),
            line: 3,
            id: LintId::L11,
            message: "binding \"bad\nname\" rejected".into(),
            suggestion: "fix \\ it".into(),
        }];
        let meta = LintMeta {
            files: 1,
            phases: vec![PhaseTime {
                name: "parse",
                ms: 7,
            }],
            parallel: index::ParallelStats {
                workers: 4,
                task_ms: 10,
                wall_ms: 4,
            },
            stale_allows: vec!["L5 crates/x/src/a.rs:9: inline allow suppresses no finding".into()],
            ..LintMeta::default()
        };
        let a = render_json(&f, &meta);
        let b = render_json(&f, &meta);
        assert_eq!(a, b);
        assert!(a.contains("\"version\": 5,"), "{a}");
        assert!(a.contains("\\\"bad\\nname\\\""), "{a}");
        assert!(a.contains("fix \\\\ it"), "{a}");
        assert!(
            a.contains(
                "{\"file\": \"crates/x/src/a.rs\", \"line\": 3, \"rule\": \"L11\", \
                 \"severity\": \"error\", \"message\": "
            ),
            "{a}"
        );
        assert!(
            a.contains(
                "\"stale_allows\": [\"L5 crates/x/src/a.rs:9: inline allow suppresses no finding\"]"
            ),
            "{a}"
        );
        assert!(a.contains("\"counts\": {\"L11\": 1}"));
        assert!(
            a.contains(
                "\"meta\": {\"files\": 1, \"rules\": {\"L11\": 1}, \
                        \"phases\": [{\"name\": \"parse\", \"ms\": 7}], \
                        \"parallel\": {\"workers\": 4, \"task_ms\": 10, \"wall_ms\": 4, \
                        \"speedup_milli\": 2500}}"
            ),
            "{a}"
        );
        // Empty-findings document is well-formed too; zeroed timings
        // (the `--timings none` shape) render all-zero parallel stats.
        let empty = render_json(&[], &LintMeta::default());
        assert!(empty.contains("\"findings\": []"), "{empty}");
        assert!(empty.contains("\"stale_allows\": []"), "{empty}");
        assert!(empty.contains("\"phases\": []"), "{empty}");
        assert!(
            empty.contains(
                "\"parallel\": {\"workers\": 0, \"task_ms\": 0, \"wall_ms\": 0, \
                 \"speedup_milli\": 0}"
            ),
            "{empty}"
        );
    }

    #[test]
    fn seed_rule_is_scoped_and_suppressible() {
        // L13 fires in core, not in the prng crate or in #[test] items.
        let seed = "fn f() -> Pcg32 { Pcg32::seed_from_u64(42) }";
        assert!(lint_source("crates/core/src/model.rs", seed)
            .iter()
            .any(|f| f.id == LintId::L13));
        assert!(lint_source("crates/prng/src/lib.rs", seed).is_empty());
        // Suppressible like any other rule.
        let allowed = "fn f() -> Pcg32 { Pcg32::seed_from_u64(42) } // cackle-lint: allow(L13)";
        assert!(lint_source("crates/core/src/model.rs", allowed).is_empty());
        let test_seed = "#[test]\nfn t() { let r = Pcg32::seed_from_u64(42); }";
        assert!(lint_source("crates/core/src/model.rs", test_seed).is_empty());
    }

    #[test]
    fn meta_reports_files_and_all_phases() {
        let (_, meta) = lint_files_with_meta(vec![(
            "crates/core/src/x.rs".to_string(),
            "fn f() {}".to_string(),
        )]);
        assert_eq!(meta.files, 1);
        let names: Vec<&str> = meta.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["parse", "rules", "filter"]);
    }
}
