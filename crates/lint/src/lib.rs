//! `cackle-lint`: a dependency-free cost-hygiene static analyzer for
//! this workspace.
//!
//! The simulator's headline claims — byte-identical reruns and exact
//! cost accounting — rest on invariants. Where a type, a test, the build
//! or clippy can carry one, that wins and the rule goes: fault draws are
//! keyed by `TaskFaults` (formerly L9/L18), scratch buffers are scoped
//! by `ScratchArena::with_*` closures (formerly L16), allocation per row
//! is counted by `tests/alloc_budget.rs` (formerly L14), keyed draws are
//! checked for call-order independence by `tests/purity.rs` (formerly
//! L19), metrics are recorded through typed `cackle_telemetry::catalog`
//! handles (formerly L10), every PRNG stream is built from a
//! `cackle_prng::Seed` whose one constructor clippy disallows outside
//! the listed mint sites (formerly L13), a task's `TaskContext` can only
//! read the shuffle and records nothing, so publication happens at the
//! executor's stage barrier (formerly L17), the root `clippy.toml` with
//! per-crate `[lints.clippy]` tables carries the host clock (L1),
//! hash-order iteration (L3), hot-path panics (L5) and ad-hoc threads
//! (L6), the hermetic build (`tests/hermetic.rs`) leaves no RNG crate to
//! call (L2), and `tests/atomics.rs` pins the workspace's one
//! `Ordering::Relaxed` and its locks (L8/L7).
//!
//! What is left is one rule, L11, until a money type carries it: source
//! is tokenized ([`lexer`]), brace-matched with statement starts and
//! call argument spans ([`parser`]), and [`rules`] matches on the
//! tokens. The crate has zero external dependencies (no `syn`, no
//! `regex`) and is immune to the classic grep failure modes (matches
//! inside strings or comments).
//!
//! # Rules
//!
//! | id | rule | scope |
//! |----|------|-------|
//! | L11 | no raw money arithmetic / call-site price formulas | everywhere except `cloud/src/{ledger,pricing}.rs`, `core/src/prices.rs`, `crates/bench` |
//!
//! `tests/` and `benches/` directories and `#[cfg(test)]` / `#[test]`
//! items are skipped: test code may do money arithmetic freely.
//!
//! # Suppressions
//!
//! A finding is suppressed by an inline comment on the offending line:
//!
//! ```text
//! let share = cost * weight; // cackle-lint: allow(L11)
//! ```
//!
//! A suppression on its own comment line also covers the statement
//! beginning on the next line (however the formatter wraps it), so a
//! longer justification can sit above the flagged code:
//!
//! ```text
//! // cackle-lint: allow(L11) — attribution mirror of dollars already minted
//! let share = cost * weight;
//! ```
//!
//! A malformed list — unknown or retired id, duplicate id, trailing
//! comma, empty list, missing `)` — is itself a hard error (reported as
//! `SUP`, which cannot be suppressed): a typo'd allow that silently does
//! nothing is worse than no allow at all. A well-formed allow that
//! suppresses no finding is stale and fails the run too (exit code 3):
//! an allow that outlives its finding hides the next one.
//!
//! There is no baseline file. Any finding fails the run; an inline allow
//! with its reason beside the code is the only way to accept one.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod parser;
pub mod rules;

use parser::ParsedFile;

pub use rules::explain;

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

impl SourceFile {
    /// Parse one `(rel_path, source)` input.
    pub fn new(rel_path: String, source: String) -> SourceFile {
        SourceFile {
            parsed: ParsedFile::parse(&source),
            rel_path,
            source,
        }
    }
}

/// The rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// Ledger hygiene: money arithmetic outside the billing layer.
    L11,
    /// Malformed suppression comment (cannot itself be suppressed).
    Sup,
}

impl LintId {
    /// All rules, in report order.
    pub const ALL: [LintId; 2] = [LintId::L11, LintId::Sup];

    /// Parse a live rule id (`"L11"`). Retired ids do not parse, and
    /// neither does `"SUP"`: it cannot appear in an allow list.
    pub fn parse(s: &str) -> Option<LintId> {
        match s.trim() {
            "L11" => Some(LintId::L11),
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
            LintId::L11 => "L11",
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
    match id {
        LintId::L11 => {
            path != "crates/cloud/src/ledger.rs"
                && path != "crates/cloud/src/pricing.rs"
                && path != "crates/core/src/prices.rs"
                && !path.starts_with("crates/bench/")
        }
        LintId::Sup => true,
    }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// One `allow(...)` entry: the rule it names and the line its comment
/// is on (an own-line comment also covers the line below it).
type Allow = (LintId, usize);

/// Parse `// cackle-lint: allow(L11)` comments. Returns, per covered
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
                suggestion: "write `// cackle-lint: allow(L11,...)` with known, unique rule ids"
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

/// Run metadata accompanying the findings in `--format json`.
#[derive(Debug, Clone, Default)]
pub struct LintMeta {
    /// Number of files linted.
    pub files: usize,
    /// Well-formed inline allows that suppressed no finding, as
    /// `<lint-id> <path>:<line>: ...`; any one fails the run (exit 3).
    pub stale_allows: Vec<String>,
}

/// Lint a set of `(rel_path, source)` files: parse everything, run every
/// rule, then centrally apply rule scoping, `#[test]`-item exclusion,
/// and inline suppressions. Findings come back sorted by (path, line,
/// rule), with the allows that suppressed nothing.
pub fn lint_files_with_meta(inputs: Vec<(String, String)>) -> (Vec<Finding>, LintMeta) {
    let files: Vec<SourceFile> = inputs
        .into_iter()
        .map(|(rel_path, source)| SourceFile::new(rel_path, source))
        .collect();
    let raw = rules::run(&files);
    let mut findings = Vec::new();

    // Every allow starts out unused, as (file, allow); suppressing a
    // finding removes it, and what is left at the end is stale.
    let mut unused_allows: BTreeSet<(usize, Allow)> = BTreeSet::new();
    let mut suppressed = Vec::with_capacity(files.len());
    for (fi, file) in files.iter().enumerate() {
        let (map, bad) = suppressions(&file.rel_path, &file.source);
        findings.extend(bad);
        unused_allows.extend(map.values().flatten().map(|&allow| (fi, allow)));
        suppressed.push(map);
    }

    for r in raw {
        let file = &files[r.file];
        if file
            .parsed
            .test_excluded
            .get(r.tok)
            .copied()
            .unwrap_or(false)
        {
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
    // Two sites on one line can carry the same (path, line, rule,
    // message), e.g. one cost-named binding used twice. One line, one
    // finding.
    findings.dedup();
    let stale_allows = unused_allows
        .into_iter()
        .map(|(fi, (id, line))| {
            let path = &files[fi].rel_path;
            format!("{id} {path}:{line}: inline allow suppresses no finding")
        })
        .collect();
    let meta = LintMeta {
        files: files.len(),
        stale_allows,
    };
    (findings, meta)
}

/// [`lint_files_with_meta`] without the metadata.
pub fn lint_files(inputs: Vec<(String, String)>) -> Vec<Finding> {
    lint_files_with_meta(inputs).0
}

/// Lint one file's source. `rel_path` selects which rules apply.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    lint_files(vec![(rel_path.to_string(), source.to_string())])
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Collect the workspace's lintable `.rs` files (sorted, relative,
/// forward-slash paths). Skips `target/`, `results/`, hidden dirs,
/// `tests/` and `benches/` dirs, and `crates/lint` itself (its fixtures
/// contain deliberate violations).
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, Path::new(""), &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
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
                || matches!(
                    name_str.as_str(),
                    "target" | "results" | "tests" | "benches"
                )
                || rel_child == Path::new("crates/lint")
            {
                continue;
            }
            walk(root, &rel_child, out)?;
        } else if name_str.ends_with(".rs") {
            out.push(rel_child);
        }
    }
    Ok(())
}

/// Lint every file under `root`, returning findings sorted by (path,
/// line, rule) plus the run metadata.
pub fn lint_root_with_meta(root: &Path) -> std::io::Result<(Vec<Finding>, LintMeta)> {
    let mut inputs = Vec::new();
    for rel in collect_files(root)? {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let source = std::fs::read_to_string(root.join(&rel))?;
        inputs.push((rel_str, source));
    }
    Ok(lint_files_with_meta(inputs))
}

/// [`lint_root_with_meta`] without the metadata.
pub fn lint_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(lint_root_with_meta(root)?.0)
}

// ---------------------------------------------------------------------------
// JSON diagnostics
// ---------------------------------------------------------------------------

/// Render findings and stale allows as the deterministic
/// machine-readable document emitted by `--format json`: one finding
/// object per line, keys in fixed order, `BTreeMap` ordering throughout
/// — byte-identical across runs on identical input by construction.
pub fn render_json(findings: &[Finding], meta: &LintMeta) -> String {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for f in findings {
        *counts.entry(f.id.to_string()).or_default() += 1;
    }
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"cackle-lint\",\n  \"version\": 6,\n  \"findings\": [");
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
    out.push_str(&format!(
        "}},\n  \"meta\": {{\"files\": {}}}\n}}\n",
        meta.files
    ));
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

    /// A cost-named binding scaled by a literal: one L11 finding.
    const SCALED: &str = "fn f(cost: f64) -> f64 { cost * 2.0 }";

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
    fn cost_named_text_in_comment_or_string_ignored() {
        let src = "// cost * 2 is banned\nfn f() { let s = \"cost * 2\"; }";
        assert!(lint_source("crates/core/src/model.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_items_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f(cost: f64) -> f64 { cost * 2.0 }\n}\n\
                   fn g(cost: f64) -> f64 { cost * 3.0 }";
        let f = lint_source("crates/cloud/src/pool.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].id, f[0].line), (LintId::L11, 5));
    }

    #[test]
    fn test_attribute_skips_one_fn() {
        let src = "#[test]\nfn t(cost: f64) -> f64 { cost * 2.0 }\n\
                   fn g(cost: f64) -> f64 { cost * 3.0 }";
        let f = lint_source("crates/core/src/oracle.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].id, f[0].line), (LintId::L11, 3));
    }

    #[test]
    fn inline_allow_suppresses_exact_rule() {
        let src = format!("{SCALED} // cackle-lint: allow(L11)");
        assert!(lint_source("crates/cloud/src/vm.rs", &src).is_empty());
        // A retired id does not suppress: the finding stays, plus SUP.
        let wrong = format!("{SCALED} // cackle-lint: allow(L13)");
        let ids: Vec<LintId> = lint_source("crates/cloud/src/vm.rs", &wrong)
            .iter()
            .map(|f| f.id)
            .collect();
        assert_eq!(ids, [LintId::L11, LintId::Sup]);
    }

    #[test]
    fn own_line_allow_covers_the_next_statement() {
        // A suppression on a comment-only line covers the statement that
        // begins on the following line, so the justification can sit
        // above the flagged code.
        let src =
            "fn f(cost: f64) -> f64 {\n    // cackle-lint: allow(L11) — reason\n    cost * 2.0\n}";
        assert!(lint_source("crates/cloud/src/vm.rs", src).is_empty());
        // Even when the formatter wraps the statement so the flagged
        // token is several lines below the comment.
        let wrapped = "fn f(s: &S) -> f64 {\n    // cackle-lint: allow(L11) — reason\n    s.bill\n        .total()\n        .max(s.floor)\n        * s.unit_price\n}";
        assert!(
            lint_source("crates/cloud/src/vm.rs", wrapped).is_empty(),
            "{:?}",
            lint_source("crates/cloud/src/vm.rs", wrapped)
        );
        // It does NOT leak into the following statement.
        let far = "fn f(cost: f64) -> f64 {\n    // cackle-lint: allow(L11)\n    let _y = 1;\n    cost * 2.0\n}";
        assert_eq!(lint_source("crates/cloud/src/vm.rs", far).len(), 1);
        // A trailing comment covers only its own line, not the next.
        let trailing = "fn f(cost: f64) -> f64 { // cackle-lint: allow(L11)\n    cost * 2.0\n}";
        assert_eq!(lint_source("crates/cloud/src/vm.rs", trailing).len(), 1);
    }

    #[test]
    fn malformed_suppressions_are_hard_errors() {
        let sup = |src: &str| {
            let f = lint_source("crates/cloud/src/vm.rs", src);
            assert!(f.iter().any(|f| f.id == LintId::Sup), "{src}: {f:?}");
            f
        };
        // Unknown id.
        let f = sup("fn f() {} // cackle-lint: allow(L99)");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("unknown rule id `L99`"));
        // Trailing comma, duplicate id, empty list, missing close paren,
        // and a marker without allow() at all.
        sup("fn f() {} // cackle-lint: allow(L11,)");
        sup("fn f() {} // cackle-lint: allow(L11,L11)");
        sup("fn f() {} // cackle-lint: allow()");
        sup("fn f() {} // cackle-lint: allow(L11");
        sup("fn f() {} // cackle-lint: allowed(L11)");
        // SUP cannot be suppressed (it is not a parseable id).
        sup("fn f() {} // cackle-lint: allow(SUP)");
        // A malformed suppression does NOT suppress the finding it rode on.
        let f = sup(&format!("{SCALED} // cackle-lint: allow(L11,)"));
        assert!(f.iter().any(|f| f.id == LintId::L11), "{f:?}");
        // Retired ids are unknown ids: an allow naming one is SUP.
        for retired in [
            "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L12", "L13", "L14",
            "L15", "L16", "L17", "L19",
        ] {
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
        assert!(stale(&format!("{SCALED} // cackle-lint: allow(L11)")).is_empty());
        assert!(stale(
            "fn f(cost: f64) -> f64 {\n    // cackle-lint: allow(L11)\n    cost * 2.0\n}"
        )
        .is_empty());
        // Nothing to suppress, or the wrong rule: stale, by rule and line.
        assert_eq!(
            stale("fn f() {}\nfn g() {} // cackle-lint: allow(L11)"),
            ["L11 crates/cloud/src/vm.rs:2: inline allow suppresses no finding"]
        );
        // So is an allow for a rule that does not apply to the path.
        assert_eq!(
            lint_files_with_meta(vec![(
                "crates/cloud/src/ledger.rs".to_string(),
                format!("{SCALED} // cackle-lint: allow(L11)"),
            )])
            .1
            .stale_allows
            .len(),
            1
        );
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
            stale_allows: vec![
                "L11 crates/x/src/a.rs:9: inline allow suppresses no finding".into(),
            ],
        };
        let a = render_json(&f, &meta);
        let b = render_json(&f, &meta);
        assert_eq!(a, b);
        assert!(a.contains("\"version\": 6,"), "{a}");
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
                "\"stale_allows\": [\"L11 crates/x/src/a.rs:9: inline allow suppresses no finding\"]"
            ),
            "{a}"
        );
        assert!(
            a.ends_with("\"counts\": {\"L11\": 1},\n  \"meta\": {\"files\": 1}\n}\n"),
            "{a}"
        );
        // The empty-findings document is well-formed too.
        let empty = render_json(&[], &LintMeta::default());
        assert!(empty.contains("\"findings\": []"), "{empty}");
        assert!(empty.contains("\"stale_allows\": []"), "{empty}");
        assert!(
            empty.ends_with("\"counts\": {},\n  \"meta\": {\"files\": 0}\n}\n"),
            "{empty}"
        );
    }
}
