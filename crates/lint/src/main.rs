//! The `cackle-lint` command-line driver.
//!
//! ```text
//! cackle-lint [ROOT] [--baseline FILE] [--format text|json]
//!             [--timings real|none] [--explain LX] [--list-rules]
//!             [--include-tests] [--update-baseline]
//! cackle-lint fix [ROOT] [--dry-run] [--include-tests]
//! ```
//!
//! Lints the workspace at ROOT (default: the current directory),
//! compares against the baseline file (default: `ROOT/lint-baseline.txt`;
//! a missing file means an empty baseline), prints findings in the
//! chosen format, and exits:
//!
//! * `0` — clean, or all findings are covered by the baseline;
//! * `1` — findings beyond the baseline (new violations);
//! * `2` — usage or I/O error (bad flag, bad `--format`/`--explain`
//!   argument, unreadable root or baseline, conflicting fixes);
//! * `3` — no new violations, but the baseline has stale entries (debt
//!   that was paid down without trimming the file) or an inline
//!   `allow(...)` suppresses no finding.
//!
//! `--format json` emits one deterministic document (fixed key order,
//! sorted findings) with file / line / rule / severity / baselined /
//! message / suggestion / fixable per finding plus stale baseline
//! entries and stale inline allows, per-rule counts, and a `meta` block (file count, per-rule
//! counts, per-phase wall-clock timings, parse-pool parallelism).
//! `--timings none` zeroes every machine-dependent meta field — phase
//! `ms` values and the parallel block, worker count included — so the
//! document is byte-identical across runs and machines at the source
//! (CI used to normalize with `sed`). `--explain LX` prints a rule's
//! long-form description and exits; `--list-rules` prints one
//! `id<TAB>summary` line per registered rule (machine-readable — CI
//! drives its `--explain` smoke loop from it). `--include-tests` also
//! lints `tests/` and `benches/` directories against the restricted
//! rule set (L2, L10).
//!
//! `--update-baseline` deterministically rewrites the baseline file
//! from the current findings (sorted `<lint-id> <path> <count>` lines
//! under the standard header — byte-stable for identical findings),
//! then proceeds with the normal diff against the rewritten file. The
//! exit semantics are unchanged: a fresh baseline covers everything,
//! so the usual result is 0 — except SUP findings (malformed
//! suppressions / annotations), which are never baselinable and still
//! exit 1.
//!
//! `cackle-lint fix` applies the machine-readable edits attached to
//! fixable findings (L14 capacity hints, L15 cast widening). Edits are
//! byte spans into the original source; overlapping spans within a file
//! are a conflict — nothing in that file is rewritten, and the exit code
//! is 2. `--dry-run` prints
//! a unified diff per file (path-sorted, deterministic) instead of
//! writing. Applying fixes is idempotent by construction: an applied
//! fix removes the finding that produced it, so a second run finds
//! nothing fixable and `--dry-run` prints nothing — ci.sh verifies
//! exactly that.

use cackle_lint::{
    diff_baseline, explain, fix, lint_root_with_meta, parse_baseline, render_baseline, render_json,
    rules, Baseline, LintId,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cackle-lint [ROOT] [--baseline FILE] [--format text|json] \
                     [--timings real|none] [--explain LX] [--list-rules] \
                     [--include-tests] [--update-baseline]\n\
                     \x20      cackle-lint fix [ROOT] [--dry-run] [--include-tests]";

enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut include_tests = false;
    let mut update_baseline = false;
    let mut zero_timings = false;
    let mut fix_mode = false;
    let mut dry_run = false;
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("fix") {
        args.next();
        fix_mode = true;
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => {
                let Some(p) = args.next() else {
                    eprintln!("cackle-lint: --baseline needs a file argument");
                    return ExitCode::from(2);
                };
                baseline_path = Some(PathBuf::from(p));
            }
            "--format" => {
                let Some(f) = args.next() else {
                    eprintln!("cackle-lint: --format needs an argument (text|json)");
                    return ExitCode::from(2);
                };
                format = match f.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => {
                        eprintln!("cackle-lint: unknown format `{other}` (expected text|json)");
                        return ExitCode::from(2);
                    }
                };
            }
            "--timings" => {
                let Some(t) = args.next() else {
                    eprintln!("cackle-lint: --timings needs an argument (real|none)");
                    return ExitCode::from(2);
                };
                zero_timings = match t.as_str() {
                    "real" => false,
                    "none" => true,
                    other => {
                        eprintln!("cackle-lint: unknown timings `{other}` (expected real|none)");
                        return ExitCode::from(2);
                    }
                };
            }
            "--explain" => {
                let Some(id_str) = args.next() else {
                    eprintln!("cackle-lint: --explain needs a rule id (L1..L19, SUP)");
                    return ExitCode::from(2);
                };
                // SUP is not LintId::parse-able (it may not appear in
                // baselines or allow lists) but IS explainable.
                let id = if id_str.eq_ignore_ascii_case("SUP") {
                    Some(LintId::Sup)
                } else {
                    LintId::parse(&id_str)
                };
                let Some(id) = id else {
                    eprintln!("cackle-lint: unknown rule id `{id_str}` (expected L1..L19 or SUP)");
                    return ExitCode::from(2);
                };
                println!("{}", explain(id));
                return ExitCode::SUCCESS;
            }
            "--list-rules" => {
                for id in LintId::ALL {
                    println!("{id}\t{}", rules::summary(id));
                }
                return ExitCode::SUCCESS;
            }
            "--include-tests" => include_tests = true,
            "--update-baseline" => update_baseline = true,
            "--dry-run" if fix_mode => dry_run = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("cackle-lint: unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => root = Some(PathBuf::from(a)),
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.txt"));

    let (findings, mut meta) = match lint_root_with_meta(&root, include_tests) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cackle-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if zero_timings {
        meta.zero_timings();
    }

    if fix_mode {
        return run_fix(&root, &findings, dry_run);
    }

    // --update-baseline rewrites the file from the findings, then the
    // normal diff runs against the rewritten content — so the exit code
    // still reflects reality (SUP findings are not baselinable).
    if update_baseline {
        let text = render_baseline(&findings);
        if let Err(e) = std::fs::write(&baseline_path, &text) {
            eprintln!("cackle-lint: {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "cackle-lint: wrote {} baseline entrie(s) to {}",
            text.lines().filter(|l| !l.starts_with('#')).count(),
            baseline_path.display()
        );
    }

    let baseline: Baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cackle-lint: {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::new(),
        Err(e) => {
            eprintln!("cackle-lint: {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };

    let (new_violations, mut stale) = diff_baseline(&findings, &baseline);
    stale.extend(meta.stale_allows.iter().cloned());

    match format {
        Format::Json => {
            print!("{}", render_json(&findings, &new_violations, &stale, &meta));
        }
        Format::Text => {
            for f in &findings {
                println!("{f}");
            }
            for s in &stale {
                eprintln!("cackle-lint: stale: {s}");
            }
        }
    }

    if !new_violations.is_empty() {
        eprintln!(
            "cackle-lint: {} new violation(s) beyond the baseline",
            new_violations.len()
        );
        ExitCode::FAILURE
    } else if !stale.is_empty() {
        eprintln!(
            "cackle-lint: {} stale baseline entrie(s) or inline allow(s): trim them",
            stale.len()
        );
        ExitCode::from(3)
    } else {
        eprintln!(
            "cackle-lint: ok ({} finding(s), all baselined)",
            findings.len()
        );
        ExitCode::SUCCESS
    }
}

/// Apply (or preview) every fixable finding's edits, grouped per file.
/// A conflict in any file rewrites nothing and exits 2 — a half-fixed
/// tree is worse than a diagnosed one.
fn run_fix(root: &std::path::Path, findings: &[cackle_lint::Finding], dry_run: bool) -> ExitCode {
    let mut by_file: BTreeMap<&str, Vec<fix::Edit>> = BTreeMap::new();
    let mut fixable = 0usize;
    for f in findings {
        if f.fixable() {
            fixable += 1;
            by_file
                .entry(f.path.as_str())
                .or_default()
                .extend(f.fix.iter().cloned());
        }
    }

    // Plan everything before writing anything: conflicts abort whole.
    let mut planned: Vec<(&str, PathBuf, String, String)> = Vec::new();
    for (path, edits) in &by_file {
        let abs = root.join(path);
        let before = match std::fs::read_to_string(&abs) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cackle-lint: {}: {e}", abs.display());
                return ExitCode::from(2);
            }
        };
        let after = match fix::apply(&before, edits) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cackle-lint: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        planned.push((path, abs, before, after));
    }

    for (path, abs, before, after) in &planned {
        if dry_run {
            print!("{}", fix::unified_diff(path, before, after));
        } else if let Err(e) = std::fs::write(abs, after) {
            eprintln!("cackle-lint: {}: {e}", abs.display());
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "cackle-lint: {} fixable finding(s) in {} file(s){}",
        fixable,
        planned.len(),
        if dry_run { " (dry run)" } else { "" }
    );
    ExitCode::SUCCESS
}
