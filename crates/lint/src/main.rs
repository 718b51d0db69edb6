//! The `cackle-lint` command-line driver.
//!
//! ```text
//! cackle-lint [ROOT] [--format text|json] [--explain LX] [--list-rules]
//! ```
//!
//! Lints the workspace at ROOT (default: the current directory), prints
//! findings in the chosen format, and exits:
//!
//! * `0` — clean;
//! * `1` — at least one finding (there is no baseline: an inline
//!   `// cackle-lint: allow(Lx) — why` is the only way to accept one);
//! * `2` — usage or I/O error (bad flag, bad `--format`/`--explain`
//!   argument, unreadable root);
//! * `3` — no findings, but an inline `allow(...)` suppresses no finding.
//!
//! `--format json` emits one deterministic document (fixed key order,
//! sorted findings) with file / line / rule / severity / message /
//! suggestion per finding, the stale inline allows, per-rule counts, and
//! the number of files linted: byte-identical across runs. `--explain
//! LX` prints a rule's long-form description and exits; `--list-rules`
//! prints one `id<TAB>summary` line per registered rule
//! (machine-readable — CI drives its `--explain` smoke loop from it).

use cackle_lint::{explain, lint_root_with_meta, render_json, rules, LintId};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cackle-lint [ROOT] [--format text|json] [--explain LX] [--list-rules]";

enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
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
            "--explain" => {
                let Some(id_str) = args.next() else {
                    eprintln!("cackle-lint: --explain needs a rule id (L11, SUP)");
                    return ExitCode::from(2);
                };
                // SUP is not LintId::parse-able (it may not appear in an
                // allow list) but IS explainable.
                let id = if id_str.eq_ignore_ascii_case("SUP") {
                    Some(LintId::Sup)
                } else {
                    LintId::parse(&id_str)
                };
                let Some(id) = id else {
                    eprintln!("cackle-lint: unknown rule id `{id_str}` (expected L11 or SUP)");
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
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("cackle-lint: unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            other if root.is_some() => {
                eprintln!("cackle-lint: unexpected argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => root = Some(PathBuf::from(a)),
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));

    let (findings, meta) = match lint_root_with_meta(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cackle-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    match format {
        Format::Json => print!("{}", render_json(&findings, &meta)),
        Format::Text => {
            for f in &findings {
                println!("{f}");
            }
            for s in &meta.stale_allows {
                eprintln!("cackle-lint: stale: {s}");
            }
        }
    }

    if !findings.is_empty() {
        eprintln!("cackle-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    } else if !meta.stale_allows.is_empty() {
        eprintln!(
            "cackle-lint: {} inline allow(s) suppress no finding: drop them",
            meta.stale_allows.len()
        );
        ExitCode::from(3)
    } else {
        eprintln!("cackle-lint: ok (0 findings)");
        ExitCode::SUCCESS
    }
}
