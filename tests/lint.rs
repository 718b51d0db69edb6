//! Tier-1 gate: the workspace satisfies the cost-hygiene lint (see
//! `crates/lint` and DESIGN.md §10). There is no baseline: any finding
//! fails, and so does an inline allow that suppresses nothing.

use cackle_lint::lint_root_with_meta;
use std::path::Path;

#[test]
fn workspace_satisfies_determinism_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (findings, meta) = lint_root_with_meta(root).expect("walking the workspace");
    assert!(
        findings.is_empty(),
        "lint findings:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
    assert!(
        meta.stale_allows.is_empty(),
        "inline allows that suppress nothing (remove them):\n{}",
        meta.stale_allows
            .iter()
            .map(|s| format!("  {s}\n"))
            .collect::<String>()
    );
}
