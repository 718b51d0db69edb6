//! Tier-1 gate: the workspace must satisfy the determinism &
//! cost-hygiene lints (see `crates/lint` and DESIGN.md §"Determinism &
//! cost-hygiene invariants") up to the checked-in baseline.

use cackle_lint::{diff_baseline, lint_root_with_meta, parse_baseline, Baseline};
use std::path::Path;

#[test]
fn workspace_satisfies_determinism_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let baseline: Baseline = match std::fs::read_to_string(root.join("lint-baseline.txt")) {
        Ok(text) => parse_baseline(&text).expect("lint-baseline.txt must parse"),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::new(),
        Err(e) => panic!("reading lint-baseline.txt: {e}"),
    };
    assert!(
        baseline.len() <= 5,
        "lint-baseline.txt carries {} entries; the budget is 5 — fix violations \
         instead of accumulating debt",
        baseline.len()
    );

    let (findings, meta) = lint_root_with_meta(root, false).expect("walking the workspace");
    // The parallel-phase rules check something: the phase root resolves
    // and the task's operator tree is inside the set it spans.
    for name in ["exec_node", "read_stage"] {
        assert!(
            meta.parallel_phase.contains(name),
            "`{name}` is not in the parallel-phase set: {:?}",
            meta.parallel_phase
        );
    }
    let (new_violations, mut stale) = diff_baseline(&findings, &baseline);
    stale.extend(meta.stale_allows);
    assert!(
        new_violations.is_empty(),
        "new lint violations beyond lint-baseline.txt:\n{}",
        new_violations
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
    // Stale entries are debt that was paid down: trim the baseline, drop
    // the allow.
    assert!(
        stale.is_empty(),
        "stale lint-baseline.txt entries or inline allows (remove them):\n{}",
        stale.iter().map(|s| format!("  {s}\n")).collect::<String>()
    );
}
