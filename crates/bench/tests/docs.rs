//! The docs cannot name an experiment that does not exist: every name in
//! DESIGN.md §4's Regenerator column and every experiment name in
//! EXPERIMENTS.md's section headings (and its ablation table) is an entry
//! of the one registry, and registry names are unique.

use cackle_bench::EXPERIMENTS;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

fn doc(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The backticked spans of `line` that are spelled like an experiment
/// name (lowercase letters, digits, `_`).
fn names_in(line: &str) -> Vec<&str> {
    line.split('`')
        .skip(1)
        .step_by(2)
        .filter(|s| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
        .collect()
}

fn assert_registered(doc: &str, names: &[&str]) {
    assert!(!names.is_empty(), "{doc}: found no experiment names");
    for name in names {
        assert!(
            EXPERIMENTS.iter().any(|(n, _)| n == name),
            "{doc} names `{name}`, which is not a registry entry"
        );
    }
}

#[test]
fn registry_names_are_unique() {
    let unique: BTreeSet<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    assert_eq!(unique.len(), EXPERIMENTS.len(), "duplicate registry name");
}

#[test]
fn design_regenerator_column_names_registry_entries() {
    let design = doc("DESIGN.md");
    let section = design
        .split("\n## 4.")
        .nth(1)
        .and_then(|s| s.split("\n## 5.").next())
        .expect("DESIGN.md has a §4 followed by a §5");
    let mut names = Vec::new();
    for row in section.lines().filter(|l| l.starts_with("| ")) {
        let cells: Vec<&str> = row.trim_end().trim_end_matches('|').split('|').collect();
        if cells.len() > 1 && !row.starts_with("| ID ") {
            let regenerator = cells[cells.len() - 1].trim();
            assert_eq!(names_in(regenerator).len(), 1, "row `{row}`");
            names.extend(names_in(regenerator));
        }
    }
    assert_registered("DESIGN.md §4", &names);
}

#[test]
fn experiments_md_headings_name_registry_entries() {
    let experiments = doc("EXPERIMENTS.md");
    let headings: Vec<&str> = experiments
        .lines()
        .filter(|l| l.starts_with('#'))
        .flat_map(names_in)
        .collect();
    assert_registered("EXPERIMENTS.md headings", &headings);
    // The ablation table's first column names an experiment per row.
    let ablations: Vec<&str> = experiments
        .lines()
        .filter(|l| l.starts_with("| `"))
        .flat_map(|l| names_in(l.split('|').nth(1).unwrap_or_default()))
        .collect();
    assert_registered("EXPERIMENTS.md ablation table", &ablations);
}
