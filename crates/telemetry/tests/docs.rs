//! DESIGN.md §7's naming table cannot name a metric the code does not
//! record: every backticked metric name in it is a catalogue entry, and
//! it has exactly one row per catalogue component prefix.

use cackle_telemetry::catalog::{self, METRICS};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The `| `prefix.*` | … |` rows of DESIGN.md §7's naming table.
fn naming_rows() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let design = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let section = design
        .split("\n## 7.")
        .nth(1)
        .and_then(|s| s.split("\n## 8.").next())
        .expect("DESIGN.md has a §7 followed by a §8");
    section
        .lines()
        .filter(|l| l.starts_with("| `") && l.contains(".*`"))
        .map(str::to_string)
        .collect()
}

/// The backticked spans of `text` spelled like a metric name:
/// `component.metric`, lowercase letters, digits and `_`.
fn metric_names(text: &str) -> Vec<&str> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|s| {
            s.split_once('.')
                .is_some_and(|(c, m)| !c.is_empty() && !m.is_empty())
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        })
        .collect()
}

#[test]
fn every_metric_named_in_the_table_is_catalogued() {
    let rows = naming_rows();
    assert!(!rows.is_empty(), "DESIGN.md §7 has no naming table");
    for row in &rows {
        let names = metric_names(row);
        assert!(!names.is_empty(), "row names no metric: {row}");
        for name in names {
            assert!(
                catalog::index_of(name).is_some(),
                "DESIGN.md §7 names `{name}`, which is not in the metric catalogue"
            );
        }
    }
}

#[test]
fn the_table_has_one_row_per_catalogue_prefix() {
    let rows: Vec<String> = naming_rows()
        .iter()
        .filter_map(|row| {
            let prefix = row.split('`').nth(1)?.strip_suffix(".*")?;
            Some(prefix.to_string())
        })
        .collect();
    let documented: BTreeSet<&str> = rows.iter().map(String::as_str).collect();
    assert_eq!(
        documented.len(),
        rows.len(),
        "a prefix has two rows: {rows:?}"
    );
    let catalogued: BTreeSet<&str> = METRICS
        .iter()
        .filter_map(|m| m.name.split_once('.').map(|(c, _)| c))
        .collect();
    assert_eq!(documented, catalogued);
}
