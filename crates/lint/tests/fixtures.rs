//! End-to-end lint tests over the checked-in fixture trees, plus exit
//! code and output-format tests driving the real `cackle-lint` binary.

use cackle_lint::{diff_baseline, lint_root, Baseline, LintId};
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(args: &[&dyn AsRef<OsStr>]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cackle-lint"));
    for a in args {
        cmd.arg(a.as_ref());
    }
    cmd.output().unwrap()
}

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("cackle-lint-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn violations_fixture_trips_every_live_rule() {
    let findings = lint_root(&fixture("violations")).unwrap();
    for id in LintId::ALL {
        let fired = findings.iter().any(|f| f.id == id);
        assert!(fired, "rule {id} produced no finding: {findings:#?}");
    }
    // Counts are exact so rule changes are reviewed deliberately.
    let count = |id| findings.iter().filter(|f| f.id == id).count();
    assert_eq!(count(LintId::L1), 1);
    assert_eq!(count(LintId::L2), 3);
    assert_eq!(count(LintId::L3), 2);
    assert_eq!(count(LintId::L5), 5);
    assert_eq!(count(LintId::L6), 2);
    assert_eq!(count(LintId::L7), 2);
    assert_eq!(count(LintId::L8), 2);
    assert_eq!(count(LintId::L10), 5);
    assert_eq!(count(LintId::L11), 3);
    assert_eq!(count(LintId::L12), 3);
    assert_eq!(count(LintId::L13), 3);
    assert_eq!(count(LintId::L14), 7);
    assert_eq!(count(LintId::L15), 2);
    assert_eq!(count(LintId::L16), 1);
    assert_eq!(count(LintId::L17), 3);
    assert_eq!(count(LintId::L19), 6);
    assert_eq!(count(LintId::Sup), 2);
    assert_eq!(findings.len(), 52);
    // Findings are sorted and carry 1-based lines.
    let mut sorted = findings.clone();
    sorted.sort();
    assert_eq!(findings, sorted);
    assert!(findings.iter().all(|f| f.line >= 1));
}

#[test]
fn retired_l4_fixtures_resurface_as_l11() {
    // The `cost`/`vm_price` lines that L4 used to catch must now be
    // caught by the wider L11 at the same sites (subsumption).
    let findings = lint_root(&fixture("violations")).unwrap();
    let vm_l11: Vec<usize> = findings
        .iter()
        .filter(|f| f.id == LintId::L11 && f.path == "crates/cloud/src/vm.rs")
        .map(|f| f.line)
        .collect();
    assert_eq!(vm_l11, [8, 9, 13], "{findings:#?}");
}

#[test]
fn clean_fixture_has_no_findings() {
    let findings = lint_root(&fixture("clean")).unwrap();
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn baseline_absorbs_known_debt_exactly() {
    let findings = lint_root(&fixture("violations")).unwrap();
    // A baseline generated from the current findings absorbs all of
    // them — except SUP, which may never be baselined.
    let mut baseline = Baseline::new();
    for f in &findings {
        if f.id != LintId::Sup {
            *baseline.entry((f.id, f.path.clone())).or_insert(0) += 1;
        }
    }
    let (new, stale) = diff_baseline(&findings, &baseline);
    assert_eq!(new.len(), 2, "{new:#?}");
    assert!(new.iter().all(|f| f.id == LintId::Sup));
    assert!(stale.is_empty());
    // Dropping one entry makes those findings "new" again.
    let key = (LintId::L1, "crates/cloud/src/vm.rs".to_string());
    baseline.remove(&key);
    let (new, _) = diff_baseline(&findings, &baseline);
    assert!(new.iter().any(|f| f.id == LintId::L1), "{new:#?}");
}

#[test]
fn binary_exits_nonzero_on_violations() {
    let out = run(&[&fixture("violations")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("L5"), "diagnostics on stdout: {stdout}");
    assert!(stdout.contains("L11"), "diagnostics on stdout: {stdout}");
}

#[test]
fn binary_exits_zero_on_clean_tree() {
    let out = run(&[&fixture("clean")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn binary_exits_three_on_stale_baseline_only() {
    let dir = Scratch::new("stale");
    let baseline = dir.0.join("baseline.txt");
    std::fs::write(&baseline, "L1 ghost.rs 1\n").unwrap();
    let out = run(&[&fixture("clean"), &"--baseline", &baseline]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stale"), "{stderr}");
}

#[test]
fn binary_exits_three_on_an_allow_that_suppresses_nothing() {
    let dir = Scratch::new("stale-allow");
    let src = dir.0.join("crates/cloud/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("vm.rs"), "fn f() {} // cackle-lint: allow(L5)\n").unwrap();
    let out = run(&[&dir.0]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("L5 crates/cloud/src/vm.rs:1: inline allow suppresses no finding"),
        "{stderr}"
    );
}

#[test]
fn binary_rejects_bad_flags_and_formats() {
    let out = run(&[&fixture("clean"), &"--format", &"yaml"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = run(&[&fixture("clean"), &"--wat"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Unknown and retired rule ids alike.
    for id in ["L99", "L4", "L9"] {
        let out = run(&[&"--explain", &id]);
        assert_eq!(out.status.code(), Some(2), "{id}: {out:?}");
    }
}

#[test]
fn binary_rejects_malformed_baseline() {
    let dir = Scratch::new("badbase");
    let bad = dir.0.join("bad-baseline.txt");
    // SUP findings may never be baselined; L99 does not exist.
    for text in ["SUP foo 1\n", "L99 nonsense 1\n"] {
        std::fs::write(&bad, text).unwrap();
        let out = run(&[&fixture("clean"), &"--baseline", &bad]);
        assert_eq!(out.status.code(), Some(2), "{text:?}: {out:?}");
    }
}

#[test]
fn binary_explains_rules() {
    let out = run(&[&"--explain", &"L7"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lock"), "{stdout}");
    let out = run(&[&"--explain", &"SUP"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn json_output_matches_golden_snapshot_and_is_byte_identical() {
    // `--timings none` zeroes every machine-dependent meta field at the
    // source (phase ms and the parse-pool block), so two runs are
    // byte-identical with no postprocessing — this is what ci.sh relies
    // on instead of its old `sed` normalization.
    let args: &[&dyn AsRef<OsStr>] = &[
        &fixture("violations"),
        &"--format",
        &"json",
        &"--timings",
        &"none",
    ];
    let a = run(args);
    let b = run(args);
    assert_eq!(a.status.code(), Some(1), "{a:?}");
    assert_eq!(a.stdout, b.stdout);
    // And exactly the checked-in snapshot, so any diagnostic change is
    // reviewed in the diff.
    let golden = include_str!("fixtures/violations.json");
    assert_eq!(String::from_utf8_lossy(&a.stdout), golden);
}

#[test]
fn every_listed_rule_has_a_violation_and_a_near_miss_fixture() {
    // `--list-rules` is the machine-readable registry: one `id\tsummary`
    // line per live rule. Every listed rule must trip at least once in
    // the violations tree AND appear as an explicit `near-miss(ID)`
    // marker in the clean tree, so rule growth always ships both sides.
    let out = run(&[&"--list-rules"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let listing = String::from_utf8_lossy(&out.stdout).into_owned();
    let ids: Vec<&str> = listing
        .lines()
        .map(|l| l.split('\t').next().unwrap())
        .collect();
    assert!(ids.contains(&"L1") && ids.contains(&"L19") && ids.contains(&"SUP"));
    assert_eq!(ids.len(), 17, "16 rules plus SUP: {ids:?}");
    assert!(listing.lines().all(|l| l.split('\t').count() == 2));

    let findings = lint_root(&fixture("violations")).unwrap();
    let mut clean_sources = String::new();
    let mut stack = vec![fixture("clean")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                clean_sources.push_str(&std::fs::read_to_string(path).unwrap());
            }
        }
    }
    for id in &ids {
        assert!(
            findings.iter().any(|f| f.id.to_string() == *id),
            "rule {id} has no violation fixture"
        );
        assert!(
            clean_sources.contains(&format!("near-miss({id})")),
            "rule {id} has no near-miss({id}) marker in the clean tree"
        );
    }
}

/// Copy a fixture tree into a scratch dir (lint fixtures are flat
/// `crates/<c>/src/<f>.rs` trees).
fn copy_tree(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let dst = to.join(path.file_name().unwrap());
        if path.is_dir() {
            std::fs::create_dir_all(&dst).unwrap();
            copy_tree(&path, &dst);
        } else {
            std::fs::copy(&path, &dst).unwrap();
        }
    }
}

/// All `.rs` files under `root` as sorted `(rel_path, contents)`.
fn tree_contents(root: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                out.push((rel, std::fs::read_to_string(path).unwrap()));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn fix_applies_golden_pairs_and_is_idempotent() {
    for rule in ["l14", "l15"] {
        let dir = Scratch::new(&format!("fix-{rule}"));
        copy_tree(&fixture(&format!("fix/{rule}/tree")), &dir.0);

        // Dry run: deterministic diff on stdout, files untouched.
        let dry = |p: &Path| run(&[&"fix", &p, &"--dry-run"]);
        let a = dry(&dir.0);
        let b = dry(&dir.0);
        assert_eq!(a.status.code(), Some(0), "{rule}: {a:?}");
        assert_eq!(a.stdout, b.stdout, "{rule}: dry-run not deterministic");
        let diff = String::from_utf8_lossy(&a.stdout);
        assert!(diff.contains("+++"), "{rule}: no diff emitted:\n{diff}");
        assert_eq!(
            tree_contents(&dir.0),
            tree_contents(&fixture(&format!("fix/{rule}/tree"))),
            "{rule}: --dry-run must not write"
        );

        // Apply: the tree becomes the golden `expected/` tree.
        let applied = run(&[&"fix", &dir.0]);
        assert_eq!(applied.status.code(), Some(0), "{rule}: {applied:?}");
        assert_eq!(
            tree_contents(&dir.0),
            tree_contents(&fixture(&format!("fix/{rule}/expected"))),
            "{rule}: applied tree differs from golden"
        );

        // Idempotence: the applied fix removed its finding, so a second
        // dry run prints nothing and a second apply changes nothing.
        let again = dry(&dir.0);
        assert_eq!(again.status.code(), Some(0), "{rule}: {again:?}");
        assert!(
            again.stdout.is_empty(),
            "{rule}: second dry run not empty: {:?}",
            String::from_utf8_lossy(&again.stdout)
        );
        let reapplied = run(&[&"fix", &dir.0]);
        assert_eq!(reapplied.status.code(), Some(0), "{rule}: {reapplied:?}");
        assert_eq!(
            tree_contents(&dir.0),
            tree_contents(&fixture(&format!("fix/{rule}/expected"))),
            "{rule}: reapply must be a no-op"
        );
    }
}

#[test]
fn binary_update_baseline_writes_sorted_stable_file() {
    let dir = Scratch::new("update");
    let baseline = dir.0.join("baseline.txt");
    // Absorb the violation tree's debt into a fresh baseline. SUP is
    // never baselined, so the run still exits 1.
    let out = run(&[
        &fixture("violations"),
        &"--baseline",
        &baseline,
        &"--update-baseline",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let written = std::fs::read_to_string(&baseline).unwrap();
    // `RULE path count` entries under the standard header, covering
    // every non-SUP finding.
    assert!(
        written.starts_with("# cackle-lint accepted debt"),
        "{written}"
    );
    let lines: Vec<&str> = written
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert!(lines.iter().all(|l| l.split_whitespace().count() == 3));
    assert!(!written.contains("SUP"), "SUP must never be baselined");
    assert!(written.contains("L12 crates/cloud/src/billing.rs 3"));
    assert!(written.contains("L14 crates/engine/src/batch.rs 6"));
    let total: usize = lines
        .iter()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<usize>().unwrap())
        .sum();
    assert_eq!(total, 50, "all findings except the two SUPs:\n{written}");
    // A second update run is byte-stable and, with the debt absorbed,
    // only the un-baselineable SUP remains.
    let again = run(&[
        &fixture("violations"),
        &"--baseline",
        &baseline,
        &"--update-baseline",
    ]);
    assert_eq!(again.status.code(), Some(1), "{again:?}");
    assert_eq!(std::fs::read_to_string(&baseline).unwrap(), written);
    let stdout = String::from_utf8_lossy(&again.stdout);
    assert!(stdout.contains("SUP"), "{stdout}");
}
