//! End-to-end lint tests over the checked-in fixture trees, plus exit
//! code and output-format tests driving the real `cackle-lint` binary.

use cackle_lint::{lint_root, LintId};
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
    assert_eq!(count(LintId::L11), 3);
    assert_eq!(count(LintId::Sup), 2);
    assert_eq!(findings.len(), 5);
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
    assert_eq!(vm_l11, [6, 7, 11], "{findings:#?}");
}

#[test]
fn clean_fixture_has_no_findings() {
    let findings = lint_root(&fixture("clean")).unwrap();
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn binary_exits_nonzero_on_violations() {
    let out = run(&[&fixture("violations")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SUP"), "diagnostics on stdout: {stdout}");
    assert!(stdout.contains("L11"), "diagnostics on stdout: {stdout}");
}

#[test]
fn binary_exits_zero_on_clean_tree() {
    let out = run(&[&fixture("clean")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn binary_exits_three_on_an_allow_that_suppresses_nothing() {
    let dir = Scratch::new("stale-allow");
    let src = dir.0.join("crates/cloud/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("vm.rs"), "fn f() {} // cackle-lint: allow(L11)\n").unwrap();
    let out = run(&[&dir.0]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("L11 crates/cloud/src/vm.rs:1: inline allow suppresses no finding"),
        "{stderr}"
    );
}

#[test]
fn binary_rejects_bad_flags_and_formats() {
    let out = run(&[&fixture("clean"), &"--format", &"yaml"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = run(&[&fixture("clean"), &"--wat"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // The retired baseline flags and `fix` subcommand are usage errors,
    // not silently ignored.
    let out = run(&[&fixture("clean"), &"--baseline", &"lint-baseline.txt"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = run(&[&fixture("clean"), &"--update-baseline"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = run(&[&"fix", &fixture("clean")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // So are the retired `--include-tests` and `--timings` options.
    let out = run(&[&fixture("clean"), &"--include-tests"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = run(&[&fixture("clean"), &"--timings", &"none"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Unknown and retired rule ids alike.
    for id in [
        "L99", "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L12", "L13", "L14",
        "L15", "L16", "L17", "L19",
    ] {
        let out = run(&[&"--explain", &id]);
        assert_eq!(out.status.code(), Some(2), "{id}: {out:?}");
    }
}

#[test]
fn binary_explains_rules() {
    let out = run(&[&"--explain", &"L11"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ledger hygiene"), "{stdout}");
    let out = run(&[&"--explain", &"SUP"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn json_output_matches_golden_snapshot_and_is_byte_identical() {
    // The document holds no timing or machine-dependent field, so two
    // runs are byte-identical with no postprocessing — ci.sh relies on
    // this for results/lint-diagnostics.json.
    let args: &[&dyn AsRef<OsStr>] = &[&fixture("violations"), &"--format", &"json"];
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
    assert_eq!(ids, ["L11", "SUP"]);
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
