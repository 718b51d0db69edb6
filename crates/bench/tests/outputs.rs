//! The write-and-compare step of `repro`, over a two-entry fake registry
//! in a scratch directory under `target/`.

use cackle_bench::outputs::{check, run, select};
use cackle_bench::{Experiment, Report};
use std::fs;
use std::path::{Path, PathBuf};

fn alpha() -> Report {
    Report::default()
        .file("alpha.csv", "x\n1\n")
        .note("alpha ran")
}

fn beta() -> Report {
    Report::default()
        .file("beta.csv", "y\n2\n")
        .file("beta.jsonl", "{}\n")
}

const FAKE: &[Experiment] = &[("alpha", alpha), ("beta", beta)];

/// The line `check` reports for `path`.
fn line(kind: &str, path: PathBuf) -> String {
    match kind {
        "drifted" => format!("drifted: {}", path.display()),
        "missing" => format!("missing: {} is not committed", path.display()),
        _ => format!("orphan: no experiment writes {}", path.display()),
    }
}

/// A fresh, empty directory under the target dir.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("repro-outputs")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copy every file of `from` (one level of subdirectories) into `to`,
/// the way `cp -r target/repro/. results/` accepts new evidence.
fn accept(from: &Path, to: &Path) {
    for entry in fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let dest = to.join(path.file_name().unwrap());
        if path.is_dir() {
            fs::create_dir_all(&dest).unwrap();
            accept(&path, &dest);
        } else {
            fs::copy(&path, &dest).unwrap();
        }
    }
}

#[test]
fn check_reports_drift_missing_orphans_and_unwritable_outputs() {
    let root = scratch("check");
    let (out, committed) = (root.join("out"), root.join("committed"));
    fs::create_dir_all(&committed).unwrap();
    let runs = run(FAKE, &select(FAKE, &[]).unwrap());

    // Nothing committed yet: every output, logs included, is missing.
    let drift = check(&runs, &out, &committed, true).unwrap();
    let missing = [
        "alpha.csv",
        "logs/alpha.txt",
        "beta.csv",
        "beta.jsonl",
        "logs/beta.txt",
    ]
    .map(|f| line("missing", committed.join(f)));
    assert_eq!(drift, missing);
    assert_eq!(
        fs::read_to_string(out.join("logs/alpha.txt")).unwrap(),
        "alpha ran\n"
    );

    // Accepting the outputs gives a matching tree, which passes.
    accept(&out, &committed);
    let drift = check(&runs, &out, &committed, true).unwrap();
    assert!(drift.is_empty(), "{drift:?}");

    // One changed byte, one removed committed file, one stale CSV and one
    // stale log: each is reported once, orphans last and sorted.
    fs::write(committed.join("alpha.csv"), "x\n2\n").unwrap();
    fs::remove_file(committed.join("beta.jsonl")).unwrap();
    fs::write(committed.join("stale.csv"), "z\n").unwrap();
    fs::write(committed.join("logs/gone.txt"), "").unwrap();
    fs::write(committed.join("notes.json"), "{}").unwrap();
    let drift = check(&runs, &out, &committed, true).unwrap();
    assert_eq!(
        drift,
        [
            line("drifted", committed.join("alpha.csv")),
            line("missing", committed.join("beta.jsonl")),
            line("orphan", committed.join("logs/gone.txt")),
            line("orphan", committed.join("stale.csv")),
        ]
    );
    // A partial run does not look for orphans, and nothing was written
    // under the committed tree.
    let drift = check(&runs[..1], &out, &committed, false).unwrap();
    assert_eq!(drift, [line("drifted", committed.join("alpha.csv"))]);
    assert_eq!(
        fs::read_to_string(committed.join("alpha.csv")).unwrap(),
        "x\n2\n"
    );

    // An output whose parent is a file cannot be written: an error that
    // names the output path.
    fs::write(root.join("blocker"), "").unwrap();
    let err = check(&runs, &root.join("blocker/out"), &committed, true).unwrap_err();
    let path = root.join("blocker/out/alpha.csv");
    assert!(
        err.to_string()
            .starts_with(&format!("{}: ", path.display())),
        "{err}"
    );
}

#[test]
fn select_keeps_registry_order_and_rejects_unknown_names() {
    let names = |n: &[&str]| n.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert_eq!(select(FAKE, &[]), Ok(vec![0, 1]));
    assert_eq!(
        select(FAKE, &names(&["beta", "alpha", "beta"])),
        Ok(vec![0, 1])
    );
    assert_eq!(select(FAKE, &names(&["beta"])), Ok(vec![1]));
    assert_eq!(
        select(FAKE, &names(&["alpha", "--all"])),
        Err("--all".to_string())
    );
}
