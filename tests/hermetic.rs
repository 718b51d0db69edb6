//! The build is hermetic: no crate comes from a registry or a git
//! remote, so `cargo build --offline` always works and no RNG crate
//! (`rand`, `getrandom`, ...) is there to call. Randomness comes from
//! `cackle_prng` streams seeded from the RunSpec; an entropy source such
//! as `thread_rng`, `OsRng` or `from_entropy` does not resolve.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

#[test]
fn the_lockfile_names_no_external_source() {
    let lock = read("Cargo.lock");
    let external: Vec<&str> = lock
        .lines()
        .filter(|l| l.trim_start().starts_with("source ="))
        .collect();
    assert!(
        external.is_empty(),
        "Cargo.lock pulls crates from outside the workspace: {external:?}"
    );
    // The lockfile does list the workspace itself.
    assert!(lock.contains("name = \"cackle-prng\""));
}

#[test]
fn every_workspace_dependency_is_a_path() {
    let manifest = read("Cargo.toml");
    let section = manifest
        .split("[workspace.dependencies]")
        .nth(1)
        .expect("a [workspace.dependencies] table");
    let deps: Vec<&str> = section
        .lines()
        .map(str::trim)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert!(deps.len() >= 10, "{deps:?}");
    for dep in deps {
        assert!(
            dep.contains("{ path = \"crates/"),
            "`{dep}` is not a workspace path dependency"
        );
    }
}
