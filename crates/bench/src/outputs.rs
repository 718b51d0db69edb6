//! Running experiments and checking what they write against the
//! committed evidence: the whole of `repro` except argument handling.

use crate::{Experiment, Report};
use cackle_engine::executor::Executor;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

/// Registry indices of `names`, in registry order and without repeats;
/// every experiment when `names` is empty. `Err` carries the first name
/// the registry does not know.
pub fn select(registry: &[Experiment], names: &[String]) -> Result<Vec<usize>, String> {
    if let Some(unknown) = names
        .iter()
        .find(|n| !registry.iter().any(|(name, _)| name == n))
    {
        return Err(unknown.clone());
    }
    Ok((0..registry.len())
        .filter(|&i| names.is_empty() || names.iter().any(|n| n == registry[i].0))
        .collect())
}

/// Run the selected experiments, one whole experiment per worker, at the
/// host's available parallelism. Each experiment is serial and seeded, so
/// the reports are the same at any worker count; they come back in
/// `selected` order.
pub fn run(registry: &[Experiment], selected: &[usize]) -> Vec<(&'static str, Report)> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    Executor::new(workers as u32).run_indexed(selected.len(), |i| {
        let (name, experiment) = registry[selected[i]];
        (name, experiment())
    })
}

/// `io::Error` → the same error, naming `path`.
fn at(path: &Path) -> impl FnOnce(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Write every report's files under `out`, and its log as
/// `out/logs/<experiment>.txt`, then compare each with the same path under
/// `committed`. Returns one line per committed file that differs or is
/// missing and, with `orphans`, per `committed/*.csv` and
/// `committed/logs/*.txt` that no report wrote (sorted, last). Never
/// writes under `committed`; an error names the path that failed.
pub fn check(
    runs: &[(&str, Report)],
    out: &Path,
    committed: &Path,
    orphans: bool,
) -> io::Result<Vec<String>> {
    let mut drift = Vec::new();
    let mut written = BTreeSet::new();
    for (name, report) in runs {
        let log = (format!("logs/{name}.txt"), report.log.as_bytes());
        let files = report.files.iter().map(|(f, b)| (f.clone(), b.as_slice()));
        for (file, bytes) in files.chain([log]) {
            let path = out.join(&file);
            fs::create_dir_all(path.parent().unwrap_or(out))
                .and_then(|()| fs::write(&path, bytes))
                .map_err(at(&path))?;
            let theirs = committed.join(&file);
            match fs::read(&theirs) {
                Ok(b) if b == bytes => {}
                Ok(_) => drift.push(format!("drifted: {}", theirs.display())),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    drift.push(format!("missing: {} is not committed", theirs.display()))
                }
                Err(e) => return Err(at(&theirs)(e)),
            }
            written.insert(theirs);
        }
    }
    if orphans {
        let mut stale = Vec::new();
        for (dir, ext) in [
            (committed.to_path_buf(), "csv"),
            (committed.join("logs"), "txt"),
        ] {
            let entries = match fs::read_dir(&dir) {
                Ok(entries) => entries,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(at(&dir)(e)),
            };
            for entry in entries {
                let path = entry.map_err(at(&dir))?.path();
                if path.extension().is_some_and(|e| e == ext) && !written.contains(&path) {
                    stale.push(path);
                }
            }
        }
        stale.sort();
        drift.extend(
            stale
                .iter()
                .map(|p| format!("orphan: no experiment writes {}", p.display())),
        );
    }
    Ok(drift)
}
