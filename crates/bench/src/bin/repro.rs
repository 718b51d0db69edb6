//! `repro [NAME...]`: run the named experiments (every one when no name
//! is given), print their logs in registry order, write every output
//! under `target/repro/` (logs under `target/repro/logs/`) and compare it
//! byte for byte with the committed copy under `results/`.
//!
//! Exit 0: every output matches. Exit 1: one line per drifted or missing
//! file — and, on a full run, per orphan (a `results/*.csv` or
//! `results/logs/*.txt` that no experiment wrote). Exit 2: an unknown
//! name, or an output that could not be written.
//!
//! `repro` never writes to `results/`. To accept new evidence, run
//! `cp -r target/repro/. results/`.

use cackle_bench::outputs::{check, run, select};
use cackle_bench::EXPERIMENTS;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = match select(EXPERIMENTS, &names) {
        Ok(selected) => selected,
        Err(unknown) => {
            eprintln!("repro: unknown experiment `{unknown}`; usage: repro [NAME...], one of:");
            for (name, _) in EXPERIMENTS {
                eprintln!("  {name}");
            }
            return ExitCode::from(2);
        }
    };
    let runs = run(EXPERIMENTS, &selected);
    for (_, report) in &runs {
        print!("{}", report.log);
    }
    match check(
        &runs,
        Path::new("target/repro"),
        Path::new("results"),
        names.is_empty(),
    ) {
        Ok(drift) if drift.is_empty() => ExitCode::SUCCESS,
        Ok(drift) => {
            for d in &drift {
                eprintln!("repro: {d}");
            }
            eprintln!("repro: to accept these outputs, run `cp -r target/repro/. results/`");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("repro: cannot write or read {e}");
            ExitCode::from(2)
        }
    }
}
