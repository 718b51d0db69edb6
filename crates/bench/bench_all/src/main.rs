//! `bench_all` — the repository's benchmark (see `bench/README.md`).
//!
//! ```text
//! bench_all --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]
//! bench_all --merge REPORT.json RUN.json...
//! bench_all --compare A.json B.json
//! ```
//!
//! One process runs one pass over one workload, so peak memory is that
//! workload's. `--trace 0` (the default) is the untraced pass and prints
//! the end-to-end metrics; `--trace 1` is the traced pass and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod compare;
mod harness;
mod host;
mod json;
mod kernels;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use harness::{Outcome, Plan};
use json::{num, obj, text, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seconds `BENCHMARK.json` asks the driver to pass; also the default.
const RUN_SECONDS: f64 = 25.0;
const DEFAULT_SEED: u64 = 12;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out_dir: Option<PathBuf>,
}

enum Command {
    Run(RunArgs),
    Merge { report: PathBuf, runs: Vec<PathBuf> },
    Compare { a: PathBuf, b: PathBuf },
}

const USAGE: &str = "usage:
  bench_all --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]
  bench_all --merge REPORT.json RUN.json...
  bench_all --compare A.json B.json
workloads: model_sweep serve_system_hour live_scan_agg live_join_shuffle";

fn parse_args(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("--merge") if args.len() >= 3 => {
            return Ok(Command::Merge {
                report: PathBuf::from(&args[1]),
                runs: args[2..].iter().map(PathBuf::from).collect(),
            })
        }
        Some("--compare") if args.len() == 3 => {
            return Ok(Command::Compare {
                a: PathBuf::from(&args[1]),
                b: PathBuf::from(&args[2]),
            })
        }
        Some("--merge" | "--compare") => return Err("wrong number of files".to_string()),
        _ => {}
    }
    let mut run = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traced: false,
        smoke: false,
        out_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            run.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} cannot be {value}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad())?;
                if !(run.seconds > 0.0 && run.seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                run.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out-dir" => run.out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if workloads::shape_of(&run.workload).is_none() {
        return Err(format!("unknown workload '{}'", run.workload));
    }
    Ok(Command::Run(run))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_file(path: &Path, content: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, content).map_err(|e| format!("{}: {e}", path.display()))
}

/// The contract's result line.
fn result_line(outcome: &Outcome) -> Value {
    let metrics = outcome
        .rows
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                obj([("value", num(r.value)), ("unit", text(r.unit))]),
            )
        })
        .collect();
    obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

fn rows_json(rows: &[metrics::Row]) -> Value {
    Value::Obj(rows.iter().map(|r| (r.name.clone(), r.to_json())).collect())
}

fn run(args: &RunArgs) -> Result<bool, String> {
    host::refuse_debug_build()?;
    let shape = workloads::shape_of(&args.workload).ok_or("unknown workload")?;
    let plan = if args.smoke {
        Plan::smoke()
    } else {
        Plan::full(args.seconds)
    };
    // Smoke output never lands beside real results or committed files.
    let out_dir = args.out_dir.clone().unwrap_or_else(|| {
        PathBuf::from(if args.smoke {
            "target/smoke/bench_all"
        } else {
            "bench/out"
        })
    });
    let pass = if args.traced { "layers" } else { "e2e" };
    let outcome = if args.traced {
        let (outcome, spans) = harness::per_layer(shape, args.seed, &plan)?;
        let trace_path = out_dir.join(format!("trace_{}.json", args.workload));
        write_file(&trace_path, &trace::to_json(&spans))?;
        outcome
    } else {
        harness::end_to_end(shape, args.seed, &plan)?
    };

    let doc = obj([
        ("schema", text(compare::RUN_SCHEMA)),
        ("workload", text(&args.workload)),
        ("traced", Value::Bool(args.traced)),
        ("seed", num(args.seed as f64)),
        ("host", host::host_block()),
        (
            "plan",
            obj([
                ("seconds", num(plan.seconds)),
                ("min_ops", num(plan.min_ops as f64)),
                ("warmup_ops", num(plan.warmup_ops as f64)),
                ("setups", num(plan.setups as f64)),
                ("smoke", Value::Bool(args.smoke)),
            ]),
        ),
        ("workers", num(shape.workers() as f64)),
        ("queries_per_op", num(shape.queries_per_op() as f64)),
        (
            "ops",
            obj([
                ("timed", num(outcome.timed_ops as f64)),
                ("attempted", num(outcome.attempted as f64)),
                ("failed", num(outcome.failed as f64)),
            ]),
        ),
        (
            "notes",
            Value::Arr(outcome.notes.iter().map(|n| text(n)).collect()),
        ),
        ("metrics", rows_json(&outcome.rows)),
        ("extra", rows_json(&outcome.extra)),
    ]);
    let path = out_dir.join(format!("{}.{}.{pass}.json", args.workload, args.seed));
    write_file(&path, &json::render_lines(&doc))?;

    println!(
        "{} seed {} ({pass}): {} timed ops, {} attempted, {} failed; nproc {}{}",
        args.workload,
        args.seed,
        outcome.timed_ops,
        outcome.attempted,
        outcome.failed,
        host::nproc(),
        if host::nproc() < 2 {
            " (undersized)"
        } else {
            ""
        },
    );
    for r in outcome.rows.iter().chain(&outcome.extra) {
        println!(
            "{:<44} {:>16.6} {:<8} q1 {:<14.6} q3 {:<14.6} samples {}",
            r.name, r.value, r.unit, r.q1, r.q3, r.samples
        );
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!("{}", json::render(&result_line(&outcome)));
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|command| match command {
        Command::Run(args) => run(&args),
        Command::Merge { report, runs } => {
            let docs = runs
                .iter()
                .map(|p| read_json(p))
                .collect::<Result<Vec<_>, _>>()?;
            let merged = compare::merge(&docs)?;
            write_file(&report, &json::render_lines(&merged))?;
            compare::print_report(&merged);
            println!("\nwrote {}", report.display());
            Ok(true)
        }
        Command::Compare { a, b } => compare::compare(&read_json(&a)?, &read_json(&b)?),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("bench_all: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let Ok(Command::Run(r)) = parse_args(&args(
            "--workload live_scan_agg --seed 7 --seconds 3 --trace 1",
        )) else {
            panic!("run command expected");
        };
        assert_eq!(
            (r.workload.as_str(), r.seed, r.seconds, r.traced, r.smoke),
            ("live_scan_agg", 7, 3.0, true, false)
        );
        let Ok(Command::Run(r)) = parse_args(&args("--workload model_sweep --smoke")) else {
            panic!("run command expected");
        };
        assert_eq!(
            (r.seed, r.seconds, r.traced, r.smoke),
            (12, 25.0, false, true)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload model_sweep --trace 2",
            "--workload model_sweep --seconds 0",
            "--workload model_sweep --seed x",
            "--workload model_sweep --frobnicate 1",
            "--workload",
            "--compare a.json",
            "--merge out.json",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
        assert!(matches!(
            parse_args(&args("--compare a.json b.json")),
            Ok(Command::Compare { .. })
        ));
        assert!(matches!(
            parse_args(&args("--merge out.json r1.json r2.json")),
            Ok(Command::Merge { .. })
        ));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            rows: vec![metrics::Row::single("setup_s", "s", 0.8127)],
            extra: vec![metrics::Row::single("sim_latency_s_p50", "s", 40.0)],
            timed_ops: 3,
            attempted: 4,
            failed: 0,
            notes: Vec::new(),
        };
        assert_eq!(
            json::render(&result_line(&outcome)),
            r#"{"correct":true,"attempted":4,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }
}
