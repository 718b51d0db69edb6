//! Merging runs into one report, and comparing two reports.
//!
//! A *run* is one process: one workload, one seed, one pass. A *report*
//! (`BENCH.json`) holds, per workload and metric, the values of all runs
//! with their median and quartiles — the run-to-run spread the bounds
//! are judged against, computed the way the accepting driver computes it.

use crate::json::{num, nums, obj, text, Value};
use crate::metrics::{per_layer, Better, END_TO_END, EXTRA};
use crate::stats::Summary;
use crate::workloads::WORKLOADS;

pub const RUN_SCHEMA: &str = "cackle-bench-run/1";
pub const REPORT_SCHEMA: &str = "cackle-bench/1";

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(|x| x.as_str()).unwrap_or("")
}

fn f64_of(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(|x| x.as_f64()).unwrap_or(f64::NAN)
}

fn summary_row(unit: &str, better: Better, bound: Option<f64>, values: &[f64]) -> Value {
    let s = Summary::of(values);
    let mut pairs = vec![
        ("unit".to_string(), text(unit)),
        ("better".to_string(), text(better.as_str())),
    ];
    if let Some(b) = bound {
        pairs.push(("bound".to_string(), num(b)));
    }
    pairs.extend([
        ("median".to_string(), num(s.median)),
        ("q1".to_string(), num(s.q1)),
        ("q3".to_string(), num(s.q3)),
        ("samples".to_string(), num(s.samples as f64)),
        ("values".to_string(), nums(values)),
    ]);
    Value::Obj(pairs)
}

/// Merge run documents into a report. Runs of one workload and pass
/// become the samples of its rows, in the order given.
pub fn merge(runs: &[Value]) -> Result<Value, String> {
    for r in runs {
        if str_of(r, "schema") != RUN_SCHEMA {
            return Err(format!("not a {RUN_SCHEMA} document"));
        }
    }
    let first = runs.first().ok_or("nothing to merge")?;
    let mut workloads = Vec::new();
    for (name, why) in WORKLOADS {
        let of_pass = |traced: bool| -> Vec<&Value> {
            runs.iter()
                .filter(|r| {
                    str_of(r, "workload") == name && r.get("traced") == Some(&Value::Bool(traced))
                })
                .collect()
        };
        let (plain, traced) = (of_pass(false), of_pass(true));
        if plain.is_empty() && traced.is_empty() {
            continue;
        }
        let values_in = |pass: &[&Value], section: &str, metric: &str| -> Vec<f64> {
            pass.iter()
                .filter_map(|r| r.get(section)?.get(metric)?.get("value")?.as_f64())
                .collect()
        };
        let values = |pass: &[&Value], metric: &str| values_in(pass, "metrics", metric);
        let of_runs = |pass: &[&Value], key: &str| -> Vec<f64> {
            pass.iter().map(|r| f64_of(r, key)).collect()
        };
        let ops = |pass: &[&Value], key: &str| -> Vec<f64> {
            pass.iter()
                .map(|r| r.get("ops").map_or(f64::NAN, |o| f64_of(o, key)))
                .collect()
        };
        let end_to_end: Vec<(String, Value)> = END_TO_END
            .iter()
            .map(|&(m, unit, better, bound)| {
                (
                    m.to_string(),
                    summary_row(unit, better, Some(bound), &values(&plain, m)),
                )
            })
            .collect();
        let extra: Vec<(String, Value)> = EXTRA
            .iter()
            .map(|&(m, unit, better)| {
                let row = summary_row(unit, better, None, &values_in(&plain, "extra", m));
                (m.to_string(), row)
            })
            .collect();
        let layers: Vec<(String, Value)> = per_layer()
            .into_iter()
            .map(|(m, unit, better)| {
                let row = summary_row(unit, better, None, &values(&traced, &m));
                (m, row)
            })
            .collect();
        let any = plain.first().or(traced.first()).expect("one pass has runs");
        workloads.push((
            name.to_string(),
            obj([
                ("why", text(why)),
                ("workers", num(f64_of(any, "workers"))),
                ("queries_per_op", num(f64_of(any, "queries_per_op"))),
                ("seeds", nums(&of_runs(&plain, "seed"))),
                ("timed_ops", nums(&ops(&plain, "timed"))),
                (
                    "failed",
                    num(ops(&plain, "failed")
                        .iter()
                        .chain(&ops(&traced, "failed"))
                        .sum()),
                ),
                ("end_to_end", Value::Obj(end_to_end)),
                ("extra", Value::Obj(extra)),
                ("traced_seeds", nums(&of_runs(&traced, "seed"))),
                ("per_layer", Value::Obj(layers)),
            ]),
        ));
    }
    Ok(obj([
        ("schema", text(REPORT_SCHEMA)),
        ("host", first.get("host").cloned().unwrap_or(Value::Null)),
        ("plan", first.get("plan").cloned().unwrap_or(Value::Null)),
        ("workloads", Value::Obj(workloads)),
    ]))
}

fn members(v: Option<&Value>) -> &[(String, Value)] {
    match v {
        Some(Value::Obj(pairs)) => pairs,
        _ => &[],
    }
}

fn values_of(row: &Value) -> Vec<f64> {
    row.get("values")
        .and_then(|v| v.as_array())
        .map_or(Vec::new(), |a| {
            a.iter().filter_map(|x| x.as_f64()).collect()
        })
}

/// Every metric of a report by name, with its unit.
pub fn print_report(report: &Value) {
    if let Some(host) = report.get("host") {
        println!("host: {}", crate::json::render(host));
    }
    for (workload, w) in members(report.get("workloads")) {
        println!(
            "\n== {workload} (workers {}, {} queries/op, {} failed) ==",
            f64_of(w, "workers"),
            f64_of(w, "queries_per_op"),
            f64_of(w, "failed")
        );
        for section in ["end_to_end", "extra", "per_layer"] {
            for (name, row) in members(w.get(section)) {
                if f64_of(row, "samples") == 0.0 {
                    continue;
                }
                println!(
                    "{name:<44} {:>14.6} {:<8} q1 {:<12.6} q3 {:<12.6} runs {}",
                    f64_of(row, "median"),
                    str_of(row, "unit"),
                    f64_of(row, "q1"),
                    f64_of(row, "q3"),
                    f64_of(row, "samples"),
                );
            }
        }
    }
}

/// How a row of `b` stands against the same row of `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The median worsened by more than the bound.
    Regression,
    /// Run-to-run spread is wider than the bound, so "no worse" cannot
    /// be told from "worse" — unless every run of `b` beats every run of `a`.
    Unresolved,
    /// A simulated result differs although both reports ran the same seeds.
    SimChanged,
    /// Per-layer row: reported, not judged.
    Unjudged,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::SimChanged => "SIM-CHANGED",
            Verdict::Unjudged => "",
        }
    }
}

/// Judge one end-to-end row: `a` is the baseline.
pub fn judge(
    name: &str,
    better: Better,
    bound: f64,
    a: &[f64],
    b: &[f64],
    same_seeds: bool,
) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    if name.starts_with("sim_") && same_seeds && a != b {
        return Verdict::SimChanged;
    }
    let worse_by = match better {
        Better::Lower => (sb.median - sa.median) / sa.median.abs(),
        Better::Higher => (sa.median - sb.median) / sa.median.abs(),
    };
    if worse_by > bound {
        return Verdict::Regression;
    }
    if sa.spread().max(sb.spread()) > bound {
        let b_always_better = match better {
            Better::Lower => max_of(b) < min_of(a),
            Better::Higher => min_of(b) > max_of(a),
        };
        if !b_always_better {
            return Verdict::Unresolved;
        }
    }
    Verdict::Ok
}

fn max_of(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn min_of(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Print one row per (metric, workload) — both medians, both
/// inter-quartile ranges, the delta and the bound — and return whether
/// every end-to-end row of `b` is within its bound of `a`.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    for doc in [a, b] {
        if str_of(doc, "schema") != REPORT_SCHEMA {
            return Err(format!("not a {REPORT_SCHEMA} report"));
        }
    }
    let mut pass = true;
    println!(
        "{:<18} {:<44} {:>13} {:>11} {:>13} {:>11} {:>9} {:>6}  verdict",
        "workload", "metric", "a.median", "a.iqr", "b.median", "b.iqr", "delta", "bound"
    );
    for (workload, wa) in members(a.get("workloads")) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<18} missing from the second report");
            pass = false;
            continue;
        };
        for (doc, w) in [("first", wa), ("second", wb)] {
            let failed = f64_of(w, "failed");
            if failed != 0.0 {
                println!("{workload:<18} {failed} ops failed in the {doc} report");
                pass = false;
            }
        }
        let same_seeds = wa.get("seeds") == wb.get("seeds");
        for section in ["end_to_end", "extra", "per_layer"] {
            for (name, ra) in members(wa.get(section)) {
                let Some(rb) = wb.get(section).and_then(|s| s.get(name)) else {
                    continue;
                };
                let (va, vb) = (values_of(ra), values_of(rb));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
                let better = if str_of(ra, "better") == "higher" {
                    Better::Higher
                } else {
                    Better::Lower
                };
                let bound = ra.get("bound").and_then(|x| x.as_f64());
                let verdict = match bound {
                    Some(bound) => judge(name, better, bound, &va, &vb, same_seeds),
                    None if name.starts_with("sim_") && same_seeds && va != vb => {
                        Verdict::SimChanged
                    }
                    None => Verdict::Unjudged,
                };
                pass &= !matches!(verdict, Verdict::Regression | Verdict::SimChanged);
                println!(
                    "{workload:<18} {name:<44} {:>13.6} {:>11.6} {:>13.6} {:>11.6} {:>+8.2}% {:>6}  {}",
                    sa.median,
                    sa.q3 - sa.q1,
                    sb.median,
                    sb.q3 - sb.q1,
                    (sb.median - sa.median) / sa.median.abs() * 100.0,
                    bound.map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
                    verdict.as_str(),
                );
            }
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn judge_applies_bound_spread_and_direction() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [112.0, 113.0, 111.0, 112.5, 111.5];
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(
            judge("op_ms_p50", Lower, 0.10, &steady, &steady, false),
            Verdict::Ok
        );
        assert_eq!(
            judge("op_ms_p50", Lower, 0.10, &steady, &slower, false),
            Verdict::Regression
        );
        // Getting faster is never a regression; for a higher-is-better
        // metric the same numbers are one.
        assert_eq!(
            judge("op_ms_p50", Lower, 0.10, &slower, &steady, false),
            Verdict::Ok
        );
        assert_eq!(
            judge("queries_per_host_s", Higher, 0.10, &slower, &steady, false),
            Verdict::Regression
        );
        // Spread wider than the bound: unresolved, unless b always wins.
        assert_eq!(
            judge("op_ms_p50", Lower, 0.10, &noisy, &steady, false),
            Verdict::Unresolved
        );
        let much_faster = [10.0, 11.0, 9.0, 10.5, 9.5];
        assert_eq!(
            judge("op_ms_p50", Lower, 0.10, &noisy, &much_faster, false),
            Verdict::Ok
        );
    }

    #[test]
    fn simulated_rows_must_repeat_at_equal_seeds() {
        let a = [1.0, 1.01];
        let b = [1.0, 1.010001];
        assert_eq!(
            judge("sim_cost_usd_per_query", Lower, 0.05, &a, &b, true),
            Verdict::SimChanged
        );
        assert_eq!(
            judge("sim_cost_usd_per_query", Lower, 0.05, &a, &b, false),
            Verdict::Ok
        );
        assert_eq!(
            judge("sim_cost_usd_per_query", Lower, 0.05, &a, &a, true),
            Verdict::Ok
        );
    }

    fn run_doc(workload: &str, traced: bool, seed: f64, metric: &str, value: f64) -> Value {
        obj([
            ("schema", text(RUN_SCHEMA)),
            ("workload", text(workload)),
            ("traced", Value::Bool(traced)),
            ("seed", num(seed)),
            ("host", obj([("nproc", num(2.0))])),
            ("plan", obj([("seconds", num(1.0))])),
            ("workers", num(1.0)),
            ("queries_per_op", num(5.0)),
            ("ops", obj([("timed", num(10.0)), ("failed", num(0.0))])),
            (
                "metrics",
                obj([(metric, obj([("value", num(value)), ("unit", text("ms"))]))]),
            ),
        ])
    }

    #[test]
    fn merge_groups_runs_and_compare_reads_it_back() {
        let runs: Vec<Value> = [100.0, 102.0, 98.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| run_doc("model_sweep", false, i as f64, "op_ms_p50", v))
            .chain([run_doc("model_sweep", true, 0.0, "bench.spans", 7.0)])
            .collect();
        let report = merge(&runs).expect("merges");
        // The report survives the writer and the parser.
        let report = crate::json::parse(&crate::json::render_lines(&report)).expect("parses");
        let w = report
            .get("workloads")
            .and_then(|w| w.get("model_sweep"))
            .expect("workload");
        let row = w
            .get("end_to_end")
            .and_then(|e| e.get("op_ms_p50"))
            .expect("row");
        assert_eq!(f64_of(row, "median"), 100.0);
        assert_eq!(f64_of(row, "samples"), 3.0);
        assert_eq!(f64_of(row, "bound"), 0.25);
        let spans = w
            .get("per_layer")
            .and_then(|e| e.get("bench.spans"))
            .expect("row");
        assert_eq!(values_of(spans), vec![7.0]);
        assert_eq!(compare(&report, &report), Ok(true));

        let slow: Vec<Value> = [150.0, 151.0, 149.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| run_doc("model_sweep", false, i as f64, "op_ms_p50", v))
            .collect();
        let slow = merge(&slow).expect("merges");
        assert_eq!(compare(&report, &slow), Ok(false));
        assert!(merge(&[obj([("schema", text("other"))])]).is_err());
        assert!(compare(&report, &obj([])).is_err());
    }
}
