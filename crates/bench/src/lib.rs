//! Shared support for the experiment binaries that regenerate every table
//! and figure of the paper (see `DESIGN.md` §4 for the index).
//!
//! Each binary prints the figure's series as an aligned table and writes a
//! CSV under `results/` so the numbers can be plotted or diffed.

use cackle::model::{build_workload, QueryArrival};
use cackle::Env;
use cackle_workload::arrivals::WorkloadSpec;
use cackle_workload::profile::ProfileRef;
use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};

/// The §5.1 analytical-model mix: all 25 evaluation queries at SF 100.
pub fn model_mix() -> Vec<ProfileRef> {
    cackle_tpch::profiles::profile_set(100.0)
}

/// The §7.1.6 hour-long-workload mix: 25 queries × SF {10, 50, 100}.
pub fn evaluation_mix() -> Vec<ProfileRef> {
    cackle_tpch::profiles::evaluation_mix()
}

/// Table 1 default workload (12 h, 16384 queries, 30 % baseline, 3 h
/// period) with an overridable query count.
pub fn default_spec(num_queries: usize) -> WorkloadSpec {
    WorkloadSpec {
        num_queries,
        ..WorkloadSpec::default()
    }
}

/// Build the Table 1 default workload with `n` queries over the model mix.
pub fn default_workload(n: usize) -> Vec<QueryArrival> {
    build_workload(&default_spec(n), &model_mix())
}

/// An hour-long §7.1.6 workload with `n` queries over the evaluation mix.
pub fn hour_workload(n: usize, seed: u64) -> Vec<QueryArrival> {
    build_workload(&WorkloadSpec::hour_long(n, seed), &evaluation_mix())
}

/// Where a binary with a `--smoke` mode writes its outputs: `results/`
/// (the committed evidence) for a full run, `target/smoke/` for a smoke
/// run, so a reduced CI run never overwrites what the docs cite.
pub fn out_dir(smoke: bool) -> PathBuf {
    if smoke {
        PathBuf::from("target/smoke")
    } else {
        PathBuf::from("results")
    }
}

/// Default environment (Table 1).
pub fn env() -> Env {
    Env::default()
}

/// Columnar result table printed like the paper's series and saved as CSV.
pub struct ResultTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        ResultTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of display-able cells.
    pub fn row(&mut self, cells: Vec<Box<dyn Display>>) {
        assert_eq!(cells.len(), self.headers.len(), "row width");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Append a row of preformatted strings.
    pub fn row_strings(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        for (i, h) in self.headers.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", h, w = widths[i]));
        }
        out.push('\n');
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Print the table and write `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        self.emit_in(Path::new("results"), name);
    }

    /// Print the table and write `<dir>/<name>.csv`.
    pub fn emit_in(&self, dir: &Path, name: &str) {
        println!("{}", self.render());
        if fs::create_dir_all(dir).is_ok() {
            let mut csv = self.headers.join(",") + "\n";
            for r in &self.rows {
                csv.push_str(&r.join(","));
                csv.push('\n');
            }
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = fs::write(&path, csv) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("wrote {}\n", path.display());
            }
        }
    }
}

/// Format dollars.
pub fn usd(v: f64) -> String {
    format!("{v:.2}")
}

/// Format dollars with more precision (per-query costs).
pub fn usd4(v: f64) -> String {
    format!("{v:.4}")
}

/// Format seconds.
pub fn secs(v: f64) -> String {
    format!("{v:.1}")
}

/// Compute-layer cost of one strategy label over a workload, where the
/// special label `oracle` means the exact offline optimum.
pub fn compute_cost_for(workload: &[QueryArrival], label: &str, env: &Env) -> f64 {
    use cackle::model::{run_model, workload_curves};
    use cackle::RunSpec;
    if label == "oracle" {
        let curves = workload_curves(workload);
        return cackle::oracle::oracle_cost(&curves.demand.samples, env).total();
    }
    let spec = RunSpec::new()
        .with_env(env.clone())
        .with_strategy(label)
        .with_compute_only(true);
    run_model(workload, &spec).compute.total()
}

/// Compute-layer cost of a strategy over a bare demand curve (trace
/// experiments), `oracle` handled as above.
pub fn trace_cost_for(demand: &[u32], label: &str, env: &Env) -> f64 {
    use cackle::model::simulate_compute;
    use cackle::RunSpec;
    if label == "oracle" {
        return cackle::oracle::oracle_cost(demand, env).total();
    }
    let spec = RunSpec::new()
        .with_env(env.clone())
        .with_strategy(label)
        .with_compute_only(true);
    let mut strategy = cackle::make_strategy(label, env);
    simulate_compute(demand, strategy.as_mut(), &spec)
        .compute
        .total()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = ResultTable::new("demo", &["x", "cost"]);
        t.row_strings(vec!["1000".into(), "12.34".into()]);
        t.row_strings(vec!["2".into(), "5.60".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("1000"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn mixes_are_populated() {
        assert_eq!(model_mix().len(), 25);
        assert_eq!(evaluation_mix().len(), 75);
        let w = hour_workload(60, 1);
        assert_eq!(w.len(), 60);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(usd(1.005), "1.00");
        assert_eq!(usd4(0.00123), "0.0012");
        assert_eq!(secs(12.34), "12.3");
    }
}
