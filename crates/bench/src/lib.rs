//! The experiments that regenerate every table and figure of the paper
//! (see `DESIGN.md` §4 for the index), as one registry, [`EXPERIMENTS`].
//!
//! Each experiment is a plain fn returning a [`Report`]: the figure's
//! series as CSV files plus a log of the aligned tables and notes it
//! prints. The `repro` binary runs them through [`outputs::run`], writes
//! every output under `target/repro/` and compares it byte for byte with
//! the committed copy under `results/` ([`outputs::check`]).

mod ablations;
mod figures;
pub mod outputs;
mod sweeps;

use cackle::model::{build_workload, simulate_compute, workload_curves, QueryArrival};
use cackle::{Env, RunSpec};
use cackle_workload::arrivals::WorkloadSpec;
use cackle_workload::profile::ProfileRef;
use std::fmt::Display;

/// One registry entry: the experiment's name and the fn that runs it.
pub type Experiment = (&'static str, fn() -> Report);

/// Every experiment, in paper order. A name is what `repro NAME` runs and
/// what DESIGN.md §4's Regenerator column cites.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig01_latency_cdf", figures::fig01_latency_cdf),
    ("fig02_04_traces", figures::fig02_04_traces),
    ("table01_defaults", figures::table01_defaults),
    ("fig05_query_density", figures::fig05_query_density),
    ("fig06_period", figures::fig06_period),
    ("fig07_baseline", figures::fig07_baseline),
    ("fig08_pool_cost", figures::fig08_pool_cost),
    ("fig09_startup", figures::fig09_startup),
    ("fig10_real_workloads", figures::fig10_real_workloads),
    ("fig11_delaying", figures::fig11_delaying),
    ("fig12_timeseries", figures::fig12_timeseries),
    ("fig13_model_validation", figures::fig13_model_validation),
    ("fig14_stability", figures::fig14_stability),
    ("ablation_family", ablations::ablation_family),
    ("ablation_tick", ablations::ablation_tick),
    ("ablation_epsilon", ablations::ablation_epsilon),
    ("ablation_shuffle_floor", ablations::ablation_shuffle_floor),
    ("ablation_min_billing", ablations::ablation_min_billing),
    ("ablation_price_shift", ablations::ablation_price_shift),
    ("ablation_priming", ablations::ablation_priming),
    (
        "ablation_spot_interruptions",
        ablations::ablation_spot_interruptions,
    ),
    ("chaos_fault_sweep", sweeps::chaos_fault_sweep),
    ("bench_env_grid", sweeps::bench_env_grid),
    ("bench_tenant_sweep", sweeps::bench_tenant_sweep),
];

/// What one experiment produces: its output files (name → bytes) and its
/// log — the rendered tables plus any notes it prints. Host time goes
/// into neither.
#[derive(Debug, Default)]
pub struct Report {
    /// Output files by file name, in the order the experiment made them.
    pub files: Vec<(String, Vec<u8>)>,
    /// Everything the experiment prints.
    pub log: String,
}

impl Report {
    /// Log `table` and add it as `<name>.csv`.
    pub(crate) fn table(self, name: &str, table: &ResultTable) -> Self {
        let report = self.file(format!("{name}.csv"), table.csv());
        report.note(table.render())
    }

    /// Add an output file.
    pub fn file(mut self, name: impl Into<String>, bytes: impl Into<Vec<u8>>) -> Self {
        self.files.push((name.into(), bytes.into()));
        self
    }

    /// Log one line.
    pub fn note(mut self, line: impl Display) -> Self {
        self.log.push_str(&format!("{line}\n"));
        self
    }
}

/// The §5.1 analytical-model mix: all 25 evaluation queries at SF 100.
pub(crate) fn model_mix() -> Vec<ProfileRef> {
    cackle_tpch::profiles::profile_set(100.0)
}

/// The §7.1.6 hour-long-workload mix: 25 queries × SF {10, 50, 100}.
pub(crate) fn evaluation_mix() -> Vec<ProfileRef> {
    cackle_tpch::profiles::evaluation_mix()
}

/// Build the Table 1 default workload (12 h, 30 % baseline, 3 h period)
/// with `n` queries over the model mix.
pub(crate) fn default_workload(n: usize) -> Vec<QueryArrival> {
    let spec = WorkloadSpec {
        num_queries: n,
        ..WorkloadSpec::default()
    };
    build_workload(&spec, &model_mix())
}

/// An hour-long §7.1.6 workload with `n` queries over the evaluation mix.
pub(crate) fn hour_workload(n: usize, seed: u64) -> Vec<QueryArrival> {
    build_workload(&WorkloadSpec::hour_long(n, seed), &evaluation_mix())
}

/// A workload's per-second task-demand curve.
pub(crate) fn demand(workload: &[QueryArrival]) -> Vec<u32> {
    workload_curves(workload).demand.samples
}

/// Default environment (Table 1).
pub(crate) fn env() -> Env {
    Env::default()
}

/// Columnar result table printed like the paper's series and saved as CSV.
pub(crate) struct ResultTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Start a table.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        ResultTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of preformatted strings.
    pub(crate) fn row_strings(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub(crate) fn render(&self) -> String {
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

    /// The table as CSV: a header line, then one line per row.
    pub(crate) fn csv(&self) -> String {
        let mut csv = self.headers.join(",") + "\n";
        for r in &self.rows {
            csv.push_str(&r.join(","));
            csv.push('\n');
        }
        csv
    }
}

/// Format dollars.
pub(crate) fn usd(v: f64) -> String {
    format!("{v:.2}")
}

/// Format dollars with more precision (per-query costs).
pub(crate) fn usd4(v: f64) -> String {
    format!("{v:.4}")
}

/// Format seconds.
pub(crate) fn secs(v: f64) -> String {
    format!("{v:.1}")
}

/// Compute-layer cost of one strategy label over a demand curve under
/// flat prices, where the special label `oracle` means the exact offline
/// optimum.
pub(crate) fn cost_for(demand: &[u32], label: &str, env: &Env) -> f64 {
    if label == "oracle" {
        return cackle::oracle::oracle_cost(demand, env).total();
    }
    let spec = RunSpec::new().with_env(env.clone()).with_compute_only(true);
    let mut strategy = cackle::make_strategy(label, env);
    simulate_compute(demand, strategy.as_mut(), &spec)
        .compute
        .total()
}

/// The sweep behind Figures 5–10: one row per `(axis value, demand curve,
/// environment)`, one column per strategy label. `cell` formats a cost
/// given the row's first cost, the column Figure 10 normalises to.
pub(crate) fn cost_grid(
    title: &str,
    axis: &str,
    rows: impl IntoIterator<Item = (String, Vec<u32>, Env)>,
    labels: &[&str],
    cell: fn(f64, f64) -> String,
) -> ResultTable {
    let headers: Vec<&str> = std::iter::once(axis)
        .chain(labels.iter().copied())
        .collect();
    let mut t = ResultTable::new(title, &headers);
    for (value, demand, env) in rows {
        let costs: Vec<f64> = labels.iter().map(|l| cost_for(&demand, l, &env)).collect();
        let cells = costs.iter().map(|&c| cell(c, costs[0]));
        t.row_strings(std::iter::once(value).chain(cells).collect());
    }
    t
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
        assert_eq!(t.csv(), "x,cost\n1000,12.34\n2,5.60\n");
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

    #[test]
    fn cost_grid_derives_headers_from_labels() {
        let rows = [("a".to_string(), vec![4; 600], env())];
        let t = cost_grid("g", "axis", rows, &["fixed_0", "oracle"], |c, first| {
            format!("{:.3}", c / first)
        });
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "axis,fixed_0,oracle");
        assert!(lines[1].starts_with("a,1.000,"), "{csv}");
    }
}
