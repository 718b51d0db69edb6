//! Physical plans for the evaluation query mix: TPC-H Q1–Q22 plus three
//! TPC-DS-style queries (§7.1.6).

pub mod builder;
mod q01_06;
mod q07_11;
mod q12_17;
mod q18_22;
mod tpcds;

pub use builder::{Cols, DagBuilder, Node, Par};
pub use q01_06::{q01, q02, q03, q04, q05, q06};
pub use q07_11::{q07, q08, q09, q10, q11};
pub use q12_17::{q12, q13, q14, q15, q16, q17};
pub use q18_22::{q18, q19, q20, q21, q22};
pub use tpcds::{ds24_iterative, ds58_reporting, ds81_multifact};

use cackle_engine::plan::StageDag;

/// Builds one query's plan at a parallelism.
pub type PlanFn = fn(Par) -> StageDag;

/// Every query in the evaluation mix, by name, with its plan builder.
pub const QUERIES: [(&str, PlanFn); 25] = [
    ("q01", q01),
    ("q02", q02),
    ("q03", q03),
    ("q04", q04),
    ("q05", q05),
    ("q06", q06),
    ("q07", q07),
    ("q08", q08),
    ("q09", q09),
    ("q10", q10),
    ("q11", q11),
    ("q12", q12),
    ("q13", q13),
    ("q14", q14),
    ("q15", q15),
    ("q16", q16),
    ("q17", q17),
    ("q18", q18),
    ("q19", q19),
    ("q20", q20),
    ("q21", q21),
    ("q22", q22),
    ("ds24", ds24_iterative),
    ("ds58", ds58_reporting),
    ("ds81", ds81_multifact),
];

/// Build the plan for a query by name.
pub fn plan(name: &str, par: Par) -> StageDag {
    let (_, build) = QUERIES
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown query '{name}'"));
    build(par)
}

/// Build every plan in the mix.
pub fn all_plans(par: Par) -> Vec<StageDag> {
    QUERIES.iter().map(|(_, build)| build(par)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_plans_validate_at_multiple_scales() {
        // StageDag::new validates topology, exchange/task consistency, and
        // gather placement; building is the test.
        for par in [
            Par::for_scale(0.01),
            Par::for_scale(10.0),
            Par::for_scale(100.0),
        ] {
            let plans = all_plans(par);
            assert_eq!(plans.len(), 25);
            for p in &plans {
                assert!(p.stages.len() >= 2, "{} suspiciously small", p.name);
                assert!(p.total_tasks() >= p.stages.len() as u32);
            }
        }
    }

    #[test]
    fn plan_names_match_registry() {
        for (name, _) in QUERIES {
            assert_eq!(plan(name, Par::for_scale(1.0)).name, name);
        }
    }

    #[test]
    fn fact_heavy_plans_scale_tasks_with_sf() {
        let small = q01(Par::for_scale(1.0));
        let large = q01(Par::for_scale(100.0));
        assert!(large.total_tasks() > small.total_tasks() * 10);
    }

    #[test]
    #[should_panic(expected = "unknown query")]
    fn unknown_query_panics() {
        plan("q99", Par::for_scale(1.0));
    }
}
