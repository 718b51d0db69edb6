//! End-to-end execution of the full evaluation query mix on generated data.
//!
//! Every one of the 25 plans runs distributed (multiple tasks per stage,
//! real shuffle exchange) against a generated TPC-H catalog, and the
//! results are checked: exact recomputation for Q1/Q6/Q13, sanity
//! invariants for the rest.

use cackle_engine::prelude::*;
use cackle_tpch::dbgen::{generate_catalog, DbGenConfig};
use cackle_tpch::plans::{self, Par};
use std::sync::OnceLock;

fn catalog() -> &'static Catalog {
    static CAT: OnceLock<Catalog> = OnceLock::new();
    CAT.get_or_init(|| {
        generate_catalog(&DbGenConfig {
            scale_factor: 0.002,
            rows_per_partition: 512,
            seed: 7,
        })
    })
}

/// Multi-task parallelism even at tiny scale, to exercise real exchanges.
fn par() -> Par {
    Par {
        fact: 4,
        mid: 2,
        join: 3,
    }
}

fn run(name: &str) -> Batch {
    let dag = plans::plan(name, par());
    Executor::new(1).execute_query(
        &dag,
        0xC0FFEE ^ name.len() as u64,
        catalog(),
        &MemoryShuffle::new(),
    )
}

#[test]
fn q01_matches_independent_computation() {
    let result = run("q01");
    // Recompute from the raw table with scalar code.
    use std::collections::BTreeMap;
    /// sum_qty, sum_base, sum_disc_price, sum_charge, sum_disc, count.
    type Q01Acc = (f64, f64, f64, f64, f64, i64);
    let mut expect: BTreeMap<(String, String), Q01Acc> = BTreeMap::new();
    let cutoff = date::parse("1998-09-02");
    let li = catalog().get("lineitem");
    for p in &li.partitions {
        let flag = p.column_by_name("l_returnflag").strs();
        let status = p.column_by_name("l_linestatus").strs();
        let qty = p.column_by_name("l_quantity").f64s();
        let price = p.column_by_name("l_extendedprice").f64s();
        let disc = p.column_by_name("l_discount").f64s();
        let tax = p.column_by_name("l_tax").f64s();
        let ship = p.column_by_name("l_shipdate").dates();
        for i in 0..p.num_rows() {
            if ship[i] > cutoff {
                continue;
            }
            let e = expect
                .entry((flag[i].to_string(), status[i].to_string()))
                .or_insert((0.0, 0.0, 0.0, 0.0, 0.0, 0));
            e.0 += qty[i];
            e.1 += price[i];
            e.2 += price[i] * (1.0 - disc[i]);
            e.3 += price[i] * (1.0 - disc[i]) * (1.0 + tax[i]);
            e.4 += disc[i];
            e.5 += 1;
        }
    }
    assert_eq!(result.num_rows(), expect.len());
    // Result is sorted by (flag, status), matching BTreeMap order.
    for (i, ((flag, status), e)) in expect.iter().enumerate() {
        assert_eq!(&result.columns[0].strs()[i], flag);
        assert_eq!(&result.columns[1].strs()[i], status);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6 * b.abs().max(1.0);
        assert!(
            close(result.columns[2].f64s()[i], e.0),
            "sum_qty {flag}{status}"
        );
        assert!(
            close(result.columns[3].f64s()[i], e.1),
            "sum_base {flag}{status}"
        );
        assert!(close(result.columns[4].f64s()[i], e.2), "sum_disc_price");
        assert!(close(result.columns[5].f64s()[i], e.3), "sum_charge");
        assert!(
            close(result.columns[6].f64s()[i], e.0 / e.5 as f64),
            "avg_qty"
        );
        assert_eq!(result.columns[9].i64s()[i], e.5, "count_order");
    }
}

#[test]
fn q06_matches_independent_computation() {
    let result = run("q06");
    let lo = date::parse("1994-01-01");
    let hi = date::parse("1995-01-01");
    let mut expect = 0.0;
    let li = catalog().get("lineitem");
    for p in &li.partitions {
        let qty = p.column_by_name("l_quantity").f64s();
        let price = p.column_by_name("l_extendedprice").f64s();
        let disc = p.column_by_name("l_discount").f64s();
        let ship = p.column_by_name("l_shipdate").dates();
        for i in 0..p.num_rows() {
            if ship[i] >= lo
                && ship[i] < hi
                && disc[i] >= 0.05 - 1e-9
                && disc[i] <= 0.07 + 1e-9
                && qty[i] < 24.0
            {
                expect += price[i] * disc[i];
            }
        }
    }
    assert_eq!(result.num_rows(), 1);
    let got = result.columns[0].f64s()[0];
    assert!(
        (got - expect).abs() < 1e-6 * expect.max(1.0),
        "{got} vs {expect}"
    );
    assert!(expect > 0.0, "filter should select something at this SF");
}

#[test]
fn q13_distribution_sums_to_customer_count() {
    let result = run("q13");
    // Every customer appears exactly once in the distribution (including
    // the zero-orders bucket), so custdist sums to |customer|.
    let total: i64 = result.columns[1].i64s().iter().sum();
    assert_eq!(total as usize, catalog().get("customer").num_rows());
    // The left join must produce a zero-orders bucket at this scale
    // (150 customers-per-0.001-SF vs 1500 orders; some customers have none).
    let has_zero = result.columns[0].i64s().contains(&0);
    assert!(has_zero, "expected a zero-order bucket");
}

#[test]
fn all_queries_execute_and_produce_sane_results() {
    for (name, _) in plans::QUERIES {
        let result = run(name);
        // Global aggregates always produce exactly one row; others, bounded.
        match name {
            "q06" | "q14" | "q17" | "q19" => {
                assert_eq!(result.num_rows(), 1, "{name} row count")
            }
            "q01" => assert!(result.num_rows() >= 3, "{name}"),
            "q04" => assert_eq!(result.num_rows(), 5, "{name}: five priorities"),
            "q03" | "q10" | "q18" | "q21" | "ds58" | "ds81" => {
                assert!(result.num_rows() <= 100, "{name} respects LIMIT")
            }
            _ => {}
        }
        // No empty schemas, no panic: basic sanity.
        assert!(result.num_columns() > 0, "{name} has columns");
    }
}

#[test]
fn q05_revenue_nations_within_asia() {
    let result = run("q05");
    let asia = ["CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"];
    for n in result.columns[0].strs() {
        assert!(asia.contains(&n), "{n} is not in ASIA");
    }
    // Revenue sorted descending.
    let revs = result.columns[1].f64s();
    assert!(revs.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn q22_country_codes_from_filter_list() {
    let result = run("q22");
    const CODES: [&str; 7] = ["13", "31", "23", "29", "30", "18", "17"];
    for c in result.columns[0].strs() {
        assert!(CODES.contains(&c), "unexpected code {c}");
    }
    assert!(
        result.num_rows() >= 1,
        "q22 should find opportunity customers"
    );
}

#[test]
fn results_are_deterministic_across_runs() {
    for name in ["q03", "q09", "q18", "ds24"] {
        let a = run(name);
        let b = run(name);
        assert_eq!(a, b, "{name} nondeterministic");
    }
}

/// Compare batches allowing float drift from parallel summation order.
fn assert_batches_close(a: &Batch, b: &Batch, ctx: &str) {
    assert_eq!(a.schema, b.schema, "{ctx}: schema");
    assert_eq!(a.num_rows(), b.num_rows(), "{ctx}: row count");
    for (ci, (ca, cb)) in a.columns.iter().zip(&b.columns).enumerate() {
        match (&ca.data, &cb.data) {
            (ColumnData::F64(va), ColumnData::F64(vb)) => {
                for (i, (x, y)) in va.iter().zip(vb).enumerate() {
                    assert!(
                        (x - y).abs() <= 1e-6 * y.abs().max(1.0),
                        "{ctx}: col {ci} row {i}: {x} vs {y}"
                    );
                }
            }
            _ => assert_eq!(ca, cb, "{ctx}: col {ci}"),
        }
    }
}

#[test]
fn task_parallelism_does_not_change_results() {
    // The same query with different parallelism must produce the same
    // gathered output (exchange correctness); float aggregates may drift
    // by summation order only.
    for name in ["q01", "q04", "q12", "q16", "ds81"] {
        let serial = {
            let dag = plans::plan(
                name,
                Par {
                    fact: 1,
                    mid: 1,
                    join: 1,
                },
            );
            Executor::new(1).execute_query(&dag, 1, catalog(), &MemoryShuffle::new())
        };
        let parallel = {
            let dag = plans::plan(
                name,
                Par {
                    fact: 5,
                    mid: 3,
                    join: 4,
                },
            );
            Executor::new(1).execute_query(&dag, 2, catalog(), &MemoryShuffle::new())
        };
        assert_batches_close(&serial, &parallel, name);
    }
}
