//! TPC-DS-style queries (§7.1.6).
//!
//! The paper adds TPC-DS queries 24, 58 and 81 to broaden the query mix:
//! "an iterative query, a reporting query, and a query with multiple fact
//! tables". We do not ship a TPC-DS data generator (see `DESIGN.md` §1);
//! instead these three plans reproduce those *shapes* over the TPC-H
//! schema — what matters to Cackle is the DAG structure and resource
//! profile, not the exact SQL text:
//!
//! * [`ds24_iterative`] — a two-pass query whose intermediate result is
//!   consumed twice (per-group totals compared against a second-pass
//!   average), like DS q24's repeated CTE.
//! * [`ds58_reporting`] — a reporting query aggregating the same fact slice
//!   over three aligned date windows and unioning the results.
//! * [`ds81_multifact`] — two fact tables (lineitem and partsupp) aggregated
//!   independently and joined on the shared supplier dimension.

use super::builder::*;
use cackle_engine::expr::Expr;
use cackle_engine::ops::aggregate::AggFunc::*;
use cackle_engine::ops::join::JoinType::*;
use cackle_engine::ops::sort::SortKey;
use cackle_engine::plan::StageDag;

/// Iterative two-pass query (DS q24 shape): per-(customer, nation) revenue,
/// kept only where it exceeds 1.2 × the average revenue of its nation —
/// the intermediate per-customer aggregate feeds both passes.
pub fn ds24_iterative(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("ds24");
    let nation = Node::scan("nation", &["n_nationkey", "n_name"], None);
    let b_nation = dag.stage_broadcast(nation.tasks(1));
    let cust = Node::scan("customer", &["c_custkey", "c_nationkey"], None).join(
        dag.read_broadcast(b_nation),
        &[("c_nationkey", "n_nationkey")],
        Inner,
    );
    let s_cust = dag.stage_hash(cust.tasks(par.mid), &["c_custkey"], par.join);
    let orders = Node::scan("orders", &["o_orderkey", "o_custkey"], None);
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_custkey"], par.join);
    let o_c = dag
        .read(s_orders)
        .join(dag.read(s_cust), &[("o_custkey", "c_custkey")], Inner);
    let s_oc = dag.stage_hash(o_c, &["o_orderkey"], par.join);
    let line = Node::scan(
        "lineitem",
        &["l_orderkey", "l_extendedprice", "l_discount"],
        None,
    );
    let s_li = dag.stage_hash(line.tasks(par.fact), &["l_orderkey"], par.join);
    let joined = dag
        .read(s_li)
        .join(dag.read(s_oc), &[("l_orderkey", "o_orderkey")], Inner);
    let jc = joined.cols();
    let rev = jc
        .c("l_extendedprice")
        .mul(lit(1.0).sub(jc.c("l_discount")));
    let per_cust = joined.aggregate(
        vec![("c_custkey", jc.c("o_custkey")), ("n_name", jc.c("n_name"))],
        vec![("revenue", Sum, rev)],
    );
    // Pass 1 output: per-customer revenue, exchanged on nation for pass 2.
    let s_pass1 = dag.stage_hash(per_cust, &["n_name"], par.join);
    // Pass 2: the same intermediate read twice — once aggregated to the
    // nation average, once as rows — exactly the iterative shape.
    let pass1 = dag.read(s_pass1);
    let pc = pass1.cols();
    let pass1 = pass1.aggregate(
        vec![("c_custkey", pc.c("c_custkey")), ("n_name", pc.c("n_name"))],
        vec![("revenue", Sum, pc.c("revenue"))],
    );
    let avg = dag.read(s_pass1);
    let avc = avg.cols();
    let avg = avg.aggregate(
        vec![("an", avc.c("n_name"))],
        vec![("avg_rev", Avg, avc.c("revenue"))],
    );
    let joined = pass1.join(avg, &[("n_name", "an")], Inner);
    let jc = joined.cols();
    let fin = dag
        .two_phase_aggregate(
            joined.filter(jc.c("revenue").gt(lit(1.2).mul(jc.c("avg_rev")))),
            vec![("n_name", jc.c("n_name"))],
            vec![
                ("big_spenders", CountStar, liti(1)),
                ("their_revenue", Sum, jc.c("revenue")),
            ],
            1,
        )
        .sort(vec![SortKey::asc(Expr::Col(0))], None);
    dag.finish(fin)
}

/// Reporting query (DS q58 shape): brand revenue over three consecutive
/// months, unioned into one report.
pub fn ds58_reporting(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("ds58");
    let part = Node::scan("part", &["p_partkey", "p_brand"], None);
    let s_part = dag.stage_hash(part.tasks(par.mid), &["p_partkey"], par.join);
    let windows = [
        ("1995-01-01", "1995-02-01"),
        ("1995-02-01", "1995-03-01"),
        ("1995-03-01", "1995-04-01"),
    ];
    let mut monthly = Vec::new();
    for (i, (lo, hi)) in windows.iter().enumerate() {
        let li = t("lineitem");
        let line = Node::scan(
            "lineitem",
            &["l_partkey", "l_extendedprice", "l_discount"],
            Some(
                li.c("l_shipdate")
                    .gt_eq(litd(lo))
                    .and(li.c("l_shipdate").lt(litd(hi))),
            ),
        );
        let s_li = dag.stage_hash(line.tasks(par.fact), &["l_partkey"], par.join);
        let joined = dag
            .read(s_li)
            .join(dag.read(s_part), &[("l_partkey", "p_partkey")], Inner);
        let jc = joined.cols();
        let rev = jc
            .c("l_extendedprice")
            .mul(lit(1.0).sub(jc.c("l_discount")));
        let agg = joined.aggregate(
            vec![("p_brand", jc.c("p_brand")), ("month", liti(i as i64 + 1))],
            vec![("revenue", Sum, rev)],
        );
        monthly.push(agg);
    }
    let mut it = monthly.into_iter();
    let first = it.next().expect("three windows");
    let unioned = first.union(it.collect());
    let s_union = dag.stage_hash(unioned, &["p_brand"], 1);
    let fin = dag.read(s_union);
    let fc = fin.cols();
    let fin = fin
        .aggregate(
            vec![("p_brand", fc.c("p_brand")), ("month", fc.c("month"))],
            vec![("revenue", Sum, fc.c("revenue"))],
        )
        .sort(
            vec![SortKey::desc(Expr::Col(2)), SortKey::asc(Expr::Col(0))],
            Some(100),
        );
    dag.finish(fin)
}

/// Multi-fact-table query (DS q81 shape): sales (lineitem) and supply
/// commitments (partsupp) aggregated per supplier and joined, keeping
/// suppliers whose sales exceed their supply value.
pub fn ds81_multifact(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("ds81");
    // Fact 1: lineitem revenue per supplier.
    let line = Node::scan(
        "lineitem",
        &["l_suppkey", "l_extendedprice", "l_discount"],
        None,
    );
    let lc = line.cols();
    let rev = lc
        .c("l_extendedprice")
        .mul(lit(1.0).sub(lc.c("l_discount")));
    let sales = line.aggregate(
        vec![("l_suppkey", lc.c("l_suppkey"))],
        vec![("sales", Sum, rev)],
    );
    let s_sales = dag.stage_hash(sales.tasks(par.fact), &["l_suppkey"], par.join);
    // Fact 2: partsupp supply value per supplier.
    let ps = Node::scan(
        "partsupp",
        &["ps_suppkey", "ps_availqty", "ps_supplycost"],
        None,
    );
    let pc = ps.cols();
    let supply_value = pc.c("ps_supplycost").mul(pc.c("ps_availqty"));
    let supply = ps.aggregate(
        vec![("ps_suppkey", pc.c("ps_suppkey"))],
        vec![("supply_value", Sum, supply_value)],
    );
    let s_supply = dag.stage_hash(supply.tasks(par.mid), &["ps_suppkey"], par.join);
    // Shared dimension.
    let nation = Node::scan("nation", &["n_nationkey", "n_name"], None);
    let b_nation = dag.stage_broadcast(nation.tasks(1));
    let supp = Node::scan("supplier", &["s_suppkey", "s_name", "s_nationkey"], None).join(
        dag.read_broadcast(b_nation),
        &[("s_nationkey", "n_nationkey")],
        Inner,
    );
    let s_supp = dag.stage_hash(supp.tasks(par.mid), &["s_suppkey"], par.join);

    let sales_f = dag.read(s_sales);
    let sc = sales_f.cols();
    let sales_f = sales_f.aggregate(
        vec![("sk", sc.c("l_suppkey"))],
        vec![("sales", Sum, sc.c("sales"))],
    );
    let supply_f = dag.read(s_supply);
    let vc = supply_f.cols();
    let supply_f = supply_f.aggregate(
        vec![("vk", vc.c("ps_suppkey"))],
        vec![("supply_value", Sum, vc.c("supply_value"))],
    );
    let joined = dag
        .read(s_supp)
        .join(sales_f, &[("s_suppkey", "sk")], Inner)
        .join(supply_f, &[("s_suppkey", "vk")], Inner);
    let jc = joined.cols();
    let out = joined
        .filter(jc.c("sales").gt(jc.c("supply_value")))
        .project(vec![
            ("s_name", jc.c("s_name")),
            ("n_name", jc.c("n_name")),
            ("sales", jc.c("sales")),
            ("supply_value", jc.c("supply_value")),
        ]);
    let oc = out.cols();
    let top = out.sort(vec![SortKey::desc(oc.c("sales"))], Some(100));
    let s_top = dag.stage_hash(top, &[], 1);
    let fin = dag.read(s_top);
    let fc = fin.cols();
    let fin = fin.sort(vec![SortKey::desc(fc.c("sales"))], Some(100));
    dag.finish(fin)
}
