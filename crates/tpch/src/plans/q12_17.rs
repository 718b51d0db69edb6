//! TPC-H queries 12–17 as physical stage DAGs.

use super::builder::*;
use cackle_engine::expr::{Expr, LikePattern};
use cackle_engine::ops::aggregate::AggFunc::*;
use cackle_engine::ops::join::JoinType::*;
use cackle_engine::ops::sort::SortKey;
use cackle_engine::plan::StageDag;
use cackle_engine::types::Value;

/// Q12 — shipping modes and order priority.
pub fn q12(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q12");
    let li = t("lineitem");
    let line = Node::scan(
        "lineitem",
        &["l_orderkey", "l_shipmode"],
        Some(
            in_strs(li.c("l_shipmode"), &["MAIL", "SHIP"])
                .and(li.c("l_commitdate").lt(li.c("l_receiptdate")))
                .and(li.c("l_shipdate").lt(li.c("l_commitdate")))
                .and(li.c("l_receiptdate").gt_eq(litd("1994-01-01")))
                .and(li.c("l_receiptdate").lt(litd("1995-01-01"))),
        ),
    );
    let s_li = dag.stage_hash(line.tasks(par.fact), &["l_orderkey"], par.join);
    let orders = Node::scan("orders", &["o_orderkey", "o_orderpriority"], None);
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_orderkey"], par.join);
    let joined = dag
        .read(s_li)
        .join(dag.read(s_orders), &[("l_orderkey", "o_orderkey")], Inner);
    let jc = joined.cols();
    let is_high = in_strs(jc.c("o_orderpriority"), &["1-URGENT", "2-HIGH"]);
    let fin = dag
        .two_phase_aggregate(
            joined,
            vec![("l_shipmode", jc.c("l_shipmode"))],
            vec![
                (
                    "high_line_count",
                    Sum,
                    case_when(is_high.clone(), liti(1), liti(0)),
                ),
                ("low_line_count", Sum, case_when(is_high, liti(0), liti(1))),
            ],
            1,
        )
        .sort(vec![SortKey::asc(Expr::Col(0))], None);
    dag.finish(fin)
}

/// Q13 — customer order-count distribution (LEFT OUTER JOIN).
pub fn q13(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q13");
    let orders = Node::scan(
        "orders",
        &["o_orderkey", "o_custkey"],
        Some(not_like(
            t("orders").c("o_comment"),
            LikePattern::ContainsInOrder(vec!["special".into(), "requests".into()]),
        )),
    );
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_custkey"], par.join);
    let cust = Node::scan("customer", &["c_custkey"], None);
    let s_cust = dag.stage_hash(cust.tasks(par.mid), &["c_custkey"], par.join);
    // customer LEFT JOIN orders, both partitioned on customer key: the
    // per-customer count is complete within the partition.
    let joined = dag
        .read(s_cust)
        .join(dag.read(s_orders), &[("c_custkey", "o_custkey")], Left);
    let jc = joined.cols();
    let per_cust = joined.aggregate(
        vec![("c_custkey", jc.c("c_custkey"))],
        vec![("c_count", Count, jc.c("o_orderkey"))],
    );
    let pc = per_cust.cols();
    let fin = dag
        .two_phase_aggregate(
            per_cust,
            vec![("c_count", pc.c("c_count"))],
            vec![("custdist", CountStar, liti(1))],
            1,
        )
        .sort(
            vec![SortKey::desc(Expr::Col(1)), SortKey::desc(Expr::Col(0))],
            None,
        );
    dag.finish(fin)
}

/// Q14 — promotion effect: partitioned lineitem ⋈ part.
pub fn q14(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q14");
    let li = t("lineitem");
    let line = Node::scan(
        "lineitem",
        &["l_partkey", "l_extendedprice", "l_discount"],
        Some(
            li.c("l_shipdate")
                .gt_eq(litd("1995-09-01"))
                .and(li.c("l_shipdate").lt(litd("1995-10-01"))),
        ),
    );
    let s_li = dag.stage_hash(line.tasks(par.fact), &["l_partkey"], par.join);
    let part = Node::scan("part", &["p_partkey", "p_type"], None);
    let s_part = dag.stage_hash(part.tasks(par.mid), &["p_partkey"], par.join);
    let joined = dag
        .read(s_li)
        .join(dag.read(s_part), &[("l_partkey", "p_partkey")], Inner);
    let jc = joined.cols();
    let rev = jc
        .c("l_extendedprice")
        .mul(lit(1.0).sub(jc.c("l_discount")));
    let promo = case_when(
        like(jc.c("p_type"), LikePattern::Prefix("PROMO".into())),
        rev.clone(),
        lit(0.0),
    );
    let fin = dag.two_phase_aggregate(
        joined,
        vec![],
        vec![("promo_revenue", Sum, promo), ("total_revenue", Sum, rev)],
        1,
    );
    let fc = fin.cols();
    let fin = fin.project(vec![(
        "promo_pct",
        lit(100.0)
            .mul(fc.c("promo_revenue"))
            .div(fc.c("total_revenue")),
    )]);
    dag.finish(fin)
}

/// Q15 — top supplier: per-supplier quarterly revenue, max via
/// constant-key join, supplier details broadcast.
pub fn q15(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q15");
    let li = t("lineitem");
    let line = Node::scan(
        "lineitem",
        &["l_suppkey", "l_extendedprice", "l_discount"],
        Some(
            li.c("l_shipdate")
                .gt_eq(litd("1996-01-01"))
                .and(li.c("l_shipdate").lt(litd("1996-04-01"))),
        ),
    );
    let lc = line.cols();
    let rev = lc
        .c("l_extendedprice")
        .mul(lit(1.0).sub(lc.c("l_discount")));
    let revenue = dag.two_phase_aggregate(
        line.tasks(par.fact),
        vec![("supplier_no", lc.c("l_suppkey"))],
        vec![("total_revenue", Sum, rev)],
        par.join,
    );
    let s_rev = dag.stage_hash(revenue, &[], 1);
    let supp = Node::scan(
        "supplier",
        &["s_suppkey", "s_name", "s_address", "s_phone"],
        None,
    );
    let b_supp = dag.stage_broadcast(supp.tasks(1));
    // Final: max via constant-key join, then equality filter.
    let rows = dag.read(s_rev);
    let rk = {
        let rc = rows.cols();
        rows.project(vec![
            ("supplier_no", rc.c("supplier_no")),
            ("total_revenue", rc.c("total_revenue")),
            ("k", liti(1)),
        ])
    };
    let mx = dag.read(s_rev);
    let mc = mx.cols();
    let mx = mx.aggregate(vec![], vec![("max_revenue", Max, mc.c("total_revenue"))]);
    let mk = {
        let mc = mx.cols();
        mx.project(vec![("max_revenue", mc.c("max_revenue")), ("k2", liti(1))])
    };
    let joined = rk.join(mk, &[("k", "k2")], Inner);
    let jc = joined.cols();
    let fin = joined
        .filter(jc.c("total_revenue").eq(jc.c("max_revenue")))
        .join(
            dag.read_broadcast(b_supp),
            &[("supplier_no", "s_suppkey")],
            Inner,
        );
    let fc = fin.cols();
    let fin = fin
        .project(vec![
            ("s_suppkey", fc.c("s_suppkey")),
            ("s_name", fc.c("s_name")),
            ("s_address", fc.c("s_address")),
            ("s_phone", fc.c("s_phone")),
            ("total_revenue", fc.c("total_revenue")),
        ])
        .sort(vec![SortKey::asc(Expr::Col(0))], None);
    dag.finish(fin)
}

/// Q16 — parts/supplier relationship: anti join against complained-about
/// suppliers, COUNT DISTINCT after a group-key exchange.
pub fn q16(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q16");
    let complaints = Node::scan(
        "supplier",
        &["s_suppkey"],
        Some(like(
            t("supplier").c("s_comment"),
            LikePattern::ContainsInOrder(vec!["Customer".into(), "Complaints".into()]),
        )),
    );
    let b_compl = dag.stage_broadcast(complaints.tasks(1));
    let p = t("part");
    let part = Node::scan(
        "part",
        &["p_partkey", "p_brand", "p_type", "p_size"],
        Some(
            p.c("p_brand")
                .neq(lits("Brand#45"))
                .and(not_like(
                    p.c("p_type"),
                    LikePattern::Prefix("MEDIUM POLISHED".into()),
                ))
                .and(in_i64s(p.c("p_size"), &[49, 14, 23, 45, 19, 3, 36, 9])),
        ),
    );
    let s_part = dag.stage_hash(part.tasks(par.mid), &["p_partkey"], par.join);
    let ps = Node::scan("partsupp", &["ps_partkey", "ps_suppkey"], None).join(
        dag.read_broadcast(b_compl),
        &[("ps_suppkey", "s_suppkey")],
        Anti,
    );
    let s_ps = dag.stage_hash(ps.tasks(par.mid), &["ps_partkey"], par.join);
    let joined = dag
        .read(s_ps)
        .join(dag.read(s_part), &[("ps_partkey", "p_partkey")], Inner);
    let jc = joined.cols();
    let pairs = joined.project(vec![
        ("p_brand", jc.c("p_brand")),
        ("p_type", jc.c("p_type")),
        ("p_size", jc.c("p_size")),
        ("ps_suppkey", jc.c("ps_suppkey")),
    ]);
    let s_pairs = dag.stage_hash(pairs, &["p_brand", "p_type", "p_size"], par.join);
    let grouped = dag.read(s_pairs);
    let gc = grouped.cols();
    let agg = grouped.aggregate(
        vec![
            ("p_brand", gc.c("p_brand")),
            ("p_type", gc.c("p_type")),
            ("p_size", gc.c("p_size")),
        ],
        vec![("supplier_cnt", CountDistinct, gc.c("ps_suppkey"))],
    );
    let s_agg = dag.stage_hash(agg, &[], 1);
    let fin = dag.read(s_agg);
    let fc = fin.cols();
    let fin = fin.sort(
        vec![
            SortKey::desc(fc.c("supplier_cnt")),
            SortKey::asc(fc.c("p_brand")),
            SortKey::asc(fc.c("p_type")),
            SortKey::asc(fc.c("p_size")),
        ],
        None,
    );
    dag.finish(fin)
}

/// Q17 — small-quantity-order revenue: per-part average joined back
/// within the partition.
pub fn q17(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q17");
    let p = t("part");
    let part = Node::scan(
        "part",
        &["p_partkey"],
        Some(
            p.c("p_brand")
                .eq(lits("Brand#23"))
                .and(p.c("p_container").eq(lits("MED BOX"))),
        ),
    );
    let s_part = dag.stage_hash(part.tasks(par.mid), &["p_partkey"], par.join);
    let line = Node::scan(
        "lineitem",
        &["l_partkey", "l_quantity", "l_extendedprice"],
        None,
    );
    let s_li = dag.stage_hash(line.tasks(par.fact), &["l_partkey"], par.join);

    // Per-part average quantity over all lineitems (complete within the
    // partition), then join against qualifying parts and filter.
    let avg_side = dag.read(s_li);
    let avc = avg_side.cols();
    let avg_side = avg_side.aggregate(
        vec![("ak", avc.c("l_partkey"))],
        vec![("avg_qty", Avg, avc.c("l_quantity"))],
    );
    let joined = dag
        .read(s_li)
        .join(dag.read(s_part), &[("l_partkey", "p_partkey")], Semi)
        .join(avg_side, &[("l_partkey", "ak")], Inner);
    let jc = joined.cols();
    let small = joined.filter(jc.c("l_quantity").lt(lit(0.2).mul(jc.c("avg_qty"))));
    let sc = small.cols();
    let fin = dag.two_phase_aggregate(
        small,
        vec![],
        vec![("sum_price", Sum, sc.c("l_extendedprice"))],
        1,
    );
    let fc = fin.cols();
    let fin = fin.project(vec![(
        "avg_yearly",
        Expr::Coalesce(vec![fc.c("sum_price"), Expr::Lit(Value::F64(0.0))]).div(lit(7.0)),
    )]);
    dag.finish(fin)
}
