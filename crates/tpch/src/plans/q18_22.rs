//! TPC-H queries 18–22 as physical stage DAGs.

use super::builder::*;
use cackle_engine::expr::{Expr, LikePattern};
use cackle_engine::ops::aggregate::AggFunc::*;
use cackle_engine::ops::join::JoinType::*;
use cackle_engine::ops::sort::SortKey;
use cackle_engine::plan::StageDag;

/// Q18 — large-volume customers (orders with > 300 total quantity).
pub fn q18(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q18");
    let line = Node::scan("lineitem", &["l_orderkey", "l_quantity"], None);
    let lc = line.cols();
    let partial = line.aggregate(
        vec![("l_orderkey", lc.c("l_orderkey"))],
        vec![("sum_qty", Sum, lc.c("l_quantity"))],
    );
    let s_qty = dag.stage_hash(partial.tasks(par.fact), &["l_orderkey"], par.join);
    let orders = Node::scan(
        "orders",
        &["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
        None,
    );
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_orderkey"], par.join);

    let big = dag.read(s_qty);
    let bc = big.cols();
    let big = big.aggregate(
        vec![("bk", bc.c("l_orderkey"))],
        vec![("sum_qty", Sum, bc.c("sum_qty"))],
    );
    let bc = big.cols();
    let big = big.filter(bc.c("sum_qty").gt(lit(300.0)));
    let joined = dag.read(s_orders).join(big, &[("o_orderkey", "bk")], Inner);
    let s_joined = dag.stage_hash(joined, &["o_custkey"], par.join);

    let cust = Node::scan("customer", &["c_custkey", "c_name"], None);
    let s_cust = dag.stage_hash(cust.tasks(par.mid), &["c_custkey"], par.join);
    let full = dag
        .read(s_joined)
        .join(dag.read(s_cust), &[("o_custkey", "c_custkey")], Inner);
    let fc = full.cols();
    let out = full.project(vec![
        ("c_name", fc.c("c_name")),
        ("c_custkey", fc.c("c_custkey")),
        ("o_orderkey", fc.c("o_orderkey")),
        ("o_orderdate", fc.c("o_orderdate")),
        ("o_totalprice", fc.c("o_totalprice")),
        ("sum_qty", fc.c("sum_qty")),
    ]);
    let oc = out.cols();
    let top = out.sort(
        vec![
            SortKey::desc(oc.c("o_totalprice")),
            SortKey::asc(oc.c("o_orderdate")),
        ],
        Some(100),
    );
    let s_top = dag.stage_hash(top, &[], 1);
    let fin = dag.read(s_top);
    let fc = fin.cols();
    let fin = fin.sort(
        vec![
            SortKey::desc(fc.c("o_totalprice")),
            SortKey::asc(fc.c("o_orderdate")),
        ],
        Some(100),
    );
    dag.finish(fin)
}

/// Q19 — discounted revenue: partitioned lineitem ⋈ part with a
/// three-branch OR predicate.
pub fn q19(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q19");
    let li = t("lineitem");
    let line = Node::scan(
        "lineitem",
        &["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        Some(
            in_strs(li.c("l_shipmode"), &["AIR", "REG AIR"])
                .and(li.c("l_shipinstruct").eq(lits("DELIVER IN PERSON"))),
        ),
    );
    let s_li = dag.stage_hash(line.tasks(par.fact), &["l_partkey"], par.join);
    let part = Node::scan(
        "part",
        &["p_partkey", "p_brand", "p_size", "p_container"],
        None,
    );
    let s_part = dag.stage_hash(part.tasks(par.mid), &["p_partkey"], par.join);
    let joined = dag
        .read(s_li)
        .join(dag.read(s_part), &[("l_partkey", "p_partkey")], Inner);
    let jc = joined.cols();
    let branch = |brand: &str, containers: &[&str], qlo: f64, qhi: f64, smax: i64| {
        jc.c("p_brand")
            .eq(lits(brand))
            .and(in_strs(jc.c("p_container"), containers))
            .and(jc.c("l_quantity").gt_eq(lit(qlo)))
            .and(jc.c("l_quantity").lt_eq(lit(qhi)))
            .and(jc.c("p_size").gt_eq(liti(1)))
            .and(jc.c("p_size").lt_eq(liti(smax)))
    };
    let pred = branch(
        "Brand#12",
        &["SM CASE", "SM BOX", "SM PACK", "SM PKG"],
        1.0,
        11.0,
        5,
    )
    .or(branch(
        "Brand#23",
        &["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
        10.0,
        20.0,
        10,
    ))
    .or(branch(
        "Brand#34",
        &["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
        20.0,
        30.0,
        15,
    ));
    let filtered = joined.filter(pred);
    let fc = filtered.cols();
    let rev = fc
        .c("l_extendedprice")
        .mul(lit(1.0).sub(fc.c("l_discount")));
    let fin = dag.two_phase_aggregate(filtered, vec![], vec![("revenue", Sum, rev)], 1);
    dag.finish(fin)
}

/// Q20 — potential part promotion: forest parts, 1994 shipments, availqty
/// threshold, CANADA suppliers.
pub fn q20(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q20");
    let part = Node::scan(
        "part",
        &["p_partkey"],
        Some(like(
            t("part").c("p_name"),
            LikePattern::Prefix("forest".into()),
        )),
    );
    let s_part = dag.stage_hash(part.tasks(par.mid), &["p_partkey"], par.join);
    let li = t("lineitem");
    let line = Node::scan(
        "lineitem",
        &["l_partkey", "l_suppkey", "l_quantity"],
        Some(
            li.c("l_shipdate")
                .gt_eq(litd("1994-01-01"))
                .and(li.c("l_shipdate").lt(litd("1995-01-01"))),
        ),
    );
    let s_li = dag.stage_hash(line.tasks(par.fact), &["l_partkey"], par.join);
    let ps = Node::scan(
        "partsupp",
        &["ps_partkey", "ps_suppkey", "ps_availqty"],
        None,
    );
    let s_ps = dag.stage_hash(ps.tasks(par.mid), &["ps_partkey"], par.join);

    // Within the part-key partition: shipped quantity per (part, supplier),
    // partsupp restricted to forest parts, availqty > 0.5 × shipped.
    let qty = dag.read(s_li);
    let qc = qty.cols();
    let qty = qty.aggregate(
        vec![
            ("qk_part", qc.c("l_partkey")),
            ("qk_supp", qc.c("l_suppkey")),
        ],
        vec![("sum_qty", Sum, qc.c("l_quantity"))],
    );
    let forest_ps = dag
        .read(s_ps)
        .join(dag.read(s_part), &[("ps_partkey", "p_partkey")], Semi);
    let joined = forest_ps.join(
        qty,
        &[("ps_partkey", "qk_part"), ("ps_suppkey", "qk_supp")],
        Inner,
    );
    let jc = joined.cols();
    let qualified = joined
        .filter(
            Expr::Cast {
                input: Box::new(jc.c("ps_availqty")),
                to: cackle_engine::types::DataType::F64,
            }
            .gt(lit(0.5).mul(jc.c("sum_qty"))),
        )
        .aggregate(
            vec![("suppkey", jc.c("ps_suppkey"))],
            vec![("n", CountStar, liti(1))],
        );
    let s_keys = dag.stage_hash(qualified, &["suppkey"], par.join);

    let nation = Node::scan(
        "nation",
        &["n_nationkey"],
        Some(t("nation").c("n_name").eq(lits("CANADA"))),
    );
    let b_nation = dag.stage_broadcast(nation.tasks(1));
    let supp = Node::scan(
        "supplier",
        &["s_suppkey", "s_name", "s_address", "s_nationkey"],
        None,
    )
    .join(
        dag.read_broadcast(b_nation),
        &[("s_nationkey", "n_nationkey")],
        Semi,
    );
    let s_supp = dag.stage_hash(supp.tasks(par.mid), &["s_suppkey"], par.join);

    let fin = dag
        .read(s_supp)
        .join(dag.read(s_keys), &[("s_suppkey", "suppkey")], Semi);
    let fc = fin.cols();
    let fin = fin.project(vec![
        ("s_name", fc.c("s_name")),
        ("s_address", fc.c("s_address")),
    ]);
    let s_fin = dag.stage_hash(fin, &[], 1);
    let gather = dag.read(s_fin);
    let gc = gather.cols();
    let gather = gather.sort(vec![SortKey::asc(gc.c("s_name"))], None);
    dag.finish(gather)
}

/// Q21 — suppliers who kept orders waiting, via the per-order
/// distinct-supplier-count rewrite of the EXISTS / NOT EXISTS pair.
pub fn q21(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q21");
    let nation = Node::scan(
        "nation",
        &["n_nationkey"],
        Some(t("nation").c("n_name").eq(lits("SAUDI ARABIA"))),
    );
    let b_nation = dag.stage_broadcast(nation.tasks(1));
    let supp = Node::scan("supplier", &["s_suppkey", "s_name", "s_nationkey"], None).join(
        dag.read_broadcast(b_nation),
        &[("s_nationkey", "n_nationkey")],
        Semi,
    );
    let b_supp = dag.stage_broadcast(supp.tasks(1));

    let line = {
        let scan = Node::scan(
            "lineitem",
            &["l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate"],
            None,
        );
        let sc = scan.cols();
        scan.project(vec![
            ("l_orderkey", sc.c("l_orderkey")),
            ("l_suppkey", sc.c("l_suppkey")),
            (
                "late",
                case_when(
                    sc.c("l_receiptdate").gt(sc.c("l_commitdate")),
                    liti(1),
                    liti(0),
                ),
            ),
        ])
    };
    let s_li = dag.stage_hash(line.tasks(par.fact), &["l_orderkey"], par.join);
    let orders = Node::scan(
        "orders",
        &["o_orderkey"],
        Some(t("orders").c("o_orderstatus").eq(lits("F"))),
    );
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_orderkey"], par.join);

    // Per-order supplier statistics within the order-key partition.
    let li_f = dag
        .read(s_li)
        .join(dag.read(s_orders), &[("l_orderkey", "o_orderkey")], Semi);
    let stats = {
        let sc = li_f.cols();
        let late_supp = Expr::Case {
            branches: vec![(sc.c("late").eq(liti(1)), sc.c("l_suppkey"))],
            else_expr: None,
        };
        li_f.clone().aggregate(
            vec![("ok", sc.c("l_orderkey"))],
            vec![
                ("n_supp", CountDistinct, sc.c("l_suppkey")),
                ("n_late_supp", CountDistinct, late_supp),
            ],
        )
    };
    let lc = li_f.cols();
    let candidates = li_f.filter(lc.c("late").eq(liti(1))).join(
        dag.read_broadcast(b_supp),
        &[("l_suppkey", "s_suppkey")],
        Inner,
    );
    let joined = candidates.join(stats, &[("l_orderkey", "ok")], Inner);
    let jc = joined.cols();
    let waiting = joined.filter(
        jc.c("n_supp")
            .gt(liti(1))
            .and(jc.c("n_late_supp").eq(liti(1))),
    );
    let fin = dag
        .two_phase_aggregate(
            waiting,
            vec![("s_name", jc.c("s_name"))],
            vec![("numwait", CountStar, liti(1))],
            1,
        )
        .sort(
            vec![SortKey::desc(Expr::Col(1)), SortKey::asc(Expr::Col(0))],
            Some(100),
        );
    dag.finish(fin)
}

/// Q22 — global sales opportunity: country-code customers with above
/// average balances and no orders.
pub fn q22(par: Par) -> StageDag {
    const CODES: [&str; 7] = ["13", "31", "23", "29", "30", "18", "17"];
    let mut dag = DagBuilder::new("q22");
    let code = |e: Expr| Expr::Substr {
        input: Box::new(e),
        start: 1,
        len: 2,
    };
    let c = t("customer");
    // Global average positive balance among the country codes.
    let avg_scan = Node::scan(
        "customer",
        &["c_acctbal"],
        Some(
            c.c("c_acctbal")
                .gt(lit(0.0))
                .and(in_strs(code(c.c("c_phone")), &CODES)),
        ),
    );
    let ac = avg_scan.cols();
    let avg_total = dag.two_phase_aggregate(
        avg_scan.tasks(par.mid),
        vec![],
        vec![("s", Sum, ac.c("c_acctbal")), ("n", CountStar, liti(1))],
        1,
    );
    let tc = avg_total.cols();
    let avg_total = avg_total.project(vec![
        (
            "avgbal",
            tc.c("s").div(Expr::Cast {
                input: Box::new(tc.c("n")),
                to: cackle_engine::types::DataType::F64,
            }),
        ),
        ("k2", liti(1)),
    ]);
    let b_avg = dag.stage_broadcast(avg_total);

    let cust = Node::scan(
        "customer",
        &["c_custkey", "c_phone", "c_acctbal"],
        Some(in_strs(code(c.c("c_phone")), &CODES)),
    );
    let s_cust = dag.stage_hash(cust.tasks(par.mid), &["c_custkey"], par.join);
    let orders = Node::scan("orders", &["o_custkey"], None);
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_custkey"], par.join);

    let no_orders = dag
        .read(s_cust)
        .join(dag.read(s_orders), &[("c_custkey", "o_custkey")], Anti);
    let nc = no_orders.cols();
    let with_k = no_orders.project(vec![
        ("cntrycode", code(nc.c("c_phone"))),
        ("c_acctbal", nc.c("c_acctbal")),
        ("k", liti(1)),
    ]);
    let joined = with_k.join(dag.read_broadcast(b_avg), &[("k", "k2")], Inner);
    let jc = joined.cols();
    let fin = dag
        .two_phase_aggregate(
            joined.filter(jc.c("c_acctbal").gt(jc.c("avgbal"))),
            vec![("cntrycode", jc.c("cntrycode"))],
            vec![
                ("numcust", CountStar, liti(1)),
                ("totacctbal", Sum, jc.c("c_acctbal")),
            ],
            1,
        )
        .sort(vec![SortKey::asc(Expr::Col(0))], None);
    dag.finish(fin)
}
