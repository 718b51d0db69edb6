//! TPC-H queries 7–11 as physical stage DAGs.

use super::builder::*;
use cackle_engine::expr::{Expr, LikePattern};
use cackle_engine::ops::aggregate::AggFunc::*;
use cackle_engine::ops::join::JoinType::*;
use cackle_engine::ops::sort::SortKey;
use cackle_engine::plan::StageDag;

/// Q7 — volume shipping between FRANCE and GERMANY.
pub fn q07(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q07");
    let nation = Node::scan(
        "nation",
        &["n_nationkey", "n_name"],
        Some(in_strs(t("nation").c("n_name"), &["FRANCE", "GERMANY"])),
    );
    let b_nation = dag.stage_broadcast(nation.tasks(1));
    let supp = Node::scan("supplier", &["s_suppkey", "s_nationkey"], None).join(
        dag.read_broadcast(b_nation),
        &[("s_nationkey", "n_nationkey")],
        Inner,
    );
    let sc = supp.cols();
    let supp = supp.project(vec![
        ("s_suppkey", sc.c("s_suppkey")),
        ("supp_nation", sc.c("n_name")),
    ]);
    let b_supp = dag.stage_broadcast(supp.tasks(1));

    let cust = Node::scan("customer", &["c_custkey", "c_nationkey"], None).join(
        dag.read_broadcast(b_nation),
        &[("c_nationkey", "n_nationkey")],
        Inner,
    );
    let cc = cust.cols();
    let cust = cust.project(vec![
        ("c_custkey", cc.c("c_custkey")),
        ("cust_nation", cc.c("n_name")),
    ]);
    let s_cust = dag.stage_hash(cust.tasks(par.mid), &["c_custkey"], par.join);

    let orders = Node::scan("orders", &["o_orderkey", "o_custkey"], None);
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_custkey"], par.join);
    let o_c = dag
        .read(s_orders)
        .join(dag.read(s_cust), &[("o_custkey", "c_custkey")], Inner);
    let s_oc = dag.stage_hash(o_c, &["o_orderkey"], par.join);

    let li = t("lineitem");
    let line = Node::scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
        Some(
            li.c("l_shipdate")
                .gt_eq(litd("1995-01-01"))
                .and(li.c("l_shipdate").lt_eq(litd("1996-12-31"))),
        ),
    )
    .join(
        dag.read_broadcast(b_supp),
        &[("l_suppkey", "s_suppkey")],
        Inner,
    );
    let s_li = dag.stage_hash(line.tasks(par.fact), &["l_orderkey"], par.join);

    let joined = dag
        .read(s_li)
        .join(dag.read(s_oc), &[("l_orderkey", "o_orderkey")], Inner);
    let jc = joined.cols();
    let pairs = joined.filter(
        jc.c("supp_nation")
            .eq(lits("FRANCE"))
            .and(jc.c("cust_nation").eq(lits("GERMANY")))
            .or(jc
                .c("supp_nation")
                .eq(lits("GERMANY"))
                .and(jc.c("cust_nation").eq(lits("FRANCE")))),
    );
    let pc = pairs.cols();
    let volume = pc
        .c("l_extendedprice")
        .mul(lit(1.0).sub(pc.c("l_discount")));
    let fin = dag
        .two_phase_aggregate(
            pairs,
            vec![
                ("supp_nation", pc.c("supp_nation")),
                ("cust_nation", pc.c("cust_nation")),
                ("l_year", Expr::ExtractYear(Box::new(pc.c("l_shipdate")))),
            ],
            vec![("revenue", Sum, volume)],
            1,
        )
        .sort(
            vec![
                SortKey::asc(Expr::Col(0)),
                SortKey::asc(Expr::Col(1)),
                SortKey::asc(Expr::Col(2)),
            ],
            None,
        );
    dag.finish(fin)
}

/// Q8 — national market share of BRAZIL in AMERICA for a part type.
pub fn q08(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q08");
    let region = Node::scan(
        "region",
        &["r_regionkey"],
        Some(t("region").c("r_name").eq(lits("AMERICA"))),
    );
    let b_region = dag.stage_broadcast(region.tasks(1));
    let am_nation = Node::scan("nation", &["n_nationkey", "n_regionkey"], None).join(
        dag.read_broadcast(b_region),
        &[("n_regionkey", "r_regionkey")],
        Semi,
    );
    let b_am_nation = dag.stage_broadcast(am_nation.tasks(1));
    let all_nation = Node::scan("nation", &["n_nationkey", "n_name"], None);
    let b_all_nation = dag.stage_broadcast(all_nation.tasks(1));
    let part = Node::scan(
        "part",
        &["p_partkey"],
        Some(t("part").c("p_type").eq(lits("ECONOMY ANODIZED STEEL"))),
    );
    let b_part = dag.stage_broadcast(part.tasks(1));
    let supp = Node::scan("supplier", &["s_suppkey", "s_nationkey"], None).join(
        dag.read_broadcast(b_all_nation),
        &[("s_nationkey", "n_nationkey")],
        Inner,
    );
    let sc = supp.cols();
    let supp = supp.project(vec![
        ("s_suppkey", sc.c("s_suppkey")),
        ("supp_nation", sc.c("n_name")),
    ]);
    let b_supp = dag.stage_broadcast(supp.tasks(1));

    let cust = Node::scan("customer", &["c_custkey", "c_nationkey"], None).join(
        dag.read_broadcast(b_am_nation),
        &[("c_nationkey", "n_nationkey")],
        Semi,
    );
    let s_cust = dag.stage_hash(cust.tasks(par.mid), &["c_custkey"], par.join);
    let o = t("orders");
    let orders = Node::scan(
        "orders",
        &["o_orderkey", "o_custkey", "o_orderdate"],
        Some(
            o.c("o_orderdate")
                .gt_eq(litd("1995-01-01"))
                .and(o.c("o_orderdate").lt_eq(litd("1996-12-31"))),
        ),
    );
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_custkey"], par.join);
    let oc = dag
        .read(s_orders)
        .join(dag.read(s_cust), &[("o_custkey", "c_custkey")], Semi);
    let s_oc = dag.stage_hash(oc, &["o_orderkey"], par.join);

    let line = Node::scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
        ],
        None,
    )
    .join(
        dag.read_broadcast(b_part),
        &[("l_partkey", "p_partkey")],
        Semi,
    )
    .join(
        dag.read_broadcast(b_supp),
        &[("l_suppkey", "s_suppkey")],
        Inner,
    );
    let s_li = dag.stage_hash(line.tasks(par.fact), &["l_orderkey"], par.join);

    let joined = dag
        .read(s_li)
        .join(dag.read(s_oc), &[("l_orderkey", "o_orderkey")], Inner);
    let jc = joined.cols();
    let volume = jc
        .c("l_extendedprice")
        .mul(lit(1.0).sub(jc.c("l_discount")));
    let brazil = case_when(
        jc.c("supp_nation").eq(lits("BRAZIL")),
        volume.clone(),
        lit(0.0),
    );
    let fin = dag.two_phase_aggregate(
        joined,
        vec![("o_year", Expr::ExtractYear(Box::new(jc.c("o_orderdate"))))],
        vec![
            ("brazil_volume", Sum, brazil),
            ("total_volume", Sum, volume),
        ],
        1,
    );
    let fc = fin.cols();
    let fin = fin
        .project(vec![
            ("o_year", fc.c("o_year")),
            ("mkt_share", fc.c("brazil_volume").div(fc.c("total_volume"))),
        ])
        .sort(vec![SortKey::asc(Expr::Col(0))], None);
    dag.finish(fin)
}

/// Q9 — product type profit for green parts; lineitem ⋈ partsupp
/// partitioned on (partkey, suppkey).
pub fn q09(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q09");
    let part = Node::scan(
        "part",
        &["p_partkey"],
        Some(like(
            t("part").c("p_name"),
            LikePattern::Contains("green".into()),
        )),
    );
    let b_part = dag.stage_broadcast(part.tasks(1));
    let nation = Node::scan("nation", &["n_nationkey", "n_name"], None);
    let b_nation = dag.stage_broadcast(nation.tasks(1));
    let supp = Node::scan("supplier", &["s_suppkey", "s_nationkey"], None).join(
        dag.read_broadcast(b_nation),
        &[("s_nationkey", "n_nationkey")],
        Inner,
    );
    let sc = supp.cols();
    let supp = supp.project(vec![
        ("s_suppkey", sc.c("s_suppkey")),
        ("nation", sc.c("n_name")),
    ]);
    let b_supp = dag.stage_broadcast(supp.tasks(1));

    let line = Node::scan(
        "lineitem",
        &[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
        None,
    )
    .join(
        dag.read_broadcast(b_part),
        &[("l_partkey", "p_partkey")],
        Semi,
    );
    let s_li = dag.stage_hash(line.tasks(par.fact), &["l_partkey", "l_suppkey"], par.join);
    let ps = Node::scan(
        "partsupp",
        &["ps_partkey", "ps_suppkey", "ps_supplycost"],
        None,
    )
    .join(
        dag.read_broadcast(b_part),
        &[("ps_partkey", "p_partkey")],
        Semi,
    );
    let s_ps = dag.stage_hash(ps.tasks(par.mid), &["ps_partkey", "ps_suppkey"], par.join);

    let li_ps = dag.read(s_li).join(
        dag.read(s_ps),
        &[("l_partkey", "ps_partkey"), ("l_suppkey", "ps_suppkey")],
        Inner,
    );
    let s_lips = dag.stage_hash(li_ps, &["l_orderkey"], par.join);
    let orders = Node::scan("orders", &["o_orderkey", "o_orderdate"], None);
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_orderkey"], par.join);

    let joined = dag
        .read(s_lips)
        .join(dag.read(s_orders), &[("l_orderkey", "o_orderkey")], Inner)
        .join(
            dag.read_broadcast(b_supp),
            &[("l_suppkey", "s_suppkey")],
            Inner,
        );
    let jc = joined.cols();
    let amount = jc
        .c("l_extendedprice")
        .mul(lit(1.0).sub(jc.c("l_discount")))
        .sub(jc.c("ps_supplycost").mul(jc.c("l_quantity")));
    let fin = dag
        .two_phase_aggregate(
            joined,
            vec![
                ("nation", jc.c("nation")),
                ("o_year", Expr::ExtractYear(Box::new(jc.c("o_orderdate")))),
            ],
            vec![("sum_profit", Sum, amount)],
            1,
        )
        .sort(
            vec![SortKey::asc(Expr::Col(0)), SortKey::desc(Expr::Col(1))],
            None,
        );
    dag.finish(fin)
}

/// Q10 — returned-item reporting, top 20 customers by lost revenue.
pub fn q10(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q10");
    let nation = Node::scan("nation", &["n_nationkey", "n_name"], None);
    let b_nation = dag.stage_broadcast(nation.tasks(1));
    let o = t("orders");
    let orders = Node::scan(
        "orders",
        &["o_orderkey", "o_custkey"],
        Some(
            o.c("o_orderdate")
                .gt_eq(litd("1993-10-01"))
                .and(o.c("o_orderdate").lt(litd("1994-01-01"))),
        ),
    );
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_orderkey"], par.join);
    let line = Node::scan(
        "lineitem",
        &["l_orderkey", "l_extendedprice", "l_discount"],
        Some(t("lineitem").c("l_returnflag").eq(lits("R"))),
    );
    let s_li = dag.stage_hash(line.tasks(par.fact), &["l_orderkey"], par.join);
    let li_o = dag
        .read(s_li)
        .join(dag.read(s_orders), &[("l_orderkey", "o_orderkey")], Inner);
    let lc = li_o.cols();
    let rev = lc
        .c("l_extendedprice")
        .mul(lit(1.0).sub(lc.c("l_discount")));
    let partial = li_o.aggregate(
        vec![("o_custkey", lc.c("o_custkey"))],
        vec![("revenue", Sum, rev)],
    );
    let s_rev = dag.stage_hash(partial, &["o_custkey"], par.join);

    let cust = Node::scan(
        "customer",
        &[
            "c_custkey",
            "c_name",
            "c_acctbal",
            "c_phone",
            "c_nationkey",
            "c_address",
            "c_comment",
        ],
        None,
    )
    .join(
        dag.read_broadcast(b_nation),
        &[("c_nationkey", "n_nationkey")],
        Inner,
    );
    let s_cust = dag.stage_hash(cust.tasks(par.mid), &["c_custkey"], par.join);

    let joined = dag
        .read(s_rev)
        .join(dag.read(s_cust), &[("o_custkey", "c_custkey")], Inner);
    let jc = joined.cols();
    let agg = joined.aggregate(
        vec![
            ("c_custkey", jc.c("c_custkey")),
            ("c_name", jc.c("c_name")),
            ("c_acctbal", jc.c("c_acctbal")),
            ("c_phone", jc.c("c_phone")),
            ("n_name", jc.c("n_name")),
            ("c_address", jc.c("c_address")),
            ("c_comment", jc.c("c_comment")),
        ],
        vec![("revenue", Sum, jc.c("revenue"))],
    );
    let ac = agg.cols();
    let top = agg.sort(vec![SortKey::desc(ac.c("revenue"))], Some(20));
    let s_top = dag.stage_hash(top, &[], 1);
    let fin = dag.read(s_top);
    let fc = fin.cols();
    let fin = fin.sort(vec![SortKey::desc(fc.c("revenue"))], Some(20));
    dag.finish(fin)
}

/// Q11 — important stock identification in GERMANY, with the
/// constant-key-join rewrite for the global-total HAVING threshold.
pub fn q11(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q11");
    let nation = Node::scan(
        "nation",
        &["n_nationkey"],
        Some(t("nation").c("n_name").eq(lits("GERMANY"))),
    );
    let b_nation = dag.stage_broadcast(nation.tasks(1));
    let supp = Node::scan("supplier", &["s_suppkey", "s_nationkey"], None).join(
        dag.read_broadcast(b_nation),
        &[("s_nationkey", "n_nationkey")],
        Semi,
    );
    let b_supp = dag.stage_broadcast(supp.tasks(1));
    let ps = Node::scan(
        "partsupp",
        &["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"],
        None,
    )
    .join(
        dag.read_broadcast(b_supp),
        &[("ps_suppkey", "s_suppkey")],
        Semi,
    );
    let pc = ps.cols();
    let value = pc.c("ps_supplycost").mul(pc.c("ps_availqty"));
    let per_part = dag.two_phase_aggregate(
        ps.tasks(par.mid),
        vec![("ps_partkey", pc.c("ps_partkey"))],
        vec![("value", Sum, value)],
        par.join,
    );
    let s_parts = dag.stage_hash(per_part, &[], 1);
    // Final: compute the global total and join it back on a constant key.
    let rows = dag.read(s_parts);
    let total = dag.read(s_parts);
    let tc = total.cols();
    let total = total.aggregate(vec![], vec![("total", Sum, tc.c("value"))]);
    let rows_k = {
        let rc = rows.cols();
        rows.project(vec![
            ("ps_partkey", rc.c("ps_partkey")),
            ("value", rc.c("value")),
            ("k", liti(1)),
        ])
    };
    let total_k = {
        let tc = total.cols();
        total.project(vec![("total", tc.c("total")), ("k2", liti(1))])
    };
    let joined = rows_k.join(total_k, &[("k", "k2")], Inner);
    let jc = joined.cols();
    let fin = joined
        .filter(jc.c("value").gt(jc.c("total").mul(lit(0.0001))))
        .project(vec![
            ("ps_partkey", jc.c("ps_partkey")),
            ("value", jc.c("value")),
        ]);
    let fc = fin.cols();
    let fin = fin.sort(vec![SortKey::desc(fc.c("value"))], None);
    dag.finish(fin)
}
