//! TPC-H queries 1–6 as physical stage DAGs.
//!
//! All joins are broadcast or partitioned hash joins (§7.1.4). Scan stages
//! take their task counts, and exchanges their partition counts, from
//! [`Par`], hand-tuned per stage size exactly as the paper tunes its
//! plans; every other stage runs one task per partition of the hash
//! exchange it reads.

use super::builder::*;
use cackle_engine::expr::LikePattern;
use cackle_engine::ops::aggregate::AggFunc::*;
use cackle_engine::ops::join::JoinType::*;
use cackle_engine::ops::sort::SortKey;
use cackle_engine::plan::StageDag;

/// Q1 — pricing summary report. Scan+partial aggregate, exchange on the
/// (returnflag, linestatus) group key, final aggregate, sort.
pub fn q01(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q01");
    let li = t("lineitem");
    let scan = Node::scan(
        "lineitem",
        &[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
        ],
        Some(li.c("l_shipdate").lt_eq(litd("1998-09-02"))),
    );
    let c = scan.cols();
    let disc_price = c.c("l_extendedprice").mul(lit(1.0).sub(c.c("l_discount")));
    let charge = disc_price.clone().mul(lit(1.0).add(c.c("l_tax")));
    let fin = dag.two_phase_aggregate(
        scan.tasks(par.fact),
        vec![
            ("l_returnflag", c.c("l_returnflag")),
            ("l_linestatus", c.c("l_linestatus")),
        ],
        vec![
            ("sum_qty", Sum, c.c("l_quantity")),
            ("sum_base_price", Sum, c.c("l_extendedprice")),
            ("sum_disc_price", Sum, disc_price),
            ("sum_charge", Sum, charge),
            ("sum_disc", Sum, c.c("l_discount")),
            ("count_order", CountStar, liti(1)),
        ],
        1,
    );
    let fc = fin.cols();
    let cnt = fc.c("count_order");
    let report = fin
        .project(vec![
            ("l_returnflag", fc.c("l_returnflag")),
            ("l_linestatus", fc.c("l_linestatus")),
            ("sum_qty", fc.c("sum_qty")),
            ("sum_base_price", fc.c("sum_base_price")),
            ("sum_disc_price", fc.c("sum_disc_price")),
            ("sum_charge", fc.c("sum_charge")),
            ("avg_qty", fc.c("sum_qty").div(cnt.clone())),
            ("avg_price", fc.c("sum_base_price").div(cnt.clone())),
            ("avg_disc", fc.c("sum_disc").div(cnt.clone())),
            ("count_order", cnt),
        ])
        .sort(
            vec![
                SortKey::asc(cackle_engine::expr::Expr::Col(0)),
                SortKey::asc(cackle_engine::expr::Expr::Col(1)),
            ],
            None,
        );
    dag.finish(report)
}

/// Q2 — minimum-cost supplier. Dimension chain broadcast, partsupp joined
/// and exchanged on part key, min-cost computed and re-joined per
/// partition, top-100 gather.
pub fn q02(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q02");
    // Broadcast chain: region(EUROPE) -> nation -> supplier.
    let region = Node::scan(
        "region",
        &["r_regionkey"],
        Some(t("region").c("r_name").eq(lits("EUROPE"))),
    );
    let b_region = dag.stage_broadcast(region.tasks(1));
    let nation = Node::scan("nation", &["n_nationkey", "n_name", "n_regionkey"], None).join(
        dag.read_broadcast(b_region),
        &[("n_regionkey", "r_regionkey")],
        Semi,
    );
    let b_nation = dag.stage_broadcast(nation.tasks(1));
    let supplier = Node::scan(
        "supplier",
        &[
            "s_suppkey",
            "s_name",
            "s_address",
            "s_nationkey",
            "s_phone",
            "s_acctbal",
            "s_comment",
        ],
        None,
    )
    .join(
        dag.read_broadcast(b_nation),
        &[("s_nationkey", "n_nationkey")],
        Inner,
    );
    let b_supp = dag.stage_broadcast(supplier.tasks(1));
    // Filtered part, broadcast (small after the size/type filter).
    let pt = t("part");
    let part = Node::scan(
        "part",
        &["p_partkey", "p_mfgr"],
        Some(
            pt.c("p_size")
                .eq(liti(15))
                .and(like(pt.c("p_type"), LikePattern::Suffix("BRASS".into()))),
        ),
    );
    let b_part = dag.stage_broadcast(part.tasks(1));
    // Fact side: partsupp joined to part + qualified suppliers.
    let ps = Node::scan(
        "partsupp",
        &["ps_partkey", "ps_suppkey", "ps_supplycost"],
        None,
    )
    .join(
        dag.read_broadcast(b_part),
        &[("ps_partkey", "p_partkey")],
        Inner,
    )
    .join(
        dag.read_broadcast(b_supp),
        &[("ps_suppkey", "s_suppkey")],
        Inner,
    );
    let s_fact = dag.stage_hash(ps.tasks(par.mid), &["ps_partkey"], par.join);
    // Per-part minimum cost, joined back within the partition.
    let rows = dag.read(s_fact);
    let mins = dag.read(s_fact).aggregate(
        vec![("mk", dag.read(s_fact).c("ps_partkey"))],
        vec![("min_cost", Min, dag.read(s_fact).c("ps_supplycost"))],
    );
    let joined = rows.join(mins, &[("ps_partkey", "mk")], Inner);
    let jc = joined.cols();
    let joined = joined.filter(jc.c("ps_supplycost").eq(jc.c("min_cost")));
    let out = joined.project(vec![
        ("s_acctbal", jc.c("s_acctbal")),
        ("s_name", jc.c("s_name")),
        ("n_name", jc.c("n_name")),
        ("p_partkey", jc.c("ps_partkey")),
        ("p_mfgr", jc.c("p_mfgr")),
        ("s_address", jc.c("s_address")),
        ("s_phone", jc.c("s_phone")),
        ("s_comment", jc.c("s_comment")),
    ]);
    let oc = out.cols();
    let top = out.sort(
        vec![
            SortKey::desc(oc.c("s_acctbal")),
            SortKey::asc(oc.c("n_name")),
            SortKey::asc(oc.c("s_name")),
            SortKey::asc(oc.c("p_partkey")),
        ],
        Some(100),
    );
    let s_top = dag.stage_hash(top, &[], 1);
    let fin = dag.read(s_top);
    let fc = fin.cols();
    let fin = fin.sort(
        vec![
            SortKey::desc(fc.c("s_acctbal")),
            SortKey::asc(fc.c("n_name")),
            SortKey::asc(fc.c("s_name")),
            SortKey::asc(fc.c("p_partkey")),
        ],
        Some(100),
    );
    dag.finish(fin)
}

/// Q3 — shipping priority: BUILDING customers broadcast, orders and
/// lineitem co-partitioned on order key, per-partition top-10, final merge.
pub fn q03(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q03");
    let cust = Node::scan(
        "customer",
        &["c_custkey"],
        Some(t("customer").c("c_mktsegment").eq(lits("BUILDING"))),
    );
    let b_cust = dag.stage_broadcast(cust.tasks(par.mid.min(4)));
    let orders = Node::scan(
        "orders",
        &["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
        Some(t("orders").c("o_orderdate").lt(litd("1995-03-15"))),
    )
    .join(
        dag.read_broadcast(b_cust),
        &[("o_custkey", "c_custkey")],
        Semi,
    );
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_orderkey"], par.join);
    let li = Node::scan(
        "lineitem",
        &["l_orderkey", "l_extendedprice", "l_discount"],
        Some(t("lineitem").c("l_shipdate").gt(litd("1995-03-15"))),
    );
    let s_li = dag.stage_hash(li.tasks(par.fact), &["l_orderkey"], par.join);
    let joined = dag
        .read(s_li)
        .join(dag.read(s_orders), &[("l_orderkey", "o_orderkey")], Inner);
    let jc = joined.cols();
    let rev = jc
        .c("l_extendedprice")
        .mul(lit(1.0).sub(jc.c("l_discount")));
    let agg = joined.aggregate(
        vec![
            ("l_orderkey", jc.c("l_orderkey")),
            ("o_orderdate", jc.c("o_orderdate")),
            ("o_shippriority", jc.c("o_shippriority")),
        ],
        vec![("revenue", Sum, rev)],
    );
    let ac = agg.cols();
    let top = agg.sort(
        vec![
            SortKey::desc(ac.c("revenue")),
            SortKey::asc(ac.c("o_orderdate")),
        ],
        Some(10),
    );
    let s_top = dag.stage_hash(top, &[], 1);
    let fin = dag.read(s_top);
    let fc = fin.cols();
    let fin = fin.sort(
        vec![
            SortKey::desc(fc.c("revenue")),
            SortKey::asc(fc.c("o_orderdate")),
        ],
        Some(10),
    );
    dag.finish(fin)
}

/// Q4 — order priority checking: late lineitems and a quarter of orders
/// co-partitioned on order key, semi join, count by priority.
pub fn q04(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q04");
    let li = t("lineitem");
    let late = Node::scan(
        "lineitem",
        &["l_orderkey"],
        Some(li.c("l_commitdate").lt(li.c("l_receiptdate"))),
    );
    let s_late = dag.stage_hash(late.tasks(par.fact), &["l_orderkey"], par.join);
    let o = t("orders");
    let orders = Node::scan(
        "orders",
        &["o_orderkey", "o_orderpriority"],
        Some(
            o.c("o_orderdate")
                .gt_eq(litd("1993-07-01"))
                .and(o.c("o_orderdate").lt(litd("1993-10-01"))),
        ),
    );
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_orderkey"], par.join);
    let joined = dag
        .read(s_orders)
        .join(dag.read(s_late), &[("o_orderkey", "l_orderkey")], Semi);
    let jc = joined.cols();
    let fin = dag
        .two_phase_aggregate(
            joined,
            vec![("o_orderpriority", jc.c("o_orderpriority"))],
            vec![("order_count", CountStar, liti(1))],
            1,
        )
        .sort(vec![SortKey::asc(cackle_engine::expr::Expr::Col(0))], None);
    dag.finish(fin)
}

/// Q5 — local supplier volume in ASIA: nation chain broadcast, customer and
/// orders partitioned on customer key, then lineitem on order key, supplier
/// broadcast with the local (c_nationkey = s_nationkey) constraint.
pub fn q05(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q05");
    let region = Node::scan(
        "region",
        &["r_regionkey"],
        Some(t("region").c("r_name").eq(lits("ASIA"))),
    );
    let b_region = dag.stage_broadcast(region.tasks(1));
    let nation = Node::scan("nation", &["n_nationkey", "n_name", "n_regionkey"], None).join(
        dag.read_broadcast(b_region),
        &[("n_regionkey", "r_regionkey")],
        Semi,
    );
    let b_nation = dag.stage_broadcast(nation.tasks(1));
    let supplier = Node::scan("supplier", &["s_suppkey", "s_nationkey"], None);
    let b_supp = dag.stage_broadcast(supplier.tasks(par.mid.min(4)));

    let o = t("orders");
    let orders = Node::scan(
        "orders",
        &["o_orderkey", "o_custkey"],
        Some(
            o.c("o_orderdate")
                .gt_eq(litd("1994-01-01"))
                .and(o.c("o_orderdate").lt(litd("1995-01-01"))),
        ),
    );
    let s_orders = dag.stage_hash(orders.tasks(par.mid), &["o_custkey"], par.join);
    let cust = Node::scan("customer", &["c_custkey", "c_nationkey"], None).join(
        dag.read_broadcast(b_nation),
        &[("c_nationkey", "n_nationkey")],
        Inner,
    );
    let s_cust = dag.stage_hash(cust.tasks(par.mid), &["c_custkey"], par.join);
    let o_with_c = dag
        .read(s_orders)
        .join(dag.read(s_cust), &[("o_custkey", "c_custkey")], Inner);
    let s_oc = dag.stage_hash(o_with_c, &["o_orderkey"], par.join);

    let li = Node::scan(
        "lineitem",
        &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
        None,
    );
    let s_li = dag.stage_hash(li.tasks(par.fact), &["l_orderkey"], par.join);

    let joined = dag
        .read(s_li)
        .join(dag.read(s_oc), &[("l_orderkey", "o_orderkey")], Inner)
        .join(
            dag.read_broadcast(b_supp),
            &[("l_suppkey", "s_suppkey")],
            Inner,
        );
    let jc = joined.cols();
    let local = joined.filter(jc.c("c_nationkey").eq(jc.c("s_nationkey")));
    let lc = local.cols();
    let rev = lc
        .c("l_extendedprice")
        .mul(lit(1.0).sub(lc.c("l_discount")));
    let fin = dag
        .two_phase_aggregate(
            local,
            vec![("n_name", lc.c("n_name"))],
            vec![("revenue", Sum, rev)],
            1,
        )
        .sort(vec![SortKey::desc(cackle_engine::expr::Expr::Col(1))], None);
    dag.finish(fin)
}

/// Q6 — forecasting revenue change: a single filtered scan with a global
/// two-phase sum.
pub fn q06(par: Par) -> StageDag {
    let mut dag = DagBuilder::new("q06");
    let li = t("lineitem");
    let filter = li
        .c("l_shipdate")
        .gt_eq(litd("1994-01-01"))
        .and(li.c("l_shipdate").lt(litd("1995-01-01")))
        .and(li.c("l_discount").gt_eq(lit(0.05)))
        .and(li.c("l_discount").lt_eq(lit(0.07)))
        .and(li.c("l_quantity").lt(lit(24.0)));
    let scan = Node::scan("lineitem", &["l_extendedprice", "l_discount"], Some(filter));
    let c = scan.cols();
    let fin = dag.two_phase_aggregate(
        scan.tasks(par.fact),
        vec![],
        vec![(
            "revenue",
            Sum,
            c.c("l_extendedprice").mul(c.c("l_discount")),
        )],
        1,
    );
    dag.finish(fin)
}
