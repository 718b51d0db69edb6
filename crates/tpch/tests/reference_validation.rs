//! Independent reference validation: each query here is recomputed with
//! straightforward scalar code over the raw generated tables and compared
//! against the distributed engine's result — row for row.

use cackle_engine::prelude::*;
use cackle_tpch::dbgen::{generate_catalog, DbGenConfig};
use cackle_tpch::plans::{self, Par};
use std::collections::{BTreeMap, HashMap, HashSet};
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

fn run(name: &str) -> Batch {
    let dag = plans::plan(
        name,
        Par {
            fact: 4,
            mid: 2,
            join: 3,
        },
    );
    Executor::new(1).execute_query(&dag, 42, catalog(), &MemoryShuffle::new())
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * b.abs().max(1.0)
}

/// Iterate rows of every partition of a table as column-value getters.
fn for_each_row(table: &str, mut f: impl FnMut(&Batch, usize)) {
    for p in &catalog().get(table).partitions {
        for i in 0..p.num_rows() {
            f(p, i);
        }
    }
}

#[test]
fn q04_order_priority() {
    // Reference: orders in Q3 1993 with at least one late lineitem,
    // counted by priority.
    let mut late_orders: HashSet<i64> = HashSet::new();
    for_each_row("lineitem", |b, i| {
        if b.column_by_name("l_commitdate").dates()[i]
            < b.column_by_name("l_receiptdate").dates()[i]
        {
            late_orders.insert(b.column_by_name("l_orderkey").i64s()[i]);
        }
    });
    let lo = date::parse("1993-07-01");
    let hi = date::parse("1993-10-01");
    let mut expect: BTreeMap<String, i64> = BTreeMap::new();
    for_each_row("orders", |b, i| {
        let d = b.column_by_name("o_orderdate").dates()[i];
        if d >= lo && d < hi && late_orders.contains(&b.column_by_name("o_orderkey").i64s()[i]) {
            *expect
                .entry(b.column_by_name("o_orderpriority").strs()[i].to_string())
                .or_default() += 1;
        }
    });
    let result = run("q04");
    assert_eq!(result.num_rows(), expect.len());
    for (row, (prio, count)) in expect.iter().enumerate() {
        assert_eq!(&result.columns[0].strs()[row], prio);
        assert_eq!(result.columns[1].i64s()[row], *count, "priority {prio}");
    }
}

#[test]
fn q12_shipping_modes() {
    let lo = date::parse("1994-01-01");
    let hi = date::parse("1995-01-01");
    let mut order_prio: HashMap<i64, String> = HashMap::new();
    for_each_row("orders", |b, i| {
        order_prio.insert(
            b.column_by_name("o_orderkey").i64s()[i],
            b.column_by_name("o_orderpriority").strs()[i].to_string(),
        );
    });
    let mut expect: BTreeMap<String, (i64, i64)> = BTreeMap::new();
    for_each_row("lineitem", |b, i| {
        let mode = &b.column_by_name("l_shipmode").strs()[i];
        if mode != "MAIL" && mode != "SHIP" {
            return;
        }
        let commit = b.column_by_name("l_commitdate").dates()[i];
        let receipt = b.column_by_name("l_receiptdate").dates()[i];
        let ship = b.column_by_name("l_shipdate").dates()[i];
        if !(commit < receipt && ship < commit && receipt >= lo && receipt < hi) {
            return;
        }
        let prio = &order_prio[&b.column_by_name("l_orderkey").i64s()[i]];
        let e = expect.entry(mode.to_string()).or_default();
        if prio == "1-URGENT" || prio == "2-HIGH" {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    });
    let result = run("q12");
    assert_eq!(result.num_rows(), expect.len());
    for (row, (mode, (high, low))) in expect.iter().enumerate() {
        assert_eq!(&result.columns[0].strs()[row], mode);
        assert_eq!(result.columns[1].i64s()[row], *high, "{mode} high");
        assert_eq!(result.columns[2].i64s()[row], *low, "{mode} low");
    }
}

#[test]
fn q14_promo_revenue() {
    let mut part_type: HashMap<i64, String> = HashMap::new();
    for_each_row("part", |b, i| {
        part_type.insert(
            b.column_by_name("p_partkey").i64s()[i],
            b.column_by_name("p_type").strs()[i].to_string(),
        );
    });
    let lo = date::parse("1995-09-01");
    let hi = date::parse("1995-10-01");
    let mut promo = 0.0;
    let mut total = 0.0;
    for_each_row("lineitem", |b, i| {
        let ship = b.column_by_name("l_shipdate").dates()[i];
        if ship < lo || ship >= hi {
            return;
        }
        let rev = b.column_by_name("l_extendedprice").f64s()[i]
            * (1.0 - b.column_by_name("l_discount").f64s()[i]);
        total += rev;
        if part_type[&b.column_by_name("l_partkey").i64s()[i]].starts_with("PROMO") {
            promo += rev;
        }
    });
    let expect = 100.0 * promo / total;
    let result = run("q14");
    assert_eq!(result.num_rows(), 1);
    let got = result.columns[0].f64s()[0];
    assert!(close(got, expect), "{got} vs {expect}");
    assert!(got > 0.0 && got < 100.0);
}

#[test]
fn q18_large_volume_customers() {
    let mut qty_by_order: HashMap<i64, f64> = HashMap::new();
    for_each_row("lineitem", |b, i| {
        *qty_by_order
            .entry(b.column_by_name("l_orderkey").i64s()[i])
            .or_default() += b.column_by_name("l_quantity").f64s()[i];
    });
    let big: HashSet<i64> = qty_by_order
        .iter()
        .filter(|(_, &q)| q > 300.0)
        .map(|(&k, _)| k)
        .collect();
    let mut expect: Vec<(i64, f64)> = Vec::new(); // (orderkey, totalprice)
    for_each_row("orders", |b, i| {
        let k = b.column_by_name("o_orderkey").i64s()[i];
        if big.contains(&k) {
            expect.push((k, b.column_by_name("o_totalprice").f64s()[i]));
        }
    });
    let result = run("q18");
    assert_eq!(result.num_rows(), expect.len().min(100));
    // Every returned order must be in the expected set with matching totals
    // and the correct sum_qty.
    let expect_map: HashMap<i64, f64> = expect.into_iter().collect();
    for row in 0..result.num_rows() {
        let k = result.column_by_name("o_orderkey").i64s()[row];
        assert!(expect_map.contains_key(&k), "unexpected order {k}");
        assert!(close(
            result.column_by_name("o_totalprice").f64s()[row],
            expect_map[&k]
        ));
        assert!(close(
            result.column_by_name("sum_qty").f64s()[row],
            qty_by_order[&k]
        ));
        assert!(qty_by_order[&k] > 300.0);
    }
    // Sorted by totalprice descending.
    let prices = result.column_by_name("o_totalprice").f64s();
    assert!(prices.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn q19_discounted_revenue() {
    let mut part: HashMap<i64, (String, i64, String)> = HashMap::new();
    for_each_row("part", |b, i| {
        part.insert(
            b.column_by_name("p_partkey").i64s()[i],
            (
                b.column_by_name("p_brand").strs()[i].to_string(),
                b.column_by_name("p_size").i64s()[i],
                b.column_by_name("p_container").strs()[i].to_string(),
            ),
        );
    });
    let mut expect = 0.0;
    for_each_row("lineitem", |b, i| {
        let mode = &b.column_by_name("l_shipmode").strs()[i];
        if mode != "AIR" && mode != "REG AIR" {
            return;
        }
        if &b.column_by_name("l_shipinstruct").strs()[i] != "DELIVER IN PERSON" {
            return;
        }
        let (brand, size, container) = &part[&b.column_by_name("l_partkey").i64s()[i]];
        let qty = b.column_by_name("l_quantity").f64s()[i];
        let branch = |bw: &str, conts: [&str; 4], qlo: f64, qhi: f64, smax: i64| {
            brand == bw
                && conts.contains(&container.as_str())
                && (qlo..=qhi).contains(&qty)
                && (1..=smax).contains(size)
        };
        let hit = branch(
            "Brand#12",
            ["SM CASE", "SM BOX", "SM PACK", "SM PKG"],
            1.0,
            11.0,
            5,
        ) || branch(
            "Brand#23",
            ["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
            10.0,
            20.0,
            10,
        ) || branch(
            "Brand#34",
            ["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
            20.0,
            30.0,
            15,
        );
        if hit {
            expect += b.column_by_name("l_extendedprice").f64s()[i]
                * (1.0 - b.column_by_name("l_discount").f64s()[i]);
        }
    });
    let result = run("q19");
    assert_eq!(result.num_rows(), 1);
    let got = match result.columns[0].value(0) {
        Value::F64(v) => v,
        Value::Null => 0.0,
        other => panic!("unexpected {other:?}"),
    };
    assert!(close(got, expect), "{got} vs {expect}");
}

#[test]
fn q22_reference() {
    const CODES: [&str; 7] = ["13", "31", "23", "29", "30", "18", "17"];
    // Average positive balance among country-code customers.
    let mut sum = 0.0;
    let mut n = 0i64;
    for_each_row("customer", |b, i| {
        let phone = &b.column_by_name("c_phone").strs()[i];
        let bal = b.column_by_name("c_acctbal").f64s()[i];
        if CODES.contains(&&phone[..2]) && bal > 0.0 {
            sum += bal;
            n += 1;
        }
    });
    let avg = sum / n as f64;
    let mut has_orders: HashSet<i64> = HashSet::new();
    for_each_row("orders", |b, i| {
        has_orders.insert(b.column_by_name("o_custkey").i64s()[i]);
    });
    let mut expect: BTreeMap<String, (i64, f64)> = BTreeMap::new();
    for_each_row("customer", |b, i| {
        let phone = &b.column_by_name("c_phone").strs()[i];
        let code = &phone[..2];
        let bal = b.column_by_name("c_acctbal").f64s()[i];
        let key = b.column_by_name("c_custkey").i64s()[i];
        if CODES.contains(&code) && bal > avg && !has_orders.contains(&key) {
            let e = expect.entry(code.to_string()).or_default();
            e.0 += 1;
            e.1 += bal;
        }
    });
    let result = run("q22");
    assert_eq!(result.num_rows(), expect.len());
    for (row, (code, (cnt, bal))) in expect.iter().enumerate() {
        assert_eq!(&result.columns[0].strs()[row], code);
        assert_eq!(result.columns[1].i64s()[row], *cnt, "code {code}");
        assert!(close(result.columns[2].f64s()[row], *bal), "code {code}");
    }
}

#[test]
fn q11_reference() {
    // GERMANY suppliers' stock value per part, filtered by the global
    // fraction threshold.
    let mut german_suppliers: HashSet<i64> = HashSet::new();
    for_each_row("nation", |b, i| {
        if &b.column_by_name("n_name").strs()[i] == "GERMANY" {
            let nk = b.column_by_name("n_nationkey").i64s()[i];
            for_each_row("supplier", |sb, si| {
                if sb.column_by_name("s_nationkey").i64s()[si] == nk {
                    german_suppliers.insert(sb.column_by_name("s_suppkey").i64s()[si]);
                }
            });
        }
    });
    let mut per_part: HashMap<i64, f64> = HashMap::new();
    let mut total = 0.0;
    for_each_row("partsupp", |b, i| {
        if german_suppliers.contains(&b.column_by_name("ps_suppkey").i64s()[i]) {
            let v = b.column_by_name("ps_supplycost").f64s()[i]
                * b.column_by_name("ps_availqty").i64s()[i] as f64;
            *per_part
                .entry(b.column_by_name("ps_partkey").i64s()[i])
                .or_default() += v;
            total += v;
        }
    });
    let threshold = total * 0.0001;
    let mut expect: Vec<(i64, f64)> = per_part
        .into_iter()
        .filter(|&(_, v)| v > threshold)
        .collect();
    expect.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let result = run("q11");
    assert_eq!(result.num_rows(), expect.len());
    for (row, (key, value)) in expect.iter().enumerate() {
        assert_eq!(result.columns[0].i64s()[row], *key, "row {row}");
        assert!(close(result.columns[1].f64s()[row], *value));
    }
}

#[test]
fn q02_minimum_cost_supplier() {
    // Reference: for size-15 %BRASS parts, the EUROPE supplier rows whose
    // supply cost equals the per-part minimum over EUROPE suppliers.
    let mut europe_nations: HashSet<i64> = HashSet::new();
    for_each_row("region", |b, i| {
        if &b.column_by_name("r_name").strs()[i] == "EUROPE" {
            let rk = b.column_by_name("r_regionkey").i64s()[i];
            for_each_row("nation", |nb, ni| {
                if nb.column_by_name("n_regionkey").i64s()[ni] == rk {
                    europe_nations.insert(nb.column_by_name("n_nationkey").i64s()[ni]);
                }
            });
        }
    });
    let mut europe_suppliers: HashSet<i64> = HashSet::new();
    for_each_row("supplier", |b, i| {
        if europe_nations.contains(&b.column_by_name("s_nationkey").i64s()[i]) {
            europe_suppliers.insert(b.column_by_name("s_suppkey").i64s()[i]);
        }
    });
    let mut wanted_parts: HashSet<i64> = HashSet::new();
    for_each_row("part", |b, i| {
        if b.column_by_name("p_size").i64s()[i] == 15
            && b.column_by_name("p_type").strs()[i].ends_with("BRASS")
        {
            wanted_parts.insert(b.column_by_name("p_partkey").i64s()[i]);
        }
    });
    // Min supply cost per wanted part over EUROPE suppliers, and the
    // (part, supplier) pairs achieving it.
    let mut min_cost: HashMap<i64, f64> = HashMap::new();
    for_each_row("partsupp", |b, i| {
        let pk = b.column_by_name("ps_partkey").i64s()[i];
        let sk = b.column_by_name("ps_suppkey").i64s()[i];
        if wanted_parts.contains(&pk) && europe_suppliers.contains(&sk) {
            let c = b.column_by_name("ps_supplycost").f64s()[i];
            let e = min_cost.entry(pk).or_insert(f64::MAX);
            if c < *e {
                *e = c;
            }
        }
    });
    let mut expect_pairs: HashSet<(i64, i64)> = HashSet::new();
    for_each_row("partsupp", |b, i| {
        let pk = b.column_by_name("ps_partkey").i64s()[i];
        let sk = b.column_by_name("ps_suppkey").i64s()[i];
        if let Some(&m) = min_cost.get(&pk) {
            if europe_suppliers.contains(&sk)
                && (b.column_by_name("ps_supplycost").f64s()[i] - m).abs() < 1e-9
            {
                expect_pairs.insert((pk, sk));
            }
        }
    });
    let result = run("q02");
    assert_eq!(result.num_rows(), expect_pairs.len().min(100));
    // Every returned row is a true minimum pair; sorted by acctbal desc.
    let supp_by_name: HashMap<String, i64> = {
        let mut m = HashMap::new();
        for_each_row("supplier", |b, i| {
            m.insert(
                b.column_by_name("s_name").strs()[i].to_string(),
                b.column_by_name("s_suppkey").i64s()[i],
            );
        });
        m
    };
    for row in 0..result.num_rows() {
        let pk = result.column_by_name("p_partkey").i64s()[row];
        let sk = supp_by_name[&result.column_by_name("s_name").strs()[row]];
        assert!(
            expect_pairs.contains(&(pk, sk)),
            "({pk},{sk}) is not a min pair"
        );
    }
    let bals = result.column_by_name("s_acctbal").f64s();
    assert!(
        bals.windows(2).all(|w| w[0] >= w[1]),
        "sorted by acctbal desc"
    );
}

#[test]
fn q09_product_type_profit() {
    // Reference: green parts, amount = ext*(1-disc) - supplycost*qty,
    // grouped by (supplier nation, order year).
    let mut green: HashSet<i64> = HashSet::new();
    for_each_row("part", |b, i| {
        if b.column_by_name("p_name").strs()[i].contains("green") {
            green.insert(b.column_by_name("p_partkey").i64s()[i]);
        }
    });
    let mut nation_name: HashMap<i64, String> = HashMap::new();
    for_each_row("nation", |b, i| {
        nation_name.insert(
            b.column_by_name("n_nationkey").i64s()[i],
            b.column_by_name("n_name").strs()[i].to_string(),
        );
    });
    let mut supp_nation: HashMap<i64, String> = HashMap::new();
    for_each_row("supplier", |b, i| {
        supp_nation.insert(
            b.column_by_name("s_suppkey").i64s()[i],
            nation_name[&b.column_by_name("s_nationkey").i64s()[i]].clone(),
        );
    });
    let mut supply_cost: HashMap<(i64, i64), f64> = HashMap::new();
    for_each_row("partsupp", |b, i| {
        supply_cost.insert(
            (
                b.column_by_name("ps_partkey").i64s()[i],
                b.column_by_name("ps_suppkey").i64s()[i],
            ),
            b.column_by_name("ps_supplycost").f64s()[i],
        );
    });
    let mut order_year: HashMap<i64, i64> = HashMap::new();
    for_each_row("orders", |b, i| {
        order_year.insert(
            b.column_by_name("o_orderkey").i64s()[i],
            date::year_of(b.column_by_name("o_orderdate").dates()[i]) as i64,
        );
    });
    let mut expect: HashMap<(String, i64), f64> = HashMap::new();
    for_each_row("lineitem", |b, i| {
        let pk = b.column_by_name("l_partkey").i64s()[i];
        if !green.contains(&pk) {
            return;
        }
        let sk = b.column_by_name("l_suppkey").i64s()[i];
        let amount = b.column_by_name("l_extendedprice").f64s()[i]
            * (1.0 - b.column_by_name("l_discount").f64s()[i])
            - supply_cost[&(pk, sk)] * b.column_by_name("l_quantity").f64s()[i];
        let year = order_year[&b.column_by_name("l_orderkey").i64s()[i]];
        *expect.entry((supp_nation[&sk].clone(), year)).or_default() += amount;
    });
    let result = run("q09");
    assert_eq!(result.num_rows(), expect.len());
    for row in 0..result.num_rows() {
        let key = (
            result.columns[0].strs()[row].to_string(),
            result.columns[1].i64s()[row],
        );
        let got = result.columns[2].f64s()[row];
        let want = expect[&key];
        assert!(close(got, want), "{key:?}: {got} vs {want}");
    }
    // Sorted by nation asc, year desc.
    for w in 0..result.num_rows().saturating_sub(1) {
        let (n1, y1) = (&result.columns[0].strs()[w], result.columns[1].i64s()[w]);
        let (n2, y2) = (
            &result.columns[0].strs()[w + 1],
            result.columns[1].i64s()[w + 1],
        );
        assert!(n1 < n2 || (n1 == n2 && y1 >= y2), "sort order at row {w}");
    }
}

#[test]
fn q16_supplier_count_reference() {
    let mut complained: HashSet<i64> = HashSet::new();
    for_each_row("supplier", |b, i| {
        let c = &b.column_by_name("s_comment").strs()[i];
        if let Some(pos) = c.find("Customer") {
            if c[pos..].contains("Complaints") {
                complained.insert(b.column_by_name("s_suppkey").i64s()[i]);
            }
        }
    });
    let mut part_attrs: HashMap<i64, (String, String, i64)> = HashMap::new();
    const SIZES: [i64; 8] = [49, 14, 23, 45, 19, 3, 36, 9];
    for_each_row("part", |b, i| {
        let brand = &b.column_by_name("p_brand").strs()[i];
        let ptype = &b.column_by_name("p_type").strs()[i];
        let size = b.column_by_name("p_size").i64s()[i];
        if brand != "Brand#45" && !ptype.starts_with("MEDIUM POLISHED") && SIZES.contains(&size) {
            part_attrs.insert(
                b.column_by_name("p_partkey").i64s()[i],
                (brand.to_string(), ptype.to_string(), size),
            );
        }
    });
    let mut groups: HashMap<(String, String, i64), HashSet<i64>> = HashMap::new();
    for_each_row("partsupp", |b, i| {
        let pk = b.column_by_name("ps_partkey").i64s()[i];
        let sk = b.column_by_name("ps_suppkey").i64s()[i];
        if complained.contains(&sk) {
            return;
        }
        if let Some(attrs) = part_attrs.get(&pk) {
            groups.entry(attrs.clone()).or_default().insert(sk);
        }
    });
    let result = run("q16");
    assert_eq!(result.num_rows(), groups.len());
    for row in 0..result.num_rows() {
        let key = (
            result.columns[0].strs()[row].to_string(),
            result.columns[1].strs()[row].to_string(),
            result.columns[2].i64s()[row],
        );
        assert_eq!(
            result.columns[3].i64s()[row],
            groups[&key].len() as i64,
            "group {key:?}"
        );
    }
}

#[test]
fn ds81_multifact_reference() {
    // Suppliers whose lineitem revenue exceeds their partsupp supply value.
    let mut sales: HashMap<i64, f64> = HashMap::new();
    for_each_row("lineitem", |b, i| {
        *sales
            .entry(b.column_by_name("l_suppkey").i64s()[i])
            .or_default() += b.column_by_name("l_extendedprice").f64s()[i]
            * (1.0 - b.column_by_name("l_discount").f64s()[i]);
    });
    let mut supply: HashMap<i64, f64> = HashMap::new();
    for_each_row("partsupp", |b, i| {
        *supply
            .entry(b.column_by_name("ps_suppkey").i64s()[i])
            .or_default() += b.column_by_name("ps_supplycost").f64s()[i]
            * b.column_by_name("ps_availqty").i64s()[i] as f64;
    });
    let expect: usize = sales
        .iter()
        .filter(|(k, &s)| s > supply.get(k).copied().unwrap_or(0.0))
        .count();
    let result = run("ds81");
    assert_eq!(result.num_rows(), expect.min(100));
    for row in 0..result.num_rows() {
        let s = result.column_by_name("sales").f64s()[row];
        let v = result.column_by_name("supply_value").f64s()[row];
        assert!(s > v, "row {row}: sales {s} <= supply {v}");
    }
}
