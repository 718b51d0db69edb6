//! Randomized tests on the data generator: referential integrity and
//! spec invariants must hold at any scale factor and seed. Cases come
//! from the in-repo deterministic PRNG so failures reproduce exactly.

use cackle_prng::{Pcg32, Seed};
use cackle_tpch::dbgen::{gen_orders_lineitem, gen_partsupp, DbGenConfig};
use std::collections::{BTreeMap, BTreeSet};

/// Lineitem foreign keys always land inside the generated key spaces,
/// dates always satisfy ship < receipt, and o_custkey is never
/// divisible by three (the spec rule Q13/Q22 depend on).
#[test]
fn generator_invariants() {
    let mut rng = Pcg32::new(Seed::root(0x7DC4_01));
    for _ in 0..12 {
        let sf = rng.gen_range(0.0005f64..0.004);
        let seed = rng.next_u64();
        let cfg = DbGenConfig {
            scale_factor: sf,
            rows_per_partition: 512,
            seed,
        };
        let counts = cfg.row_counts();
        let ol = gen_orders_lineitem(&cfg);
        for p in &ol.orders.partitions {
            for &c in p.column_by_name("o_custkey").i64s() {
                assert!(c >= 1 && c <= counts.customer as i64);
                assert!(c % 3 != 0, "o_custkey divisible by 3");
            }
        }
        for p in &ol.lineitem.partitions {
            let pk = p.column_by_name("l_partkey").i64s();
            let sk = p.column_by_name("l_suppkey").i64s();
            let ship = p.column_by_name("l_shipdate").dates();
            let receipt = p.column_by_name("l_receiptdate").dates();
            let disc = p.column_by_name("l_discount").f64s();
            for i in 0..p.num_rows() {
                assert!(pk[i] >= 1 && pk[i] <= counts.part as i64);
                assert!(sk[i] >= 1 && sk[i] <= counts.supplier as i64);
                assert!(ship[i] < receipt[i]);
                assert!((0.0..=0.10001).contains(&disc[i]));
            }
        }
        // Orderkeys dense 1..=n and unique.
        let mut seen = BTreeSet::new();
        for p in &ol.orders.partitions {
            for &k in p.column_by_name("o_orderkey").i64s() {
                assert!(seen.insert(k), "duplicate orderkey {k}");
            }
        }
        assert_eq!(seen.len(), counts.orders);
    }
}

/// Partsupp has exactly four distinct suppliers per part.
#[test]
fn four_suppliers_per_part() {
    let mut rng = Pcg32::new(Seed::root(0x7DC4_02));
    for _ in 0..12 {
        let seed = rng.next_u64();
        let cfg = DbGenConfig {
            scale_factor: 0.002,
            rows_per_partition: 512,
            seed,
        };
        let ps = gen_partsupp(&cfg);
        let mut per_part: BTreeMap<i64, BTreeSet<i64>> = BTreeMap::new();
        for p in &ps.partitions {
            let pk = p.column_by_name("ps_partkey").i64s();
            let sk = p.column_by_name("ps_suppkey").i64s();
            for i in 0..p.num_rows() {
                per_part.entry(pk[i]).or_default().insert(sk[i]);
            }
        }
        assert_eq!(per_part.len(), cfg.row_counts().part);
        // The spec assignment yields up to 4 distinct suppliers; at tiny
        // supplier counts collisions are possible but rows are always 4.
        let rows: usize = ps.partitions.iter().map(|p| p.num_rows()).sum();
        assert_eq!(rows, cfg.row_counts().part * 4);
    }
}

/// Per table: partition count and FNV-1a over every partition's encoded
/// bytes (each partition's length, then its bytes). Recorded while string
/// columns were a `Vec<String>` built whole and then chunked; generation
/// straight into per-partition columns, list-picked ones coded against a
/// shared dictionary, must reproduce every byte and
/// every partition boundary — the second config's `customer`, `part`,
/// `partsupp` and `orders` end exactly on one, where no empty tail may
/// appear.
#[test]
fn generated_bytes_are_pinned() {
    use cackle_engine::codec::encode_batch;
    use cackle_engine::rowkey::fnv1a;
    use cackle_tpch::dbgen::generate_catalog;
    use cackle_tpch::schema::TABLE_NAMES;

    /// `(rows_per_partition, seed, (partitions, hash) per table)`.
    type Pin = (usize, u64, [(usize, u64); 8]);
    const PINNED: [Pin; 2] = [
        (
            512,
            7,
            [
                (1, 0x34f35d6654b8889c),
                (1, 0xa242d8e60889c206),
                (1, 0x64ad5ed41699cd2e),
                (1, 0x6046d3a8894721ea),
                (1, 0x482abd2f67856045),
                (4, 0xd716a751bbd8399c),
                (6, 0x33edde844936285b),
                (24, 0xc1ad192e8b6d98f4),
            ],
        ),
        (
            100,
            12,
            [
                (1, 0xe4e31dc1ad26d593),
                (1, 0xa1b0c67ba21d5610),
                (1, 0xb23e4b870eb7ca62),
                (3, 0x896985ec0b132043),
                (4, 0x3a13dfa46383ff35),
                (16, 0x8970225f37580fe1),
                (30, 0xfabc2da79be221e3),
                (122, 0xffb49f6019f4af81),
            ],
        ),
    ];
    let mut got = PINNED;
    for (rows_per_partition, seed, tables) in &mut got {
        let catalog = generate_catalog(&DbGenConfig {
            scale_factor: 0.002,
            rows_per_partition: *rows_per_partition,
            seed: *seed,
        });
        for (slot, name) in tables.iter_mut().zip(TABLE_NAMES) {
            let table = catalog.get(name);
            let mut bytes = Vec::new();
            for p in &table.partitions {
                let encoded = encode_batch(p);
                bytes.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
                bytes.extend_from_slice(&encoded);
            }
            *slot = (table.partitions.len(), fnv1a(&bytes));
        }
    }
    assert_eq!(got, PINNED, "recomputed table:\n{got:#x?}");
}

/// A column picked from a fixed list is coded against one dictionary of
/// the list, which every partition shares; composed text is coded
/// against each partition's own rows.
#[test]
fn list_picked_columns_share_one_dictionary() {
    use cackle_tpch::dbgen::{generate_catalog, NATIONS};
    use std::sync::Arc;

    let catalog = generate_catalog(&DbGenConfig {
        scale_factor: 0.002,
        rows_per_partition: 100,
        seed: 12,
    });
    let lists: [(&str, &str, &[&str]); 9] = [
        ("lineitem", "l_returnflag", &["R", "A", "N"]),
        ("lineitem", "l_linestatus", &["F", "O"]),
        (
            "lineitem",
            "l_shipinstruct",
            &[
                "DELIVER IN PERSON",
                "COLLECT COD",
                "NONE",
                "TAKE BACK RETURN",
            ],
        ),
        (
            "lineitem",
            "l_shipmode",
            &["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"],
        ),
        ("orders", "o_orderstatus", &["F", "O", "P"]),
        (
            "orders",
            "o_orderpriority",
            &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"],
        ),
        (
            "customer",
            "c_mktsegment",
            &[
                "AUTOMOBILE",
                "BUILDING",
                "FURNITURE",
                "MACHINERY",
                "HOUSEHOLD",
            ],
        ),
        (
            "region",
            "r_name",
            &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"],
        ),
        ("nation", "n_name", &NATIONS.map(|(name, _)| name)),
    ];
    for (table, column, list) in lists {
        let partitions = &catalog.get(table).partitions;
        let first = partitions[0].column_by_name(column).strs().dict().clone();
        assert_eq!(first.iter().collect::<Vec<_>>(), list, "{column}");
        for p in partitions {
            assert!(
                Arc::ptr_eq(p.column_by_name(column).strs().dict(), &first),
                "{table}.{column}: a partition with a dictionary of its own"
            );
        }
    }
    assert_eq!(catalog.get("lineitem").partitions.len(), 122);
    for p in &catalog.get("lineitem").partitions {
        let comment = p.column_by_name("l_comment").strs();
        assert_eq!(comment.dict().len(), p.num_rows());
        assert!(comment.codes().iter().copied().eq(0..p.num_rows() as u32));
    }
}
