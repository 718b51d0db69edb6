//! Randomized property tests on the engine's core data structures and
//! invariants: codec roundtrips, row-key injectivity, filter/take/sort
//! algebra, and join semantics against a naive reference.
//!
//! Cases are generated from the in-repo deterministic PRNG so every
//! failure is reproducible from the seed constant alone.

use cackle_engine::codec::{decode_batch, encode_batch};
use cackle_engine::ops::join::{hash_join, JoinType};
use cackle_engine::ops::sort::{sort, SortKey};
use cackle_engine::prelude::*;
use cackle_engine::rowkey::encode_row;
use cackle_prng::{Pcg32, Seed};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A random column of the given length with arbitrary type and values,
/// possibly with a validity mask.
fn gen_column(rng: &mut Pcg32, len: usize) -> Column {
    let data = match rng.gen_range(0u32..5) {
        0 => ColumnData::I64((0..len).map(|_| rng.next_u64() as i64).collect()),
        1 => ColumnData::F64((0..len).map(|_| rng.gen_range(-1.0e12..1.0e12)).collect()),
        2 => ColumnData::Str(
            (0..len)
                .map(|_| {
                    let n = rng.gen_range(0usize..13);
                    (0..n)
                        .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
                        .collect::<String>()
                })
                .collect(),
        ),
        3 => ColumnData::Date(
            (0..len)
                .map(|_| rng.gen_range(-30_000i32..30_000))
                .collect(),
        ),
        _ => ColumnData::Bool((0..len).map(|_| rng.gen_bool(0.5)).collect()),
    };
    if rng.gen_bool(0.5) {
        let mask: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
        Column::with_validity(data, mask)
    } else {
        Column::new(data)
    }
}

/// A random batch: 1..40 rows, 1..5 columns named `c{i}`.
fn gen_batch(rng: &mut Pcg32) -> Batch {
    let rows = rng.gen_range(1usize..40);
    let cols = rng.gen_range(1usize..5);
    let columns: Vec<Column> = (0..cols).map(|_| gen_column(rng, rows)).collect();
    let fields = columns
        .iter()
        .enumerate()
        .map(|(i, c)| Field::new(format!("c{i}"), c.data_type()))
        .collect();
    Batch::new(Arc::new(Schema::new(fields)), columns)
}

/// encode → decode is the identity for every batch.
#[test]
fn codec_roundtrips() {
    let mut rng = Pcg32::new(Seed::root(0xE061_01));
    for _ in 0..64 {
        let batch = gen_batch(&mut rng);
        let decoded = decode_batch(&encode_batch(&batch), batch.schema.clone());
        assert_eq!(decoded, batch);
    }
}

/// Row-key encoding is injective over rows: two rows encode equal iff
/// their values (including null positions) are equal.
#[test]
fn rowkey_injective() {
    let mut rng = Pcg32::new(Seed::root(0xE061_02));
    for _ in 0..64 {
        let batch = gen_batch(&mut rng);
        let cols: Vec<&Column> = batch.columns.iter().collect();
        let n = batch.num_rows();
        for i in 0..n {
            for j in (i + 1)..n {
                let same_values = batch.row(i) == batch.row(j);
                let same_key = encode_row(&cols, i) == encode_row(&cols, j);
                assert_eq!(same_values, same_key, "rows {i} vs {j}");
            }
        }
    }
}

/// filter(mask) keeps exactly the masked rows in order.
#[test]
fn filter_is_selective() {
    let mut rng = Pcg32::new(Seed::root(0xE061_03));
    for _ in 0..64 {
        let batch = gen_batch(&mut rng);
        let seed = rng.next_u64();
        let n = batch.num_rows();
        let mask: Vec<bool> = (0..n).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let filtered = batch.filter(&mask);
        let expected: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
        assert_eq!(filtered.num_rows(), expected.len());
        for (out_i, &in_i) in expected.iter().enumerate() {
            assert_eq!(filtered.row(out_i), batch.row(in_i));
        }
    }
}

/// concat of contiguous slices reassembles the original batch.
#[test]
fn chunk_concat_identity() {
    let mut rng = Pcg32::new(Seed::root(0xE061_04));
    for _ in 0..64 {
        let batch = gen_batch(&mut rng);
        let chunk = rng.gen_range(1usize..7);
        let n = batch.num_rows();
        let pieces: Vec<Batch> = (0..n)
            .step_by(chunk)
            .map(|start| batch.slice(start, (start + chunk).min(n)))
            .collect();
        let whole = Batch::concat(batch.schema.clone(), &pieces);
        assert_eq!(whole, batch);
    }
}

/// Sorting produces a permutation of the input in key order.
#[test]
fn sort_is_ordered_permutation() {
    let mut rng = Pcg32::new(Seed::root(0xE061_05));
    for _ in 0..64 {
        let keys: Vec<i64> = (0..rng.gen_range(1usize..50))
            .map(|_| rng.next_u64() as i64)
            .collect();
        let descending = rng.gen_bool(0.5);
        let schema = Schema::shared(&[("k", DataType::I64)]);
        let batch = Batch::new(schema.clone(), vec![Column::from_i64(keys.clone())]);
        let sk = if descending {
            SortKey::desc(Expr::col(0))
        } else {
            SortKey::asc(Expr::col(0))
        };
        let out = sort(schema, &[batch], &[sk], None);
        let got = out.columns[0].i64s().to_vec();
        let mut expect = keys;
        expect.sort_unstable();
        if descending {
            expect.reverse();
        }
        assert_eq!(got, expect);
    }
}

/// Inner hash join matches a naive nested-loop reference.
#[test]
fn join_matches_nested_loop() {
    let mut rng = Pcg32::new(Seed::root(0xE061_06));
    for _ in 0..64 {
        let build_keys: Vec<i64> = (0..rng.gen_range(0usize..20))
            .map(|_| rng.gen_range(0i64..8))
            .collect();
        let probe_keys: Vec<i64> = (0..rng.gen_range(0usize..20))
            .map(|_| rng.gen_range(0i64..8))
            .collect();
        let schema = Schema::shared(&[("k", DataType::I64)]);
        let build = Batch::new(schema.clone(), vec![Column::from_i64(build_keys.clone())]);
        let probe = Batch::new(schema.clone(), vec![Column::from_i64(probe_keys.clone())]);
        let out = Schema::shared(&[("pk", DataType::I64), ("bk", DataType::I64)]);
        let res = hash_join(
            schema,
            &[build],
            &[probe],
            &[Expr::col(0)],
            &[Expr::col(0)],
            JoinType::Inner,
            out,
        );
        // Count matched pairs per key.
        let mut got: BTreeMap<i64, usize> = BTreeMap::new();
        for b in &res {
            for i in 0..b.num_rows() {
                *got.entry(b.columns[0].i64s()[i]).or_default() += 1;
            }
        }
        let mut expect: BTreeMap<i64, usize> = BTreeMap::new();
        for &p in &probe_keys {
            let matches = build_keys.iter().filter(|&&b| b == p).count();
            if matches > 0 {
                *expect.entry(p).or_default() += matches;
            }
        }
        assert_eq!(got, expect);
    }
}

/// Semi + anti join partition the probe side.
#[test]
fn semi_anti_partition_probe() {
    let mut rng = Pcg32::new(Seed::root(0xE061_07));
    for _ in 0..64 {
        let build_keys: Vec<i64> = (0..rng.gen_range(0usize..15))
            .map(|_| rng.gen_range(0i64..6))
            .collect();
        let probe_keys: Vec<i64> = (0..rng.gen_range(0usize..15))
            .map(|_| rng.gen_range(0i64..6))
            .collect();
        let schema = Schema::shared(&[("k", DataType::I64)]);
        let out = Schema::shared(&[("k", DataType::I64)]);
        let run = |jt| {
            let build = Batch::new(schema.clone(), vec![Column::from_i64(build_keys.clone())]);
            let probe = Batch::new(schema.clone(), vec![Column::from_i64(probe_keys.clone())]);
            hash_join(
                schema.clone(),
                &[build],
                &[probe],
                &[Expr::col(0)],
                &[Expr::col(0)],
                jt,
                out.clone(),
            )
            .iter()
            .map(|b| b.num_rows())
            .sum::<usize>()
        };
        assert_eq!(run(JoinType::Semi) + run(JoinType::Anti), probe_keys.len());
    }
}
