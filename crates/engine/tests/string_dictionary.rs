//! Dictionary-coded string columns, checked from outside the crate.
//!
//! A string column is `u32` codes into a shared dictionary that may hold
//! duplicate and unused entries. A comparison against a literal, `IN`
//! and LIKE run once per dictionary entry when the dictionary has no
//! more entries than the column has rows, and once per row otherwise; a
//! group-by on unmasked string keys maps each tuple of codes once when
//! there are no more tuples than rows. Sizes alone make both choices, so
//! each test codes the same rows two ways — against a small dictionary,
//! and against the same entries padded past the row count — and holds
//! the two paths to each other and to the row-at-a-time reference.

use std::sync::Arc;

use cackle_engine::kernel_prelude::Grouper;
use cackle_engine::prelude::*;
use cackle_engine::reference::{row_eval, row_predicate_mask};
use cackle_engine::{predicate_mask, StrDict};
use cackle_prng::{Pcg32, Seed};

/// What the rows hold: empty, short, multi-byte, and strings that share
/// prefixes and suffixes.
const VOCAB: [&str; 9] = [
    "",
    "A",
    "AIR",
    "MAIL",
    "REG AIR",
    "héllo",
    "日本語",
    "naïve café",
    "DELIVER IN PERSON",
];

/// The small dictionary: the vocabulary in another order, two entries
/// twice, and entries no row uses (one of them a duplicate).
fn small_entries() -> Vec<String> {
    let mut entries: Vec<String> = VOCAB.iter().rev().map(|s| s.to_string()).collect();
    entries.extend(["MAIL", "zzz unused", "", "𝄞 clef", "日本語"].map(String::from));
    entries
}

/// The small dictionary padded with unused entries past `rows`.
fn padded_entries(rows: usize) -> Vec<String> {
    let mut entries = small_entries();
    let pad = (rows + 1).saturating_sub(entries.len());
    entries.extend((0..pad).map(|i| format!("pad {i}")));
    entries
}

/// Code `rows` against `entries`, each row a random one of the entries
/// equal to it.
fn code(rng: &mut Pcg32, rows: &[&str], entries: &[String]) -> StrColumn {
    let dict: Arc<StrDict> = Arc::new(entries.iter().collect());
    let mut col = StrColumn::with_dict(dict, rows.len());
    for s in rows {
        let codes: Vec<u32> = (0..entries.len() as u32)
            .filter(|&c| entries[c as usize] == *s)
            .collect();
        col.push_code(codes[rng.gen_range(0..codes.len())]);
    }
    col
}

/// The same rows coded three ways: against the small dictionary,
/// against the padded one, and as the identity (built row by row).
struct Codings {
    /// Each row's string; a null row holds a non-empty placeholder.
    rows: Vec<&'static str>,
    validity: Option<Vec<bool>>,
    small: Column,
    padded: Column,
    flat: Column,
}

fn codings(rng: &mut Pcg32, n: usize, masked: bool) -> Codings {
    let validity = masked.then(|| (0..n).map(|i| i != 0 && rng.gen_bool(0.7)).collect());
    let rows: Vec<&str> = (0..n)
        .map(|i| {
            let null = validity.as_ref().is_some_and(|v: &Vec<bool>| !v[i]);
            // A null row's placeholder is never empty.
            let from = if null { 1 } else { 0 };
            VOCAB[rng.gen_range(from..VOCAB.len())]
        })
        .collect();
    let column = |strs: StrColumn| match &validity {
        Some(v) => Column::with_validity(ColumnData::Str(strs), v.clone()),
        None => Column::new(ColumnData::Str(strs)),
    };
    let small = column(code(rng, &rows, &small_entries()));
    let padded = column(code(rng, &rows, &padded_entries(n)));
    let flat = column(rows.iter().collect());
    Codings {
        rows,
        validity,
        small,
        padded,
        flat,
    }
}

fn batch_of(col: &Column) -> Batch {
    Batch::new(Schema::shared(&[("s", DataType::Str)]), vec![col.clone()])
}

/// Every comparison operator against literals on either side, `IN`
/// lists (with a null item, an absent item, no items) and LIKE and NOT
/// LIKE of every pattern shape.
fn predicates() -> Vec<Expr> {
    let mut out = Vec::new();
    let literals = ["", "A", "MAIL", "héllo", "日本語", "B", "zzz unused"];
    for op in [
        BinOp::Eq,
        BinOp::Neq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
    ] {
        for lit in literals {
            let bin = |lhs, rhs| Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
            out.push(bin(Expr::col(0), Expr::lit_str(lit)));
            out.push(bin(Expr::lit_str(lit), Expr::col(0)));
        }
    }
    let s = |v: &str| Value::Str(v.to_string());
    for list in [
        vec![s("MAIL"), s("AIR")],
        vec![s(""), Value::Null, s("日本語")],
        vec![s("nowhere")],
        vec![],
    ] {
        out.push(Expr::InList {
            input: Box::new(Expr::col(0)),
            list,
        });
    }
    for pattern in [
        LikePattern::Prefix("A".into()),
        LikePattern::Prefix(String::new()),
        LikePattern::Suffix("AIR".into()),
        LikePattern::Suffix("é".into()),
        LikePattern::Contains("é".into()),
        LikePattern::Contains("IN".into()),
        LikePattern::ContainsInOrder(vec!["A".into(), "I".into()]),
    ] {
        for negated in [false, true] {
            out.push(Expr::Like {
                input: Box::new(Expr::col(0)),
                pattern: pattern.clone(),
                negated,
            });
        }
    }
    out
}

#[test]
fn per_entry_and_per_row_paths_agree() {
    let mut rng = Pcg32::new(Seed::root(0xD1C7));
    let preds = predicates();
    for n in [0, 1, 5, 20, 64, 300] {
        for masked in [false, true] {
            let c = codings(&mut rng, n, masked);
            let (small, padded) = (c.small.strs(), c.padded.strs());
            // The sizes that pick each path.
            assert_eq!(small.dict().len() <= n, n >= small_entries().len());
            assert!(padded.dict().len() > n);
            let batches = [batch_of(&c.small), batch_of(&c.padded), batch_of(&c.flat)];
            for pred in &preds {
                let want_col = row_eval(pred, &batches[0]);
                let want_mask = row_predicate_mask(pred, &batches[0]);
                for (b, name) in batches.iter().zip(["small", "padded", "flat"]) {
                    let ctx = format!("{pred:?} on {n} rows, masked {masked}, {name}");
                    assert_eq!(pred.eval(b), want_col, "{ctx}");
                    assert_eq!(predicate_mask(pred, b), want_mask, "{ctx}");
                }
            }
            check_column_ops(&mut rng, &c);
        }
    }
}

/// Gathers share the dictionary; concat agrees for same- and
/// different-dictionary parts; equality is by content across codings.
fn check_column_ops(rng: &mut Pcg32, c: &Codings) {
    let n = c.rows.len();
    let flat_of = |rows: &[&str], validity: Option<Vec<bool>>| {
        let data = ColumnData::Str(rows.iter().collect());
        match validity {
            Some(v) => Column::with_validity(data, v),
            None => Column::new(data),
        }
    };
    let pick = |idx: &[usize]| -> Vec<&str> { idx.iter().map(|&i| c.rows[i]).collect() };
    let pick_valid = |idx: &[usize]| {
        c.validity
            .as_ref()
            .map(|v| idx.iter().map(|&i| v[i]).collect())
    };

    // Content equality holds across codings, and fails on any row.
    assert_eq!(c.small, c.padded);
    assert_eq!(c.small, c.flat);
    assert_eq!(c.small.strs(), c.flat.strs());
    if n > 0 {
        let mut other = c.rows.clone();
        other[n - 1] = if other[n - 1] == "A" { "AIR" } else { "A" };
        assert_ne!(c.small.strs(), flat_of(&other, None).strs());
        // The same codes over other entries are equal exactly when the
        // rows they spell are.
        let reversed: Arc<StrDict> = Arc::new(small_entries().iter().rev().collect());
        let mut recoded = StrColumn::with_dict(reversed, n);
        for &code in c.small.strs().codes() {
            recoded.push_code(code);
        }
        assert_eq!(
            recoded == *c.small.strs(),
            recoded.iter().eq(c.rows.iter().copied())
        );
    }

    for col in [&c.small, &c.padded, &c.flat] {
        let strs = col.strs();
        let idx: Vec<usize> = (0..n.min(40)).map(|_| rng.gen_range(0..n)).collect();
        let (start, end) = (n / 3, n - n / 4);
        let range: Vec<usize> = (start..end).collect();
        // take, slice and a projected gather copy codes, share the
        // dictionary and copy no string bytes.
        let taken = col.take(&idx);
        let sliced = col.slice(start, end);
        let schema = Schema::shared(&[("s", DataType::Str)]);
        let gathered = batch_of(col).project_view(schema, &[0]).gather(&idx);
        for (got, rows, want_idx) in [
            (&taken, pick(&idx), &idx),
            (&sliced, pick(&range), &range),
            (&gathered.columns[0], pick(&idx), &idx),
        ] {
            assert!(Arc::ptr_eq(got.strs().dict(), strs.dict()));
            assert_eq!(*got, flat_of(&rows, pick_valid(want_idx)));
        }

        // Concat of parts sharing one dictionary shares it; parts coded
        // apart are copied into a fresh one; both equal the flat rebuild.
        let cut = rng.gen_range(0..=n);
        let whole = flat_of(&c.rows, c.validity.clone());
        let same = Column::concat(&[&col.slice(0, cut), &col.slice(cut, n)]);
        assert!(Arc::ptr_eq(same.strs().dict(), strs.dict()));
        let apart = Column::concat(&[&col.slice(0, cut), &c.flat.slice(cut, n)]);
        assert_eq!(same, whole);
        assert_eq!(apart, whole);
        assert_eq!(same, apart);
    }
}

/// Two key columns: a three-value one and a two-value one, as
/// `(l_returnflag, l_linestatus)`.
const FLAGS: [&str; 3] = ["R", "A", "N"];
const STATUSES: [&str; 2] = ["F", "O"];

/// One batch of `(flag, status)` keys coded four ways: small
/// dictionaries (each batch its own, with a duplicate and an unused
/// entry) for the code-tuple memo, the same padded past the rows, the
/// identity, and — where `null` — with a masked flag column, which
/// takes the row path whatever its sizes.
fn key_batch(rng: &mut Pcg32, n: usize, null: bool) -> [[Column; 2]; 3] {
    let mask = null.then(|| (0..n).map(|_| rng.gen_bool(0.8)).collect::<Vec<bool>>());
    let flags: Vec<&str> = (0..n).map(|_| FLAGS[rng.gen_range(0..3)]).collect();
    let statuses: Vec<&str> = (0..n).map(|_| STATUSES[rng.gen_range(0..2)]).collect();
    let shift = rng.gen_range(0..3);
    let mut flag_entries: Vec<String> = FLAGS.iter().map(|s| s.to_string()).collect();
    flag_entries.rotate_left(shift);
    flag_entries.extend(["A", "unused"].map(String::from));
    let status_entries: Vec<String> = STATUSES.iter().rev().map(|s| s.to_string()).collect();
    let pad = |entries: &[String]| {
        let mut out = entries.to_vec();
        out.extend((0..n).map(|i| format!("pad {i}")));
        out
    };
    let masked = |col: StrColumn| match &mask {
        Some(m) => Column::with_validity(ColumnData::Str(col), m.clone()),
        None => Column::new(ColumnData::Str(col)),
    };
    [
        [
            masked(code(rng, &flags, &flag_entries)),
            Column::new(ColumnData::Str(code(rng, &statuses, &status_entries))),
        ],
        [
            masked(code(rng, &flags, &pad(&flag_entries))),
            Column::new(ColumnData::Str(code(rng, &statuses, &pad(&status_entries)))),
        ],
        [
            masked(flags.iter().collect()),
            Column::new(ColumnData::Str(statuses.iter().collect())),
        ],
    ]
}

#[test]
fn group_by_memo_matches_byte_keys() {
    let mut rng = Pcg32::new(Seed::root(0x6B0F));
    for width in [1, 2] {
        // Consecutive batches carry different dictionaries; the third has
        // a null key column.
        let batches: Vec<(usize, [[Column; 2]; 3])> =
            [(50, false), (7, false), (40, true), (64, false)]
                .into_iter()
                .map(|(n, null)| (n, key_batch(&mut rng, n, null)))
                .collect();
        for (n, b) in &batches {
            let [memo, padded, _] = b;
            let tuples = |cols: &[Column; 2]| -> usize {
                cols[..width]
                    .iter()
                    .map(|c| c.strs().dict().len())
                    .product()
            };
            // Five flag entries, two status ones: every batch but the
            // seven-row one has room for the memo at either width.
            if *n >= 10 {
                assert!(tuples(memo) <= *n);
            }
            assert!(tuples(padded) > *n);
        }
        let dtypes = vec![DataType::Str; width];
        let mut results = Vec::new();
        for coding in 0..3 {
            let per_batch: Vec<Vec<&Column>> = batches
                .iter()
                .map(|(_, b)| b[coding][..width].iter().collect())
                .collect();
            let mut grouper = Grouper::for_keys(&per_batch, &dtypes);
            let mut ids = Vec::new();
            for ((n, _), cols) in batches.iter().zip(&per_batch) {
                grouper.assign(cols, *n, &mut ids);
            }
            results.push((ids, grouper.finish()));
        }
        // The oracle: each distinct key tuple, null a value of its own, in
        // first-encounter order.
        let mut seen: Vec<Vec<Option<String>>> = Vec::new();
        let mut want_ids = Vec::new();
        for (n, b) in &batches {
            for row in 0..*n {
                let key: Vec<Option<String>> = b[2][..width]
                    .iter()
                    .map(|c| c.is_valid(row).then(|| c.strs()[row].to_string()))
                    .collect();
                let id = seen.iter().position(|k| *k == key).unwrap_or_else(|| {
                    seen.push(key);
                    seen.len() - 1
                });
                want_ids.push(id as u32);
            }
        }
        for (coding, (ids, keys)) in results.iter().enumerate() {
            assert_eq!(*ids, want_ids, "width {width}, coding {coding}");
            for (k, col) in keys.iter().enumerate() {
                let got: Vec<Option<String>> = (0..col.len())
                    .map(|g| col.is_valid(g).then(|| col.strs()[g].to_string()))
                    .collect();
                let want: Vec<Option<String>> = seen.iter().map(|key| key[k].clone()).collect();
                assert_eq!(got, want, "width {width}, coding {coding}, key {k}");
            }
        }
        assert_eq!(results[0].1, results[1].1);
        assert_eq!(results[0].1, results[2].1);
    }
}
