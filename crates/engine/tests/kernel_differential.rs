//! Differential tests: every vectorized kernel against the preserved
//! row-at-a-time implementation in `cackle_engine::reference`.
//!
//! The reference module is the behavioral oracle for the kernel rewrite:
//! for seeded random inputs — including nulls, empty batches, and
//! all/none-selected bitmaps — each kernel must produce byte-identical
//! columns to the legacy code it replaced.

use cackle_engine::kernel_prelude::{filter_batch, filter_project, ScratchArena};
use cackle_engine::predicate_mask_into;
use cackle_engine::prelude::*;
use cackle_engine::reference as reference_impl;
use cackle_engine::types::Value;

/// Tiny deterministic xorshift64* generator: no external crates, stable
/// across platforms, seeded per test.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

const VOCAB: [&str; 6] = ["alpha", "beta", "gamma", "delta", "alp", ""];

fn maybe_validity(rng: &mut Rng, n: usize) -> Option<Vec<bool>> {
    if rng.chance(60) {
        Some((0..n).map(|_| rng.chance(80)).collect())
    } else {
        None
    }
}

fn with_mask(data: ColumnData, mask: Option<Vec<bool>>) -> Column {
    match mask {
        Some(m) => Column::with_validity(data, m),
        None => Column::new(data),
    }
}

/// A five-column batch (i64, f64, str, date, bool) with random values in
/// small ranges (so joins and group-bys actually collide) and per-column
/// random validity. Field names take `prefix` so two random batches can
/// join without schema name clashes.
fn random_batch(rng: &mut Rng, n: usize, prefix: &str) -> Batch {
    let names: Vec<String> = ["i", "f", "s", "d", "b"]
        .iter()
        .map(|suffix| format!("{prefix}{suffix}"))
        .collect();
    let dtypes = [
        DataType::I64,
        DataType::F64,
        DataType::Str,
        DataType::Date,
        DataType::Bool,
    ];
    let fields: Vec<(&str, DataType)> = names
        .iter()
        .zip(dtypes)
        .map(|(n, t)| (n.as_str(), t))
        .collect();
    let schema = Schema::shared(&fields);
    let i64s: Vec<i64> = (0..n).map(|_| rng.below(8) as i64 - 2).collect();
    let f64s: Vec<f64> = (0..n).map(|_| rng.below(40) as f64 / 4.0 - 3.0).collect();
    let strs: Vec<String> = (0..n)
        .map(|_| VOCAB[rng.below(VOCAB.len() as u64) as usize].to_string())
        .collect();
    let dates: Vec<i32> = (0..n).map(|_| 9000 + rng.below(800) as i32).collect();
    let bools: Vec<bool> = (0..n).map(|_| rng.chance(50)).collect();
    let cols = vec![
        with_mask(ColumnData::I64(i64s), maybe_validity(rng, n)),
        with_mask(ColumnData::F64(f64s), maybe_validity(rng, n)),
        with_mask(ColumnData::Str(strs.into()), maybe_validity(rng, n)),
        with_mask(ColumnData::Date(dates), maybe_validity(rng, n)),
        with_mask(ColumnData::Bool(bools), maybe_validity(rng, n)),
    ];
    Batch::new(schema, cols)
}

fn test_batches(seed: u64, prefix: &str) -> Vec<Batch> {
    let mut rng = Rng::new(seed);
    // Empty, single-row, and two larger batches.
    [0usize, 1, 17, 256]
        .iter()
        .map(|&n| random_batch(&mut rng, n, prefix))
        .collect()
}

/// The hand-written cases: LIKE, Kleene AND/OR, CASE, the unary
/// expressions, and the column-vs-literal shapes the scan filters and
/// projections of the TPC-H plans use. [`binary_table`] adds every
/// operand shape × type × operator combination on top.
fn handwritten_exprs() -> Vec<Expr> {
    vec![
        Expr::col(0).lt(Expr::lit_i64(2)),
        Expr::col(0).eq(Expr::lit_i64(1)),
        Expr::lit_i64(1).lt(Expr::col(0)), // literal on the lhs
        Expr::col(1).gt_eq(Expr::lit_f64(0.5)),
        Expr::lit_f64(0.5).gt_eq(Expr::col(1)),
        Expr::col(2).gt(Expr::lit_str("beta")),
        Expr::col(0).add(Expr::lit_i64(7)),
        Expr::lit_i64(7).sub(Expr::col(0)),
        Expr::col(0).div(Expr::lit_i64(2)), // i64/i64 divides as f64
        Expr::col(0).mul(Expr::lit_f64(1.5)),
        Expr::lit_f64(10.0).div(Expr::col(1)),
        Expr::col(3).add(Expr::lit_i64(90)), // date + days
        Expr::lit_i64(90).add(Expr::col(3)), // days + date
        Expr::col(3).sub(Expr::lit_i64(30)),
        Expr::Like {
            input: Box::new(Expr::col(2)),
            pattern: LikePattern::Prefix("al".into()),
            negated: false,
        },
        Expr::Like {
            input: Box::new(Expr::col(2)),
            pattern: LikePattern::Contains("mm".into()),
            negated: true,
        },
        // Null-producing conjunction: nulls must fold to false identically.
        Expr::col(0)
            .lt(Expr::lit_i64(2))
            .and(Expr::col(1).gt(Expr::lit_f64(0.0))),
        Expr::col(0)
            .eq(Expr::lit_i64(0))
            .or(Expr::col(4).eq(Expr::lit_i64(1).eq(Expr::lit_i64(1)))),
        Expr::col(4).or(Expr::IsNull(Box::new(Expr::col(2)))),
        // Column-vs-column and literal-on-the-left leaves under AND/OR.
        Expr::col(0)
            .lt(year_col())
            .and(Expr::lit_f64(0.5).lt_eq(Expr::col(1))),
        Expr::col(1)
            .neq(nan_expr())
            .or(Expr::col(0).gt_eq(Expr::Lit(Value::Null))),
        Expr::Not(Box::new(Expr::col(4))),
        Expr::IsNull(Box::new(Expr::col(0))),
        // Null literal: an all-null operand, whichever side it is on.
        Expr::col(0).add(Expr::Lit(Value::Null)),
        Expr::Case {
            branches: vec![
                (Expr::col(0).lt(Expr::lit_i64(0)), Expr::lit_str("lo")),
                (Expr::col(0).lt(Expr::lit_i64(3)), Expr::col(2)),
            ],
            else_expr: Some(Box::new(Expr::lit_str("hi"))),
        },
        Expr::Case {
            branches: vec![(Expr::col(0).lt(Expr::lit_i64(1)), Expr::Lit(Value::Null))],
            else_expr: Some(Box::new(Expr::col(0))),
        },
        Expr::ExtractYear(Box::new(Expr::col(3))),
        Expr::Substr {
            input: Box::new(Expr::col(2)),
            start: 2,
            len: 3,
        },
        Expr::Coalesce(vec![Expr::col(0), Expr::lit_i64(42)]),
        // Strings: null rows filled from a literal, and null rows no
        // alternative fills, which keep the first operand's placeholder.
        Expr::Coalesce(vec![Expr::col(2), Expr::lit_str("none")]),
        Expr::Coalesce(vec![Expr::col(2), Expr::col(2)]),
        Expr::Cast {
            input: Box::new(Expr::col(0)),
            to: DataType::F64,
        },
        in_list(Expr::col(0), vec![Value::I64(0), Value::I64(3)]),
        in_list(
            Expr::col(2),
            vec![Value::Str("alpha".into()), Value::Str("".into())],
        ),
        // Mixed I64/F64 lists coerce; a null item matches nothing.
        in_list(
            Expr::col(0),
            vec![Value::I64(1), Value::F64(2.0), Value::Null, Value::F64(0.5)],
        ),
        in_list(Expr::col(1), vec![Value::I64(1), Value::F64(-0.25)]),
        in_list(nan_expr(), vec![Value::F64(f64::NAN), Value::I64(1)]),
        in_list(Expr::col(3), vec![Value::Date(9100), Value::Date(9400)]),
        in_list(Expr::col(0), vec![Value::Null]),
        in_list(Expr::col(2), vec![]),
    ]
}

fn in_list(input: Expr, list: Vec<Value>) -> Expr {
    Expr::InList {
        input: Box::new(input),
        list,
    }
}

/// An I64 column expression with no zero row (a legal `Mod` divisor)
/// whose validity is column 3's, not column 0's.
fn year_col() -> Expr {
    Expr::ExtractYear(Box::new(Expr::col(3)))
}

/// NaN wherever column 1 holds a valid or placeholder `0.0`.
fn nan_expr() -> Expr {
    Expr::col(1).div(Expr::col(1))
}

/// One side of a generated binary expression: the operand, the type it
/// evaluates to (a null literal is an all-null I64 column) and whether
/// it can hold a zero.
struct Side {
    expr: Expr,
    dtype: DataType,
    maybe_zero: bool,
}

fn sides() -> Vec<Side> {
    let side = |expr, dtype, maybe_zero| Side {
        expr,
        dtype,
        maybe_zero,
    };
    vec![
        // Columns of the five types.
        side(Expr::col(0), DataType::I64, true),
        side(Expr::col(1), DataType::F64, true),
        side(Expr::col(2), DataType::Str, false),
        side(Expr::col(3), DataType::Date, false),
        side(Expr::col(4), DataType::Bool, false),
        // Computed columns: a second validity mask per numeric type.
        side(year_col(), DataType::I64, false),
        side(
            Expr::Cast {
                input: Box::new(Expr::col(0)),
                to: DataType::F64,
            },
            DataType::F64,
            true,
        ),
        // Non-null literals.
        side(Expr::lit_i64(3), DataType::I64, false),
        side(Expr::lit_i64(-2), DataType::I64, false),
        side(Expr::lit_f64(0.5), DataType::F64, false),
        side(Expr::lit_str("beta"), DataType::Str, false),
        side(Expr::Lit(Value::Date(9400)), DataType::Date, false),
        side(Expr::Lit(Value::Bool(true)), DataType::Bool, false),
        side(Expr::Lit(Value::Null), DataType::I64, true),
        // NaN, computed and literal.
        side(nan_expr(), DataType::F64, true),
        side(Expr::lit_f64(f64::NAN), DataType::F64, false),
    ]
}

const ARITH_OPS: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
const CMP_OPS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::Neq,
    BinOp::Lt,
    BinOp::LtEq,
    BinOp::Gt,
    BinOp::GtEq,
];

/// Every `lhs ⊕ rhs` over [`sides`] × the eleven non-Kleene operators,
/// minus the pairs that are a type error (Str or Bool against anything
/// but itself, either in arithmetic) or an integer `Mod` by a possible
/// zero — those panic in the evaluator and the reference alike.
fn binary_table() -> Vec<Expr> {
    let numeric = |t: DataType| matches!(t, DataType::I64 | DataType::F64 | DataType::Date);
    let mut table = Vec::new();
    for l in sides() {
        for r in sides() {
            let both_numeric = numeric(l.dtype) && numeric(r.dtype);
            for op in ARITH_OPS.into_iter().chain(CMP_OPS) {
                let legal = match op {
                    BinOp::Mod if l.dtype == DataType::I64 && r.dtype == DataType::I64 => {
                        !r.maybe_zero
                    }
                    op if ARITH_OPS.contains(&op) => both_numeric,
                    _ => both_numeric || l.dtype == r.dtype,
                };
                if legal {
                    table.push(Expr::Binary {
                        op,
                        lhs: Box::new(l.expr.clone()),
                        rhs: Box::new(r.expr.clone()),
                    });
                }
            }
        }
    }
    table
}

fn expr_table() -> Vec<Expr> {
    let mut table = handwritten_exprs();
    table.extend(binary_table());
    table
}

/// Each batch of [`test_batches`] twice: with every validity mask
/// stripped, and with a mask forced onto every column.
fn validity_variants(seed: u64) -> Vec<Batch> {
    let mut rng = Rng::new(seed ^ 0xA5A5);
    let mut out = Vec::new();
    for batch in test_batches(seed, "") {
        let n = batch.num_rows();
        let stripped = batch
            .columns
            .iter()
            .map(|c| Column::new(c.data.clone()))
            .collect();
        let masked = batch
            .columns
            .iter()
            .map(|c| {
                let mask = c
                    .validity
                    .clone()
                    .unwrap_or_else(|| (0..n).map(|_| rng.chance(80)).collect());
                Column::with_validity(c.data.clone(), mask)
            })
            .collect();
        out.push(Batch::new(batch.schema.clone(), stripped));
        out.push(Batch::new(batch.schema.clone(), masked));
    }
    out
}

/// Column equality with F64 data compared by bits, all NaNs equal (the
/// payload bits of a NaN result depend on operand order).
fn same_column(a: &Column, b: &Column) -> bool {
    if a.validity != b.validity {
        return false;
    }
    match (&a.data, &b.data) {
        (ColumnData::F64(x), ColumnData::F64(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()))
        }
        (x, y) => x == y,
    }
}

/// The whole table through both public entry points: `Expr::eval`
/// against `row_eval`, and — where the result is Bool — the keep-mask
/// against `row_predicate_mask`.
#[test]
fn expression_table_matches_row_reference() {
    let table = expr_table();
    // No case may silently drop out of the generated part: 710 legal
    // arithmetic and 912 legal comparison combinations.
    assert_eq!(binary_table().len(), 1622, "generated table changed size");
    let mut mask = Vec::new();
    for batch in validity_variants(11).iter().chain(&test_batches(23, "")) {
        for (ei, expr) in table.iter().enumerate() {
            let n = batch.num_rows();
            let fast = expr.eval(batch);
            let slow = reference_impl::row_eval(expr, batch);
            assert!(
                same_column(&fast, &slow),
                "expr #{ei} {expr:?} on {n} rows:\n{fast:?}\nvs\n{slow:?}"
            );
            if slow.data_type() == DataType::Bool {
                predicate_mask_into(expr, batch, &mut mask);
                assert_eq!(
                    mask,
                    reference_impl::row_predicate_mask(expr, batch),
                    "mask of expr #{ei} {expr:?} on {n} rows"
                );
            }
        }
    }
}

/// SUBSTRING bounds count characters and saturate: the same strings in
/// a debug and a release build, from the evaluator and the reference.
#[test]
fn substr_counts_characters_and_saturates() {
    let schema = Schema::shared(&[("s", DataType::Str)]);
    let strs = ["héllo wörld", "日本語", "abc", ""];
    let batch = Batch::new(
        schema,
        vec![Column::from_str_vec(
            strs.iter().map(|s| s.to_string()).collect(),
        )],
    );
    let cases: [(usize, usize, [&str; 4]); 6] = [
        (1, 4, ["héll", "日本語", "abc", ""]),
        (2, 2, ["él", "本語", "bc", ""]),
        (0, 2, ["hé", "日本", "ab", ""]), // start 0 reads as 1
        (3, usize::MAX, ["llo wörld", "語", "c", ""]),
        (4, 1, ["l", "", "", ""]), // start just past the end
        (usize::MAX, usize::MAX, ["", "", "", ""]),
    ];
    for (start, len, want) in cases {
        let expr = Expr::Substr {
            input: Box::new(Expr::col(0)),
            start,
            len,
        };
        let fast = expr.eval(&batch);
        let got: Vec<&str> = fast.strs().iter().collect();
        assert_eq!(got, want, "start {start} len {len}");
        assert_eq!(fast, reference_impl::row_eval(&expr, &batch));
    }
}

#[test]
fn filter_kernels_match_batch_filter() {
    let mut rng = Rng::new(31);
    let mut arena = ScratchArena::new();
    for batch in test_batches(31, "") {
        let n = batch.num_rows();
        let masks = [
            vec![true; n],                                      // all selected
            vec![false; n],                                     // none selected
            (0..n).map(|_| rng.chance(40)).collect::<Vec<_>>(), // random
        ];
        for mask in &masks {
            assert_eq!(filter_batch(&batch, mask, &mut arena), batch.filter(mask));
            // Fused filter+project, with a repeated column.
            let idx = [1usize, 0, 1];
            let out_schema = Schema::shared(&[
                ("a", DataType::F64),
                ("b", DataType::I64),
                ("c", DataType::F64),
            ]);
            let fused = filter_project(&batch, mask, &idx, out_schema.clone(), &mut arena);
            let two_step = batch.filter(mask).project_view(out_schema, &idx).to_batch();
            assert_eq!(fused, two_step);
        }
    }
}

fn agg_specs() -> (Vec<AggExpr>, Vec<(&'static str, DataType)>) {
    let aggs = vec![
        AggExpr::new(AggFunc::Sum, Expr::col(1)),
        AggExpr::new(AggFunc::Sum, Expr::col(0)),
        AggExpr::new(AggFunc::Min, Expr::col(2)),
        AggExpr::new(AggFunc::Max, Expr::col(1)),
        AggExpr::new(AggFunc::Count, Expr::col(3)),
        AggExpr::new(AggFunc::CountStar, Expr::col(0)),
        AggExpr::new(AggFunc::Avg, Expr::col(0)),
        AggExpr::new(AggFunc::CountDistinct, Expr::col(2)),
        // q21's shape: COUNT(DISTINCT) over a nullable i64.
        AggExpr::new(AggFunc::CountDistinct, Expr::col(0)),
        // The other fixed-width inputs, keyed by their bits.
        AggExpr::new(AggFunc::CountDistinct, Expr::col(1)),
        AggExpr::new(AggFunc::CountDistinct, Expr::col(3)),
    ];
    let out_fields = vec![
        ("sum_f", DataType::F64),
        ("sum_i", DataType::I64),
        ("min_s", DataType::Str),
        ("max_f", DataType::F64),
        ("cnt_d", DataType::I64),
        ("cnt", DataType::I64),
        ("avg_i", DataType::F64),
        ("dist_s", DataType::I64),
        ("dist_i", DataType::I64),
        ("dist_f", DataType::I64),
        ("dist_d", DataType::I64),
    ];
    (aggs, out_fields)
}

#[test]
fn aggregate_kernel_matches_row_reference() {
    use cackle_engine::ops::aggregate::hash_aggregate;
    let (aggs, out_fields) = agg_specs();
    let batches = test_batches(47, "");
    let cases: Vec<(Vec<Expr>, Vec<(&str, DataType)>)> = vec![
        // Single nullable i64 key: the direct i64 key map is only legal
        // for all-valid i64 keys, so this takes the byte-key path.
        (vec![Expr::col(0)], vec![("k", DataType::I64)]),
        // Single all-valid i64 key: the direct i64 key map.
        (
            vec![Expr::Coalesce(vec![Expr::col(0), Expr::lit_i64(9)])],
            vec![("k", DataType::I64)],
        ),
        // Two-column key: canonical byte-key path.
        (
            vec![Expr::col(0), Expr::col(2)],
            vec![("k", DataType::I64), ("s", DataType::Str)],
        ),
        // q03's fixed-width three-column shape.
        (
            vec![Expr::col(0), Expr::col(3), Expr::col(1)],
            vec![
                ("k", DataType::I64),
                ("d", DataType::Date),
                ("f", DataType::F64),
            ],
        ),
        // Single bool key.
        (vec![Expr::col(4)], vec![("b", DataType::Bool)]),
        // Global aggregation.
        (vec![], vec![]),
    ];
    for (group_by, key_fields) in cases {
        let fields: Vec<(&str, DataType)> = key_fields
            .iter()
            .chain(out_fields.iter())
            .map(|&(n, t)| (n, t))
            .collect();
        let output = Schema::shared(&fields);
        let fast = hash_aggregate(&batches, &group_by, &aggs, output.clone());
        let slow = reference_impl::row_hash_aggregate(&batches, &group_by, &aggs, output.clone());
        assert_eq!(fast, slow, "group_by width {}", group_by.len());
        // Zero input batches (global aggregates still emit one row).
        let fast0 = hash_aggregate(&[], &group_by, &aggs, output.clone());
        let slow0 = reference_impl::row_hash_aggregate(&[], &group_by, &aggs, output);
        assert_eq!(fast0, slow0);
    }
}

#[test]
fn join_kernel_matches_row_reference() {
    use cackle_engine::ops::join::hash_join;
    let build = test_batches(59, "b_");
    let probe = test_batches(61, "p_");
    let build_schema = build[0].schema.clone();
    let inner_fields: Vec<(&str, DataType)> = [
        ("p_i", DataType::I64),
        ("p_f", DataType::F64),
        ("p_s", DataType::Str),
        ("p_d", DataType::Date),
        ("p_b", DataType::Bool),
        ("b_i", DataType::I64),
        ("b_f", DataType::F64),
        ("b_s", DataType::Str),
        ("b_d", DataType::Date),
        ("b_b", DataType::Bool),
    ]
    .to_vec();
    let wide = Schema::shared(&inner_fields);
    let narrow = Schema::shared(&inner_fields[..5]);
    // Single nullable i64 key (typed-index path, null keys excluded), a
    // two-column key with a string and a fixed-width one (byte-key path).
    let key_sets: [(Vec<Expr>, Vec<Expr>); 3] = [
        (vec![Expr::col(0)], vec![Expr::col(0)]),
        (
            vec![Expr::col(0), Expr::col(2)],
            vec![Expr::col(0), Expr::col(2)],
        ),
        (
            vec![Expr::col(0), Expr::col(3)],
            vec![Expr::col(0), Expr::col(3)],
        ),
    ];
    for (build_keys, probe_keys) in &key_sets {
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let output = match jt {
                JoinType::Inner | JoinType::Left => wide.clone(),
                JoinType::Semi | JoinType::Anti => narrow.clone(),
            };
            let fast = hash_join(
                build_schema.clone(),
                &build,
                &probe,
                build_keys,
                probe_keys,
                jt,
                output.clone(),
            );
            let slow = reference_impl::row_hash_join(
                build_schema.clone(),
                &build,
                &probe,
                build_keys,
                probe_keys,
                jt,
                output,
            );
            assert_eq!(fast, slow, "{jt:?} with {} key(s)", build_keys.len());
        }
    }
}

/// `0.0` and `-0.0` are distinct keys: the row-key encoding keys an
/// `f64` by its bits, so a typed `==` (which merges them) must never
/// stand in for it in a group-by, a COUNT(DISTINCT) or a join.
#[test]
fn negative_zero_is_a_key_of_its_own() {
    use cackle_engine::ops::aggregate::hash_aggregate;
    use cackle_engine::ops::join::hash_join;
    let schema = Schema::shared(&[("i", DataType::I64), ("f", DataType::F64)]);
    let batch = Batch::new(
        schema.clone(),
        vec![
            Column::from_i64(vec![1, 1, 2, 1, 2]),
            Column::from_f64(vec![0.0, -0.0, 0.0, -0.0, 1.5]),
        ],
    );
    let batches = [batch];
    // Group by f and by (i, f), with COUNT(DISTINCT f) per group and
    // over everything.
    let aggs = [AggExpr::new(AggFunc::CountDistinct, Expr::col(1))];
    let cases = [
        (vec![Expr::col(1)], vec![("f", DataType::F64)], 3),
        (
            vec![Expr::col(0), Expr::col(1)],
            vec![("i", DataType::I64), ("f", DataType::F64)],
            4,
        ),
        (vec![], vec![], 1),
    ];
    for (group_by, mut fields, groups) in cases {
        fields.push(("dist", DataType::I64));
        let output = Schema::shared(&fields);
        let fast = hash_aggregate(&batches, &group_by, &aggs, output.clone());
        let slow = reference_impl::row_hash_aggregate(&batches, &group_by, &aggs, output);
        assert_eq!(fast, slow, "group_by width {}", group_by.len());
        assert_eq!(fast.num_rows(), groups, "group_by width {}", group_by.len());
        if group_by.is_empty() {
            assert_eq!(fast.columns[0].i64s(), &[3], "0.0, -0.0 and 1.5");
        }
    }
    // Join on f, and on (i, f): the 0.0 build row matches 0.0 probe rows only.
    let build = [Batch::new(
        schema.clone(),
        vec![Column::from_i64(vec![1]), Column::from_f64(vec![0.0])],
    )];
    let wide = Schema::shared(&[
        ("pi", DataType::I64),
        ("pf", DataType::F64),
        ("bi", DataType::I64),
        ("bf", DataType::F64),
    ]);
    for (keys, matched) in [
        (vec![Expr::col(1)], 2),
        (vec![Expr::col(0), Expr::col(1)], 1),
    ] {
        let jt = JoinType::Inner;
        let fast = hash_join(
            schema.clone(),
            &build,
            &batches,
            &keys,
            &keys,
            jt,
            wide.clone(),
        );
        let slow = reference_impl::row_hash_join(
            schema.clone(),
            &build,
            &batches,
            &keys,
            &keys,
            jt,
            wide.clone(),
        );
        assert_eq!(fast, slow, "{} key(s)", keys.len());
        assert_eq!(fast[0].num_rows(), matched, "{} key(s)", keys.len());
    }
}

#[test]
fn sort_kernel_matches_row_reference() {
    use cackle_engine::ops::sort::sort;
    let batches = test_batches(73, "");
    let schema = batches[0].schema.clone();
    let key_sets = [
        vec![SortKey::asc(Expr::col(0))],
        vec![SortKey::desc(Expr::col(1)), SortKey::asc(Expr::col(0))],
        vec![
            SortKey::asc(Expr::col(2)),
            SortKey::desc(Expr::col(3)),
            SortKey::asc(Expr::col(4)),
        ],
    ];
    for keys in &key_sets {
        for limit in [None, Some(5), Some(0)] {
            let fast = sort(schema.clone(), &batches, keys, limit);
            let slow = reference_impl::row_sort(schema.clone(), &batches, keys, limit);
            assert_eq!(fast, slow, "{} key(s), limit {limit:?}", keys.len());
        }
    }
}

/// The buffer-pool reuse invariant: repeated executions of the same task
/// on one context must not allocate new scratch buffers after the first
/// run — every later checkout is served from the free list.
#[test]
fn scratch_pool_does_not_grow_across_runs() {
    let schema = Schema::shared(&[("k", DataType::I64), ("v", DataType::F64)]);
    let mut rng = Rng::new(97);
    let parts: Vec<Batch> = (0..4)
        .map(|_| {
            let n = 512;
            Batch::new(
                schema.clone(),
                vec![
                    Column::from_i64((0..n).map(|_| rng.below(100) as i64).collect()),
                    Column::from_f64((0..n).map(|_| rng.below(1000) as f64 / 10.0).collect()),
                ],
            )
        })
        .collect();
    let catalog = Catalog::new();
    catalog.register(Table::new("t", schema.clone(), parts));
    let out_schema = Schema::shared(&[("v", DataType::F64)]);
    let dag = StageDag::new(
        "pool_reuse",
        vec![
            Stage {
                id: 0,
                root: PlanNode::Scan {
                    table: "t".into(),
                    filter: Some(Expr::col(0).lt(Expr::lit_i64(50))),
                    projection: Some(vec![1]),
                },
                tasks: 1,
                exchange: ExchangeMode::Hash {
                    keys: vec![Expr::col(0)],
                    partitions: 4,
                },
                output_schema: out_schema.clone(),
            },
            // Never executed here (run_buffered publishes nothing); it
            // only makes the DAG validate (final stage must gather).
            Stage {
                id: 1,
                root: PlanNode::ShuffleRead { stage: 0 },
                tasks: 4,
                exchange: ExchangeMode::Gather,
                output_schema: out_schema,
            },
        ],
    );
    let shuffle = MemoryShuffle::new();
    let ctx = TaskContext::new(&dag, 0, 0, 1, &catalog, &shuffle);
    let exec = TaskExecution::new(&ctx);

    let first = exec.run_buffered();
    let after_first = ctx.scratch.borrow().stats();
    assert!(after_first.fresh > 0, "the first run must allocate scratch");

    for run in 0..5 {
        let again = exec.run_buffered();
        assert_eq!(again.writes, first.writes, "run {run} changed output");
        let s = ctx.scratch.borrow().stats();
        assert_eq!(
            s.fresh, after_first.fresh,
            "run {run} allocated new scratch buffers"
        );
        assert!(s.reuses > after_first.reuses, "run {run} reused nothing");
    }
    // Checkouts are balanced: all of them were either fresh or reused.
    let s = ctx.scratch.borrow().stats();
    assert_eq!(s.checkouts, s.fresh + s.reuses);
}
