//! Hash aggregation: grouped and global, with SQL null semantics
//! (aggregates skip null inputs; `COUNT(*)` counts rows).
//!
//! Grouping and accumulation are delegated to the typed kernels in
//! [`crate::kernels::agg`]: a [`Grouper`] assigns dense group ids per
//! batch and gathers the group-key columns, and each aggregate folds
//! whole batches into typed per-group vectors and finishes into a typed
//! column. The row-at-a-time original survives as
//! [`crate::reference::row_hash_aggregate`].

use crate::batch::Batch;
use crate::column::Column;
use crate::expr::Expr;
use crate::kernels::agg::{Accumulator, Grouper};
use crate::schema::SchemaRef;
use crate::types::DataType;
use std::borrow::Cow;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// SUM(expr), skipping nulls. Output type matches the input type.
    Sum,
    /// MIN(expr).
    Min,
    /// MAX(expr).
    Max,
    /// COUNT(expr) — non-null rows.
    Count,
    /// COUNT(*) — all rows (use with any input expression).
    CountStar,
    /// AVG(expr) as f64.
    Avg,
    /// COUNT(DISTINCT expr).
    CountDistinct,
}

/// One aggregate to compute.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// The input expression.
    pub input: Expr,
}

impl AggExpr {
    /// Build an aggregate expression.
    pub fn new(func: AggFunc, input: Expr) -> Self {
        AggExpr { func, input }
    }

    /// The output type given the input type.
    pub fn output_type(&self, input_type: DataType) -> DataType {
        match self.func {
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => input_type,
            AggFunc::Count | AggFunc::CountStar | AggFunc::CountDistinct => DataType::I64,
            AggFunc::Avg => DataType::F64,
        }
    }
}

/// Hash-aggregate `batches`, grouping by `group_by` and computing `aggs`.
///
/// The output schema must list the group columns first (in `group_by`
/// order) followed by one column per aggregate; groups appear in
/// first-encounter order, making single-task output deterministic.
/// With an empty `group_by` this is a global aggregation producing exactly
/// one row (even over zero input rows, per SQL).
pub fn hash_aggregate(
    batches: &[Batch],
    group_by: &[Expr],
    aggs: &[AggExpr],
    output: SchemaRef,
) -> Batch {
    assert_eq!(
        output.len(),
        group_by.len() + aggs.len(),
        "aggregate schema width"
    );
    let global = group_by.is_empty();

    // Keys and inputs that are bare column references borrow the
    // batch's columns; only computed ones are materialized.
    let key_cols_per_batch: Vec<Vec<Cow<'_, Column>>> = batches
        .iter()
        .map(|b| group_by.iter().map(|e| e.eval_borrowed(b)).collect())
        .collect();
    let key_refs_per_batch: Vec<Vec<&Column>> = key_cols_per_batch
        .iter()
        .map(|cols| cols.iter().map(|c| c.as_ref()).collect())
        .collect();
    // COUNT(*) reads no values, so its input expression (a literal in
    // every plan builder) is never evaluated — the legacy path broadcast
    // a constant column per batch just to ignore it.
    let agg_cols_per_batch: Vec<Vec<Option<Cow<'_, Column>>>> = batches
        .iter()
        .map(|b| {
            aggs.iter()
                .map(|a| match a.func {
                    AggFunc::CountStar => None,
                    _ => Some(a.input.eval_borrowed(b)),
                })
                .collect()
        })
        .collect();

    // Infer each aggregate's input type from the output schema (exact
    // for Sum / Min / Max; the others don't depend on it).
    let mut accs: Vec<Accumulator> = aggs
        .iter()
        .enumerate()
        .map(|(ai, a)| Accumulator::new(a.func, output.field(group_by.len() + ai).dtype))
        .collect();

    let key_types: Vec<DataType> = (0..group_by.len())
        .map(|ci| output.field(ci).dtype)
        .collect();
    let mut grouper = Grouper::for_keys(&key_refs_per_batch, &key_types);
    let mut n_groups = if global { 1 } else { 0 };
    let mut ids: Vec<u32> = Vec::new();
    for (bi, b) in batches.iter().enumerate() {
        let nrows = b.num_rows();
        ids.clear();
        if global {
            ids.resize(nrows, 0);
        } else {
            grouper.assign(&key_refs_per_batch[bi], nrows, &mut ids);
            n_groups = grouper.n_groups();
        }
        for (ai, acc) in accs.iter_mut().enumerate() {
            acc.grow(n_groups);
            acc.update(&ids, agg_cols_per_batch[bi][ai].as_deref());
        }
    }
    // Zero input batches (or zero groups) still need sized accumulators:
    // a global aggregate produces exactly one row, per SQL.
    for acc in accs.iter_mut() {
        acc.grow(n_groups);
    }

    // Output columns: the group keys first, then the finished aggregates.
    let mut out_cols: Vec<Column> = grouper.finish();
    out_cols.extend(
        accs.into_iter()
            .enumerate()
            .map(|(ai, acc)| acc.finish(output.field(group_by.len() + ai).dtype)),
    );
    Batch::new(output, out_cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;
    use crate::schema::Schema;

    fn lineitem_like() -> Vec<Batch> {
        let schema = Schema::shared(&[
            ("flag", DataType::Str),
            ("qty", DataType::I64),
            ("price", DataType::F64),
        ]);
        vec![
            Batch::new(
                schema.clone(),
                vec![
                    Column::from_str_vec(vec!["A".into(), "B".into(), "A".into()]),
                    Column::from_i64(vec![10, 20, 30]),
                    Column::from_f64(vec![1.0, 2.0, 3.0]),
                ],
            ),
            Batch::new(
                schema,
                vec![
                    Column::from_str_vec(vec!["B".into(), "A".into()]),
                    Column::from_i64(vec![40, 50]),
                    Column::from_f64(vec![4.0, 5.0]),
                ],
            ),
        ]
    }

    #[test]
    fn grouped_sum_count_avg() {
        let out = Schema::shared(&[
            ("flag", DataType::Str),
            ("sum_qty", DataType::I64),
            ("avg_price", DataType::F64),
            ("cnt", DataType::I64),
        ]);
        let b = hash_aggregate(
            &lineitem_like(),
            &[Expr::col(0)],
            &[
                AggExpr::new(AggFunc::Sum, Expr::col(1)),
                AggExpr::new(AggFunc::Avg, Expr::col(2)),
                AggExpr::new(AggFunc::CountStar, Expr::lit_i64(1)),
            ],
            out,
        );
        assert_eq!(b.num_rows(), 2);
        // Group order is first-encounter: A then B.
        assert_eq!(b.columns[0].strs().iter().collect::<Vec<_>>(), ["A", "B"]);
        assert_eq!(b.columns[1].i64s(), &[90, 60]);
        assert_eq!(b.columns[2].f64s(), &[3.0, 3.0]);
        assert_eq!(b.columns[3].i64s(), &[3, 2]);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let schema = Schema::shared(&[("x", DataType::F64)]);
        let out = Schema::shared(&[("sum", DataType::F64), ("cnt", DataType::I64)]);
        let b = hash_aggregate(
            &[Batch::empty(schema)],
            &[],
            &[
                AggExpr::new(AggFunc::Sum, Expr::col(0)),
                AggExpr::new(AggFunc::CountStar, Expr::lit_i64(1)),
            ],
            out,
        );
        assert_eq!(b.num_rows(), 1);
        assert!(!b.columns[0].is_valid(0)); // SUM of nothing is NULL
        assert_eq!(b.columns[1].i64s(), &[0]); // COUNT(*) is 0
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let schema = Schema::shared(&[("x", DataType::I64)]);
        let input = Batch::new(
            schema,
            vec![Column::with_validity(
                ColumnData::I64(vec![1, 2, 3]),
                vec![true, false, true],
            )],
        );
        let out = Schema::shared(&[("c", DataType::I64), ("cs", DataType::I64)]);
        let b = hash_aggregate(
            &[input],
            &[],
            &[
                AggExpr::new(AggFunc::Count, Expr::col(0)),
                AggExpr::new(AggFunc::CountStar, Expr::col(0)),
            ],
            out,
        );
        assert_eq!(b.columns[0].i64s(), &[2]);
        assert_eq!(b.columns[1].i64s(), &[3]);
    }

    #[test]
    fn min_max_and_count_distinct() {
        let out = Schema::shared(&[
            ("flag", DataType::Str),
            ("mn", DataType::I64),
            ("mx", DataType::I64),
            ("nd", DataType::I64),
        ]);
        let b = hash_aggregate(
            &lineitem_like(),
            &[Expr::col(0)],
            &[
                AggExpr::new(AggFunc::Min, Expr::col(1)),
                AggExpr::new(AggFunc::Max, Expr::col(1)),
                AggExpr::new(AggFunc::CountDistinct, Expr::col(0)),
            ],
            out,
        );
        assert_eq!(b.columns[1].i64s(), &[10, 20]);
        assert_eq!(b.columns[2].i64s(), &[50, 40]);
        assert_eq!(b.columns[3].i64s(), &[1, 1]);
    }

    #[test]
    fn expression_group_keys() {
        // GROUP BY qty % 2.
        let out = Schema::shared(&[("parity", DataType::I64), ("cnt", DataType::I64)]);
        let b = hash_aggregate(
            &lineitem_like(),
            &[Expr::Binary {
                op: crate::expr::BinOp::Mod,
                lhs: Box::new(Expr::col(1)),
                rhs: Box::new(Expr::lit_i64(2)),
            }],
            &[AggExpr::new(AggFunc::CountStar, Expr::lit_i64(1))],
            out,
        );
        assert_eq!(b.num_rows(), 1); // all quantities are even
        assert_eq!(b.columns[1].i64s(), &[5]);
    }
}
