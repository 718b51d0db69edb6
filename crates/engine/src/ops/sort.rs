//! Sorting and top-k.
//!
//! Comparison runs through the typed [`crate::kernels::sort`] kernel —
//! borrowed slices, no [`crate::types::Value`] materialized per
//! comparison. The row-at-a-time original survives as
//! [`crate::reference::row_sort`].

use crate::batch::Batch;
use crate::expr::Expr;
use crate::kernels::sort::{sort_permutation, SortKeyCol};
use crate::schema::SchemaRef;

/// One sort key: an expression and a direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Key expression over the input schema.
    pub expr: Expr,
    /// Descending order when true.
    pub descending: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(expr: Expr) -> Self {
        SortKey {
            expr,
            descending: false,
        }
    }
    /// Descending key.
    pub fn desc(expr: Expr) -> Self {
        SortKey {
            expr,
            descending: true,
        }
    }
}

/// Sort the concatenation of `batches` by `keys`, optionally keeping only
/// the first `limit` rows. Ties preserve input order (deterministic
/// output for deterministic input — the kernel's index tiebreak is
/// equivalent to a stable sort).
pub fn sort(schema: SchemaRef, batches: &[Batch], keys: &[SortKey], limit: Option<usize>) -> Batch {
    let all = Batch::concat(schema, batches);
    let n = all.num_rows();
    let key_cols: Vec<_> = keys.iter().map(|k| k.expr.eval_borrowed(&all)).collect();
    let sort_keys: Vec<SortKeyCol<'_>> = keys
        .iter()
        .zip(&key_cols)
        .map(|(k, c)| SortKeyCol::new(c, k.descending))
        .collect();
    let indices = sort_permutation(&sort_keys, n, limit);
    all.take(&indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnData};
    use crate::schema::Schema;
    use crate::types::DataType;

    fn input() -> (SchemaRef, Vec<Batch>) {
        let schema = Schema::shared(&[("k", DataType::I64), ("v", DataType::Str)]);
        let b1 = Batch::new(
            schema.clone(),
            vec![
                Column::from_i64(vec![3, 1]),
                Column::from_str_vec(vec!["c".into(), "a".into()]),
            ],
        );
        let b2 = Batch::new(
            schema.clone(),
            vec![
                Column::from_i64(vec![2, 1]),
                Column::from_str_vec(vec!["b".into(), "a2".into()]),
            ],
        );
        (schema, vec![b1, b2])
    }

    #[test]
    fn ascending_descending() {
        let (s, bs) = input();
        let asc = sort(s.clone(), &bs, &[SortKey::asc(Expr::col(0))], None);
        assert_eq!(asc.columns[0].i64s(), &[1, 1, 2, 3]);
        // Stable: "a" (batch 1) before "a2" (batch 2).
        assert_eq!(&asc.columns[1].strs()[0], "a");
        assert_eq!(&asc.columns[1].strs()[1], "a2");
        let desc = sort(s, &bs, &[SortKey::desc(Expr::col(0))], None);
        assert_eq!(desc.columns[0].i64s(), &[3, 2, 1, 1]);
    }

    #[test]
    fn top_k() {
        let (s, bs) = input();
        let top2 = sort(s, &bs, &[SortKey::desc(Expr::col(0))], Some(2));
        assert_eq!(top2.num_rows(), 2);
        assert_eq!(top2.columns[0].i64s(), &[3, 2]);
    }

    #[test]
    fn multi_key_and_nulls_last() {
        let schema = Schema::shared(&[("a", DataType::I64), ("b", DataType::I64)]);
        let b = Batch::new(
            schema.clone(),
            vec![
                Column::with_validity(
                    ColumnData::I64(vec![1, 1, 0, 2]),
                    vec![true, true, false, true],
                ),
                Column::from_i64(vec![9, 8, 7, 6]),
            ],
        );
        let out = sort(
            schema,
            &[b],
            &[SortKey::asc(Expr::col(0)), SortKey::asc(Expr::col(1))],
            None,
        );
        // nulls last; within a=1, sorted by b.
        assert_eq!(out.columns[1].i64s(), &[8, 9, 6, 7]);
        assert!(!out.columns[0].is_valid(3));
    }
}
