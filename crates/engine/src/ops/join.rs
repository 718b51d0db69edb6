//! Hash joins.
//!
//! The engine supports the join shapes Cackle's plans use (§7.1.4: all
//! joins are either broadcast or partitioned hash joins — the broadcast vs
//! partitioned distinction lives in the *plan* via exchange modes; this
//! operator only sees a build side and a probe side).
//!
//! Output column order is **probe columns followed by build columns** for
//! `Inner`/`Left`; `Semi`/`Anti` emit probe columns only.

use crate::batch::Batch;
use crate::column::Column;
use crate::expr::Expr;
use crate::kernels::hash::KeyScratch;
use crate::kernels::join::{probe_pairs, semi_anti_rows, KeyIndex};
use crate::schema::SchemaRef;

/// Supported join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Matching pairs only.
    Inner,
    /// Every probe row; build columns null when unmatched
    /// (`probe LEFT OUTER JOIN build`).
    Left,
    /// Probe rows with at least one match (EXISTS).
    Semi,
    /// Probe rows with no match (NOT EXISTS).
    Anti,
}

/// A materialized hash table over the build side, reusable across many
/// probe batches (and across tasks for broadcast joins).
pub struct JoinHashTable {
    /// Typed key index into the concatenated build batch (a direct `i64`
    /// map for single-integer keys, canonical key bytes otherwise).
    index: KeyIndex,
    /// The concatenated build side.
    build: Batch,
}

impl JoinHashTable {
    /// Build the table: concatenate `build` batches and index them by
    /// `build_keys`. Rows with a null key are excluded (SQL join semantics:
    /// null keys match nothing).
    pub fn build(build_schema: SchemaRef, build: &[Batch], build_keys: &[Expr]) -> Self {
        let build = Batch::concat(build_schema, build);
        let key_cols: Vec<_> = build_keys.iter().map(|e| e.eval_borrowed(&build)).collect();
        let key_refs: Vec<&Column> = key_cols.iter().map(|c| c.as_ref()).collect();
        let index = KeyIndex::build(&key_refs, build.num_rows());
        JoinHashTable { index, build }
    }

    /// Number of indexed build rows.
    pub fn build_rows(&self) -> usize {
        self.build.num_rows()
    }

    /// Probe with one batch. `output` must match the documented column
    /// order for the join type.
    pub fn probe(
        &self,
        probe: &Batch,
        probe_keys: &[Expr],
        join_type: JoinType,
        output: SchemaRef,
    ) -> Batch {
        let key_cols: Vec<_> = probe_keys.iter().map(|e| e.eval_borrowed(probe)).collect();
        let key_refs: Vec<&Column> = key_cols.iter().map(|c| c.as_ref()).collect();
        let n = probe.num_rows();
        // The probe batch's encoded keys (byte keys only); the table is
        // shared across tasks, so the scratch is the caller's.
        let mut scratch = KeyScratch::default();

        match join_type {
            JoinType::Semi | JoinType::Anti => {
                let want_match = join_type == JoinType::Semi;
                // One selection for every column, sized to the probe side.
                let mut rows: Vec<usize> = Vec::with_capacity(n);
                semi_anti_rows(
                    &self.index,
                    &key_refs,
                    n,
                    want_match,
                    &mut rows,
                    &mut scratch,
                );
                Batch::new(output, probe.take(&rows).columns)
            }
            JoinType::Inner | JoinType::Left => {
                // Pre-size to the probe side: the common join shape is
                // roughly one match per probe row, and a left join's
                // unmatched set is bounded by n exactly.
                let mut probe_idx: Vec<usize> = Vec::with_capacity(n);
                let mut build_idx: Vec<usize> = Vec::with_capacity(n);
                // For Left, rows with no match pair with a sentinel; only
                // that variant ever fills this, so only it pre-sizes.
                let mut unmatched: Vec<usize> = match join_type {
                    JoinType::Left => Vec::with_capacity(n),
                    _ => Vec::new(),
                };
                probe_pairs(
                    &self.index,
                    &key_refs,
                    n,
                    &mut probe_idx,
                    &mut build_idx,
                    (join_type == JoinType::Left).then_some(&mut unmatched),
                    &mut scratch,
                );
                // Unmatched probe rows follow the matched pairs: the probe
                // side is one gather over both, the build side is its
                // matches with one null row per unmatched probe row after.
                probe_idx.extend_from_slice(&unmatched);
                let probe_cols = probe.take(&probe_idx).columns;
                let mut build_cols = self.build.take(&build_idx).columns;
                if !unmatched.is_empty() {
                    for c in &mut build_cols {
                        *c = Column::concat(&[c, &Column::nulls(c.data_type(), unmatched.len())]);
                    }
                }
                let columns = probe_cols.into_iter().chain(build_cols).collect();
                Batch::new(output, columns)
            }
        }
    }
}

/// One-shot join over fully materialized inputs.
pub fn hash_join(
    build_schema: SchemaRef,
    build: &[Batch],
    probe: &[Batch],
    build_keys: &[Expr],
    probe_keys: &[Expr],
    join_type: JoinType,
    output: SchemaRef,
) -> Vec<Batch> {
    let table = JoinHashTable::build(build_schema, build, build_keys);
    probe
        .iter()
        .map(|p| table.probe(p, probe_keys, join_type, output.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::types::{DataType, Value};

    fn orders() -> (SchemaRef, Vec<Batch>) {
        let schema = Schema::shared(&[("o_key", DataType::I64), ("o_cust", DataType::I64)]);
        let b = Batch::new(
            schema.clone(),
            vec![
                Column::from_i64(vec![100, 101, 102, 103]),
                Column::from_i64(vec![1, 2, 1, 3]),
            ],
        );
        (schema, vec![b])
    }

    fn customers() -> (SchemaRef, Vec<Batch>) {
        let schema = Schema::shared(&[("c_key", DataType::I64), ("c_name", DataType::Str)]);
        let b = Batch::new(
            schema.clone(),
            vec![
                Column::from_i64(vec![1, 2, 4]),
                Column::from_str_vec(vec!["alice".into(), "bob".into(), "dana".into()]),
            ],
        );
        (schema, vec![b])
    }

    #[test]
    fn inner_join_matches_pairs() {
        let (cs, cust) = customers();
        let (_, ord) = orders();
        let out = Schema::shared(&[
            ("o_key", DataType::I64),
            ("o_cust", DataType::I64),
            ("c_key", DataType::I64),
            ("c_name", DataType::Str),
        ]);
        // build = customers, probe = orders.
        let res = hash_join(
            cs,
            &cust,
            &ord,
            &[Expr::col(0)],
            &[Expr::col(1)],
            JoinType::Inner,
            out,
        );
        let b = &res[0];
        assert_eq!(b.num_rows(), 3); // orders 100,101,102 match; 103 (cust 3) doesn't
        assert_eq!(b.columns[0].i64s(), &[100, 101, 102]);
        assert_eq!(&b.columns[3].strs()[0], "alice");
    }

    #[test]
    fn left_join_fills_nulls() {
        let (cs, cust) = customers();
        let (os, ord) = orders();
        // customers LEFT JOIN orders: probe = customers, build = orders.
        let out = Schema::shared(&[
            ("c_key", DataType::I64),
            ("c_name", DataType::Str),
            ("o_key", DataType::I64),
            ("o_cust", DataType::I64),
        ]);
        let res = hash_join(
            os,
            &ord,
            &cust,
            &[Expr::col(1)],
            &[Expr::col(0)],
            JoinType::Left,
            out,
        );
        let b = &res[0];
        // alice×2 orders + bob×1 + dana (no orders, null-filled) = 4 rows.
        assert_eq!(b.num_rows(), 4);
        let dana_row = (0..4).find(|&i| &b.columns[1].strs()[i] == "dana").unwrap();
        assert_eq!(b.columns[2].value(dana_row), Value::Null);
        assert_eq!(b.columns[0].value(dana_row), Value::I64(4));
        let _ = cs;
    }

    #[test]
    fn semi_and_anti() {
        let (cs, cust) = customers();
        let (_, ord) = orders();
        let out_semi = Schema::shared(&[("c_key", DataType::I64), ("c_name", DataType::Str)]);
        // customers WHERE EXISTS order.
        let (os, _) = orders();
        let res = hash_join(
            os.clone(),
            &ord,
            &cust,
            &[Expr::col(1)],
            &[Expr::col(0)],
            JoinType::Semi,
            out_semi.clone(),
        );
        assert_eq!(res[0].num_rows(), 2); // alice, bob
        let res = hash_join(
            os,
            &ord,
            &cust,
            &[Expr::col(1)],
            &[Expr::col(0)],
            JoinType::Anti,
            out_semi,
        );
        assert_eq!(res[0].num_rows(), 1); // dana
        assert_eq!(&res[0].columns[1].strs()[0], "dana");
        let _ = cs;
    }

    #[test]
    fn null_keys_never_match() {
        let schema = Schema::shared(&[("k", DataType::I64)]);
        let build = Batch::new(
            schema.clone(),
            vec![Column::with_validity(
                crate::column::ColumnData::I64(vec![1, 0]),
                vec![true, false],
            )],
        );
        let probe = Batch::new(
            schema.clone(),
            vec![Column::with_validity(
                crate::column::ColumnData::I64(vec![1, 0]),
                vec![true, false],
            )],
        );
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
        // Only the valid 1=1 pair: null keys on either side match nothing.
        assert_eq!(res[0].num_rows(), 1);
        assert_eq!(res[0].columns[0].i64s(), &[1]);
    }

    #[test]
    fn duplicate_build_keys_multiply() {
        let schema = Schema::shared(&[("k", DataType::I64)]);
        let build = Batch::new(schema.clone(), vec![Column::from_i64(vec![5, 5, 5])]);
        let probe = Batch::new(schema.clone(), vec![Column::from_i64(vec![5, 6])]);
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
        assert_eq!(res[0].num_rows(), 3);
    }

    #[test]
    fn reusable_table_across_probes() {
        let (cs, cust) = customers();
        let table = JoinHashTable::build(cs, &cust, &[Expr::col(0)]);
        assert_eq!(table.build_rows(), 3);
        let (_, ord) = orders();
        let out = Schema::shared(&[
            ("o_key", DataType::I64),
            ("o_cust", DataType::I64),
            ("c_key", DataType::I64),
            ("c_name", DataType::Str),
        ]);
        let r1 = table.probe(&ord[0], &[Expr::col(1)], JoinType::Inner, out.clone());
        let r2 = table.probe(&ord[0], &[Expr::col(1)], JoinType::Inner, out);
        assert_eq!(r1, r2);
    }
}
