//! Record batches: the unit of vectorized execution.

use crate::column::Column;
use crate::schema::SchemaRef;
use crate::types::Value;

/// The number of rows an operator processes per batch. 4 K keeps working
/// sets cache-resident while amortizing per-batch overhead.
pub const BATCH_SIZE: usize = 4096;

/// A horizontal slice of rows for a fixed schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Schema shared by all batches of the same stream.
    pub schema: SchemaRef,
    /// One column per schema field, all the same length.
    pub columns: Vec<Column>,
}

impl Batch {
    /// Build a batch, checking column count and row-length agreement.
    pub fn new(schema: SchemaRef, columns: Vec<Column>) -> Self {
        assert_eq!(schema.len(), columns.len(), "column count != schema width");
        if let Some(first) = columns.first() {
            for (i, c) in columns.iter().enumerate() {
                assert_eq!(c.len(), first.len(), "column {i} length mismatch");
                debug_assert_eq!(
                    c.data_type(),
                    schema.field(i).dtype,
                    "column {i} type mismatch with schema"
                );
            }
        }
        Batch { schema, columns }
    }

    /// An empty batch for a schema.
    pub fn empty(schema: SchemaRef) -> Self {
        let columns = schema
            .fields
            .iter()
            .map(|f| Column::nulls(f.dtype, 0))
            .collect();
        Batch { schema, columns }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The column with the given schema name.
    pub fn column_by_name(&self, name: &str) -> &Column {
        &self.columns[self.schema.index_of(name)]
    }

    /// The full row at `i` as owned values (for result rendering and tests).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.filter(mask)).collect(),
        }
    }

    /// Copy the contiguous row range `start..end` into a new batch —
    /// the no-index-vector fast path for `take(&(start..end)...)`.
    pub fn slice(&self, start: usize, end: usize) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(start, end)).collect(),
        }
    }

    /// Gather rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
        }
    }

    /// Concatenate batches sharing a schema. Returns an empty batch with
    /// `schema` if `parts` is empty.
    pub fn concat(schema: SchemaRef, parts: &[Batch]) -> Batch {
        if parts.is_empty() {
            return Batch::empty(schema);
        }
        let ncols = parts[0].num_columns();
        let columns = (0..ncols)
            .map(|ci| {
                let cols: Vec<&Column> = parts.iter().map(|b| &b.columns[ci]).collect();
                Column::concat(&cols)
            })
            .collect();
        Batch { schema, columns }
    }

    /// [`Batch::concat`] of parts the caller is done with: a single part
    /// is moved into the result instead of copied.
    pub fn concat_owned(schema: SchemaRef, parts: Vec<Batch>) -> Batch {
        match <[Batch; 1]>::try_from(parts) {
            Ok([only]) => Batch {
                schema,
                columns: only.columns,
            },
            Err(parts) => Batch::concat(schema, &parts),
        }
    }

    /// Approximate in-memory footprint in bytes, used for shuffle volume
    /// accounting and shuffle-node capacity decisions.
    pub fn byte_size(&self) -> u64 {
        use crate::column::ColumnData;
        self.columns
            .iter()
            .map(|c| {
                let data: u64 = match &c.data {
                    ColumnData::I64(v) => (v.len() * 8) as u64,
                    ColumnData::F64(v) => (v.len() * 8) as u64,
                    ColumnData::Date(v) => (v.len() * 4) as u64,
                    ColumnData::Bool(v) => v.len() as u64,
                    ColumnData::Str(v) => {
                        let length_bytes = 4 * v.len();
                        (v.byte_len() + length_bytes) as u64
                    }
                };
                data + c.validity.as_ref().map_or(0, |m| m.len() as u64 / 8 + 1)
            })
            .sum()
    }

    /// Borrow the columns at `indices` (which may repeat) under `schema`
    /// — the non-allocating form of projecting by cloning columns.
    pub fn project_view(&self, schema: SchemaRef, indices: &[usize]) -> BatchView<'_> {
        assert_eq!(
            schema.len(),
            indices.len(),
            "projection width != schema width"
        );
        BatchView {
            schema,
            columns: indices.iter().map(|&i| &self.columns[i]).collect(),
        }
    }

    /// Borrow every column (the identity projection).
    pub fn view(&self) -> BatchView<'_> {
        BatchView {
            schema: self.schema.clone(),
            columns: self.columns.iter().collect(),
        }
    }
}

/// A borrowed projection of a batch: a schema plus references into the
/// parent's columns, in projection order. Nothing is copied until
/// [`BatchView::to_batch`] or [`BatchView::gather`] materializes, so
/// kernels can select and reorder columns for free.
#[derive(Debug, Clone)]
pub struct BatchView<'a> {
    /// Schema of the projected view.
    pub schema: SchemaRef,
    /// Borrowed columns in projection order.
    pub columns: Vec<&'a Column>,
}

impl BatchView<'_> {
    /// Number of rows visible through the view.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of projected columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Materialize the view, cloning each borrowed column exactly once.
    pub fn to_batch(&self) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|&c| c.clone()).collect(),
        }
    }

    /// Gather rows at `indices` from only the projected columns — the
    /// fused filter+project path (gathering through a shared selection
    /// touches each projected column once and the others never).
    pub fn gather(&self, indices: &[usize]) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::types::DataType;

    fn sample() -> Batch {
        let schema = Schema::shared(&[("k", DataType::I64), ("v", DataType::F64)]);
        Batch::new(
            schema,
            vec![
                Column::from_i64(vec![1, 2, 3]),
                Column::from_f64(vec![0.5, 1.5, 2.5]),
            ],
        )
    }

    #[test]
    fn construction_and_access() {
        let b = sample();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.num_columns(), 2);
        assert_eq!(b.column_by_name("v").f64s()[1], 1.5);
        assert_eq!(b.row(2), vec![Value::I64(3), Value::F64(2.5)]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_columns_rejected() {
        let schema = Schema::shared(&[("a", DataType::I64), ("b", DataType::I64)]);
        Batch::new(
            schema,
            vec![Column::from_i64(vec![1]), Column::from_i64(vec![1, 2])],
        );
    }

    #[test]
    fn filter_take_concat() {
        let b = sample();
        let f = b.filter(&[true, false, true]);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.columns[0].i64s(), &[1, 3]);
        let t = b.take(&[2, 2]);
        assert_eq!(t.columns[1].f64s(), &[2.5, 2.5]);
        let c = Batch::concat(b.schema.clone(), &[f, t]);
        assert_eq!(c.num_rows(), 4);
        assert_eq!(c.columns[0].i64s(), &[1, 3, 3, 3]);
    }

    #[test]
    fn concat_empty_gives_empty() {
        let schema = Schema::shared(&[("a", DataType::Str)]);
        let c = Batch::concat(schema.clone(), &[]);
        assert_eq!(c.num_rows(), 0);
        assert_eq!(c.num_columns(), 1);
    }

    #[test]
    fn slice_matches_take_of_contiguous_range() {
        // Every type variant plus a validity mask, so the slice path is
        // checked against the gather path it stands in for.
        let schema = Schema::shared(&[
            ("i", DataType::I64),
            ("f", DataType::F64),
            ("s", DataType::Str),
            ("d", DataType::Date),
            ("b", DataType::Bool),
        ]);
        let b = Batch::new(
            schema,
            vec![
                Column::with_validity(
                    crate::column::ColumnData::I64(vec![1, 2, 3, 4, 5]),
                    vec![true, false, true, true, false],
                ),
                Column::from_f64(vec![0.1, 0.2, 0.3, 0.4, 0.5]),
                Column::from_str_vec(["a", "b", "c", "d", "e"].map(String::from).to_vec()),
                Column::new(crate::column::ColumnData::Date(vec![10, 11, 12, 13, 14])),
                Column::new(crate::column::ColumnData::Bool(vec![
                    true, true, false, true, false,
                ])),
            ],
        );
        for (start, end) in [(0, 5), (0, 0), (1, 4), (4, 5), (2, 2)] {
            let idx: Vec<usize> = (start..end).collect();
            let via_take = b.take(&idx);
            let via_slice = b.slice(start, end);
            assert_eq!(via_slice.num_rows(), end - start);
            for ci in 0..b.num_columns() {
                assert_eq!(
                    via_slice.columns[ci], via_take.columns[ci],
                    "slice({start},{end}) col {ci}"
                );
            }
        }
        // An all-valid window of a masked column normalizes, same as take.
        assert!(b.slice(2, 4).columns[0].validity.is_none());
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_rejects_out_of_range() {
        sample().slice(1, 4);
    }

    #[test]
    fn byte_size_counts_payload() {
        let b = sample();
        // 3*8 (i64) + 3*8 (f64)
        assert_eq!(b.byte_size(), 48);
    }

    #[test]
    fn project_view_borrows_and_materializes() {
        let b = sample();
        let schema = Schema::shared(&[("v", DataType::F64), ("k", DataType::I64)]);
        let view = b.project_view(schema.clone(), &[1, 0]);
        assert_eq!(view.num_rows(), 3);
        assert_eq!(view.num_columns(), 2);
        // Borrowed, not copied: same column allocation.
        assert!(std::ptr::eq(view.columns[0], &b.columns[1]));
        let owned = view.to_batch();
        assert_eq!(owned.columns[0].f64s(), &[0.5, 1.5, 2.5]);
        assert_eq!(owned.columns[1].i64s(), &[1, 2, 3]);
        // Gather through the view touches only projected columns.
        let g = view.gather(&[2, 0]);
        assert_eq!(g.columns[0].f64s(), &[2.5, 0.5]);
        assert_eq!(g.columns[1].i64s(), &[3, 1]);
        let id = b.view();
        assert_eq!(id.to_batch(), b);
    }

    #[test]
    #[should_panic(expected = "projection width")]
    fn project_view_rejects_width_mismatch() {
        let b = sample();
        let schema = Schema::shared(&[("k", DataType::I64)]);
        b.project_view(schema, &[0, 1]);
    }
}
