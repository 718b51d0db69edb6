//! Columnar storage: typed column vectors with optional validity masks.

use crate::types::{DataType, Value};

/// The typed payload of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers.
    I64(Vec<i64>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// UTF-8 strings.
    Str(Vec<String>),
    /// Dates as days since epoch.
    Date(Vec<i32>),
    /// Booleans.
    Bool(Vec<bool>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `len` placeholder rows of type `dtype` (zero, empty, false).
    pub(crate) fn zeroed(dtype: DataType, len: usize) -> ColumnData {
        match dtype {
            DataType::I64 => ColumnData::I64(vec![0; len]),
            DataType::F64 => ColumnData::F64(vec![0.0; len]),
            DataType::Str => ColumnData::Str(vec![String::new(); len]),
            DataType::Date => ColumnData::Date(vec![0; len]),
            DataType::Bool => ColumnData::Bool(vec![false; len]),
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::I64(_) => DataType::I64,
            ColumnData::F64(_) => DataType::F64,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }
}

/// A column: typed values plus an optional validity mask (`true` = valid).
/// A missing mask means all rows are valid; TPC-H base data is null-free,
/// so masks appear only downstream of outer joins.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// The typed values. Rows where the validity mask is `false` hold an
    /// arbitrary placeholder.
    pub data: ColumnData,
    /// Per-row validity; `None` means every row is valid.
    pub validity: Option<Vec<bool>>,
}

impl Column {
    /// A fully valid column from raw data.
    pub fn new(data: ColumnData) -> Self {
        Column {
            data,
            validity: None,
        }
    }

    /// A column with explicit validity. Panics if lengths differ. A mask of
    /// all-true is normalized away.
    pub fn with_validity(data: ColumnData, validity: Vec<bool>) -> Self {
        assert_eq!(data.len(), validity.len(), "validity length mismatch");
        if validity.iter().all(|&v| v) {
            Column {
                data,
                validity: None,
            }
        } else {
            Column {
                data,
                validity: Some(validity),
            }
        }
    }

    /// Convenience constructors.
    pub fn from_i64(v: Vec<i64>) -> Self {
        Column::new(ColumnData::I64(v))
    }
    /// Float column.
    pub fn from_f64(v: Vec<f64>) -> Self {
        Column::new(ColumnData::F64(v))
    }
    /// String column.
    pub fn from_str_vec(v: Vec<String>) -> Self {
        Column::new(ColumnData::Str(v))
    }
    /// Date column.
    pub fn from_date(v: Vec<i32>) -> Self {
        Column::new(ColumnData::Date(v))
    }
    /// Bool column.
    pub fn from_bool(v: Vec<bool>) -> Self {
        Column::new(ColumnData::Bool(v))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Is row `i` valid (non-null)?
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|m| m[i])
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.validity
            .as_ref()
            .map_or(0, |m| m.iter().filter(|&&v| !v).count())
    }

    /// The value at row `i` as an owned [`Value`] (Null if invalid).
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::I64(v) => Value::I64(v[i]),
            ColumnData::F64(v) => Value::F64(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// Gather the rows at `indices` into a new column.
    pub fn take(&self, indices: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::I64(v) => ColumnData::I64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::F64(v) => ColumnData::F64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(v) => ColumnData::Str(indices.iter().map(|&i| v[i].clone()).collect()),
            ColumnData::Date(v) => ColumnData::Date(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
        };
        let validity = self
            .validity
            .as_ref()
            .map(|m| indices.iter().map(|&i| m[i]).collect::<Vec<bool>>());
        match validity {
            Some(v) => Column::with_validity(data, v),
            None => Column::new(data),
        }
    }

    /// Copy the contiguous row range `start..end` into a new column.
    /// Equivalent to `take(&(start..end).collect::<Vec<_>>())` without
    /// materializing the index vector: the range maps to one slice copy
    /// per buffer. Panics if `start > end` or `end > len`.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        self.borrowed_slice(start, end).to_column()
    }

    /// Borrow the contiguous row range `start..end` as a
    /// [`ColumnSlice`] view — no buffer is copied or allocated. Panics
    /// if `start > end` or `end > len`.
    pub fn borrowed_slice(&self, start: usize, end: usize) -> ColumnSlice<'_> {
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        ColumnSlice {
            data: &self.data,
            validity: self.validity.as_deref(),
            start,
            len: end - start,
        }
    }

    /// Keep only rows where `mask` is true. Panics if lengths differ.
    pub fn filter(&self, mask: &[bool]) -> Column {
        assert_eq!(mask.len(), self.len(), "filter mask length mismatch");
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i)
            .collect();
        self.take(&indices)
    }

    /// Concatenate columns of the same type into one.
    pub fn concat(parts: &[Column]) -> Column {
        assert!(!parts.is_empty(), "concat of zero columns");
        let dt = parts[0].data_type();
        let total: usize = parts.iter().map(|c| c.len()).sum();
        let any_nulls = parts.iter().any(|c| c.validity.is_some());
        let mut validity = if any_nulls {
            Some(Vec::with_capacity(total))
        } else {
            None
        };
        if let Some(v) = validity.as_mut() {
            for p in parts {
                match &p.validity {
                    Some(m) => v.extend_from_slice(m),
                    None => v.extend(std::iter::repeat_n(true, p.len())),
                }
            }
        }
        macro_rules! cat {
            ($variant:ident, $ty:ty) => {{
                let mut out: Vec<$ty> = Vec::with_capacity(total);
                for p in parts {
                    match &p.data {
                        ColumnData::$variant(v) => out.extend_from_slice(v),
                        other => panic!("concat type mismatch: {dt} vs {}", other.data_type()),
                    }
                }
                ColumnData::$variant(out)
            }};
        }
        let data = match dt {
            DataType::I64 => cat!(I64, i64),
            DataType::F64 => cat!(F64, f64),
            DataType::Str => cat!(Str, String),
            DataType::Date => cat!(Date, i32),
            DataType::Bool => cat!(Bool, bool),
        };
        match validity {
            Some(v) => Column::with_validity(data, v),
            None => Column::new(data),
        }
    }

    /// An all-null column of `len` rows and the given type.
    pub fn nulls(dtype: DataType, len: usize) -> Column {
        let data = ColumnData::zeroed(dtype, len);
        if len == 0 {
            Column::new(data)
        } else {
            Column {
                data,
                validity: Some(vec![false; len]),
            }
        }
    }

    /// Slices of the underlying typed vectors (panicking accessors used by
    /// vectorized kernels that have already checked the type).
    pub fn i64s(&self) -> &[i64] {
        match &self.data {
            ColumnData::I64(v) => v,
            other => panic!("expected i64 column, got {}", other.data_type()),
        }
    }
    /// f64 slice accessor.
    pub fn f64s(&self) -> &[f64] {
        match &self.data {
            ColumnData::F64(v) => v,
            other => panic!("expected f64 column, got {}", other.data_type()),
        }
    }
    /// String slice accessor.
    pub fn strs(&self) -> &[String] {
        match &self.data {
            ColumnData::Str(v) => v,
            other => panic!("expected str column, got {}", other.data_type()),
        }
    }
    /// Date slice accessor.
    pub fn dates(&self) -> &[i32] {
        match &self.data {
            ColumnData::Date(v) => v,
            other => panic!("expected date column, got {}", other.data_type()),
        }
    }
    /// Bool slice accessor.
    pub fn bools(&self) -> &[bool] {
        match &self.data {
            ColumnData::Bool(v) => v,
            other => panic!("expected bool column, got {}", other.data_type()),
        }
    }
}

/// A borrowed window over a column's rows: the non-allocating
/// counterpart of [`Column::slice`]. Row indices are relative to the
/// window start; nothing is copied until [`ColumnSlice::to_column`]
/// materializes the window.
#[derive(Debug, Clone, Copy)]
pub struct ColumnSlice<'a> {
    data: &'a ColumnData,
    validity: Option<&'a [bool]>,
    start: usize,
    len: usize,
}

impl ColumnSlice<'_> {
    /// Rows in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element type of the underlying column.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Validity of window row `i`.
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "row {i} out of window of {}", self.len);
        self.validity.is_none_or(|m| m[self.start + i])
    }

    /// The value at window row `i` as an owned [`Value`] (Null if invalid).
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        let i = self.start + i;
        match self.data {
            ColumnData::I64(v) => Value::I64(v[i]),
            ColumnData::F64(v) => Value::F64(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// Render window row `i` into `out` exactly as [`Value`]'s `Display`
    /// would, without materializing a `Value` (in particular, no string
    /// clone per cell).
    pub fn write_value(&self, out: &mut String, i: usize) {
        use std::fmt::Write as _;
        if !self.is_valid(i) {
            out.push_str("NULL");
            return;
        }
        let i = self.start + i;
        match self.data {
            ColumnData::I64(v) => {
                let _ = write!(out, "{}", v[i]);
            }
            ColumnData::F64(v) => {
                let _ = write!(out, "{:.4}", v[i]);
            }
            ColumnData::Str(v) => out.push_str(&v[i]),
            ColumnData::Date(v) => {
                let (y, m, d) = crate::types::date::to_ymd(v[i]);
                let _ = write!(out, "{y:04}-{m:02}-{d:02}");
            }
            ColumnData::Bool(v) => {
                let _ = write!(out, "{}", v[i]);
            }
        }
    }

    /// Materialize the window as an owned [`Column`]: one slice copy per
    /// buffer. An all-valid window of a masked column normalizes to
    /// `validity: None`, exactly as [`Column::take`] does.
    pub fn to_column(&self) -> Column {
        let (start, end) = (self.start, self.start + self.len);
        let data = match self.data {
            ColumnData::I64(v) => ColumnData::I64(v[start..end].to_vec()),
            ColumnData::F64(v) => ColumnData::F64(v[start..end].to_vec()),
            ColumnData::Str(v) => ColumnData::Str(v[start..end].to_vec()),
            ColumnData::Date(v) => ColumnData::Date(v[start..end].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[start..end].to_vec()),
        };
        match self.validity {
            Some(m) => Column::with_validity(data, m[start..end].to_vec()),
            None => Column::new(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_and_validity() {
        let c = Column::with_validity(ColumnData::I64(vec![1, 2, 3]), vec![true, false, true]);
        assert_eq!(c.value(0), Value::I64(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.null_count(), 1);
        assert!(!c.is_valid(1));
    }

    #[test]
    fn all_true_mask_normalizes_away() {
        let c = Column::with_validity(ColumnData::I64(vec![1, 2]), vec![true, true]);
        assert!(c.validity.is_none());
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn take_and_filter() {
        let c = Column::from_i64(vec![10, 20, 30, 40]);
        let t = c.take(&[3, 0, 3]);
        assert_eq!(t.i64s(), &[40, 10, 40]);
        let f = c.filter(&[true, false, false, true]);
        assert_eq!(f.i64s(), &[10, 40]);
    }

    #[test]
    fn take_preserves_validity() {
        let c = Column::with_validity(
            ColumnData::Str(vec!["a".into(), "b".into()]),
            vec![false, true],
        );
        let t = c.take(&[1, 0, 1]);
        assert_eq!(t.value(0), Value::Str("b".into()));
        assert_eq!(t.value(1), Value::Null);
        assert_eq!(t.null_count(), 1);
    }

    #[test]
    fn concat_mixed_validity() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::with_validity(ColumnData::I64(vec![3, 4]), vec![false, true]);
        let c = Column::concat(&[a, b]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(2), Value::Null);
        assert_eq!(c.value(3), Value::I64(4));
    }

    #[test]
    fn nulls_column() {
        let c = Column::nulls(DataType::F64, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 3);
        assert_eq!(c.data_type(), DataType::F64);
    }

    #[test]
    #[should_panic(expected = "expected i64 column")]
    fn wrong_accessor_panics() {
        Column::from_f64(vec![1.0]).i64s();
    }

    #[test]
    fn borrowed_slice_windows_without_copying() {
        let c = Column::with_validity(
            ColumnData::I64(vec![10, 20, 30, 40]),
            vec![true, false, true, true],
        );
        let s = c.borrowed_slice(1, 4);
        assert_eq!(s.len(), 3);
        assert!(!s.is_valid(0)); // window row 0 = column row 1
        assert_eq!(s.value(1), Value::I64(30));
        assert_eq!(s.to_column(), c.slice(1, 4));
        // All-valid window normalizes validity away on materialization.
        assert!(c.borrowed_slice(2, 4).to_column().validity.is_none());
    }

    #[test]
    fn write_value_matches_value_display() {
        let cols = [
            Column::with_validity(ColumnData::I64(vec![7, 0]), vec![true, false]),
            Column::from_f64(vec![1.5, 2.0]),
            Column::from_str_vec(vec!["ab".into(), "cd".into()]),
            Column::new(ColumnData::Date(vec![0, 10_000])),
            Column::new(ColumnData::Bool(vec![true, false])),
        ];
        for c in &cols {
            let s = c.borrowed_slice(0, c.len());
            for i in 0..c.len() {
                let mut got = String::new();
                s.write_value(&mut got, i);
                assert_eq!(got, c.value(i).to_string(), "col {} row {i}", c.data_type());
            }
        }
    }
}
