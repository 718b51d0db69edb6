//! Sort-by-permutation kernel.
//!
//! The legacy sort compared rows by materializing a [`crate::types::Value`]
//! per comparison — a `String` clone per string comparison, an enum
//! round-trip otherwise. The kernel compares borrowed typed slices
//! (strings as `&str` windows of the column's one buffer) and returns
//! the sorted row permutation; the caller gathers every column through
//! it once.

use crate::column::{Column, ColumnData};
use std::cmp::Ordering;

/// One typed sort key: borrowed column storage plus direction.
pub struct SortKeyCol<'a> {
    data: &'a ColumnData,
    validity: Option<&'a [bool]>,
    descending: bool,
}

impl<'a> SortKeyCol<'a> {
    /// Borrow `col` as a sort key.
    pub fn new(col: &'a Column, descending: bool) -> SortKeyCol<'a> {
        SortKeyCol {
            data: &col.data,
            validity: col.validity.as_deref(),
            descending,
        }
    }

    /// Compare rows `a` and `b` with the engine's SQL ordering: NULLS
    /// LAST ascending (first descending — the whole ordering reverses),
    /// f64 panicking on NaN exactly like `Value::sql_cmp` through the
    /// legacy `cmp_values`.
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        let av = self.validity.is_none_or(|m| m[a]);
        let bv = self.validity.is_none_or(|m| m[b]);
        let ord = match (av, bv) {
            (false, false) => Ordering::Equal,
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (true, true) => match self.data {
                ColumnData::I64(v) => v[a].cmp(&v[b]),
                ColumnData::F64(v) => v[a].partial_cmp(&v[b]).expect("comparable sort keys"),
                ColumnData::Str(v) => v[a].cmp(&v[b]),
                ColumnData::Date(v) => v[a].cmp(&v[b]),
                ColumnData::Bool(v) => v[a].cmp(&v[b]),
            },
        };
        if self.descending {
            ord.reverse()
        } else {
            ord
        }
    }
}

/// The row permutation that sorts by `keys`, ties broken by row index.
/// The index tiebreak makes the comparator a total order, so an unstable
/// sort yields the exact permutation a stable sort would — output bytes
/// match the legacy `sort_by` path.
pub fn sort_permutation(keys: &[SortKeyCol<'_>], nrows: usize, limit: Option<usize>) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..nrows).collect();
    indices.sort_unstable_by(|&a, &b| {
        for k in keys {
            let ord = k.cmp_rows(a, b);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b)
    });
    if let Some(l) = limit {
        indices.truncate(l);
    }
    indices
}
