//! Columnar storage: typed column vectors with optional validity masks.
//!
//! Four of the five types are a plain `Vec` of fixed-width values. Strings
//! are a [`StrColumn`]: one `u32` code per row into a shared [`StrDict`],
//! whose entries are `len + 1` `u32` offsets over one UTF-8 buffer
//! (Arrow's layout). Cloning, gathering and slicing a string column copy
//! its codes and share the dictionary, so they touch no string bytes and
//! allocate nothing per row. A column built row by row or decoded from
//! the wire codes against a dictionary of its own rows (the identity
//! coding); `dbgen` codes each list-picked column against one dictionary
//! of the list. There is one string representation; see DESIGN.md §12
//! "String columns".

use crate::types::{DataType, Value};
use std::sync::Arc;

/// The strings a [`StrColumn`] codes against: entry `i` is
/// `bytes[offsets[i]..offsets[i + 1]]`. Entries may repeat and a column
/// need not use them all; they are only ever appended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrDict {
    offsets: Vec<u32>,
    bytes: String,
}

impl StrDict {
    /// An empty dictionary with room for `entries` strings of `bytes`
    /// bytes in total.
    fn with_capacity(entries: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(entries + 1);
        offsets.push(0);
        StrDict {
            offsets,
            bytes: String::with_capacity(bytes),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `code`. Panics if out of range.
    pub fn get(&self, code: u32) -> &str {
        let code = code as usize;
        &self.bytes[self.offsets[code] as usize..self.offsets[code + 1] as usize]
    }

    /// Entry `code` as bytes, without `str` slicing's character boundary
    /// checks.
    #[inline]
    fn bytes_of(&self, code: u32) -> &[u8] {
        let code = code as usize;
        &self.bytes.as_bytes()[self.offsets[code] as usize..self.offsets[code + 1] as usize]
    }

    /// Entry `code`'s length in bytes.
    #[inline]
    fn len_of(&self, code: u32) -> u32 {
        self.offsets[code as usize + 1] - self.offsets[code as usize]
    }

    /// The entries in code order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.bytes[w[0] as usize..w[1] as usize])
    }

    /// Append `s` as a new entry and return its code. Panics when the
    /// dictionary would outgrow its `u32` offsets (4 GiB of string data;
    /// batches are chunked far below).
    fn push(&mut self, s: &str) -> u32 {
        let code = u32::try_from(self.len()).expect("string dictionary exceeds u32 codes");
        self.bytes.push_str(s);
        let end = u32::try_from(self.bytes.len()).expect("string dictionary exceeds u32 offsets");
        self.offsets.push(end);
        code
    }

    /// Append entries `first..first + count` of `other` — one copy of
    /// their bytes, one pass rebasing their offsets — and return the
    /// code of the first. Panics as [`StrDict::push`] does.
    fn extend_from_entries(&mut self, other: &StrDict, first: u32, count: u32) -> u32 {
        let code = u32::try_from(self.len() + count as usize)
            .map(|end| end - count)
            .expect("string dictionary exceeds u32 codes");
        let window = &other.offsets[first as usize..=(first + count) as usize];
        let (start, end) = (window[0], window[count as usize]);
        let base = u32::try_from(self.bytes.len())
            .ok()
            .filter(|base| base.checked_add(end - start).is_some())
            .expect("string dictionary exceeds u32 offsets");
        self.bytes
            .push_str(&other.bytes[start as usize..end as usize]);
        self.offsets
            .extend(window[1..].iter().map(|o| base + (o - start)));
        code
    }

    fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.bytes.shrink_to_fit();
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrDict {
    fn from_iter<I: IntoIterator<Item = S>>(entries: I) -> Self {
        let entries = entries.into_iter();
        let mut out = StrDict::with_capacity(entries.size_hint().0, 0);
        for s in entries {
            out.push(s.as_ref());
        }
        out
    }
}

/// A column of UTF-8 strings: row `i` is entry `codes[i]` of a shared
/// [`StrDict`].
///
/// Every code is in range of the dictionary — the fields are private,
/// and rows are only ever appended ([`push`], [`push_code`],
/// [`extend_from_range`]) or cut from another column — and `PartialEq`
/// is equality of content: the rows in order, whatever dictionary each
/// side codes against.
///
/// [`push`]: StrColumn::push
/// [`push_code`]: StrColumn::push_code
/// [`extend_from_range`]: StrColumn::extend_from_range
#[derive(Debug, Clone)]
pub struct StrColumn {
    codes: Vec<u32>,
    dict: Arc<StrDict>,
}

impl StrColumn {
    /// An empty column.
    pub fn new() -> Self {
        StrColumn::with_capacity(0, 0)
    }

    /// An empty column with room for `rows` strings of `bytes` bytes in
    /// total, each of which [`StrColumn::push`] adds to a dictionary of
    /// the column's own.
    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        StrColumn::with_dict(Arc::new(StrDict::with_capacity(rows, bytes)), rows)
    }

    /// An empty column coded against `dict`, with room for `rows` rows.
    pub fn with_dict(dict: Arc<StrDict>, rows: usize) -> Self {
        StrColumn {
            codes: Vec::with_capacity(rows),
            dict,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of the rows' strings: an entry counts once per row
    /// that uses it.
    pub fn byte_len(&self) -> usize {
        self.lengths().map(|len| len as usize).sum()
    }

    /// Row `i`. Panics if out of range.
    pub fn get(&self, i: usize) -> &str {
        self.dict.get(self.codes[i])
    }

    /// The rows in order.
    pub fn iter(&self) -> StrIter<'_> {
        StrIter {
            codes: self.codes.iter(),
            dict: &self.dict,
        }
    }

    /// The dictionary the column codes against.
    pub fn dict(&self) -> &Arc<StrDict> {
        &self.dict
    }

    /// Each row's code into [`StrColumn::dict`].
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The rows in order as bytes, without `str` slicing's character
    /// boundary checks: the byte-key kernels' view.
    pub(crate) fn byte_rows(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.codes.iter().map(|&c| self.dict.bytes_of(c))
    }

    /// Row `i` as bytes, as [`StrColumn::byte_rows`] has it.
    pub(crate) fn row_bytes(&self, i: usize) -> &[u8] {
        self.dict.bytes_of(self.codes[i])
    }

    /// Every row's bytes, concatenated, in as few pieces as runs allow:
    /// rows that code to consecutive entries come as one slice, so an
    /// identity-coded column is one.
    pub(crate) fn byte_runs(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let bytes = self.dict.bytes.as_bytes();
        let offsets = &self.dict.offsets;
        runs(&self.codes).map(move |(first, count)| {
            let start = offsets[first as usize] as usize;
            &bytes[start..offsets[(first + count) as usize] as usize]
        })
    }

    /// Append one row as a new entry of the column's dictionary, which is
    /// copied first if another column shares it. Panics when the
    /// dictionary would outgrow its `u32` offsets.
    pub fn push(&mut self, s: &str) {
        let code = Arc::make_mut(&mut self.dict).push(s);
        self.codes.push(code);
    }

    /// Append one row: entry `code` of the column's dictionary. Panics if
    /// `code` is out of range.
    pub fn push_code(&mut self, code: u32) {
        assert!(
            (code as usize) < self.dict.len(),
            "code {code} outside a dictionary of {}",
            self.dict.len()
        );
        self.codes.push(code);
    }

    /// Append rows `start..end` of `other`: their codes when both columns
    /// share one dictionary; otherwise their strings, as new entries of
    /// this column's dictionary (copied first if shared), one copy per
    /// run of rows that code to consecutive entries. Panics if the range
    /// is out of bounds.
    pub fn extend_from_range(&mut self, other: &StrColumn, start: usize, end: usize) {
        let rows = &other.codes[start..end];
        if Arc::ptr_eq(&self.dict, &other.dict) {
            self.codes.extend_from_slice(rows);
            return;
        }
        let dict = Arc::make_mut(&mut self.dict);
        for (first, count) in runs(rows) {
            let base = dict.extend_from_entries(&other.dict, first, count);
            self.codes.extend(base..base + count);
        }
    }

    /// Give back the capacity a builder reserved and did not fill.
    pub fn shrink_to_fit(&mut self) {
        self.codes.shrink_to_fit();
        if let Some(dict) = Arc::get_mut(&mut self.dict) {
            dict.shrink_to_fit();
        }
    }

    /// Gather the rows at `indices` into a new column: their codes, over
    /// the same dictionary.
    pub fn take(&self, indices: &[usize]) -> StrColumn {
        StrColumn {
            codes: indices.iter().map(|&i| self.codes[i]).collect(),
            dict: Arc::clone(&self.dict),
        }
    }

    /// Rows `start..end` as a new column: their codes, over the same
    /// dictionary.
    pub fn slice(&self, start: usize, end: usize) -> StrColumn {
        StrColumn {
            codes: self.codes[start..end].to_vec(),
            dict: Arc::clone(&self.dict),
        }
    }

    /// The rows' byte lengths in order — with [`StrColumn::byte_rows`],
    /// the column as the shuffle codec writes it.
    pub(crate) fn lengths(&self) -> impl Iterator<Item = u32> + '_ {
        self.codes.iter().map(|&c| self.dict.len_of(c))
    }

    /// Append `f` of every row to `out`, in row order. When the
    /// dictionary has no more entries than the column has rows, `f` runs
    /// once per entry and each row looks its result up by code;
    /// otherwise it runs once per row. Either way every row gets `f` of
    /// its own string, so the choice, made by sizes alone, never shows.
    pub(crate) fn map_rows<'a, T: Copy>(&'a self, out: &mut Vec<T>, f: impl Fn(&'a str) -> T) {
        if self.dict.len() <= self.len() {
            let per_entry: Vec<T> = self.dict.iter().map(f).collect();
            out.extend(self.codes.iter().map(|&c| per_entry[c as usize]));
        } else {
            out.extend(self.iter().map(f));
        }
    }

    /// Rebuild a column from what the codec wrote, coded against a
    /// dictionary of its own rows: one prefix sum over `lengths`, one
    /// copy of `bytes`, one UTF-8 validation of the whole buffer and of
    /// every row boundary in it. `Err` names what is wrong with the
    /// input; nothing about it is trusted.
    pub(crate) fn from_lengths(
        lengths: impl ExactSizeIterator<Item = u32>,
        bytes: &[u8],
    ) -> Result<StrColumn, &'static str> {
        let text = std::str::from_utf8(bytes).map_err(|_| "string data is not UTF-8")?;
        let rows = lengths.len();
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut end = 0u32;
        offsets.push(end);
        for len in lengths {
            end = end
                .checked_add(len)
                .filter(|&end| end as usize <= text.len())
                .ok_or("string lengths exceed their total")?;
            if !text.is_char_boundary(end as usize) {
                return Err("string length ends inside a character");
            }
            offsets.push(end);
        }
        if end as usize != text.len() {
            return Err("string lengths fall short of their total");
        }
        let dict = StrDict {
            offsets,
            bytes: text.to_owned(),
        };
        Ok(StrColumn {
            codes: (0..rows as u32).collect(),
            dict: Arc::new(dict),
        })
    }
}

/// `codes` as maximal runs of consecutive codes: `(first, count)` with
/// `codes` continuing `first, first + 1, …, first + count - 1`.
fn runs(codes: &[u32]) -> impl Iterator<Item = (u32, u32)> + '_ {
    let mut rest = codes;
    std::iter::from_fn(move || {
        let (&first, tail) = rest.split_first()?;
        let follow = tail
            .iter()
            .zip(rest)
            .take_while(|(&next, &prev)| next == prev.wrapping_add(1))
            .count();
        rest = &tail[follow..];
        Some((first, follow as u32 + 1))
    })
}

impl PartialEq for StrColumn {
    fn eq(&self, other: &StrColumn) -> bool {
        self.len() == other.len()
            && ((Arc::ptr_eq(&self.dict, &other.dict) && self.codes == other.codes)
                || self.byte_rows().eq(other.byte_rows()))
    }
}

impl Eq for StrColumn {}

impl Default for StrColumn {
    fn default() -> Self {
        StrColumn::new()
    }
}

impl std::ops::Index<usize> for StrColumn {
    type Output = str;
    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrColumn {
    fn from_iter<I: IntoIterator<Item = S>>(rows: I) -> Self {
        let rows = rows.into_iter();
        let mut out = StrColumn::with_capacity(rows.size_hint().0, 0);
        for s in rows {
            out.push(s.as_ref());
        }
        out
    }
}

impl From<Vec<String>> for StrColumn {
    fn from(rows: Vec<String>) -> Self {
        rows.iter().collect()
    }
}

impl<'a> IntoIterator for &'a StrColumn {
    type Item = &'a str;
    type IntoIter = StrIter<'a>;
    fn into_iter(self) -> StrIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`StrColumn`]'s rows.
#[derive(Debug, Clone)]
pub struct StrIter<'a> {
    codes: std::slice::Iter<'a, u32>,
    dict: &'a StrDict,
}

impl<'a> Iterator for StrIter<'a> {
    type Item = &'a str;
    fn next(&mut self) -> Option<&'a str> {
        self.codes.next().map(|&c| self.dict.get(c))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.codes.size_hint()
    }
}

impl ExactSizeIterator for StrIter<'_> {}

/// The typed payload of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers.
    I64(Vec<i64>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// UTF-8 strings.
    Str(StrColumn),
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
            // One empty entry that every row codes to (none for no rows,
            // so a builder grown from here stays the identity coding).
            DataType::Str => ColumnData::Str(StrColumn {
                codes: vec![0; len],
                dict: Arc::new(std::iter::repeat_n("", len.min(1)).collect()),
            }),
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
        Column::new(ColumnData::Str(v.into()))
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
            ColumnData::Str(v) => Value::Str(v[i].to_string()),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// Gather the rows at `indices` into a new column.
    pub fn take(&self, indices: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::I64(v) => ColumnData::I64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::F64(v) => ColumnData::F64(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(v) => ColumnData::Str(v.take(indices)),
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
        // Sized up front: a filtered iterator's size hint is zero, and
        // growing by doubling would reallocate per batch in proportion
        // to the log of its rows.
        let mut indices = Vec::with_capacity(mask.iter().filter(|&&m| m).count());
        indices.extend(mask.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| i));
        self.take(&indices)
    }

    /// Concatenate columns of the same type into one: each part is copied
    /// once, straight into the output.
    pub fn concat(parts: &[&Column]) -> Column {
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
            for &p in parts {
                match &p.validity {
                    Some(m) => v.extend_from_slice(m),
                    None => v.extend(std::iter::repeat_n(true, p.len())),
                }
            }
        }
        macro_rules! cat {
            ($variant:ident, $ty:ty) => {{
                let mut out: Vec<$ty> = Vec::with_capacity(total);
                for &p in parts {
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
            DataType::Str => {
                let strs: Vec<&StrColumn> = parts
                    .iter()
                    .map(|p| match &p.data {
                        ColumnData::Str(v) => v,
                        other => panic!("concat type mismatch: {dt} vs {}", other.data_type()),
                    })
                    .collect();
                // Parts that share one dictionary concatenate their codes;
                // any others copy their rows into a fresh one.
                let dict = strs[0].dict();
                let mut out = if strs.iter().all(|v| Arc::ptr_eq(v.dict(), dict)) {
                    StrColumn::with_dict(Arc::clone(dict), total)
                } else {
                    StrColumn::with_capacity(total, strs.iter().map(|v| v.byte_len()).sum())
                };
                for v in strs {
                    out.extend_from_range(v, 0, v.len());
                }
                ColumnData::Str(out)
            }
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
    /// String column accessor.
    pub fn strs(&self) -> &StrColumn {
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
            ColumnData::Str(v) => Value::Str(v[i].to_string()),
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
            ColumnData::Str(v) => ColumnData::Str(v.slice(start, end)),
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
            ColumnData::Str(vec!["a".to_string(), "b".to_string()].into()),
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
        let c = Column::concat(&[&a, &b]);
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
    fn str_column_reads_back_what_was_pushed() {
        let rows = ["", "R", "héllo", "", "日本語"];
        let mut c = StrColumn::with_capacity(rows.len(), 0);
        assert!(c.is_empty());
        for s in rows {
            c.push(s);
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.byte_len(), rows.concat().len());
        assert_eq!(c.get(2), "héllo");
        assert_eq!(&c[4], "日本語");
        assert_eq!(c.iter().collect::<Vec<_>>(), rows);
        assert_eq!(c.iter().len(), 5);
        assert_eq!(c, rows.iter().collect());
        assert_eq!(c, rows.map(String::from).to_vec().into());
        assert_eq!(StrColumn::default(), StrColumn::new());
    }

    #[test]
    fn str_column_equality_is_by_content() {
        // However a column was built or cut, equal rows are equal buffers.
        let whole: StrColumn = ["ab", "", "çd", "e", ""].iter().collect();
        let want: StrColumn = ["", "çd", "e"].iter().collect();
        assert_eq!(whole.slice(1, 4), want);
        assert_eq!(whole.slice(0, 5).slice(1, 5).slice(0, 3), want);
        assert_eq!(whole.take(&[1, 2, 3]), want);
        assert_eq!(whole.take(&[4, 2, 3]), want);
        let mut appended = StrColumn::new();
        appended.extend_from_range(&whole, 1, 2);
        appended.extend_from_range(&whole, 3, 3);
        appended.extend_from_range(&whole, 2, 4);
        assert_eq!(appended, want);
        let mut shrunk = want.clone();
        shrunk.shrink_to_fit();
        assert_eq!(shrunk, want);
        // The all-null placeholder column is a column of empty strings.
        let empties: StrColumn = ["", ""].iter().collect();
        assert_eq!(
            ColumnData::zeroed(DataType::Str, 2),
            ColumnData::Str(empties)
        );
    }

    #[test]
    #[should_panic]
    fn str_column_slice_rejects_out_of_range() {
        let c: StrColumn = ["a", "b"].iter().collect();
        c.slice(1, 3);
    }

    #[test]
    fn str_column_from_lengths_checks_everything() {
        let build =
            |lengths: &[u32], bytes: &[u8]| StrColumn::from_lengths(lengths.iter().copied(), bytes);
        let want: StrColumn = ["é", "", "ab"].iter().collect();
        assert_eq!(build(&[2, 0, 2], "éab".as_bytes()), Ok(want));
        assert_eq!(build(&[], b""), Ok(StrColumn::new()));
        assert_eq!(
            build(&[2, 1], "éab".as_bytes()),
            Err("string lengths fall short of their total")
        );
        assert_eq!(
            build(&[2, 3], "éab".as_bytes()),
            Err("string lengths exceed their total")
        );
        assert_eq!(
            build(&[u32::MAX, u32::MAX], b"ab"),
            Err("string lengths exceed their total")
        );
        assert_eq!(
            build(&[1, 3], "éab".as_bytes()),
            Err("string length ends inside a character")
        );
        assert_eq!(build(&[2], &[0xc3, 0x28]), Err("string data is not UTF-8"));
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
