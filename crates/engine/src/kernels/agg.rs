//! Hash-group-by kernel: group-id assignment plus typed accumulators.
//!
//! A [`Grouper`] maps each batch's rows to dense group ids through one
//! [`KeyMap::insert_batch`] call (a direct `i64` map for the dominant
//! single-integer-key case, byte keys stored once in the map's arena
//! otherwise) and gathers the key rows of each batch's new groups into
//! typed output columns. Each [`Accumulator`] holds its state as
//! typed parallel vectors indexed by group id, updated in one columnar
//! pass per batch, and finishes into a typed column. COUNT(DISTINCT)
//! keeps one set of `(group id, value)` pairs: a fixed-width value is
//! keyed by its bits with no encoding, a string through a byte-key
//! arena.
//!
//! Group ids are assigned in first-encounter order and a null output
//! slot holds its type's zero, so output bytes are identical to the
//! row-at-a-time oracle in [`crate::reference`].

use crate::column::{Column, ColumnData, StrColumn};
use crate::kernels::hash::{hash_bytes, ByteKeys, FastBuildHasher, KeyMap, KeyScratch, Nulls};
use crate::ops::aggregate::AggFunc;
use crate::types::DataType;
use std::collections::HashSet;

/// Maps rows to dense group ids in first-encounter order, and keeps the
/// group-key columns of the output.
pub struct Grouper {
    keys: KeyMap,
    scratch: KeyScratch,
    /// The rows of the current batch that opened a group.
    fresh: Vec<usize>,
    /// One output key column per group-by expression, one row per group.
    out: Vec<KeyColumn>,
}

impl Grouper {
    /// Pick the key representation for the given evaluated key columns
    /// (outer: batch, inner: key ordinal); `dtypes` are the output types
    /// of the key columns. The `i64` map requires a single all-valid
    /// integer key in *every* batch — group identity must not switch
    /// representations mid-stream, and null is a group of its own.
    pub fn for_keys(key_cols_per_batch: &[Vec<&Column>], dtypes: &[DataType]) -> Grouper {
        let single_i64 = !key_cols_per_batch.is_empty()
            && key_cols_per_batch.iter().all(|cols| {
                cols.len() == 1
                    && matches!(cols[0].data, ColumnData::I64(_))
                    && cols[0].validity.is_none()
            });
        Grouper {
            keys: if single_i64 {
                KeyMap::direct_i64()
            } else {
                KeyMap::bytes(Nulls::Key)
            },
            scratch: KeyScratch::default(),
            fresh: Vec::new(),
            out: dtypes.iter().map(|&t| KeyColumn::new(t)).collect(),
        }
    }

    /// Number of distinct groups seen so far.
    pub fn n_groups(&self) -> usize {
        self.keys.len()
    }

    /// Append the group id of every row of one batch to `ids`; the key
    /// rows of the batch's new groups are then gathered into the output
    /// key columns, one column at a time.
    pub fn assign(&mut self, key_cols: &[&Column], nrows: usize, ids: &mut Vec<u32>) {
        let mut next = self.keys.len() as u32;
        let got = self.keys.insert_batch(key_cols, nrows, &mut self.scratch);
        ids.extend_from_slice(got);
        // Ids are dense: a row opens a group when its id is the next one.
        self.fresh.clear();
        for (row, &id) in got.iter().enumerate() {
            if id == next {
                self.fresh.push(row);
                next += 1;
            }
        }
        for (out, col) in self.out.iter_mut().zip(key_cols) {
            out.extend_rows(col, &self.fresh);
        }
    }

    /// The group-key columns, one row per group in group-id order.
    pub fn finish(self) -> Vec<Column> {
        self.out
            .into_iter()
            .map(|k| match k.validity {
                Some(validity) => Column::with_validity(k.data, validity),
                None => Column::new(k.data),
            })
            .collect()
    }
}

/// An output key column grown by the rows of each batch's new groups.
struct KeyColumn {
    data: ColumnData,
    /// Allocated at the first null key.
    validity: Option<Vec<bool>>,
}

impl KeyColumn {
    fn new(dtype: DataType) -> KeyColumn {
        KeyColumn {
            data: ColumnData::zeroed(dtype, 0),
            validity: None,
        }
    }

    /// Append rows `rows` of `col`: a null appends the type's zero,
    /// whatever `col` holds there, and an `i64` widens into an `f64`
    /// output.
    fn extend_rows(&mut self, col: &Column, rows: &[usize]) {
        let valid = |i: usize| col.is_valid(i);
        if self.validity.is_none() && !rows.iter().all(|&i| valid(i)) {
            self.validity = Some(vec![true; self.data.len()]);
        }
        if let Some(validity) = &mut self.validity {
            validity.extend(rows.iter().map(|&i| valid(i)));
        }
        match (&mut self.data, &col.data) {
            (ColumnData::I64(out), ColumnData::I64(v)) => {
                out.extend(rows.iter().map(|&i| if valid(i) { v[i] } else { 0 }))
            }
            (ColumnData::F64(out), ColumnData::F64(v)) => {
                out.extend(rows.iter().map(|&i| if valid(i) { v[i] } else { 0.0 }))
            }
            (ColumnData::F64(out), ColumnData::I64(v)) => {
                out.extend(
                    rows.iter()
                        .map(|&i| if valid(i) { v[i] as f64 } else { 0.0 }),
                )
            }
            (ColumnData::Date(out), ColumnData::Date(v)) => {
                out.extend(rows.iter().map(|&i| if valid(i) { v[i] } else { 0 }))
            }
            (ColumnData::Bool(out), ColumnData::Bool(v)) => {
                out.extend(rows.iter().map(|&i| valid(i) && v[i]))
            }
            (ColumnData::Str(out), ColumnData::Str(v)) => {
                for &i in rows {
                    out.push(if valid(i) { &v[i] } else { "" });
                }
            }
            (out, other) => panic!(
                "expected {} group key, got {}",
                out.data_type(),
                other.data_type()
            ),
        }
    }
}

/// Typed per-group state for one aggregate, updated one batch at a time.
pub enum Accumulator {
    /// COUNT / COUNT(*): `star` counts invalid rows too.
    Count { counts: Vec<i64>, star: bool },
    /// SUM over integers.
    SumI64 { sums: Vec<i64>, seen: Vec<bool> },
    /// SUM over floats (integer inputs coerce, like the legacy path).
    SumF64 { sums: Vec<f64>, seen: Vec<bool> },
    /// AVG as f64.
    Avg { sums: Vec<f64>, counts: Vec<i64> },
    /// MIN/MAX; the best-value storage is typed lazily from the first
    /// input batch.
    MinMax {
        best: Option<MinMaxData>,
        seen: Vec<bool>,
        is_min: bool,
    },
    /// COUNT(DISTINCT): one set of every (group, value) pair, typed
    /// lazily from the first input batch; a pair's first insertion
    /// counts against its group.
    Distinct {
        seen: Option<DistinctPairs>,
        counts: Vec<i64>,
    },
}

/// COUNT(DISTINCT)'s `(group id, value)` pairs.
pub struct DistinctPairs(Pairs);

enum Pairs {
    /// A fixed-width value keyed by its bits: an `f64` by its bit
    /// pattern, as the row-key encoding does, so `0.0` and `-0.0` differ.
    Fixed(HashSet<(u32, u64), FastBuildHasher>),
    /// A string keyed by the group id's bytes then its own, stored once
    /// in the arena; the buffer is the reused encoding.
    Str(ByteKeys, Vec<u8>),
}

impl DistinctPairs {
    fn for_column(data: &ColumnData) -> DistinctPairs {
        DistinctPairs(match data {
            ColumnData::Str(_) => Pairs::Str(ByteKeys::new(), Vec::new()),
            _ => Pairs::Fixed(HashSet::default()),
        })
    }

    /// Insert the pair of each valid row, and `counts[g] += 1` for each
    /// new one.
    fn update(&mut self, ids: &[u32], col: &Column, counts: &mut [i64]) {
        let valid = col.validity.as_deref();
        match (&mut self.0, &col.data) {
            (Pairs::Fixed(set), ColumnData::I64(v)) => {
                insert_fixed(set, ids, valid, v, |x| x as u64, counts)
            }
            (Pairs::Fixed(set), ColumnData::F64(v)) => {
                insert_fixed(set, ids, valid, v, f64::to_bits, counts)
            }
            (Pairs::Fixed(set), ColumnData::Date(v)) => {
                insert_fixed(set, ids, valid, v, |x| x as u64, counts)
            }
            (Pairs::Fixed(set), ColumnData::Bool(v)) => {
                insert_fixed(set, ids, valid, v, u64::from, counts)
            }
            (Pairs::Str(keys, buf), ColumnData::Str(v)) => {
                for (i, (&g, s)) in ids.iter().zip(v.byte_rows()).enumerate() {
                    if valid.is_none_or(|m| m[i]) {
                        buf.clear();
                        buf.extend_from_slice(&g.to_le_bytes());
                        buf.extend_from_slice(s);
                        if keys.insert(buf, hash_bytes(buf)).1 {
                            counts[g as usize] += 1;
                        }
                    }
                }
            }
            (_, other) => panic!(
                "COUNT(DISTINCT) input type changed mid-stream to {}",
                other.data_type()
            ),
        }
    }
}

/// [`DistinctPairs::update`] for one fixed-width column.
#[inline]
fn insert_fixed<T: Copy>(
    set: &mut HashSet<(u32, u64), FastBuildHasher>,
    ids: &[u32],
    valid: Option<&[bool]>,
    vals: &[T],
    bits: impl Fn(T) -> u64,
    counts: &mut [i64],
) {
    for (i, (&g, &x)) in ids.iter().zip(vals).enumerate() {
        if valid.is_none_or(|m| m[i]) && set.insert((g, bits(x))) {
            counts[g as usize] += 1;
        }
    }
}

/// Typed best-value storage for MIN/MAX.
pub enum MinMaxData {
    /// i64 bests.
    I64(Vec<i64>),
    /// f64 bests.
    F64(Vec<f64>),
    /// String bests.
    Str(Vec<String>),
    /// Date bests.
    Date(Vec<i32>),
    /// Bool bests.
    Bool(Vec<bool>),
}

impl MinMaxData {
    fn for_column(data: &ColumnData, n: usize) -> MinMaxData {
        match data {
            ColumnData::I64(_) => MinMaxData::I64(vec![0; n]),
            ColumnData::F64(_) => MinMaxData::F64(vec![0.0; n]),
            ColumnData::Str(_) => MinMaxData::Str(vec![String::new(); n]),
            ColumnData::Date(_) => MinMaxData::Date(vec![0; n]),
            ColumnData::Bool(_) => MinMaxData::Bool(vec![false; n]),
        }
    }

    fn into_data(self) -> ColumnData {
        match self {
            MinMaxData::I64(v) => ColumnData::I64(v),
            MinMaxData::F64(v) => ColumnData::F64(v),
            MinMaxData::Str(v) => ColumnData::Str(StrColumn::from(v)),
            MinMaxData::Date(v) => ColumnData::Date(v),
            MinMaxData::Bool(v) => ColumnData::Bool(v),
        }
    }

    fn grow(&mut self, n: usize) {
        match self {
            MinMaxData::I64(v) if v.len() < n => v.resize(n, 0),
            MinMaxData::F64(v) if v.len() < n => v.resize(n, 0.0),
            MinMaxData::Str(v) if v.len() < n => v.resize(n, String::new()),
            MinMaxData::Date(v) if v.len() < n => v.resize(n, 0),
            MinMaxData::Bool(v) if v.len() < n => v.resize(n, false),
            _ => {}
        }
    }
}

impl Accumulator {
    /// Fresh state for a function (the input type disambiguates SUM).
    pub fn new(func: AggFunc, input_type: DataType) -> Accumulator {
        match func {
            AggFunc::Sum => match input_type {
                DataType::I64 => Accumulator::SumI64 {
                    sums: Vec::new(),
                    seen: Vec::new(),
                },
                _ => Accumulator::SumF64 {
                    sums: Vec::new(),
                    seen: Vec::new(),
                },
            },
            AggFunc::Min | AggFunc::Max => Accumulator::MinMax {
                best: None,
                seen: Vec::new(),
                is_min: func == AggFunc::Min,
            },
            AggFunc::Count => Accumulator::Count {
                counts: Vec::new(),
                star: false,
            },
            AggFunc::CountStar => Accumulator::Count {
                counts: Vec::new(),
                star: true,
            },
            AggFunc::Avg => Accumulator::Avg {
                sums: Vec::new(),
                counts: Vec::new(),
            },
            AggFunc::CountDistinct => Accumulator::Distinct {
                seen: None,
                counts: Vec::new(),
            },
        }
    }

    /// Resize the per-group state to `n` groups (placeholder-initialized;
    /// capacity grows geometrically, once per batch at most).
    pub fn grow(&mut self, n: usize) {
        match self {
            Accumulator::Count { counts, .. } | Accumulator::Distinct { counts, .. } => {
                counts.resize(n, 0)
            }
            Accumulator::SumI64 { sums, seen } => {
                sums.resize(n, 0);
                seen.resize(n, false);
            }
            Accumulator::SumF64 { sums, seen } => {
                sums.resize(n, 0.0);
                seen.resize(n, false);
            }
            Accumulator::Avg { sums, counts } => {
                sums.resize(n, 0.0);
                counts.resize(n, 0);
            }
            Accumulator::MinMax { best, seen, .. } => {
                if let Some(b) = best {
                    b.grow(n);
                }
                seen.resize(n, false);
            }
        }
    }

    /// Fold one batch in: `ids[i]` is the group of row `i`. `col` is the
    /// evaluated input (`None` only for COUNT(*), which reads no values).
    pub fn update(&mut self, ids: &[u32], col: Option<&Column>) {
        match self {
            Accumulator::Count { counts, star } => {
                if *star {
                    for &g in ids {
                        counts[g as usize] += 1;
                    }
                } else {
                    let col = col.expect("COUNT input column");
                    match &col.validity {
                        None => {
                            for &g in ids {
                                counts[g as usize] += 1;
                            }
                        }
                        Some(m) => {
                            for (i, &g) in ids.iter().enumerate() {
                                if m[i] {
                                    counts[g as usize] += 1;
                                }
                            }
                        }
                    }
                }
            }
            Accumulator::SumI64 { sums, seen } => {
                let col = col.expect("SUM input column");
                let vals = col.i64s();
                match &col.validity {
                    None => {
                        for (i, &g) in ids.iter().enumerate() {
                            sums[g as usize] += vals[i];
                            seen[g as usize] = true;
                        }
                    }
                    Some(m) => {
                        for (i, &g) in ids.iter().enumerate() {
                            if m[i] {
                                sums[g as usize] += vals[i];
                                seen[g as usize] = true;
                            }
                        }
                    }
                }
            }
            Accumulator::SumF64 { sums, seen } => {
                let col = col.expect("SUM input column");
                for_each_f64(col, ids, |g, x| {
                    sums[g] += x;
                    seen[g] = true;
                });
            }
            Accumulator::Avg { sums, counts } => {
                let col = col.expect("AVG input column");
                for_each_f64(col, ids, |g, x| {
                    sums[g] += x;
                    counts[g] += 1;
                });
            }
            Accumulator::MinMax { best, seen, is_min } => {
                let col = col.expect("MIN/MAX input column");
                let n = seen.len();
                let data = best.get_or_insert_with(|| MinMaxData::for_column(&col.data, n));
                data.grow(n);
                update_min_max(data, seen, *is_min, ids, col);
            }
            Accumulator::Distinct { seen, counts } => {
                let col = col.expect("COUNT DISTINCT input column");
                seen.get_or_insert_with(|| DistinctPairs::for_column(&col.data))
                    .update(ids, col, counts);
            }
        }
    }

    /// Build the output column of type `dtype`, one row per group; a
    /// group with no input is null.
    pub fn finish(self, dtype: DataType) -> Column {
        let (data, seen) = match self {
            Accumulator::Count { counts, .. } | Accumulator::Distinct { counts, .. } => {
                (ColumnData::I64(counts), None)
            }
            Accumulator::SumI64 { sums, seen } => (ColumnData::I64(sums), Some(seen)),
            Accumulator::SumF64 { sums, seen } => (ColumnData::F64(sums), Some(seen)),
            Accumulator::Avg { mut sums, counts } => {
                for (s, &c) in sums.iter_mut().zip(&counts) {
                    if c > 0 {
                        *s /= c as f64;
                    }
                }
                let seen = counts.iter().map(|&c| c > 0).collect();
                (ColumnData::F64(sums), Some(seen))
            }
            Accumulator::MinMax { best, seen, .. } => match best {
                None => return Column::nulls(dtype, seen.len()),
                Some(best) => (best.into_data(), Some(seen)),
            },
        };
        // An `i64` state widens into an `f64` output column.
        let data = match data {
            ColumnData::I64(v) if dtype == DataType::F64 => {
                ColumnData::F64(v.into_iter().map(|x| x as f64).collect())
            }
            data => {
                assert_eq!(data.data_type(), dtype, "aggregate output type");
                data
            }
        };
        match seen {
            Some(seen) => Column::with_validity(data, seen),
            None => Column::new(data),
        }
    }
}

/// Drive `f(group, value_as_f64)` over the valid rows of a numeric
/// column (f64 or i64 input, like the legacy SUM/AVG coercion).
fn for_each_f64(col: &Column, ids: &[u32], mut f: impl FnMut(usize, f64)) {
    match (&col.data, &col.validity) {
        (ColumnData::F64(vals), None) => {
            for (i, &g) in ids.iter().enumerate() {
                f(g as usize, vals[i]);
            }
        }
        (ColumnData::F64(vals), Some(m)) => {
            for (i, &g) in ids.iter().enumerate() {
                if m[i] {
                    f(g as usize, vals[i]);
                }
            }
        }
        (ColumnData::I64(vals), None) => {
            for (i, &g) in ids.iter().enumerate() {
                f(g as usize, vals[i] as f64);
            }
        }
        (ColumnData::I64(vals), Some(m)) => {
            for (i, &g) in ids.iter().enumerate() {
                if m[i] {
                    f(g as usize, vals[i] as f64);
                }
            }
        }
        (other, _) => panic!("cannot aggregate {} as f64", other.data_type()),
    }
}

fn update_min_max(
    data: &mut MinMaxData,
    seen: &mut [bool],
    is_min: bool,
    ids: &[u32],
    col: &Column,
) {
    // Copy-type arms assign the improved value directly; the Str arm
    // overwrites the group's string in place, reusing its buffer.
    macro_rules! fold {
        ($best:expr, $vals:expr, $better:expr) => {{
            let best = $best;
            let vals = $vals;
            for (i, &g) in ids.iter().enumerate() {
                if !col.is_valid(i) {
                    continue;
                }
                let g = g as usize;
                if !seen[g] || $better(&vals[i], &best[g]) {
                    seen[g] = true;
                    best[g] = vals[i];
                }
            }
        }};
    }
    match (data, &col.data) {
        (MinMaxData::I64(best), ColumnData::I64(vals)) => {
            fold!(best, vals, |x: &i64, b: &i64| if is_min {
                x < b
            } else {
                x > b
            })
        }
        (MinMaxData::Date(best), ColumnData::Date(vals)) => {
            fold!(best, vals, |x: &i32, b: &i32| if is_min {
                x < b
            } else {
                x > b
            })
        }
        (MinMaxData::Bool(best), ColumnData::Bool(vals)) => {
            fold!(best, vals, |x: &bool, b: &bool| if is_min {
                !*x & *b
            } else {
                *x & !*b
            })
        }
        (MinMaxData::F64(best), ColumnData::F64(vals)) => {
            // Keep the legacy panic-on-incomparable behavior (NaN inputs).
            fold!(best, vals, |x: &f64, b: &f64| {
                let ord = x.partial_cmp(b).expect("comparable agg inputs");
                if is_min {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                }
            })
        }
        (MinMaxData::Str(best), ColumnData::Str(vals)) => {
            for ((i, &g), s) in ids.iter().enumerate().zip(vals) {
                if !col.is_valid(i) {
                    continue;
                }
                let g = g as usize;
                let better = if is_min {
                    s < best[g].as_str()
                } else {
                    s > best[g].as_str()
                };
                if !seen[g] || better {
                    seen[g] = true;
                    best[g].clear();
                    best[g].push_str(s);
                }
            }
        }
        (_, other) => panic!(
            "MIN/MAX input type changed mid-stream to {}",
            other.data_type()
        ),
    }
}
