//! Hash-group-by kernel: group-id assignment plus typed accumulators.
//!
//! The legacy aggregation path allocated an owned key per input row and
//! kept a `Vec<AggState>` per group, updating through an enum match per
//! (row, aggregate). The kernel splits the work: a [`Grouper`] maps rows
//! to dense group ids (a direct `i64` map for the dominant
//! single-integer-key case, a reused scratch key buffer otherwise), and
//! each [`Accumulator`] holds its state as typed parallel vectors
//! indexed by group id, updated in one columnar pass per batch.
//!
//! Group ids are assigned in first-encounter order and every finished
//! column goes through `values_to_column`, so output bytes are identical
//! to the legacy path.

use crate::column::{Column, ColumnData};
use crate::kernels::hash::FastBuildHasher;
use crate::ops::aggregate::{values_to_column, AggFunc};
use crate::rowkey::encode_row_into;
use crate::types::{DataType, Value};
use std::collections::{HashMap, HashSet};

enum GroupMap {
    /// Single all-valid `i64` key: no byte encoding at all.
    I64(HashMap<i64, u32, FastBuildHasher>),
    /// General case: canonical row-key bytes, encoded into a reused
    /// scratch buffer and cloned only when a new group is inserted.
    Bytes(HashMap<Vec<u8>, u32, FastBuildHasher>),
}

/// Maps rows to dense group ids in first-encounter order.
pub struct Grouper {
    map: GroupMap,
    /// `(batch, row)` exemplar of each group, in group-id order.
    pub exemplars: Vec<(u32, u32)>,
    key_scratch: Vec<u8>,
}

impl Grouper {
    /// Pick the key strategy for the given evaluated key columns (outer:
    /// batch, inner: key ordinal). The `i64` fast path requires a single
    /// all-valid integer key in *every* batch — group identity must not
    /// switch representations mid-stream.
    pub fn for_keys(key_cols_per_batch: &[Vec<&Column>]) -> Grouper {
        let single_i64 = !key_cols_per_batch.is_empty()
            && key_cols_per_batch.iter().all(|cols| {
                cols.len() == 1
                    && matches!(cols[0].data, ColumnData::I64(_))
                    && cols[0].validity.is_none()
            });
        Grouper {
            map: if single_i64 {
                GroupMap::I64(HashMap::default())
            } else {
                GroupMap::Bytes(HashMap::default())
            },
            exemplars: Vec::new(),
            key_scratch: Vec::new(),
        }
    }

    /// Number of distinct groups seen so far.
    pub fn n_groups(&self) -> usize {
        self.exemplars.len()
    }

    /// Append the group id of every row of batch `bi` to `ids`.
    pub fn assign(&mut self, bi: usize, key_cols: &[&Column], nrows: usize, ids: &mut Vec<u32>) {
        match &mut self.map {
            GroupMap::I64(map) => {
                let keys = key_cols[0].i64s();
                for (row, &k) in keys.iter().enumerate().take(nrows) {
                    let gid = match map.get(&k) {
                        Some(&g) => g,
                        None => {
                            let g = self.exemplars.len() as u32;
                            map.insert(k, g);
                            self.exemplars.push((bi as u32, row as u32));
                            g
                        }
                    };
                    ids.push(gid);
                }
            }
            GroupMap::Bytes(map) => {
                for row in 0..nrows {
                    encode_row_into(&mut self.key_scratch, key_cols, row);
                    let gid = match map.get(self.key_scratch.as_slice()) {
                        Some(&g) => g,
                        None => {
                            let g = self.exemplars.len() as u32;
                            // The map owns its key; the scratch encoding is
                            // cloned once per *distinct group*, not per row.
                            map.insert(self.key_scratch.clone(), g);
                            self.exemplars.push((bi as u32, row as u32));
                            g
                        }
                    };
                    ids.push(gid);
                }
            }
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
    /// COUNT(DISTINCT): canonical key bytes per group.
    Distinct {
        /// Per-group sets of distinct canonical keys.
        sets: Vec<HashSet<Vec<u8>, FastBuildHasher>>,
    },
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
            AggFunc::CountDistinct => Accumulator::Distinct { sets: Vec::new() },
        }
    }

    /// Resize the per-group state to `n` groups (placeholder-initialized;
    /// capacity grows geometrically, once per batch at most).
    pub fn grow(&mut self, n: usize) {
        match self {
            Accumulator::Count { counts, .. } => counts.resize(n, 0),
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
            Accumulator::Distinct { sets } => sets.resize_with(n, HashSet::default),
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
            Accumulator::Distinct { sets } => {
                let col = col.expect("COUNT DISTINCT input column");
                let mut key = Vec::new();
                for (i, &g) in ids.iter().enumerate() {
                    if col.is_valid(i) {
                        let set = &mut sets[g as usize];
                        // An owned key enters the set once per distinct
                        // value; duplicates are probed with the reused
                        // encoding and allocate nothing.
                        encode_row_into(&mut key, &[col], i);
                        if !set.contains(key.as_slice()) {
                            set.insert(key.clone());
                        }
                    }
                }
            }
        }
    }

    /// Convert the per-group state to per-group values and build the
    /// output column — the exact `values_to_column` path the legacy
    /// implementation used, so bytes match.
    pub fn finish(self, dtype: DataType) -> Column {
        let values: Vec<Value> = match self {
            Accumulator::Count { counts, .. } => counts.into_iter().map(Value::I64).collect(),
            Accumulator::SumI64 { sums, seen } => sums
                .into_iter()
                .zip(seen)
                .map(|(s, ok)| if ok { Value::I64(s) } else { Value::Null })
                .collect(),
            Accumulator::SumF64 { sums, seen } => sums
                .into_iter()
                .zip(seen)
                .map(|(s, ok)| if ok { Value::F64(s) } else { Value::Null })
                .collect(),
            Accumulator::Avg { sums, counts } => sums
                .into_iter()
                .zip(counts)
                .map(|(s, c)| {
                    if c > 0 {
                        Value::F64(s / c as f64)
                    } else {
                        Value::Null
                    }
                })
                .collect(),
            Accumulator::MinMax { best, seen, .. } => match best {
                None => seen.iter().map(|_| Value::Null).collect(),
                Some(data) => min_max_values(data, &seen),
            },
            Accumulator::Distinct { sets } => sets
                // Iterates the outer Vec (group-id order); set order is
                // never observed, only the cardinality.
                .into_iter()
                .map(|s| Value::I64(s.len() as i64))
                .collect(),
        };
        values_to_column(&values, dtype)
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

fn min_max_values(data: MinMaxData, seen: &[bool]) -> Vec<Value> {
    match data {
        MinMaxData::I64(v) => zip_values(v, seen, Value::I64),
        MinMaxData::F64(v) => zip_values(v, seen, Value::F64),
        MinMaxData::Str(v) => zip_values(v, seen, Value::Str),
        MinMaxData::Date(v) => zip_values(v, seen, Value::Date),
        MinMaxData::Bool(v) => zip_values(v, seen, Value::Bool),
    }
}

fn zip_values<T>(vals: Vec<T>, seen: &[bool], wrap: impl Fn(T) -> Value) -> Vec<Value> {
    vals.into_iter()
        .zip(seen)
        .map(|(v, &ok)| if ok { wrap(v) } else { Value::Null })
        .collect()
}
