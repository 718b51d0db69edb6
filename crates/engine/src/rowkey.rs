//! Row-key encoding and hashing.
//!
//! Joins, grouped aggregation, and hash partitioning all need a canonical
//! byte encoding of a tuple of column values. The encoding is
//! prefix-unambiguous (every value is length- or tag-delimited) so distinct
//! tuples never collide, and the hash is FNV-1a over those bytes — fast,
//! deterministic across platforms, and plenty for data partitioning.
//!
//! Each comes twice. [`encode_row`] and [`partition_of`] are the
//! row-at-a-time definitions; [`encode_rows_into`] and
//! [`partitions_into`] do a whole batch one column at a time over typed
//! slices, matching on the column type once per column rather than once
//! per value. Every row gets the same bytes in the same order either
//! way, so the batch forms are byte- and placement-identical to the
//! definitions, which the tests check row by row.

use crate::column::{Column, ColumnData};

const NULL_TAG: u8 = 0;
const VALID_TAG: u8 = 1;

/// Append the canonical encoding of row `i` of `col` to `buf`.
pub fn encode_value(buf: &mut Vec<u8>, col: &Column, i: usize) {
    emit_value(col, i, |bytes| buf.extend_from_slice(bytes));
}

/// Hand the canonical encoding of row `i` of `col` to `emit`, piece by
/// piece — the one encoder behind both the buffered encoding and the
/// streaming hash.
fn emit_value(col: &Column, i: usize, mut emit: impl FnMut(&[u8])) {
    if !col.is_valid(i) {
        emit(&[NULL_TAG]);
        return;
    }
    emit(&[VALID_TAG]);
    match &col.data {
        ColumnData::I64(v) => emit(&v[i].to_le_bytes()),
        // Encode the bit pattern; equal floats hash equal, and TPC-H keys
        // are never NaN.
        ColumnData::F64(v) => emit(&v[i].to_bits().to_le_bytes()),
        ColumnData::Str(v) => {
            let s = v[i].as_bytes();
            emit(&(s.len() as u32).to_le_bytes());
            emit(s);
        }
        ColumnData::Date(v) => emit(&v[i].to_le_bytes()),
        ColumnData::Bool(v) => emit(&[v[i] as u8]),
    }
}

/// Encode a full multi-column row key into a fresh buffer.
pub fn encode_row(cols: &[&Column], i: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(cols.len() * 9);
    for c in cols {
        encode_value(&mut buf, c, i);
    }
    buf
}

/// Encode the keys of rows `0..nrows` back to back into `buf`, one
/// column at a time. Row `i`'s key is byte-identical to
/// `encode_row(cols, i)`; it ends at `ends[i]` and starts where row
/// `i - 1`'s ends (at 0 for row 0). Both buffers are cleared first.
pub fn encode_rows_into(cols: &[&Column], nrows: usize, buf: &mut Vec<u8>, ends: &mut Vec<usize>) {
    // Pass 1: each row's width, summed column by column.
    ends.clear();
    ends.resize(nrows, 0);
    for col in cols {
        let valid = col.validity.as_deref();
        let width = match &col.data {
            ColumnData::I64(_) | ColumnData::F64(_) => 8,
            ColumnData::Date(_) => 4,
            ColumnData::Bool(_) => 1,
            ColumnData::Str(v) => {
                for (row, (w, s)) in ends.iter_mut().zip(v.byte_rows()).enumerate() {
                    *w += if valid.is_none_or(|m| m[row]) {
                        5 + s.len()
                    } else {
                        1
                    };
                }
                continue;
            }
        };
        for (row, w) in ends.iter_mut().enumerate() {
            *w += if valid.is_none_or(|m| m[row]) {
                1 + width
            } else {
                1
            };
        }
    }
    // Widths become start offsets, which pass 2 advances to end offsets.
    let mut total = 0;
    for w in ends.iter_mut() {
        let start = total;
        total += *w;
        *w = start;
    }
    buf.clear();
    buf.resize(total, 0);
    // Pass 2: each column's values written at their rows' cursors.
    for col in cols {
        let valid = col.validity.as_deref();
        match &col.data {
            ColumnData::I64(v) => put_fixed(buf, ends, valid, v, i64::to_le_bytes),
            ColumnData::F64(v) => put_fixed(buf, ends, valid, v, |x| x.to_bits().to_le_bytes()),
            ColumnData::Date(v) => put_fixed(buf, ends, valid, v, i32::to_le_bytes),
            ColumnData::Bool(v) => put_fixed(buf, ends, valid, v, |x| [x as u8]),
            ColumnData::Str(v) => {
                for (row, (at, s)) in ends.iter_mut().zip(v.byte_rows()).enumerate() {
                    if valid.is_none_or(|m| m[row]) {
                        let dst = put_valid(buf, at, 4 + s.len());
                        dst[..4].copy_from_slice(&(s.len() as u32).to_le_bytes());
                        dst[4..].copy_from_slice(s);
                    } else {
                        put_null(buf, at);
                    }
                }
            }
        }
    }
}

/// Write the valid tag at `*at`, advance `*at` past it and the `len`
/// value bytes that follow, and hand back those bytes to fill.
#[inline]
fn put_valid<'b>(buf: &'b mut [u8], at: &mut usize, len: usize) -> &'b mut [u8] {
    let dst = &mut buf[*at..*at + 1 + len];
    *at += 1 + len;
    dst[0] = VALID_TAG;
    &mut dst[1..]
}

/// Write the null tag at `*at`, and advance `*at` past it.
#[inline]
fn put_null(buf: &mut [u8], at: &mut usize) {
    buf[*at] = NULL_TAG;
    *at += 1;
}

/// [`encode_rows_into`]'s pass 2 for one fixed-width column.
#[inline]
fn put_fixed<T: Copy, const N: usize>(
    buf: &mut [u8],
    cursors: &mut [usize],
    valid: Option<&[bool]>,
    vals: &[T],
    bytes: impl Fn(T) -> [u8; N],
) {
    for (row, (at, &x)) in cursors.iter_mut().zip(vals).enumerate() {
        if valid.is_none_or(|m| m[row]) {
            put_valid(buf, at, N).copy_from_slice(&bytes(x));
        } else {
            put_null(buf, at);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash `h` over `bytes`.
#[inline]
fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Hash row `i` of the given key columns: FNV-1a over the row's
/// canonical encoding, streamed, so hashing allocates nothing.
pub fn hash_row(cols: &[&Column], i: usize) -> u64 {
    // The single-i64-key fast path skips the validity tag.
    if cols.len() == 1 {
        if let ColumnData::I64(v) = &cols[0].data {
            if cols[0].is_valid(i) {
                return fnv1a(&v[i].to_le_bytes());
            }
        }
    }
    let mut h = FNV_OFFSET;
    for c in cols {
        emit_value(c, i, |bytes| h = fnv1a_fold(h, bytes));
    }
    h
}

/// The shuffle partition for row `i` given `partitions` output partitions:
/// the row-at-a-time definition [`partitions_into`] must match.
pub fn partition_of(cols: &[&Column], i: usize, partitions: u32) -> u32 {
    (hash_row(cols, i) % partitions as u64) as u32
}

/// Append [`partition_of`] of every row `0..nrows` to `out`. The hashes
/// are folded one column at a time, each row over the same bytes in the
/// same order as [`hash_row`], and a power-of-two count (every live
/// workload's) takes the partition with a mask instead of a `%`.
pub fn partitions_into(cols: &[&Column], nrows: usize, partitions: u32, out: &mut Vec<usize>) {
    let mut hashes = vec![FNV_OFFSET; nrows];
    match cols {
        // `hash_row`'s single-i64 fast path: no validity tag on a valid row.
        [col] if matches!(col.data, ColumnData::I64(_)) => fold_fixed(
            &mut hashes,
            col.validity.as_deref(),
            col.i64s(),
            false,
            i64::to_le_bytes,
        ),
        _ => cols.iter().for_each(|col| fold_column(&mut hashes, col)),
    }
    let p = partitions as u64;
    if partitions.is_power_of_two() {
        out.extend(hashes.iter().map(|&h| (h & (p - 1)) as usize));
    } else {
        out.extend(hashes.iter().map(|&h| (h % p) as usize));
    }
}

/// Continue each row's hash over its value of `col`.
fn fold_column(hashes: &mut [u64], col: &Column) {
    let valid = col.validity.as_deref();
    match &col.data {
        ColumnData::I64(v) => fold_fixed(hashes, valid, v, true, i64::to_le_bytes),
        ColumnData::F64(v) => fold_fixed(hashes, valid, v, true, |x| x.to_bits().to_le_bytes()),
        ColumnData::Date(v) => fold_fixed(hashes, valid, v, true, i32::to_le_bytes),
        ColumnData::Bool(v) => fold_fixed(hashes, valid, v, true, |x| [x as u8]),
        ColumnData::Str(v) => {
            for (row, (h, s)) in hashes.iter_mut().zip(v.byte_rows()).enumerate() {
                *h = if valid.is_none_or(|m| m[row]) {
                    let h = fnv1a_fold(*h, &[VALID_TAG]);
                    fnv1a_fold(fnv1a_fold(h, &(s.len() as u32).to_le_bytes()), s)
                } else {
                    fnv1a_fold(*h, &[NULL_TAG])
                };
            }
        }
    }
}

/// [`fold_column`] for one fixed-width column; `tagged` is false only on
/// the single-i64 fast path.
#[inline]
fn fold_fixed<T: Copy, const N: usize>(
    hashes: &mut [u64],
    valid: Option<&[bool]>,
    vals: &[T],
    tagged: bool,
    bytes: impl Fn(T) -> [u8; N],
) {
    for (row, (h, &x)) in hashes.iter_mut().zip(vals).enumerate() {
        *h = if !valid.is_none_or(|m| m[row]) {
            fnv1a_fold(*h, &[NULL_TAG])
        } else {
            // `black_box` keeps LLVM from vectorizing the rows with SSE2,
            // which has no 64-bit lane multiply; the emulated multiply
            // measured 1.6x slower than scalar rows that overlap.
            let x = bytes(std::hint::black_box(x));
            fnv1a_fold(
                if tagged {
                    fnv1a_fold(*h, &[VALID_TAG])
                } else {
                    *h
                },
                &x,
            )
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cackle_prng::{Pcg32, Seed};

    #[test]
    fn equal_rows_encode_equal() {
        let a = Column::from_i64(vec![42, 7]);
        let b = Column::from_str_vec(vec!["x".into(), "x".into()]);
        assert_eq!(encode_row(&[&a, &b], 0), encode_row(&[&a, &b], 0));
        assert_ne!(encode_row(&[&a, &b], 0), encode_row(&[&a, &b], 1));
    }

    #[test]
    fn fast_path_matches_slow_path() {
        // The single-i64 fast path hashes a valid key without its
        // validity tag, and a null key as its encoding.
        let a = Column::with_validity(
            ColumnData::I64(vec![123456789, -1, 0]),
            vec![true, true, false],
        );
        for i in 0..2 {
            assert_eq!(hash_row(&[&a], i), fnv1a(&encode_row(&[&a], i)[1..]));
        }
        assert_eq!(hash_row(&[&a], 2), fnv1a(&encode_row(&[&a], 2)));
    }

    /// The key shapes the batch paths take: a single `i64` (all-valid
    /// and nullable), `(i64, str)` and `(f64, date, bool)` with nulls.
    fn key_shapes(rng: &mut Pcg32, n: usize) -> Vec<Vec<Column>> {
        let mask = |rng: &mut Pcg32| -> Vec<bool> { (0..n).map(|_| rng.gen_bool(0.8)).collect() };
        let ints: Vec<i64> = (0..n).map(|_| rng.gen_range(-50i64..50)).collect();
        let strs: Vec<String> = (0..n)
            .map(|_| ["", "a", "MAIL", "héllo"][rng.gen_range(0usize..4)].to_string())
            .collect();
        let floats: Vec<f64> = (0..n)
            .map(|_| [0.0, -0.0, 1.5, -2.25][rng.gen_range(0usize..4)])
            .collect();
        let dates: Vec<i32> = (0..n).map(|_| rng.gen_range(9000i32..9100)).collect();
        let bools: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        vec![
            vec![Column::from_i64(ints.clone())],
            vec![Column::with_validity(
                ColumnData::I64(ints.clone()),
                mask(rng),
            )],
            vec![
                Column::with_validity(ColumnData::I64(ints), mask(rng)),
                Column::with_validity(ColumnData::Str(strs.into()), mask(rng)),
            ],
            vec![
                Column::with_validity(ColumnData::F64(floats), mask(rng)),
                Column::with_validity(ColumnData::Date(dates), mask(rng)),
                Column::with_validity(ColumnData::Bool(bools), mask(rng)),
            ],
        ]
    }

    #[test]
    fn batch_partitions_match_partition_of() {
        let mut rng = Pcg32::new(Seed::root(0x9A27));
        for n in [0, 1, 17, 4097] {
            for cols in key_shapes(&mut rng, n) {
                let cols: Vec<&Column> = cols.iter().collect();
                for partitions in [1, 7, 8, 16] {
                    let mut batch = vec![usize::MAX];
                    partitions_into(&cols, n, partitions, &mut batch);
                    let rows: Vec<usize> = (0..n)
                        .map(|i| partition_of(&cols, i, partitions) as usize)
                        .collect();
                    assert_eq!(batch[0], usize::MAX, "appends");
                    assert_eq!(
                        batch[1..],
                        rows,
                        "{} key column(s), {n} rows, {partitions} partitions",
                        cols.len()
                    );
                }
            }
        }
    }

    #[test]
    fn batch_encoding_matches_encode_row() {
        let mut rng = Pcg32::new(Seed::root(0xE2C0));
        let (mut buf, mut ends) = (vec![7u8], vec![3usize]);
        for n in [0, 1, 17, 300] {
            for cols in key_shapes(&mut rng, n) {
                let cols: Vec<&Column> = cols.iter().collect();
                encode_rows_into(&cols, n, &mut buf, &mut ends);
                assert_eq!(ends.len(), n);
                let mut start = 0;
                for (i, &end) in ends.iter().enumerate() {
                    assert_eq!(buf[start..end], encode_row(&cols, i), "row {i} of {n}");
                    start = end;
                }
                assert_eq!(start, buf.len());
            }
        }
    }

    #[test]
    fn streamed_hash_is_the_hash_of_the_encoding() {
        let a = Column::from_str_vec(vec!["ab".into(), "".into()]);
        let b = Column::with_validity(ColumnData::F64(vec![1.5, 2.5]), vec![true, false]);
        for i in 0..2 {
            assert_eq!(hash_row(&[&a, &b], i), fnv1a(&encode_row(&[&a, &b], i)));
        }
    }

    #[test]
    fn nulls_distinct_from_zero() {
        let zero = Column::from_i64(vec![0]);
        let null = Column::nulls(crate::types::DataType::I64, 1);
        assert_ne!(encode_row(&[&zero], 0), encode_row(&[&null], 0));
    }

    #[test]
    fn string_lengths_prevent_ambiguity() {
        // ("ab","c") must differ from ("a","bc").
        let a1 = Column::from_str_vec(vec!["ab".into()]);
        let b1 = Column::from_str_vec(vec!["c".into()]);
        let a2 = Column::from_str_vec(vec!["a".into()]);
        let b2 = Column::from_str_vec(vec!["bc".into()]);
        assert_ne!(encode_row(&[&a1, &b1], 0), encode_row(&[&a2, &b2], 0));
    }

    #[test]
    fn partitions_in_range_and_spread() {
        let keys = Column::from_i64((0..1000).collect());
        let mut counts = vec![0usize; 8];
        for i in 0..1000 {
            let p = partition_of(&[&keys], i, 8);
            assert!(p < 8);
            counts[p as usize] += 1;
        }
        // Reasonable spread: no partition takes more than half.
        assert!(
            counts.iter().all(|&c| c > 0 && c < 500),
            "skewed: {counts:?}"
        );
    }
}
