//! A fast, non-cryptographic hasher for the engine's hot hash maps, and
//! [`KeyMap`], the one key → dense id map under group-by, the join's
//! build index and COUNT(DISTINCT).
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, whose keyed
//! DoS resistance costs real throughput on the group-by and join probe
//! paths where the map lookup *is* the inner loop. The engine's maps
//! key on its own evaluated columns — adversarial key distributions are
//! not a concern — so the kernels use a multiply-mix hasher instead:
//! each written word folds in with an xor + odd-constant multiply, and
//! [`Hasher::finish`] runs a SplitMix64-style finalizer so all input
//! bits avalanche into the bucket-index bits.
//!
//! Swapping the hasher cannot change engine output: [`KeyMap`] assigns
//! ids in first-encounter order and nothing iterates it, so map order is
//! never observed.

use crate::column::Column;
use crate::rowkey::{encode_row_into, encode_value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier (the 64-bit golden-ratio constant).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: full-avalanche bit mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Multiply-mix [`Hasher`]; see the module docs for the trade-off.
#[derive(Default)]
pub struct FastHasher {
    h: u64,
}

impl FastHasher {
    #[inline]
    fn fold(&mut self, x: u64) {
        self.h = (self.h ^ x).wrapping_mul(K).rotate_left(29);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix(self.h)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.fold(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.fold(u64::from_le_bytes(buf));
        }
        // Fold in the length so `"ab" + "c"` and `"a" + "bc"` differ.
        self.h ^= bytes.len() as u64;
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.fold(x as u64);
    }
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.fold(x as u64);
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.fold(x);
    }
    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.fold(x as u64);
    }
    #[inline]
    fn write_i32(&mut self, x: i32) {
        self.fold(x as u64);
    }
    #[inline]
    fn write_i64(&mut self, x: i64) {
        self.fold(x as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]; the state the kernels' maps carry.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// Maps a row of evaluated key columns to a dense id, assigned in
/// first-encounter order from 0.
///
/// The caller picks the representation, because callers treat nulls
/// differently. [`KeyMap::direct_i64`] maps a single `i64` column's
/// values and never reads validity, so the caller keeps null rows out:
/// the group-by takes it only for an all-valid key (null is a group),
/// and the join drops null keys before it looks anything up.
/// [`KeyMap::bytes`] maps canonical [`crate::rowkey`] bytes, in which
/// null is a value of its own; it owns one key per distinct key.
pub struct KeyMap {
    keys: Keys,
    /// Reused insert-side encoding; cloned only when a key is new.
    scratch: Vec<u8>,
}

enum Keys {
    I64(HashMap<i64, u32, FastBuildHasher>),
    Bytes(HashMap<Vec<u8>, u32, FastBuildHasher>),
}

impl KeyMap {
    /// A map over a single `i64` key column with no null row.
    pub fn direct_i64() -> KeyMap {
        KeyMap {
            keys: Keys::I64(HashMap::default()),
            scratch: Vec::new(),
        }
    }

    /// A map over canonical row-key bytes: any key shape, nulls included.
    pub fn bytes() -> KeyMap {
        KeyMap {
            keys: Keys::Bytes(HashMap::default()),
            scratch: Vec::new(),
        }
    }

    /// Number of distinct keys, which is also the next id.
    pub fn len(&self) -> usize {
        match &self.keys {
            Keys::I64(map) => map.len(),
            Keys::Bytes(map) => map.len(),
        }
    }

    /// True before the first insert.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up the key of each row of `rows` in order, assigning the next
    /// id on a key's first sight, and hand `f(row, id, fresh)`, `fresh`
    /// when the key is new. The representation is matched once per call,
    /// not per row.
    #[inline]
    pub fn insert_rows(
        &mut self,
        cols: &[&Column],
        rows: impl IntoIterator<Item = usize>,
        mut f: impl FnMut(usize, u32, bool),
    ) {
        match &mut self.keys {
            Keys::I64(map) => {
                let keys = cols[0].i64s();
                for row in rows {
                    let k = keys[row];
                    match map.get(&k) {
                        Some(&id) => f(row, id, false),
                        None => {
                            let id = map.len() as u32;
                            map.insert(k, id);
                            f(row, id, true);
                        }
                    }
                }
            }
            Keys::Bytes(map) => {
                for row in rows {
                    encode_row_into(&mut self.scratch, cols, row);
                    let (id, fresh) = insert_bytes(map, &self.scratch);
                    f(row, id, fresh);
                }
            }
        }
    }

    /// Insert the pair `(scope, row of col)`; `true` when it is new. One
    /// map keeps a key set per scope, as COUNT(DISTINCT) does per group.
    /// Bytes maps only.
    #[inline]
    pub fn insert_scoped(&mut self, scope: u32, col: &Column, row: usize) -> bool {
        let Keys::Bytes(map) = &mut self.keys else {
            panic!("scoped keys need a bytes KeyMap");
        };
        self.scratch.clear();
        self.scratch.extend_from_slice(&scope.to_le_bytes());
        encode_value(&mut self.scratch, col, row);
        insert_bytes(map, &self.scratch).1
    }

    /// The id of row `row`'s key, if it was inserted. `scratch` is the
    /// caller's reused encoding buffer, so a shared map can be probed.
    #[inline]
    pub fn get(&self, cols: &[&Column], row: usize, scratch: &mut Vec<u8>) -> Option<u32> {
        match &self.keys {
            Keys::I64(map) => map.get(&cols[0].i64s()[row]).copied(),
            Keys::Bytes(map) => {
                encode_row_into(scratch, cols, row);
                map.get(scratch.as_slice()).copied()
            }
        }
    }
}

/// The id of `key`, assigning the next one on first sight; the map owns
/// a copy of the key only when it is new.
#[inline]
fn insert_bytes(map: &mut HashMap<Vec<u8>, u32, FastBuildHasher>, key: &[u8]) -> (u32, bool) {
    if let Some(&id) = map.get(key) {
        return (id, false);
    }
    let id = map.len() as u32;
    map.insert(key.to_vec(), id);
    (id, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn distributes_sequential_keys() {
        // Sequential integers (the common group-key shape) must not
        // collide in the low bits after finalization.
        let mut low_bits = std::collections::HashSet::new();
        for k in 0i64..256 {
            let mut h = FastHasher::default();
            h.write_i64(k);
            low_bits.insert(h.finish() & 0xFF);
        }
        assert!(low_bits.len() > 128, "only {} distinct", low_bits.len());
    }

    #[test]
    fn key_map_ids_are_dense_in_first_encounter_order() {
        let ints = Column::from_i64(vec![7, 3, 7, 9, 3]);
        let strs = Column::with_validity(
            crate::column::ColumnData::Str(vec!["a".to_string(); 5].into()),
            vec![true, false, true, true, false],
        );
        let mut direct = KeyMap::direct_i64();
        let mut bytes = KeyMap::bytes();
        let (mut direct_ids, mut bytes_ids) = (Vec::new(), Vec::new());
        direct.insert_rows(&[&ints], 0..5, |row, id, fresh| {
            direct_ids.push((row, id, fresh))
        });
        // (7,a) (3,null) (7,a) (9,a) (3,null): null is a key of its own.
        bytes.insert_rows(&[&ints, &strs], [0, 1, 2, 3, 4], |_, id, fresh| {
            bytes_ids.push((id, fresh))
        });
        assert_eq!(
            direct_ids,
            [
                (0, 0, true),
                (1, 1, true),
                (2, 0, false),
                (3, 2, true),
                (4, 1, false)
            ]
        );
        assert_eq!(
            bytes_ids,
            [(0, true), (1, true), (0, false), (2, true), (1, false)]
        );
        assert_eq!((direct.len(), bytes.len()), (3, 3));
        let mut scratch = Vec::new();
        assert_eq!(direct.get(&[&ints], 3, &mut scratch), Some(2));
        assert_eq!(bytes.get(&[&ints, &strs], 4, &mut scratch), Some(1));
        let other = Column::from_i64(vec![8]);
        assert_eq!(direct.get(&[&other], 0, &mut scratch), None);
    }

    #[test]
    fn scoped_keys_are_distinct_per_scope() {
        let vals = Column::from_i64(vec![5, 5, 6]);
        let mut seen = KeyMap::bytes();
        let fresh: Vec<bool> = [(0, 0), (0, 1), (1, 1), (1, 2), (0, 2)]
            .iter()
            .map(|&(scope, row)| seen.insert_scoped(scope, &vals, row))
            .collect();
        assert_eq!(fresh, [true, false, true, true, true]);
    }

    #[test]
    fn usable_as_map_hasher() {
        let mut m: HashMap<Vec<u8>, u32, FastBuildHasher> = HashMap::default();
        m.insert(b"alpha".to_vec(), 1);
        m.insert(b"beta".to_vec(), 2);
        assert_eq!(m.get(b"alpha".as_slice()), Some(&1));
        assert_eq!(m.get(b"gamma".as_slice()), None);
        // Length folding: same concatenation, different split points.
        let mut a = FastHasher::default();
        a.write(b"ab");
        let mut b = FastHasher::default();
        b.write(b"a");
        b.write(b"b");
        assert_ne!(a.finish(), b.finish());
    }
}
