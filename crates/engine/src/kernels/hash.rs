//! The engine's key → id maps, and the fast hasher under them.
//!
//! [`KeyMap`] is the one key → dense id map under group-by and the
//! join's build index. Every call maps a whole batch: the key
//! representation is matched, the key slice borrowed and the key
//! columns' validity combined once per batch, not once per row. A single `i64` key goes to a std `HashMap<i64, u32>`
//! (one `entry` per inserted row); any other key is a *byte key*, its
//! canonical [`crate::rowkey`] encoding. A batch's byte keys are encoded
//! one column at a time into one reused buffer, and each distinct key is
//! stored once, back to back in one arena behind a hand-written
//! open-addressing table of `(hash, id)` slots (`ByteKeys`, which also
//! holds the string half of COUNT(DISTINCT)), so the map allocates
//! nothing per key: its three vectors grow by doubling.
//!
//! An insert whose key columns are all unmasked string columns, with
//! no more code tuples than the batch has rows, encodes, hashes and
//! looks up each distinct tuple of dictionary codes once (`CodeMemo`);
//! the rows' ids are then one array lookup each.
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
//! Neither the hasher nor the table layout can change engine output:
//! ids are assigned in first-encounter order and nothing iterates a
//! map, so map order is never observed.

use crate::column::{Column, ColumnData};
use crate::rowkey::{encode_rows_into, encode_value};
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

/// Fold one word into a hash state: xor, odd-constant multiply, rotate.
#[inline]
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(K).rotate_left(29)
}

/// Fold `bytes` into `h` a word at a time, the short tail as one
/// zero-padded word, then the length, so `"ab" + "c"` and `"a" + "bc"`
/// differ.
#[inline]
fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in words.by_ref() {
        h = fold(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        h = fold(h, tail.iter().rev().fold(0, |x, &b| x << 8 | b as u64));
    }
    fold(h, bytes.len() as u64)
}

/// Multiply-mix [`Hasher`]; see the module docs for the trade-off.
#[derive(Default)]
pub struct FastHasher {
    h: u64,
}

impl FastHasher {
    #[inline]
    fn fold(&mut self, x: u64) {
        self.h = fold(self.h, x);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix(self.h)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.h = fold_bytes(self.h, bytes);
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

/// [`FastHasher`] over one byte string.
#[inline]
pub(crate) fn hash_bytes(bytes: &[u8]) -> u64 {
    mix(fold_bytes(0, bytes))
}

/// What a null value folds into a row's key hash.
const NULL_WORD: u64 = 0x6E75_6C6C;

/// Each row's key hash before its finishing [`mix`], folded one column at
/// a time from its typed values — a fixed-width value as one word, a
/// string as [`fold_bytes`]. Rows with equal canonical encodings
/// have equal values, so they hash equal; the table compares the bytes.
fn hash_rows_into(cols: &[&Column], nrows: usize, hashes: &mut Vec<u64>) {
    hashes.clear();
    hashes.resize(nrows, 0);
    for col in cols {
        let valid = col.validity.as_deref();
        match &col.data {
            ColumnData::I64(v) => fold_words(hashes, valid, v, |x| x as u64),
            ColumnData::F64(v) => fold_words(hashes, valid, v, f64::to_bits),
            ColumnData::Date(v) => fold_words(hashes, valid, v, |x| x as u64),
            ColumnData::Bool(v) => fold_words(hashes, valid, v, u64::from),
            ColumnData::Str(v) => {
                for (row, (h, s)) in hashes.iter_mut().zip(v.byte_rows()).enumerate() {
                    *h = if valid.is_none_or(|m| m[row]) {
                        fold_bytes(*h, s)
                    } else {
                        fold(*h, NULL_WORD)
                    };
                }
            }
        }
    }
}

/// [`hash_rows_into`] for one fixed-width column.
#[inline]
fn fold_words<T: Copy>(
    hashes: &mut [u64],
    valid: Option<&[bool]>,
    vals: &[T],
    word: impl Fn(T) -> u64,
) {
    for (row, (h, &x)) in hashes.iter_mut().zip(vals).enumerate() {
        // `black_box`: no SSE2 vectorization of the 64-bit multiply (see
        // `rowkey::fold_fixed`).
        let x = word(std::hint::black_box(x));
        let w = if valid.is_none_or(|m| m[row]) {
            x
        } else {
            NULL_WORD
        };
        *h = fold(*h, w);
    }
}

/// Whether a null key column value is a key of its own (the group-by)
/// or makes the row keyless (the join, where null matches nothing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Nulls {
    /// Null is a value: `(1, null)` and `(1, null)` are one key.
    Key,
    /// A row with any null key column has no key: it is never inserted
    /// and never found.
    Skip,
}

/// Maps the key of each row of a batch of evaluated key columns to a
/// dense id, assigned in first-encounter order from 0.
///
/// The caller picks the representation, because callers treat nulls
/// differently. [`KeyMap::direct_i64`] maps a single `i64` column's
/// values and has no null key: a null row is keyless, so the group-by takes
/// it only for an all-valid key (null is a group) and the join for any
/// `i64` key. [`KeyMap::bytes`] maps canonical [`crate::rowkey`] bytes
/// under the given [`Nulls`] rule.
pub struct KeyMap {
    keys: Keys,
}

enum Keys {
    I64(HashMap<i64, u32, FastBuildHasher>),
    Bytes(ByteKeys, Nulls),
}

/// The id of a row that has no key, or whose key a probe did not find.
pub const NO_ID: u32 = u32::MAX;

/// Reused per-batch buffers of [`KeyMap`]'s batch calls; one per caller,
/// so a shared map can be probed.
#[derive(Default)]
pub struct KeyScratch {
    /// The batch's byte keys.
    keys: Encoded,
    /// The batch's code tuples, when its keys are dictionary codes.
    memo: CodeMemo,
    /// The batch's ids, one per row.
    ids: Vec<u32>,
}

/// One batch's string keys as tuples of dictionary codes: each distinct
/// tuple is encoded, hashed and looked up once, at its first row.
#[derive(Default)]
struct CodeMemo {
    /// Row `i`'s tuple: its codes in mixed radix, the first column's
    /// dictionary size the lowest digit.
    tuples: Vec<usize>,
    /// Each tuple's id, [`NO_ID`] until its first row.
    ids: Vec<u32>,
    /// The key being encoded.
    key: Vec<u8>,
}

impl CodeMemo {
    /// The number of code tuples `cols` can form, when every column is a
    /// string column with no validity mask and that number is at most
    /// `nrows`: the sizes that make a tuple's lookup cheaper than a row's.
    fn tuples(cols: &[&Column], nrows: usize) -> Option<usize> {
        let mut tuples = 1usize;
        for col in cols {
            match (&col.data, &col.validity) {
                (ColumnData::Str(v), None) => tuples = tuples.checked_mul(v.dict().len())?,
                _ => return None,
            }
        }
        (tuples <= nrows).then_some(tuples)
    }

    /// [`KeyMap::insert_batch`] over code tuples: in row order, so each
    /// tuple's canonical byte key is inserted at the row that first has
    /// it, and ids, their order and the stored keys are the byte path's.
    fn insert(
        &mut self,
        map: &mut ByteKeys,
        cols: &[&Column],
        nrows: usize,
        tuples: usize,
        ids: &mut Vec<u32>,
    ) {
        let CodeMemo {
            tuples: row_tuples,
            ids: tuple_ids,
            key,
        } = self;
        row_tuples.clear();
        row_tuples.resize(nrows, 0);
        let mut stride = 1;
        for v in cols.iter().map(|c| c.strs()) {
            for (t, &code) in row_tuples.iter_mut().zip(v.codes()) {
                *t += code as usize * stride;
            }
            stride *= v.dict().len();
        }
        tuple_ids.clear();
        tuple_ids.resize(tuples, NO_ID);
        ids.extend(row_tuples.iter().enumerate().map(|(row, &t)| {
            if tuple_ids[t] == NO_ID {
                key.clear();
                let hash = cols.iter().fold(0, |h, c| {
                    encode_value(key, c, row);
                    fold_bytes(h, c.strs().row_bytes(row))
                });
                tuple_ids[t] = map.insert(key, mix(hash)).0;
            }
            tuple_ids[t]
        }));
    }
}

/// One batch's byte keys, as [`Encoded::prepare`] leaves them.
#[derive(Default)]
struct Encoded {
    /// The keys back to back; row `i`'s ends at `ends[i]`.
    enc: Vec<u8>,
    ends: Vec<usize>,
    /// Row `i`'s key hash, unmixed: the mix runs per lookup, where no
    /// vectorizer reaches it.
    hashes: Vec<u64>,
    /// The AND of the key columns' validity, when more than one has a mask.
    valid: Vec<bool>,
}

impl Encoded {
    /// Encode and hash the batch's byte keys, and find the rows whose
    /// key columns are all valid (`None`: every row) under `nulls`.
    fn prepare<'s>(
        &'s mut self,
        cols: &'s [&'s Column],
        nrows: usize,
        nulls: Nulls,
    ) -> (BatchKeys<'s>, Option<&'s [bool]>) {
        encode_rows_into(cols, nrows, &mut self.enc, &mut self.ends);
        hash_rows_into(cols, nrows, &mut self.hashes);
        let keys = BatchKeys {
            enc: &self.enc,
            ends: &self.ends,
            hashes: &self.hashes,
        };
        let valid = match nulls {
            Nulls::Key => None,
            Nulls::Skip => all_valid(cols, &mut self.valid),
        };
        (keys, valid)
    }
}

/// One batch's encoded byte keys and their hashes.
struct BatchKeys<'s> {
    enc: &'s [u8],
    ends: &'s [usize],
    hashes: &'s [u64],
}

impl BatchKeys<'_> {
    /// Row `row`'s key and its hash.
    #[inline]
    fn get(&self, row: usize) -> (&[u8], u64) {
        let start = if row == 0 { 0 } else { self.ends[row - 1] };
        (&self.enc[start..self.ends[row]], mix(self.hashes[row]))
    }
}

/// The rows whose every column in `cols` is valid, or `None` when no
/// column has a validity mask; `buf` holds the AND of two or more masks.
fn all_valid<'a>(cols: &[&'a Column], buf: &'a mut Vec<bool>) -> Option<&'a [bool]> {
    let mut masks = cols.iter().filter_map(|c| c.validity.as_deref());
    let first = masks.next()?;
    let Some(second) = masks.next() else {
        return Some(first);
    };
    buf.clear();
    buf.extend(first.iter().zip(second).map(|(&a, &b)| a & b));
    for m in masks {
        buf.iter_mut().zip(m).for_each(|(v, &ok)| *v &= ok);
    }
    Some(buf)
}

impl KeyMap {
    /// A map over a single `i64` key column; null rows have no key.
    pub fn direct_i64() -> KeyMap {
        KeyMap {
            keys: Keys::I64(HashMap::default()),
        }
    }

    /// A map over canonical row-key bytes: any key shape, with null keys
    /// handled by `nulls`.
    pub fn bytes(nulls: Nulls) -> KeyMap {
        KeyMap {
            keys: Keys::Bytes(ByteKeys::new(), nulls),
        }
    }

    /// Number of distinct keys, which is also the next id.
    pub fn len(&self) -> usize {
        match &self.keys {
            Keys::I64(map) => map.len(),
            Keys::Bytes(map, _) => map.len(),
        }
    }

    /// True before the first insert.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Room for `additional` more keys, so that a build whose row count
    /// bounds its keys never rehashes while it grows.
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.keys {
            Keys::I64(map) => map.reserve(additional),
            Keys::Bytes(map, _) => map.reserve(additional),
        }
    }

    /// The id of the key of each row of `0..nrows`, in row order, with
    /// the next id assigned on a key's first sight: ids are dense, so a
    /// row opens a new key exactly when its id is the count of keys
    /// before it. A keyless row (see [`Nulls`]) gets [`NO_ID`].
    pub fn insert_batch<'s>(
        &mut self,
        cols: &[&Column],
        nrows: usize,
        scratch: &'s mut KeyScratch,
    ) -> &'s [u32] {
        let KeyScratch { keys, memo, ids } = scratch;
        ids.clear();
        match &mut self.keys {
            Keys::I64(map) => {
                let valid = cols[0].validity.as_deref();
                let rows = cols[0].i64s()[..nrows].iter().enumerate();
                ids.extend(rows.map(|(row, &k)| {
                    if !valid.is_none_or(|m| m[row]) {
                        return NO_ID;
                    }
                    let next = map.len() as u32;
                    *map.entry(k).or_insert(next)
                }));
            }
            Keys::Bytes(map, _) if let Some(tuples) = CodeMemo::tuples(cols, nrows) => {
                memo.insert(map, cols, nrows, tuples, ids);
            }
            Keys::Bytes(map, nulls) => {
                let (keys, valid) = keys.prepare(cols, nrows, *nulls);
                ids.extend((0..nrows).map(|row| {
                    if !valid.is_none_or(|m| m[row]) {
                        return NO_ID;
                    }
                    let (key, hash) = keys.get(row);
                    map.insert(key, hash).0
                }));
            }
        }
        ids
    }

    /// The id of the key of each row of `0..nrows`, in row order:
    /// [`NO_ID`] for a key never inserted or a keyless row.
    pub fn probe_batch<'s>(
        &self,
        cols: &[&Column],
        nrows: usize,
        scratch: &'s mut KeyScratch,
    ) -> &'s [u32] {
        let KeyScratch { keys, ids, .. } = scratch;
        ids.clear();
        match &self.keys {
            Keys::I64(map) => {
                let valid = cols[0].validity.as_deref();
                let rows = cols[0].i64s()[..nrows].iter().enumerate();
                ids.extend(rows.map(|(row, k)| {
                    let found = valid.is_none_or(|m| m[row]).then(|| map.get(k).copied());
                    found.flatten().unwrap_or(NO_ID)
                }));
            }
            Keys::Bytes(map, nulls) => {
                let (keys, valid) = keys.prepare(cols, nrows, *nulls);
                ids.extend((0..nrows).map(|row| {
                    let (key, hash) = keys.get(row);
                    let found = valid.is_none_or(|m| m[row]).then(|| map.get(key, hash));
                    found.flatten().unwrap_or(NO_ID)
                }));
            }
        }
        ids
    }
}

/// Byte keys → dense ids, each distinct key stored once.
///
/// Key `id` is `arena[ends[id - 1]..ends[id]]` (from 0 for id 0). The
/// index is open addressing with linear probing over a power-of-two
/// number of slots, at most half full; a slot holds the low 32 bits of
/// the key's hash, which both places it and screens byte comparisons,
/// and the key's id. Callers hash: a batch's keys one column at a time,
/// a lone key with [`hash_bytes`]; either way equal keys hash equal.
pub(crate) struct ByteKeys {
    arena: Vec<u8>,
    ends: Vec<u32>,
    slots: Vec<Slot>,
}

#[derive(Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

/// The id of an empty slot.
const EMPTY: u32 = u32::MAX;

impl ByteKeys {
    pub(crate) fn new() -> ByteKeys {
        ByteKeys {
            arena: Vec::new(),
            ends: Vec::new(),
            slots: vec![Slot { hash: 0, id: EMPTY }; 16],
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    fn key(&self, id: u32) -> &[u8] {
        let id = id as usize;
        let start = if id == 0 {
            0
        } else {
            self.ends[id - 1] as usize
        };
        &self.arena[start..self.ends[id] as usize]
    }

    /// `Ok(id)` of `key`, or `Err(slot)`: the empty slot it would take.
    #[inline]
    fn find(&self, key: &[u8], hash: u32) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return Err(i);
            }
            if slot.hash == hash && self.key(slot.id) == key {
                return Ok(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of `key`, whose hash is `hash`, if it was inserted.
    #[inline]
    pub(crate) fn get(&self, key: &[u8], hash: u64) -> Option<u32> {
        self.find(key, hash as u32).ok()
    }

    /// The id of `key`, whose hash is `hash`, assigning the next one on
    /// first sight (one probe sequence either way); `true` when it is new.
    #[inline]
    pub(crate) fn insert(&mut self, key: &[u8], hash: u64) -> (u32, bool) {
        let hash = hash as u32;
        match self.find(key, hash) {
            Ok(id) => (id, false),
            Err(i) => {
                let id = self.ends.len() as u32;
                self.slots[i] = Slot { hash, id };
                self.arena.extend_from_slice(key);
                let end = u32::try_from(self.arena.len()).expect("key arena exceeds u32 offsets");
                self.ends.push(end);
                if 2 * self.ends.len() > self.slots.len() {
                    self.rehash(2 * self.slots.len());
                }
                (id, true)
            }
        }
    }

    /// Room for `additional` more keys without growing the slots.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let slots = (2 * (self.len() + additional)).next_power_of_two();
        if slots > self.slots.len() {
            self.rehash(slots);
        }
        self.ends.reserve(additional);
    }

    /// Move to `slots` slots, re-placing every key by its stored hash.
    fn rehash(&mut self, slots: usize) {
        let empty = vec![Slot { hash: 0, id: EMPTY }; slots];
        let old = std::mem::replace(&mut self.slots, empty);
        let mask = slots - 1;
        for slot in old.into_iter().filter(|s| s.id != EMPTY) {
            let mut i = slot.hash as usize & mask;
            while self.slots[i].id != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;

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
            ColumnData::Str(vec!["a".to_string(); 5].into()),
            vec![true, false, true, true, false],
        );
        let mut scratch = KeyScratch::default();
        let mut direct = KeyMap::direct_i64();
        let mut bytes = KeyMap::bytes(Nulls::Key);
        let mut skip = KeyMap::bytes(Nulls::Skip);
        assert_eq!(
            direct.insert_batch(&[&ints], 5, &mut scratch),
            [0, 1, 0, 2, 1]
        );
        // (7,a) (3,null) (7,a) (9,a) (3,null): null is a key of its own,
        // or makes the row keyless.
        let both = [&ints, &strs];
        assert_eq!(bytes.insert_batch(&both, 5, &mut scratch), [0, 1, 0, 2, 1]);
        assert_eq!(
            skip.insert_batch(&both, 5, &mut scratch),
            [0, NO_ID, 0, 1, NO_ID]
        );
        assert_eq!((direct.len(), bytes.len(), skip.len()), (3, 3, 2));
        // A second batch continues the numbering.
        let more = Column::from_i64(vec![9, 4]);
        assert_eq!(direct.insert_batch(&[&more], 2, &mut scratch), [2, 3]);

        let keys = Column::with_validity(ColumnData::I64(vec![9, 8, 7]), vec![true, true, false]);
        assert_eq!(
            direct.probe_batch(&[&keys], 3, &mut scratch),
            [2, NO_ID, NO_ID]
        );
        assert_eq!(bytes.probe_batch(&both, 5, &mut scratch), [0, 1, 0, 2, 1]);
        assert_eq!(
            skip.probe_batch(&both, 5, &mut scratch),
            [0, NO_ID, 0, 1, NO_ID]
        );
    }

    #[test]
    fn byte_keys_store_each_key_once_and_keep_ids_across_growth() {
        let mut keys = ByteKeys::new();
        let key = |i: u32| format!("key-{}", i % 1000).into_bytes();
        let insert = |keys: &mut ByteKeys, k: &[u8]| keys.insert(k, hash_bytes(k));
        let get = |keys: &ByteKeys, k: &[u8]| keys.get(k, hash_bytes(k));
        for i in 0..3000 {
            assert_eq!(
                insert(&mut keys, &key(i)),
                (i % 1000, i < 1000),
                "insert {i}"
            );
        }
        assert_eq!(keys.len(), 1000);
        // Each distinct key once, back to back.
        let stored: usize = (0..1000).map(|i| key(i).len()).sum();
        assert_eq!(keys.arena.len(), stored);
        assert!(keys.slots.len() >= 2 * keys.len());
        // A reservation sizes the slots once for what is to come.
        let mut reserved = ByteKeys::new();
        reserved.reserve(1000);
        let slots = reserved.slots.len();
        for i in 0..1000 {
            insert(&mut reserved, &key(i));
        }
        assert_eq!((reserved.slots.len(), slots), (2048, 2048));
        assert_eq!(get(&keys, b"key-999"), Some(999));
        assert_eq!(get(&keys, b"key-1000"), None);
        // The empty key is a key like any other.
        assert_eq!(insert(&mut keys, b""), (1000, true));
        assert_eq!(get(&keys, b""), Some(1000));
    }

    #[test]
    fn hasher_folds_the_length() {
        // Same concatenation, different split points.
        let mut a = FastHasher::default();
        a.write(b"ab");
        let mut b = FastHasher::default();
        b.write(b"a");
        b.write(b"b");
        assert_ne!(a.finish(), b.finish());
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
    }
}
