//! Hash-join build and probe kernels.
//!
//! The build side is indexed once per task as a flat CSR directory: a
//! [`KeyMap`] from each distinct key to a dense group id, then every
//! build row listed by group (`rows[starts[g]..starts[g + 1]]`). Besides
//! the map's own storage that is three vectors however many keys there
//! are — a bucket `Vec` per key made the build allocate once per
//! distinct key, which grows with the data (`tests/alloc_budget.rs`).
//! Single `i64` keys are mapped directly; every other key shape uses
//! its canonical row-key bytes, stored once per distinct key in the
//! map's arena. Rows with a null key column are keyless ([`Nulls::Skip`]):
//! never indexed, never matched.
//!
//! Both probes map a whole probe batch per [`KeyMap::probe_batch`] call,
//! which matches the key representation, borrows the key slice and
//! combines the key columns' validity once per batch. Output ordering is
//! preserved exactly: each group lists its build rows in row order, and
//! [`probe_pairs`] emits matches in probe-row order, so the delegating
//! `JoinHashTable` produces byte-identical batches.

use crate::column::{Column, ColumnData};
use crate::kernels::hash::{KeyMap, KeyScratch, Nulls, NO_ID};

/// Key → build-row index over the concatenated build side.
pub struct KeyIndex {
    keys: KeyMap,
    /// Group `g`'s rows are `rows[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    /// Build rows, grouped by key, in row order within each group.
    rows: Vec<u32>,
}

impl KeyIndex {
    /// Index `nrows` build rows by their evaluated key columns. Rows
    /// with a null key are excluded (SQL join semantics: null keys match
    /// nothing): both maps leave them keyless ([`NO_ID`]), the byte map
    /// because it is built with [`Nulls::Skip`]. Unlike grouping, joins
    /// never need a null-key identity.
    pub fn build(key_cols: &[&Column], nrows: usize) -> KeyIndex {
        let mut keys = match key_cols {
            [key] if matches!(key.data, ColumnData::I64(_)) => KeyMap::direct_i64(),
            _ => KeyMap::bytes(Nulls::Skip),
        };
        keys.reserve(nrows);
        let mut scratch = KeyScratch::default();
        let group_of = keys.insert_batch(key_cols, nrows, &mut scratch);
        let ngroups = keys.len();
        // Counting pass: `starts[g + 1]` = rows in group `g`, then
        // prefix sums turn counts into offsets.
        let mut starts = vec![0u32; ngroups + 1];
        for &g in group_of {
            if g != NO_ID {
                starts[g as usize + 1] += 1;
            }
        }
        for g in 0..ngroups {
            starts[g + 1] += starts[g];
        }
        // Fill in row order, so each group keeps its rows' build order.
        let mut next = starts.clone();
        let mut rows = vec![0u32; starts[ngroups] as usize];
        for (row, &g) in group_of.iter().enumerate() {
            if g != NO_ID {
                let slot = &mut next[g as usize];
                rows[*slot as usize] = row as u32;
                *slot += 1;
            }
        }
        KeyIndex { keys, starts, rows }
    }

    /// The build rows of group `g`.
    #[inline]
    fn rows_of(&self, g: u32) -> &[u32] {
        let g = g as usize;
        &self.rows[self.starts[g] as usize..self.starts[g + 1] as usize]
    }
}

/// Append to `rows` the probe rows a Semi (`want_match`) or Anti join
/// keeps, in row order: the selection the probe batch is gathered by.
pub fn semi_anti_rows(
    index: &KeyIndex,
    key_cols: &[&Column],
    nrows: usize,
    want_match: bool,
    rows: &mut Vec<usize>,
    scratch: &mut KeyScratch,
) {
    let ids = index.keys.probe_batch(key_cols, nrows, scratch);
    rows.extend((0..nrows).filter(|&row| (ids[row] != NO_ID) == want_match));
}

/// Collect matched `(probe, build)` row pairs in probe-row order into
/// `probe_idx`/`build_idx`, and — when `unmatched` is `Some` (Left
/// join) — the probe rows with no match, in row order.
pub fn probe_pairs(
    index: &KeyIndex,
    key_cols: &[&Column],
    nrows: usize,
    probe_idx: &mut Vec<usize>,
    build_idx: &mut Vec<usize>,
    mut unmatched: Option<&mut Vec<usize>>,
    scratch: &mut KeyScratch,
) {
    let ids = index.keys.probe_batch(key_cols, nrows, scratch);
    for (row, &g) in ids.iter().enumerate() {
        if g != NO_ID {
            for &b in index.rows_of(g) {
                probe_idx.push(row);
                build_idx.push(b as usize);
            }
        } else if let Some(u) = unmatched.as_deref_mut() {
            u.push(row);
        }
    }
}
