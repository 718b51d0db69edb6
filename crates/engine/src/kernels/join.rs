//! Hash-join build and probe kernels.
//!
//! The build side is indexed once per task as a flat CSR directory: a
//! [`KeyMap`] from each distinct key to a dense group id, then every
//! build row listed by group (`rows[starts[g]..starts[g + 1]]`). Besides
//! the map's own storage that is three vectors however many keys there
//! are — a bucket `Vec` per key made the build allocate once per
//! distinct key, which grows with the data (`tests/alloc_budget.rs`).
//! Single `i64` keys are mapped directly; every other key shape uses
//! its canonical row-key bytes, encoded into a reused scratch buffer on
//! the probe side and owned once per distinct key on the build side.
//!
//! Output ordering is preserved exactly: each group lists its build
//! rows in row order, and [`probe_pairs`] emits matches in probe-row
//! order, so the delegating `JoinHashTable` produces byte-identical
//! batches.

use crate::column::{Column, ColumnData};
use crate::kernels::hash::KeyMap;

/// Key → build-row index over the concatenated build side.
pub struct KeyIndex {
    keys: KeyMap,
    /// Group `g`'s rows are `rows[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    /// Build rows, grouped by key, in row order within each group.
    rows: Vec<u32>,
}

/// Group id marking a build row with a null key.
const NULL_KEY: u32 = u32::MAX;

impl KeyIndex {
    /// Index `nrows` build rows by their evaluated key columns. Rows
    /// with a null key are excluded (SQL join semantics: null keys match
    /// nothing) — which is what makes the direct `i64` map safe even for
    /// nullable keys; unlike grouping, joins never need a null-key
    /// identity.
    pub fn build(key_cols: &[&Column], nrows: usize) -> KeyIndex {
        let mut keys = match key_cols {
            [key] if matches!(key.data, ColumnData::I64(_)) => KeyMap::direct_i64(),
            _ => KeyMap::bytes(),
        };
        let mut group_of = vec![NULL_KEY; nrows];
        let valid_rows = (0..nrows).filter(|&row| key_cols.iter().all(|k| k.is_valid(row)));
        keys.insert_rows(key_cols, valid_rows, |row, g, _| group_of[row] = g);
        let ngroups = keys.len();
        // Counting pass: `starts[g + 1]` = rows in group `g`, then
        // prefix sums turn counts into offsets.
        let mut starts = vec![0u32; ngroups + 1];
        for &g in &group_of {
            if g != NULL_KEY {
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
            if g != NULL_KEY {
                let slot = &mut next[g as usize];
                rows[*slot as usize] = row as u32;
                *slot += 1;
            }
        }
        KeyIndex { keys, starts, rows }
    }

    /// The build rows matching probe row `row`, or `None` for a null key
    /// or no match. `scratch` is the reused key-encoding buffer.
    pub fn hits<'a>(
        &'a self,
        key_cols: &[&Column],
        row: usize,
        scratch: &mut Vec<u8>,
    ) -> Option<&'a [u32]> {
        if !key_cols.iter().all(|k| k.is_valid(row)) {
            return None;
        }
        let g = self.keys.get(key_cols, row, scratch)? as usize;
        Some(&self.rows[self.starts[g] as usize..self.starts[g + 1] as usize])
    }
}

/// Fill `mask` (cleared first) with the Semi/Anti keep decision per
/// probe row: `true` where the row's match status equals `want_match`.
pub fn semi_anti_mask(
    index: &KeyIndex,
    key_cols: &[&Column],
    nrows: usize,
    want_match: bool,
    mask: &mut Vec<bool>,
    scratch: &mut Vec<u8>,
) {
    mask.clear();
    for row in 0..nrows {
        let matched = index.hits(key_cols, row, scratch).is_some();
        mask.push(matched == want_match);
    }
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
    scratch: &mut Vec<u8>,
) {
    for row in 0..nrows {
        match index.hits(key_cols, row, scratch) {
            Some(rows) => {
                for &b in rows {
                    probe_idx.push(row);
                    build_idx.push(b as usize);
                }
            }
            None => {
                if let Some(u) = unmatched.as_deref_mut() {
                    u.push(row);
                }
            }
        }
    }
}
