//! Filter-by-selection-bitmap kernels.
//!
//! The selection convention: a predicate produces a keep-mask
//! (`Vec<bool>`, one entry per row, `true` = keep — a null predicate
//! result is already folded to `false` by `predicate_mask`). The mask is
//! turned into a selection vector (`Vec<usize>` of kept row indices)
//! exactly once, then every column is gathered through it. The legacy
//! `Batch::filter` recomputed the index list per column.

use crate::batch::Batch;
use crate::kernels::pool::ScratchArena;
use crate::schema::SchemaRef;

/// Fill `sel` (cleared first) with the indices of `true` mask entries.
pub fn selection_from_mask(mask: &[bool], sel: &mut Vec<usize>) {
    sel.clear();
    for (i, &keep) in mask.iter().enumerate() {
        if keep {
            sel.push(i);
        }
    }
}

/// Keep the rows of `batch` selected by `mask`, using a pooled selection
/// vector. Output equals `batch.filter(mask)`.
pub fn filter_batch(batch: &Batch, mask: &[bool], arena: &mut ScratchArena) -> Batch {
    assert_eq!(mask.len(), batch.num_rows(), "filter mask length mismatch");
    arena.with_idx(batch.num_rows(), |sel, _| {
        selection_from_mask(mask, sel);
        batch.take(sel)
    })
}

/// Filter and project in one pass: gather only the projected columns
/// through one shared selection vector (via a borrowed
/// [`crate::batch::BatchView`] — unprojected columns are never touched).
/// Output equals `batch.filter(mask)` followed by a column projection
/// onto `indices`.
pub fn filter_project(
    batch: &Batch,
    mask: &[bool],
    indices: &[usize],
    out_schema: SchemaRef,
    arena: &mut ScratchArena,
) -> Batch {
    assert_eq!(mask.len(), batch.num_rows(), "filter mask length mismatch");
    let view = batch.project_view(out_schema, indices);
    arena.with_idx(batch.num_rows(), |sel, _| {
        selection_from_mask(mask, sel);
        view.gather(sel)
    })
}
