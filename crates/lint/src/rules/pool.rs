//! L16 · pooled scratch buffers must go back to the pool.
//!
//! The kernels draw scratch space from `ScratchArena` in checkout /
//! recycle pairs (`checkout_idx`/`recycle_idx`, `checkout_mask`/
//! `recycle_mask`). A checkout without a matching recycle in the same
//! function silently downgrades
//! the pool to an allocator: the buffer is dropped instead of returned,
//! every subsequent checkout of that type allocates fresh, and the
//! reuse counters the telemetry layer reports go flat.
//!
//! The rule counts checkout and recycle *call sites* per buffer type
//! within each function and flags any imbalance. Functions that
//! genuinely transfer buffer ownership to a caller should carry a
//! `// cackle-lint: allow(L16)` on the checkout line stating where the
//! recycle happens.

use super::RawFinding;
use crate::index::Workspace;
use crate::LintId;

/// The pooled buffer types, named by the API suffix.
const SUFFIXES: [&str; 2] = ["idx", "mask"];

pub fn check(ws: &Workspace, out: &mut Vec<RawFinding>) {
    for (id, f) in ws.index.fns.iter().enumerate() {
        for suffix in SUFFIXES {
            let checkout_name = format!("checkout_{suffix}");
            let recycle_name = format!("recycle_{suffix}");
            let mut checkouts = 0usize;
            let mut recycles = 0usize;
            let mut anchor = None;
            for call in &f.calls {
                if call.name == checkout_name {
                    checkouts += 1;
                    anchor.get_or_insert(call.name_tok);
                } else if call.name == recycle_name {
                    recycles += 1;
                    anchor.get_or_insert(call.name_tok);
                }
            }
            if checkouts == recycles {
                continue;
            }
            let Some(tok) = anchor else { continue };
            let fn_name = &ws.fn_item(id).name;
            out.push(RawFinding {
                fix: Vec::new(),
                file: f.file,
                tok,
                id: LintId::L16,
                message: format!(
                    "`{fn_name}` has {checkouts} `{checkout_name}` but \
                     {recycles} `{recycle_name}` call site(s): a checked-out \
                     `{suffix}` buffer is not returned to the pool"
                ),
                suggestion: format!(
                    "recycle-buffer: pair every `{checkout_name}` with a \
                     `{recycle_name}` before returning, or annotate an \
                     ownership transfer with `// cackle-lint: allow(L16)` \
                     naming where the buffer is recycled"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<RawFinding> {
        let ws = Workspace::build(vec![(
            "crates/engine/src/kernels/select.rs".to_string(),
            src.to_string(),
        )]);
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    #[test]
    fn unbalanced_checkout_flagged() {
        let f = findings(
            "pub fn filter(arena: &mut ScratchArena) {\n\
                 let sel = arena.checkout_idx(64);\n\
                 let mask = arena.checkout_mask(64);\n\
                 arena.recycle_mask(mask);\n\
             }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("checkout_idx"));
        assert!(f[0].suggestion.starts_with("recycle-buffer:"));
    }

    #[test]
    fn balanced_pairs_clean() {
        assert!(findings(
            "pub fn filter(arena: &mut ScratchArena) {\n\
                 let sel = arena.checkout_idx(64);\n\
                 let mask = arena.checkout_mask(64);\n\
                 arena.recycle_mask(mask);\n\
                 arena.recycle_idx(sel);\n\
             }",
        )
        .is_empty());
        // Two checkouts, two recycles of the same type balance too.
        assert!(findings(
            "pub fn twice(arena: &mut ScratchArena) {\n\
                 let a = arena.checkout_idx(8);\n\
                 let b = arena.checkout_idx(8);\n\
                 arena.recycle_idx(a);\n\
                 arena.recycle_idx(b);\n\
             }",
        )
        .is_empty());
    }

    #[test]
    fn stray_recycle_flagged() {
        let f = findings(
            "pub fn oops(arena: &mut ScratchArena, m: Vec<bool>) {\n\
                 arena.recycle_mask(m);\n\
                 let n = arena.checkout_mask(4);\n\
                 arena.recycle_mask(n);\n\
             }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("1 `checkout_mask`"));
    }
}
