//! Reusable typed scratch buffers, checked out per task.
//!
//! Operators need index vectors and keep-masks once per batch.
//! Allocating them fresh would cost an allocation per buffer per batch;
//! the arena makes reuse the default instead: a buffer is checked out
//! (cleared, capacity preserved), used, and recycled back, so
//! steady-state execution of a task allocates nothing per batch.
//!
//! Ownership rules:
//!
//! * engine code borrows a buffer through [`ScratchArena::with_idx`] /
//!   [`ScratchArena::with_mask`]: the buffer exists only inside the
//!   closure and goes back to the pool when the closure returns, so a
//!   checkout cannot outlive its scope or leak. The closure also gets
//!   the arena, so kernels it calls can draw scratch of their own;
//! * recycled buffers keep their capacity; a checkout clears content
//!   only, so a buffer must never be read before it is refilled;
//! * the arena is single-threaded by construction: it lives in a
//!   `TaskContext` and tasks never share contexts across threads.
//!
//! The `checkout_*` / `recycle_*` primitives stay public for the
//! benchmark's kernel probes; a checkout that is never recycled costs
//! only reuse, which `engine.scratch_reuses_total` shows.

/// Cumulative counters describing how well reuse is working.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out (fresh or reused).
    pub checkouts: u64,
    /// Checkouts served from the free list without allocating.
    pub reuses: u64,
    /// Checkouts that had to allocate a new buffer.
    pub fresh: u64,
}

/// Free lists of typed scratch buffers plus reuse accounting.
///
/// One arena lives in each [`crate::task::TaskContext`]; kernels that
/// need scratch space take `&mut ScratchArena` and must return every
/// buffer before they return (see the module docs for the rules).
#[derive(Debug, Default)]
pub struct ScratchArena {
    idx: Vec<Vec<usize>>,
    masks: Vec<Vec<bool>>,
    stats: PoolStats,
}

impl ScratchArena {
    /// An empty arena.
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// Check out an index buffer with at least `cap` capacity, cleared.
    pub fn checkout_idx(&mut self, cap: usize) -> Vec<usize> {
        self.stats.checkouts += 1;
        match self.idx.pop() {
            Some(mut v) => {
                self.stats.reuses += 1;
                v.clear();
                v.reserve(cap);
                v
            }
            None => {
                self.stats.fresh += 1;
                Vec::with_capacity(cap)
            }
        }
    }

    /// Return an index buffer to the free list.
    pub fn recycle_idx(&mut self, buf: Vec<usize>) {
        self.idx.push(buf);
    }

    /// Check out a boolean mask buffer with at least `cap` capacity, cleared.
    pub fn checkout_mask(&mut self, cap: usize) -> Vec<bool> {
        self.stats.checkouts += 1;
        match self.masks.pop() {
            Some(mut v) => {
                self.stats.reuses += 1;
                v.clear();
                v.reserve(cap);
                v
            }
            None => {
                self.stats.fresh += 1;
                Vec::with_capacity(cap)
            }
        }
    }

    /// Return a mask buffer to the free list.
    pub fn recycle_mask(&mut self, buf: Vec<bool>) {
        self.masks.push(buf);
    }

    /// Run `f` on an index buffer with at least `cap` capacity, cleared,
    /// and recycle it when `f` returns.
    pub fn with_idx<R>(
        &mut self,
        cap: usize,
        f: impl FnOnce(&mut Vec<usize>, &mut ScratchArena) -> R,
    ) -> R {
        let mut buf = self.checkout_idx(cap);
        let out = f(&mut buf, self);
        self.recycle_idx(buf);
        out
    }

    /// Run `f` on a mask buffer with at least `cap` capacity, cleared,
    /// and recycle it when `f` returns.
    pub fn with_mask<R>(
        &mut self,
        cap: usize,
        f: impl FnOnce(&mut Vec<bool>, &mut ScratchArena) -> R,
    ) -> R {
        let mut buf = self.checkout_mask(cap);
        let out = f(&mut buf, self);
        self.recycle_mask(buf);
        out
    }

    /// A snapshot of the reuse counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_recycled_buffers() {
        let mut arena = ScratchArena::new();
        let mut a = arena.checkout_idx(16);
        a.push(7);
        let ptr = a.as_ptr();
        arena.recycle_idx(a);
        let b = arena.checkout_idx(8);
        // Same backing allocation, content cleared.
        assert_eq!(b.as_ptr(), ptr);
        assert!(b.is_empty());
        assert!(b.capacity() >= 16);
        arena.recycle_idx(b);
        let s = arena.stats();
        assert_eq!(s.checkouts, 2);
        assert_eq!(s.reuses, 1);
        assert_eq!(s.fresh, 1);
    }

    #[test]
    fn typed_free_lists_are_independent() {
        let mut arena = ScratchArena::new();
        let m = arena.checkout_mask(4);
        let k = arena.checkout_idx(4);
        arena.recycle_mask(m);
        arena.recycle_idx(k);
        assert_eq!(arena.stats().fresh, 2);
        let m2 = arena.checkout_mask(4);
        let k2 = arena.checkout_idx(4);
        arena.recycle_mask(m2);
        arena.recycle_idx(k2);
        assert_eq!(arena.stats().reuses, 2);
    }

    #[test]
    fn scoped_buffers_return_to_the_pool_like_explicit_pairs() {
        // Nested scopes: an index buffer inside a mask buffer, the shape
        // of a filter whose kernel draws its own selection vector.
        let round = |arena: &mut ScratchArena| {
            arena.with_mask(8, |mask, arena| {
                mask.push(true);
                arena.with_idx(8, |sel, _| sel.push(0));
            })
        };
        let mut scoped = ScratchArena::new();
        round(&mut scoped);
        round(&mut scoped);

        let mut explicit = ScratchArena::new();
        for _ in 0..2 {
            let mut mask = explicit.checkout_mask(8);
            mask.push(true);
            let mut sel = explicit.checkout_idx(8);
            sel.push(0);
            explicit.recycle_idx(sel);
            explicit.recycle_mask(mask);
        }
        // Both buffers came back: the second round reused them.
        assert_eq!(scoped.stats(), explicit.stats());
        assert_eq!(
            scoped.stats(),
            PoolStats {
                checkouts: 4,
                reuses: 2,
                fresh: 2
            }
        );
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let mut arena = ScratchArena::new();
        for _ in 0..100 {
            let v = arena.checkout_idx(32);
            arena.recycle_idx(v);
        }
        assert_eq!(arena.stats().fresh, 1);
        assert_eq!(arena.stats().reuses, 99);
    }
}
