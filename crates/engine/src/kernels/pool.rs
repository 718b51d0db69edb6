//! Reusable typed scratch buffers, checked out per task.
//!
//! Operators need index vectors and keep-masks once per batch.
//! Allocating them fresh per batch is exactly the shape lint L14
//! polices; the arena makes its `reuse-buffer:` suggestion the default
//! instead: a buffer is checked out (cleared, capacity preserved), used,
//! and recycled back, so steady-state execution of a task allocates
//! nothing per batch.
//!
//! Ownership rules (enforced by lint L16):
//!
//! * every `checkout_*` call must be paired with a `recycle_*` call of
//!   the same type suffix in the same function — a checkout never
//!   outlives the task, and never crosses a function boundary implicitly;
//! * recycled buffers keep their capacity; `checkout_*` clears content
//!   only, so a buffer must never be read before it is refilled;
//! * the arena is single-threaded by construction: it lives in a
//!   `TaskContext` and tasks never share contexts across threads.

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
