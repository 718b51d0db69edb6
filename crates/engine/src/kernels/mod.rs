//! Typed columnar compute kernels and the per-task scratch-buffer pool.
//!
//! This is the engine's vectorized operator API. Operators no longer
//! interpret expressions row by row or materialize fresh buffers per
//! batch; they call kernels that work on borrowed typed slices and check
//! scratch space out of a [`pool::ScratchArena`] owned by the running
//! task. Every kernel is bit-compatible with the row-at-a-time path it
//! replaced — golden telemetry dumps stay byte-identical — and the
//! row-at-a-time originals survive in [`crate::reference`] as the
//! differential-test oracle.
//!
//! Layout:
//!
//! * [`pool`] — typed reusable buffers ([`pool::ScratchArena`]) with
//!   reuse accounting; `with_idx`/`with_mask` scope a buffer to a closure
//!   and recycle it on the way out.
//! * [`select`] — selection-bitmap filtering (mask → selection vector →
//!   gather), including fused filter+project.
//! * [`scalar`] — the one binary-expression kernel (crate-private):
//!   arithmetic and comparison over operands that are a column or an
//!   unbroadcast literal, into a column or a keep-mask; plus `like_mask`.
//! * [`agg`] — hash group-by: dense group-id assignment, typed group-key
//!   columns gathered as each group first appears, and typed per-group
//!   accumulators that finish straight into columns.
//! * [`join`] — build-side key index, probed a whole batch per call.
//! * [`sort`] — typed comparators and sort-by-permutation.
//! * [`hash`] — the multiply-mix hasher, and [`hash::KeyMap`], the one
//!   key → dense id map under the group-by and the join, mapping a batch
//!   of keys per call and storing each distinct key once.

pub mod agg;
pub mod hash;
pub mod join;
pub mod pool;
pub mod scalar;
pub mod select;
pub mod sort;
