//! Shuffle transport abstraction.
//!
//! Tasks exchange intermediate state through a [`ShuffleTransport`]. The
//! engine ships an unbounded in-memory implementation for tests and
//! single-process runs; the Cackle core crate provides the hybrid
//! shuffle-node + object-store transport with capacity fallback (§7.1.3).

// Hot path: no panic paths outside tests (clippy.toml exempts test code).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};

/// Identifies one shuffle partition of one producing stage of one query.
/// Ordered so `BTreeMap`-backed transports iterate deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShuffleKey {
    /// Query id (unique per execution).
    pub query: u64,
    /// Producing stage id.
    pub stage: u32,
    /// Destination partition (equals the consuming task index, or 0 for
    /// broadcast outputs).
    pub partition: u32,
}

/// Aggregate transport statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// Partition chunks written.
    pub writes: u64,
    /// Partition chunks read.
    pub reads: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
}

/// Where intermediate data travels between stages.
pub trait ShuffleTransport: Send + Sync {
    /// Store one producer task's chunk for a partition.
    fn write(&self, key: ShuffleKey, producer_task: u32, data: Vec<u8>);

    /// Fetch every producer's chunk for a partition, in producer-task order.
    fn read(&self, key: ShuffleKey) -> Vec<Arc<[u8]>>;

    /// Drop all state belonging to a query (called when it completes).
    fn delete_query(&self, query: u64);

    /// Transport statistics so far.
    fn stats(&self) -> ShuffleStats;
}

/// A task's read-only view of the shuffle transport: the only shuffle
/// handle a [`TaskContext`](crate::task::TaskContext) holds. Tasks run
/// concurrently, so they may read what earlier stages published but
/// never publish themselves; their chunks go back to the executor, whose
/// stage barrier writes them in task-index order. Task code that tries to
/// write does not compile:
///
/// ```compile_fail
/// use cackle_engine::prelude::*;
/// fn task_code(ctx: &TaskContext<'_>, key: ShuffleKey) {
///     ctx.shuffle.write(key, ctx.task, Vec::new());
/// }
/// ```
#[derive(Clone, Copy)]
pub struct ShuffleReader<'a>(&'a dyn ShuffleTransport);

impl<'a> ShuffleReader<'a> {
    /// A read-only view of `transport`.
    pub(crate) fn new(transport: &'a dyn ShuffleTransport) -> Self {
        ShuffleReader(transport)
    }

    /// Fetch every producer's chunk for a partition, in producer-task
    /// order ([`ShuffleTransport::read`]).
    pub fn read(&self, key: ShuffleKey) -> Vec<Arc<[u8]>> {
        self.0.read(key)
    }
}

/// One producer task's stored chunk: `(producer_task, bytes)`.
pub type ShuffleChunk = (u32, Arc<[u8]>);

/// Unbounded in-memory shuffle for tests and engine-only execution.
#[derive(Debug, Default)]
pub struct MemoryShuffle {
    data: RwLock<BTreeMap<ShuffleKey, Vec<ShuffleChunk>>>,
    stats: Mutex<ShuffleStats>,
}

impl MemoryShuffle {
    /// An empty transport.
    pub fn new() -> Self {
        Self::default()
    }

    // Poison-forgiving lock access: a panicking task must not wedge the
    // transport for the other executor threads.
    fn data_read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<ShuffleKey, Vec<ShuffleChunk>>> {
        self.data.read().unwrap_or_else(|e| e.into_inner())
    }

    fn data_write(
        &self,
    ) -> std::sync::RwLockWriteGuard<'_, BTreeMap<ShuffleKey, Vec<ShuffleChunk>>> {
        self.data.write().unwrap_or_else(|e| e.into_inner())
    }

    fn stats_lock(&self) -> std::sync::MutexGuard<'_, ShuffleStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Bytes currently held.
    pub fn resident_bytes(&self) -> u64 {
        self.data_read()
            .values()
            .flat_map(|v| v.iter())
            .map(|(_, d)| d.len() as u64)
            .sum()
    }
}

impl ShuffleTransport for MemoryShuffle {
    fn write(&self, key: ShuffleKey, producer_task: u32, data: Vec<u8>) {
        let len = data.len() as u64;
        self.data_write()
            .entry(key)
            .or_default()
            .push((producer_task, data.into()));
        let mut s = self.stats_lock();
        s.writes += 1;
        s.bytes_written += len;
    }

    fn read(&self, key: ShuffleKey) -> Vec<Arc<[u8]>> {
        let guard = self.data_read();
        let mut chunks: Vec<ShuffleChunk> = guard.get(&key).cloned().unwrap_or_default();
        drop(guard);
        chunks.sort_by_key(|(t, _)| *t);
        let mut s = self.stats_lock();
        s.reads += chunks.len() as u64;
        s.bytes_read += chunks.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
        chunks.into_iter().map(|(_, d)| d).collect()
    }

    fn delete_query(&self, query: u64) {
        self.data_write().retain(|k, _| k.query != query);
    }

    fn stats(&self) -> ShuffleStats {
        *self.stats_lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_return_in_producer_order() {
        let t = MemoryShuffle::new();
        let key = ShuffleKey {
            query: 1,
            stage: 0,
            partition: 3,
        };
        t.write(key, 2, vec![2]);
        t.write(key, 0, vec![0]);
        t.write(key, 1, vec![1]);
        let chunks = t.read(key);
        assert_eq!(chunks.len(), 3);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c[0], i as u8);
        }
    }

    #[test]
    fn reads_of_missing_partitions_are_empty() {
        let t = MemoryShuffle::new();
        assert!(t
            .read(ShuffleKey {
                query: 9,
                stage: 0,
                partition: 0
            })
            .is_empty());
    }

    #[test]
    fn delete_query_scopes_by_query() {
        let t = MemoryShuffle::new();
        t.write(
            ShuffleKey {
                query: 1,
                stage: 0,
                partition: 0,
            },
            0,
            vec![1; 10],
        );
        t.write(
            ShuffleKey {
                query: 2,
                stage: 0,
                partition: 0,
            },
            0,
            vec![2; 20],
        );
        assert_eq!(t.resident_bytes(), 30);
        t.delete_query(1);
        assert_eq!(t.resident_bytes(), 20);
        assert!(t
            .read(ShuffleKey {
                query: 1,
                stage: 0,
                partition: 0
            })
            .is_empty());
        assert_eq!(
            t.read(ShuffleKey {
                query: 2,
                stage: 0,
                partition: 0
            })
            .len(),
            1
        );
    }

    #[test]
    fn stats_track_traffic() {
        let t = MemoryShuffle::new();
        let key = ShuffleKey {
            query: 1,
            stage: 0,
            partition: 0,
        };
        t.write(key, 0, vec![0; 100]);
        t.read(key);
        let s = t.stats();
        assert_eq!(
            s,
            ShuffleStats {
                writes: 1,
                reads: 1,
                bytes_written: 100,
                bytes_read: 100
            }
        );
    }
}
