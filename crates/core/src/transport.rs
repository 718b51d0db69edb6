//! The hybrid shuffle transport (§7.1.3): provisioned in-memory shuffle
//! nodes with object-store fallback, carrying **real engine bytes**.
//!
//! This is the concrete [`ShuffleTransport`] the execution layer uses when
//! Cackle runs actual `cackle-engine` tasks:
//!
//! * every task receives the same list of shuffle nodes for its query;
//! * a partition's home node is chosen by **hashing the destination
//!   task** of the partition; if that node is full the write tries two
//!   more nodes before falling back to the object store — exactly the
//!   placement rule of §7.1.3 — and the transport remembers which
//!   producers spilled, so a read fetches exactly those objects;
//! * shuffle nodes are memory-capacity-limited in-memory key-value stores;
//! * object-store traffic is billed per request through
//!   [`cackle_cloud::ObjectStore`]'s ledger.

// Hot path: no panic paths outside tests (clippy.toml exempts test code).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use cackle_cloud::ObjectStore;
use cackle_engine::shuffle::{ShuffleKey, ShuffleStats, ShuffleTransport};
use cackle_faults::{FaultInjector, TaskFaults};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// How many nodes a write attempts before falling back to the object
/// store (the home node plus two alternates, §7.1.3).
pub const PLACEMENT_ATTEMPTS: usize = 3;

/// One in-memory shuffle node with bounded memory.
#[derive(Debug)]
struct ShuffleNode {
    capacity_bytes: u64,
    used_bytes: u64,
    data: BTreeMap<ShuffleKey, Vec<cackle_engine::shuffle::ShuffleChunk>>,
}

impl ShuffleNode {
    fn new(capacity_bytes: u64) -> Self {
        ShuffleNode {
            capacity_bytes,
            used_bytes: 0,
            data: BTreeMap::new(),
        }
    }

    fn has_room(&self, len: u64) -> bool {
        self.used_bytes + len <= self.capacity_bytes
    }

    /// Store a chunk the node [`has_room`](Self::has_room) for.
    fn put(&mut self, key: ShuffleKey, task: u32, bytes: Arc<[u8]>) {
        self.used_bytes += bytes.len() as u64;
        self.data.entry(key).or_default().push((task, bytes));
    }

    fn get(&self, key: &ShuffleKey) -> Vec<cackle_engine::shuffle::ShuffleChunk> {
        self.data.get(key).cloned().unwrap_or_default()
    }

    fn delete_query(&mut self, query: u64) {
        self.data.retain(|k, chunks| {
            if k.query == query {
                self.used_bytes -= chunks.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
                false
            } else {
                true
            }
        });
    }
}

#[derive(Debug, Default)]
struct HybridStats {
    node_writes: u64,
    node_bytes: u64,
    s3_fallback_writes: u64,
    s3_bytes: u64,
    reads: u64,
    bytes_read: u64,
}

/// Where the chunks are: the node tier, and which producers went past it.
#[derive(Debug)]
struct Placement {
    nodes: Vec<ShuffleNode>,
    /// Producers whose chunk for a partition is in the object store.
    spilled: BTreeMap<ShuffleKey, BTreeSet<u32>>,
}

/// The hybrid node + object-store shuffle.
#[derive(Debug)]
pub struct HybridShuffle {
    placement: Mutex<Placement>,
    store: Arc<ObjectStore>,
    stats: Mutex<HybridStats>,
    /// Keyed view of the fault plan consulted on writes (disabled by
    /// default): an injected transport drop that exhausts its retry bound
    /// routes the chunk to the object store instead of a node — recovery
    /// by fallback, so no data is ever lost.
    faults: TaskFaults,
}

impl HybridShuffle {
    /// Build with `node_count` nodes of `node_capacity_bytes` each,
    /// falling back to `store`.
    pub fn new(node_count: usize, node_capacity_bytes: u64, store: Arc<ObjectStore>) -> Self {
        HybridShuffle {
            placement: Mutex::new(Placement {
                nodes: (0..node_count)
                    .map(|_| ShuffleNode::new(node_capacity_bytes))
                    .collect(),
                spilled: BTreeMap::new(),
            }),
            store,
            stats: Mutex::new(HybridStats::default()),
            faults: TaskFaults::default(),
        }
    }

    /// Consult `faults` on every subsequent write (see the `faults` field).
    pub fn with_faults(mut self, faults: &FaultInjector) -> Self {
        self.faults = faults.keyed();
        self
    }

    // Poison-forgiving lock access: a panicking task must not wedge the
    // shared transport for the rest of the executor.
    fn lock_placement(&self) -> MutexGuard<'_, Placement> {
        self.placement.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_stats(&self) -> MutexGuard<'_, HybridStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn object_key(key: ShuffleKey, task: u32) -> String {
        format!(
            "shuffle/q{}/s{}/p{}/t{}",
            key.query, key.stage, key.partition, task
        )
    }

    /// The nodes a partition's chunks may sit on: its home node — the hash
    /// of the destination task — then the alternates, in write order.
    fn candidate_nodes(key: ShuffleKey, node_count: usize) -> impl Iterator<Item = usize> {
        // FNV over (query, stage, partition) — the "destination task" is
        // the partition index; query/stage decorrelate across queries.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key
            .partition
            .to_le_bytes()
            .into_iter()
            .chain(key.stage.to_le_bytes())
            .chain(key.query.to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let attempts = PLACEMENT_ATTEMPTS.min(node_count);
        (0..attempts).map(move |attempt| ((h % node_count as u64) as usize + attempt) % node_count)
    }

    /// Chunks written past the node tier to the object store.
    pub fn s3_fallback_writes(&self) -> u64 {
        self.lock_stats().s3_fallback_writes
    }

    /// Chunks absorbed by shuffle nodes.
    pub fn node_writes(&self) -> u64 {
        self.lock_stats().node_writes
    }

    /// Bytes currently resident on shuffle nodes.
    pub fn node_resident_bytes(&self) -> u64 {
        let placement = self.lock_placement();
        placement.nodes.iter().map(|n| n.used_bytes).sum()
    }
}

impl ShuffleTransport for HybridShuffle {
    fn write(&self, key: ShuffleKey, producer_task: u32, data: Vec<u8>) {
        let len = data.len() as u64;
        let object_key = Self::object_key(key, producer_task);
        // An injected transport drop that survives the retry bound skips
        // the node tier entirely; the durable object store absorbs it.
        // The draw is keyed by the chunk's stable identity, so the
        // outcome does not depend on the order the executor's stage
        // barrier publishes in.
        let dropped = self
            .faults
            .transport_write_fallback_keyed(cackle_faults::op_key(object_key.as_bytes()));
        let mut placement = self.lock_placement();
        let accepting = Self::candidate_nodes(key, placement.nodes.len())
            .find(|&ni| !dropped && placement.nodes[ni].has_room(len));
        if let Some(ni) = accepting {
            placement.nodes[ni].put(key, producer_task, data.into());
            drop(placement);
            let mut s = self.lock_stats();
            s.node_writes += 1;
            s.node_bytes += len;
            return;
        }
        // Fall back to the object store (billed per request).
        placement
            .spilled
            .entry(key)
            .or_default()
            .insert(producer_task);
        drop(placement);
        self.store.put(&object_key, data);
        let mut s = self.lock_stats();
        s.s3_fallback_writes += 1;
        s.s3_bytes += len;
    }

    fn read(&self, key: ShuffleKey) -> Vec<Arc<[u8]>> {
        // Gather node-resident chunks from every node the write path could
        // have used, then the chunks recorded as spilled.
        let placement = self.lock_placement();
        let mut chunks: Vec<(u32, Arc<[u8]>)> = Vec::new();
        for ni in Self::candidate_nodes(key, placement.nodes.len()) {
            chunks.extend(placement.nodes[ni].get(&key));
        }
        let spilled = placement.spilled.get(&key).cloned().unwrap_or_default();
        drop(placement);
        for task in spilled {
            let stored = self.store.get(&Self::object_key(key, task));
            chunks.extend(stored.map(|bytes| (task, bytes)));
        }
        chunks.sort_by_key(|(t, _)| *t);
        let mut s = self.lock_stats();
        s.reads += chunks.len() as u64;
        s.bytes_read += chunks.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
        chunks.into_iter().map(|(_, d)| d).collect()
    }

    fn delete_query(&self, query: u64) {
        let mut placement = self.lock_placement();
        for n in placement.nodes.iter_mut() {
            n.delete_query(query);
        }
        placement.spilled.retain(|k, _| k.query != query);
        drop(placement);
        self.store.delete_prefix(&format!("shuffle/q{query}/"));
    }

    fn stats(&self) -> ShuffleStats {
        let s = self.lock_stats();
        ShuffleStats {
            writes: s.node_writes + s.s3_fallback_writes,
            reads: s.reads,
            bytes_written: s.node_bytes + s.s3_bytes,
            bytes_read: s.bytes_read,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cackle_cloud::Pricing;

    fn store() -> Arc<ObjectStore> {
        Arc::new(ObjectStore::new(Pricing::default()))
    }

    fn key(q: u64, p: u32) -> ShuffleKey {
        ShuffleKey {
            query: q,
            stage: 0,
            partition: p,
        }
    }

    #[test]
    fn small_writes_land_on_nodes() {
        let s = store();
        let h = HybridShuffle::new(3, 1 << 20, Arc::clone(&s));
        for task in 0..4 {
            h.write(key(1, 0), task, vec![task as u8; 100]);
        }
        assert_eq!(h.node_writes(), 4);
        assert_eq!(h.s3_fallback_writes(), 0);
        let chunks = h.read(key(1, 0));
        assert_eq!(chunks.len(), 4);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c[0], i as u8, "producer order");
        }
        // Nothing spilled, so the object store saw no request at all.
        assert_eq!(s.ledger().put_requests, 0);
        assert_eq!(s.ledger().get_requests, 0);
    }

    #[test]
    fn overflow_falls_back_to_object_store() {
        let s = store();
        // Nodes hold only 150 bytes each.
        let h = HybridShuffle::new(2, 150, Arc::clone(&s));
        for task in 0..6 {
            h.write(key(1, 0), task, vec![task as u8; 100]);
        }
        assert!(h.s3_fallback_writes() > 0, "expected S3 fallback");
        assert!(h.node_writes() > 0, "nodes should absorb what fits");
        // Reads reassemble everything in producer order regardless of tier.
        let chunks = h.read(key(1, 0));
        assert_eq!(chunks.len(), 6);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c[0], i as u8);
        }
        assert!(s.ledger().put_requests > 0);
        // The read fetched what spilled and probed for nothing else.
        assert_eq!(s.ledger().get_requests, h.s3_fallback_writes());
    }

    #[test]
    fn reads_bill_one_get_per_spilled_chunk_plus_injected_retries() {
        use cackle_faults::{FaultPlan, FaultSpec, RecoveryPolicy};
        use cackle_telemetry::Telemetry;
        let s = store();
        let t = Telemetry::new();
        let spec = FaultSpec::default().with_store_errors(0.5, 0.0);
        let plan = FaultPlan::compile(&spec, 13).unwrap();
        s.inject_faults(&FaultInjector::new(plan, RecoveryPolicy::default()).instrumented(&t));
        let h = HybridShuffle::new(0, 0, Arc::clone(&s));
        for task in 0..40 {
            h.write(key(3, 1), task, vec![task as u8; 10]);
        }
        assert_eq!(h.read(key(3, 1)).len(), 40);
        assert!(
            t.counter("fault.store_get_errors_total") > 0,
            "the plan should inject GET errors"
        );
        // Every attempt after a request's first is a retry, including
        // those of a request that failed all of its attempts.
        let retried = t.counter("recovery.retries_total");
        assert_eq!(s.ledger().get_requests, 40 + retried);
    }

    #[test]
    fn sparse_spilled_producers_all_come_back() {
        let s = store();
        let h = HybridShuffle::new(0, 0, Arc::clone(&s));
        h.write(key(4, 0), 0, vec![0; 8]);
        h.write(key(4, 0), 200, vec![200; 8]);
        let chunks = h.read(key(4, 0));
        assert_eq!(chunks.len(), 2);
        assert_eq!((chunks[0][0], chunks[1][0]), (0, 200));
        assert_eq!(s.ledger().get_requests, 2);
    }

    #[test]
    fn zero_nodes_means_pure_s3() {
        let s = store();
        let h = HybridShuffle::new(0, 0, Arc::clone(&s));
        h.write(key(2, 1), 0, vec![9; 50]);
        assert_eq!(h.s3_fallback_writes(), 1);
        let chunks = h.read(key(2, 1));
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0][0], 9);
    }

    #[test]
    fn delete_query_frees_node_memory_and_objects() {
        let s = store();
        let h = HybridShuffle::new(1, 120, Arc::clone(&s));
        h.write(key(1, 0), 0, vec![1; 100]); // node
        h.write(key(1, 0), 1, vec![2; 100]); // falls back (node full)
        assert_eq!(h.node_resident_bytes(), 100);
        assert_eq!(s.object_count(), 1);
        h.delete_query(1);
        assert_eq!(h.node_resident_bytes(), 0);
        assert_eq!(s.object_count(), 0);
        assert!(h.read(key(1, 0)).is_empty());
    }

    #[test]
    fn partitions_spread_across_nodes() {
        let s = store();
        let h = HybridShuffle::new(4, 1 << 20, s);
        for p in 0..32 {
            h.write(key(1, p), 0, vec![0; 64]);
        }
        let placement = h.lock_placement();
        let used: Vec<u64> = placement.nodes.iter().map(|n| n.used_bytes).collect();
        drop(placement);
        assert!(used.iter().all(|&u| u > 0), "placement skew: {used:?}");
    }

    #[test]
    fn engine_query_runs_through_hybrid_shuffle() {
        // Full integration: a distributed TPC-H-style aggregation through
        // capacity-limited nodes with a billed S3 fallback.
        use cackle_engine::prelude::*;
        let schema = Schema::shared(&[("k", DataType::I64), ("v", DataType::F64)]);
        let parts: Vec<Batch> = (0..4)
            .map(|p| {
                Batch::new(
                    schema.clone(),
                    vec![
                        Column::from_i64((0..256).map(|x| (p * 256 + x) % 7).collect()),
                        Column::from_f64((0..256).map(|x| x as f64).collect()),
                    ],
                )
            })
            .collect();
        let catalog = Catalog::new();
        catalog.register(Table::new("t", schema.clone(), parts));
        let partial = Schema::shared(&[("k", DataType::I64), ("s", DataType::F64)]);
        let dag = StageDag::new(
            "sum",
            vec![
                Stage {
                    id: 0,
                    root: PlanNode::HashAggregate {
                        input: Box::new(PlanNode::Scan {
                            table: "t".into(),
                            filter: None,
                            projection: None,
                        }),
                        group_by: vec![Expr::col(0)],
                        aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1))],
                        schema: partial.clone(),
                    },
                    tasks: 4,
                    exchange: ExchangeMode::Hash {
                        keys: vec![Expr::col(0)],
                        partitions: 2,
                    },
                    output_schema: partial.clone(),
                },
                Stage {
                    id: 1,
                    root: PlanNode::HashAggregate {
                        input: Box::new(PlanNode::ShuffleRead { stage: 0 }),
                        group_by: vec![Expr::col(0)],
                        aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1))],
                        schema: partial.clone(),
                    },
                    tasks: 2,
                    exchange: ExchangeMode::Gather,
                    output_schema: partial,
                },
            ],
        );
        let s = store();
        // Tiny nodes force part of the exchange through S3.
        let hybrid = HybridShuffle::new(2, 256, Arc::clone(&s));
        let via_hybrid = Executor::new(1).execute_query(&dag, 7, &catalog, &hybrid);
        let via_memory = Executor::new(1).execute_query(&dag, 8, &catalog, &MemoryShuffle::new());
        // Same result regardless of where the bytes travelled.
        let norm = |b: &Batch| {
            let mut rows: Vec<(i64, i64)> = (0..b.num_rows())
                .map(|i| (b.columns[0].i64s()[i], b.columns[1].f64s()[i] as i64))
                .collect();
            rows.sort_unstable();
            rows
        };
        assert_eq!(norm(&via_hybrid), norm(&via_memory));
        assert!(
            hybrid.s3_fallback_writes() > 0,
            "test should exercise fallback"
        );
    }
}
