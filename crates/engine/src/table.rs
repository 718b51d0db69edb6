//! In-memory tables and the catalog.
//!
//! Base tables live in memory as partitioned batch lists — the stand-in for
//! the paper's ORC files in S3 (the 100 MB-chunk layout maps to our
//! partitions; scan tasks divide partitions round-robin).

// Hot path: no panic paths outside tests (clippy.toml exempts test code).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::batch::Batch;
use crate::schema::SchemaRef;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A named, partitioned, immutable table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: SchemaRef,
    /// Horizontal partitions (the unit of scan parallelism).
    pub partitions: Vec<Batch>,
}

impl Table {
    /// Build a table, validating partition schemas.
    pub fn new(name: impl Into<String>, schema: SchemaRef, partitions: Vec<Batch>) -> Self {
        for (i, p) in partitions.iter().enumerate() {
            assert_eq!(p.schema, schema, "partition {i} schema mismatch");
        }
        Table {
            name: name.into(),
            schema,
            partitions,
        }
    }

    /// Total row count.
    pub fn num_rows(&self) -> usize {
        self.partitions.iter().map(|p| p.num_rows()).sum()
    }

    /// Approximate size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.partitions.iter().map(|p| p.byte_size()).sum()
    }

    /// The partitions scan task `task` of `num_tasks` is responsible for
    /// (round-robin assignment).
    pub fn partitions_for_task(&self, task: u32, num_tasks: u32) -> Vec<&Batch> {
        self.partitions
            .iter()
            .enumerate()
            .filter(|(i, _)| (*i as u32) % num_tasks == task)
            .map(|(_, b)| b)
            .collect()
    }
}

/// A shared, thread-safe name → table map.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<String, Arc<Table>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<Table>>> {
        self.tables.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Arc<Table>>> {
        self.tables.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Register (or replace) a table.
    pub fn register(&self, table: Table) {
        self.write().insert(table.name.clone(), Arc::new(table));
    }

    /// Look up a table if it is registered.
    pub fn try_get(&self, name: &str) -> Option<Arc<Table>> {
        self.read().get(name).cloned()
    }

    /// Look up a table, panicking with a clear message if missing (plans
    /// reference tables statically, so a miss is a plan-construction bug).
    #[expect(
        clippy::panic,
        reason = "plans name their tables statically: a miss is a plan-construction bug"
    )]
    pub fn get(&self, name: &str) -> Arc<Table> {
        self.try_get(name)
            .unwrap_or_else(|| panic!("table '{name}' not registered"))
    }

    /// Does the catalog contain `name`?
    pub fn contains(&self, name: &str) -> bool {
        self.read().contains_key(name)
    }

    /// Registered table names, sorted (`BTreeMap` keys are ordered).
    pub fn table_names(&self) -> Vec<String> {
        self.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::schema::Schema;
    use crate::types::DataType;

    fn table() -> Table {
        let schema = Schema::shared(&[("k", DataType::I64)]);
        let parts = (0..5)
            .map(|i| Batch::new(schema.clone(), vec![Column::from_i64(vec![i, i + 10])]))
            .collect();
        Table::new("t", schema, parts)
    }

    #[test]
    fn round_robin_partition_assignment() {
        let t = table();
        assert_eq!(t.num_rows(), 10);
        let t0 = t.partitions_for_task(0, 2);
        let t1 = t.partitions_for_task(1, 2);
        assert_eq!(t0.len(), 3); // partitions 0, 2, 4
        assert_eq!(t1.len(), 2); // partitions 1, 3
                                 // More tasks than partitions: extra tasks get nothing.
        assert!(t.partitions_for_task(7, 8).is_empty());
    }

    #[test]
    fn catalog_roundtrip() {
        let c = Catalog::new();
        c.register(table());
        assert!(c.contains("t"));
        assert_eq!(c.get("t").num_rows(), 10);
        assert_eq!(c.table_names(), vec!["t".to_string()]);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn missing_table_panics() {
        Catalog::new().get("nope");
    }
}
