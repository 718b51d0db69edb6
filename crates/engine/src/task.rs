//! Task execution: run one `(stage, task)` to completion.
//!
//! A task materializes its operator tree bottom-up (stages are barriers, so
//! inputs are always fully available), then applies the stage's exchange:
//! hash-partitioning or broadcasting into encoded chunks, or returning
//! gathered batches. A task computes and nothing else: it reads the
//! shuffle through a read-only view, and its chunks and engine counters
//! go back to the executor, whose stage barrier publishes them in
//! task-index order (`executor.rs`).

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
use crate::codec::{decode_batch, encode_batch};
use crate::column::{Column, ColumnSlice};
use crate::expr::predicate_mask_into;
use crate::kernels::pool::ScratchArena;
use crate::kernels::select::{filter_batch, filter_project};
use crate::ops::aggregate::hash_aggregate;
use crate::ops::join::hash_join;
use crate::ops::sort::sort;
use crate::plan::{ExchangeMode, PlanNode, StageDag, StageId};
use crate::rowkey::partitions_into;
use crate::schema::SchemaRef;
use crate::shuffle::{ShuffleKey, ShuffleReader, ShuffleTransport};
use crate::table::Catalog;
use std::cell::RefCell;
use std::sync::Arc;

/// Everything a task needs to run.
pub struct TaskContext<'a> {
    /// The full plan (for upstream schemas).
    pub dag: &'a StageDag,
    /// Which stage this task belongs to.
    pub stage_id: StageId,
    /// Task index within the stage, `0..stage.tasks`.
    pub task: u32,
    /// Query id, scoping shuffle keys.
    pub query_id: u64,
    /// Base-table catalog.
    pub catalog: &'a Catalog,
    /// Intermediate-data transport, read-only: a task never publishes.
    pub shuffle: ShuffleReader<'a>,
    /// Reusable scratch buffers for this task's kernels. A `RefCell`
    /// rather than `&mut` because the context is otherwise shared
    /// immutably; tasks never share a context across threads (the
    /// executor builds one per task), so borrows cannot contend.
    pub scratch: RefCell<ScratchArena>,
}

impl<'a> TaskContext<'a> {
    /// A context for task `task` of stage `stage_id`.
    pub fn new(
        dag: &'a StageDag,
        stage_id: StageId,
        task: u32,
        query_id: u64,
        catalog: &'a Catalog,
        shuffle: &'a dyn ShuffleTransport,
    ) -> Self {
        TaskContext {
            dag,
            stage_id,
            task,
            query_id,
            catalog,
            shuffle: ShuffleReader::new(shuffle),
            scratch: RefCell::new(ScratchArena::new()),
        }
    }
}

/// What a task produced: its gathered output and its engine counters,
/// which the stage barrier records into the stage's telemetry.
#[derive(Debug, Default)]
pub struct TaskResult {
    /// Gathered batches (final stage only).
    pub output: Option<Vec<Batch>>,
    /// Rows the task emitted (post-exchange).
    pub rows_out: u64,
    /// Bytes written to the shuffle layer.
    pub shuffle_bytes_written: u64,
    /// Shuffle chunk writes performed.
    pub shuffle_writes: u64,
    /// Rows read from scans and shuffles.
    pub rows_in: u64,
    /// Scratch-buffer checkouts this run made.
    pub scratch_checkouts: u64,
    /// Of those, checkouts served by a pooled buffer.
    pub scratch_reuses: u64,
}

/// A task's computed result plus the exchange chunks it produced,
/// buffered for the caller to publish. The parallel executor runs the
/// compute phase concurrently and publishes the buffered writes serially
/// at the stage barrier in task-index order — node-tier shuffle placement
/// is first-come-first-served, so publication order must not depend on
/// thread scheduling.
#[derive(Debug, Default)]
pub struct BufferedTask {
    /// The task's result and engine counters.
    pub result: TaskResult,
    /// Encoded exchange chunks in partition order, to be written as
    /// `shuffle.write(key, ctx.task, data)`.
    pub writes: Vec<(ShuffleKey, Vec<u8>)>,
}

/// One task run bound to its context. Construct with
/// [`TaskExecution::new`], then [`run_buffered`](TaskExecution::run_buffered)
/// computes the task and returns its exchange writes for the caller
/// ([`Executor::execute_stage`](crate::executor::Executor::execute_stage))
/// to publish.
pub struct TaskExecution<'a, 'c> {
    ctx: &'c TaskContext<'a>,
}

impl<'a, 'c> TaskExecution<'a, 'c> {
    /// Bind a run to its context.
    pub fn new(ctx: &'c TaskContext<'a>) -> Self {
        TaskExecution { ctx }
    }

    /// Compute the task, buffering exchange writes for the caller.
    pub fn run_buffered(&self) -> BufferedTask {
        let ctx = self.ctx;
        let stage = &ctx.dag.stages[ctx.stage_id];
        let scratch_before = ctx.scratch.borrow().stats();
        let mut result = TaskResult::default();
        // Exact upper bound on exchange chunks: one per hash partition,
        // one for a broadcast, none for a gather.
        let mut writes: Vec<(ShuffleKey, Vec<u8>)> = Vec::with_capacity(match &stage.exchange {
            ExchangeMode::Gather => 0,
            ExchangeMode::Broadcast => 1,
            ExchangeMode::Hash { partitions, .. } => *partitions as usize,
        });
        let batches = self.exec_node(&stage.root, &mut result);
        let out_rows: u64 = batches.iter().map(|b| b.num_rows() as u64).sum();
        result.rows_out = out_rows;

        match &stage.exchange {
            ExchangeMode::Gather => {
                result.output = Some(batches);
            }
            ExchangeMode::Broadcast => {
                let combined = Batch::concat_owned(stage.output_schema.clone(), batches);
                let data = encode_batch(&combined);
                result.shuffle_bytes_written += data.len() as u64;
                result.shuffle_writes += 1;
                writes.push((
                    ShuffleKey {
                        query: ctx.query_id,
                        stage: ctx.stage_id as u32,
                        partition: 0,
                    },
                    data,
                ));
            }
            ExchangeMode::Hash { keys, partitions } => {
                let combined = Batch::concat_owned(stage.output_schema.clone(), batches);
                let key_cols: Vec<_> = keys.iter().map(|e| e.eval_borrowed(&combined)).collect();
                let key_refs: Vec<&Column> = key_cols.iter().map(|c| c.as_ref()).collect();
                let nparts = *partitions as usize;
                let nrows = combined.num_rows();
                // Counting sort on pooled buffers: assign every row its
                // partition in one batch call, prefix-sum the counts into
                // per-partition extents, then place rows — stable, so rows
                // stay in input order within each partition (byte-identical
                // chunks to the old per-partition row lists) and nothing
                // reallocates however skewed the hash is.
                let mut arena = ctx.scratch.borrow_mut();
                arena.with_idx(nrows, |assigned, arena| {
                    partitions_into(&key_refs, nrows, *partitions, assigned);
                    let mut counts: Vec<usize> = vec![0; nparts];
                    for &p in assigned.iter() {
                        counts[p] += 1;
                    }
                    let mut offsets: Vec<usize> = Vec::with_capacity(nparts + 1);
                    let mut total = 0;
                    offsets.push(0);
                    for &c in &counts {
                        total += c;
                        offsets.push(total);
                    }
                    arena.with_idx(nparts, |cursor, arena| {
                        cursor.extend_from_slice(&offsets[..nparts]);
                        arena.with_idx(nrows, |ordered, _| {
                            ordered.resize(nrows, 0);
                            for (row, &p) in assigned.iter().enumerate() {
                                ordered[cursor[p]] = row;
                                cursor[p] += 1;
                            }
                            for p in 0..nparts {
                                let rows = &ordered[offsets[p]..offsets[p + 1]];
                                if rows.is_empty() {
                                    continue; // no chunk object for empty partitions
                                }
                                let chunk = combined.take(rows);
                                let data = encode_batch(&chunk);
                                result.shuffle_bytes_written += data.len() as u64;
                                result.shuffle_writes += 1;
                                writes.push((
                                    ShuffleKey {
                                        query: ctx.query_id,
                                        stage: ctx.stage_id as u32,
                                        partition: p as u32,
                                    },
                                    data,
                                ));
                            }
                        })
                    })
                });
            }
        }
        // Per-run deltas: the arena's counters are cumulative across a
        // context's lifetime, but a context may run many probes in tests;
        // report only what this run consumed.
        let s = ctx.scratch.borrow().stats();
        result.scratch_checkouts = s.checkouts - scratch_before.checkouts;
        result.scratch_reuses = s.reuses - scratch_before.reuses;
        BufferedTask { result, writes }
    }

    fn read_stage(&self, upstream: StageId, partition: u32, result: &mut TaskResult) -> Vec<Batch> {
        let ctx = self.ctx;
        let schema = ctx.dag.stages[upstream].output_schema.clone();
        let chunks = ctx.shuffle.read(ShuffleKey {
            query: ctx.query_id,
            stage: upstream as u32,
            partition,
        });
        let batches: Vec<Batch> = chunks
            .iter()
            .map(|c| decode_batch(c, schema.clone()))
            .collect();
        result.rows_in += batches.iter().map(|b| b.num_rows() as u64).sum::<u64>();
        batches
    }

    fn node_schema(&self, node: &PlanNode) -> SchemaRef {
        let ctx = self.ctx;
        match node {
            PlanNode::Scan {
                table, projection, ..
            } => {
                let t = ctx.catalog.get(table);
                match projection {
                    Some(idx) => Arc::new(t.schema.project(idx)),
                    None => t.schema.clone(),
                }
            }
            PlanNode::ShuffleRead { stage } | PlanNode::BroadcastRead { stage } => {
                ctx.dag.stages[*stage].output_schema.clone()
            }
            PlanNode::Filter { input, .. } | PlanNode::Sort { input, .. } => {
                self.node_schema(input)
            }
            PlanNode::Project { schema, .. }
            | PlanNode::HashAggregate { schema, .. }
            | PlanNode::HashJoin { schema, .. } => schema.clone(),
            PlanNode::Union { inputs } => self.node_schema(&inputs[0]),
        }
    }

    fn exec_node(&self, node: &PlanNode, result: &mut TaskResult) -> Vec<Batch> {
        let ctx = self.ctx;
        match node {
            PlanNode::Scan {
                table,
                filter,
                projection,
            } => {
                let t = ctx.catalog.get(table);
                let stage = &ctx.dag.stages[ctx.stage_id];
                let parts = t.partitions_for_task(ctx.task, stage.tasks);
                let out_schema = self.node_schema(node);
                let mut arena = ctx.scratch.borrow_mut();
                let mut out = Vec::with_capacity(parts.len());
                for p in parts {
                    result.rows_in += p.num_rows() as u64;
                    let projected = match (filter, projection) {
                        // Fused filter+project: one pooled mask and one
                        // shared selection; unprojected columns are never
                        // gathered.
                        (Some(pred), Some(idx)) => arena.with_mask(p.num_rows(), |mask, arena| {
                            predicate_mask_into(pred, p, mask);
                            filter_project(p, mask, idx, out_schema.clone(), arena)
                        }),
                        (Some(pred), None) => arena.with_mask(p.num_rows(), |mask, arena| {
                            predicate_mask_into(pred, p, mask);
                            filter_batch(p, mask, arena)
                        }),
                        // Projection indices may repeat a column; the
                        // borrowed view clones each selected column once.
                        (None, Some(idx)) => p.project_view(out_schema.clone(), idx).to_batch(),
                        // The catalog's partitions are borrowed; an
                        // unfiltered scan materializes each part once.
                        (None, None) => p.clone(),
                    };
                    if projected.num_rows() > 0 {
                        out.push(projected);
                    }
                }
                out
            }
            PlanNode::ShuffleRead { stage } => self.read_stage(*stage, ctx.task, result),
            PlanNode::BroadcastRead { stage } => self.read_stage(*stage, 0, result),
            PlanNode::Filter { input, predicate } => {
                let batches = self.exec_node(input, result);
                let mut arena = ctx.scratch.borrow_mut();
                arena.with_mask(0, |mask, arena| {
                    let mut out = Vec::with_capacity(batches.len());
                    for b in &batches {
                        predicate_mask_into(predicate, b, mask);
                        let f = filter_batch(b, mask, arena);
                        if f.num_rows() > 0 {
                            out.push(f);
                        }
                    }
                    out
                })
            }
            PlanNode::Project {
                input,
                exprs,
                schema,
            } => {
                let batches = self.exec_node(input, result);
                batches
                    .into_iter()
                    .map(|b| {
                        let cols = exprs.iter().map(|e| e.eval(&b)).collect();
                        Batch::new(schema.clone(), cols)
                    })
                    .collect()
            }
            PlanNode::HashAggregate {
                input,
                group_by,
                aggs,
                schema,
            } => {
                let batches = self.exec_node(input, result);
                vec![hash_aggregate(&batches, group_by, aggs, schema.clone())]
            }
            PlanNode::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                join_type,
                schema,
            } => {
                let build_schema = self.node_schema(build);
                let build_batches = self.exec_node(build, result);
                let probe_batches = self.exec_node(probe, result);
                hash_join(
                    build_schema,
                    &build_batches,
                    &probe_batches,
                    build_keys,
                    probe_keys,
                    *join_type,
                    schema.clone(),
                )
                .into_iter()
                .filter(|b| b.num_rows() > 0)
                .collect()
            }
            PlanNode::Sort { input, keys, limit } => {
                let schema = self.node_schema(input);
                let batches = self.exec_node(input, result);
                vec![sort(schema, &batches, keys, *limit)]
            }
            PlanNode::Union { inputs } => {
                let mut out = Vec::new();
                for i in inputs {
                    out.extend(self.exec_node(i, result));
                }
                out
            }
        }
    }
}

/// Pretty-print a result batch as an aligned table (examples + debugging).
/// Cells render through borrowed [`ColumnSlice`] views — no `Value` (and
/// in particular no string clone) is materialized per cell.
pub fn format_batch(batch: &Batch, max_rows: usize) -> String {
    let mut widths: Vec<usize> = batch.schema.fields.iter().map(|f| f.name.len()).collect();
    let nrows = batch.num_rows().min(max_rows);
    let views: Vec<ColumnSlice<'_>> = batch
        .columns
        .iter()
        .map(|c| c.borrowed_slice(0, nrows))
        .collect();
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(nrows);
    for i in 0..nrows {
        let row: Vec<String> = views
            .iter()
            .map(|v| {
                let mut cell = String::new();
                v.write_value(&mut cell, i);
                cell
            })
            .collect();
        for (w, cell) in widths.iter_mut().zip(&row) {
            *w = (*w).max(cell.len());
        }
        rows.push(row);
    }
    let mut out = String::new();
    for (i, f) in batch.schema.fields.iter().enumerate() {
        out.push_str(&format!("{:<w$}  ", f.name, w = widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push('\n');
    }
    if batch.num_rows() > max_rows {
        out.push_str(&format!("... ({} rows total)\n", batch.num_rows()));
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::expr::Expr;
    use crate::ops::aggregate::{AggExpr, AggFunc};
    use crate::ops::join::JoinType;
    use crate::ops::sort::SortKey;
    use crate::schema::Schema;
    use crate::shuffle::MemoryShuffle;
    use crate::table::Table;
    use crate::types::DataType;

    /// Build a catalog with an `orders`-like table spread over partitions.
    pub(crate) fn catalog() -> Catalog {
        let schema = Schema::shared(&[
            ("o_key", DataType::I64),
            ("o_cust", DataType::I64),
            ("o_total", DataType::F64),
        ]);
        let mut partitions = Vec::new();
        for p in 0..4i64 {
            let keys: Vec<i64> = (0..25).map(|i| p * 25 + i).collect();
            let custs: Vec<i64> = keys.iter().map(|k| k % 10).collect();
            let totals: Vec<f64> = keys.iter().map(|&k| k as f64 * 1.5).collect();
            partitions.push(Batch::new(
                schema.clone(),
                vec![
                    Column::from_i64(keys),
                    Column::from_i64(custs),
                    Column::from_f64(totals),
                ],
            ));
        }
        let c = Catalog::new();
        c.register(Table::new("orders", schema, partitions));
        c
    }

    /// Two-phase aggregation plan: per-customer SUM(o_total) via partial
    /// aggregation, hash exchange on customer, final aggregation, gather.
    pub(crate) fn agg_plan() -> StageDag {
        let partial_schema = Schema::shared(&[("o_cust", DataType::I64), ("psum", DataType::F64)]);
        let final_schema = Schema::shared(&[("o_cust", DataType::I64), ("total", DataType::F64)]);
        StageDag::new(
            "sum_by_customer",
            vec![
                crate::plan::Stage {
                    id: 0,
                    root: PlanNode::HashAggregate {
                        input: Box::new(PlanNode::Scan {
                            table: "orders".into(),
                            filter: None,
                            projection: None,
                        }),
                        group_by: vec![Expr::col(1)],
                        aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(2))],
                        schema: partial_schema.clone(),
                    },
                    tasks: 4,
                    exchange: ExchangeMode::Hash {
                        keys: vec![Expr::col(0)],
                        partitions: 2,
                    },
                    output_schema: partial_schema,
                },
                crate::plan::Stage {
                    id: 1,
                    root: PlanNode::Sort {
                        input: Box::new(PlanNode::HashAggregate {
                            input: Box::new(PlanNode::ShuffleRead { stage: 0 }),
                            group_by: vec![Expr::col(0)],
                            aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1))],
                            schema: final_schema.clone(),
                        }),
                        keys: vec![SortKey::asc(Expr::col(0))],
                        limit: None,
                    },
                    tasks: 2,
                    exchange: ExchangeMode::Gather,
                    output_schema: final_schema,
                },
            ],
        )
    }

    #[test]
    fn distributed_two_phase_aggregation_is_correct() {
        let cat = catalog();
        let shuffle = MemoryShuffle::new();
        let result = Executor::new(1).execute_query(&agg_plan(), 1, &cat, &shuffle);
        assert_eq!(result.num_rows(), 10);
        // Independently compute the expected totals.
        let mut expected = [0.0f64; 10];
        for k in 0..100i64 {
            expected[(k % 10) as usize] += k as f64 * 1.5;
        }
        // Result arrives as two gathered partitions; check as a map.
        let mut got = std::collections::HashMap::new();
        for i in 0..result.num_rows() {
            got.insert(result.columns[0].i64s()[i], result.columns[1].f64s()[i]);
        }
        for (cust, exp) in expected.iter().enumerate() {
            let v = got[&(cust as i64)];
            assert!((v - exp).abs() < 1e-9, "cust {cust}: {v} vs {exp}");
        }
        // Shuffle state cleaned up after the query.
        assert_eq!(shuffle.resident_bytes(), 0);
    }

    #[test]
    fn broadcast_join_plan_matches_partitioned_join_plan() {
        // The cross-check DESIGN.md commits to: a broadcast-join plan and a
        // partitioned-join plan must produce identical results.
        let cat = catalog();
        // Small dimension table: 10 customers.
        let dim_schema = Schema::shared(&[("c_key", DataType::I64), ("c_name", DataType::Str)]);
        let dim = Batch::new(
            dim_schema.clone(),
            vec![
                Column::from_i64((0..10).collect()),
                Column::from_str_vec((0..10).map(|i| format!("cust{i}")).collect()),
            ],
        );
        cat.register(Table::new("customer", dim_schema.clone(), vec![dim]));

        let join_schema = Schema::shared(&[
            ("o_key", DataType::I64),
            ("o_cust", DataType::I64),
            ("o_total", DataType::F64),
            ("c_key", DataType::I64),
            ("c_name", DataType::Str),
        ]);
        let sorted = |input: PlanNode| PlanNode::Sort {
            input: Box::new(input),
            keys: vec![SortKey::asc(Expr::col(0))],
            limit: None,
        };

        // Broadcast plan: stage 0 broadcasts customer; stage 1 joins
        // against scanned orders and gathers.
        let broadcast = StageDag::new(
            "bcast",
            vec![
                crate::plan::Stage {
                    id: 0,
                    root: PlanNode::Scan {
                        table: "customer".into(),
                        filter: None,
                        projection: None,
                    },
                    tasks: 1,
                    exchange: ExchangeMode::Broadcast,
                    output_schema: dim_schema.clone(),
                },
                crate::plan::Stage {
                    id: 1,
                    root: sorted(PlanNode::HashJoin {
                        build: Box::new(PlanNode::BroadcastRead { stage: 0 }),
                        probe: Box::new(PlanNode::Scan {
                            table: "orders".into(),
                            filter: None,
                            projection: None,
                        }),
                        build_keys: vec![Expr::col(0)],
                        probe_keys: vec![Expr::col(1)],
                        join_type: JoinType::Inner,
                        schema: join_schema.clone(),
                    }),
                    tasks: 1,
                    exchange: ExchangeMode::Gather,
                    output_schema: join_schema.clone(),
                },
            ],
        );

        // Partitioned plan: both sides hash-exchanged on the key.
        let orders_schema = cat.get("orders").schema.clone();
        let partitioned = StageDag::new(
            "part",
            vec![
                crate::plan::Stage {
                    id: 0,
                    root: PlanNode::Scan {
                        table: "customer".into(),
                        filter: None,
                        projection: None,
                    },
                    tasks: 1,
                    exchange: ExchangeMode::Hash {
                        keys: vec![Expr::col(0)],
                        partitions: 3,
                    },
                    output_schema: dim_schema,
                },
                crate::plan::Stage {
                    id: 1,
                    root: PlanNode::Scan {
                        table: "orders".into(),
                        filter: None,
                        projection: None,
                    },
                    tasks: 2,
                    exchange: ExchangeMode::Hash {
                        keys: vec![Expr::col(1)],
                        partitions: 3,
                    },
                    output_schema: orders_schema,
                },
                crate::plan::Stage {
                    id: 2,
                    root: PlanNode::HashJoin {
                        build: Box::new(PlanNode::ShuffleRead { stage: 0 }),
                        probe: Box::new(PlanNode::ShuffleRead { stage: 1 }),
                        build_keys: vec![Expr::col(0)],
                        probe_keys: vec![Expr::col(1)],
                        join_type: JoinType::Inner,
                        schema: join_schema.clone(),
                    },
                    tasks: 3,
                    exchange: ExchangeMode::Hash {
                        keys: vec![Expr::col(0)],
                        partitions: 1,
                    },
                    output_schema: join_schema.clone(),
                },
                crate::plan::Stage {
                    id: 3,
                    root: sorted(PlanNode::ShuffleRead { stage: 2 }),
                    tasks: 1,
                    exchange: ExchangeMode::Gather,
                    output_schema: join_schema,
                },
            ],
        );

        let s1 = MemoryShuffle::new();
        let s2 = MemoryShuffle::new();
        let r1 = Executor::new(1).execute_query(&broadcast, 1, &cat, &s1);
        let r2 = Executor::new(1).execute_query(&partitioned, 2, &cat, &s2);
        assert_eq!(r1.num_rows(), 100);
        assert_eq!(r1, r2);
    }

    #[test]
    fn filter_and_topk() {
        let cat = catalog();
        let schema = cat.get("orders").schema.clone();
        let dag = StageDag::new(
            "topk",
            vec![crate::plan::Stage {
                id: 0,
                root: PlanNode::Sort {
                    input: Box::new(PlanNode::Filter {
                        input: Box::new(PlanNode::Scan {
                            table: "orders".into(),
                            filter: None,
                            projection: None,
                        }),
                        predicate: Expr::col(1).eq(Expr::lit_i64(3)),
                    }),
                    keys: vec![SortKey::desc(Expr::col(2))],
                    limit: Some(3),
                },
                tasks: 1,
                exchange: ExchangeMode::Gather,
                output_schema: schema,
            }],
        );
        let r = Executor::new(1).execute_query(&dag, 3, &cat, &MemoryShuffle::new());
        assert_eq!(r.num_rows(), 3);
        // Largest o_key with o_cust == 3 is 93.
        assert_eq!(r.columns[0].i64s(), &[93, 83, 73]);
    }

    #[test]
    fn scan_filter_pushdown_and_projection() {
        let cat = catalog();
        let out = Schema::shared(&[("o_total", DataType::F64)]);
        let dag = StageDag::new(
            "proj",
            vec![crate::plan::Stage {
                id: 0,
                root: PlanNode::Scan {
                    table: "orders".into(),
                    filter: Some(Expr::col(0).lt(Expr::lit_i64(5))),
                    projection: Some(vec![2]),
                },
                tasks: 2,
                exchange: ExchangeMode::Gather,
                output_schema: out,
            }],
        );
        let r = Executor::new(1).execute_query(&dag, 4, &cat, &MemoryShuffle::new());
        assert_eq!(r.num_rows(), 5);
        assert_eq!(r.num_columns(), 1);
    }

    #[test]
    fn format_batch_renders() {
        let cat = catalog();
        let b = cat.get("orders").partitions[0].clone();
        let s = format_batch(&b, 2);
        assert!(s.contains("o_key"));
        assert!(s.contains("... (25 rows total)"));
    }
}
