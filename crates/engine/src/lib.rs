//! # cackle-engine — vectorized relational query engine
//!
//! A from-scratch analytical query engine in the style of Starling: physical
//! plans are DAGs of *stages*, each stage runs as one or more *tasks* that
//! execute to completion, and intermediate data moves between stages through
//! a pluggable shuffle transport (in-memory shuffle nodes or a cloud object
//! store). See `DESIGN.md` §3.2 for the inventory.
//!
//! Data is columnar: a [`Batch`] is a schema plus one [`Column`] per field,
//! four of the five types a plain `Vec` and strings a [`StrColumn`]:
//! `u32` codes into a shared [`StrDict`] (offsets over a single UTF-8
//! buffer — no `String` per row; `DESIGN.md` §12 "String columns"). The
//! [`codec`] turns batches into the bytes every exchange is billed on.
//!
//! ```
//! use cackle_engine::prelude::*;
//!
//! // Build a one-stage plan that scans and sorts a tiny table.
//! let schema = Schema::shared(&[("k", DataType::I64)]);
//! let batch = Batch::new(schema.clone(), vec![Column::from_i64(vec![3, 1, 2])]);
//! let catalog = Catalog::new();
//! catalog.register(Table::new("t", schema.clone(), vec![batch]));
//! let dag = StageDag::new(
//!     "sorted",
//!     vec![Stage {
//!         id: 0,
//!         root: PlanNode::Sort {
//!             input: Box::new(PlanNode::Scan {
//!                 table: "t".into(), filter: None, projection: None,
//!             }),
//!             keys: vec![SortKey::asc(Expr::col(0))],
//!             limit: None,
//!         },
//!         tasks: 1,
//!         exchange: ExchangeMode::Gather,
//!         output_schema: schema,
//!     }],
//! );
//! let result = Executor::new(1).execute_query(&dag, 1, &catalog, &MemoryShuffle::new());
//! assert_eq!(result.columns[0].i64s(), &[1, 2, 3]);
//! ```

pub mod batch;
pub mod codec;
pub mod column;
pub mod executor;
pub mod explain;
pub mod expr;
pub mod kernels;
pub mod ops;
pub mod plan;
pub mod reference;
pub mod rowkey;
pub mod schema;
pub mod shuffle;
pub mod table;
pub mod task;
pub mod types;

pub use batch::{Batch, BatchView, BATCH_SIZE};
pub use column::{Column, ColumnData, ColumnSlice, StrColumn, StrDict};
pub use expr::{predicate_mask, predicate_mask_into, BinOp, Expr, LikePattern};
pub use schema::{Field, Schema, SchemaRef};
pub use types::{date, DataType, Value};

/// Common imports for plan construction and execution.
pub mod prelude {
    pub use crate::batch::Batch;
    pub use crate::column::{Column, ColumnData, StrColumn, StrDict};
    pub use crate::executor::Executor;
    pub use crate::expr::{BinOp, Expr, LikePattern};
    pub use crate::ops::aggregate::{AggExpr, AggFunc};
    pub use crate::ops::join::JoinType;
    pub use crate::ops::sort::SortKey;
    pub use crate::plan::{ExchangeMode, PlanNode, Stage, StageDag, StageId};
    pub use crate::schema::{Field, Schema, SchemaRef};
    pub use crate::shuffle::{
        MemoryShuffle, ShuffleKey, ShuffleReader, ShuffleStats, ShuffleTransport,
    };
    pub use crate::table::{Catalog, Table};
    pub use crate::task::{format_batch, BufferedTask, TaskContext, TaskExecution, TaskResult};
    pub use crate::types::{date, DataType, Value};
}

/// The curated vectorized-kernel surface: typed columnar kernels plus the
/// scratch-buffer pool they draw from. Import this instead of reaching
/// into `kernels::*` submodules — it is the stable facade; submodule
/// layout may shift.
pub mod kernel_prelude {
    pub use crate::kernels::agg::{Accumulator, Grouper};
    pub use crate::kernels::hash::{FastBuildHasher, FastHasher, KeyMap, KeyScratch, Nulls};
    pub use crate::kernels::join::{probe_pairs, semi_anti_rows, KeyIndex};
    pub use crate::kernels::pool::{PoolStats, ScratchArena};
    pub use crate::kernels::scalar::like_mask;
    pub use crate::kernels::select::{filter_batch, filter_project, selection_from_mask};
    pub use crate::kernels::sort::{sort_permutation, SortKeyCol};
}
