//! A small DSL for constructing stage-DAG physical plans.
//!
//! Plans reference columns by name; the builder tracks schemas through
//! operator composition, resolves names to ordinals and infers output
//! types. It also states two facts of every plan once:
//!
//! * A stage that reads a hash exchange runs one task per partition of
//!   that exchange: its [`Node`] carries the count from [`DagBuilder::read`]
//!   through every join and union, and co-partitioned inputs whose counts
//!   differ fail when they are joined. Only a stage that reads no hash
//!   exchange (scans, broadcast reads) states its count, with
//!   [`Node::tasks`].
//! * The final half of a two-phase aggregate is derived from its partial
//!   by [`DagBuilder::two_phase_aggregate`]: SUM, COUNT and COUNT(*) are
//!   summed, MIN and MAX repeat, and AVG and COUNT(DISTINCT), which do not
//!   split, are refused.

use crate::schema as tpch_schema;
use cackle_engine::expr::{BinOp, Expr};
use cackle_engine::ops::aggregate::{AggExpr, AggFunc};
use cackle_engine::ops::join::JoinType;
use cackle_engine::ops::sort::SortKey;
use cackle_engine::plan::{ExchangeMode, PlanNode, Stage, StageDag, StageId};
use cackle_engine::schema::{Field, Schema, SchemaRef};
use cackle_engine::types::{DataType, Value};
use std::sync::Arc;

/// Schema of a TPC-H base table by name.
pub fn table_schema(name: &str) -> SchemaRef {
    match name {
        "region" => tpch_schema::region(),
        "nation" => tpch_schema::nation(),
        "supplier" => tpch_schema::supplier(),
        "customer" => tpch_schema::customer(),
        "part" => tpch_schema::part(),
        "partsupp" => tpch_schema::partsupp(),
        "orders" => tpch_schema::orders(),
        "lineitem" => tpch_schema::lineitem(),
        other => panic!("unknown TPC-H table '{other}'"),
    }
}

/// A column-name resolver over a schema.
#[derive(Clone)]
pub struct Cols {
    schema: SchemaRef,
}

impl Cols {
    /// Resolver over a schema.
    pub fn new(schema: SchemaRef) -> Self {
        Cols { schema }
    }

    /// Column reference by name.
    pub fn c(&self, name: &str) -> Expr {
        Expr::Col(self.schema.index_of(name))
    }

    /// The underlying schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }
}

/// Resolver over a base table's full schema (for scan filters).
pub fn t(table: &str) -> Cols {
    Cols::new(table_schema(table))
}

/// Infer an expression's output type over `schema`.
pub fn infer_type(expr: &Expr, schema: &SchemaRef) -> DataType {
    match expr {
        Expr::Col(i) => schema.field(*i).dtype,
        Expr::Lit(v) => v.data_type().unwrap_or(DataType::I64),
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::Div => DataType::F64,
            BinOp::Eq
            | BinOp::Neq
            | BinOp::Lt
            | BinOp::LtEq
            | BinOp::Gt
            | BinOp::GtEq
            | BinOp::And
            | BinOp::Or => DataType::Bool,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Mod => {
                let l = infer_type(lhs, schema);
                let r = infer_type(rhs, schema);
                match (l, r) {
                    (DataType::Date, _) | (_, DataType::Date) => DataType::Date,
                    (DataType::I64, DataType::I64) => DataType::I64,
                    _ => DataType::F64,
                }
            }
        },
        Expr::Not(_) | Expr::IsNull(_) | Expr::Like { .. } | Expr::InList { .. } => DataType::Bool,
        Expr::Case {
            branches,
            else_expr,
        } => branches
            .first()
            .map(|(_, r)| infer_type(r, schema))
            .or_else(|| else_expr.as_ref().map(|e| infer_type(e, schema)))
            .expect("CASE with no branches"),
        Expr::ExtractYear(_) => DataType::I64,
        Expr::Substr { .. } => DataType::Str,
        Expr::Coalesce(es) => infer_type(&es[0], schema),
        Expr::Cast { to, .. } => *to,
    }
}

/// An operator tree under construction, with its tracked schema.
#[derive(Clone)]
pub struct Node {
    /// The plan so far.
    pub plan: PlanNode,
    /// Its output schema.
    pub schema: SchemaRef,
    /// The task count of the stage this tree runs in.
    tasks: Tasks,
}

/// Where a tree's task count comes from.
#[derive(Clone, Copy)]
enum Tasks {
    /// Nothing yet: the tree reads no hash exchange and states no count.
    Unknown,
    /// The partition count of the hash exchanges the tree reads.
    Read(u32),
    /// The count [`Node::tasks`] stated for a tree that reads none.
    Stated(u32),
}

/// The task count of a tree built from inputs counted `a` and `b`:
/// co-partitioned inputs must agree, and a stated count closes its tree.
fn co_partitioned(a: Tasks, b: Tasks) -> Tasks {
    match (a, b) {
        (Tasks::Read(x), Tasks::Read(y)) => {
            assert_eq!(x, y, "co-partitioned inputs have {x} and {y} partitions");
            a
        }
        (t, Tasks::Unknown) | (Tasks::Unknown, t) => t,
        _ => panic!("a stated task count goes on a stage's whole tree"),
    }
}

/// f64 literal shorthand.
pub fn lit(v: f64) -> Expr {
    Expr::lit_f64(v)
}
/// i64 literal shorthand.
pub fn liti(v: i64) -> Expr {
    Expr::lit_i64(v)
}
/// string literal shorthand.
pub fn lits(v: &str) -> Expr {
    Expr::lit_str(v)
}
/// date literal shorthand (`YYYY-MM-DD`).
pub fn litd(v: &str) -> Expr {
    Expr::lit_date(v)
}

impl Node {
    /// Scan a base table keeping `cols` (in order), optionally filtering
    /// first with a predicate over the *full* table schema.
    pub fn scan(table: &str, cols: &[&str], filter: Option<Expr>) -> Node {
        let full = table_schema(table);
        let projection: Vec<usize> = cols.iter().map(|c| full.index_of(c)).collect();
        let schema = Arc::new(full.project(&projection));
        Node {
            plan: PlanNode::Scan {
                table: table.to_string(),
                filter,
                projection: Some(projection),
            },
            schema,
            tasks: Tasks::Unknown,
        }
    }

    /// Run this tree's stage on `tasks` tasks. Only a tree that reads no
    /// hash exchange states its count; one that does runs one task per
    /// partition of the exchange.
    pub fn tasks(self, tasks: u32) -> Node {
        assert!(
            matches!(self.tasks, Tasks::Unknown),
            "a stage reading a hash exchange runs one task per partition"
        );
        Node {
            tasks: Tasks::Stated(tasks),
            ..self
        }
    }

    /// Resolver over this node's schema.
    pub fn cols(&self) -> Cols {
        Cols::new(self.schema.clone())
    }

    /// Column reference by name.
    pub fn c(&self, name: &str) -> Expr {
        Expr::Col(self.schema.index_of(name))
    }

    /// Filter rows.
    pub fn filter(self, predicate: Expr) -> Node {
        Node {
            plan: PlanNode::Filter {
                input: Box::new(self.plan),
                predicate,
            },
            ..self
        }
    }

    /// Project named expressions.
    pub fn project(self, items: Vec<(&str, Expr)>) -> Node {
        let fields: Vec<Field> = items
            .iter()
            .map(|(n, e)| Field::new(*n, infer_type(e, &self.schema)))
            .collect();
        let schema = Arc::new(Schema::new(fields));
        Node {
            plan: PlanNode::Project {
                input: Box::new(self.plan),
                exprs: items.into_iter().map(|(_, e)| e).collect(),
                schema: schema.clone(),
            },
            schema,
            tasks: self.tasks,
        }
    }

    /// Hash aggregate. `group` names the key columns (with expressions over
    /// the input schema); `aggs` names the outputs.
    pub fn aggregate(self, group: Vec<(&str, Expr)>, aggs: Vec<(&str, AggFunc, Expr)>) -> Node {
        let mut fields: Vec<Field> = group
            .iter()
            .map(|(n, e)| Field::new(*n, infer_type(e, &self.schema)))
            .collect();
        for (n, f, e) in &aggs {
            let agg = AggExpr::new(*f, e.clone());
            fields.push(Field::new(*n, agg.output_type(infer_type(e, &self.schema))));
        }
        let schema = Arc::new(Schema::new(fields));
        Node {
            plan: PlanNode::HashAggregate {
                input: Box::new(self.plan),
                group_by: group.into_iter().map(|(_, e)| e).collect(),
                aggs: aggs
                    .into_iter()
                    .map(|(_, f, e)| AggExpr::new(f, e))
                    .collect(),
                schema: schema.clone(),
            },
            schema,
            tasks: self.tasks,
        }
    }

    /// Hash join (`self` is the probe side). Output schema is probe fields
    /// then build fields for inner/left; probe fields only for semi/anti.
    pub fn join(self, build: Node, on: &[(&str, &str)], join_type: JoinType) -> Node {
        let probe_keys: Vec<Expr> = on.iter().map(|(p, _)| self.c(p)).collect();
        let build_keys: Vec<Expr> = on.iter().map(|(_, b)| build.c(b)).collect();
        self.join_expr(build, probe_keys, build_keys, join_type)
    }

    /// Hash join with explicit key expressions.
    pub fn join_expr(
        self,
        build: Node,
        probe_keys: Vec<Expr>,
        build_keys: Vec<Expr>,
        join_type: JoinType,
    ) -> Node {
        let mut fields = self.schema.fields.clone();
        if matches!(join_type, JoinType::Inner | JoinType::Left) {
            fields.extend(build.schema.fields.clone());
        }
        let schema = Arc::new(Schema::new(fields));
        let tasks = co_partitioned(self.tasks, build.tasks);
        Node {
            plan: PlanNode::HashJoin {
                build: Box::new(build.plan),
                probe: Box::new(self.plan),
                build_keys,
                probe_keys,
                join_type,
                schema: schema.clone(),
            },
            schema,
            tasks,
        }
    }

    /// Sort (optionally top-k).
    pub fn sort(self, keys: Vec<SortKey>, limit: Option<usize>) -> Node {
        Node {
            plan: PlanNode::Sort {
                input: Box::new(self.plan),
                keys,
                limit,
            },
            ..self
        }
    }

    /// Union with other nodes sharing this schema.
    pub fn union(self, others: Vec<Node>) -> Node {
        let schema = self.schema.clone();
        let mut tasks = self.tasks;
        for o in &others {
            assert_eq!(
                o.schema.fields.len(),
                schema.fields.len(),
                "union width mismatch"
            );
            tasks = co_partitioned(tasks, o.tasks);
        }
        let mut inputs = vec![self.plan];
        inputs.extend(others.into_iter().map(|o| o.plan));
        Node {
            plan: PlanNode::Union { inputs },
            schema,
            tasks,
        }
    }
}

/// A stage that has been added to the DAG.
#[derive(Debug, Clone, Copy)]
pub struct StageHandle {
    /// The stage id.
    pub id: StageId,
}

/// Incremental DAG construction.
pub struct DagBuilder {
    name: String,
    stages: Vec<Stage>,
}

impl DagBuilder {
    /// Start a plan.
    pub fn new(name: impl Into<String>) -> Self {
        DagBuilder {
            name: name.into(),
            stages: Vec::new(),
        }
    }

    /// Add a stage whose output is hash-partitioned on `keys` (names over
    /// the stage's output schema) into `partitions` partitions; every
    /// stage that reads it runs `partitions` tasks.
    pub fn stage_hash(&mut self, node: Node, keys: &[&str], partitions: u32) -> StageHandle {
        let keys = keys.iter().map(|k| node.c(k)).collect();
        self.push(node, ExchangeMode::Hash { keys, partitions })
    }

    /// Add a stage whose output is broadcast to every consuming task.
    pub fn stage_broadcast(&mut self, node: Node) -> StageHandle {
        self.push(node, ExchangeMode::Broadcast)
    }

    /// Aggregate `node` in two phases across a hash exchange. The partial
    /// aggregate closes `node`'s stage, hash-partitioned on the group keys
    /// into `partitions` partitions (one when the aggregate is global);
    /// the returned final aggregate reads that exchange, regroups by the
    /// same names and combines each partial column by `final_func`.
    pub fn two_phase_aggregate(
        &mut self,
        node: Node,
        group: Vec<(&str, Expr)>,
        aggs: Vec<(&str, AggFunc, Expr)>,
        partitions: u32,
    ) -> Node {
        assert!(
            !group.is_empty() || partitions == 1,
            "a global aggregate exchanges into one partition"
        );
        let keys: Vec<&str> = group.iter().map(|(k, _)| *k).collect();
        let finals: Vec<(&str, AggFunc)> =
            aggs.iter().map(|(n, f, _)| (*n, final_func(*f))).collect();
        let s = self.stage_hash(node.aggregate(group, aggs), &keys, partitions);
        let read = self.read(s);
        let group = keys.iter().map(|k| (*k, read.c(k))).collect();
        let aggs = finals.into_iter().map(|(n, f)| (n, f, read.c(n))).collect();
        read.aggregate(group, aggs)
    }

    fn push(&mut self, node: Node, exchange: ExchangeMode) -> StageHandle {
        let id = self.stages.len();
        let (Tasks::Read(tasks) | Tasks::Stated(tasks)) = node.tasks else {
            panic!("a stage reading no hash exchange states its task count (Node::tasks)");
        };
        self.stages.push(Stage {
            id,
            root: node.plan,
            tasks,
            exchange,
            output_schema: node.schema,
        });
        StageHandle { id }
    }

    /// A node reading this task's partition of an upstream stage; its
    /// stage runs one task per partition.
    pub fn read(&self, h: StageHandle) -> Node {
        let stage = &self.stages[h.id];
        let ExchangeMode::Hash { partitions, .. } = stage.exchange else {
            panic!("stage {} does not hash-exchange", h.id);
        };
        Node {
            plan: PlanNode::ShuffleRead { stage: h.id },
            schema: stage.output_schema.clone(),
            tasks: Tasks::Read(partitions),
        }
    }

    /// A node reading the whole broadcast output of an upstream stage.
    pub fn read_broadcast(&self, h: StageHandle) -> Node {
        Node {
            plan: PlanNode::BroadcastRead { stage: h.id },
            schema: self.stages[h.id].output_schema.clone(),
            tasks: Tasks::Unknown,
        }
    }

    /// Add the final gather stage and validate the DAG.
    pub fn finish(mut self, node: Node) -> StageDag {
        self.push(node, ExchangeMode::Gather);
        StageDag::new(self.name, self.stages)
    }
}

/// The function that combines partial results of `f` into its final
/// result: SUM, COUNT and COUNT(*) are summed, MIN and MAX repeat. AVG and
/// COUNT(DISTINCT) cannot be combined from partial results.
fn final_func(f: AggFunc) -> AggFunc {
    match f {
        AggFunc::Sum | AggFunc::Count | AggFunc::CountStar => AggFunc::Sum,
        AggFunc::Min | AggFunc::Max => f,
        AggFunc::Avg | AggFunc::CountDistinct => {
            panic!("{f:?} does not split into a partial and a final aggregate")
        }
    }
}

/// CASE WHEN `cond` THEN `then` ELSE `otherwise` END.
pub fn case_when(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
    Expr::Case {
        branches: vec![(cond, then)],
        else_expr: Some(Box::new(otherwise)),
    }
}

/// `input LIKE pattern` with a restricted pattern.
pub fn like(input: Expr, pattern: cackle_engine::expr::LikePattern) -> Expr {
    Expr::Like {
        input: Box::new(input),
        pattern,
        negated: false,
    }
}

/// `input NOT LIKE pattern`.
pub fn not_like(input: Expr, pattern: cackle_engine::expr::LikePattern) -> Expr {
    Expr::Like {
        input: Box::new(input),
        pattern,
        negated: true,
    }
}

/// `input IN (strings...)`.
pub fn in_strs(input: Expr, items: &[&str]) -> Expr {
    Expr::InList {
        input: Box::new(input),
        list: items.iter().map(|s| Value::Str(s.to_string())).collect(),
    }
}

/// `input IN (ints...)`.
pub fn in_i64s(input: Expr, items: &[i64]) -> Expr {
    Expr::InList {
        input: Box::new(input),
        list: items.iter().map(|&v| Value::I64(v)).collect(),
    }
}

/// Parallelism settings for plan construction, derived from the scale
/// factor. Task sizes are chosen so each task's input fits a fixed-size
/// container (§3), so task counts grow linearly with data size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Par {
    /// Tasks for large-fact scans (lineitem, orders).
    pub fact: u32,
    /// Tasks for mid-size scans (part, partsupp, customer).
    pub mid: u32,
    /// Tasks for joins/aggregations after exchange.
    pub join: u32,
}

impl Par {
    /// Parallelism for a scale factor: at SF 100 a lineitem scan uses 128
    /// tasks (the paper's canonical shuffle width); scales linearly with a
    /// floor of 1.
    pub fn for_scale(sf: f64) -> Par {
        let scale = |base: f64| ((base * sf / 100.0).ceil() as u32).max(1);
        Par {
            fact: scale(128.0),
            mid: scale(32.0),
            join: scale(64.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_projects_and_resolves() {
        let n = Node::scan("lineitem", &["l_orderkey", "l_quantity"], None);
        assert_eq!(n.schema.len(), 2);
        assert_eq!(n.c("l_quantity"), Expr::Col(1));
    }

    #[test]
    fn project_infers_types() {
        let n = Node::scan("lineitem", &["l_extendedprice", "l_discount"], None);
        let p = n.clone().project(vec![(
            "rev",
            n.c("l_extendedprice").mul(lit(1.0).sub(n.c("l_discount"))),
        )]);
        assert_eq!(p.schema.field(0).dtype, DataType::F64);
        assert_eq!(p.schema.field(0).name, "rev");
    }

    #[test]
    fn join_concatenates_schemas() {
        let li = Node::scan("lineitem", &["l_orderkey", "l_partkey"], None);
        let p = Node::scan("part", &["p_partkey", "p_brand"], None);
        let j = li.join(p, &[("l_partkey", "p_partkey")], JoinType::Inner);
        assert_eq!(j.schema.len(), 4);
        assert_eq!(j.c("p_brand"), Expr::Col(3));
        let li2 = Node::scan("lineitem", &["l_orderkey", "l_partkey"], None);
        let p2 = Node::scan("part", &["p_partkey", "p_brand"], None);
        let s = li2.join(p2, &[("l_partkey", "p_partkey")], JoinType::Semi);
        assert_eq!(s.schema.len(), 2);
    }

    #[test]
    fn aggregate_types_follow_funcs() {
        let li = Node::scan("lineitem", &["l_returnflag", "l_quantity"], None);
        let flag = li.c("l_returnflag");
        let qty = li.c("l_quantity");
        let a = li.aggregate(
            vec![("flag", flag)],
            vec![
                ("sum_qty", AggFunc::Sum, qty.clone()),
                ("cnt", AggFunc::CountStar, liti(1)),
                ("avg_qty", AggFunc::Avg, qty),
            ],
        );
        assert_eq!(a.schema.field(0).dtype, DataType::Str);
        assert_eq!(a.schema.field(1).dtype, DataType::F64); // SUM(f64)
        assert_eq!(a.schema.field(2).dtype, DataType::I64);
        assert_eq!(a.schema.field(3).dtype, DataType::F64);
    }

    #[test]
    fn dag_builder_roundtrip() {
        let mut dag = DagBuilder::new("test");
        let scan = Node::scan("orders", &["o_orderkey", "o_custkey"], None);
        let s0 = dag.stage_hash(scan.tasks(4), &["o_custkey"], 2);
        let read = dag.read(s0);
        let cust = read.c("o_custkey");
        let agg = read.aggregate(
            vec![("o_custkey", cust)],
            vec![("cnt", AggFunc::CountStar, liti(1))],
        );
        let plan = dag.finish(agg);
        assert_eq!(plan.stages.len(), 2);
        assert_eq!(plan.stages[0].tasks, 4);
        assert_eq!(
            plan.stages[1].tasks, 2,
            "the reader runs one task per partition"
        );
        assert_eq!(plan.stages[1].dependencies(), vec![0]);
    }

    fn line_counts(dag: &mut DagBuilder, agg: AggFunc) -> Node {
        let scan = Node::scan("lineitem", &["l_returnflag", "l_quantity"], None).tasks(3);
        let (flag, qty) = (scan.c("l_returnflag"), scan.c("l_quantity"));
        dag.two_phase_aggregate(scan, vec![("flag", flag)], vec![("q", agg, qty)], 2)
    }

    #[test]
    fn two_phase_aggregate_derives_the_final_half() {
        let mut dag = DagBuilder::new("test");
        let fin = line_counts(&mut dag, AggFunc::Count);
        let PlanNode::HashAggregate { group_by, aggs, .. } = &fin.plan else {
            panic!("the final half is an aggregate");
        };
        assert_eq!(group_by, &vec![Expr::Col(0)]);
        assert_eq!(aggs, &vec![AggExpr::new(AggFunc::Sum, Expr::Col(1))]);
        assert_eq!(fin.schema.field(1).dtype, DataType::I64);
        let plan = dag.finish(fin);
        assert_eq!(plan.stages[1].tasks, 2);
        for (f, fin) in [
            (AggFunc::Sum, AggFunc::Sum),
            (AggFunc::CountStar, AggFunc::Sum),
            (AggFunc::Min, AggFunc::Min),
            (AggFunc::Max, AggFunc::Max),
        ] {
            assert_eq!(final_func(f), fin);
        }
    }

    #[test]
    #[should_panic(expected = "Avg does not split")]
    fn two_phase_aggregate_refuses_avg() {
        line_counts(&mut DagBuilder::new("test"), AggFunc::Avg);
    }

    #[test]
    #[should_panic(expected = "CountDistinct does not split")]
    fn two_phase_aggregate_refuses_count_distinct() {
        line_counts(&mut DagBuilder::new("test"), AggFunc::CountDistinct);
    }

    #[test]
    #[should_panic(expected = "co-partitioned inputs have 3 and 2 partitions")]
    fn joining_hash_inputs_of_different_widths_fails() {
        let mut dag = DagBuilder::new("test");
        let orders = Node::scan("orders", &["o_orderkey"], None).tasks(4);
        let s_orders = dag.stage_hash(orders, &["o_orderkey"], 2);
        let line = Node::scan("lineitem", &["l_orderkey"], None).tasks(4);
        let s_line = dag.stage_hash(line, &["l_orderkey"], 3);
        let _ = dag.read(s_line).join(
            dag.read(s_orders),
            &[("l_orderkey", "o_orderkey")],
            JoinType::Semi,
        );
    }

    #[test]
    #[should_panic(expected = "runs one task per partition")]
    fn a_reading_stage_states_no_task_count() {
        let mut dag = DagBuilder::new("test");
        let orders = Node::scan("orders", &["o_orderkey"], None).tasks(4);
        let s = dag.stage_hash(orders, &["o_orderkey"], 2);
        let _ = dag.read(s).tasks(2);
    }

    #[test]
    #[should_panic(expected = "a stated task count goes on a stage's whole tree")]
    fn a_stated_count_cannot_join_a_reader() {
        let mut dag = DagBuilder::new("test");
        let orders = Node::scan("orders", &["o_orderkey"], None).tasks(2);
        let s = dag.stage_hash(orders, &["o_orderkey"], 2);
        let line = Node::scan("lineitem", &["l_orderkey"], None).tasks(2);
        let _ = line.join(dag.read(s), &[("l_orderkey", "o_orderkey")], JoinType::Semi);
    }

    #[test]
    #[should_panic(expected = "states its task count")]
    fn a_source_stage_states_its_task_count() {
        let mut dag = DagBuilder::new("test");
        dag.stage_broadcast(Node::scan("nation", &["n_nationkey"], None));
    }

    #[test]
    fn par_scaling() {
        let p100 = Par::for_scale(100.0);
        assert_eq!(
            p100,
            Par {
                fact: 128,
                mid: 32,
                join: 64
            }
        );
        let tiny = Par::for_scale(0.01);
        assert_eq!(
            tiny,
            Par {
                fact: 1,
                mid: 1,
                join: 1
            }
        );
        let p10 = Par::for_scale(10.0);
        assert_eq!(p10.fact, 13);
    }
}
