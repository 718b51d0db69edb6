//! Engine edge cases: empty inputs, all-filtered partitions, null keys
//! through exchanges, skewed partitioning, and single-row tables.

use cackle_engine::prelude::*;

fn catalog_with(name: &str, schema: SchemaRef, batches: Vec<Batch>) -> Catalog {
    let c = Catalog::new();
    c.register(Table::new(name, schema, batches));
    c
}

fn two_stage_sum_dag(table: &str, tasks: u32, parts: u32) -> StageDag {
    let schema = Schema::shared(&[("k", DataType::I64), ("v", DataType::F64)]);
    let _ = schema;
    let out = Schema::shared(&[("k", DataType::I64), ("s", DataType::F64)]);
    StageDag::new(
        "sum",
        vec![
            Stage {
                id: 0,
                root: PlanNode::HashAggregate {
                    input: Box::new(PlanNode::Scan {
                        table: table.into(),
                        filter: None,
                        projection: None,
                    }),
                    group_by: vec![Expr::col(0)],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1))],
                    schema: out.clone(),
                },
                tasks,
                exchange: ExchangeMode::Hash {
                    keys: vec![Expr::col(0)],
                    partitions: parts,
                },
                output_schema: out.clone(),
            },
            Stage {
                id: 1,
                root: PlanNode::HashAggregate {
                    input: Box::new(PlanNode::ShuffleRead { stage: 0 }),
                    group_by: vec![Expr::col(0)],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1))],
                    schema: out.clone(),
                },
                tasks: parts,
                exchange: ExchangeMode::Gather,
                output_schema: out,
            },
        ],
    )
}

#[test]
fn empty_table_flows_through_exchange() {
    let schema = Schema::shared(&[("k", DataType::I64), ("v", DataType::F64)]);
    let cat = catalog_with("t", schema.clone(), vec![Batch::empty(schema)]);
    let dag = two_stage_sum_dag("t", 3, 2);
    let r = Executor::new(1).execute_query(&dag, 1, &cat, &MemoryShuffle::new());
    assert_eq!(r.num_rows(), 0);
    assert_eq!(r.num_columns(), 2);
}

#[test]
fn all_rows_filtered_is_empty_not_panic() {
    let schema = Schema::shared(&[("k", DataType::I64)]);
    let cat = catalog_with(
        "t",
        schema.clone(),
        vec![Batch::new(
            schema.clone(),
            vec![Column::from_i64(vec![1, 2, 3])],
        )],
    );
    let dag = StageDag::new(
        "none",
        vec![Stage {
            id: 0,
            root: PlanNode::Filter {
                input: Box::new(PlanNode::Scan {
                    table: "t".into(),
                    filter: None,
                    projection: None,
                }),
                predicate: Expr::col(0).gt(Expr::lit_i64(100)),
            },
            tasks: 2,
            exchange: ExchangeMode::Gather,
            output_schema: schema,
        }],
    );
    let r = Executor::new(1).execute_query(&dag, 1, &cat, &MemoryShuffle::new());
    assert_eq!(r.num_rows(), 0);
}

#[test]
fn extreme_skew_single_key() {
    // Every row has the same key: one partition takes everything, the
    // others read empty; the final sum must still be exact.
    let schema = Schema::shared(&[("k", DataType::I64), ("v", DataType::F64)]);
    let n = 10_000;
    let cat = catalog_with(
        "t",
        schema.clone(),
        vec![Batch::new(
            schema,
            vec![
                Column::from_i64(vec![7; n]),
                Column::from_f64((0..n).map(|x| x as f64).collect()),
            ],
        )],
    );
    let dag = two_stage_sum_dag("t", 4, 8);
    let r = Executor::new(1).execute_query(&dag, 1, &cat, &MemoryShuffle::new());
    assert_eq!(r.num_rows(), 1);
    assert_eq!(r.columns[0].i64s(), &[7]);
    let expect: f64 = (0..n).map(|x| x as f64).sum();
    assert!((r.columns[1].f64s()[0] - expect).abs() < 1e-6);
}

#[test]
fn null_group_keys_form_their_own_group() {
    let schema = Schema::shared(&[("k", DataType::I64), ("v", DataType::F64)]);
    let batch = Batch::new(
        schema.clone(),
        vec![
            Column::with_validity(
                ColumnData::I64(vec![1, 0, 1, 0]),
                vec![true, false, true, false],
            ),
            Column::from_f64(vec![1.0, 2.0, 3.0, 4.0]),
        ],
    );
    let cat = catalog_with("t", schema, vec![batch]);
    let dag = two_stage_sum_dag("t", 1, 2);
    let r = Executor::new(1).execute_query(&dag, 1, &cat, &MemoryShuffle::new());
    // Two groups: k=1 (sum 4) and k=NULL (sum 6).
    assert_eq!(r.num_rows(), 2);
    let mut found_null = false;
    for i in 0..2 {
        match r.columns[0].value(i) {
            Value::I64(1) => assert_eq!(r.columns[1].f64s()[i], 4.0),
            Value::Null => {
                found_null = true;
                assert_eq!(r.columns[1].f64s()[i], 6.0);
            }
            other => panic!("unexpected group {other:?}"),
        }
    }
    assert!(found_null, "null group must survive the exchange");
}

#[test]
fn more_tasks_than_partitions_idle_gracefully() {
    let schema = Schema::shared(&[("k", DataType::I64), ("v", DataType::F64)]);
    // One tiny partition but 8 scan tasks.
    let cat = catalog_with(
        "t",
        schema.clone(),
        vec![Batch::new(
            schema,
            vec![Column::from_i64(vec![1]), Column::from_f64(vec![5.0])],
        )],
    );
    let dag = two_stage_sum_dag("t", 8, 3);
    let r = Executor::new(1).execute_query(&dag, 1, &cat, &MemoryShuffle::new());
    assert_eq!(r.num_rows(), 1);
    assert_eq!(r.columns[1].f64s(), &[5.0]);
}

#[test]
fn broadcast_of_empty_build_side_yields_empty_join() {
    let dim_schema = Schema::shared(&[("k", DataType::I64)]);
    let fact_schema = Schema::shared(&[("k", DataType::I64)]);
    let cat = Catalog::new();
    cat.register(Table::new(
        "dim",
        dim_schema.clone(),
        vec![Batch::empty(dim_schema.clone())],
    ));
    cat.register(Table::new(
        "fact",
        fact_schema.clone(),
        vec![Batch::new(
            fact_schema.clone(),
            vec![Column::from_i64(vec![1, 2, 3])],
        )],
    ));
    let out = Schema::shared(&[("fk", DataType::I64), ("dk", DataType::I64)]);
    let dag = StageDag::new(
        "bjoin",
        vec![
            Stage {
                id: 0,
                root: PlanNode::Scan {
                    table: "dim".into(),
                    filter: None,
                    projection: None,
                },
                tasks: 1,
                exchange: ExchangeMode::Broadcast,
                output_schema: dim_schema,
            },
            Stage {
                id: 1,
                root: PlanNode::HashJoin {
                    build: Box::new(PlanNode::BroadcastRead { stage: 0 }),
                    probe: Box::new(PlanNode::Scan {
                        table: "fact".into(),
                        filter: None,
                        projection: None,
                    }),
                    build_keys: vec![Expr::col(0)],
                    probe_keys: vec![Expr::col(0)],
                    join_type: JoinType::Inner,
                    schema: out.clone(),
                },
                tasks: 2,
                exchange: ExchangeMode::Gather,
                output_schema: out,
            },
        ],
    );
    let r = Executor::new(1).execute_query(&dag, 1, &cat, &MemoryShuffle::new());
    assert_eq!(r.num_rows(), 0);
}
