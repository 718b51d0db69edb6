//! Row-at-a-time reference implementations — the differential-test oracle.
//!
//! Before the vectorized kernels ([`crate::kernels`]) the engine
//! broadcast every literal into a full column and ran operators row by
//! row through [`Value`]. Those originals live on here, self-contained,
//! for two jobs:
//!
//! * differential tests assert the kernelized operators produce
//!   byte-identical batches (`tests/kernel_differential.rs`);
//! * `bench_all` measures kernel speedups against them (its
//!   `engine.kernel.*.x_reference` rows).
//!
//! Everything is `row_`-prefixed, so a call site always says whether it
//! runs this deliberately slow, allocate-per-row path or the operator it
//! checks.

use crate::batch::Batch;
use crate::column::{Column, ColumnData};
use crate::expr::{BinOp, Expr};
use crate::ops::aggregate::{AggExpr, AggFunc};
use crate::ops::join::JoinType;
use crate::ops::sort::SortKey;
use crate::rowkey::encode_row;
use crate::schema::SchemaRef;
use crate::types::{date, DataType, Value};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Broadcast a literal into a full column of `n` rows — the legacy
/// representation of a literal operand (a `String` clone per row for
/// string literals).
pub fn row_broadcast_literal(v: &Value, n: usize) -> Column {
    match v {
        Value::Null => Column::nulls(DataType::I64, n),
        Value::I64(x) => Column::from_i64(vec![*x; n]),
        Value::F64(x) => Column::from_f64(vec![*x; n]),
        Value::Str(x) => Column::from_str_vec(vec![x.clone(); n]),
        Value::Date(x) => Column::from_date(vec![*x; n]),
        Value::Bool(x) => Column::from_bool(vec![*x; n]),
    }
}

/// Evaluate an expression the pre-kernel way: literals broadcast, both
/// binary operands fully materialized, CASE branches evaluated as full
/// columns.
pub fn row_eval(expr: &Expr, batch: &Batch) -> Column {
    let n = batch.num_rows();
    match expr {
        Expr::Col(i) => batch.columns[*i].clone(),
        Expr::Lit(v) => row_broadcast_literal(v, n),
        Expr::Binary { op, lhs, rhs } => {
            let l = row_eval(lhs, batch);
            let r = row_eval(rhs, batch);
            row_eval_binary(*op, &l, &r)
        }
        Expr::Not(e) => {
            let c = row_eval(e, batch);
            let vals = c.bools().iter().map(|b| !b).collect();
            Column {
                data: ColumnData::Bool(vals),
                validity: c.validity.clone(),
            }
        }
        Expr::IsNull(e) => {
            let c = row_eval(e, batch);
            let vals = (0..n).map(|i| !c.is_valid(i)).collect();
            Column::from_bool(vals)
        }
        Expr::Case {
            branches,
            else_expr,
        } => row_eval_case(batch, branches, else_expr),
        Expr::Like {
            input,
            pattern,
            negated,
        } => {
            let c = row_eval(input, batch);
            let vals = c
                .strs()
                .iter()
                .map(|s| pattern.matches(s) != *negated)
                .collect();
            Column {
                data: ColumnData::Bool(vals),
                validity: c.validity.clone(),
            }
        }
        Expr::InList { input, list } => {
            let c = row_eval(input, batch);
            let vals = (0..n)
                .map(|i| {
                    let v = c.value(i);
                    list.iter()
                        .any(|item| v.sql_cmp(item) == Some(Ordering::Equal))
                })
                .collect();
            Column {
                data: ColumnData::Bool(vals),
                validity: c.validity.clone(),
            }
        }
        Expr::ExtractYear(e) => {
            let c = row_eval(e, batch);
            let vals = c.dates().iter().map(|&d| date::year_of(d) as i64).collect();
            Column {
                data: ColumnData::I64(vals),
                validity: c.validity.clone(),
            }
        }
        Expr::Substr { input, start, len } => {
            let c = row_eval(input, batch);
            let vals = c
                .strs()
                .iter()
                .map(|s| {
                    // Character positions, 1-based; a start of 0 reads
                    // as 1 and the range stops at the end of `s`.
                    let skip = start.saturating_sub(1);
                    s.chars().skip(skip).take(*len).collect::<String>()
                })
                .collect();
            Column {
                data: ColumnData::Str(vals),
                validity: c.validity.clone(),
            }
        }
        Expr::Coalesce(exprs) => {
            let mut rest = exprs.iter().map(|e| row_eval(e, batch));
            let first = rest.next().expect("COALESCE of nothing");
            match first.validity {
                None => first,
                Some(mut validity) => {
                    // A null row of the first operand keeps its
                    // placeholder unless an alternative fills it: read
                    // the data with the mask off.
                    let raw = Column::new(first.data);
                    let mut rows: Vec<Value> = (0..n).map(|i| raw.value(i)).collect();
                    for alt in rest {
                        if validity.iter().all(|&v| v) {
                            break;
                        }
                        for i in 0..n {
                            if !validity[i] && alt.is_valid(i) {
                                rows[i] = alt.value(i);
                                validity[i] = true;
                            }
                        }
                    }
                    let data = row_data_from_values(raw.data_type(), &rows);
                    Column::with_validity(data, validity)
                }
            }
        }
        Expr::Cast { input, to } => {
            let c = row_eval(input, batch);
            row_cast_column(&c, *to)
        }
    }
}

/// The legacy keep-mask: evaluate the predicate and fold nulls to false.
pub fn row_predicate_mask(pred: &Expr, batch: &Batch) -> Vec<bool> {
    let c = row_eval(pred, batch);
    let bools = c.bools();
    (0..batch.num_rows())
        .map(|i| c.is_valid(i) && bools[i])
        .collect()
}

/// Column data of `dtype` from one non-null [`Value`] of that type per
/// row — how CASE and COALESCE, which fill rows in any order, hand
/// their result back.
fn row_data_from_values(dtype: DataType, rows: &[Value]) -> ColumnData {
    macro_rules! unwrap_rows {
        ($variant:ident, $read:expr) => {
            ColumnData::$variant(
                rows.iter()
                    .map(|v| match v {
                        Value::$variant(x) => $read(x),
                        other => panic!("result type mismatch: {dtype} vs {other:?}"),
                    })
                    .collect(),
            )
        };
    }
    match dtype {
        DataType::I64 => unwrap_rows!(I64, |x: &i64| *x),
        DataType::F64 => unwrap_rows!(F64, |x: &f64| *x),
        DataType::Str => unwrap_rows!(Str, String::as_str),
        DataType::Date => unwrap_rows!(Date, |x: &i32| *x),
        DataType::Bool => unwrap_rows!(Bool, |x: &bool| *x),
    }
}

/// The placeholder a null row of `dtype` holds.
fn row_zero(dtype: DataType) -> Value {
    match dtype {
        DataType::I64 => Value::I64(0),
        DataType::F64 => Value::F64(0.0),
        DataType::Str => Value::Str(String::new()),
        DataType::Date => Value::Date(0),
        DataType::Bool => Value::Bool(false),
    }
}

fn row_merged_validity(l: &Column, r: &Column) -> Option<Vec<bool>> {
    match (&l.validity, &r.validity) {
        (None, None) => None,
        (Some(a), None) => Some(a.clone()),
        (None, Some(b)) => Some(b.clone()),
        (Some(a), Some(b)) => Some(a.iter().zip(b).map(|(x, y)| *x && *y).collect()),
    }
}

fn row_eval_binary(op: BinOp, l: &Column, r: &Column) -> Column {
    use BinOp::*;
    match op {
        And | Or => row_eval_kleene(op, l, r),
        Add | Sub | Mul | Div | Mod => row_eval_arith(op, l, r),
        Eq | Neq | Lt | LtEq | Gt | GtEq => row_eval_cmp(op, l, r),
    }
}

fn row_eval_kleene(op: BinOp, l: &Column, r: &Column) -> Column {
    let lb = l.bools();
    let rb = r.bools();
    let n = lb.len();
    let mut vals = Vec::with_capacity(n);
    let mut validity = Vec::with_capacity(n);
    for i in 0..n {
        let lv = l.is_valid(i);
        let rv = r.is_valid(i);
        let (out, valid) = match op {
            BinOp::And => {
                if (lv && !lb[i]) || (rv && !rb[i]) {
                    (false, true)
                } else if lv && rv {
                    (lb[i] && rb[i], true)
                } else {
                    (false, false)
                }
            }
            BinOp::Or => {
                if (lv && lb[i]) || (rv && rb[i]) {
                    (true, true)
                } else if lv && rv {
                    (lb[i] || rb[i], true)
                } else {
                    (false, false)
                }
            }
            _ => unreachable!(),
        };
        vals.push(out);
        validity.push(valid);
    }
    Column::with_validity(ColumnData::Bool(vals), validity)
}

fn row_eval_arith(op: BinOp, l: &Column, r: &Column) -> Column {
    let validity = row_merged_validity(l, r);
    let data = match (&l.data, &r.data, op) {
        (ColumnData::I64(a), ColumnData::I64(b), BinOp::Div) => ColumnData::F64(
            a.iter()
                .zip(b)
                .map(|(x, y)| *x as f64 / *y as f64)
                .collect(),
        ),
        (ColumnData::I64(a), ColumnData::I64(b), BinOp::Mod) => {
            ColumnData::I64(a.iter().zip(b).map(|(x, y)| x % y).collect())
        }
        (ColumnData::I64(a), ColumnData::I64(b), _) => ColumnData::I64(
            a.iter()
                .zip(b)
                .map(|(x, y)| row_apply_i64(op, *x, *y))
                .collect(),
        ),
        (ColumnData::Date(a), ColumnData::I64(b), BinOp::Add) => {
            ColumnData::Date(a.iter().zip(b).map(|(x, y)| x + *y as i32).collect())
        }
        (ColumnData::Date(a), ColumnData::I64(b), BinOp::Sub) => {
            ColumnData::Date(a.iter().zip(b).map(|(x, y)| x - *y as i32).collect())
        }
        (a, b, _) => {
            let af = row_coerce_f64(a);
            let bf = row_coerce_f64(b);
            ColumnData::F64(
                af.iter()
                    .zip(&bf)
                    .map(|(x, y)| row_apply_f64(op, *x, *y))
                    .collect(),
            )
        }
    };
    match validity {
        Some(v) => Column::with_validity(data, v),
        None => Column::new(data),
    }
}

fn row_apply_i64(op: BinOp, x: i64, y: i64) -> i64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        _ => unreachable!(),
    }
}

fn row_apply_f64(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Mod => x % y,
        _ => unreachable!(),
    }
}

fn row_coerce_f64(d: &ColumnData) -> Vec<f64> {
    match d {
        ColumnData::I64(v) => v.iter().map(|&x| x as f64).collect(),
        ColumnData::F64(v) => v.clone(),
        ColumnData::Date(v) => v.iter().map(|&x| x as f64).collect(),
        other => panic!("cannot coerce {} to f64", other.data_type()),
    }
}

fn row_eval_cmp(op: BinOp, l: &Column, r: &Column) -> Column {
    let validity = row_merged_validity(l, r);
    let want = |o: Ordering| match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::Neq => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::LtEq => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::GtEq => o != Ordering::Less,
        _ => unreachable!(),
    };
    let vals: Vec<bool> = match (&l.data, &r.data) {
        (ColumnData::I64(a), ColumnData::I64(b)) => {
            a.iter().zip(b).map(|(x, y)| want(x.cmp(y))).collect()
        }
        (ColumnData::Date(a), ColumnData::Date(b)) => {
            a.iter().zip(b).map(|(x, y)| want(x.cmp(y))).collect()
        }
        (ColumnData::F64(a), ColumnData::F64(b)) => a
            .iter()
            .zip(b)
            .map(|(x, y)| x.partial_cmp(y).is_some_and(&want))
            .collect(),
        (ColumnData::Str(a), ColumnData::Str(b)) => {
            a.iter().zip(b).map(|(x, y)| want(x.cmp(y))).collect()
        }
        (ColumnData::Bool(a), ColumnData::Bool(b)) => {
            a.iter().zip(b).map(|(x, y)| want(x.cmp(y))).collect()
        }
        (a, b) => {
            let af = row_coerce_f64(a);
            let bf = row_coerce_f64(b);
            af.iter()
                .zip(&bf)
                .map(|(x, y)| x.partial_cmp(y).is_some_and(&want))
                .collect()
        }
    };
    match validity {
        Some(v) => Column::with_validity(ColumnData::Bool(vals), v),
        None => Column::new(ColumnData::Bool(vals)),
    }
}

fn row_eval_case(
    batch: &Batch,
    branches: &[(Expr, Expr)],
    else_expr: &Option<Box<Expr>>,
) -> Column {
    let n = batch.num_rows();
    let results: Vec<(Column, Column)> = branches
        .iter()
        .map(|(c, r)| (row_eval(c, batch), row_eval(r, batch)))
        .collect();
    let else_col = else_expr.as_ref().map(|e| row_eval(e, batch));
    let dtype = results
        .first()
        .expect("CASE with no branches")
        .1
        .data_type();
    // Unmatched and null-result rows keep the type's zero placeholder.
    let mut rows = vec![row_zero(dtype); n];
    let mut validity = vec![false; n];
    #[allow(clippy::needless_range_loop)] // indexes three parallel structures
    for i in 0..n {
        let mut matched = false;
        for (cond, res) in &results {
            if cond.is_valid(i) && cond.bools()[i] {
                if res.is_valid(i) {
                    rows[i] = res.value(i);
                    validity[i] = true;
                }
                matched = true;
                break;
            }
        }
        if !matched {
            if let Some(e) = &else_col {
                if e.is_valid(i) {
                    rows[i] = e.value(i);
                    validity[i] = true;
                }
            }
        }
    }
    Column::with_validity(row_data_from_values(dtype, &rows), validity)
}

fn row_cast_column(c: &Column, to: DataType) -> Column {
    if c.data_type() == to {
        return c.clone();
    }
    let data = match (&c.data, to) {
        (ColumnData::I64(v), DataType::F64) => {
            ColumnData::F64(v.iter().map(|&x| x as f64).collect())
        }
        (ColumnData::F64(v), DataType::I64) => {
            ColumnData::I64(v.iter().map(|&x| x as i64).collect())
        }
        (ColumnData::Date(v), DataType::I64) => {
            ColumnData::I64(v.iter().map(|&x| x as i64).collect())
        }
        (ColumnData::Bool(v), DataType::I64) => {
            ColumnData::I64(v.iter().map(|&x| x as i64).collect())
        }
        (from, to) => panic!("unsupported cast {} -> {to}", from.data_type()),
    };
    Column {
        data,
        validity: c.validity.clone(),
    }
}

/// Accumulator state for one (group, aggregate) pair — the legacy
/// enum-per-update representation.
#[derive(Debug, Clone)]
enum RowAggState {
    SumI64 { sum: i64, seen: bool },
    SumF64 { sum: f64, seen: bool },
    MinMax { best: Option<Value>, is_min: bool },
    Count(i64),
    Avg { sum: f64, count: i64 },
    Distinct(HashSet<Vec<u8>>),
}

fn row_agg_state(func: AggFunc, input_type: DataType) -> RowAggState {
    match func {
        AggFunc::Sum => match input_type {
            DataType::I64 => RowAggState::SumI64 {
                sum: 0,
                seen: false,
            },
            _ => RowAggState::SumF64 {
                sum: 0.0,
                seen: false,
            },
        },
        AggFunc::Min => RowAggState::MinMax {
            best: None,
            is_min: true,
        },
        AggFunc::Max => RowAggState::MinMax {
            best: None,
            is_min: false,
        },
        AggFunc::Count | AggFunc::CountStar => RowAggState::Count(0),
        AggFunc::Avg => RowAggState::Avg { sum: 0.0, count: 0 },
        AggFunc::CountDistinct => RowAggState::Distinct(HashSet::new()),
    }
}

fn row_agg_update(state: &mut RowAggState, func: AggFunc, col: &Column, row: usize) {
    let valid = col.is_valid(row);
    match state {
        RowAggState::Count(c) => {
            if func == AggFunc::CountStar || valid {
                *c += 1;
            }
        }
        RowAggState::SumI64 { sum, seen } => {
            if valid {
                *sum += col.i64s()[row];
                *seen = true;
            }
        }
        RowAggState::SumF64 { sum, seen } => {
            if valid {
                *sum += match &col.data {
                    ColumnData::F64(v) => v[row],
                    ColumnData::I64(v) => v[row] as f64,
                    other => panic!("cannot SUM {}", other.data_type()),
                };
                *seen = true;
            }
        }
        RowAggState::MinMax { best, is_min } => {
            if valid {
                let v = col.value(row);
                let replace = match best {
                    None => true,
                    Some(b) => {
                        let ord = v.sql_cmp(b).expect("comparable agg inputs");
                        if *is_min {
                            ord == Ordering::Less
                        } else {
                            ord == Ordering::Greater
                        }
                    }
                };
                if replace {
                    *best = Some(v);
                }
            }
        }
        RowAggState::Avg { sum, count } => {
            if valid {
                *sum += match &col.data {
                    ColumnData::F64(v) => v[row],
                    ColumnData::I64(v) => v[row] as f64,
                    other => panic!("cannot AVG {}", other.data_type()),
                };
                *count += 1;
            }
        }
        RowAggState::Distinct(set) => {
            if valid {
                set.insert(encode_row(&[col], row));
            }
        }
    }
}

fn row_agg_finish(state: RowAggState) -> Value {
    match state {
        RowAggState::Count(c) => Value::I64(c),
        RowAggState::SumI64 { sum, seen } => {
            if seen {
                Value::I64(sum)
            } else {
                Value::Null
            }
        }
        RowAggState::SumF64 { sum, seen } => {
            if seen {
                Value::F64(sum)
            } else {
                Value::Null
            }
        }
        RowAggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
        RowAggState::Avg { sum, count } => {
            if count > 0 {
                Value::F64(sum / count as f64)
            } else {
                Value::Null
            }
        }
        RowAggState::Distinct(set) => Value::I64(set.len() as i64),
    }
}

fn row_make_states(aggs: &[AggExpr], output: &SchemaRef) -> Vec<RowAggState> {
    let ngroup = output.len() - aggs.len();
    aggs.iter()
        .enumerate()
        .map(|(ai, a)| row_agg_state(a.func, output.field(ngroup + ai).dtype))
        .collect()
}

/// The legacy hash aggregation: an owned byte key per input row and a
/// `Vec<RowAggState>` per group, updated one (row, aggregate) at a time.
/// Contract matches `ops::aggregate::hash_aggregate` exactly.
pub fn row_hash_aggregate(
    batches: &[Batch],
    group_by: &[Expr],
    aggs: &[AggExpr],
    output: SchemaRef,
) -> Batch {
    assert_eq!(
        output.len(),
        group_by.len() + aggs.len(),
        "aggregate schema width"
    );
    let mut groups: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut group_rows: Vec<(usize, usize)> = Vec::new();
    let mut states: Vec<Vec<RowAggState>> = Vec::new();
    let global = group_by.is_empty();
    if global {
        groups.insert(Vec::new(), 0);
        group_rows.push((usize::MAX, 0));
        states.push(row_make_states(aggs, &output));
    }

    let key_cols_per_batch: Vec<Vec<Column>> = batches
        .iter()
        .map(|b| group_by.iter().map(|e| row_eval(e, b)).collect())
        .collect();
    let agg_cols_per_batch: Vec<Vec<Column>> = batches
        .iter()
        .map(|b| aggs.iter().map(|a| row_eval(&a.input, b)).collect())
        .collect();

    for (bi, b) in batches.iter().enumerate() {
        let key_cols: Vec<&Column> = key_cols_per_batch[bi].iter().collect();
        let agg_cols = &agg_cols_per_batch[bi];
        for row in 0..b.num_rows() {
            let gi = if global {
                0
            } else {
                let key = encode_row(&key_cols, row);
                match groups.entry(key) {
                    Entry::Occupied(o) => *o.get(),
                    Entry::Vacant(v) => {
                        let gi = states.len();
                        v.insert(gi);
                        group_rows.push((bi, row));
                        states.push(row_make_states(aggs, &output));
                        gi
                    }
                }
            };
            for (ai, agg) in aggs.iter().enumerate() {
                row_agg_update(&mut states[gi][ai], agg.func, &agg_cols[ai], row);
            }
        }
    }

    let ngroups = states.len();
    let mut out_cols: Vec<Column> = Vec::with_capacity(output.len());
    for (ci, _) in group_by.iter().enumerate() {
        let values: Vec<Value> = group_rows
            .iter()
            .map(|&(bi, row)| key_cols_per_batch[bi][ci].value(row))
            .collect();
        out_cols.push(values_to_column(&values, output.field(ci).dtype));
    }
    let mut per_agg: Vec<Vec<Value>> = vec![Vec::with_capacity(ngroups); aggs.len()];
    for group_states in states {
        for (ai, st) in group_states.into_iter().enumerate() {
            per_agg[ai].push(row_agg_finish(st));
        }
    }
    for (ai, values) in per_agg.into_iter().enumerate() {
        let dtype = output.field(group_by.len() + ai).dtype;
        out_cols.push(values_to_column(&values, dtype));
    }
    Batch::new(output, out_cols)
}

/// A column of `dtype` from owned values, nulls allowed: a null row
/// holds the type's zero, and an `i64` widens into an `f64` column.
fn values_to_column(values: &[Value], dtype: DataType) -> Column {
    let validity = values.iter().map(|v| *v != Value::Null).collect();
    let rows: Vec<Value> = values
        .iter()
        .map(|v| match (v, dtype) {
            (Value::Null, _) => row_zero(dtype),
            (Value::I64(x), DataType::F64) => Value::F64(*x as f64),
            (v, _) => v.clone(),
        })
        .collect();
    Column::with_validity(row_data_from_values(dtype, &rows), validity)
}

/// The legacy hash join: byte keys on both sides, an owned key encoded
/// per probe row. Contract matches `ops::join::hash_join` exactly.
pub fn row_hash_join(
    build_schema: SchemaRef,
    build: &[Batch],
    probe: &[Batch],
    build_keys: &[Expr],
    probe_keys: &[Expr],
    join_type: JoinType,
    output: SchemaRef,
) -> Vec<Batch> {
    let build = Batch::concat(build_schema, build);
    let key_cols: Vec<Column> = build_keys.iter().map(|e| row_eval(e, &build)).collect();
    let key_refs: Vec<&Column> = key_cols.iter().collect();
    let mut index: HashMap<Vec<u8>, Vec<u32>> = HashMap::new();
    'rows: for row in 0..build.num_rows() {
        for k in &key_refs {
            if !k.is_valid(row) {
                continue 'rows;
            }
        }
        index
            .entry(encode_row(&key_refs, row))
            .or_default()
            .push(row as u32);
    }
    probe
        .iter()
        .map(|p| row_probe(&index, &build, p, probe_keys, join_type, output.clone()))
        .collect()
}

fn row_probe(
    index: &HashMap<Vec<u8>, Vec<u32>>,
    build: &Batch,
    probe: &Batch,
    probe_keys: &[Expr],
    join_type: JoinType,
    output: SchemaRef,
) -> Batch {
    let key_cols: Vec<Column> = probe_keys.iter().map(|e| row_eval(e, probe)).collect();
    let key_refs: Vec<&Column> = key_cols.iter().collect();
    let n = probe.num_rows();
    match join_type {
        JoinType::Semi | JoinType::Anti => {
            let want_match = join_type == JoinType::Semi;
            let mask: Vec<bool> = (0..n)
                .map(|row| {
                    let valid = key_refs.iter().all(|k| k.is_valid(row));
                    let matched = valid && index.contains_key(&encode_row(&key_refs, row));
                    matched == want_match
                })
                .collect();
            let filtered = probe.filter(&mask);
            Batch::new(output, filtered.columns)
        }
        JoinType::Inner | JoinType::Left => {
            let mut probe_idx: Vec<usize> = Vec::with_capacity(n);
            let mut build_idx: Vec<usize> = Vec::with_capacity(n);
            let mut unmatched: Vec<usize> = match join_type {
                JoinType::Left => Vec::with_capacity(n),
                _ => Vec::new(),
            };
            for row in 0..n {
                let valid = key_refs.iter().all(|k| k.is_valid(row));
                let hits = if valid {
                    index.get(&encode_row(&key_refs, row))
                } else {
                    None
                };
                match hits {
                    Some(rows) => {
                        for &b in rows {
                            probe_idx.push(row);
                            build_idx.push(b as usize);
                        }
                    }
                    None => {
                        if join_type == JoinType::Left {
                            unmatched.push(row);
                        }
                    }
                }
            }
            let matched_probe = probe.take(&probe_idx);
            let matched_build = build.take(&build_idx);
            let mut columns: Vec<Column> = matched_probe
                .columns
                .into_iter()
                .chain(matched_build.columns)
                .collect();
            if join_type == JoinType::Left && !unmatched.is_empty() {
                let extra_probe = probe.take(&unmatched);
                let nulls: Vec<Column> = build
                    .schema
                    .fields
                    .iter()
                    .map(|f| Column::nulls(f.dtype, unmatched.len()))
                    .collect();
                let extras: Vec<Column> = extra_probe.columns.into_iter().chain(nulls).collect();
                columns = columns
                    .into_iter()
                    .zip(extras)
                    .map(|(a, b)| Column::concat(&[&a, &b]))
                    .collect();
            }
            Batch::new(output, columns)
        }
    }
}

fn row_cmp_values(a: &Value, b: &Value, descending: bool) -> Ordering {
    let ord = match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.sql_cmp(b).expect("comparable sort keys"),
    };
    if descending {
        ord.reverse()
    } else {
        ord
    }
}

/// The legacy sort: a [`Value`] materialized per comparison (a `String`
/// clone per string comparison). Contract matches `ops::sort::sort`.
pub fn row_sort(
    schema: SchemaRef,
    batches: &[Batch],
    keys: &[SortKey],
    limit: Option<usize>,
) -> Batch {
    let all = Batch::concat(schema, batches);
    let n = all.num_rows();
    let key_cols: Vec<_> = keys.iter().map(|k| row_eval(&k.expr, &all)).collect();
    let mut indices: Vec<usize> = (0..n).collect();
    indices.sort_by(|&a, &b| {
        for (k, col) in keys.iter().zip(&key_cols) {
            let ord = row_cmp_values(&col.value(a), &col.value(b), k.descending);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b)
    });
    if let Some(l) = limit {
        indices.truncate(l);
    }
    all.take(&indices)
}
