//! Scalar expressions evaluated vectorized over batches.
//!
//! Expressions reference input columns by ordinal (plan builders resolve
//! names against the stage's input schema at plan-construction time).
//! Null semantics follow SQL: arithmetic and comparisons propagate null,
//! `AND`/`OR` use Kleene three-valued logic, and filters keep only rows
//! whose predicate is valid *and* true.
//!
//! [`Expr::eval`] is one recursive walk. Arithmetic and comparisons are
//! not computed here: both sides become `Operand`s — a literal stays a
//! borrowed [`Value`], it is broadcast only when it is itself the
//! projection — and go to the one binary kernel in
//! [`crate::kernels::scalar`], which `IN` lists and CASE results reuse.
//! [`predicate_mask_into`] walks the same tree but sends comparison
//! leaves to that kernel's keep-mask sink, so a filter never builds a
//! Bool column. A column reference is not a copy: wherever a
//! sub-expression's column is only read, it comes from
//! `Expr::eval_borrowed`, which lends the batch's own column.

use crate::batch::Batch;
use crate::column::{Column, ColumnData};
use crate::kernels::scalar::{
    binary, compare_mask_into, like_mask, member_rows_into, select_rows, Operand, NO_SOURCE,
};
use crate::types::{date, DataType, Value};
use std::borrow::Cow;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition (numeric, or date + days).
    Add,
    /// Subtraction (numeric, or date - days).
    Sub,
    /// Multiplication.
    Mul,
    /// Division; always produces f64.
    Div,
    /// Modulo on integers.
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    Neq,
    /// Less than.
    Lt,
    /// Less than or equal.
    LtEq,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    GtEq,
    /// Kleene AND.
    And,
    /// Kleene OR.
    Or,
}

/// Restricted LIKE patterns covering every pattern in TPC-H.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LikePattern {
    /// `'prefix%'`
    Prefix(String),
    /// `'%suffix'`
    Suffix(String),
    /// `'%needle%'`
    Contains(String),
    /// `'%a%b%'` — all needles appear in order.
    ContainsInOrder(Vec<String>),
}

impl LikePattern {
    /// Match a string against the pattern.
    pub fn matches(&self, s: &str) -> bool {
        match self {
            LikePattern::Prefix(p) => s.starts_with(p.as_str()),
            LikePattern::Suffix(p) => s.ends_with(p.as_str()),
            LikePattern::Contains(p) => s.contains(p.as_str()),
            LikePattern::ContainsInOrder(parts) => {
                let mut rest = s;
                for p in parts {
                    match rest.find(p.as_str()) {
                        Some(pos) => rest = &rest[pos + p.len()..],
                        None => return false,
                    }
                }
                true
            }
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by ordinal.
    Col(usize),
    /// A literal value.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical negation (null stays null).
    Not(Box<Expr>),
    /// True where the operand is null (never null itself).
    IsNull(Box<Expr>),
    /// Searched CASE: first branch whose condition is true wins.
    Case {
        /// `(condition, result)` branches.
        branches: Vec<(Expr, Expr)>,
        /// Value when no branch matches (null if absent).
        else_expr: Option<Box<Expr>>,
    },
    /// LIKE against a restricted pattern.
    Like {
        /// String operand.
        input: Box<Expr>,
        /// The pattern.
        pattern: LikePattern,
        /// Invert the result (NOT LIKE).
        negated: bool,
    },
    /// `value IN (list)` over literal values.
    InList {
        /// Probe operand.
        input: Box<Expr>,
        /// The literal list.
        list: Vec<Value>,
    },
    /// EXTRACT(YEAR FROM date) as i64.
    ExtractYear(Box<Expr>),
    /// SUBSTRING(input FROM start FOR len), 1-based as in SQL.
    Substr {
        /// String operand.
        input: Box<Expr>,
        /// 1-based start position.
        start: usize,
        /// Length in characters.
        len: usize,
    },
    /// First non-null operand.
    Coalesce(Vec<Expr>),
    /// Cast to a type (only numeric widenings are supported).
    Cast {
        /// Operand.
        input: Box<Expr>,
        /// Target type.
        to: DataType,
    },
}

#[allow(clippy::should_implement_trait)] // the DSL mirrors SQL operator names
impl Expr {
    /// Shorthand: input column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }
    /// Shorthand: i64 literal.
    pub fn lit_i64(v: i64) -> Expr {
        Expr::Lit(Value::I64(v))
    }
    /// Shorthand: f64 literal.
    pub fn lit_f64(v: f64) -> Expr {
        Expr::Lit(Value::F64(v))
    }
    /// Shorthand: string literal.
    pub fn lit_str(v: &str) -> Expr {
        Expr::Lit(Value::Str(v.to_string()))
    }
    /// Shorthand: date literal from `YYYY-MM-DD`.
    pub fn lit_date(v: &str) -> Expr {
        Expr::Lit(Value::Date(date::parse(v)))
    }

    fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `self + rhs`
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }
    /// `self - rhs`
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }
    /// `self * rhs`
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }
    /// `self / rhs`
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }
    /// `self = rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Eq, self, rhs)
    }
    /// `self <> rhs`
    pub fn neq(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Neq, self, rhs)
    }
    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Lt, self, rhs)
    }
    /// `self <= rhs`
    pub fn lt_eq(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::LtEq, self, rhs)
    }
    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Gt, self, rhs)
    }
    /// `self >= rhs`
    pub fn gt_eq(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::GtEq, self, rhs)
    }
    /// `self AND rhs`
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::And, self, rhs)
    }
    /// `self OR rhs`
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Or, self, rhs)
    }

    /// Evaluate over a batch, producing a column of `batch.num_rows()` rows.
    pub fn eval(&self, batch: &Batch) -> Column {
        let n = batch.num_rows();
        match self {
            Expr::Col(i) => batch.columns[*i].clone(),
            Expr::Lit(v) => broadcast_literal(v, n),
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    eval_kleene(*op, &lhs.eval_borrowed(batch), &rhs.eval_borrowed(batch))
                }
                _ => binary(*op, &operand(lhs, batch), &operand(rhs, batch), n),
            },
            Expr::Not(e) => {
                let c = e.eval_borrowed(batch);
                let vals = c.bools().iter().map(|b| !b).collect();
                Column {
                    data: ColumnData::Bool(vals),
                    validity: c.validity.clone(),
                }
            }
            Expr::IsNull(e) => {
                let c = e.eval_borrowed(batch);
                let vals = (0..n).map(|i| !c.is_valid(i)).collect();
                Column::from_bool(vals)
            }
            Expr::Case {
                branches,
                else_expr,
            } => eval_case(batch, branches, else_expr),
            Expr::Like {
                input,
                pattern,
                negated,
            } => {
                let c = input.eval_borrowed(batch);
                let vals = like_mask(c.strs(), pattern, *negated);
                Column {
                    data: ColumnData::Bool(vals),
                    validity: c.validity.clone(),
                }
            }
            Expr::InList { input, list } => {
                // A null row stays null over a `false` placeholder, and a
                // null item is matched by nothing, as under
                // `Value::sql_cmp`.
                let c = input.eval_borrowed(batch);
                let mut vals = Vec::with_capacity(n);
                member_rows_into(&c, list, &mut vals);
                and_validity(&mut vals, c.validity.as_deref());
                Column {
                    data: ColumnData::Bool(vals),
                    validity: c.validity.clone(),
                }
            }
            Expr::ExtractYear(e) => {
                let c = e.eval_borrowed(batch);
                let vals = c.dates().iter().map(|&d| date::year_of(d) as i64).collect();
                Column {
                    data: ColumnData::I64(vals),
                    validity: c.validity.clone(),
                }
            }
            Expr::Substr { input, start, len } => {
                let c = input.eval_borrowed(batch);
                let vals = c.strs().iter().map(|s| substr(s, *start, *len)).collect();
                Column {
                    data: ColumnData::Str(vals),
                    validity: c.validity.clone(),
                }
            }
            Expr::Coalesce(exprs) => {
                let first = exprs.first().expect("COALESCE of nothing");
                let first = first.eval_borrowed(batch);
                // Fully valid already: no alternative can contribute.
                let Some(mut validity) = first.validity.clone() else {
                    return first.into_owned();
                };
                // Every row starts as the first operand's (its placeholder
                // where that is null); a null row moves to the first
                // alternative with a value for it.
                let mut pick = vec![0; n];
                let mut sources = Vec::with_capacity(exprs.len());
                sources.push(Operand::Col(first));
                for (k, alt) in exprs.iter().enumerate().skip(1) {
                    if validity.iter().all(|&v| v) {
                        break;
                    }
                    let alt = operand(alt, batch);
                    for i in 0..n {
                        if !validity[i] && alt.is_valid(i) {
                            pick[i] = k;
                            validity[i] = true;
                        }
                    }
                    sources.push(alt);
                }
                Column::with_validity(select_rows(&sources, &pick), validity)
            }
            Expr::Cast { input, to } => cast_column(input.eval_borrowed(batch), *to),
        }
    }

    /// [`Expr::eval`] for a caller that only reads the result: a bare
    /// column reference lends the batch's own column instead of copying
    /// it; everything else is computed as `eval` computes it.
    pub(crate) fn eval_borrowed<'a>(&self, batch: &'a Batch) -> Cow<'a, Column> {
        match self {
            Expr::Col(i) => Cow::Borrowed(&batch.columns[*i]),
            e => Cow::Owned(e.eval(batch)),
        }
    }
}

/// One side of a binary expression, or one CASE/COALESCE result: a
/// non-null literal stays borrowed, a column reference borrows the
/// batch's column, anything else is evaluated. A null literal has no
/// type for the kernel to dispatch on, so it takes the `eval` route and
/// arrives as an all-null I64 column.
fn operand<'a>(e: &'a Expr, batch: &'a Batch) -> Operand<'a> {
    match e {
        Expr::Lit(v) if !v.is_null() => Operand::Lit(v),
        e => Operand::Col(e.eval_borrowed(batch)),
    }
}

/// `SUBSTRING(s FROM start FOR len)`: `start` is 1-based and, like
/// `len`, counts characters; a start of 0 reads as 1 and a range
/// running past the end stops at the end.
fn substr(s: &str, start: usize, len: usize) -> &str {
    let offset = |s: &str, chars: usize| s.char_indices().nth(chars).map_or(s.len(), |(i, _)| i);
    let tail = &s[offset(s, start.saturating_sub(1))..];
    &tail[..offset(tail, len)]
}

/// Materialize a literal as a full column. Only a literal that is
/// itself a projection, a Kleene operand, or null pays for this;
/// everywhere else it stays an [`Operand::Lit`].
fn broadcast_literal(v: &Value, n: usize) -> Column {
    match v {
        Value::Null => Column::nulls(DataType::I64, n),
        Value::I64(x) => Column::from_i64(vec![*x; n]),
        Value::F64(x) => Column::from_f64(vec![*x; n]),
        Value::Str(x) => Column::new(ColumnData::Str(
            std::iter::repeat_n(x.as_str(), n).collect(),
        )),
        Value::Date(x) => Column::from_date(vec![*x; n]),
        Value::Bool(x) => Column::from_bool(vec![*x; n]),
    }
}

fn eval_kleene(op: BinOp, l: &Column, r: &Column) -> Column {
    let lb = l.bools();
    let rb = r.bools();
    let n = lb.len();
    let mut vals = Vec::with_capacity(n);
    let mut validity = Vec::with_capacity(n);
    for i in 0..n {
        let lv = l.is_valid(i);
        let rv = r.is_valid(i);
        // Kleene: false AND x = false; true OR x = true, even with nulls.
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

fn eval_case(batch: &Batch, branches: &[(Expr, Expr)], else_expr: &Option<Box<Expr>>) -> Column {
    assert!(!branches.is_empty(), "CASE with no branches");
    let n = batch.num_rows();
    let conds: Vec<Cow<'_, Column>> = branches
        .iter()
        .map(|(cond, _)| cond.eval_borrowed(batch))
        .collect();
    // One source per branch result, then ELSE if there is one; the first
    // sets the output type. Literal results stay unbroadcast.
    let sources: Vec<Operand> = branches
        .iter()
        .map(|(_, result)| result)
        .chain(else_expr.as_deref())
        .map(|e| operand(e, batch))
        .collect();
    let mut pick = vec![NO_SOURCE; n];
    for (i, p) in pick.iter_mut().enumerate() {
        // The first true branch wins, ELSE where none is; a null result
        // (or no ELSE) leaves the row null over a zero placeholder.
        let winner = conds
            .iter()
            .position(|c| c.is_valid(i) && c.bools()[i])
            .unwrap_or(branches.len());
        if sources.get(winner).is_some_and(|s| s.is_valid(i)) {
            *p = winner;
        }
    }
    let validity = pick.iter().map(|&p| p != NO_SOURCE).collect();
    Column::with_validity(select_rows(&sources, &pick), validity)
}

fn cast_column(c: Cow<'_, Column>, to: DataType) -> Column {
    if c.data_type() == to {
        return c.into_owned();
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

/// Evaluate a predicate over a batch and return the keep-mask:
/// valid AND true.
pub fn predicate_mask(pred: &Expr, batch: &Batch) -> Vec<bool> {
    let mut mask = Vec::with_capacity(batch.num_rows());
    predicate_mask_into(pred, batch, &mut mask);
    mask
}

/// [`predicate_mask`] into a reused buffer (cleared first) — the pooled
/// twin used by the task executor's scan path.
pub fn predicate_mask_into(pred: &Expr, batch: &Batch, mask: &mut Vec<bool>) {
    mask.clear();
    fill_pred_mask(pred, batch, mask);
}

/// Append the keep-mask (`valid AND true` per row) of `pred` to `mask`,
/// which the caller hands in empty.
///
/// Conjunctions and disjunctions fold the operand masks elementwise
/// instead of materializing the Kleene Bool column: under the
/// null-folds-to-false convention, `mask(a AND b) = mask(a) & mask(b)`
/// (the result is true-and-valid only when both sides are) and
/// `mask(a OR b) = mask(a) | mask(b)` (a true side forces true even
/// against null). A comparison leaf compares its two operands straight
/// into the mask, and an `IN` leaf tests its input's rows straight into
/// it; everything else evaluates normally and folds.
fn fill_pred_mask(pred: &Expr, batch: &Batch, mask: &mut Vec<bool>) {
    use BinOp::*;
    match pred {
        Expr::Binary { op, lhs, rhs } => match op {
            And | Or => {
                fill_pred_mask(lhs, batch, mask);
                let mut rhs_mask = Vec::with_capacity(batch.num_rows());
                fill_pred_mask(rhs, batch, &mut rhs_mask);
                match op {
                    And => mask.iter_mut().zip(&rhs_mask).for_each(|(m, r)| *m &= r),
                    _ => mask.iter_mut().zip(&rhs_mask).for_each(|(m, r)| *m |= r),
                }
                return;
            }
            Eq | Neq | Lt | LtEq | Gt | GtEq => {
                let (l, r) = (operand(lhs, batch), operand(rhs, batch));
                compare_mask_into(*op, &l, &r, batch.num_rows(), mask);
                return;
            }
            // Arithmetic is no predicate; `bools()` below says so.
            Add | Sub | Mul | Div | Mod => {}
        },
        Expr::InList { input, list } => {
            let c = input.eval_borrowed(batch);
            let start = mask.len();
            member_rows_into(&c, list, mask);
            and_validity(&mut mask[start..], c.validity.as_deref());
            return;
        }
        _ => {}
    }
    let c = pred.eval_borrowed(batch);
    let bools = c.bools();
    match &c.validity {
        None => mask.extend_from_slice(bools),
        Some(m) => mask.extend(m.iter().zip(bools).map(|(v, b)| *v && *b)),
    }
}

/// Clear the entries of `mask` whose row is null.
fn and_validity(mask: &mut [bool], validity: Option<&[bool]>) {
    if let Some(valid) = validity {
        mask.iter_mut().zip(valid).for_each(|(m, v)| *m &= v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn batch() -> Batch {
        let schema = Schema::shared(&[
            ("k", DataType::I64),
            ("x", DataType::F64),
            ("s", DataType::Str),
            ("d", DataType::Date),
        ]);
        Batch::new(
            schema,
            vec![
                Column::from_i64(vec![1, 2, 3, 4]),
                Column::from_f64(vec![0.5, 1.0, 1.5, 2.0]),
                Column::from_str_vec(vec![
                    "PROMO ANODIZED".into(),
                    "STANDARD BRASS".into(),
                    "PROMO BURNISHED".into(),
                    "ECONOMY".into(),
                ]),
                Column::from_date(vec![
                    date::parse("1994-01-01"),
                    date::parse("1995-06-15"),
                    date::parse("1996-12-31"),
                    date::parse("1997-03-01"),
                ]),
            ],
        )
    }

    #[test]
    fn arithmetic_types() {
        let b = batch();
        let c = Expr::col(0).add(Expr::lit_i64(10)).eval(&b);
        assert_eq!(c.i64s(), &[11, 12, 13, 14]);
        let c = Expr::col(0).mul(Expr::col(1)).eval(&b);
        assert_eq!(c.f64s(), &[0.5, 2.0, 4.5, 8.0]);
        let c = Expr::col(0).div(Expr::lit_i64(2)).eval(&b);
        assert_eq!(c.f64s(), &[0.5, 1.0, 1.5, 2.0]);
        // TPC-H Q1 style: x * (1 - x).
        let one_minus = Expr::lit_f64(1.0).sub(Expr::col(1));
        let c = Expr::col(1).mul(one_minus).eval(&b);
        assert_eq!(c.f64s()[0], 0.25);
    }

    #[test]
    fn date_comparison_and_arith() {
        let b = batch();
        let pred = Expr::col(3).lt(Expr::lit_date("1996-01-01"));
        let mask = predicate_mask(&pred, &b);
        assert_eq!(mask, vec![true, true, false, false]);
        let shifted = Expr::col(3).add(Expr::lit_i64(90)).eval(&b);
        assert_eq!(shifted.dates()[0], date::parse("1994-04-01"));
    }

    #[test]
    fn like_patterns() {
        assert!(LikePattern::Prefix("PROMO".into()).matches("PROMO BRASS"));
        assert!(!LikePattern::Prefix("PROMO".into()).matches("XPROMO"));
        assert!(LikePattern::Suffix("BRASS".into()).matches("LARGE BRASS"));
        assert!(LikePattern::Contains("green".into()).matches("dim green lace"));
        let p = LikePattern::ContainsInOrder(vec!["a".into(), "b".into()]);
        assert!(p.matches("xaxbx"));
        assert!(!p.matches("xbxax"));
        let b = batch();
        let e = Expr::Like {
            input: Box::new(Expr::col(2)),
            pattern: LikePattern::Prefix("PROMO".into()),
            negated: false,
        };
        assert_eq!(e.eval(&b).bools(), &[true, false, true, false]);
    }

    #[test]
    fn in_list_and_case() {
        let b = batch();
        let e = Expr::InList {
            input: Box::new(Expr::col(0)),
            list: vec![Value::I64(2), Value::I64(4)],
        };
        assert_eq!(e.eval(&b).bools(), &[false, true, false, true]);

        // CASE WHEN s LIKE 'PROMO%' THEN x ELSE 0.0 END (the Q14 pattern).
        let e = Expr::Case {
            branches: vec![(
                Expr::Like {
                    input: Box::new(Expr::col(2)),
                    pattern: LikePattern::Prefix("PROMO".into()),
                    negated: false,
                },
                Expr::col(1),
            )],
            else_expr: Some(Box::new(Expr::lit_f64(0.0))),
        };
        let c = e.eval(&b);
        assert_eq!(c.f64s(), &[0.5, 0.0, 1.5, 0.0]);
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn kleene_logic_with_nulls() {
        let schema = Schema::shared(&[("a", DataType::Bool), ("b", DataType::Bool)]);
        let b = Batch::new(
            schema,
            vec![
                Column::with_validity(
                    ColumnData::Bool(vec![true, false, false, true]),
                    vec![true, true, false, false],
                ),
                Column::from_bool(vec![false, true, false, true]),
            ],
        );
        // a AND b: null AND false = false; null AND true = null.
        let c = Expr::col(0).and(Expr::col(1)).eval(&b);
        assert!(c.is_valid(0) && !c.bools()[0]);
        assert!(c.is_valid(1) && !c.bools()[1]);
        assert!(c.is_valid(2) && !c.bools()[2]); // null AND false = false
        assert!(!c.is_valid(3)); // null AND true = null
                                 // a OR b: null OR true = true; null OR false = null.
        let c = Expr::col(0).or(Expr::col(1)).eval(&b);
        assert!(c.is_valid(3) && c.bools()[3]);
        assert!(!c.is_valid(2));
    }

    #[test]
    fn extract_year_substr_coalesce() {
        let b = batch();
        let y = Expr::ExtractYear(Box::new(Expr::col(3))).eval(&b);
        assert_eq!(y.i64s(), &[1994, 1995, 1996, 1997]);
        let s = Expr::Substr {
            input: Box::new(Expr::col(2)),
            start: 1,
            len: 5,
        }
        .eval(&b);
        assert_eq!(&s.strs()[0], "PROMO");
        assert_eq!(&s.strs()[3], "ECONO");

        let schema = Schema::shared(&[("a", DataType::I64)]);
        let nb = Batch::new(
            schema,
            vec![Column::with_validity(
                ColumnData::I64(vec![7, 0]),
                vec![true, false],
            )],
        );
        let c = Expr::Coalesce(vec![Expr::col(0), Expr::lit_i64(-1)]).eval(&nb);
        assert_eq!(c.i64s(), &[7, -1]);
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn null_propagation_in_arith_and_cmp() {
        let schema = Schema::shared(&[("a", DataType::I64)]);
        let b = Batch::new(
            schema,
            vec![Column::with_validity(
                ColumnData::I64(vec![1, 2]),
                vec![false, true],
            )],
        );
        let c = Expr::col(0).add(Expr::lit_i64(1)).eval(&b);
        assert!(!c.is_valid(0));
        assert_eq!(c.value(1), Value::I64(3));
        let m = predicate_mask(&Expr::col(0).gt(Expr::lit_i64(0)), &b);
        assert_eq!(m, vec![false, true]); // null comparison filtered out
        let isn = Expr::IsNull(Box::new(Expr::col(0))).eval(&b);
        assert_eq!(isn.bools(), &[true, false]);
    }

    #[test]
    fn cast_widening() {
        let b = batch();
        let c = Expr::Cast {
            input: Box::new(Expr::col(0)),
            to: DataType::F64,
        }
        .eval(&b);
        assert_eq!(c.f64s(), &[1.0, 2.0, 3.0, 4.0]);
    }
}
