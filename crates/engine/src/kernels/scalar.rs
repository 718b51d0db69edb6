//! The binary-expression kernel: every `lhs ⊕ rhs` other than Kleene
//! `AND`/`OR` is computed here, and nowhere else.
//!
//! Each side is an `Operand` — an evaluated column, or a literal left
//! unbroadcast — so `column ⊕ column`, `column ⊕ literal` and
//! `literal ⊕ column` are one implementation, written in lhs/rhs order.
//! A call dispatches once on the pair of operand types (`arith`,
//! `compare`), resolves the operator outside the row loop
//! (`apply_i64`, `apply_f64`, `compare_rows`) and runs the one row
//! loop there is (`zip_rows`), monomorphised per side shape. Mixed
//! numeric sides coerce to f64 element by element; neither side is
//! materialized first. A column operand is borrowed when the expression
//! is a bare column reference, so such a leaf copies nothing.
//!
//! Two sinks take the result. `binary` returns a column: the data
//! vector plus the two sides' merged validity. `compare_mask_into`
//! appends `valid AND result` to a keep-mask — the scan filter's inner
//! loop — from the same comparison loop.
//!
//! A string column against a literal runs through
//! `StrColumn::map_rows`: once per dictionary entry, then one lookup
//! per row by code, whenever the dictionary is no larger than the
//! column. `IN` lists (`member_rows_into`) and LIKE ([`like_mask`])
//! take the same route.
//!
//! What stays outside: Kleene `AND`/`OR` need both validity masks per
//! row (`expr::eval_kleene`), and a null literal has no type to dispatch
//! on, so it arrives as the all-null I64 column `Expr::eval` makes of it
//! (no plan produces one).

use crate::column::{Column, ColumnData, StrColumn};
use crate::expr::{BinOp, LikePattern};
use crate::types::{DataType, Value};
use std::borrow::Cow;

/// One side of a binary expression (or one CASE result): a column —
/// the batch's own when the expression is a column reference, computed
/// otherwise — or a non-null literal that is never broadcast.
pub(crate) enum Operand<'a> {
    /// A column of the batch's row count.
    Col(Cow<'a, Column>),
    /// What `Expr::Lit` holds; never [`Value::Null`].
    Lit(&'a Value),
}

impl Operand<'_> {
    /// The operand's type.
    pub(crate) fn data_type(&self) -> DataType {
        match self {
            Operand::Col(c) => c.data_type(),
            Operand::Lit(v) => v.data_type().expect("null literals are materialized"),
        }
    }

    /// Is row `i` non-null? A literal is valid on every row.
    pub(crate) fn is_valid(&self, i: usize) -> bool {
        match self {
            Operand::Col(c) => c.is_valid(i),
            Operand::Lit(_) => true,
        }
    }

    fn validity(&self) -> Option<&[bool]> {
        match self {
            Operand::Col(c) => c.validity.as_deref(),
            Operand::Lit(_) => None,
        }
    }

    fn typed(&self) -> Typed<'_> {
        match self {
            Operand::Col(c) => match &c.data {
                ColumnData::I64(v) => Typed::I64(Rows::Col(v)),
                ColumnData::F64(v) => Typed::F64(Rows::Col(v)),
                ColumnData::Str(v) => Typed::Str(Rows::Col(v)),
                ColumnData::Date(v) => Typed::Date(Rows::Col(v)),
                ColumnData::Bool(v) => Typed::Bool(Rows::Col(v)),
            },
            Operand::Lit(v) => match v {
                Value::I64(x) => Typed::I64(Rows::Repeat(x)),
                Value::F64(x) => Typed::F64(Rows::Repeat(x)),
                Value::Str(x) => Typed::Str(Rows::Repeat(x.as_str())),
                Value::Date(x) => Typed::Date(Rows::Repeat(x)),
                Value::Bool(x) => Typed::Bool(Rows::Repeat(x)),
                Value::Null => unreachable!("null literals are materialized"),
            },
        }
    }
}

/// One side as the row loop reads it: `C` iterates a column's rows as
/// `T`s, which is also what a literal repeats.
#[derive(Clone, Copy)]
enum Rows<C, T> {
    /// A column's values, one per row.
    Col(C),
    /// A literal, the same on every row.
    Repeat(T),
}

/// A fixed-width side: a slice, read by reference.
type Slice<'a, T> = Rows<&'a [T], &'a T>;

impl<'a, T> Slice<'a, T> {
    fn at(self, i: usize) -> &'a T {
        match self {
            Rows::Col(v) => &v[i],
            Rows::Repeat(x) => x,
        }
    }
}

impl<'a> Rows<&'a StrColumn, &'a str> {
    fn at(self, i: usize) -> &'a str {
        match self {
            Rows::Col(v) => v.get(i),
            Rows::Repeat(x) => x,
        }
    }
}

/// An operand's rows by type: what the two dispatches match on.
enum Typed<'a> {
    I64(Slice<'a, i64>),
    F64(Slice<'a, f64>),
    Str(Rows<&'a StrColumn, &'a str>),
    Date(Slice<'a, i32>),
    Bool(Slice<'a, bool>),
}

/// Numeric element types, read as f64 by the pairs with no typed arm.
trait Num: Copy {
    fn to_f64(self) -> f64;
}

impl Num for i64 {
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Num for f64 {
    fn to_f64(self) -> f64 {
        self
    }
}

impl Num for i32 {
    fn to_f64(self) -> f64 {
        self as f64
    }
}

/// `l ⊕ r` as a column of `n` rows, for any non-Kleene operator: null
/// where either side is null.
pub(crate) fn binary(op: BinOp, l: &Operand, r: &Operand, n: usize) -> Column {
    use BinOp::*;
    let data = match op {
        And | Or => panic!("Kleene ops need both validity masks per row"),
        Add | Sub | Mul | Div | Mod => arith(op, l, r, n),
        Eq | Neq | Lt | LtEq | Gt | GtEq => {
            let mut vals = Vec::with_capacity(n);
            compare(op, l, r, n, &mut vals);
            ColumnData::Bool(vals)
        }
    };
    let validity = match (l.validity(), r.validity()) {
        (None, None) => return Column::new(data),
        (Some(a), None) | (None, Some(a)) => a.to_vec(),
        (Some(a), Some(b)) => a.iter().zip(b).map(|(x, y)| *x && *y).collect(),
    };
    Column::with_validity(data, validity)
}

/// Append the keep-mask of the comparison `l ⊕ r` — `valid AND true`
/// per row — to `mask`, with no Bool column in between. An incomparable
/// pair (NaN) is `false` under every operator, `Neq` included.
pub(crate) fn compare_mask_into(
    op: BinOp,
    l: &Operand,
    r: &Operand,
    n: usize,
    mask: &mut Vec<bool>,
) {
    let start = mask.len();
    compare(op, l, r, n, mask);
    for validity in [l.validity(), r.validity()].into_iter().flatten() {
        for (m, v) in mask[start..].iter_mut().zip(validity) {
            *m &= v;
        }
    }
}

/// In [`select_rows`]' `pick`, a row that takes no source.
pub(crate) const NO_SOURCE: usize = usize::MAX;

/// The data of the column whose row `i` is row `i` of `sources[pick[i]]`
/// — the type's zero placeholder where `pick[i]` is [`NO_SOURCE`] — of
/// the first source's type. This is how CASE and COALESCE assemble a
/// result: in row order, so a string result is appended to, never
/// scattered into. A source of another type panics where it is picked.
pub(crate) fn select_rows(sources: &[Operand], pick: &[usize]) -> ColumnData {
    macro_rules! select {
        ($variant:ident, $zero:expr, $read:expr) => {{
            let typed: Vec<_> = sources
                .iter()
                .map(|s| match s.typed() {
                    Typed::$variant(rows) => Some(rows),
                    _ => None,
                })
                .collect();
            let rows = pick.iter().enumerate().map(|(i, &p)| match typed.get(p) {
                None => $zero,
                Some(Some(rows)) => $read(rows.at(i)),
                Some(None) => panic!(
                    "result type mismatch: {} vs {}",
                    sources[0].data_type(),
                    sources[p].data_type()
                ),
            });
            ColumnData::$variant(rows.collect())
        }};
    }
    match sources[0].data_type() {
        DataType::I64 => select!(I64, 0, |x: &i64| *x),
        DataType::F64 => select!(F64, 0.0, |x: &f64| *x),
        DataType::Str => select!(Str, "", |x| x),
        DataType::Date => select!(Date, 0, |x: &i32| *x),
        DataType::Bool => select!(Bool, false, |x: &bool| *x),
    }
}

/// The arithmetic dispatch: result type and coercion per operand pair.
fn arith(op: BinOp, l: &Operand, r: &Operand, n: usize) -> ColumnData {
    use Typed::*;
    match (l.typed(), r.typed(), op) {
        // Division always goes to f64, SQL-decimal style.
        (I64(a), I64(b), BinOp::Div) => ColumnData::F64(apply_f64(op, a, b, n)),
        (I64(a), I64(b), _) => ColumnData::I64(apply_i64(op, a, b, n)),
        (Date(a), I64(b), BinOp::Add) => {
            ColumnData::Date(collect_rows(a, b, n, |x, y| x + *y as i32))
        }
        (Date(a), I64(b), BinOp::Sub) => {
            ColumnData::Date(collect_rows(a, b, n, |x, y| x - *y as i32))
        }
        // Every other numeric pair coerces to f64.
        (F64(a), F64(b), _) => ColumnData::F64(apply_f64(op, a, b, n)),
        (F64(a), I64(b), _) => ColumnData::F64(apply_f64(op, a, b, n)),
        (I64(a), F64(b), _) => ColumnData::F64(apply_f64(op, a, b, n)),
        (F64(a), Date(b), _) => ColumnData::F64(apply_f64(op, a, b, n)),
        (Date(a), F64(b), _) => ColumnData::F64(apply_f64(op, a, b, n)),
        (I64(a), Date(b), _) => ColumnData::F64(apply_f64(op, a, b, n)),
        (Date(a), I64(b), _) => ColumnData::F64(apply_f64(op, a, b, n)),
        (Date(a), Date(b), _) => ColumnData::F64(apply_f64(op, a, b, n)),
        _ => panic!("no arithmetic on {} and {}", l.data_type(), r.data_type()),
    }
}

/// The comparison dispatch: same-type pairs compare natively, mixed
/// numeric pairs through f64. Appends `n` results to `out`, validity
/// not yet applied.
fn compare(op: BinOp, l: &Operand, r: &Operand, n: usize, out: &mut Vec<bool>) {
    use Typed::*;
    fn same<T>(x: T) -> T {
        x
    }
    fn float<T: Num>(x: &T) -> f64 {
        x.to_f64()
    }
    match (l.typed(), r.typed()) {
        (I64(a), I64(b)) => compare_rows(op, a, b, n, out, same, same),
        (Date(a), Date(b)) => compare_rows(op, a, b, n, out, same, same),
        (F64(a), F64(b)) => compare_rows(op, a, b, n, out, same, same),
        (Str(a), Str(b)) => compare_rows(op, a, b, n, out, same, same),
        (Bool(a), Bool(b)) => compare_rows(op, a, b, n, out, same, same),
        (I64(a), F64(b)) => compare_rows(op, a, b, n, out, float, float),
        (F64(a), I64(b)) => compare_rows(op, a, b, n, out, float, float),
        (I64(a), Date(b)) => compare_rows(op, a, b, n, out, float, float),
        (Date(a), I64(b)) => compare_rows(op, a, b, n, out, float, float),
        (F64(a), Date(b)) => compare_rows(op, a, b, n, out, float, float),
        (Date(a), F64(b)) => compare_rows(op, a, b, n, out, float, float),
        _ => panic!("cannot compare {} with {}", l.data_type(), r.data_type()),
    }
}

fn apply_i64(op: BinOp, a: Slice<i64>, b: Slice<i64>, n: usize) -> Vec<i64> {
    match op {
        BinOp::Add => collect_rows(a, b, n, |x, y| x + y),
        BinOp::Sub => collect_rows(a, b, n, |x, y| x - y),
        BinOp::Mul => collect_rows(a, b, n, |x, y| x * y),
        BinOp::Mod => collect_rows(a, b, n, |x, y| x % y),
        _ => unreachable!("{op:?} is not i64 arithmetic"),
    }
}

fn apply_f64<A: Num, B: Num>(op: BinOp, a: Slice<A>, b: Slice<B>, n: usize) -> Vec<f64> {
    match op {
        BinOp::Add => collect_rows(a, b, n, |x, y| x.to_f64() + y.to_f64()),
        BinOp::Sub => collect_rows(a, b, n, |x, y| x.to_f64() - y.to_f64()),
        BinOp::Mul => collect_rows(a, b, n, |x, y| x.to_f64() * y.to_f64()),
        BinOp::Div => collect_rows(a, b, n, |x, y| x.to_f64() / y.to_f64()),
        BinOp::Mod => collect_rows(a, b, n, |x, y| x.to_f64() % y.to_f64()),
        _ => unreachable!("{op:?} is not arithmetic"),
    }
}

/// Compare two sides under the common key type `K`. Each operator is a
/// direct comparison, not an `Ordering` round-trip.
fn compare_rows<L, R, A: Copy, B: Copy, K: PartialOrd>(
    op: BinOp,
    a: Rows<L, A>,
    b: Rows<R, B>,
    n: usize,
    out: &mut Vec<bool>,
    ka: impl Fn(A) -> K,
    kb: impl Fn(B) -> K,
) where
    L: ColRows<Item = A>,
    R: ColRows<Item = B>,
{
    match op {
        BinOp::Eq => zip_rows(a, b, n, out, |x, y| ka(x) == kb(y)),
        // `<`-or-`>` rather than `!=` so NaN comes out false, as under
        // `partial_cmp`; the same thing for totally ordered types.
        BinOp::Neq => zip_rows(a, b, n, out, |x, y| ka(x) < kb(y) || ka(x) > kb(y)),
        BinOp::Lt => zip_rows(a, b, n, out, |x, y| ka(x) < kb(y)),
        BinOp::LtEq => zip_rows(a, b, n, out, |x, y| ka(x) <= kb(y)),
        BinOp::Gt => zip_rows(a, b, n, out, |x, y| ka(x) > kb(y)),
        BinOp::GtEq => zip_rows(a, b, n, out, |x, y| ka(x) >= kb(y)),
        _ => unreachable!("{op:?} is not a comparison"),
    }
}

fn collect_rows<'a, A, B, O: Copy>(
    l: Slice<'a, A>,
    r: Slice<'a, B>,
    n: usize,
    f: impl Fn(&'a A, &'a B) -> O,
) -> Vec<O> {
    let mut out = Vec::with_capacity(n);
    zip_rows(l, r, n, &mut out, f);
    out
}

/// A column side of the row loop.
trait ColRows: IntoIterator + Copy {
    /// Append `f` of each row to `out`, in row order.
    fn map_into<O: Copy>(self, out: &mut Vec<O>, f: impl Fn(Self::Item) -> O) {
        out.extend(self.into_iter().map(f));
    }
}

impl<T> ColRows for &[T] {}

/// Once per dictionary entry where that is less work.
impl<'a> ColRows for &'a StrColumn {
    fn map_into<O: Copy>(self, out: &mut Vec<O>, f: impl Fn(&'a str) -> O) {
        self.map_rows(out, f);
    }
}

/// The row loop: append `f(l[i], r[i])` for each of `n` rows to `out`.
/// Four copies per instantiation, one per side shape, so no row pays a
/// branch on the shape.
fn zip_rows<L, R, A: Copy, B: Copy, O: Copy>(
    l: Rows<L, A>,
    r: Rows<R, B>,
    n: usize,
    out: &mut Vec<O>,
    f: impl Fn(A, B) -> O,
) where
    L: ColRows<Item = A>,
    R: ColRows<Item = B>,
{
    match (l, r) {
        (Rows::Col(a), Rows::Col(b)) => out.extend(a.into_iter().zip(b).map(|(x, y)| f(x, y))),
        (Rows::Col(a), Rows::Repeat(y)) => a.map_into(out, |x| f(x, y)),
        (Rows::Repeat(x), Rows::Col(b)) => b.map_into(out, |y| f(x, y)),
        (Rows::Repeat(x), Rows::Repeat(y)) => out.extend((0..n).map(|_| f(x, y))),
    }
}

/// Columnar LIKE: match every string against the pattern.
pub fn like_mask(strs: &StrColumn, pattern: &LikePattern, negated: bool) -> Vec<bool> {
    let mut out = Vec::with_capacity(strs.len());
    strs.map_rows(&mut out, |s| pattern.matches(s) != negated);
    out
}

/// Append, for every row of `probe`, whether its value equals a non-null
/// item of `list` — `=` as the comparison kernel has it, so mixed numeric
/// pairs meet as f64 — to `out`. One pass over the rows, each tested
/// against the whole list; a null row's placeholder is tested like any
/// value, so the caller applies the validity.
pub(crate) fn member_rows_into(probe: &Column, list: &[Value], out: &mut Vec<bool>) {
    let items = list.iter().filter(|item| !item.is_null());
    match &probe.data {
        ColumnData::Str(v) => {
            let items: Vec<&str> = items.map(Value::as_str).collect();
            v.map_rows(out, |s| items.contains(&s));
        }
        ColumnData::Bool(v) => {
            let items: Vec<bool> = items.map(Value::as_bool).collect();
            out.extend(v.iter().map(|x| items.contains(x)));
        }
        ColumnData::I64(v) => numeric_members(v, items, out, |item| match item {
            Value::I64(x) => Some(*x),
            _ => None,
        }),
        ColumnData::F64(v) => numeric_members(v, items, out, |item| match item {
            Value::F64(x) => Some(*x),
            _ => None,
        }),
        ColumnData::Date(v) => numeric_members(v, items, out, |item| match item {
            Value::Date(x) => Some(*x),
            _ => None,
        }),
    }
}

/// [`member_rows_into`] for a numeric column: items of the column's own
/// type compare natively, other numeric items through f64.
fn numeric_members<'a, T: Num + PartialEq>(
    vals: &[T],
    items: impl Iterator<Item = &'a Value>,
    out: &mut Vec<bool>,
    own: impl Fn(&Value) -> Option<T>,
) {
    let (mut same, mut float) = (Vec::new(), Vec::new());
    for item in items {
        match (own(item), item) {
            (Some(x), _) => same.push(x),
            (None, Value::I64(x)) => float.push(*x as f64),
            (None, Value::F64(x)) => float.push(*x),
            (None, Value::Date(x)) => float.push(*x as f64),
            (None, other) => panic!(
                "cannot compare a number with {}",
                other.data_type().expect("null items are skipped")
            ),
        }
    }
    out.extend(
        vals.iter()
            .map(|x| same.contains(x) || (!float.is_empty() && float.contains(&x.to_f64()))),
    );
}
