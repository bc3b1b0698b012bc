//! Boolean predicates over a block's rows.
//!
//! A predicate has two evaluators. [`Predicate::filter`] is the engine's:
//! it refines a selection vector of ascending row indices with a typed
//! kernel for every predicate shape, on both block formats.
//! [`Predicate::eval`] maps the whole block to a selection [`Bitmap`] with
//! generic vectorized code; the operator-at-a-time baseline and `CASE` use
//! it, and it is the independent reference `filter` is tested against.
//!
//! Every `filter` kernel ends in one branch-free compaction (`sel[k] = i;
//! k += pass`) with the operator matched once outside the loop; a leading
//! run of passing rows is only read. A column against a literal, and two
//! columns of one type, compare in place: a column block's typed slice, or
//! a row block's field read at its tuple stride. Any other comparison
//! evaluates its two sides over the rows in `sel` only and compares them
//! in their common numeric domain, with `eval`'s type errors. `And`
//! refines one vector conjunct by conjunct, `Or` filters a copy of `sel`
//! per disjunct and merges the survivors as an ascending union, and `Not`
//! subtracts its operand's survivors from `sel`. String predicates (`=`,
//! `IN`, prefix and substring match) compare against literals padded to
//! the column width once, matching the storage encoding, at a known width:
//! up to 16 bytes as one monomorphized array, wider with an 8-byte word
//! prefilter and then the tail. A substring match scans for the needle's
//! first byte before comparing.

use crate::error::ExprError;
use crate::scalar::{gather_from, Fixed, Rows, ScalarExpr, Strided, Ty, Vals};
use crate::Result;
use std::borrow::Cow;
use uot_storage::{Bitmap, ColumnData, DataType, StorageBlock, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    #[inline]
    fn holds<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The operator with its operands swapped: `a op b` ⇔ `b op.flipped() a`.
    fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// A boolean predicate over one block's rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (select everything).
    True,
    /// Numeric/date comparison of two scalar expressions.
    Cmp {
        /// Left side.
        left: ScalarExpr,
        /// Operator.
        op: CmpOp,
        /// Right side.
        right: ScalarExpr,
    },
    /// Conjunction (empty = true).
    And(Vec<Predicate>),
    /// Disjunction (empty = false).
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// String equality against a `Char(n)` column.
    StrEq {
        /// Column index.
        col: usize,
        /// Comparison value (padded to the column width).
        value: String,
    },
    /// String prefix match (SQL `LIKE 'prefix%'`).
    StrStartsWith {
        /// Column index.
        col: usize,
        /// Required prefix.
        prefix: String,
    },
    /// String membership (SQL `IN (...)`).
    StrIn {
        /// Column index.
        col: usize,
        /// Accepted values.
        values: Vec<String>,
    },
    /// Substring match (SQL `LIKE '%needle%'`).
    StrContains {
        /// Column index.
        col: usize,
        /// Required substring.
        needle: String,
    },
}

/// Build `left op right`.
pub fn cmp(left: ScalarExpr, op: CmpOp, right: ScalarExpr) -> Predicate {
    Predicate::Cmp { left, op, right }
}

/// Build a range predicate `lo <= expr < hi` (the common TPC-H date filter).
pub fn between_half_open(expr: ScalarExpr, lo: Value, hi: Value) -> Predicate {
    Predicate::And(vec![
        cmp(expr.clone(), CmpOp::Ge, ScalarExpr::Literal(lo)),
        cmp(expr, CmpOp::Lt, ScalarExpr::Literal(hi)),
    ])
}

impl Predicate {
    /// Conjoin two predicates.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut a)) => {
                a.insert(0, p);
                Predicate::And(a)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// Disjoin two predicates.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(vec![self, other])
    }

    /// Negate.
    pub fn negate(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// All column indices this predicate reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Predicate::True => {}
            Predicate::Cmp { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.referenced_columns(out);
                }
            }
            Predicate::Not(p) => p.referenced_columns(out),
            Predicate::StrEq { col, .. }
            | Predicate::StrStartsWith { col, .. }
            | Predicate::StrIn { col, .. }
            | Predicate::StrContains { col, .. } => out.push(*col),
        }
    }

    /// Evaluate to one selection bit per row of `block`.
    pub fn eval(&self, block: &StorageBlock) -> Result<Bitmap> {
        let n = block.num_rows();
        match self {
            Predicate::True => Ok(Bitmap::ones(n)),
            Predicate::Cmp { left, op, right } => eval_cmp(block, left, *op, right),
            Predicate::And(ps) => {
                let mut acc = Bitmap::ones(n);
                for p in ps {
                    // short-circuit: empty accumulator stays empty
                    if acc.count_ones() == 0 {
                        break;
                    }
                    acc.and_with(&p.eval(block)?);
                }
                Ok(acc)
            }
            Predicate::Or(ps) => {
                let mut acc = Bitmap::zeros(n);
                for p in ps {
                    acc.or_with(&p.eval(block)?);
                }
                Ok(acc)
            }
            Predicate::Not(p) => {
                let mut b = p.eval(block)?;
                b.not_inplace();
                Ok(b)
            }
            Predicate::StrEq { col, value } => eval_str(block, *col, |bytes, width| {
                str_eq_padded(bytes, value, width)
            }),
            Predicate::StrStartsWith { col, prefix } => {
                eval_str(block, *col, |bytes, _w| str_starts_with(bytes, prefix))
            }
            Predicate::StrIn { col, values } => {
                eval_str(block, *col, |bytes, width| str_in(bytes, values, width))
            }
            Predicate::StrContains { col, needle } => {
                eval_str(block, *col, |bytes, _w| str_contains(bytes, needle))
            }
        }
    }

    /// Keep only the rows of `sel` that satisfy the predicate. `sel` holds
    /// ascending row indices of `block` and stays ascending.
    ///
    /// Wherever [`Self::eval`] succeeds, `filter` succeeds from any
    /// ascending `sel` and keeps the rows of `sel` that `eval` selects. It
    /// fails only where `eval` does, and from every row with `eval`'s
    /// error; the one difference is that a conjunction tests only the rows
    /// that reach it, so one under an `Or` or `Not` that a narrowed `sel`
    /// reaches can stop before a failing conjunct that `eval` tests over
    /// the whole block. `And` stops once `sel` is empty, the same
    /// short-circuit point as `eval` from every row.
    pub fn filter(&self, block: &StorageBlock, sel: &mut Vec<usize>) -> Result<()> {
        match self {
            Predicate::True => {}
            Predicate::And(ps) => {
                for p in ps {
                    if sel.is_empty() {
                        break;
                    }
                    p.filter(block, sel)?;
                }
            }
            Predicate::Or(ps) => {
                let from = std::mem::take(sel);
                let (mut hit, mut merged) = (Vec::new(), Vec::new());
                for p in ps {
                    hit.clear();
                    hit.extend_from_slice(&from);
                    p.filter(block, &mut hit)?;
                    union_into(sel, &hit, &mut merged);
                }
            }
            Predicate::Not(p) => {
                let mut hit = sel.clone();
                p.filter(block, &mut hit)?;
                // `hit` is an ascending subset of `sel`: drop its rows.
                let mut h = 0;
                compact(sel, |_, i| {
                    let drop = hit.get(h) == Some(&i);
                    h += usize::from(drop);
                    !drop
                });
            }
            Predicate::Cmp { left, op, right } => filter_cmp(block, left, *op, right, sel)?,
            Predicate::StrEq { col, value } => {
                let c = Chars::of(block, *col)?;
                keep_prefix(c, c.width, &c.fitting([value]), sel);
            }
            Predicate::StrIn { col, values } => {
                let c = Chars::of(block, *col)?;
                keep_prefix(c, c.width, &c.fitting(values), sel);
            }
            Predicate::StrStartsWith { col, prefix } => {
                let c = Chars::of(block, *col)?;
                match prefix.len() {
                    0 => {}
                    n if n > c.width => sel.clear(),
                    n => keep_prefix(c, n, &[prefix.as_bytes()], sel),
                }
            }
            Predicate::StrContains { col, needle } => {
                keep_contains(Chars::of(block, *col)?, needle.as_bytes(), sel)
            }
        }
        Ok(())
    }

    /// Selectivity helper: fraction of rows selected in `block`.
    pub fn selectivity(&self, block: &StorageBlock) -> Result<f64> {
        let n = block.num_rows();
        if n == 0 {
            return Ok(0.0);
        }
        Ok(self.eval(block)?.count_ones() as f64 / n as f64)
    }
}

#[inline]
fn str_eq_padded(bytes: &[u8], value: &str, width: usize) -> bool {
    let v = value.as_bytes();
    if v.len() > width {
        return false;
    }
    bytes[..v.len()] == *v && bytes[v.len()..].iter().all(|&b| b == b' ')
}

#[inline]
fn str_starts_with(bytes: &[u8], prefix: &str) -> bool {
    bytes.len() >= prefix.len() && &bytes[..prefix.len()] == prefix.as_bytes()
}

#[inline]
fn str_in(bytes: &[u8], values: &[String], width: usize) -> bool {
    values.iter().any(|v| str_eq_padded(bytes, v, width))
}

#[inline]
fn str_contains(bytes: &[u8], needle: &str) -> bool {
    needle.is_empty() || bytes.windows(needle.len()).any(|w| w == needle.as_bytes())
}

/// Width of `Char(n)` column `col`, or the error a string predicate on it
/// reports.
fn char_width(block: &StorageBlock, col: usize) -> Result<usize> {
    let schema = block.schema();
    if col >= schema.len() {
        return Err(ExprError::ColumnOutOfRange {
            index: col,
            len: schema.len(),
        });
    }
    match schema.dtype(col) {
        DataType::Char(n) => Ok(n as usize),
        other => Err(ExprError::InvalidType {
            context: "string predicate",
            found: other.name(),
        }),
    }
}

fn eval_str(
    block: &StorageBlock,
    col: usize,
    pred: impl Fn(&[u8], usize) -> bool,
) -> Result<Bitmap> {
    let width = char_width(block, col)?;
    let n = block.num_rows();
    let mut bm = Bitmap::zeros(n);
    if let Some(ColumnData::Char { width: w, data }) = block.column_data(col) {
        for (i, chunk) in data.chunks_exact(*w).enumerate() {
            if pred(chunk, *w) {
                bm.set(i);
            }
        }
    } else {
        for i in 0..n {
            if pred(block.char_at(i, col), width) {
                bm.set(i);
            }
        }
    }
    Ok(bm)
}

/// Comparison evaluation with a `Col op Literal` fast path on column blocks.
fn eval_cmp(
    block: &StorageBlock,
    left: &ScalarExpr,
    op: CmpOp,
    right: &ScalarExpr,
) -> Result<Bitmap> {
    let n = block.num_rows();
    // Fast path: bare column vs literal on a column-store block.
    if let (Some(c), ScalarExpr::Literal(v)) = (left.as_col(), right) {
        if let Some(col) = block.column_data(c) {
            if let Some(bm) = cmp_slice_literal(col, op, v, n) {
                return Ok(bm);
            }
        }
    }
    // Mirrored fast path (literal on the left).
    if let (ScalarExpr::Literal(v), Some(c)) = (left, right.as_col()) {
        if let Some(col) = block.column_data(c) {
            if let Some(bm) = cmp_slice_literal(col, op.flipped(), v, n) {
                return Ok(bm);
            }
        }
    }
    // Generic path: evaluate both sides, compare in a common numeric domain.
    let l = left.eval_all(block)?;
    let r = right.eval_all(block)?;
    cmp_columns(&l, op, &r, n)
}

/// Compare a typed column slice against a literal. Returns `None` when the
/// (column type, literal type) pair is not a supported fast path.
fn cmp_slice_literal(col: &ColumnData, op: CmpOp, v: &Value, n: usize) -> Option<Bitmap> {
    let mut bm = Bitmap::zeros(n);
    match (col, v) {
        (ColumnData::I32(xs), Value::I32(y)) => {
            for (i, x) in xs.iter().enumerate() {
                if op.holds(*x, *y) {
                    bm.set(i);
                }
            }
        }
        (ColumnData::I64(xs), Value::I64(y)) => {
            for (i, x) in xs.iter().enumerate() {
                if op.holds(*x, *y) {
                    bm.set(i);
                }
            }
        }
        (ColumnData::F64(xs), Value::F64(y)) => {
            for (i, x) in xs.iter().enumerate() {
                if op.holds(*x, *y) {
                    bm.set(i);
                }
            }
        }
        (ColumnData::Date(xs), Value::Date(y)) => {
            for (i, x) in xs.iter().enumerate() {
                if op.holds(*x, *y) {
                    bm.set(i);
                }
            }
        }
        _ => return None,
    }
    Some(bm)
}

/// Generic elementwise comparison of two evaluated columns.
fn cmp_columns(l: &ColumnData, op: CmpOp, r: &ColumnData, n: usize) -> Result<Bitmap> {
    let mut bm = Bitmap::zeros(n);
    // Date vs Date compares day counts; all integer combinations widen to
    // i64; any float side compares as f64.
    match (l, r) {
        (ColumnData::Date(a), ColumnData::Date(b)) => {
            for i in 0..n {
                if op.holds(a[i], b[i]) {
                    bm.set(i);
                }
            }
        }
        (ColumnData::Char { .. }, _) | (_, ColumnData::Char { .. }) => {
            return Err(ExprError::InvalidType {
                context: "numeric comparison",
                found: "Char".into(),
            });
        }
        (ColumnData::Date(_), _) | (_, ColumnData::Date(_)) => {
            return Err(ExprError::Incompatible {
                left: name_of(l),
                right: name_of(r),
                context: "comparison",
            });
        }
        _ => {
            let fl = matches!(l, ColumnData::F64(_)) || matches!(r, ColumnData::F64(_));
            if fl {
                let a = to_f64(l);
                let b = to_f64(r);
                for i in 0..n {
                    if op.holds(a[i], b[i]) {
                        bm.set(i);
                    }
                }
            } else {
                let a = to_i64(l);
                let b = to_i64(r);
                for i in 0..n {
                    if op.holds(a[i], b[i]) {
                        bm.set(i);
                    }
                }
            }
        }
    }
    Ok(bm)
}

fn name_of(c: &ColumnData) -> String {
    match c {
        ColumnData::I32(_) => "Int32".into(),
        ColumnData::I64(_) => "Int64".into(),
        ColumnData::F64(_) => "Float64".into(),
        ColumnData::Date(_) => "Date".into(),
        ColumnData::Char { .. } => "Char".into(),
    }
}

fn to_i64(c: &ColumnData) -> Vec<i64> {
    match c {
        ColumnData::I32(v) => v.iter().map(|&x| x as i64).collect(),
        ColumnData::I64(v) => v.clone(),
        _ => unreachable!("checked by caller"),
    }
}

fn to_f64(c: &ColumnData) -> Vec<f64> {
    match c {
        ColumnData::I32(v) => v.iter().map(|&x| x as f64).collect(),
        ColumnData::I64(v) => v.iter().map(|&x| x as f64).collect(),
        ColumnData::F64(v) => v.clone(),
        _ => unreachable!("checked by caller"),
    }
}

/// Keep the `sel` rows that `pass(position, row)` accepts, in order: one
/// store per row and no branch on the outcome (`sel[k] = i; k += pass`).
/// A leading run of passing rows is only read, so a conjunct every row
/// passes costs no stores. `pass` sees each row once, in order.
#[inline]
fn compact(sel: &mut Vec<usize>, mut pass: impl FnMut(usize, usize) -> bool) {
    let n = sel.len();
    let mut j = 0;
    while j < n && pass(j, sel[j]) {
        j += 1;
    }
    let mut k = j;
    for j in (j + 1).min(n)..n {
        let i = sel[j];
        sel[k] = i;
        k += usize::from(pass(j, i));
    }
    sel.truncate(k);
}

/// Keep the `sel` rows where `a op b`, with the operator matched once. The
/// sides read at the row index, or at the position in `sel` when `POS`.
#[inline]
fn keep_cmp<T: PartialOrd, const POS: bool>(
    op: CmpOp,
    sel: &mut Vec<usize>,
    a: impl Fn(usize) -> T,
    b: impl Fn(usize) -> T,
) {
    let at = |j: usize, i: usize| if POS { j } else { i };
    match op {
        CmpOp::Eq => compact(sel, |j, i| a(at(j, i)) == b(at(j, i))),
        CmpOp::Ne => compact(sel, |j, i| a(at(j, i)) != b(at(j, i))),
        CmpOp::Lt => compact(sel, |j, i| a(at(j, i)) < b(at(j, i))),
        CmpOp::Le => compact(sel, |j, i| a(at(j, i)) <= b(at(j, i))),
        CmpOp::Gt => compact(sel, |j, i| a(at(j, i)) > b(at(j, i))),
        CmpOp::Ge => compact(sel, |j, i| a(at(j, i)) >= b(at(j, i))),
    }
}

/// `acc ∪ hit` into `acc`, both ascending and without duplicates.
fn union_into(acc: &mut Vec<usize>, hit: &[usize], merged: &mut Vec<usize>) {
    if acc.is_empty() {
        acc.extend_from_slice(hit);
        return;
    }
    merged.clear();
    merged.reserve(acc.len() + hit.len());
    let (mut a, mut b) = (0, 0);
    while a < acc.len() && b < hit.len() {
        let (x, y) = (acc[a], hit[b]);
        merged.push(x.min(y));
        a += usize::from(x <= y);
        b += usize::from(y <= x);
    }
    merged.extend_from_slice(&acc[a..]);
    merged.extend_from_slice(&hit[b..]);
    std::mem::swap(acc, merged);
}

/// The domain a comparison compares in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Domain {
    /// `Int32` against `Int32`, or `Date` against `Date`.
    I32,
    /// Integers, one of them `Int64`.
    I64,
    /// Any side a float.
    F64,
}

/// The domain `l op r` compares in, or the error `eval` reports for the
/// pair: a string side, or a date against a number.
fn domain(l: Ty, r: Ty) -> Result<Domain> {
    match (l, r) {
        (Ty::Date, Ty::Date) | (Ty::Int32, Ty::Int32) => Ok(Domain::I32),
        (Ty::Char, _) | (_, Ty::Char) => Err(ExprError::InvalidType {
            context: "numeric comparison",
            found: "Char".into(),
        }),
        (Ty::Date, _) | (_, Ty::Date) => Err(ExprError::Incompatible {
            left: l.name().into(),
            right: r.name().into(),
            context: "comparison",
        }),
        (Ty::Float64, _) | (_, Ty::Float64) => Ok(Domain::F64),
        _ => Ok(Domain::I64),
    }
}

/// Bind `$get` to a closure reading column `$c` of `$block` as `$t` at a
/// row index — a column block's typed slice, or a row block's field at its
/// tuple stride — and evaluate `$body`.
macro_rules! with_col {
    ($block:expr, $c:expr, $t:ty, |$get:ident| $body:expr) => {
        match $block {
            StorageBlock::Column(b) => {
                let v: &[$t] = <$t as Fixed>::slice(b.column($c));
                let $get = |i: usize| v[i];
                $body
            }
            StorageBlock::Row(b) => {
                let f = Strided::of(b, $c);
                let $get = |i: usize| f.read::<$t>(i);
                $body
            }
        }
    };
}

/// [`with_col!`] for two columns of one type.
macro_rules! with_cols {
    ($block:expr, $a:expr, $b:expr, $t:ty, |$ga:ident, $gb:ident| $body:expr) => {
        match $block {
            StorageBlock::Column(blk) => {
                let x: &[$t] = <$t as Fixed>::slice(blk.column($a));
                let y: &[$t] = <$t as Fixed>::slice(blk.column($b));
                let ($ga, $gb) = (|i: usize| x[i], |i: usize| y[i]);
                $body
            }
            StorageBlock::Row(blk) => {
                let (fa, fb) = (Strided::of(blk, $a), Strided::of(blk, $b));
                let ($ga, $gb) = (|i: usize| fa.read::<$t>(i), |i: usize| fb.read::<$t>(i));
                $body
            }
        }
    };
}

/// Keep the `sel` rows where `left op right`. A column against a literal,
/// and two columns of one type, compare in place; every other shape
/// evaluates its sides over `sel` and compares by position. A side that
/// divides is evaluated over the whole block, as `eval` does, so a zero
/// divisor fails alike whichever rows reach the comparison.
fn filter_cmp(
    block: &StorageBlock,
    left: &ScalarExpr,
    op: CmpOp,
    right: &ScalarExpr,
    sel: &mut Vec<usize>,
) -> Result<()> {
    let schema = block.schema();
    match (left, right) {
        (ScalarExpr::Col(c), ScalarExpr::Literal(v)) => {
            let t = Ty::of_col(schema, *c)?;
            let d = domain(t, Ty::of_type(v.data_type()))?;
            keep_col_lit(block, *c, t, d, op, v, sel);
            return Ok(());
        }
        (ScalarExpr::Literal(v), ScalarExpr::Col(c)) => {
            let t = Ty::of_col(schema, *c)?;
            let d = domain(Ty::of_type(v.data_type()), t)?;
            keep_col_lit(block, *c, t, d, op.flipped(), v, sel);
            return Ok(());
        }
        (ScalarExpr::Col(a), ScalarExpr::Col(b)) => {
            let (ta, tb) = (Ty::of_col(schema, *a)?, Ty::of_col(schema, *b)?);
            domain(ta, tb)?;
            if ta == tb {
                let (a, b) = (*a, *b);
                match ta {
                    Ty::Int32 | Ty::Date => {
                        with_cols!(block, a, b, i32, |x, y| keep_cmp::<_, false>(op, sel, x, y))
                    }
                    Ty::Int64 => {
                        with_cols!(block, a, b, i64, |x, y| keep_cmp::<_, false>(op, sel, x, y))
                    }
                    Ty::Float64 => {
                        with_cols!(block, a, b, f64, |x, y| keep_cmp::<_, false>(op, sel, x, y))
                    }
                    Ty::Char => unreachable!("a string comparison fails its domain"),
                }
                return Ok(());
            }
        }
        _ => {}
    }
    let whole = left.divides() || right.divides();
    let rows = if whole { Rows::All } else { Rows::Sel(sel) };
    let l = left.vals(block, rows)?;
    let r = right.vals(block, rows)?;
    let d = domain(Ty::of_vals(&l), Ty::of_vals(&r))?;
    let (l, r) = if whole {
        (at_rows(l, sel), at_rows(r, sel))
    } else {
        (l, r)
    };
    match d {
        Domain::I32 => keep_lanes(op, sel, Lane::i32(&l), Lane::i32(&r)),
        Domain::I64 => keep_lanes(op, sel, Lane::i64(&l), Lane::i64(&r)),
        Domain::F64 => keep_lanes(op, sel, Lane::f64(&l), Lane::f64(&r)),
    }
    Ok(())
}

/// Keep the `sel` rows where column `c` (of type `t`) `op v`, comparing in
/// domain `d`: the literal is converted once, the column read in place.
fn keep_col_lit(
    block: &StorageBlock,
    c: usize,
    t: Ty,
    d: Domain,
    op: CmpOp,
    v: &Value,
    sel: &mut Vec<usize>,
) {
    match (d, t) {
        (Domain::I32, _) => {
            let y = match v {
                Value::I32(y) | Value::Date(y) => *y,
                _ => unreachable!("the I32 domain holds Int32 and Date only"),
            };
            with_col!(block, c, i32, |x| keep_cmp::<_, false>(op, sel, x, |_| y))
        }
        (Domain::I64, Ty::Int32) => {
            let y = lit_i64(v);
            with_col!(block, c, i32, |x| keep_cmp::<_, false>(
                op,
                sel,
                |i| i64::from(x(i)),
                |_| y
            ))
        }
        (Domain::I64, _) => {
            let y = lit_i64(v);
            with_col!(block, c, i64, |x| keep_cmp::<_, false>(op, sel, x, |_| y))
        }
        (Domain::F64, Ty::Int32) => {
            let y = lit_f64(v);
            with_col!(block, c, i32, |x| keep_cmp::<_, false>(
                op,
                sel,
                |i| f64::from(x(i)),
                |_| y
            ))
        }
        (Domain::F64, Ty::Int64) => {
            let y = lit_f64(v);
            with_col!(block, c, i64, |x| keep_cmp::<_, false>(
                op,
                sel,
                |i| x(i) as f64,
                |_| y
            ))
        }
        (Domain::F64, _) => {
            let y = lit_f64(v);
            with_col!(block, c, f64, |x| keep_cmp::<_, false>(op, sel, x, |_| y))
        }
    }
}

fn lit_i64(v: &Value) -> i64 {
    match v {
        Value::I32(y) => i64::from(*y),
        Value::I64(y) => *y,
        _ => unreachable!("the I64 domain holds integers only"),
    }
}

fn lit_f64(v: &Value) -> f64 {
    match v {
        Value::I32(y) => f64::from(*y),
        Value::I64(y) => *y as f64,
        Value::F64(y) => *y,
        _ => unreachable!("the F64 domain holds numbers only"),
    }
}

/// Values evaluated over every row of the block, narrowed to the rows in
/// `sel`, by position.
fn at_rows<'b>(v: Vals<'b>, sel: &[usize]) -> Vals<'b> {
    match v {
        Vals::Column(c) => Vals::Column(Cow::Owned(gather_from(&c, sel))),
        scalar => scalar,
    }
}

/// One side of a generic comparison in its domain: one value per position
/// in `sel`, or one value for all.
enum Lane<'v, T: Clone> {
    Slice(Cow<'v, [T]>),
    Splat(T),
}

impl<'v> Lane<'v, i32> {
    fn i32(v: &'v Vals<'_>) -> Self {
        match v {
            Vals::Column(c) => Lane::Slice(Cow::Borrowed(<i32 as Fixed>::slice(c))),
            Vals::Scalar(Value::I32(x) | Value::Date(x)) => Lane::Splat(*x),
            Vals::Scalar(_) => unreachable!("the I32 domain holds Int32 and Date only"),
        }
    }
}

impl<'v> Lane<'v, i64> {
    fn i64(v: &'v Vals<'_>) -> Self {
        match v {
            Vals::Column(c) => match c.as_ref() {
                ColumnData::I32(x) => Lane::Slice(x.iter().map(|&x| i64::from(x)).collect()),
                ColumnData::I64(x) => Lane::Slice(Cow::Borrowed(x)),
                _ => unreachable!("the I64 domain holds integers only"),
            },
            Vals::Scalar(x) => Lane::Splat(lit_i64(x)),
        }
    }
}

impl<'v> Lane<'v, f64> {
    fn f64(v: &'v Vals<'_>) -> Self {
        match v {
            Vals::Column(c) => match c.as_ref() {
                ColumnData::I32(x) => Lane::Slice(x.iter().map(|&x| f64::from(x)).collect()),
                ColumnData::I64(x) => Lane::Slice(x.iter().map(|&x| x as f64).collect()),
                ColumnData::F64(x) => Lane::Slice(Cow::Borrowed(x)),
                _ => unreachable!("the F64 domain holds numbers only"),
            },
            Vals::Scalar(x) => Lane::Splat(lit_f64(x)),
        }
    }
}

/// Keep the `sel` rows where `a op b`, both sides read by position.
fn keep_lanes<T: PartialOrd + Copy>(op: CmpOp, sel: &mut Vec<usize>, a: Lane<T>, b: Lane<T>) {
    match (&a, &b) {
        (Lane::Slice(x), Lane::Slice(y)) => keep_cmp::<_, true>(op, sel, |j| x[j], |j| y[j]),
        (Lane::Slice(x), Lane::Splat(y)) => keep_cmp::<_, true>(op, sel, |j| x[j], |_| *y),
        (Lane::Splat(x), Lane::Slice(y)) => keep_cmp::<_, true>(op, sel, |_| *x, |j| y[j]),
        (Lane::Splat(x), Lane::Splat(y)) => keep_cmp::<_, true>(op, sel, |_| *x, |_| *y),
    }
}

/// A `Char(width)` column read in place: the field of row `i` is
/// `bytes[i * stride + off..][..width]`, in either block format.
#[derive(Clone, Copy)]
struct Chars<'b> {
    bytes: &'b [u8],
    stride: usize,
    off: usize,
    width: usize,
}

impl<'b> Chars<'b> {
    /// Column `col` of `block`, or the error a string predicate on it
    /// reports.
    fn of(block: &'b StorageBlock, col: usize) -> Result<Self> {
        let width = char_width(block, col)?;
        Ok(match block {
            StorageBlock::Column(b) => Chars {
                bytes: b.column(col).as_char().1,
                stride: width,
                off: 0,
                width,
            },
            StorageBlock::Row(b) => {
                let f = Strided::of(b, col);
                Chars {
                    bytes: f.bytes,
                    stride: f.stride,
                    off: f.off,
                    width,
                }
            }
        })
    }

    /// The first `len` bytes of row `i`'s field.
    #[inline]
    fn head(self, i: usize, len: usize) -> &'b [u8] {
        &self.bytes[i * self.stride + self.off..][..len]
    }

    /// The values that fit the column width; a longer one matches no row.
    fn fitting<'v, S: AsRef<str> + 'v>(
        self,
        values: impl IntoIterator<Item = &'v S>,
    ) -> Vec<&'v [u8]> {
        values
            .into_iter()
            .map(|v| v.as_ref().as_bytes())
            .filter(|v| v.len() <= self.width)
            .collect()
    }
}

/// `p` space-padded to `len` bytes, as the storage encodes it.
fn pad(p: &[u8], len: usize) -> Vec<u8> {
    let mut out = p.to_vec();
    out.resize(len, b' ');
    out
}

/// Keep the `sel` rows whose field's first `len` bytes equal one of
/// `pats`, each padded with spaces to `len` bytes once. Lengths up to 16
/// compare as one monomorphized `[u8; len]`; longer ones compare an 8-byte
/// word first, then the tail. Several patterns are tested without a
/// branch per pattern.
fn keep_prefix(c: Chars, len: usize, pats: &[&[u8]], sel: &mut Vec<usize>) {
    macro_rules! by_len {
        ($($n:literal)*) => {
            match len {
                0 => {}
                $($n => keep_fixed::<$n>(c, pats, sel),)*
                _ => keep_wide(c, len, pats, sel),
            }
        };
    }
    if pats.is_empty() {
        sel.clear();
        return;
    }
    by_len!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
}

fn keep_fixed<const L: usize>(c: Chars, pats: &[&[u8]], sel: &mut Vec<usize>) {
    let field = |i: usize| -> [u8; L] { c.head(i, L).try_into().expect("L bytes") };
    let pad = |p: &[u8]| {
        let mut a = [b' '; L];
        a[..p.len()].copy_from_slice(p);
        a
    };
    match pats {
        [p] => {
            let p = pad(p);
            compact(sel, |_, i| field(i) == p)
        }
        ps => {
            let ps: Vec<[u8; L]> = ps.iter().map(|p| pad(p)).collect();
            compact(sel, |_, i| {
                let f = field(i);
                ps.iter().fold(false, |hit, p| hit | (f == *p))
            })
        }
    }
}

fn keep_wide(c: Chars, len: usize, pats: &[&[u8]], sel: &mut Vec<usize>) {
    let word = |b: &[u8]| u64::from_ne_bytes(b[..8].try_into().expect("8 bytes"));
    let pats: Vec<Vec<u8>> = pats.iter().map(|p| pad(p, len)).collect();
    let pats: Vec<(u64, &[u8])> = pats.iter().map(|p| (word(p), &p[8..])).collect();
    compact(sel, |_, i| {
        let f = c.head(i, len);
        let w = word(f);
        pats.iter()
            .fold(false, |hit, &(pw, tail)| hit | (pw == w && f[8..] == *tail))
    });
}

/// Keep the `sel` rows whose field contains `needle` (SQL `LIKE
/// '%needle%'`): scan for the needle's first byte, then compare the rest.
/// An empty needle matches every row.
fn keep_contains(c: Chars, needle: &[u8], sel: &mut Vec<usize>) {
    let Some((&first, rest)) = needle.split_first() else {
        return;
    };
    if needle.len() > c.width {
        sel.clear();
        return;
    }
    let starts = c.width - needle.len() + 1;
    compact(sel, |_, i| {
        let f = c.head(i, c.width);
        f[..starts]
            .iter()
            .enumerate()
            .any(|(p, &b)| b == first && f[p + 1..p + needle.len()] == *rest)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{col, lit};
    use uot_storage::{BlockFormat, Schema, Value};

    fn block(format: BlockFormat) -> StorageBlock {
        let s = Schema::from_pairs(&[
            ("qty", DataType::Int32),
            ("price", DataType::Float64),
            ("d", DataType::Date),
            ("flag", DataType::Char(2)),
            ("big", DataType::Int64),
        ]);
        let mut b = StorageBlock::new(s, format, 4096).unwrap();
        for i in 0..10 {
            b.append_row(&[
                Value::I32(i),
                Value::F64(i as f64 * 1.5),
                Value::Date(100 + i),
                Value::Str(if i % 2 == 0 { "A" } else { "BX" }.into()),
                Value::I64(1000 - i as i64),
            ])
            .unwrap();
        }
        b
    }

    /// The rows `p` selects, checked to agree between `eval` and `filter`.
    fn ones(p: &Predicate, b: &StorageBlock) -> Vec<usize> {
        let from_eval: Vec<usize> = p.eval(b).unwrap().iter_ones().collect();
        let mut sel: Vec<usize> = (0..b.num_rows()).collect();
        p.filter(b, &mut sel).unwrap();
        assert_eq!(sel, from_eval, "filter vs eval for {p:?}");
        from_eval
    }

    #[test]
    fn numeric_comparisons_both_formats() {
        for fmt in [BlockFormat::Row, BlockFormat::Column] {
            let b = block(fmt);
            assert_eq!(ones(&cmp(col(0), CmpOp::Lt, lit(3i32)), &b), vec![0, 1, 2]);
            assert_eq!(ones(&cmp(col(0), CmpOp::Ge, lit(8i32)), &b), vec![8, 9]);
            assert_eq!(ones(&cmp(col(0), CmpOp::Eq, lit(5i32)), &b), vec![5]);
            assert_eq!(ones(&cmp(col(0), CmpOp::Ne, lit(5i32)), &b).len(), 9);
            assert_eq!(
                ones(&cmp(col(4), CmpOp::Gt, lit(997i64)), &b),
                vec![0, 1, 2]
            );
            assert_eq!(ones(&cmp(col(1), CmpOp::Le, lit(3.0)), &b), vec![0, 1, 2]);
        }
    }

    #[test]
    fn literal_on_left_flips() {
        for fmt in [BlockFormat::Row, BlockFormat::Column] {
            let b = block(fmt);
            // 3 > qty  <=>  qty < 3
            assert_eq!(ones(&cmp(lit(3i32), CmpOp::Gt, col(0)), &b), vec![0, 1, 2]);
        }
    }

    #[test]
    fn date_range_half_open() {
        let b = block(BlockFormat::Column);
        let p = between_half_open(col(2), Value::Date(102), Value::Date(105));
        assert_eq!(ones(&p, &b), vec![2, 3, 4]);
    }

    #[test]
    fn and_or_not() {
        let b = block(BlockFormat::Column);
        let p = cmp(col(0), CmpOp::Ge, lit(2i32)).and(cmp(col(0), CmpOp::Lt, lit(5i32)));
        assert_eq!(ones(&p, &b), vec![2, 3, 4]);
        let p = cmp(col(0), CmpOp::Lt, lit(1i32)).or(cmp(col(0), CmpOp::Ge, lit(9i32)));
        assert_eq!(ones(&p, &b), vec![0, 9]);
        let p = cmp(col(0), CmpOp::Lt, lit(8i32)).negate();
        assert_eq!(ones(&p, &b), vec![8, 9]);
    }

    #[test]
    fn and_short_circuits_empty() {
        let b = block(BlockFormat::Column);
        let p = cmp(col(0), CmpOp::Lt, lit(0i32)).and(cmp(col(0), CmpOp::Ge, lit(0i32)));
        assert!(ones(&p, &b).is_empty());
    }

    #[test]
    fn filter_refines_a_subset() {
        for fmt in [BlockFormat::Row, BlockFormat::Column] {
            let b = block(fmt);
            let p = cmp(col(0), CmpOp::Ge, lit(2i32)).and(Predicate::StrEq {
                col: 3,
                value: "A".into(),
            });
            let mut sel = vec![1, 2, 3, 4, 7, 8];
            p.filter(&b, &mut sel).unwrap();
            assert_eq!(sel, vec![2, 4, 8], "{fmt:?}");
            // An emptied vector stops the conjunction before a failing arm.
            let p = cmp(col(0), CmpOp::Lt, lit(0i32)).and(Predicate::StrEq {
                col: 0,
                value: "x".into(),
            });
            let mut sel = vec![0, 5];
            p.filter(&b, &mut sel).unwrap();
            assert!(sel.is_empty());
        }
    }

    #[test]
    fn true_selects_all() {
        let b = block(BlockFormat::Row);
        assert_eq!(ones(&Predicate::True, &b).len(), 10);
        assert_eq!(Predicate::True.selectivity(&b).unwrap(), 1.0);
    }

    #[test]
    fn string_predicates_both_formats() {
        for fmt in [BlockFormat::Row, BlockFormat::Column] {
            let b = block(fmt);
            let eq = Predicate::StrEq {
                col: 3,
                value: "A".into(),
            };
            assert_eq!(ones(&eq, &b), vec![0, 2, 4, 6, 8]);
            let pre = Predicate::StrStartsWith {
                col: 3,
                prefix: "B".into(),
            };
            assert_eq!(ones(&pre, &b), vec![1, 3, 5, 7, 9]);
            let isin = Predicate::StrIn {
                col: 3,
                values: vec!["A".into(), "BX".into()],
            };
            assert_eq!(ones(&isin, &b).len(), 10);
        }
    }

    #[test]
    fn contains_matches_substrings() {
        let s = Schema::from_pairs(&[("name", DataType::Char(12))]);
        for fmt in [BlockFormat::Row, BlockFormat::Column] {
            let mut b = StorageBlock::new(s.clone(), fmt, 1024).unwrap();
            for v in ["dark green", "greenish", "red", "gre en"] {
                b.append_row(&[Value::Str(v.into())]).unwrap();
            }
            let p = Predicate::StrContains {
                col: 0,
                needle: "green".into(),
            };
            assert_eq!(ones(&p, &b), vec![0, 1]);
            // an empty needle (SQL `LIKE '%%'`) matches every row
            let p = Predicate::StrContains {
                col: 0,
                needle: String::new(),
            };
            assert_eq!(ones(&p, &b), vec![0, 1, 2, 3]);
            // longer than the column width
            let p = Predicate::StrContains {
                col: 0,
                needle: "x".repeat(20),
            };
            assert!(ones(&p, &b).is_empty());
        }
    }

    #[test]
    fn padded_equality_is_exact() {
        // "A" must not equal "AX"; "A " padding must equal "A".
        let b = block(BlockFormat::Column);
        let p = Predicate::StrEq {
            col: 3,
            value: "AX".into(),
        };
        assert!(ones(&p, &b).is_empty());
        let p = Predicate::StrEq {
            col: 3,
            value: "A ".into(),
        };
        // "A " pads to width 2 == stored "A " -> matches evens.
        assert_eq!(ones(&p, &b).len(), 5);
        // Longer than the column width can never match.
        let p = Predicate::StrEq {
            col: 3,
            value: "ABC".into(),
        };
        assert!(ones(&p, &b).is_empty());
    }

    #[test]
    fn expression_comparison() {
        let b = block(BlockFormat::Column);
        // qty * 2 >= 10  <=>  qty >= 5
        let p = cmp(col(0).mul(lit(2i32)), CmpOp::Ge, lit(10i64));
        assert_eq!(ones(&p, &b), vec![5, 6, 7, 8, 9]);
        // price > qty (mixed i32/f64 -> f64 compare)
        let p = cmp(col(1), CmpOp::Gt, col(0));
        assert_eq!(ones(&p, &b).len(), 9); // all but row 0 (0.0 > 0 false)
    }

    #[test]
    fn selectivity_fraction() {
        let b = block(BlockFormat::Column);
        let p = cmp(col(0), CmpOp::Lt, lit(3i32));
        assert!((p.selectivity(&b).unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn type_errors() {
        let b = block(BlockFormat::Column);
        // string column in numeric comparison
        let p = cmp(col(3), CmpOp::Eq, lit(1i32));
        assert!(p.eval(&b).is_err());
        // date vs integer literal mismatch (generic path)
        let p = cmp(col(2), CmpOp::Eq, lit(100i32));
        assert!(p.eval(&b).is_err());
        // string predicate on non-string column
        let p = Predicate::StrEq {
            col: 0,
            value: "x".into(),
        };
        assert!(p.eval(&b).is_err());
        // out of range column
        let p = Predicate::StrEq {
            col: 42,
            value: "x".into(),
        };
        assert!(matches!(
            p.eval(&b),
            Err(ExprError::ColumnOutOfRange { .. })
        ));
        // `filter` reports the same errors, for every shape above.
        for p in [
            cmp(col(3), CmpOp::Eq, lit(1i32)),
            cmp(col(2), CmpOp::Eq, lit(100i32)),
            Predicate::StrEq {
                col: 0,
                value: "x".into(),
            },
            p,
        ] {
            let mut sel: Vec<usize> = (0..b.num_rows()).collect();
            assert_eq!(p.filter(&b, &mut sel).unwrap_err(), p.eval(&b).unwrap_err());
        }
    }

    #[test]
    fn referenced_columns_walks_tree() {
        let p = cmp(col(0), CmpOp::Lt, lit(1i32))
            .and(Predicate::StrEq {
                col: 3,
                value: "A".into(),
            })
            .or(cmp(col(1), CmpOp::Gt, col(4)).negate());
        let mut cols = vec![];
        p.referenced_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols, vec![0, 1, 3, 4]);
    }

    #[test]
    fn and_builder_flattens() {
        let p = Predicate::True.and(cmp(col(0), CmpOp::Lt, lit(1i32)));
        assert!(matches!(p, Predicate::Cmp { .. }));
        let p = cmp(col(0), CmpOp::Lt, lit(1i32))
            .and(cmp(col(0), CmpOp::Gt, lit(0i32)))
            .and(cmp(col(1), CmpOp::Gt, lit(0.0)));
        if let Predicate::And(ps) = &p {
            assert_eq!(ps.len(), 3);
        } else {
            panic!("expected flattened And");
        }
    }
}
