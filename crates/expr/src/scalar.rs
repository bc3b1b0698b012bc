//! Scalar expressions over storage blocks.
//!
//! A [`ScalarExpr`] is evaluated against a block for some of its rows
//! ([`Rows`]), producing one typed vector. TPC-H's arithmetic — e.g.
//! `l_extendedprice * (1 - l_discount)` — is covered by column references,
//! literals and the four binary operators with the usual numeric promotion
//! (any float operand promotes the expression to `Float64`; integer-only
//! expressions stay `Int64`).
//!
//! Evaluation works over borrowed slices. An [`Evaluator`] keeps the values
//! ([`Vals`]) of every subtree it has evaluated over one block's rows: a
//! bare column over every row of a column block borrows the block's typed
//! slice, a column of a row block is gathered once, reading its field at
//! the tuple stride, a literal stays one scalar, and a `Bin` node matches
//! its operator once per vector and runs one typed loop over its operands
//! (arithmetic over literals folds to a scalar). Equal subtrees are
//! evaluated once. [`ScalarExpr::eval_all`] and [`ScalarExpr::eval_gather`]
//! are the owned forms, and [`ScalarExpr::eval_row`] is the per-row
//! reference they are tested against.

use crate::error::ExprError;
use crate::Result;
use std::borrow::Cow;
use uot_storage::{ColumnData, DataType, RowBlock, Schema, StorageBlock, Value};

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division on integer operands).
    Div,
}

impl BinOp {
    fn apply_i64(self, a: i64, b: i64) -> Result<i64> {
        Ok(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return Err(ExprError::InvalidType {
                        context: "integer division by zero",
                        found: "0".into(),
                    });
                }
                a.wrapping_div(b)
            }
        })
    }

    fn apply_f64(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Reference to input column `usize` (by position).
    Col(usize),
    /// A constant.
    Literal(Value),
    /// Binary arithmetic.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// `EXTRACT(YEAR FROM date_expr)` — produces an `Int32` year.
    Year(Box<ScalarExpr>),
    /// `CASE WHEN pred THEN a ELSE b END`. The predicate is evaluated over
    /// the whole block (vectorized) and the branches selected per row.
    Case {
        /// Branch condition.
        when: Box<crate::predicate::Predicate>,
        /// Value when the condition holds.
        then: Box<ScalarExpr>,
        /// Value otherwise.
        els: Box<ScalarExpr>,
    },
}

/// `col(i)` convenience constructor.
pub fn col(i: usize) -> ScalarExpr {
    ScalarExpr::Col(i)
}

/// `lit(v)` convenience constructor.
pub fn lit(v: impl Into<Value>) -> ScalarExpr {
    ScalarExpr::Literal(v.into())
}

#[allow(clippy::should_implement_trait)] // add/sub/mul/div are expression
                                         // builders returning `ScalarExpr`, not arithmetic on evaluated values
impl ScalarExpr {
    /// Build `self op other`.
    pub fn bin(self, op: BinOp, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Build `self + other`.
    pub fn add(self, other: ScalarExpr) -> ScalarExpr {
        self.bin(BinOp::Add, other)
    }

    /// Build `self - other`.
    pub fn sub(self, other: ScalarExpr) -> ScalarExpr {
        self.bin(BinOp::Sub, other)
    }

    /// Build `self * other`.
    pub fn mul(self, other: ScalarExpr) -> ScalarExpr {
        self.bin(BinOp::Mul, other)
    }

    /// Build `self / other`.
    pub fn div(self, other: ScalarExpr) -> ScalarExpr {
        self.bin(BinOp::Div, other)
    }

    /// Build `EXTRACT(YEAR FROM self)`.
    pub fn year(self) -> ScalarExpr {
        ScalarExpr::Year(Box::new(self))
    }

    /// Build `CASE WHEN when THEN self ELSE els END`.
    pub fn case_when(
        when: crate::predicate::Predicate,
        then: ScalarExpr,
        els: ScalarExpr,
    ) -> ScalarExpr {
        ScalarExpr::Case {
            when: Box::new(when),
            then: Box::new(then),
            els: Box::new(els),
        }
    }

    /// The type this expression produces over `schema`.
    pub fn output_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            ScalarExpr::Col(i) => {
                if *i >= schema.len() {
                    return Err(ExprError::ColumnOutOfRange {
                        index: *i,
                        len: schema.len(),
                    });
                }
                Ok(schema.dtype(*i))
            }
            ScalarExpr::Literal(v) => Ok(v.data_type()),
            ScalarExpr::Bin { op: _, left, right } => {
                let l = left.output_type(schema)?;
                let r = right.output_type(schema)?;
                let numeric = |t: DataType| {
                    matches!(t, DataType::Int32 | DataType::Int64 | DataType::Float64)
                };
                if !numeric(l) || !numeric(r) {
                    return Err(ExprError::Incompatible {
                        left: l.name(),
                        right: r.name(),
                        context: "arithmetic",
                    });
                }
                if l == DataType::Float64 || r == DataType::Float64 {
                    Ok(DataType::Float64)
                } else {
                    Ok(DataType::Int64)
                }
            }
            ScalarExpr::Year(e) => {
                let t = e.output_type(schema)?;
                if t != DataType::Date {
                    return Err(ExprError::InvalidType {
                        context: "YEAR",
                        found: t.name(),
                    });
                }
                Ok(DataType::Int32)
            }
            ScalarExpr::Case { then, els, .. } => {
                let t = then.output_type(schema)?;
                let e = els.output_type(schema)?;
                if t == e {
                    return Ok(t);
                }
                let numeric = |t: DataType| {
                    matches!(t, DataType::Int32 | DataType::Int64 | DataType::Float64)
                };
                if numeric(t) && numeric(e) {
                    if t == DataType::Float64 || e == DataType::Float64 {
                        Ok(DataType::Float64)
                    } else {
                        Ok(DataType::Int64)
                    }
                } else {
                    Err(ExprError::Incompatible {
                        left: t.name(),
                        right: e.name(),
                        context: "CASE branches",
                    })
                }
            }
        }
    }

    /// All column indices this expression reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            ScalarExpr::Col(i) => out.push(*i),
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Bin { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            ScalarExpr::Year(e) => e.referenced_columns(out),
            ScalarExpr::Case { when, then, els } => {
                when.referenced_columns(out);
                then.referenced_columns(out);
                els.referenced_columns(out);
            }
        }
    }

    /// True when this expression is a bare column reference.
    pub fn as_col(&self) -> Option<usize> {
        match self {
            ScalarExpr::Col(i) => Some(*i),
            _ => None,
        }
    }

    /// Evaluate the expression for one row (slow path: sorting, tests).
    pub fn eval_row(&self, block: &StorageBlock, row: usize) -> Result<Value> {
        match self {
            ScalarExpr::Col(i) => Ok(block.value_at(row, *i)?),
            ScalarExpr::Literal(v) => Ok(v.clone()),
            ScalarExpr::Bin { op, left, right } => {
                let l = left.eval_row(block, row)?;
                let r = right.eval_row(block, row)?;
                match (&l, &r) {
                    (Value::F64(_), _) | (_, Value::F64(_)) => {
                        let (a, b) = (
                            l.to_f64_lossy().ok_or(ExprError::InvalidType {
                                context: "arithmetic",
                                found: format!("{l:?}"),
                            })?,
                            r.to_f64_lossy().ok_or(ExprError::InvalidType {
                                context: "arithmetic",
                                found: format!("{r:?}"),
                            })?,
                        );
                        Ok(Value::F64(op.apply_f64(a, b)))
                    }
                    _ => {
                        let a = match l {
                            Value::I32(v) => v as i64,
                            Value::I64(v) => v,
                            other => {
                                return Err(ExprError::InvalidType {
                                    context: "arithmetic",
                                    found: format!("{other:?}"),
                                })
                            }
                        };
                        let b = match r {
                            Value::I32(v) => v as i64,
                            Value::I64(v) => v,
                            other => {
                                return Err(ExprError::InvalidType {
                                    context: "arithmetic",
                                    found: format!("{other:?}"),
                                })
                            }
                        };
                        Ok(Value::I64(op.apply_i64(a, b)?))
                    }
                }
            }
            ScalarExpr::Year(e) => {
                let v = e.eval_row(block, row)?;
                match v {
                    Value::Date(d) => Ok(Value::I32(uot_storage::date_to_ymd(d).0)),
                    other => Err(ExprError::InvalidType {
                        context: "YEAR",
                        found: format!("{other:?}"),
                    }),
                }
            }
            ScalarExpr::Case { when, then, els } => {
                // Row path evaluates the predicate for the whole block; used
                // only on slow paths.
                let bm = when.eval(block)?;
                if bm.get(row) {
                    then.eval_row(block, row)
                } else {
                    els.eval_row(block, row)
                }
            }
        }
    }

    /// Evaluate the expression for the given `rows` of `block`, producing a
    /// [`ColumnData`] of `rows.len()` values.
    pub fn eval_gather(&self, block: &StorageBlock, rows: &[usize]) -> Result<ColumnData> {
        self.eval_owned(block, Rows::Sel(rows))
    }

    /// Evaluate over **all** rows of the block.
    pub fn eval_all(&self, block: &StorageBlock) -> Result<ColumnData> {
        self.eval_owned(block, Rows::All)
    }

    /// The values of this expression over `rows` of `block`, borrowed from
    /// the block where they can be.
    pub fn vals<'b>(&'b self, block: &'b StorageBlock, rows: Rows<'_>) -> Result<Vals<'b>> {
        let mut ev = Evaluator::new(block, rows);
        let slot = ev.eval(self)?;
        Ok(ev.into_vals(slot))
    }

    fn eval_owned(&self, block: &StorageBlock, rows: Rows<'_>) -> Result<ColumnData> {
        let mut ev = Evaluator::new(block, rows);
        let slot = ev.eval(self)?;
        let n = ev.num_rows();
        Ok(ev.into_vals(slot).into_column(n))
    }

    /// True when a division sits anywhere in the expression, so that its
    /// evaluation can fail on the values it reads, not only on their types.
    pub(crate) fn divides(&self) -> bool {
        match self {
            ScalarExpr::Col(_) | ScalarExpr::Literal(_) => false,
            ScalarExpr::Bin { op, left, right } => {
                *op == BinOp::Div || left.divides() || right.divides()
            }
            ScalarExpr::Year(e) => e.divides(),
            ScalarExpr::Case { then, els, .. } => then.divides() || els.divides(),
        }
    }
}

/// The rows of a block an evaluation covers.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'s> {
    /// Every row, in order.
    All,
    /// The listed rows, in the listed order.
    Sel(&'s [usize]),
}

/// An expression's values over the rows of one evaluation.
#[derive(Debug, Clone)]
pub enum Vals<'b> {
    /// One value per row: borrowed from a column block for a bare column
    /// over all its rows, computed otherwise.
    Column(Cow<'b, ColumnData>),
    /// One value for every row: a literal, or arithmetic over literals.
    Scalar(Value),
}

impl Vals<'_> {
    /// The values as one column of `n` rows (a scalar is broadcast).
    pub fn column(&self, n: usize) -> Cow<'_, ColumnData> {
        match self {
            Vals::Column(c) => Cow::Borrowed(c),
            Vals::Scalar(v) => Cow::Owned(broadcast(v, n)),
        }
    }

    /// The values as an owned column of `n` rows.
    pub fn into_column(self, n: usize) -> ColumnData {
        match self {
            Vals::Column(c) => c.into_owned(),
            Vals::Scalar(v) => broadcast(&v, n),
        }
    }

    /// The name type errors report for these values.
    pub(crate) fn type_name(&self) -> &'static str {
        Ty::of_vals(self).name()
    }
}

/// A value's type class, as type errors name it (`Char` without a width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ty {
    Int32,
    Int64,
    Float64,
    Date,
    Char,
}

impl Ty {
    pub(crate) fn of_type(t: DataType) -> Ty {
        match t {
            DataType::Int32 => Ty::Int32,
            DataType::Int64 => Ty::Int64,
            DataType::Float64 => Ty::Float64,
            DataType::Date => Ty::Date,
            DataType::Char(_) => Ty::Char,
        }
    }

    pub(crate) fn of_vals(v: &Vals<'_>) -> Ty {
        match v {
            Vals::Column(c) => match c.as_ref() {
                ColumnData::I32(_) => Ty::Int32,
                ColumnData::I64(_) => Ty::Int64,
                ColumnData::F64(_) => Ty::Float64,
                ColumnData::Date(_) => Ty::Date,
                ColumnData::Char { .. } => Ty::Char,
            },
            Vals::Scalar(v) => Ty::of_type(v.data_type()),
        }
    }

    /// The type of column `c` of `schema`, or the error for a column that
    /// is not there.
    pub(crate) fn of_col(schema: &Schema, c: usize) -> Result<Ty> {
        if c >= schema.len() {
            return Err(ExprError::ColumnOutOfRange {
                index: c,
                len: schema.len(),
            });
        }
        Ok(Ty::of_type(schema.dtype(c)))
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            Ty::Int32 => "Int32",
            Ty::Int64 => "Int64",
            Ty::Float64 => "Float64",
            Ty::Date => "Date",
            Ty::Char => "Char",
        }
    }
}

/// Evaluates expressions over the same rows of one block, each distinct
/// subtree once: a later expression that contains an evaluated one (Q1's
/// `price * (1 - disc) * (1 + tax)` after `price * (1 - disc)`) reuses its
/// vector, and a column of a row block is gathered once however often it
/// is read.
pub struct Evaluator<'b, 's> {
    block: &'b StorageBlock,
    rows: Rows<'s>,
    n: usize,
    done: Vec<(&'b ScalarExpr, Vals<'b>)>,
}

impl<'b, 's> Evaluator<'b, 's> {
    /// An evaluator over `rows` of `block`, with nothing evaluated yet.
    pub fn new(block: &'b StorageBlock, rows: Rows<'s>) -> Self {
        let n = match rows {
            Rows::All => block.num_rows(),
            Rows::Sel(r) => r.len(),
        };
        Evaluator {
            block,
            rows,
            n,
            done: Vec::new(),
        }
    }

    /// The number of values each evaluated column holds.
    pub fn num_rows(&self) -> usize {
        self.n
    }

    /// Evaluate `e`, or find an equal subtree evaluated before, and return
    /// the slot that holds its values. Errors are [`ScalarExpr::eval_all`]'s:
    /// a side of a `Bin` is type checked before the next side is evaluated.
    pub fn eval(&mut self, e: &'b ScalarExpr) -> Result<usize> {
        if let Some(slot) = self.done.iter().position(|(x, _)| same(x, e)) {
            return Ok(slot);
        }
        let vals = match e {
            ScalarExpr::Col(i) => Vals::Column(self.column(*i)?),
            ScalarExpr::Literal(v) => Vals::Scalar(v.clone()),
            ScalarExpr::Bin { op, left, right } => {
                let l = self.eval(left)?;
                operand(self.get(l))?;
                let r = self.eval(right)?;
                arith(*op, operand(self.get(l))?, operand(self.get(r))?, self.n)?
            }
            ScalarExpr::Year(x) => {
                let s = self.eval(x)?;
                year(self.get(s))?
            }
            ScalarExpr::Case { when, then, els } => {
                let bm = when.eval(self.block)?;
                let mask: Vec<bool> = match self.rows {
                    Rows::All => (0..self.n).map(|r| bm.get(r)).collect(),
                    Rows::Sel(rows) => rows.iter().map(|&r| bm.get(r)).collect(),
                };
                let t = self.eval(then)?;
                let f = self.eval(els)?;
                let (t, f) = (self.get(t).column(self.n), self.get(f).column(self.n));
                Vals::Column(Cow::Owned(merge_case(
                    &mask,
                    t.into_owned(),
                    f.into_owned(),
                )?))
            }
        };
        self.done.push((e, vals));
        Ok(self.done.len() - 1)
    }

    /// The values in `slot`.
    pub fn get(&self, slot: usize) -> &Vals<'b> {
        &self.done[slot].1
    }

    /// Give up the evaluator for the values in `slot`.
    pub fn into_vals(mut self, slot: usize) -> Vals<'b> {
        self.done.swap_remove(slot).1
    }

    /// Column `i` over the evaluation's rows: the block's own slice when
    /// that is every row of a column block, one typed gather otherwise.
    fn column(&self, i: usize) -> Result<Cow<'b, ColumnData>> {
        Ty::of_col(self.block.schema(), i)?;
        Ok(match (self.rows, self.block) {
            (Rows::All, StorageBlock::Column(b)) => Cow::Borrowed(b.column(i)),
            (Rows::All, _) => Cow::Owned(gather_at(self.block, i, 0..self.n)),
            (Rows::Sel(rows), _) => Cow::Owned(gather_at(self.block, i, rows.iter().copied())),
        })
    }
}

/// Equality of two subtrees that makes them evaluate to the same bits
/// (float literals compare by bits, so `0.0` and `-0.0` stay apart).
fn same(a: &ScalarExpr, b: &ScalarExpr) -> bool {
    use ScalarExpr::*;
    match (a, b) {
        (Col(x), Col(y)) => x == y,
        (Literal(Value::F64(x)), Literal(Value::F64(y))) => x.to_bits() == y.to_bits(),
        (Literal(x), Literal(y)) => x == y,
        (
            Bin {
                op: o,
                left: l,
                right: r,
            },
            Bin {
                op: p,
                left: m,
                right: s,
            },
        ) => o == p && same(l, m) && same(r, s),
        (Year(x), Year(y)) => same(x, y),
        (
            Case {
                when: w,
                then: t,
                els: e,
            },
            Case {
                when: v,
                then: u,
                els: f,
            },
        ) => w == v && same(t, u) && same(e, f),
        _ => false,
    }
}

/// One numeric operand of a `Bin`: a vector, or one value for every row.
#[derive(Clone, Copy)]
enum Operand<'v> {
    I32(&'v [i32]),
    I64(&'v [i64]),
    F64(&'v [f64]),
    Int(i64),
    Float(f64),
}

impl Operand<'_> {
    fn is_float(self) -> bool {
        matches!(self, Operand::F64(_) | Operand::Float(_))
    }
}

/// `v` as an arithmetic operand, or the error a date or string reports.
fn operand<'v>(v: &'v Vals<'_>) -> Result<Operand<'v>> {
    let num = match v {
        Vals::Column(c) => match c.as_ref() {
            ColumnData::I32(x) => Some(Operand::I32(x)),
            ColumnData::I64(x) => Some(Operand::I64(x)),
            ColumnData::F64(x) => Some(Operand::F64(x)),
            ColumnData::Date(_) | ColumnData::Char { .. } => None,
        },
        Vals::Scalar(Value::I32(x)) => Some(Operand::Int(i64::from(*x))),
        Vals::Scalar(Value::I64(x)) => Some(Operand::Int(*x)),
        Vals::Scalar(Value::F64(x)) => Some(Operand::Float(*x)),
        Vals::Scalar(_) => None,
    };
    num.ok_or_else(|| ExprError::InvalidType {
        context: "arithmetic",
        found: v.type_name().into(),
    })
}

/// Bind `$it` to operand `$o` as an iterator of `f64` over `$n` rows and
/// evaluate `$body`, once per operand shape.
macro_rules! float_lane {
    ($o:expr, $n:expr, $it:ident => $body:expr) => {
        match $o {
            Operand::I32(v) => {
                let $it = v.iter().map(|&x| f64::from(x));
                $body
            }
            Operand::I64(v) => {
                let $it = v.iter().map(|&x| x as f64);
                $body
            }
            Operand::F64(v) => {
                let $it = v.iter().copied();
                $body
            }
            Operand::Int(c) => {
                let $it = std::iter::repeat_n(c as f64, $n);
                $body
            }
            Operand::Float(c) => {
                let $it = std::iter::repeat_n(c, $n);
                $body
            }
        }
    };
}

/// [`float_lane`] for the integer domain: every operand is an integer.
macro_rules! int_lane {
    ($o:expr, $n:expr, $it:ident => $body:expr) => {
        match $o {
            Operand::I32(v) => {
                let $it = v.iter().map(|&x| i64::from(x));
                $body
            }
            Operand::I64(v) => {
                let $it = v.iter().copied();
                $body
            }
            Operand::Int(c) => {
                let $it = std::iter::repeat_n(c, $n);
                $body
            }
            Operand::F64(_) | Operand::Float(_) => {
                unreachable!("a float operand makes the domain f64")
            }
        }
    };
}

/// `l op r` over `n` rows: `Float64` when either side is a float, `Int64`
/// otherwise, one scalar when both sides are. The operator is matched once
/// per vector.
fn arith(op: BinOp, l: Operand, r: Operand, n: usize) -> Result<Vals<'static>> {
    let float = l.is_float() || r.is_float();
    Ok(match (l, r) {
        (Operand::Int(a), Operand::Int(b)) => {
            // Over no rows nothing is divided, so nothing fails.
            Vals::Scalar(Value::I64(if n == 0 { 0 } else { op.apply_i64(a, b)? }))
        }
        (Operand::Int(_) | Operand::Float(_), Operand::Int(_) | Operand::Float(_)) => {
            let f = |o| match o {
                Operand::Int(x) => x as f64,
                Operand::Float(x) => x,
                _ => unreachable!("matched as scalars"),
            };
            Vals::Scalar(Value::F64(op.apply_f64(f(l), f(r))))
        }
        _ if float => Vals::Column(Cow::Owned(ColumnData::F64(float_lane!(l, n, a => {
            float_lane!(r, n, b => float_loop(op, a, b))
        })))),
        _ => {
            let zero = match r {
                Operand::I32(v) => v.contains(&0),
                Operand::I64(v) => v.contains(&0),
                Operand::Int(c) => c == 0 && n > 0,
                Operand::F64(_) | Operand::Float(_) => false,
            };
            if op == BinOp::Div && zero {
                op.apply_i64(0, 0)?;
            }
            Vals::Column(Cow::Owned(ColumnData::I64(int_lane!(l, n, a => {
                int_lane!(r, n, b => int_loop(op, a, b))
            }))))
        }
    })
}

fn float_loop(op: BinOp, a: impl Iterator<Item = f64>, b: impl Iterator<Item = f64>) -> Vec<f64> {
    let ab = a.zip(b);
    match op {
        BinOp::Add => ab.map(|(x, y)| x + y).collect(),
        BinOp::Sub => ab.map(|(x, y)| x - y).collect(),
        BinOp::Mul => ab.map(|(x, y)| x * y).collect(),
        BinOp::Div => ab.map(|(x, y)| x / y).collect(),
    }
}

/// Wrapping integer arithmetic; the caller has ruled out a zero divisor.
fn int_loop(op: BinOp, a: impl Iterator<Item = i64>, b: impl Iterator<Item = i64>) -> Vec<i64> {
    let ab = a.zip(b);
    match op {
        BinOp::Add => ab.map(|(x, y)| x.wrapping_add(y)).collect(),
        BinOp::Sub => ab.map(|(x, y)| x.wrapping_sub(y)).collect(),
        BinOp::Mul => ab.map(|(x, y)| x.wrapping_mul(y)).collect(),
        BinOp::Div => ab.map(|(x, y)| x.wrapping_div(y)).collect(),
    }
}

/// The calendar years of dates `v`.
fn year(v: &Vals<'_>) -> Result<Vals<'static>> {
    let y = |d: i32| uot_storage::date_to_ymd(d).0;
    match v {
        Vals::Column(c) => {
            if let ColumnData::Date(d) = c.as_ref() {
                return Ok(Vals::Column(Cow::Owned(ColumnData::I32(
                    d.iter().map(|&x| y(x)).collect(),
                ))));
            }
        }
        Vals::Scalar(Value::Date(d)) => return Ok(Vals::Scalar(Value::I32(y(*d)))),
        Vals::Scalar(_) => {}
    }
    Err(ExprError::InvalidType {
        context: "YEAR",
        found: v.type_name().into(),
    })
}

/// Per-row branch selection for CASE: `mask[i] ? then[i] : else[i]`.
fn merge_case(mask: &[bool], t: ColumnData, e: ColumnData) -> Result<ColumnData> {
    fn pick<T: Copy>(mask: &[bool], t: &[T], e: &[T]) -> Vec<T> {
        mask.iter()
            .enumerate()
            .map(|(i, &m)| if m { t[i] } else { e[i] })
            .collect()
    }
    Ok(match (t, e) {
        (ColumnData::I32(a), ColumnData::I32(b)) => ColumnData::I32(pick(mask, &a, &b)),
        (ColumnData::I64(a), ColumnData::I64(b)) => ColumnData::I64(pick(mask, &a, &b)),
        (ColumnData::F64(a), ColumnData::F64(b)) => ColumnData::F64(pick(mask, &a, &b)),
        (ColumnData::Date(a), ColumnData::Date(b)) => ColumnData::Date(pick(mask, &a, &b)),
        (
            ColumnData::Char {
                width: wa,
                data: da,
            },
            ColumnData::Char {
                width: wb,
                data: db,
            },
        ) if wa == wb => {
            let mut out = Vec::with_capacity(da.len());
            for (i, &m) in mask.iter().enumerate() {
                let src = if m { &da } else { &db };
                out.extend_from_slice(&src[i * wa..(i + 1) * wa]);
            }
            ColumnData::Char {
                width: wa,
                data: out,
            }
        }
        // Mixed numeric: promote both sides to f64 or i64.
        (t, e) => {
            let num = |c: &ColumnData| {
                matches!(
                    c,
                    ColumnData::I32(_) | ColumnData::I64(_) | ColumnData::F64(_)
                )
            };
            if !num(&t) || !num(&e) {
                return Err(ExprError::Incompatible {
                    left: format!("{t:?}").chars().take(12).collect(),
                    right: format!("{e:?}").chars().take(12).collect(),
                    context: "CASE branches",
                });
            }
            let f = matches!(t, ColumnData::F64(_)) || matches!(e, ColumnData::F64(_));
            if f {
                let (a, b) = (to_f64_vec(t), to_f64_vec(e));
                ColumnData::F64(pick(mask, &a, &b))
            } else {
                let (a, b) = (to_i64_vec(t), to_i64_vec(e));
                ColumnData::I64(pick(mask, &a, &b))
            }
        }
    })
}

fn to_f64_vec(c: ColumnData) -> Vec<f64> {
    match c {
        ColumnData::I32(v) => v.into_iter().map(|x| x as f64).collect(),
        ColumnData::I64(v) => v.into_iter().map(|x| x as f64).collect(),
        ColumnData::F64(v) => v,
        _ => unreachable!("checked by caller"),
    }
}

fn to_i64_vec(c: ColumnData) -> Vec<i64> {
    match c {
        ColumnData::I32(v) => v.into_iter().map(i64::from).collect(),
        ColumnData::I64(v) => v,
        _ => unreachable!("checked by caller"),
    }
}

fn broadcast(v: &Value, n: usize) -> ColumnData {
    match v {
        Value::I32(x) => ColumnData::I32(vec![*x; n]),
        Value::I64(x) => ColumnData::I64(vec![*x; n]),
        Value::F64(x) => ColumnData::F64(vec![*x; n]),
        Value::Date(x) => ColumnData::Date(vec![*x; n]),
        Value::Str(s) => ColumnData::Char {
            width: s.len(),
            data: s.as_bytes().repeat(n),
        },
    }
}

/// A fixed-width numeric field type, read from a column block's typed
/// slice or from a row block's little-endian field bytes.
pub(crate) trait Fixed: Copy {
    /// Bytes per value.
    const WIDTH: usize;
    /// Decode one value from exactly [`Self::WIDTH`] bytes.
    fn read(bytes: &[u8]) -> Self;
    /// The typed slice of a column of this type.
    fn slice(c: &ColumnData) -> &[Self];
}

impl Fixed for i32 {
    const WIDTH: usize = 4;
    #[inline]
    fn read(bytes: &[u8]) -> Self {
        i32::from_le_bytes(bytes.try_into().expect("4 bytes"))
    }
    #[inline]
    fn slice(c: &ColumnData) -> &[Self] {
        match c {
            ColumnData::I32(v) | ColumnData::Date(v) => v,
            _ => unreachable!("not an Int32 or Date column"),
        }
    }
}

impl Fixed for i64 {
    const WIDTH: usize = 8;
    #[inline]
    fn read(bytes: &[u8]) -> Self {
        i64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }
    #[inline]
    fn slice(c: &ColumnData) -> &[Self] {
        c.as_i64()
    }
}

impl Fixed for f64 {
    const WIDTH: usize = 8;
    #[inline]
    fn read(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }
    #[inline]
    fn slice(c: &ColumnData) -> &[Self] {
        c.as_f64()
    }
}

/// One field of a row block read in place: field `col` of tuple `i` is at
/// `i * stride + off` of the block's tuple bytes.
#[derive(Clone, Copy)]
pub(crate) struct Strided<'b> {
    pub(crate) bytes: &'b [u8],
    pub(crate) stride: usize,
    pub(crate) off: usize,
}

impl<'b> Strided<'b> {
    /// Field `col` of `block`.
    pub(crate) fn of(block: &'b RowBlock, col: usize) -> Self {
        let schema = block.schema();
        Strided {
            bytes: block.tuples(0, block.num_rows()),
            stride: schema.tuple_width(),
            off: schema.offset(col),
        }
    }

    /// The `width` bytes of the field in tuple `row`.
    #[inline]
    pub(crate) fn at(self, row: usize, width: usize) -> &'b [u8] {
        &self.bytes[row * self.stride + self.off..][..width]
    }

    /// The field in tuple `row`, decoded.
    #[inline]
    pub(crate) fn read<T: Fixed>(self, row: usize) -> T {
        T::read(self.at(row, T::WIDTH))
    }
}

/// Column `i` of `block` at `rows`, typed: a column block's slice indexed,
/// a row block's field read at its stride. The caller checks `i`.
fn gather_at(
    block: &StorageBlock,
    i: usize,
    rows: impl ExactSizeIterator<Item = usize>,
) -> ColumnData {
    match block {
        StorageBlock::Column(b) => gather_from_iter(b.column(i), rows),
        StorageBlock::Row(b) => {
            let f = Strided::of(b, i);
            match b.schema().dtype(i) {
                DataType::Int32 => ColumnData::I32(rows.map(|r| f.read(r)).collect()),
                DataType::Int64 => ColumnData::I64(rows.map(|r| f.read(r)).collect()),
                DataType::Float64 => ColumnData::F64(rows.map(|r| f.read(r)).collect()),
                DataType::Date => ColumnData::Date(rows.map(|r| f.read(r)).collect()),
                DataType::Char(n) => {
                    let width = n as usize;
                    let mut data = Vec::with_capacity(width * rows.len());
                    for r in rows {
                        data.extend_from_slice(f.at(r, width));
                    }
                    ColumnData::Char { width, data }
                }
            }
        }
    }
}

fn gather_from_iter(data: &ColumnData, rows: impl ExactSizeIterator<Item = usize>) -> ColumnData {
    match data {
        ColumnData::I32(v) => ColumnData::I32(rows.map(|r| v[r]).collect()),
        ColumnData::I64(v) => ColumnData::I64(rows.map(|r| v[r]).collect()),
        ColumnData::F64(v) => ColumnData::F64(rows.map(|r| v[r]).collect()),
        ColumnData::Date(v) => ColumnData::Date(rows.map(|r| v[r]).collect()),
        ColumnData::Char { width, data } => {
            let mut out = Vec::with_capacity(width * rows.len());
            for r in rows {
                out.extend_from_slice(&data[r * width..(r + 1) * width]);
            }
            ColumnData::Char {
                width: *width,
                data: out,
            }
        }
    }
}

/// Gather column `i` of `block` at `rows` into a fresh [`ColumnData`].
pub fn gather_column(block: &StorageBlock, i: usize, rows: &[usize]) -> Result<ColumnData> {
    if i >= block.schema().len() {
        return Err(ExprError::ColumnOutOfRange {
            index: i,
            len: block.schema().len(),
        });
    }
    Ok(gather_at(block, i, rows.iter().copied()))
}

/// Gather the given `rows` out of an already-materialized column vector.
pub fn gather_from(data: &ColumnData, rows: &[usize]) -> ColumnData {
    gather_from_iter(data, rows.iter().copied())
}

/// Gather all rows of column `i` (clones the column for column blocks).
pub fn gather_all(block: &StorageBlock, i: usize) -> Result<ColumnData> {
    Ok(col(i).vals(block, Rows::All)?.into_column(block.num_rows()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uot_storage::{BlockFormat, Schema};

    fn block(format: BlockFormat) -> StorageBlock {
        let s = Schema::from_pairs(&[
            ("price", DataType::Float64),
            ("disc", DataType::Float64),
            ("qty", DataType::Int32),
            ("d", DataType::Date),
            ("tag", DataType::Char(3)),
        ]);
        let mut b = StorageBlock::new(s, format, 4096).unwrap();
        for i in 0..6 {
            b.append_row(&[
                Value::F64(100.0 + i as f64),
                Value::F64(0.1 * i as f64),
                Value::I32(i),
                Value::Date(500 + i),
                Value::Str(format!("t{i}")),
            ])
            .unwrap();
        }
        b
    }

    #[test]
    fn tpch_revenue_expression() {
        // l_extendedprice * (1 - l_discount)
        let e = col(0).mul(lit(1.0).sub(col(1)));
        for fmt in [BlockFormat::Row, BlockFormat::Column] {
            let b = block(fmt);
            let out = e.eval_all(&b).unwrap();
            let v = out.as_f64();
            assert_eq!(v.len(), 6);
            assert!((v[0] - 100.0).abs() < 1e-9);
            assert!((v[2] - 102.0 * 0.8).abs() < 1e-9);
        }
    }

    #[test]
    fn gather_respects_row_selection() {
        let b = block(BlockFormat::Column);
        let e = col(2);
        let out = e.eval_gather(&b, &[1, 3, 5]).unwrap();
        assert_eq!(out.as_i32(), &[1, 3, 5]);
        // char gather
        let t = col(4).eval_gather(&b, &[0, 5]).unwrap();
        let (w, data) = t.as_char();
        assert_eq!(w, 3);
        assert_eq!(data, b"t0 t5 ");
    }

    #[test]
    fn row_and_column_eval_agree() {
        let e = col(0).add(col(2).mul(lit(2.0)));
        let r = e.eval_all(&block(BlockFormat::Row)).unwrap();
        let c = e.eval_all(&block(BlockFormat::Column)).unwrap();
        assert_eq!(r.as_f64(), c.as_f64());
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        let e = col(2).mul(lit(3i32)).add(lit(1i64));
        let b = block(BlockFormat::Column);
        let out = e.eval_all(&b).unwrap();
        assert_eq!(out.as_i64(), &[1, 4, 7, 10, 13, 16]);
        assert_eq!(e.output_type(b.schema()).unwrap(), DataType::Int64);
    }

    #[test]
    fn mixed_arithmetic_promotes_to_float() {
        let b = block(BlockFormat::Column);
        let e = col(2).add(col(0));
        assert_eq!(e.output_type(b.schema()).unwrap(), DataType::Float64);
        let out = e.eval_all(&b).unwrap();
        assert!((out.as_f64()[1] - 102.0).abs() < 1e-9);
    }

    #[test]
    fn literal_broadcast() {
        let b = block(BlockFormat::Row);
        let out = lit(7i32).eval_gather(&b, &[0, 1]).unwrap();
        assert_eq!(out.as_i32(), &[7, 7]);
        let out = lit("ab").eval_gather(&b, &[0, 1, 2]).unwrap();
        assert_eq!(out.as_char().1, b"ababab");
    }

    #[test]
    fn division_semantics() {
        let b = block(BlockFormat::Column);
        // integer division truncates
        let e = lit(7i64).div(lit(2i64));
        assert_eq!(e.eval_gather(&b, &[0]).unwrap().as_i64(), &[3]);
        // integer division by zero errors
        let e = lit(7i64).div(lit(0i64));
        assert!(e.eval_gather(&b, &[0]).is_err());
        // float division by zero gives inf
        let e = lit(7.0).div(lit(0.0));
        assert!(e.eval_gather(&b, &[0]).unwrap().as_f64()[0].is_infinite());
    }

    #[test]
    fn type_errors_detected() {
        let b = block(BlockFormat::Column);
        // date arithmetic rejected
        let e = col(3).add(lit(1i32));
        assert!(e.eval_all(&b).is_err());
        assert!(e.output_type(b.schema()).is_err());
        // char arithmetic rejected
        let e = col(4).mul(lit(2i32));
        assert!(e.eval_all(&b).is_err());
        // out-of-range column
        let e = col(9);
        assert!(matches!(
            e.output_type(b.schema()),
            Err(ExprError::ColumnOutOfRange { .. })
        ));
        assert!(e.eval_all(&b).is_err());
    }

    #[test]
    fn eval_row_matches_vectorized() {
        let e = col(0).mul(lit(1.0).sub(col(1)));
        let b = block(BlockFormat::Column);
        let vec = e.eval_all(&b).unwrap();
        for r in 0..b.num_rows() {
            let v = e.eval_row(&b, r).unwrap().as_f64();
            assert!((v - vec.as_f64()[r]).abs() < 1e-12);
        }
    }

    #[test]
    fn year_extraction() {
        use uot_storage::date_from_ymd;
        let s = Schema::from_pairs(&[("d", DataType::Date)]);
        let mut b = StorageBlock::new(s, BlockFormat::Column, 1024).unwrap();
        for (y, m, d) in [(1992, 1, 1), (1995, 6, 17), (1998, 12, 31)] {
            b.append_row(&[Value::Date(date_from_ymd(y, m, d))])
                .unwrap();
        }
        let e = col(0).year();
        assert_eq!(e.output_type(b.schema()).unwrap(), DataType::Int32);
        assert_eq!(e.eval_all(&b).unwrap().as_i32(), &[1992, 1995, 1998]);
        assert_eq!(e.eval_gather(&b, &[2, 0]).unwrap().as_i32(), &[1998, 1992]);
        assert_eq!(e.eval_row(&b, 1).unwrap(), Value::I32(1995));
        // YEAR of a non-date errors
        assert!(lit(5i32).year().eval_all(&b).is_err());
        assert!(lit(5i32).year().output_type(b.schema()).is_err());
    }

    #[test]
    fn case_expression() {
        use crate::predicate::{cmp, CmpOp};
        let b = block(BlockFormat::Column);
        // CASE WHEN qty < 3 THEN price ELSE 0.0 END
        let e = ScalarExpr::case_when(cmp(col(2), CmpOp::Lt, lit(3i32)), col(0), lit(0.0));
        assert_eq!(e.output_type(b.schema()).unwrap(), DataType::Float64);
        let v = e.eval_all(&b).unwrap();
        assert_eq!(v.as_f64()[0], 100.0);
        assert_eq!(v.as_f64()[2], 102.0);
        assert_eq!(v.as_f64()[3], 0.0);
        // gather path agrees
        let g = e.eval_gather(&b, &[3, 2]).unwrap();
        assert_eq!(g.as_f64(), &[0.0, 102.0]);
        // row path agrees
        assert_eq!(e.eval_row(&b, 3).unwrap(), Value::F64(0.0));
        // mixed numeric branches promote
        let e = ScalarExpr::case_when(cmp(col(2), CmpOp::Lt, lit(3i32)), lit(1i32), lit(0i64));
        assert_eq!(e.output_type(b.schema()).unwrap(), DataType::Int64);
        assert_eq!(e.eval_all(&b).unwrap().as_i64(), &[1, 1, 1, 0, 0, 0]);
        // incompatible branches rejected
        let e = ScalarExpr::case_when(cmp(col(2), CmpOp::Lt, lit(3i32)), lit("x"), lit(0i64));
        assert!(e.output_type(b.schema()).is_err());
        assert!(e.eval_all(&b).is_err());
    }

    #[test]
    fn case_with_string_branches() {
        use crate::predicate::{cmp, CmpOp};
        let b = block(BlockFormat::Row);
        let e = ScalarExpr::case_when(cmp(col(2), CmpOp::Lt, lit(2i32)), lit("lo"), lit("hi"));
        let v = e.eval_all(&b).unwrap();
        let (w, data) = v.as_char();
        assert_eq!(w, 2);
        assert_eq!(&data[..6], b"lolohi");
    }

    #[test]
    fn referenced_columns_collects() {
        let e = col(0).mul(lit(1.0).sub(col(1))).add(col(0));
        let mut cols = vec![];
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec![0, 1, 0]);
        assert_eq!(col(3).as_col(), Some(3));
        assert_eq!(lit(1i32).as_col(), None);
    }
}
