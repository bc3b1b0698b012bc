//! Boolean predicates over a block's rows.
//!
//! A predicate has two evaluators. [`Predicate::filter`] is the engine's:
//! it refines a selection vector of surviving row indices, conjunct by
//! conjunct, so a later conjunct only tests the rows an earlier one kept.
//! [`Predicate::eval`] maps the whole block to a selection [`Bitmap`]; the
//! operator-at-a-time baseline, `CASE` and `filter`'s fallback for `OR`,
//! `NOT` and generic comparisons use it. Numeric and date comparisons between a column and a literal take
//! a typed fast path on column-store blocks; everything else goes through
//! generic vectorized evaluation. String predicates (`=`, `IN`, prefix and
//! substring match) compare against space-padded fixed-width values,
//! matching the storage encoding.

use crate::error::ExprError;
use crate::scalar::ScalarExpr;
use crate::Result;
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

    /// Keep the `sel` rows whose `xs` value satisfies `x op y`, with the
    /// operator matched once outside the loop.
    fn retain<T: PartialOrd + Copy>(self, xs: &[T], y: T, sel: &mut Vec<usize>) {
        match self {
            CmpOp::Eq => sel.retain(|&i| xs[i] == y),
            CmpOp::Ne => sel.retain(|&i| xs[i] != y),
            CmpOp::Lt => sel.retain(|&i| xs[i] < y),
            CmpOp::Le => sel.retain(|&i| xs[i] <= y),
            CmpOp::Gt => sel.retain(|&i| xs[i] > y),
            CmpOp::Ge => sel.retain(|&i| xs[i] >= y),
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
    /// `And` refines the same vector conjunct by conjunct and stops once it
    /// is empty, the same short-circuit point as [`Self::eval`]. A
    /// column-vs-literal comparison on a column-store block and the four
    /// string predicates test only the rows in `sel`. Every other shape
    /// (`Or`, `Not`, a generic comparison, a comparison on a row-store
    /// block) evaluates the whole block with [`Self::eval`] and keeps the
    /// rows its bitmap selects, so it fails exactly when `eval` would.
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
            Predicate::Cmp { left, op, right }
                if filter_cmp_literal(block, left, *op, right, sel) => {}
            Predicate::Cmp { .. } | Predicate::Or(_) | Predicate::Not(_) => {
                let bm = self.eval(block)?;
                sel.retain(|&i| bm.get(i));
            }
            Predicate::StrEq { col, value } => filter_str(block, *col, sel, |bytes, width| {
                str_eq_padded(bytes, value, width)
            })?,
            Predicate::StrStartsWith { col, prefix } => {
                filter_str(block, *col, sel, |bytes, _w| str_starts_with(bytes, prefix))?
            }
            Predicate::StrIn { col, values } => filter_str(block, *col, sel, |bytes, width| {
                str_in(bytes, values, width)
            })?,
            Predicate::StrContains { col, needle } => {
                filter_str(block, *col, sel, |bytes, _w| str_contains(bytes, needle))?
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
    !needle.is_empty() && bytes.windows(needle.len()).any(|w| w == needle.as_bytes())
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

fn filter_str(
    block: &StorageBlock,
    col: usize,
    sel: &mut Vec<usize>,
    pred: impl Fn(&[u8], usize) -> bool,
) -> Result<()> {
    let width = char_width(block, col)?;
    match block.column_data(col) {
        Some(data) => {
            let (w, bytes) = data.as_char();
            sel.retain(|&i| pred(&bytes[i * w..(i + 1) * w], w));
        }
        None => sel.retain(|&i| pred(block.char_at(i, col), width)),
    }
    Ok(())
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

/// The selection-vector form of the `Col op Literal` fast path: on a
/// column-store block whose column type matches the literal's, keep the
/// `sel` rows that satisfy the comparison and return `true`. Returns `false`
/// (leaving `sel` untouched) for every other shape.
fn filter_cmp_literal(
    block: &StorageBlock,
    left: &ScalarExpr,
    op: CmpOp,
    right: &ScalarExpr,
    sel: &mut Vec<usize>,
) -> bool {
    let (c, op, v) = match (left, right) {
        (ScalarExpr::Col(c), ScalarExpr::Literal(v)) => (*c, op, v),
        (ScalarExpr::Literal(v), ScalarExpr::Col(c)) => (*c, op.flipped(), v),
        _ => return false,
    };
    match (block.column_data(c), v) {
        (Some(ColumnData::I32(xs)), Value::I32(y)) => op.retain(xs, *y, sel),
        (Some(ColumnData::I64(xs)), Value::I64(y)) => op.retain(xs, *y, sel),
        (Some(ColumnData::F64(xs)), Value::F64(y)) => op.retain(xs, *y, sel),
        (Some(ColumnData::Date(xs)), Value::Date(y)) => op.retain(xs, *y, sel),
        _ => return false,
    }
    true
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
            // empty needle matches nothing (degenerate LIKE '%%' is excluded)
            let p = Predicate::StrContains {
                col: 0,
                needle: String::new(),
            };
            assert!(ones(&p, &b).is_empty());
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
