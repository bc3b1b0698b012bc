//! Column-store (decomposed) storage blocks.
//!
//! A [`ColumnBlock`] stores each column in its own contiguous typed vector.
//! Scanning one column is a pure sequential walk — the cache-friendly access
//! pattern the paper contrasts against row stores (Section IV-B).

use crate::error::StorageError;
use crate::schema::Schema;
use crate::types::DataType;
use crate::value::Value;
use crate::Result;
use std::sync::Arc;

/// Typed storage for one column of a [`ColumnBlock`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// `Int32` column.
    I32(Vec<i32>),
    /// `Int64` column.
    I64(Vec<i64>),
    /// `Float64` column.
    F64(Vec<f64>),
    /// `Date` column (days since epoch).
    Date(Vec<i32>),
    /// Fixed-width string column: `width` bytes per value, concatenated.
    Char {
        /// Declared width of each value in bytes.
        width: usize,
        /// `num_rows * width` bytes of space-padded values.
        data: Vec<u8>,
    },
}

impl ColumnData {
    /// An empty column of type `dtype` with room for `rows` values.
    pub fn with_capacity(dtype: DataType, rows: usize) -> Self {
        match dtype {
            DataType::Int32 => ColumnData::I32(Vec::with_capacity(rows)),
            DataType::Int64 => ColumnData::I64(Vec::with_capacity(rows)),
            DataType::Float64 => ColumnData::F64(Vec::with_capacity(rows)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(rows)),
            DataType::Char(n) => ColumnData::Char {
                width: n as usize,
                data: Vec::with_capacity(rows * n as usize),
            },
        }
    }

    fn clear(&mut self) {
        match self {
            ColumnData::I32(v) => v.clear(),
            ColumnData::I64(v) => v.clear(),
            ColumnData::F64(v) => v.clear(),
            ColumnData::Date(v) => v.clear(),
            ColumnData::Char { data, .. } => data.clear(),
        }
    }

    /// View as an `i32` slice; panics if the column is not `Int32`.
    #[inline]
    pub fn as_i32(&self) -> &[i32] {
        match self {
            ColumnData::I32(v) => v,
            other => panic!("expected Int32 column, found {}", other.type_name()),
        }
    }

    /// View as an `i64` slice; panics if the column is not `Int64`.
    #[inline]
    pub fn as_i64(&self) -> &[i64] {
        match self {
            ColumnData::I64(v) => v,
            other => panic!("expected Int64 column, found {}", other.type_name()),
        }
    }

    /// View as an `f64` slice; panics if the column is not `Float64`.
    #[inline]
    pub fn as_f64(&self) -> &[f64] {
        match self {
            ColumnData::F64(v) => v,
            other => panic!("expected Float64 column, found {}", other.type_name()),
        }
    }

    /// View as a date slice; panics if the column is not `Date`.
    #[inline]
    pub fn as_date(&self) -> &[i32] {
        match self {
            ColumnData::Date(v) => v,
            other => panic!("expected Date column, found {}", other.type_name()),
        }
    }

    /// Width and raw bytes of a `Char` column; panics otherwise.
    #[inline]
    pub fn as_char(&self) -> (usize, &[u8]) {
        match self {
            ColumnData::Char { width, data } => (*width, data),
            other => panic!("expected Char column, found {}", other.type_name()),
        }
    }

    /// Value `row` of a `Char` column as padded bytes.
    #[inline]
    pub fn char_value(&self, row: usize) -> &[u8] {
        let (w, data) = self.as_char();
        &data[row * w..(row + 1) * w]
    }

    /// Number of values in this column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Char { width, data } => data.len().checked_div(*width).unwrap_or(0),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn type_name(&self) -> &'static str {
        match self {
            ColumnData::I32(_) => "Int32",
            ColumnData::I64(_) => "Int64",
            ColumnData::F64(_) => "Float64",
            ColumnData::Date(_) => "Date",
            ColumnData::Char { .. } => "Char",
        }
    }
}

/// A fixed-capacity block of column-major tuples.
#[derive(Debug, Clone)]
pub struct ColumnBlock {
    schema: Arc<Schema>,
    columns: Vec<ColumnData>,
    capacity_rows: usize,
    num_rows: usize,
}

impl ColumnBlock {
    /// Create an empty block sized to `capacity_bytes` (same tuple capacity
    /// rule as [`crate::RowBlock`], so the two formats are comparable).
    pub fn new(schema: Arc<Schema>, capacity_bytes: usize) -> Result<Self> {
        let w = schema.tuple_width();
        if w == 0 || w > capacity_bytes {
            return Err(StorageError::TupleTooLarge {
                tuple_bytes: w,
                block_bytes: capacity_bytes,
            });
        }
        let capacity_rows = capacity_bytes / w;
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnData::with_capacity(c.dtype, capacity_rows))
            .collect();
        Ok(ColumnBlock {
            schema,
            columns,
            capacity_rows,
            num_rows: 0,
        })
    }

    /// Assemble a block directly from pre-computed column vectors.
    ///
    /// Used by vectorized expression evaluation: an operator computes each
    /// output column as a [`ColumnData`] and wraps them as a "virtual" block
    /// so the regular block-to-block copy path can consume them. All columns
    /// must have `num_rows` entries and match the schema's types.
    pub fn from_columns(
        schema: Arc<Schema>,
        columns: Vec<ColumnData>,
        num_rows: usize,
    ) -> Result<Self> {
        if columns.len() != schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        for (c, col) in schema.columns().iter().zip(&columns) {
            let (ok, rows) = match (c.dtype, col) {
                (DataType::Int32, ColumnData::I32(v)) => (true, v.len()),
                (DataType::Int64, ColumnData::I64(v)) => (true, v.len()),
                (DataType::Float64, ColumnData::F64(v)) => (true, v.len()),
                (DataType::Date, ColumnData::Date(v)) => (true, v.len()),
                (DataType::Char(n), ColumnData::Char { width, data }) => {
                    (*width == n as usize, data.len() / (*width).max(1))
                }
                _ => (false, 0),
            };
            if !ok {
                return Err(StorageError::TypeMismatch {
                    expected: c.dtype.name(),
                    found: col.type_name().to_string(),
                });
            }
            if rows != num_rows {
                return Err(StorageError::RowOutOfRange {
                    index: rows,
                    len: num_rows,
                });
            }
        }
        Ok(ColumnBlock {
            schema,
            columns,
            capacity_rows: num_rows,
            num_rows,
        })
    }

    /// The block's schema.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples currently stored.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Maximum number of tuples this block can hold.
    #[inline]
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// True when no further tuple can be appended.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.num_rows == self.capacity_rows
    }

    /// Bytes reserved by this block.
    #[inline]
    pub fn allocated_bytes(&self) -> usize {
        self.capacity_rows * self.schema.tuple_width()
    }

    /// Remove all tuples, keeping the allocations (pool reuse path).
    pub fn clear(&mut self) {
        for c in &mut self.columns {
            c.clear();
        }
        self.num_rows = 0;
    }

    /// The typed data of column `col`.
    #[inline]
    pub fn column(&self, col: usize) -> &ColumnData {
        &self.columns[col]
    }

    /// Append a row of [`Value`]s. Returns `Ok(false)` if the block is full.
    pub fn append_row(&mut self, row: &[Value]) -> Result<bool> {
        if self.is_full() {
            return Ok(false);
        }
        self.schema.check_row(row)?;
        for (v, c) in row.iter().zip(self.columns.iter_mut()) {
            match (v, c) {
                (Value::I32(x), ColumnData::I32(col)) => col.push(*x),
                (Value::I64(x), ColumnData::I64(col)) => col.push(*x),
                (Value::F64(x), ColumnData::F64(col)) => col.push(*x),
                (Value::Date(x), ColumnData::Date(col)) => col.push(*x),
                (Value::Str(s), ColumnData::Char { width, data }) => {
                    data.extend_from_slice(s.as_bytes());
                    data.extend(std::iter::repeat_n(b' ', *width - s.len()));
                }
                _ => unreachable!("check_row admitted a mismatched value"),
            }
        }
        self.num_rows += 1;
        Ok(true)
    }

    /// Read an `Int32` field.
    #[inline]
    pub fn i32_at(&self, row: usize, col: usize) -> i32 {
        self.columns[col].as_i32()[row]
    }

    /// Read an `Int64` field.
    #[inline]
    pub fn i64_at(&self, row: usize, col: usize) -> i64 {
        self.columns[col].as_i64()[row]
    }

    /// Read a `Float64` field.
    #[inline]
    pub fn f64_at(&self, row: usize, col: usize) -> f64 {
        self.columns[col].as_f64()[row]
    }

    /// Read a `Date` field.
    #[inline]
    pub fn date_at(&self, row: usize, col: usize) -> i32 {
        self.columns[col].as_date()[row]
    }

    /// Read a `Char(n)` field as padded bytes.
    #[inline]
    pub fn char_at(&self, row: usize, col: usize) -> &[u8] {
        self.columns[col].char_value(row)
    }

    /// Count `k` more rows and return the columns for the caller to extend
    /// by exactly `k` values each (the bulk-copy path of
    /// [`StorageBlock::append_range`](crate::StorageBlock::append_range) and
    /// of spill decoding).
    /// The caller checks capacity.
    pub(crate) fn grow(&mut self, k: usize) -> &mut [ColumnData] {
        debug_assert!(self.num_rows + k <= self.capacity_rows);
        self.num_rows += k;
        &mut self.columns
    }

    /// Read any field as a [`Value`] (slow path).
    pub fn value_at(&self, row: usize, col: usize) -> Result<Value> {
        if col >= self.schema.len() {
            return Err(StorageError::ColumnOutOfRange {
                index: col,
                len: self.schema.len(),
            });
        }
        if row >= self.num_rows {
            return Err(StorageError::RowOutOfRange {
                index: row,
                len: self.num_rows,
            });
        }
        Ok(match &self.columns[col] {
            ColumnData::I32(v) => Value::I32(v[row]),
            ColumnData::I64(v) => Value::I64(v[row]),
            ColumnData::F64(v) => Value::F64(v[row]),
            ColumnData::Date(v) => Value::Date(v[row]),
            ColumnData::Char { .. } => Value::Str(
                String::from_utf8_lossy(self.char_at(row, col))
                    .trim_end()
                    .to_string(),
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("v", DataType::Float64),
            ("tag", DataType::Char(4)),
        ])
    }

    #[test]
    fn capacity_matches_row_block_rule() {
        let s = schema(); // width 16
        let b = ColumnBlock::new(s, 160).unwrap();
        assert_eq!(b.capacity_rows(), 10);
        assert_eq!(b.allocated_bytes(), 160);
    }

    #[test]
    fn append_and_typed_reads() {
        let s = schema();
        let mut b = ColumnBlock::new(s, 1024).unwrap();
        for i in 0..8 {
            b.append_row(&[
                Value::I32(i),
                Value::F64(i as f64 + 0.25),
                Value::Str(format!("x{i}")),
            ])
            .unwrap();
        }
        assert_eq!(b.num_rows(), 8);
        assert_eq!(b.column(0).as_i32(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(b.f64_at(3, 1), 3.25);
        assert_eq!(b.char_at(2, 2), b"x2  ");
        assert_eq!(b.value_at(2, 2).unwrap(), Value::Str("x2".into()));
    }

    #[test]
    fn columns_are_contiguous() {
        let s = Schema::from_pairs(&[("tag", DataType::Char(2))]);
        let mut b = ColumnBlock::new(s, 64).unwrap();
        b.append_row(&[Value::Str("ab".into())]).unwrap();
        b.append_row(&[Value::Str("c".into())]).unwrap();
        let (w, data) = b.column(0).as_char();
        assert_eq!(w, 2);
        assert_eq!(data, b"abc ");
    }

    #[test]
    fn fills_up_and_rejects() {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut b = ColumnBlock::new(s, 12).unwrap(); // 3 tuples
        for i in 0..3 {
            assert!(b.append_row(&[Value::I32(i)]).unwrap());
        }
        assert!(b.is_full());
        assert!(!b.append_row(&[Value::I32(9)]).unwrap());
    }

    #[test]
    fn clear_retains_capacity() {
        let s = schema();
        let mut b = ColumnBlock::new(s, 1024).unwrap();
        b.append_row(&[Value::I32(1), Value::F64(1.0), Value::Str("a".into())])
            .unwrap();
        b.clear();
        assert_eq!(b.num_rows(), 0);
        b.append_row(&[Value::I32(2), Value::F64(2.0), Value::Str("b".into())])
            .unwrap();
        assert_eq!(b.i32_at(0, 0), 2);
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = schema();
        let mut b = ColumnBlock::new(s, 1024).unwrap();
        let err = b.append_row(&[Value::I64(1), Value::F64(1.0), Value::Str("a".into())]);
        assert!(err.is_err());
        assert_eq!(b.num_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "expected Int32 column")]
    fn wrong_typed_accessor_panics() {
        let s = schema();
        let b = ColumnBlock::new(s, 1024).unwrap();
        let _ = b.column(1).as_i32();
    }

    #[test]
    fn from_columns_builds_virtual_block() {
        let s = schema();
        let cols = vec![
            ColumnData::I32(vec![1, 2]),
            ColumnData::F64(vec![0.5, 1.5]),
            ColumnData::Char {
                width: 4,
                data: b"aaaabbbb".to_vec(),
            },
        ];
        let b = ColumnBlock::from_columns(s, cols, 2).unwrap();
        assert_eq!(b.num_rows(), 2);
        assert!(b.is_full());
        assert_eq!(b.i32_at(1, 0), 2);
        assert_eq!(b.char_at(1, 2), b"bbbb");
    }

    #[test]
    fn from_columns_validates() {
        let s = schema();
        // wrong arity
        assert!(ColumnBlock::from_columns(s.clone(), vec![ColumnData::I32(vec![1])], 1).is_err());
        // wrong type
        let cols = vec![
            ColumnData::I64(vec![1]),
            ColumnData::F64(vec![0.5]),
            ColumnData::Char {
                width: 4,
                data: b"aaaa".to_vec(),
            },
        ];
        assert!(ColumnBlock::from_columns(s.clone(), cols, 1).is_err());
        // wrong row count
        let cols = vec![
            ColumnData::I32(vec![1, 2]),
            ColumnData::F64(vec![0.5]),
            ColumnData::Char {
                width: 4,
                data: b"aaaa".to_vec(),
            },
        ];
        assert!(ColumnBlock::from_columns(s, cols, 1).is_err());
        // wrong char width
        let s2 = Schema::from_pairs(&[("t", DataType::Char(2))]);
        let cols = vec![ColumnData::Char {
            width: 3,
            data: b"abc".to_vec(),
        }];
        assert!(ColumnBlock::from_columns(s2, cols, 1).is_err());
    }

    #[test]
    fn column_len() {
        assert_eq!(ColumnData::I32(vec![1, 2, 3]).len(), 3);
        assert!(ColumnData::F64(vec![]).is_empty());
        assert_eq!(
            ColumnData::Char {
                width: 2,
                data: b"abcd".to_vec()
            }
            .len(),
            2
        );
    }

    #[test]
    fn value_at_bounds() {
        let s = schema();
        let b = ColumnBlock::new(s, 1024).unwrap();
        assert!(matches!(
            b.value_at(0, 0),
            Err(StorageError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            b.value_at(0, 9),
            Err(StorageError::ColumnOutOfRange { .. })
        ));
    }
}
