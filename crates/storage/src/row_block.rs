//! Row-store (N-ary) storage blocks.
//!
//! A [`RowBlock`] packs fixed-width tuples back to back in a single byte
//! buffer. Scanning one column therefore strides through memory at
//! `tuple_width` intervals, dragging unreferenced columns through the caches —
//! the effect the paper measures in Sections VII-B4 and VII-B6.

use crate::error::StorageError;
use crate::schema::Schema;
use crate::types::DataType;
use crate::value::Value;
use crate::Result;
use std::sync::Arc;

/// A fixed-capacity block of row-major tuples.
#[derive(Debug, Clone)]
pub struct RowBlock {
    schema: Arc<Schema>,
    /// Tuple bytes, `num_rows * tuple_width` of them in use.
    data: Vec<u8>,
    capacity_rows: usize,
    num_rows: usize,
}

impl RowBlock {
    /// Create an empty block sized to `capacity_bytes`.
    ///
    /// The tuple capacity is `capacity_bytes / tuple_width`; errors if even a
    /// single tuple does not fit.
    pub fn new(schema: Arc<Schema>, capacity_bytes: usize) -> Result<Self> {
        let w = schema.tuple_width();
        if w == 0 || w > capacity_bytes {
            return Err(StorageError::TupleTooLarge {
                tuple_bytes: w,
                block_bytes: capacity_bytes,
            });
        }
        let capacity_rows = capacity_bytes / w;
        Ok(RowBlock {
            data: Vec::with_capacity(capacity_rows * w),
            schema,
            capacity_rows,
            num_rows: 0,
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

    /// Bytes reserved by this block (the fixed block size, not bytes in use).
    #[inline]
    pub fn allocated_bytes(&self) -> usize {
        self.capacity_rows * self.schema.tuple_width()
    }

    /// Remove all tuples, keeping the allocation (pool reuse path).
    pub fn clear(&mut self) {
        self.data.clear();
        self.num_rows = 0;
    }

    /// Append a row of [`Value`]s. Returns `Ok(false)` if the block is full.
    pub fn append_row(&mut self, row: &[Value]) -> Result<bool> {
        if self.is_full() {
            return Ok(false);
        }
        self.schema.check_row(row)?;
        for (v, c) in row.iter().zip(self.schema.columns()) {
            match (v, c.dtype) {
                (Value::I32(x), DataType::Int32) => self.data.extend_from_slice(&x.to_le_bytes()),
                (Value::I64(x), DataType::Int64) => self.data.extend_from_slice(&x.to_le_bytes()),
                (Value::F64(x), DataType::Float64) => self.data.extend_from_slice(&x.to_le_bytes()),
                (Value::Date(x), DataType::Date) => self.data.extend_from_slice(&x.to_le_bytes()),
                (Value::Str(s), DataType::Char(n)) => {
                    self.data.extend_from_slice(s.as_bytes());
                    // space-pad to the declared width
                    self.data
                        .extend(std::iter::repeat_n(b' ', n as usize - s.len()));
                }
                // check_row above guarantees this is unreachable
                _ => unreachable!("check_row admitted a mismatched value"),
            }
        }
        self.num_rows += 1;
        Ok(true)
    }

    /// Raw bytes of tuple `row`.
    #[inline]
    pub fn tuple_bytes(&self, row: usize) -> &[u8] {
        let w = self.schema.tuple_width();
        &self.data[row * w..(row + 1) * w]
    }

    /// Append a tuple from its raw encoding (must match this schema's width).
    /// Returns `false` if the block is full.
    pub fn append_tuple_bytes(&mut self, bytes: &[u8]) -> bool {
        debug_assert_eq!(bytes.len(), self.schema.tuple_width());
        if self.is_full() {
            return false;
        }
        self.data.extend_from_slice(bytes);
        self.num_rows += 1;
        true
    }

    #[inline]
    fn field(&self, row: usize, col: usize) -> &[u8] {
        let w = self.schema.tuple_width();
        let off = row * w + self.schema.offset(col);
        let width = self.schema.dtype(col).width();
        &self.data[off..off + width]
    }

    /// Read an `Int32` field.
    #[inline]
    pub fn i32_at(&self, row: usize, col: usize) -> i32 {
        debug_assert_eq!(self.schema.dtype(col), DataType::Int32);
        i32::from_le_bytes(self.field(row, col).try_into().unwrap())
    }

    /// Read an `Int64` field.
    #[inline]
    pub fn i64_at(&self, row: usize, col: usize) -> i64 {
        debug_assert_eq!(self.schema.dtype(col), DataType::Int64);
        i64::from_le_bytes(self.field(row, col).try_into().unwrap())
    }

    /// Read a `Float64` field.
    #[inline]
    pub fn f64_at(&self, row: usize, col: usize) -> f64 {
        debug_assert_eq!(self.schema.dtype(col), DataType::Float64);
        f64::from_le_bytes(self.field(row, col).try_into().unwrap())
    }

    /// Read a `Date` field (days since epoch).
    #[inline]
    pub fn date_at(&self, row: usize, col: usize) -> i32 {
        debug_assert_eq!(self.schema.dtype(col), DataType::Date);
        i32::from_le_bytes(self.field(row, col).try_into().unwrap())
    }

    /// Read a `Char(n)` field as its padded bytes.
    #[inline]
    pub fn char_at(&self, row: usize, col: usize) -> &[u8] {
        debug_assert!(matches!(self.schema.dtype(col), DataType::Char(_)));
        self.field(row, col)
    }

    /// Raw bytes of tuples `start..start + k`. Field `col` of tuple `i` sits
    /// at `i * schema.tuple_width() + schema.offset(col)` of `tuples(0, n)`,
    /// which is how typed kernels read a column in place.
    #[inline]
    pub fn tuples(&self, start: usize, k: usize) -> &[u8] {
        let w = self.schema.tuple_width();
        &self.data[start * w..(start + k) * w]
    }

    /// Grow the block by `k` tuples in one step and return their bytes for
    /// the caller to fill (the bulk-copy path of
    /// [`StorageBlock::append_range`](crate::StorageBlock::append_range) and
    /// of spill decoding).
    /// The caller checks capacity.
    pub(crate) fn grow(&mut self, k: usize) -> &mut [u8] {
        debug_assert!(self.num_rows + k <= self.capacity_rows);
        let at = self.data.len();
        self.data.resize(at + k * self.schema.tuple_width(), 0);
        self.num_rows += k;
        &mut self.data[at..]
    }

    /// Read any field as a [`Value`] (slow path, for result materialization
    /// and tests).
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
        Ok(match self.schema.dtype(col) {
            DataType::Int32 => Value::I32(self.i32_at(row, col)),
            DataType::Int64 => Value::I64(self.i64_at(row, col)),
            DataType::Float64 => Value::F64(self.f64_at(row, col)),
            DataType::Date => Value::Date(self.date_at(row, col)),
            DataType::Char(_) => Value::Str(
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
    use crate::schema::Schema;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("v", DataType::Float64),
            ("tag", DataType::Char(4)),
            ("d", DataType::Date),
            ("big", DataType::Int64),
        ])
    }

    fn row(i: i32) -> Vec<Value> {
        vec![
            Value::I32(i),
            Value::F64(i as f64 * 0.5),
            Value::Str(format!("t{i}")),
            Value::Date(1000 + i),
            Value::I64(i as i64 * 10),
        ]
    }

    #[test]
    fn capacity_from_bytes() {
        let s = schema(); // width 4+8+4+4+8 = 28
        let b = RowBlock::new(s.clone(), 280).unwrap();
        assert_eq!(b.capacity_rows(), 10);
        assert_eq!(b.allocated_bytes(), 280);
        // 283 bytes still gives 10 tuples
        let b = RowBlock::new(s, 283).unwrap();
        assert_eq!(b.capacity_rows(), 10);
        assert_eq!(b.allocated_bytes(), 280);
    }

    #[test]
    fn tuple_too_large() {
        let s = schema();
        assert!(matches!(
            RowBlock::new(s, 27),
            Err(StorageError::TupleTooLarge { .. })
        ));
    }

    #[test]
    fn append_and_read_back() {
        let s = schema();
        let mut b = RowBlock::new(s, 1024).unwrap();
        for i in 0..5 {
            assert!(b.append_row(&row(i)).unwrap());
        }
        assert_eq!(b.num_rows(), 5);
        for i in 0..5 {
            assert_eq!(b.i32_at(i as usize, 0), i);
            assert_eq!(b.f64_at(i as usize, 1), i as f64 * 0.5);
            assert_eq!(
                b.value_at(i as usize, 2).unwrap(),
                Value::Str(format!("t{i}"))
            );
            assert_eq!(b.date_at(i as usize, 3), 1000 + i);
            assert_eq!(b.i64_at(i as usize, 4), i as i64 * 10);
        }
    }

    #[test]
    fn char_fields_are_space_padded() {
        let s = Schema::from_pairs(&[("tag", DataType::Char(4))]);
        let mut b = RowBlock::new(s, 64).unwrap();
        b.append_row(&[Value::Str("ab".into())]).unwrap();
        assert_eq!(b.char_at(0, 0), b"ab  ");
        // value_at trims padding back off
        assert_eq!(b.value_at(0, 0).unwrap(), Value::Str("ab".into()));
    }

    #[test]
    fn fills_up_and_rejects() {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut b = RowBlock::new(s, 8).unwrap(); // 2 tuples
        assert!(b.append_row(&[Value::I32(1)]).unwrap());
        assert!(!b.is_full());
        assert!(b.append_row(&[Value::I32(2)]).unwrap());
        assert!(b.is_full());
        assert!(!b.append_row(&[Value::I32(3)]).unwrap());
        assert_eq!(b.num_rows(), 2);
    }

    #[test]
    fn append_rejects_bad_row() {
        let s = schema();
        let mut b = RowBlock::new(s, 1024).unwrap();
        assert!(b.append_row(&[Value::I32(1)]).is_err());
        assert_eq!(b.num_rows(), 0);
    }

    #[test]
    fn raw_tuple_transfer() {
        let s = schema();
        let mut a = RowBlock::new(s.clone(), 1024).unwrap();
        a.append_row(&row(7)).unwrap();
        let mut b = RowBlock::new(s, 1024).unwrap();
        assert!(b.append_tuple_bytes(a.tuple_bytes(0)));
        assert_eq!(b.i32_at(0, 0), 7);
        assert_eq!(b.value_at(0, 2).unwrap(), Value::Str("t7".into()));
    }

    #[test]
    fn clear_retains_capacity() {
        let s = schema();
        let mut b = RowBlock::new(s, 1024).unwrap();
        b.append_row(&row(1)).unwrap();
        b.clear();
        assert_eq!(b.num_rows(), 0);
        assert!(b.append_row(&row(2)).unwrap());
        assert_eq!(b.i32_at(0, 0), 2);
    }

    #[test]
    fn value_at_bounds() {
        let s = schema();
        let mut b = RowBlock::new(s, 1024).unwrap();
        b.append_row(&row(0)).unwrap();
        assert!(matches!(
            b.value_at(0, 99),
            Err(StorageError::ColumnOutOfRange { .. })
        ));
        assert!(matches!(
            b.value_at(5, 0),
            Err(StorageError::RowOutOfRange { .. })
        ));
    }
}
