//! Format-polymorphic storage blocks.
//!
//! [`StorageBlock`] unifies [`RowBlock`] and [`ColumnBlock`] behind one API so
//! that operators, the block pool and the scheduler are format-agnostic; hot
//! loops that care about layout match on the variant (or on
//! [`StorageBlock::column_data`]) to take the typed fast path.

use crate::column_block::{ColumnBlock, ColumnData};
use crate::row_block::RowBlock;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use std::sync::Arc;

/// Physical layout of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockFormat {
    /// N-ary row store.
    Row,
    /// Decomposed column store.
    Column,
}

impl BlockFormat {
    /// Short lowercase label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            BlockFormat::Row => "row",
            BlockFormat::Column => "column",
        }
    }
}

/// A storage block in either format.
#[derive(Debug, Clone)]
pub enum StorageBlock {
    /// Row-store block.
    Row(RowBlock),
    /// Column-store block.
    Column(ColumnBlock),
}

impl StorageBlock {
    /// Create an empty block of the given format and byte size.
    pub fn new(schema: Arc<Schema>, format: BlockFormat, capacity_bytes: usize) -> Result<Self> {
        Ok(match format {
            BlockFormat::Row => StorageBlock::Row(RowBlock::new(schema, capacity_bytes)?),
            BlockFormat::Column => StorageBlock::Column(ColumnBlock::new(schema, capacity_bytes)?),
        })
    }

    /// This block's format.
    #[inline]
    pub fn format(&self) -> BlockFormat {
        match self {
            StorageBlock::Row(_) => BlockFormat::Row,
            StorageBlock::Column(_) => BlockFormat::Column,
        }
    }

    /// The block's schema.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        match self {
            StorageBlock::Row(b) => b.schema(),
            StorageBlock::Column(b) => b.schema(),
        }
    }

    /// Number of tuples currently stored.
    #[inline]
    pub fn num_rows(&self) -> usize {
        match self {
            StorageBlock::Row(b) => b.num_rows(),
            StorageBlock::Column(b) => b.num_rows(),
        }
    }

    /// Maximum number of tuples.
    #[inline]
    pub fn capacity_rows(&self) -> usize {
        match self {
            StorageBlock::Row(b) => b.capacity_rows(),
            StorageBlock::Column(b) => b.capacity_rows(),
        }
    }

    /// True when full.
    #[inline]
    pub fn is_full(&self) -> bool {
        match self {
            StorageBlock::Row(b) => b.is_full(),
            StorageBlock::Column(b) => b.is_full(),
        }
    }

    /// Bytes reserved by this block.
    #[inline]
    pub fn allocated_bytes(&self) -> usize {
        match self {
            StorageBlock::Row(b) => b.allocated_bytes(),
            StorageBlock::Column(b) => b.allocated_bytes(),
        }
    }

    /// Remove all tuples, keeping allocations.
    pub fn clear(&mut self) {
        match self {
            StorageBlock::Row(b) => b.clear(),
            StorageBlock::Column(b) => b.clear(),
        }
    }

    /// Append a row of [`Value`]s; `Ok(false)` when full.
    pub fn append_row(&mut self, row: &[Value]) -> Result<bool> {
        match self {
            StorageBlock::Row(b) => b.append_row(row),
            StorageBlock::Column(b) => b.append_row(row),
        }
    }

    /// Typed column data, available only for column-store blocks.
    #[inline]
    pub fn column_data(&self, col: usize) -> Option<&ColumnData> {
        match self {
            StorageBlock::Row(_) => None,
            StorageBlock::Column(b) => Some(b.column(col)),
        }
    }

    /// Read an `Int32` field.
    #[inline]
    pub fn i32_at(&self, row: usize, col: usize) -> i32 {
        match self {
            StorageBlock::Row(b) => b.i32_at(row, col),
            StorageBlock::Column(b) => b.i32_at(row, col),
        }
    }

    /// Read an `Int64` field.
    #[inline]
    pub fn i64_at(&self, row: usize, col: usize) -> i64 {
        match self {
            StorageBlock::Row(b) => b.i64_at(row, col),
            StorageBlock::Column(b) => b.i64_at(row, col),
        }
    }

    /// Read a `Float64` field.
    #[inline]
    pub fn f64_at(&self, row: usize, col: usize) -> f64 {
        match self {
            StorageBlock::Row(b) => b.f64_at(row, col),
            StorageBlock::Column(b) => b.f64_at(row, col),
        }
    }

    /// Read a `Date` field.
    #[inline]
    pub fn date_at(&self, row: usize, col: usize) -> i32 {
        match self {
            StorageBlock::Row(b) => b.date_at(row, col),
            StorageBlock::Column(b) => b.date_at(row, col),
        }
    }

    /// Read a `Char(n)` field as padded bytes.
    #[inline]
    pub fn char_at(&self, row: usize, col: usize) -> &[u8] {
        match self {
            StorageBlock::Row(b) => b.char_at(row, col),
            StorageBlock::Column(b) => b.char_at(row, col),
        }
    }

    /// Read any field as a [`Value`] (slow path).
    pub fn value_at(&self, row: usize, col: usize) -> Result<Value> {
        match self {
            StorageBlock::Row(b) => b.value_at(row, col),
            StorageBlock::Column(b) => b.value_at(row, col),
        }
    }

    /// Materialize row `row` as a `Vec<Value>` (slow path, tests/results).
    pub fn row_values(&self, row: usize) -> Result<Vec<Value>> {
        (0..self.schema().len())
            .map(|c| self.value_at(row, c))
            .collect()
    }

    /// Materialize every row (slow path, tests/results).
    pub fn all_rows(&self) -> Vec<Vec<Value>> {
        (0..self.num_rows())
            .map(|r| self.row_values(r).expect("in-bounds row"))
            .collect()
    }

    /// Append rows `start..` of `src` until this block is full or `src` runs
    /// out, and return how many rows were appended.
    ///
    /// The copy is one typed loop per column, with the type and both formats
    /// resolved once per call rather than per field: row → row is a single
    /// byte copy, column → row writes each typed slice at the tuple stride,
    /// row → column reads each column out of the tuples, and column → column
    /// extends each column by one slice. The two schemas must have the same
    /// column types in the same order (`Int32` and `Date` are
    /// interchangeable); this sits on every operator's output path, so that
    /// is only checked by `debug_assert`.
    pub fn append_range(&mut self, src: &StorageBlock, start: usize) -> usize {
        let k = (self.capacity_rows() - self.num_rows()).min(src.num_rows().saturating_sub(start));
        if k == 0 {
            return 0;
        }
        debug_assert!(
            self.schema().len() == src.schema().len()
                && (0..src.schema().len())
                    .all(|c| self.schema().dtype(c).width() == src.schema().dtype(c).width()),
            "append_range between mismatched schemas"
        );
        // Offsets come from `src`'s schema: the column types match, so the
        // tuple layout does too, and `self` stays free to borrow mutably.
        let layout = src.schema();
        let w = layout.tuple_width();
        match (self, src) {
            (StorageBlock::Row(dst), StorageBlock::Row(s)) => {
                dst.grow(k).copy_from_slice(s.tuples(start, k));
            }
            (StorageBlock::Row(dst), StorageBlock::Column(s)) => {
                let out = dst.grow(k);
                for c in 0..layout.len() {
                    let off = layout.offset(c);
                    let tuples = out.chunks_exact_mut(w);
                    match s.column(c) {
                        ColumnData::I32(v) | ColumnData::Date(v) => {
                            for (t, x) in tuples.zip(&v[start..start + k]) {
                                t[off..off + 4].copy_from_slice(&x.to_le_bytes());
                            }
                        }
                        ColumnData::I64(v) => {
                            for (t, x) in tuples.zip(&v[start..start + k]) {
                                t[off..off + 8].copy_from_slice(&x.to_le_bytes());
                            }
                        }
                        ColumnData::F64(v) => {
                            for (t, x) in tuples.zip(&v[start..start + k]) {
                                t[off..off + 8].copy_from_slice(&x.to_le_bytes());
                            }
                        }
                        ColumnData::Char { width, data } => {
                            let vals =
                                data[start * width..(start + k) * width].chunks_exact(*width);
                            for (t, x) in tuples.zip(vals) {
                                t[off..off + width].copy_from_slice(x);
                            }
                        }
                    }
                }
            }
            (StorageBlock::Column(dst), StorageBlock::Row(s)) => {
                let bytes = s.tuples(start, k);
                for (c, col) in dst.grow(k).iter_mut().enumerate() {
                    let off = layout.offset(c);
                    let tuples = bytes.chunks_exact(w);
                    match col {
                        ColumnData::I32(v) | ColumnData::Date(v) => {
                            v.extend(tuples.map(|t| i32::from_le_bytes(field(t, off))))
                        }
                        ColumnData::I64(v) => {
                            v.extend(tuples.map(|t| i64::from_le_bytes(field(t, off))))
                        }
                        ColumnData::F64(v) => {
                            v.extend(tuples.map(|t| f64::from_le_bytes(field(t, off))))
                        }
                        ColumnData::Char { width, data } => {
                            for t in tuples {
                                data.extend_from_slice(&t[off..off + *width]);
                            }
                        }
                    }
                }
            }
            (StorageBlock::Column(dst), StorageBlock::Column(s)) => {
                for (c, col) in dst.grow(k).iter_mut().enumerate() {
                    match (col, s.column(c)) {
                        (
                            ColumnData::I32(d) | ColumnData::Date(d),
                            ColumnData::I32(v) | ColumnData::Date(v),
                        ) => d.extend_from_slice(&v[start..start + k]),
                        (ColumnData::I64(d), ColumnData::I64(v)) => {
                            d.extend_from_slice(&v[start..start + k])
                        }
                        (ColumnData::F64(d), ColumnData::F64(v)) => {
                            d.extend_from_slice(&v[start..start + k])
                        }
                        (ColumnData::Char { data: d, .. }, ColumnData::Char { width, data: v }) => {
                            d.extend_from_slice(&v[start * width..(start + k) * width])
                        }
                        (d, v) => unreachable!("append_range from {v:?} into {d:?}"),
                    }
                }
            }
        }
        k
    }
}

/// The `N` bytes of a tuple's field at offset `off`.
#[inline]
fn field<const N: usize>(tuple: &[u8], off: usize) -> [u8; N] {
    tuple[off..off + N]
        .try_into()
        .expect("a slice of N bytes converts to [u8; N]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::types::DataType;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("v", DataType::Float64),
            ("tag", DataType::Char(3)),
            ("d", DataType::Date),
            ("big", DataType::Int64),
        ])
    }

    fn filled(format: BlockFormat, n: i32) -> StorageBlock {
        let mut b = StorageBlock::new(schema(), format, 4096).unwrap();
        for i in 0..n {
            b.append_row(&[
                Value::I32(i),
                Value::F64(i as f64),
                Value::Str(format!("t{i}")),
                Value::Date(100 + i),
                Value::I64(i as i64 * 2),
            ])
            .unwrap();
        }
        b
    }

    #[test]
    fn formats_agree_on_contents() {
        let r = filled(BlockFormat::Row, 6);
        let c = filled(BlockFormat::Column, 6);
        assert_eq!(r.all_rows(), c.all_rows());
        assert_eq!(r.format(), BlockFormat::Row);
        assert_eq!(c.format(), BlockFormat::Column);
    }

    #[test]
    fn column_data_only_for_column_format() {
        let r = filled(BlockFormat::Row, 2);
        let c = filled(BlockFormat::Column, 2);
        assert!(r.column_data(0).is_none());
        assert_eq!(c.column_data(0).unwrap().as_i32(), &[0, 1]);
    }

    #[test]
    fn append_range_identity() {
        for fmt in [BlockFormat::Row, BlockFormat::Column] {
            for dst_fmt in [BlockFormat::Row, BlockFormat::Column] {
                let src = filled(fmt, 4);
                let mut dst = StorageBlock::new(schema(), dst_fmt, 4096).unwrap();
                assert_eq!(dst.append_range(&src, 0), 4);
                assert_eq!(dst.all_rows(), src.all_rows(), "{fmt:?}->{dst_fmt:?}");
            }
        }
    }

    #[test]
    fn append_range_starts_at_offset_and_continues() {
        let src = filled(BlockFormat::Column, 5);
        let mut dst = StorageBlock::new(schema(), BlockFormat::Row, 4096).unwrap();
        assert_eq!(dst.append_range(&src, 3), 2);
        assert_eq!(dst.append_range(&src, 1), 4);
        assert_eq!(dst.append_range(&src, 5), 0);
        let rows = src.all_rows();
        let expect: Vec<_> = rows[3..].iter().chain(&rows[1..]).cloned().collect();
        assert_eq!(dst.all_rows(), expect);
    }

    #[test]
    fn append_range_respects_capacity() {
        let small = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut src = StorageBlock::new(small.clone(), BlockFormat::Row, 4096).unwrap();
        for i in 0..3 {
            src.append_row(&[Value::I32(i)]).unwrap();
        }
        let mut dst = StorageBlock::new(small, BlockFormat::Column, 8).unwrap(); // 2 rows
        assert_eq!(dst.append_range(&src, 0), 2);
        assert!(dst.is_full());
        assert_eq!(dst.append_range(&src, 2), 0);
        assert_eq!(
            dst.all_rows(),
            vec![vec![Value::I32(0)], vec![Value::I32(1)]]
        );
    }

    #[test]
    fn clear_works_through_enum() {
        let mut b = filled(BlockFormat::Column, 5);
        assert_eq!(b.num_rows(), 5);
        b.clear();
        assert_eq!(b.num_rows(), 0);
    }

    #[test]
    fn label_strings() {
        assert_eq!(BlockFormat::Row.label(), "row");
        assert_eq!(BlockFormat::Column.label(), "column");
    }
}
