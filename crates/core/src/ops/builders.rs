//! Typed per-column output assembly.
//!
//! Join operators combine fields from two sources (probe block + hash-table
//! payload), so they cannot hand a single source block to the output
//! buffer. Instead they push typed values into one [`ColBuilder`] per output
//! column and wrap the result as a virtual column block, which the regular
//! [`OutputBuffer::write_rows`](crate::output::OutputBuffer) path then copies
//! into the output blocks with one bulk
//! [`append_range`](uot_storage::StorageBlock::append_range) per block. No
//! `Value` boxing happens on this path.

use crate::hash_table::PayloadRef;
use crate::Result;
use std::sync::Arc;
use uot_storage::{ColumnBlock, ColumnData, DataType, Schema, StorageBlock};

/// An append-only typed column under construction.
#[derive(Debug)]
pub enum ColBuilder {
    /// `Int32` column.
    I32(Vec<i32>),
    /// `Int64` column.
    I64(Vec<i64>),
    /// `Float64` column.
    F64(Vec<f64>),
    /// `Date` column.
    Date(Vec<i32>),
    /// Fixed-width string column.
    Char {
        /// Value width in bytes.
        width: usize,
        /// Concatenated padded values.
        data: Vec<u8>,
    },
}

impl ColBuilder {
    /// Empty builder for a column of type `t`.
    pub fn for_type(t: DataType) -> Self {
        match t {
            DataType::Int32 => ColBuilder::I32(Vec::new()),
            DataType::Int64 => ColBuilder::I64(Vec::new()),
            DataType::Float64 => ColBuilder::F64(Vec::new()),
            DataType::Date => ColBuilder::Date(Vec::new()),
            DataType::Char(n) => ColBuilder::Char {
                width: n as usize,
                data: Vec::new(),
            },
        }
    }

    /// Number of values appended so far.
    pub fn len(&self) -> usize {
        match self {
            ColBuilder::I32(v) => v.len(),
            ColBuilder::I64(v) => v.len(),
            ColBuilder::F64(v) => v.len(),
            ColBuilder::Date(v) => v.len(),
            ColBuilder::Char { width, data } => {
                if *width == 0 {
                    0
                } else {
                    data.len() / width
                }
            }
        }
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append field `(row, col)` of `block`.
    #[inline]
    pub fn push_from_block(&mut self, block: &StorageBlock, row: usize, col: usize) {
        match self {
            ColBuilder::I32(v) => v.push(block.i32_at(row, col)),
            ColBuilder::I64(v) => v.push(block.i64_at(row, col)),
            ColBuilder::F64(v) => v.push(block.f64_at(row, col)),
            ColBuilder::Date(v) => v.push(block.date_at(row, col)),
            ColBuilder::Char { data, .. } => data.extend_from_slice(block.char_at(row, col)),
        }
    }

    /// Append payload field `col` of a hash-table match.
    #[inline]
    pub fn push_from_payload(&mut self, payload: PayloadRef<'_>, col: usize) {
        match self {
            ColBuilder::I32(v) => v.push(payload.i32_at(col)),
            ColBuilder::I64(v) => v.push(payload.i64_at(col)),
            ColBuilder::F64(v) => v.push(payload.f64_at(col)),
            ColBuilder::Date(v) => v.push(payload.date_at(col)),
            ColBuilder::Char { data, .. } => data.extend_from_slice(payload.char_at(col)),
        }
    }

    /// Finish into a [`ColumnData`].
    pub fn into_data(self) -> ColumnData {
        match self {
            ColBuilder::I32(v) => ColumnData::I32(v),
            ColBuilder::I64(v) => ColumnData::I64(v),
            ColBuilder::F64(v) => ColumnData::F64(v),
            ColBuilder::Date(v) => ColumnData::Date(v),
            ColBuilder::Char { width, data } => ColumnData::Char { width, data },
        }
    }
}

/// Gather one output column from `block` for the given row indices with a
/// single typed loop: the builder variant and (for column-store blocks) the
/// source slice are resolved once, not per row, unlike repeated
/// [`ColBuilder::push_from_block`] calls.
pub fn gather_block_column<I>(builder: &mut ColBuilder, block: &StorageBlock, col: usize, rows: I)
where
    I: Iterator<Item = usize>,
{
    match builder {
        ColBuilder::I32(v) => {
            if let Some(d) = block.column_data(col) {
                let s = d.as_i32();
                v.extend(rows.map(|r| s[r]));
            } else {
                v.extend(rows.map(|r| block.i32_at(r, col)));
            }
        }
        ColBuilder::I64(v) => {
            if let Some(d) = block.column_data(col) {
                let s = d.as_i64();
                v.extend(rows.map(|r| s[r]));
            } else {
                v.extend(rows.map(|r| block.i64_at(r, col)));
            }
        }
        ColBuilder::F64(v) => {
            if let Some(d) = block.column_data(col) {
                let s = d.as_f64();
                v.extend(rows.map(|r| s[r]));
            } else {
                v.extend(rows.map(|r| block.f64_at(r, col)));
            }
        }
        ColBuilder::Date(v) => {
            if let Some(d) = block.column_data(col) {
                let s = d.as_date();
                v.extend(rows.map(|r| s[r]));
            } else {
                v.extend(rows.map(|r| block.date_at(r, col)));
            }
        }
        ColBuilder::Char { data, .. } => {
            for r in rows {
                data.extend_from_slice(block.char_at(r, col));
            }
        }
    }
}

/// Gather one output column from hash-table payloads for a resolved match
/// vector, with the builder variant dispatched once per column.
pub fn gather_payload_column(
    builder: &mut ColBuilder,
    session: &crate::hash_table::ProbeSession<'_>,
    col: usize,
    matches: &[crate::hash_table::ProbeMatch],
) {
    match builder {
        ColBuilder::I32(v) => v.extend(matches.iter().map(|&m| session.payload(m).i32_at(col))),
        ColBuilder::I64(v) => v.extend(matches.iter().map(|&m| session.payload(m).i64_at(col))),
        ColBuilder::F64(v) => v.extend(matches.iter().map(|&m| session.payload(m).f64_at(col))),
        ColBuilder::Date(v) => v.extend(matches.iter().map(|&m| session.payload(m).date_at(col))),
        ColBuilder::Char { data, .. } => {
            for &m in matches {
                data.extend_from_slice(session.payload(m).char_at(col));
            }
        }
    }
}

/// One builder per column of `schema`.
pub fn make_builders(schema: &Schema) -> Vec<ColBuilder> {
    schema
        .columns()
        .iter()
        .map(|c| ColBuilder::for_type(c.dtype))
        .collect()
}

/// Wrap finished builders as a virtual column block of `schema`.
pub fn into_virtual_block(schema: Arc<Schema>, builders: Vec<ColBuilder>) -> Result<StorageBlock> {
    let rows = builders.first().map(|b| b.len()).unwrap_or(0);
    debug_assert!(builders.iter().all(|b| b.len() == rows));
    let cols: Vec<ColumnData> = builders.into_iter().map(ColBuilder::into_data).collect();
    Ok(StorageBlock::Column(ColumnBlock::from_columns(
        schema, cols, rows,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uot_storage::{BlockFormat, Value};

    #[test]
    fn build_from_block_fields() {
        let s = Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("tag", DataType::Char(3)),
            ("v", DataType::Float64),
        ]);
        let mut b = StorageBlock::new(s.clone(), BlockFormat::Row, 1024).unwrap();
        for i in 0..4 {
            b.append_row(&[
                Value::I32(i),
                Value::Str(format!("x{i}")),
                Value::F64(i as f64),
            ])
            .unwrap();
        }
        let mut builders = make_builders(&s);
        for row in [3usize, 1] {
            for (c, builder) in builders.iter_mut().enumerate() {
                builder.push_from_block(&b, row, c);
            }
        }
        assert_eq!(builders[0].len(), 2);
        assert!(!builders[0].is_empty());
        let virt = into_virtual_block(s, builders).unwrap();
        assert_eq!(virt.num_rows(), 2);
        assert_eq!(virt.i32_at(0, 0), 3);
        assert_eq!(virt.i32_at(1, 0), 1);
        assert_eq!(virt.char_at(0, 1), b"x3 ");
        assert_eq!(virt.f64_at(1, 2), 1.0);
    }

    #[test]
    fn empty_builders_make_empty_block() {
        let s = Schema::from_pairs(&[("k", DataType::Int64), ("d", DataType::Date)]);
        let builders = make_builders(&s);
        assert_eq!(builders.len(), 2);
        let virt = into_virtual_block(s, builders).unwrap();
        assert_eq!(virt.num_rows(), 0);
    }

    #[test]
    fn for_type_covers_all() {
        assert!(matches!(
            ColBuilder::for_type(DataType::Int64),
            ColBuilder::I64(_)
        ));
        assert!(matches!(
            ColBuilder::for_type(DataType::Date),
            ColBuilder::Date(_)
        ));
        match ColBuilder::for_type(DataType::Char(7)) {
            ColBuilder::Char { width, .. } => assert_eq!(width, 7),
            other => panic!("unexpected {other:?}"),
        }
    }
}
