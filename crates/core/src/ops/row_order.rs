//! One typed row order and gather, shared by the blocking operators.
//!
//! Sort and the aggregate finalize both order rows that live in blocks — the
//! sort's collected input, the aggregate's group-value columns when they do
//! not pack into an integer key — and emit them in that order. [`RowOrder`]
//! compares two `(block, row)` references field by field with the column
//! type matched per field, never decoding a row into `Value`s; [`gather`]
//! copies the sort's ordered rows into one typed column per output column,
//! which it wraps as a virtual block for its bulk output copy.

use crate::plan::SortKey;
use std::cmp::Ordering;
use std::sync::Arc;
use uot_storage::{ColumnData, DataType, Schema, StorageBlock};

/// A row of one of several blocks: `(block index, row index)`.
pub(crate) type RowRef = (u32, u32);

/// The total order of rows under a list of sort keys: each key in turn
/// (`desc` reversing it), then every remaining column ascending as the
/// tiebreak, then the reference itself, so rows equal field by field keep
/// their input order as under a stable sort — also when only the top k are
/// selected.
///
/// Per field it agrees with `Value::partial_cmp` on the decoded values:
/// `Float64` fields that do not compare (NaN) count as equal, and `Char`
/// fields compare their bytes without the trailing whitespace decoding
/// trims.
pub(crate) struct RowOrder<'a> {
    blocks: &'a [Arc<StorageBlock>],
    /// `(column, type, descending)` in comparison order.
    fields: Vec<(usize, DataType, bool)>,
}

impl<'a> RowOrder<'a> {
    /// The order of rows of `blocks` (all of schema `schema`) under `keys`.
    pub(crate) fn new(blocks: &'a [Arc<StorageBlock>], schema: &Schema, keys: &[SortKey]) -> Self {
        let mut fields: Vec<_> = keys
            .iter()
            .map(|k| (k.col, schema.dtype(k.col), k.desc))
            .collect();
        // A key column already compared equal would compare equal again.
        fields.extend(
            (0..schema.len())
                .filter(|&c| keys.iter().all(|k| k.col != c))
                .map(|c| (c, schema.dtype(c), false)),
        );
        RowOrder { blocks, fields }
    }

    /// Compare rows `a` and `b`.
    #[inline]
    pub(crate) fn cmp(&self, a: RowRef, b: RowRef) -> Ordering {
        self.cmp_fields(a, b).then_with(|| a.cmp(&b))
    }

    /// Compare rows `a` and `b` field by field only: rows equal in every
    /// field compare equal.
    #[inline]
    pub(crate) fn cmp_fields(&self, a: RowRef, b: RowRef) -> Ordering {
        let (x, i) = (&*self.blocks[a.0 as usize], a.1 as usize);
        let (y, j) = (&*self.blocks[b.0 as usize], b.1 as usize);
        for &(c, ty, desc) in &self.fields {
            let ord = match ty {
                DataType::Int32 => x.i32_at(i, c).cmp(&y.i32_at(j, c)),
                DataType::Int64 => x.i64_at(i, c).cmp(&y.i64_at(j, c)),
                DataType::Float64 => x
                    .f64_at(i, c)
                    .partial_cmp(&y.f64_at(j, c))
                    .unwrap_or(Ordering::Equal),
                DataType::Date => x.date_at(i, c).cmp(&y.date_at(j, c)),
                DataType::Char(_) => cmp_char(x.char_at(i, c), y.char_at(j, c)),
            };
            if ord != Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        Ordering::Equal
    }
}

/// Order two padded `Char` fields as their decoded strings order: bytes
/// compared after trimming trailing whitespace. ASCII fields trim the ASCII
/// whitespace `str::trim_end` removes; any other field takes the decoding
/// path itself (lossy UTF-8, then `trim_end`), so the order never differs
/// from the decoded values'.
#[inline]
fn cmp_char(a: &[u8], b: &[u8]) -> Ordering {
    if a.is_ascii() && b.is_ascii() {
        trim_ascii_ws(a).cmp(trim_ascii_ws(b))
    } else {
        String::from_utf8_lossy(a)
            .trim_end()
            .cmp(String::from_utf8_lossy(b).trim_end())
    }
}

/// `bytes` without its trailing ASCII `White_Space` (`\t` through `\r`, and
/// space — `u8::is_ascii_whitespace` omits `\x0B`).
#[inline]
fn trim_ascii_ws(bytes: &[u8]) -> &[u8] {
    let end = bytes
        .iter()
        .rposition(|&c| !matches!(c, b'\t'..=b'\r' | b' '))
        .map_or(0, |i| i + 1);
    &bytes[..end]
}

/// Copy the rows `refs` of `blocks`, in order, into one typed column per
/// column of `schema`.
pub(crate) fn gather(
    blocks: &[Arc<StorageBlock>],
    refs: &[RowRef],
    schema: &Schema,
) -> Vec<ColumnData> {
    (0..schema.len())
        .map(|c| {
            let mut col = ColumnData::with_capacity(schema.dtype(c), refs.len());
            for &(b, r) in refs {
                push_field(&mut col, &blocks[b as usize], r as usize, c);
            }
            col
        })
        .collect()
}

/// Append field `(row, col)` of `block` to `dst`, a column of its type.
#[inline]
pub(crate) fn push_field(dst: &mut ColumnData, block: &StorageBlock, row: usize, col: usize) {
    match dst {
        ColumnData::I32(v) => v.push(block.i32_at(row, col)),
        ColumnData::I64(v) => v.push(block.i64_at(row, col)),
        ColumnData::F64(v) => v.push(block.f64_at(row, col)),
        ColumnData::Date(v) => v.push(block.date_at(row, col)),
        ColumnData::Char { data, .. } => data.extend_from_slice(block.char_at(row, col)),
    }
}
