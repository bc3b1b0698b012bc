//! Batched key extraction and hashing.
//!
//! Row-at-a-time key construction ([`HashKey::from_row`]) re-dispatches on the
//! schema for every row of every block. A [`KeyExtractor`] is compiled once
//! per (schema, key-columns) pair — at plan-build time in `uot-core` — and
//! turns a whole block into a [`KeyBatch`] (packed keys + Fx hashes) with one
//! dispatch: single `Int32`/`Int64`/`Date` keys read the typed column slice
//! directly and never touch the `HashKey` enum on the way in, composite keys
//! up to 16 encoded bytes are packed column-at-a-time into `u128`s, and only
//! wide keys fall back to per-row [`HashKey::Var`] construction.
//!
//! The batch owns reusable buffers, so a per-work-order scratch `KeyBatch`
//! amortizes allocation across every block the work order touches. Hashes are
//! always [`hash_of`]-consistent: the batched pipeline and the scalar
//! reference path agree on every shard, slot, and Bloom position.

use crate::block::StorageBlock;
use crate::error::StorageError;
use crate::hash_key::{hash_fixed, hash_var, HashKey};
use crate::schema::Schema;
use crate::types::DataType;
use crate::Result;

/// Reusable output of one batched key-extraction pass: one packed key and one
/// 64-bit Fx hash per (selected) input row.
#[derive(Debug, Default, Clone)]
pub struct KeyBatch {
    hashes: Vec<u64>,
    data: KeyData,
}

/// Packed key storage. Fixed keys (≤ 16 encoded bytes — every TPC-H join and
/// group-by key) stay as raw `u128`s and only become [`HashKey`]s when an
/// operator must retain one (hash-table insert, group map); wide keys are
/// materialized eagerly.
#[derive(Debug, Clone)]
enum KeyData {
    Fixed { packed: Vec<u128>, width: u8 },
    Var(Vec<HashKey>),
}

impl Default for KeyData {
    fn default() -> Self {
        KeyData::Fixed {
            packed: Vec::new(),
            width: 0,
        }
    }
}

impl KeyBatch {
    /// An empty batch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys extracted by the last pass.
    #[inline]
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when the last pass selected no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The Fx hash of every extracted key, in input-row order.
    #[inline]
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Compare extracted key `i` against a stored [`HashKey`] without
    /// materializing it (no allocation for fixed-width keys).
    #[inline]
    pub fn key_eq(&self, i: usize, other: &HashKey) -> bool {
        match &self.data {
            KeyData::Fixed { packed, width } => {
                matches!(other, HashKey::Fixed(p, w) if *p == packed[i] && *w == *width)
            }
            KeyData::Var(keys) => keys[i] == *other,
        }
    }

    /// The packed keys and their encoded width, when the last pass was
    /// fixed-width (keys of at most 16 encoded bytes).
    #[inline]
    pub fn packed(&self) -> Option<(&[u128], u8)> {
        match &self.data {
            KeyData::Fixed { packed, width } => Some((packed, *width)),
            KeyData::Var(_) => None,
        }
    }

    /// The materialized keys, when the last pass was wide (more than 16
    /// encoded bytes).
    #[inline]
    pub fn wide(&self) -> Option<&[HashKey]> {
        match &self.data {
            KeyData::Var(keys) => Some(keys),
            KeyData::Fixed { .. } => None,
        }
    }

    /// Materialize extracted key `i` as an owned [`HashKey`] (cheap for fixed
    /// keys, a clone for wide keys). Bit-identical to what
    /// [`HashKey::from_row`] produces for the same row.
    #[inline]
    pub fn key_at(&self, i: usize) -> HashKey {
        match &self.data {
            KeyData::Fixed { packed, width } => HashKey::Fixed(packed[i], *width),
            KeyData::Var(keys) => keys[i].clone(),
        }
    }

    /// Reset buffers for a fixed-width pass, keeping allocations.
    fn reset_fixed(&mut self, width: u8, n: usize) -> &mut Vec<u128> {
        self.hashes.clear();
        self.hashes.reserve(n);
        if !matches!(self.data, KeyData::Fixed { .. }) {
            self.data = KeyData::Fixed {
                packed: Vec::new(),
                width,
            };
        }
        match &mut self.data {
            KeyData::Fixed { packed, width: w } => {
                *w = width;
                packed.clear();
                packed.reserve(n);
                packed
            }
            KeyData::Var(_) => unreachable!("reset to Fixed above"),
        }
    }

    /// Reset buffers for a wide-key pass, keeping allocations.
    fn reset_var(&mut self, n: usize) -> &mut Vec<HashKey> {
        self.hashes.clear();
        self.hashes.reserve(n);
        if !matches!(self.data, KeyData::Var(_)) {
            self.data = KeyData::Var(Vec::new());
        }
        match &mut self.data {
            KeyData::Var(keys) => {
                keys.clear();
                keys.reserve(n);
                keys
            }
            KeyData::Fixed { .. } => unreachable!("reset to Var above"),
        }
    }
}

/// One field of a packed composite key: source column, type, and byte offset
/// inside the little-endian `u128` encoding.
#[derive(Debug, Clone, Copy)]
struct FieldPlan {
    col: usize,
    dtype: DataType,
    off: usize,
}

/// A key-extraction routine compiled once per (schema, key-columns) pair.
///
/// Compilation resolves column indices, types, offsets and the fast-path
/// shape, so extraction itself performs a single dispatch per block (or per
/// field for composites) instead of one per row.
#[derive(Debug, Clone)]
pub struct KeyExtractor(Shape);

/// The compiled fast-path shape (private: callers only extract).
#[derive(Debug, Clone)]
enum Shape {
    /// Single 4-byte integer key (`Int32`, or `Date` when `date`).
    I32 { col: usize, date: bool },
    /// Single `Int64` key.
    I64 { col: usize },
    /// Composite (or single `Char`) key with encoded width ≤ 16 bytes.
    Fixed { fields: Vec<FieldPlan>, width: u8 },
    /// Wide keys (> 16 encoded bytes): per-row [`HashKey::Var`] fallback.
    Var { cols: Vec<usize> },
}

impl KeyExtractor {
    /// Compile an extractor for key columns `cols` of `schema`.
    ///
    /// Errors on out-of-range columns or unhashable (float) key types — the
    /// same validation `PlanBuilder` applies, so compiled extractors certify
    /// that the hot path needs no per-row checks.
    pub fn compile(schema: &Schema, cols: &[usize]) -> Result<KeyExtractor> {
        for &c in cols {
            if c >= schema.len() {
                return Err(StorageError::ColumnOutOfRange {
                    index: c,
                    len: schema.len(),
                });
            }
            if !schema.dtype(c).hashable() {
                return Err(StorageError::UnhashableType(schema.dtype(c).name()));
            }
        }
        if let [col] = *cols {
            match schema.dtype(col) {
                DataType::Int32 => return Ok(KeyExtractor(Shape::I32 { col, date: false })),
                DataType::Date => return Ok(KeyExtractor(Shape::I32 { col, date: true })),
                DataType::Int64 => return Ok(KeyExtractor(Shape::I64 { col })),
                _ => {}
            }
        }
        let width: usize = cols.iter().map(|&c| schema.dtype(c).width()).sum();
        if width <= 16 {
            let mut fields = Vec::with_capacity(cols.len());
            let mut off = 0;
            for &c in cols {
                let dtype = schema.dtype(c);
                fields.push(FieldPlan { col: c, dtype, off });
                off += dtype.width();
            }
            Ok(KeyExtractor(Shape::Fixed {
                fields,
                width: width as u8,
            }))
        } else {
            Ok(KeyExtractor(Shape::Var {
                cols: cols.to_vec(),
            }))
        }
    }

    /// Extract keys and hashes for every row of `block` into `batch`.
    pub fn extract_block(&self, block: &StorageBlock, batch: &mut KeyBatch) {
        let n = block.num_rows();
        match &self.0 {
            Shape::I32 { col, date } => {
                let packed = batch.reset_fixed(4, n);
                if let Some(data) = block.column_data(*col) {
                    let vals = if *date { data.as_date() } else { data.as_i32() };
                    packed.extend(vals.iter().map(|&v| v as u32 as u128));
                } else if *date {
                    packed.extend((0..n).map(|r| block.date_at(r, *col) as u32 as u128));
                } else {
                    packed.extend((0..n).map(|r| block.i32_at(r, *col) as u32 as u128));
                }
                batch
                    .hashes
                    .extend(fixed_packed(&batch.data).iter().map(|&p| hash_fixed(p, 4)));
            }
            Shape::I64 { col } => {
                let packed = batch.reset_fixed(8, n);
                if let Some(data) = block.column_data(*col) {
                    packed.extend(data.as_i64().iter().map(|&v| v as u64 as u128));
                } else {
                    packed.extend((0..n).map(|r| block.i64_at(r, *col) as u64 as u128));
                }
                batch
                    .hashes
                    .extend(fixed_packed(&batch.data).iter().map(|&p| hash_fixed(p, 8)));
            }
            Shape::Fixed { fields, width } => {
                let packed = batch.reset_fixed(*width, n);
                packed.resize(n, 0);
                for f in fields {
                    pack_field_all(block, *f, packed);
                }
                let w = *width;
                batch
                    .hashes
                    .extend(fixed_packed(&batch.data).iter().map(|&p| hash_fixed(p, w)));
            }
            Shape::Var { cols } => {
                let keys = batch.reset_var(n);
                keys.extend((0..n).map(|r| HashKey::from_row(block, r, cols)));
                batch.hashes.extend(var_keys(&batch.data).iter().map(|k| {
                    let HashKey::Var(bytes) = k else {
                        unreachable!("Var extractor emits Var keys")
                    };
                    hash_var(bytes)
                }));
            }
        }
    }

    /// Extract keys and hashes for the selected `rows` of `block` (e.g. a
    /// select's surviving rows, for its LIP filters) into `batch`.
    pub fn extract_rows(&self, block: &StorageBlock, rows: &[u32], batch: &mut KeyBatch) {
        let n = rows.len();
        match &self.0 {
            Shape::I32 { col, date } => {
                let packed = batch.reset_fixed(4, n);
                if let Some(data) = block.column_data(*col) {
                    let vals = if *date { data.as_date() } else { data.as_i32() };
                    packed.extend(rows.iter().map(|&r| vals[r as usize] as u32 as u128));
                } else if *date {
                    packed.extend(
                        rows.iter()
                            .map(|&r| block.date_at(r as usize, *col) as u32 as u128),
                    );
                } else {
                    packed.extend(
                        rows.iter()
                            .map(|&r| block.i32_at(r as usize, *col) as u32 as u128),
                    );
                }
                batch
                    .hashes
                    .extend(fixed_packed(&batch.data).iter().map(|&p| hash_fixed(p, 4)));
            }
            Shape::I64 { col } => {
                let packed = batch.reset_fixed(8, n);
                if let Some(data) = block.column_data(*col) {
                    let vals = data.as_i64();
                    packed.extend(rows.iter().map(|&r| vals[r as usize] as u64 as u128));
                } else {
                    packed.extend(
                        rows.iter()
                            .map(|&r| block.i64_at(r as usize, *col) as u64 as u128),
                    );
                }
                batch
                    .hashes
                    .extend(fixed_packed(&batch.data).iter().map(|&p| hash_fixed(p, 8)));
            }
            Shape::Fixed { fields, width } => {
                let packed = batch.reset_fixed(*width, n);
                packed.resize(n, 0);
                for f in fields {
                    pack_field_rows(block, *f, rows, packed);
                }
                let w = *width;
                batch
                    .hashes
                    .extend(fixed_packed(&batch.data).iter().map(|&p| hash_fixed(p, w)));
            }
            Shape::Var { cols } => {
                let keys = batch.reset_var(n);
                keys.extend(
                    rows.iter()
                        .map(|&r| HashKey::from_row(block, r as usize, cols)),
                );
                batch.hashes.extend(var_keys(&batch.data).iter().map(|k| {
                    let HashKey::Var(bytes) = k else {
                        unreachable!("Var extractor emits Var keys")
                    };
                    hash_var(bytes)
                }));
            }
        }
    }
}

#[inline]
fn fixed_packed(data: &KeyData) -> &[u128] {
    match data {
        KeyData::Fixed { packed, .. } => packed,
        KeyData::Var(_) => unreachable!("fixed pass"),
    }
}

#[inline]
fn var_keys(data: &KeyData) -> &[HashKey] {
    match data {
        KeyData::Var(keys) => keys,
        KeyData::Fixed { .. } => unreachable!("var pass"),
    }
}

/// OR one field's little-endian encoding into every packed key (all rows).
/// Column-store blocks get one typed slice loop per field; row-store blocks
/// use the precompiled typed accessor (no per-row schema lookup).
fn pack_field_all(block: &StorageBlock, f: FieldPlan, packed: &mut [u128]) {
    let shift = 8 * f.off as u32;
    match f.dtype {
        DataType::Int32 | DataType::Date => {
            let is_date = matches!(f.dtype, DataType::Date);
            if let Some(data) = block.column_data(f.col) {
                let vals = if is_date {
                    data.as_date()
                } else {
                    data.as_i32()
                };
                for (p, &v) in packed.iter_mut().zip(vals) {
                    *p |= (v as u32 as u128) << shift;
                }
            } else {
                for (r, p) in packed.iter_mut().enumerate() {
                    let v = if is_date {
                        block.date_at(r, f.col)
                    } else {
                        block.i32_at(r, f.col)
                    };
                    *p |= (v as u32 as u128) << shift;
                }
            }
        }
        DataType::Int64 => {
            if let Some(data) = block.column_data(f.col) {
                for (p, &v) in packed.iter_mut().zip(data.as_i64()) {
                    *p |= (v as u64 as u128) << shift;
                }
            } else {
                for (r, p) in packed.iter_mut().enumerate() {
                    *p |= (block.i64_at(r, f.col) as u64 as u128) << shift;
                }
            }
        }
        DataType::Char(_) => {
            for (r, p) in packed.iter_mut().enumerate() {
                for (j, &b) in block.char_at(r, f.col).iter().enumerate() {
                    *p |= (b as u128) << (shift + 8 * j as u32);
                }
            }
        }
        DataType::Float64 => unreachable!("unhashable type rejected at compile"),
    }
}

/// OR one field's little-endian encoding into every packed key (selected rows).
fn pack_field_rows(block: &StorageBlock, f: FieldPlan, rows: &[u32], packed: &mut [u128]) {
    let shift = 8 * f.off as u32;
    match f.dtype {
        DataType::Int32 | DataType::Date => {
            let is_date = matches!(f.dtype, DataType::Date);
            if let Some(data) = block.column_data(f.col) {
                let vals = if is_date {
                    data.as_date()
                } else {
                    data.as_i32()
                };
                for (p, &r) in packed.iter_mut().zip(rows) {
                    *p |= (vals[r as usize] as u32 as u128) << shift;
                }
            } else {
                for (p, &r) in packed.iter_mut().zip(rows) {
                    let v = if is_date {
                        block.date_at(r as usize, f.col)
                    } else {
                        block.i32_at(r as usize, f.col)
                    };
                    *p |= (v as u32 as u128) << shift;
                }
            }
        }
        DataType::Int64 => {
            if let Some(data) = block.column_data(f.col) {
                let vals = data.as_i64();
                for (p, &r) in packed.iter_mut().zip(rows) {
                    *p |= (vals[r as usize] as u64 as u128) << shift;
                }
            } else {
                for (p, &r) in packed.iter_mut().zip(rows) {
                    *p |= (block.i64_at(r as usize, f.col) as u64 as u128) << shift;
                }
            }
        }
        DataType::Char(_) => {
            for (p, &r) in packed.iter_mut().zip(rows) {
                for (j, &b) in block.char_at(r as usize, f.col).iter().enumerate() {
                    *p |= (b as u128) << (shift + 8 * j as u32);
                }
            }
        }
        DataType::Float64 => unreachable!("unhashable type rejected at compile"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockFormat;
    use crate::hash_key::hash_of;
    use crate::value::Value;

    fn block(format: BlockFormat) -> StorageBlock {
        let s = Schema::from_pairs(&[
            ("a", DataType::Int32),
            ("b", DataType::Int64),
            ("c", DataType::Char(3)),
            ("d", DataType::Date),
            ("e", DataType::Char(24)),
            ("f", DataType::Float64),
        ]);
        let mut b = StorageBlock::new(s, format, 1 << 14).unwrap();
        for i in 0..37 {
            b.append_row(&[
                Value::I32(i * 7 - 5),
                Value::I64(i as i64 * 1_000_003),
                Value::Str(format!("s{}", i % 9)),
                Value::Date(7000 + i),
                Value::Str(format!("wide-string-{i}-padding")),
                Value::F64(i as f64),
            ])
            .unwrap();
        }
        b
    }

    fn check_matches_scalar(cols: &[usize]) {
        for format in [BlockFormat::Row, BlockFormat::Column] {
            let b = block(format);
            let ex = KeyExtractor::compile(b.schema(), cols).unwrap();
            let mut batch = KeyBatch::new();
            ex.extract_block(&b, &mut batch);
            assert_eq!(batch.len(), b.num_rows());
            for r in 0..b.num_rows() {
                let scalar = HashKey::from_row(&b, r, cols);
                assert_eq!(batch.key_at(r), scalar, "{format:?} cols {cols:?} row {r}");
                assert!(batch.key_eq(r, &scalar));
                assert_eq!(batch.hashes()[r], hash_of(&scalar));
            }
            // Selected-rows extraction agrees with full extraction.
            let rows: Vec<u32> = (0..b.num_rows() as u32).step_by(3).collect();
            let mut sel = KeyBatch::new();
            ex.extract_rows(&b, &rows, &mut sel);
            assert_eq!(sel.len(), rows.len());
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(sel.key_at(i), batch.key_at(r as usize));
                assert_eq!(sel.hashes()[i], batch.hashes()[r as usize]);
            }
        }
    }

    #[test]
    fn single_i32_matches_scalar() {
        check_matches_scalar(&[0]);
    }

    #[test]
    fn single_i64_matches_scalar() {
        check_matches_scalar(&[1]);
    }

    #[test]
    fn single_date_matches_scalar() {
        check_matches_scalar(&[3]);
    }

    #[test]
    fn single_char_matches_scalar() {
        check_matches_scalar(&[2]);
    }

    #[test]
    fn composite_fixed_matches_scalar() {
        check_matches_scalar(&[0, 1]);
        check_matches_scalar(&[3, 2, 0]);
    }

    #[test]
    fn wide_var_matches_scalar() {
        check_matches_scalar(&[4]);
        check_matches_scalar(&[4, 0]);
        check_matches_scalar(&[0, 1, 2, 3]);
    }

    #[test]
    fn batch_reuse_across_shapes() {
        let b = block(BlockFormat::Column);
        let mut batch = KeyBatch::new();
        for cols in [vec![0], vec![4], vec![0, 1], vec![2]] {
            let ex = KeyExtractor::compile(b.schema(), &cols).unwrap();
            ex.extract_block(&b, &mut batch);
            for r in 0..b.num_rows() {
                assert_eq!(batch.key_at(r), HashKey::from_row(&b, r, &cols));
            }
        }
    }

    #[test]
    fn compile_rejects_bad_columns() {
        let b = block(BlockFormat::Row);
        assert!(matches!(
            KeyExtractor::compile(b.schema(), &[5]),
            Err(StorageError::UnhashableType(_))
        ));
        assert!(KeyExtractor::compile(b.schema(), &[99]).is_err());
    }
}
