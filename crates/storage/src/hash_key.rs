//! Compact join/group keys and a fast non-cryptographic hasher.
//!
//! Join and aggregation operators key their hash tables by one or more
//! columns. [`HashKey`] packs any key whose encoded width fits in 16 bytes
//! into an inline `u128` (all TPC-H join keys qualify) and falls back to a
//! boxed byte string otherwise, so the hot probe path never allocates.
//!
//! Hashing uses the Fx algorithm (the multiply-xor hash used by rustc),
//! implemented here directly since we keep the dependency set minimal.

use crate::block::StorageBlock;
use crate::error::StorageError;
use crate::types::DataType;
use crate::Result;
use std::hash::{BuildHasherDefault, Hasher};

/// A compact, hashable encoding of one or more key columns of a row. The
/// derived order is a total order on the encoding (not on the decoded
/// values): it only breaks ties between keys that compare equal otherwise.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HashKey {
    /// Keys up to 16 encoded bytes, packed little-endian into a `u128`.
    /// The second field is the encoded length, to keep e.g. `Char(4)` keys
    /// `"ab  "` distinct from `Char(2)` keys `"ab"` in mixed-width debugging
    /// scenarios (within one hash table the length is constant).
    Fixed(u128, u8),
    /// Wider keys.
    Var(Box<[u8]>),
}

/// Total encoded width in bytes of the key columns `cols` of `schema_types`.
fn encoded_width(block: &StorageBlock, cols: &[usize]) -> usize {
    cols.iter().map(|&c| block.schema().dtype(c).width()).sum()
}

impl HashKey {
    /// Build the key for row `row` of `block` from columns `cols`.
    ///
    /// Key-column types are validated once at plan-build time (see
    /// `PlanBuilder` in `uot-core`), so the hot path only carries a
    /// debug-assert; use [`HashKey::try_from_row`] for unvalidated input.
    pub fn from_row(block: &StorageBlock, row: usize, cols: &[usize]) -> HashKey {
        debug_assert!(
            cols.iter().all(|&c| block.schema().dtype(c).hashable()),
            "unhashable key column reached HashKey::from_row; \
             plan validation should have rejected it"
        );
        let width = encoded_width(block, cols);
        if width <= 16 {
            let mut buf = [0u8; 16];
            let mut off = 0;
            for &c in cols {
                match block.schema().dtype(c) {
                    DataType::Int32 => {
                        buf[off..off + 4].copy_from_slice(&block.i32_at(row, c).to_le_bytes());
                        off += 4;
                    }
                    DataType::Date => {
                        buf[off..off + 4].copy_from_slice(&block.date_at(row, c).to_le_bytes());
                        off += 4;
                    }
                    DataType::Int64 => {
                        buf[off..off + 8].copy_from_slice(&block.i64_at(row, c).to_le_bytes());
                        off += 8;
                    }
                    DataType::Char(n) => {
                        let bytes = block.char_at(row, c);
                        buf[off..off + n as usize].copy_from_slice(bytes);
                        off += n as usize;
                    }
                    DataType::Float64 => unreachable!("debug-asserted above"),
                }
            }
            HashKey::Fixed(u128::from_le_bytes(buf), width as u8)
        } else {
            let mut buf = Vec::with_capacity(width);
            for &c in cols {
                match block.schema().dtype(c) {
                    DataType::Int32 => buf.extend_from_slice(&block.i32_at(row, c).to_le_bytes()),
                    DataType::Date => buf.extend_from_slice(&block.date_at(row, c).to_le_bytes()),
                    DataType::Int64 => buf.extend_from_slice(&block.i64_at(row, c).to_le_bytes()),
                    DataType::Char(_) => buf.extend_from_slice(block.char_at(row, c)),
                    DataType::Float64 => unreachable!("debug-asserted above"),
                }
            }
            HashKey::Var(buf.into_boxed_slice())
        }
    }

    /// Validating variant of [`HashKey::from_row`] for unvalidated input
    /// (errors on float key columns, whose bit patterns are non-canonical).
    pub fn try_from_row(block: &StorageBlock, row: usize, cols: &[usize]) -> Result<HashKey> {
        for &c in cols {
            if !block.schema().dtype(c).hashable() {
                return Err(StorageError::UnhashableType(block.schema().dtype(c).name()));
            }
        }
        Ok(HashKey::from_row(block, row, cols))
    }

    /// Build a key from a single `i64` (convenience for synthetic workloads).
    pub fn from_i64(v: i64) -> HashKey {
        HashKey::Fixed(v as u64 as u128, 8)
    }

    /// Build a key from a single `i32`.
    pub fn from_i32(v: i32) -> HashKey {
        HashKey::Fixed(v as u32 as u128, 4)
    }
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One round of the Fx multiply-xor mix (the [`FxHasher`] step function),
/// exposed so batch hashing can run it in tight loops without going through
/// the `Hasher` trait machinery.
#[inline(always)]
pub fn fx_mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// Hash of a [`HashKey::Fixed`] key, computable directly from the packed
/// value without constructing the enum. `hash_of(&HashKey::Fixed(p, w)) ==
/// hash_fixed(p, w)` always holds — the batched key pipeline and the scalar
/// probe path must agree on shard and slot placement.
#[inline(always)]
pub fn hash_fixed(packed: u128, width: u8) -> u64 {
    let h = fx_mix(0, packed as u64);
    let h = fx_mix(h, (packed >> 64) as u64);
    fx_mix(h, width as u64)
}

/// Hash of a [`HashKey::Var`] key's encoded bytes.
#[inline]
pub fn hash_var(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// The canonical 64-bit hash of a [`HashKey`], used for hash-table shard and
/// slot placement and for Bloom-filter probe positions. Equal keys always
/// produce equal hashes regardless of which pipeline (scalar or batched)
/// computed them.
#[inline]
pub fn hash_of(key: &HashKey) -> u64 {
    match key {
        HashKey::Fixed(packed, width) => hash_fixed(*packed, *width),
        HashKey::Var(bytes) => hash_var(bytes),
    }
}

/// The Fx multiply-xor hasher (as used in rustc): fast on short keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`], for use with `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hash a [`HashKey`] to a bucket index in `[0, n_buckets)`.
#[inline]
pub fn bucket_of(key: &HashKey, n_buckets: usize) -> usize {
    use std::hash::BuildHasher;
    (FxBuildHasher::default().hash_one(key) % n_buckets as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockFormat;
    use crate::schema::Schema;
    use crate::value::Value;

    fn block() -> StorageBlock {
        let s = Schema::from_pairs(&[
            ("a", DataType::Int32),
            ("b", DataType::Int64),
            ("c", DataType::Char(3)),
            ("d", DataType::Float64),
            ("e", DataType::Char(20)),
        ]);
        let mut b = StorageBlock::new(s, BlockFormat::Column, 4096).unwrap();
        b.append_row(&[
            Value::I32(7),
            Value::I64(42),
            Value::Str("xy".into()),
            Value::F64(1.5),
            Value::Str("long-string-value".into()),
        ])
        .unwrap();
        b.append_row(&[
            Value::I32(7),
            Value::I64(43),
            Value::Str("xy".into()),
            Value::F64(2.5),
            Value::Str("other".into()),
        ])
        .unwrap();
        b
    }

    #[test]
    fn single_column_keys_match() {
        let b = block();
        let k0 = HashKey::from_row(&b, 0, &[0]);
        let k1 = HashKey::from_row(&b, 1, &[0]);
        assert_eq!(k0, k1); // same a=7
        assert_eq!(k0, HashKey::from_i32(7));
    }

    #[test]
    fn composite_keys_distinguish_rows() {
        let b = block();
        let k0 = HashKey::from_row(&b, 0, &[0, 1]);
        let k1 = HashKey::from_row(&b, 1, &[0, 1]);
        assert_ne!(k0, k1); // b differs
        assert!(matches!(k0, HashKey::Fixed(_, 12)));
    }

    #[test]
    fn wide_keys_use_var() {
        let b = block();
        let k = HashKey::from_row(&b, 0, &[4]);
        assert!(matches!(k, HashKey::Var(_)));
        let k2 = HashKey::from_row(&b, 1, &[4]);
        assert_ne!(k, k2);
    }

    #[test]
    fn char_keys_compare_padded() {
        let b = block();
        let k0 = HashKey::from_row(&b, 0, &[2]);
        let k1 = HashKey::from_row(&b, 1, &[2]);
        assert_eq!(k0, k1); // both "xy "
    }

    #[test]
    fn float_keys_rejected() {
        let b = block();
        assert!(matches!(
            HashKey::try_from_row(&b, 0, &[3]),
            Err(StorageError::UnhashableType(_))
        ));
        // ... including inside composites
        assert!(HashKey::try_from_row(&b, 0, &[0, 3]).is_err());
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000i64 {
            let k = HashKey::from_i64(i);
            let b1 = bucket_of(&k, 64);
            let b2 = bucket_of(&k, 64);
            assert_eq!(b1, b2);
            seen.insert(b1);
        }
        // 1000 keys into 64 buckets should touch nearly all buckets
        assert!(seen.len() > 56, "poor spread: {} buckets", seen.len());
    }

    #[test]
    fn fx_hasher_handles_all_write_paths() {
        use std::hash::Hasher;
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3]); // remainder path
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]); // chunk + remainder
        h.write_u8(5);
        h.write_u64(99);
        h.write_u128(u128::MAX);
        h.write_usize(3);
        let a = h.finish();
        assert_ne!(a, 0);
    }

    #[test]
    fn keys_work_in_hashmap() {
        use std::collections::HashMap;
        let mut m: HashMap<HashKey, usize, FxBuildHasher> = HashMap::default();
        let b = block();
        m.insert(HashKey::from_row(&b, 0, &[1]), 0);
        m.insert(HashKey::from_row(&b, 1, &[1]), 1);
        assert_eq!(m.len(), 2);
        assert_eq!(m[&HashKey::from_i64(42)], 0);
        assert_eq!(m[&HashKey::from_i64(43)], 1);
    }
}
