//! Property-based tests for the storage layer invariants:
//! * row/column blocks are interchangeable representations of the same rows,
//! * blocks round-trip arbitrary values exactly,
//! * `append_range` copies any tail of a block between any two formats,
//! * the table builder partitions any row stream losslessly,
//! * bitmaps behave like the reference `Vec<bool>` model.

use proptest::prelude::*;
use std::sync::Arc;
use uot_storage::{
    Bitmap, BlockFormat, DataType, HashKey, Schema, StorageBlock, TableBuilder, Value,
};

fn arb_value(dtype: DataType) -> BoxedStrategy<Value> {
    match dtype {
        DataType::Int32 => any::<i32>().prop_map(Value::I32).boxed(),
        DataType::Int64 => any::<i64>().prop_map(Value::I64).boxed(),
        DataType::Float64 => {
            // finite, non-NaN floats so equality is well-defined
            (-1e12f64..1e12f64).prop_map(Value::F64).boxed()
        }
        DataType::Date => (-30000i32..30000).prop_map(Value::Date).boxed(),
        DataType::Char(n) => proptest::collection::vec(b'a'..=b'z', 0..=n as usize)
            .prop_map(|bytes| Value::Str(String::from_utf8(bytes).unwrap()))
            .boxed(),
    }
}

fn arb_schema() -> impl Strategy<Value = Arc<Schema>> {
    proptest::collection::vec(
        prop_oneof![
            Just(DataType::Int32),
            Just(DataType::Int64),
            Just(DataType::Float64),
            Just(DataType::Date),
            (1u16..12).prop_map(DataType::Char),
        ],
        1..6,
    )
    .prop_map(|types| {
        Schema::new(
            types
                .into_iter()
                .enumerate()
                .map(|(i, t)| uot_storage::Column::new(format!("c{i}"), t))
                .collect(),
        )
    })
}

fn arb_rows(schema: Arc<Schema>, max_rows: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    let row = schema
        .columns()
        .iter()
        .map(|c| arb_value(c.dtype))
        .collect::<Vec<_>>();
    proptest::collection::vec(row, 0..max_rows)
}

/// Strings read back from Char columns lose their trailing spaces (padding is
/// indistinguishable from content spaces by design); normalize for comparison.
fn normalize(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Str(s) => Value::Str(s.trim_end().to_string()),
                    other => other.clone(),
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_and_column_blocks_agree(
        (schema, rows) in arb_schema().prop_flat_map(|s| {
            let rows = arb_rows(s.clone(), 40);
            (Just(s), rows)
        })
    ) {
        let mut rb = StorageBlock::new(schema.clone(), BlockFormat::Row, 1 << 20).unwrap();
        let mut cb = StorageBlock::new(schema.clone(), BlockFormat::Column, 1 << 20).unwrap();
        for r in &rows {
            prop_assert!(rb.append_row(r).unwrap());
            prop_assert!(cb.append_row(r).unwrap());
        }
        prop_assert_eq!(rb.all_rows(), cb.all_rows());
        prop_assert_eq!(rb.all_rows(), normalize(&rows));
    }

    #[test]
    fn append_range_reproduces_the_tail(
        (schema, rows, start) in arb_schema().prop_flat_map(|s| {
            arb_rows(s.clone(), 30).prop_flat_map(move |rows| {
                let n = rows.len();
                (Just(s.clone()), Just(rows), 0..=n)
            })
        }),
        dst_tuples in 1usize..=8,
        src_fmt in prop_oneof![Just(BlockFormat::Row), Just(BlockFormat::Column)],
        dst_fmt in prop_oneof![Just(BlockFormat::Row), Just(BlockFormat::Column)],
    ) {
        let mut src = StorageBlock::new(schema.clone(), src_fmt, 1 << 20).unwrap();
        for r in &rows {
            prop_assert!(src.append_row(r).unwrap());
        }
        // Small destinations: each call stops at the block's capacity, and
        // the caller continues from where it stopped in a fresh block.
        let block_bytes = schema.tuple_width() * dst_tuples;
        let mut got = Vec::new();
        let mut row = start;
        while row < src.num_rows() {
            let mut dst = StorageBlock::new(schema.clone(), dst_fmt, block_bytes).unwrap();
            let k = dst.append_range(&src, row);
            prop_assert_eq!(k, dst_tuples.min(src.num_rows() - row));
            prop_assert_eq!(dst.num_rows(), k);
            // Either the block is full or `src` is used up.
            prop_assert_eq!(dst.append_range(&src, row + k), 0);
            got.extend(dst.all_rows());
            row += k;
        }
        prop_assert_eq!(&got[..], &src.all_rows()[start..]);
    }

    #[test]
    fn table_builder_is_lossless(
        (schema, rows) in arb_schema().prop_flat_map(|s| {
            let rows = arb_rows(s.clone(), 100);
            (Just(s), rows)
        }),
        // small blocks force multi-block tables
        block_tuples in 1usize..8,
    ) {
        let block_bytes = schema.tuple_width() * block_tuples;
        let mut tb = TableBuilder::new("t", schema.clone(), BlockFormat::Column, block_bytes);
        for r in &rows {
            tb.append(r).unwrap();
        }
        let t = tb.finish();
        prop_assert_eq!(t.num_rows(), rows.len());
        prop_assert_eq!(t.all_rows(), normalize(&rows));
        // every non-final block is exactly full
        for b in t.blocks().iter().rev().skip(1) {
            prop_assert!(b.is_full());
        }
    }

    #[test]
    fn bitmap_matches_bool_vec_model(bools in proptest::collection::vec(any::<bool>(), 0..300)) {
        let mut bm = Bitmap::zeros(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            bm.assign(i, b);
        }
        prop_assert_eq!(bm.count_ones(), bools.iter().filter(|&&b| b).count());
        let expected: Vec<usize> = bools
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        prop_assert_eq!(bm.iter_ones().collect::<Vec<_>>(), expected);
        // double negation is identity
        let mut neg = bm.clone();
        neg.not_inplace();
        neg.not_inplace();
        prop_assert_eq!(neg, bm);
    }

    #[test]
    fn bitmap_and_or_match_model(
        (a, b) in proptest::collection::vec(any::<(bool, bool)>(), 0..300)
            .prop_map(|pairs| pairs.into_iter().unzip::<bool, bool, Vec<_>, Vec<_>>())
    ) {
        let mut ba = Bitmap::zeros(a.len());
        let mut bb = Bitmap::zeros(b.len());
        for i in 0..a.len() {
            ba.assign(i, a[i]);
            bb.assign(i, b[i]);
        }
        let mut and = ba.clone();
        and.and_with(&bb);
        let mut or = ba.clone();
        or.or_with(&bb);
        for i in 0..a.len() {
            prop_assert_eq!(and.get(i), a[i] && b[i]);
            prop_assert_eq!(or.get(i), a[i] || b[i]);
        }
    }

    #[test]
    fn hash_keys_injective_on_rows(vals in proptest::collection::hash_set(any::<i64>(), 0..100)) {
        // distinct i64 keys must produce distinct HashKeys
        let keys: std::collections::HashSet<HashKey> =
            vals.iter().map(|&v| HashKey::from_i64(v)).collect();
        prop_assert_eq!(keys.len(), vals.len());
    }
}
