//! Property tests for the engine's core data structures against reference
//! models: the output buffer must be a lossless re-blocker, the join hash
//! table must agree with a `HashMap` multimap, and the Bloom filter must
//! never produce false negatives.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use uot_core::bloom::BloomFilter;
use uot_core::hash_table::JoinHashTable;
use uot_core::output::{into_blocks, OutputBuffer};
use uot_storage::{
    BlockFormat, BlockPool, DataType, HashKey, KeyBatch, KeyExtractor, MemoryTracker, Schema,
    StorageBlock, Value,
};

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)])
}

fn block_of(rows: &[(i32, i64)]) -> StorageBlock {
    let mut b = StorageBlock::new(schema(), BlockFormat::Column, 1 << 20).unwrap();
    for &(k, v) in rows {
        b.append_row(&[Value::I32(k), Value::I64(v)]).unwrap();
    }
    b
}

/// One row of [`wide_schema`]: every column type the engine stores.
type WideRow = (i32, i64, f64, i32, String);

fn wide_schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("v", DataType::Int64),
        ("x", DataType::Float64),
        ("d", DataType::Date),
        ("s", DataType::Char(6)),
    ])
}

fn wide_block(rows: &[WideRow], format: BlockFormat) -> StorageBlock {
    let mut b = StorageBlock::new(wide_schema(), format, 1 << 20).unwrap();
    for (k, v, x, d, s) in rows {
        b.append_row(&[
            Value::I32(*k),
            Value::I64(*v),
            Value::F64(*x),
            Value::Date(*d),
            Value::Str(s.clone()),
        ])
        .unwrap();
    }
    b
}

fn arb_wide_row() -> impl Strategy<Value = WideRow> {
    (
        any::<i32>(),
        any::<i64>(),
        -1e12f64..1e12,
        -30000i32..30000,
        proptest::collection::vec(b'a'..=b'z', 0..=6)
            .prop_map(|bytes| String::from_utf8(bytes).unwrap()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn output_buffer_reblocks_losslessly(
        chunks in proptest::collection::vec(
            proptest::collection::vec(arb_wide_row(), 0..40),
            0..8,
        ),
        rows_per_block in 1usize..9,
        src_fmt in prop_oneof![Just(BlockFormat::Row), Just(BlockFormat::Column)],
        fmt in prop_oneof![Just(BlockFormat::Row), Just(BlockFormat::Column)],
    ) {
        let pool = BlockPool::new(MemoryTracker::new());
        let buf = OutputBuffer::new(
            0,
            wide_schema(),
            fmt,
            wide_schema().tuple_width() * rows_per_block,
        );
        let mut slots = Vec::new();
        for chunk in &chunks {
            slots.extend(buf.write_rows(&wide_block(chunk, src_fmt), &pool).unwrap());
        }
        slots.extend(buf.flush(&pool));
        let out_blocks = into_blocks(slots, &pool).unwrap();
        // Every block except possibly the last is exactly full, and the
        // concatenation equals the input concatenation.
        for b in out_blocks.iter().rev().skip(1) {
            prop_assert!(b.is_full());
        }
        let got: Vec<Vec<Value>> = out_blocks.iter().flat_map(|b| b.all_rows()).collect();
        let expect: Vec<Vec<Value>> = chunks.iter().flat_map(|c| wide_block(c, src_fmt).all_rows()).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn hash_table_agrees_with_multimap_model(
        rows in proptest::collection::vec((0i32..50, any::<i64>()), 0..300),
        probes in proptest::collection::vec(0i32..80, 0..100),
        parts in 1usize..5,
    ) {
        let ht = JoinHashTable::new(schema().project(&[1]));
        let mut model: HashMap<i32, Vec<i64>> = HashMap::new();
        // one run per block, to exercise copying rows out of several runs
        let extractor = KeyExtractor::compile(&schema(), &[0]).unwrap();
        let mut batch = KeyBatch::new();
        let mut runs = Vec::new();
        for chunk in rows.chunks(37) {
            let block = block_of(chunk);
            extractor.extract_block(&block, &mut batch);
            runs.push(ht.run(&block, &batch, &[1]));
            for &(k, v) in chunk {
                model.entry(k).or_default().push(v);
            }
        }
        // then a finalize of `parts` partitions, run in turn
        for part in 0..parts {
            ht.link(&runs, part, parts);
        }
        prop_assert_eq!(ht.len(), rows.len());
        for &p in &probes {
            let mut got = Vec::new();
            let n = ht.probe_key(&HashKey::from_i32(p), |payload| {
                got.push(payload.i64_at(0));
            });
            let mut expect = model.get(&p).cloned().unwrap_or_default();
            prop_assert_eq!(n, expect.len());
            got.sort_unstable();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
            prop_assert_eq!(
                ht.contains_key(&HashKey::from_i32(p)),
                model.contains_key(&p)
            );
        }
    }

    #[test]
    fn bloom_filter_has_no_false_negatives(
        keys in proptest::collection::hash_set(any::<i64>(), 0..500),
        capacity_hint in 1usize..2000,
    ) {
        let f = BloomFilter::with_capacity(capacity_hint, 0.02);
        for &k in &keys {
            f.insert(&HashKey::from_i64(k));
        }
        for &k in &keys {
            prop_assert!(f.may_contain(&HashKey::from_i64(k)));
        }
    }

    #[test]
    fn bloom_filter_fp_rate_reasonable_when_sized_right(
        keys in proptest::collection::hash_set(0i64..10_000, 100..400),
    ) {
        let f = BloomFilter::with_capacity(keys.len(), 0.01);
        for &k in &keys {
            f.insert(&HashKey::from_i64(k));
        }
        // probe a disjoint key range
        let fps = (100_000i64..102_000)
            .filter(|&k| f.may_contain(&HashKey::from_i64(k)))
            .count();
        // allow generous slack over the target 1%
        prop_assert!(fps < 200, "false positives: {fps}/2000");
    }
}
