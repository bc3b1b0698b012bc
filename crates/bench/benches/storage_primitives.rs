//! Criterion micro-benchmarks of the storage primitives whose costs the
//! paper's dimensions rest on: block append and single-column scan in both
//! formats, predicate evaluation (bitmap and selection vector), the bulk
//! output copy, and bitmap iteration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use uot_expr::{cmp, col, lit, CmpOp};
use uot_storage::{Bitmap, BlockFormat, DataType, Schema, StorageBlock, Value};

fn filled(format: BlockFormat, rows: i32) -> StorageBlock {
    let s = Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("v", DataType::Float64),
        ("tag", DataType::Char(16)),
        ("d", DataType::Date),
    ]);
    let mut b = StorageBlock::new(s, format, 1 << 22).unwrap();
    for i in 0..rows {
        b.append_row(&[
            Value::I32(i),
            Value::F64(i as f64),
            Value::Str(format!("tag-{i:06}")),
            Value::Date(i),
        ])
        .unwrap();
    }
    b
}

fn bench_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_append_4col");
    for fmt in [BlockFormat::Row, BlockFormat::Column] {
        g.bench_function(fmt.label(), |bench| {
            bench.iter(|| black_box(filled(fmt, 4096)).num_rows())
        });
    }
    g.finish();
}

fn bench_column_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan_one_i32_column");
    for fmt in [BlockFormat::Row, BlockFormat::Column] {
        let b = filled(fmt, 8192);
        g.bench_function(fmt.label(), |bench| {
            bench.iter(|| {
                let mut acc = 0i64;
                for r in 0..b.num_rows() {
                    acc += b.i32_at(r, 0) as i64;
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_predicate(c: &mut Criterion) {
    let mut g = c.benchmark_group("predicate_range_filter");
    let p = cmp(col(0), CmpOp::Ge, lit(1000i32)).and(cmp(col(0), CmpOp::Lt, lit(5000i32)));
    for fmt in [BlockFormat::Row, BlockFormat::Column] {
        let b = filled(fmt, 8192);
        g.bench_function(fmt.label(), |bench| {
            bench.iter(|| black_box(p.eval(&b).unwrap().count_ones()))
        });
        // The engine's form: refine a selection vector conjunct by conjunct.
        let mut sel = Vec::with_capacity(b.num_rows());
        g.bench_function(format!("{}_filter", fmt.label()), |bench| {
            bench.iter(|| {
                sel.clear();
                sel.extend(0..b.num_rows());
                p.filter(&b, &mut sel).unwrap();
                black_box(sel.len())
            })
        });
    }
    g.finish();
}

fn bench_append_range(c: &mut Criterion) {
    // Column → row is the common operator output copy: a virtual column
    // block of results into a row-format temporary block.
    let src = filled(BlockFormat::Column, 8192);
    let mut dst = StorageBlock::new(src.schema().clone(), BlockFormat::Row, 1 << 22).unwrap();
    c.bench_function("append_range_column_to_row_8k", |bench| {
        bench.iter(|| {
            dst.clear();
            black_box(dst.append_range(&src, 0))
        })
    });
}

fn bench_bitmap(c: &mut Criterion) {
    let mut bm = Bitmap::zeros(1 << 16);
    for i in (0..1 << 16).step_by(3) {
        bm.set(i);
    }
    c.bench_function("bitmap_iter_ones_64k", |bench| {
        bench.iter(|| black_box(bm.iter_ones().sum::<usize>()))
    });
}

criterion_group!(
    benches,
    bench_append,
    bench_column_scan,
    bench_predicate,
    bench_append_range,
    bench_bitmap
);
criterion_main!(benches);
