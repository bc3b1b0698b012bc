//! Scalar vs batched probe throughput.
//!
//! Drives the probe operator end to end (key extraction, hashing, hash-table
//! lookup, output assembly) through both implementations — the retained
//! row-at-a-time `execute_scalar` reference and the vectorized `execute`
//! pipeline — across 1/2/4-column keys and row/column probe-block formats.
//! Every configuration joins the same 16K-row build side against 16K probe
//! rows (all matching), so ns/iter converts directly to probe rows/sec.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use uot_core::ops::{self, build, probe};
use uot_core::state::ExecContext;
use uot_core::{JoinType, PlanBuilder, QueryPlan, Source};
use uot_storage::{
    BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder, Value,
};

const ROWS: i32 = 16_384;

/// Four identical Int32 key columns plus a payload: joining on 1, 2, or 4 of
/// them changes key width but not join cardinality, keeping runs comparable.
fn key_table(name: &str, format: BlockFormat) -> Arc<Table> {
    let s = Schema::from_pairs(&[
        ("k1", DataType::Int32),
        ("k2", DataType::Int32),
        ("k3", DataType::Int32),
        ("k4", DataType::Int32),
        ("v", DataType::Float64),
    ]);
    let mut tb = TableBuilder::new(name, s, format, 1 << 22);
    for i in 0..ROWS {
        tb.append(&[
            Value::I32(i),
            Value::I32(i),
            Value::I32(i),
            Value::I32(i),
            Value::F64(i as f64),
        ])
        .unwrap();
    }
    Arc::new(tb.finish())
}

fn join_ctx(key_cols: Vec<usize>, probe_format: BlockFormat) -> (ExecContext, usize, Arc<Table>) {
    let dim = key_table("dim", BlockFormat::Column);
    let fact = key_table("fact", probe_format);
    let mut pb = PlanBuilder::new();
    let b = pb
        .build_hash(Source::Table(dim.clone()), key_cols.clone(), vec![4])
        .unwrap();
    let p = pb
        .probe(
            Source::Table(fact.clone()),
            b,
            key_cols,
            vec![0, 4],
            vec![0],
            JoinType::Inner,
        )
        .unwrap();
    let plan: Arc<QueryPlan> = Arc::new(pb.build(p).unwrap());
    let pool = BlockPool::new(MemoryTracker::new());
    let ctx = ExecContext::new(plan, pool, BlockFormat::Column, 1 << 22).unwrap();
    for blk in dim.blocks() {
        build::execute(&ctx, b, &blk.clone()).unwrap();
    }
    ops::finalize_in_turn(&ctx, b, 1).unwrap();
    (ctx, p, fact)
}

fn bench_probe_paths(c: &mut Criterion) {
    for (fmt_label, format) in [("col", BlockFormat::Column), ("row", BlockFormat::Row)] {
        for key_cols in [vec![0], vec![0, 1], vec![0, 1, 2, 3]] {
            let (ctx, p, fact) = join_ctx(key_cols.clone(), format);
            let mut g = c.benchmark_group(format!("probe_{}_{}key", fmt_label, key_cols.len()));
            g.bench_function("scalar", |bench| {
                bench.iter(|| {
                    let mut out = 0usize;
                    for blk in fact.blocks() {
                        for b in probe::execute_scalar(&ctx, p, &blk.clone()).unwrap() {
                            out += b.rows();
                        }
                    }
                    for b in ctx.output(p).flush(&ctx.pool) {
                        out += b.rows();
                    }
                    black_box(out)
                })
            });
            g.bench_function("batched", |bench| {
                bench.iter(|| {
                    let mut out = 0usize;
                    for blk in fact.blocks() {
                        for b in probe::execute(&ctx, p, &blk.clone()).unwrap() {
                            out += b.rows();
                        }
                    }
                    for b in ctx.output(p).flush(&ctx.pool) {
                        out += b.rows();
                    }
                    black_box(out)
                })
            });
            g.finish();
        }
    }
}

criterion_group!(benches, bench_probe_paths);
criterion_main!(benches);
