//! Criterion micro-benchmarks of the join primitives: hash-table build (one
//! block, and the two-phase operator build of Q7/Q9's orders side) and probe
//! at two hash-table sizes (the Fig. 9/10 scalability contrast), the
//! aggregate update loop, the blocking tail (a top-k sort finalize,
//! per-group exact sums and a partitioned aggregate finalize), the
//! spill tier: a grace join's partitioning and one block's spill round
//! trip, and the select and aggregate input: predicate filters over TPC-H
//! lineitem and a Q19-shaped row block, and Q1's aggregate arguments.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use uot_core::hash_table::JoinHashTable;
use uot_core::plan::{JoinType, PlanBuilder, SortKey, Source};
use uot_core::state::ExecContext;
use uot_expr::{cmp, col, lit, AggSpec, AggState, CmpOp, Predicate, ScalarExpr};
use uot_storage::{
    BlockFormat, BlockPool, ColumnData, DataType, HashKey, MemoryTracker, Schema, SpillStore,
    StorageBlock, TableBuilder, Value,
};

fn key_block(rows: i32, key_range: i32) -> StorageBlock {
    let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
    let mut b = StorageBlock::new(s, BlockFormat::Column, 1 << 22).unwrap();
    for i in 0..rows {
        b.append_row(&[Value::I32(i % key_range), Value::F64(i as f64)])
            .unwrap();
    }
    b
}

fn bench_build(c: &mut Criterion) {
    let b = key_block(8192, 8192);
    c.bench_function("hash_build_8k_rows", |bench| {
        bench.iter(|| {
            let ht = JoinHashTable::new(b.schema().project(&[1]));
            ht.insert_block(&b, &[0], &[1]).unwrap();
            black_box(ht.len())
        })
    });
}

/// Q7/Q9's `build(orders)` shape at SF 0.05: 75k distinct `Int32` keys
/// with an `Int32` payload arriving as two row-store blocks, written by two
/// build work orders and linked by a finalize of two partitions run in turn.
/// Each run starts from a fresh context (a table is linked once).
fn bench_build_two_runs(c: &mut Criterion) {
    use uot_core::ops::{build, finalize_in_turn};
    let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int32)]);
    let mut tb = TableBuilder::new("orders", s.clone(), BlockFormat::Row, 37_500 * 8);
    for k in 0..75_000i32 {
        tb.append(&[Value::I32(k * 4 + 1), Value::I32(k % 1500)])
            .unwrap();
    }
    let t = Arc::new(tb.finish());
    assert_eq!(t.blocks().len(), 2);
    let mut tb = TableBuilder::new("probe", s, BlockFormat::Row, 1 << 10);
    tb.append(&[Value::I32(1), Value::I32(0)]).unwrap();
    let mut pb = PlanBuilder::new();
    let op = pb
        .build_hash(Source::Table(t.clone()), vec![0], vec![1])
        .unwrap();
    let p = pb
        .probe(
            Source::Table(Arc::new(tb.finish())),
            op,
            vec![0],
            vec![0],
            vec![0],
            JoinType::Inner,
        )
        .unwrap();
    let plan = Arc::new(pb.build(p).unwrap());
    c.bench_function("hash_build_75k_rows_two_runs", |bench| {
        bench.iter(|| {
            let pool = BlockPool::new(MemoryTracker::new());
            let ctx = ExecContext::new(plan.clone(), pool, BlockFormat::Row, 512 << 10).unwrap();
            for b in t.blocks() {
                build::execute(&ctx, op, b).unwrap();
            }
            finalize_in_turn(&ctx, op, 2).unwrap();
            black_box(ctx.hash_table(op).len())
        })
    });
}

fn bench_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash_probe_8k_rows");
    for (label, table_rows) in [("small_ht", 1024i32), ("large_ht", 262_144)] {
        let build = key_block(table_rows, table_rows);
        let ht = Arc::new(JoinHashTable::new(build.schema().project(&[1])));
        ht.insert_block(&build, &[0], &[1]).unwrap();
        let probe = key_block(8192, table_rows);
        g.bench_function(label, |bench| {
            bench.iter(|| {
                let mut acc = 0f64;
                for r in 0..probe.num_rows() {
                    let key = HashKey::from_row(&probe, r, &[0]);
                    ht.probe_key(&key, |p| acc += p.f64_at(0));
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_aggregate_update(c: &mut Criterion) {
    let b = key_block(8192, 4);
    let spec = AggSpec::sum(col(1));
    c.bench_function("agg_sum_update_8k", |bench| {
        bench.iter(|| {
            let mut st = spec.init_state(b.schema()).unwrap();
            let data = spec.arg.as_ref().unwrap().eval_all(&b).unwrap();
            st.update_column(&data).unwrap();
            black_box(st.finalize())
        })
    });
}

/// The sort finalize over 8k collected rows (Int32, Char(16), Float64, in
/// 32 KiB row blocks) keeping the top 100 by the string key descending,
/// then the integer.
fn bench_sort_top_k(c: &mut Criterion) {
    let s = Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("name", DataType::Char(16)),
        ("v", DataType::Float64),
    ]);
    let mut tb = TableBuilder::new("t", s, BlockFormat::Row, 32 << 10);
    for i in 0..8192i32 {
        tb.append(&[
            Value::I32(i % 97),
            Value::Str(format!("cust#{:09}", (i * 7919) % 4099)),
            Value::F64(i as f64 * 0.5),
        ])
        .unwrap();
    }
    let t = Arc::new(tb.finish());
    let mut pb = PlanBuilder::new();
    let op = pb
        .sort(
            Source::Table(t.clone()),
            vec![SortKey::desc(1), SortKey::asc(0)],
            Some(100),
        )
        .unwrap();
    let plan = Arc::new(pb.build(op).unwrap());
    c.bench_function("sort_top100_of_8k", |bench| {
        bench.iter(|| {
            // A fresh context per run (the finalize consumes its input);
            // building one is small next to the sort.
            let pool = BlockPool::new(MemoryTracker::new());
            let ctx = ExecContext::new(plan.clone(), pool, BlockFormat::Row, 32 << 10).unwrap();
            ctx.runtimes[op]
                .collected
                .lock()
                .extend(t.blocks().iter().cloned());
            let done = uot_core::ops::finalize_in_turn(&ctx, op, 1).unwrap();
            black_box((done, ctx.output(op).flush(&ctx.pool)))
        })
    });
}

/// One exact float sum per group for 30k groups: create the states, scatter
/// 60k values into them by group id, and `finalize` every group.
fn bench_agg_groups(c: &mut Criterion) {
    const GROUPS: u32 = 30_000;
    let b = key_block(8192, 8192);
    let spec = AggSpec::sum(col(1));
    let init = spec.init_state(b.schema()).unwrap();
    let gids: Vec<u32> = (0..2 * GROUPS).map(|i| i * 7919 % GROUPS).collect();
    let vals = ColumnData::F64((0..2 * GROUPS).map(|i| i as f64 * 1.25 + 0.1).collect());
    c.bench_function("agg_sum_30k_groups", |bench| {
        bench.iter(|| {
            let mut states: Vec<AggState> = (0..GROUPS).map(|_| init.clone()).collect();
            AggState::update_scatter(&mut states, &gids, &vals).unwrap();
            let mut acc = 0.0;
            for st in &states {
                acc += st.finalize().as_f64();
            }
            black_box(acc)
        })
    });
}

/// Q18's aggregate shape at SF 0.05: `SUM(float)` over 75k `Int32` groups,
/// one row per group, folded into two partials whose keys interleave (odd
/// and even blocks, as two workers take a scan's blocks in turn), then
/// finalized as two partitions run one after the other (last first). Each
/// run folds the partials afresh (the finalize consumes them); the fold is
/// the same code on both sides of a finalize change.
fn bench_agg_finalize(c: &mut Criterion) {
    use uot_core::ops::{aggregate::execute_block, finalize_in_turn};
    let s = Schema::from_pairs(&[("k", DataType::Int32), ("q", DataType::Float64)]);
    let mut tb = TableBuilder::new("t", s, BlockFormat::Column, 16 << 10);
    for k in 0..75_000i32 {
        tb.append(&[Value::I32(k), Value::F64((k % 50) as f64 + 1.0)])
            .unwrap();
    }
    let t = Arc::new(tb.finish());
    let mut pb = PlanBuilder::new();
    let op = pb
        .aggregate(
            Source::Table(t.clone()),
            vec![0],
            vec![AggSpec::sum(col(1))],
            &["sum_q"],
        )
        .unwrap();
    let plan = Arc::new(pb.build(op).unwrap());
    c.bench_function("agg_finalize_75k_groups_two_partials", |bench| {
        bench.iter(|| {
            let pool = BlockPool::new(MemoryTracker::new());
            let ctx = ExecContext::new(plan.clone(), pool, BlockFormat::Column, 512 << 10).unwrap();
            let partials = &ctx.runtimes[op].agg_partials;
            // Hold the first partial while the odd blocks fold, so they
            // build a second one.
            let blocks = t.blocks();
            execute_block(&ctx, op, &blocks[0]).unwrap();
            let first = partials.lock().pop().unwrap();
            for b in blocks.iter().skip(1).step_by(2) {
                execute_block(&ctx, op, b).unwrap();
            }
            partials.lock().push(first);
            for b in blocks.iter().skip(2).step_by(2) {
                execute_block(&ctx, op, b).unwrap();
            }
            let out = finalize_in_turn(&ctx, op, 2).unwrap();
            black_box((out, ctx.output(op).flush(&ctx.pool)))
        })
    });
}

/// A grace build's stream work: sixteen 32 KiB row blocks (a Q3-like
/// `Int32` key with `Int64`, `Date` and `Float64` payload) routed into 16
/// partitions of 32 KiB row buffers, each full buffer spilled. Each run
/// starts from a fresh context and spill store, under a budget that arms
/// the grace join with 16 partitions and holds all their open buffers.
fn bench_grace_partition(c: &mut Criterion) {
    use uot_core::ops::build;
    let s = Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("v", DataType::Int64),
        ("d", DataType::Date),
        ("f", DataType::Float64),
    ]);
    let mut tb = TableBuilder::new("orders", s.clone(), BlockFormat::Row, 32 << 10);
    for i in 0..64 * 1365i32 {
        tb.append(&[
            Value::I32(i.wrapping_mul(7919)),
            Value::I64(i as i64),
            Value::Date(9000 + i % 2000),
            Value::F64(i as f64 * 0.25),
        ])
        .unwrap();
    }
    let t = Arc::new(tb.finish());
    let mut tb = TableBuilder::new("probe", s, BlockFormat::Row, 1 << 10);
    tb.append(&[
        Value::I32(1),
        Value::I64(0),
        Value::Date(0),
        Value::F64(0.0),
    ])
    .unwrap();
    let mut pb = PlanBuilder::new();
    let op = pb
        .build_hash(Source::Table(t.clone()), vec![0], vec![1, 2, 3])
        .unwrap();
    let p = pb
        .probe(
            Source::Table(Arc::new(tb.finish())),
            op,
            vec![0],
            vec![0],
            vec![0],
            JoinType::Inner,
        )
        .unwrap();
    let plan = Arc::new(pb.build(p).unwrap());
    // `plan_grace` estimates twice the base table's bytes and picks 16
    // partitions for a budget between a quarter and half of that.
    let budget = 2 * t.num_rows() * t.schema().tuple_width() / 3;
    c.bench_function("grace_partition_32k_block_16_parts", |bench| {
        bench.iter(|| {
            let tracker = MemoryTracker::new();
            let pool = BlockPool::with_budget(tracker.clone(), budget);
            pool.enable_spill(SpillStore::new(None, tracker));
            let mut ctx = ExecContext::new(plan.clone(), pool, BlockFormat::Row, 32 << 10).unwrap();
            ctx.plan_grace(budget);
            assert_eq!(ctx.grace[&op].nparts, 16);
            for b in &t.blocks()[..16] {
                build::execute(&ctx, op, b).unwrap();
            }
            black_box(ctx.pool.spill_store().unwrap().stats().spill_events)
        })
    });
}

/// One full 32 KiB row block (the service's temp format) spilled and
/// restored through one store, whose file grows by an extent per run.
fn bench_spill_roundtrip(c: &mut Criterion) {
    let s = Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("name", DataType::Char(16)),
        ("d", DataType::Date),
        ("f", DataType::Float64),
    ]);
    let mut block = StorageBlock::new(s, BlockFormat::Row, 32 << 10).unwrap();
    let mut i = 0;
    while !block.is_full() {
        block
            .append_row(&[
                Value::I32(i),
                Value::Str(format!("cust#{i:09}")),
                Value::Date(9000 + i % 2000),
                Value::F64(i as f64 * 0.5),
            ])
            .unwrap();
        i += 1;
    }
    c.bench_function("spill_roundtrip_32k_block", |bench| {
        let tracker = MemoryTracker::new();
        let store = SpillStore::new(None, tracker.clone());
        bench.iter(|| {
            tracker.alloc(block.allocated_bytes());
            let handle = store.spill_block(&block, 0).unwrap();
            let back = store.restore(handle).unwrap();
            tracker.free(back.allocated_bytes());
            black_box(back.num_rows())
        })
    });
}

/// SF 0.02 lineitem in 32 KiB blocks of `format`.
fn lineitem(format: BlockFormat) -> Arc<uot_storage::Table> {
    let config = uot_tpch::TpchConfig::scale(0.02)
        .with_block_bytes(32 << 10)
        .with_format(format);
    uot_tpch::TpchDb::generate(config).lineitem()
}

/// Rows of `blocks` that `pred` keeps, filtering each block from all rows.
fn filter_blocks(pred: &Predicate, blocks: &[Arc<StorageBlock>], sel: &mut Vec<usize>) -> usize {
    let mut kept = 0;
    for b in blocks {
        sel.clear();
        sel.extend(0..b.num_rows());
        pred.filter(b, sel).unwrap();
        kept += sel.len();
    }
    kept
}

/// Q12's five conjuncts (a `Char(10)` `IN`, two date-column comparisons, a
/// date range) and a `Char(10)` `IN` alone, over SF 0.02 lineitem in 32 KiB
/// column blocks.
fn bench_filter_lineitem(c: &mut Criterion) {
    use uot_storage::date_from_ymd;
    use uot_tpch::schema::li;
    let t = lineitem(BlockFormat::Column);
    let str_in = Predicate::StrIn {
        col: li::SHIPMODE,
        values: vec!["MAIL".into(), "SHIP".into()],
    };
    let q12 = str_in
        .clone()
        .and(cmp(col(li::COMMITDATE), CmpOp::Lt, col(li::RECEIPTDATE)))
        .and(cmp(col(li::SHIPDATE), CmpOp::Lt, col(li::COMMITDATE)))
        .and(uot_expr::between_half_open(
            col(li::RECEIPTDATE),
            Value::Date(date_from_ymd(1994, 1, 1)),
            Value::Date(date_from_ymd(1995, 1, 1)),
        ));
    let mut sel = Vec::new();
    for (name, pred) in [
        ("filter_q12_lineitem", q12),
        ("filter_str_in_char10", str_in),
    ] {
        c.bench_function(name, |bench| {
            bench.iter(|| black_box(filter_blocks(&pred, t.blocks(), &mut sel)))
        });
    }
}

/// Q19's post-join disjunction, as the SQL binder types it (`p_size`
/// against `Int64` literals), over one 4,096-row row-store block of
/// `(l_quantity, p_brand, p_container, p_size)`.
fn bench_filter_or_row_block(c: &mut Criterion) {
    let s = Schema::from_pairs(&[
        ("l_quantity", DataType::Float64),
        ("p_brand", DataType::Char(10)),
        ("p_container", DataType::Char(10)),
        ("p_size", DataType::Int32),
    ]);
    let containers = [
        "SM CASE",
        "SM BOX",
        "MED BAG",
        "MED BOX",
        "LG CASE",
        "LG PKG",
        "JUMBO JAR",
        "WRAP BAG",
    ];
    let mut b = StorageBlock::new(s, BlockFormat::Row, 4096 * 32).unwrap();
    for i in 0..4096u32 {
        let h = i.wrapping_mul(2_654_435_761);
        b.append_row(&[
            Value::F64(f64::from(h % 50 + 1)),
            Value::Str(format!("Brand#{}{}", (h >> 8) % 5 + 1, (h >> 12) % 5 + 1)),
            Value::Str(containers[(h >> 16) as usize % containers.len()].into()),
            Value::I32(((h >> 20) % 50 + 1) as i32),
        ])
        .unwrap();
    }
    let arm = |brand: &str, cont: [&str; 4], qty: (f64, f64), size: i64| {
        Predicate::And(vec![
            Predicate::StrEq {
                col: 1,
                value: brand.into(),
            },
            Predicate::StrIn {
                col: 2,
                values: cont.iter().map(|c| c.to_string()).collect(),
            },
            cmp(col(0), CmpOp::Ge, lit(qty.0)),
            cmp(col(0), CmpOp::Le, lit(qty.1)),
            cmp(col(3), CmpOp::Ge, lit(1i64)),
            cmp(col(3), CmpOp::Le, lit(size)),
        ])
    };
    let q19 = Predicate::Or(vec![
        arm(
            "Brand#12",
            ["SM CASE", "SM BOX", "SM PACK", "SM PKG"],
            (1.0, 11.0),
            5,
        ),
        arm(
            "Brand#23",
            ["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
            (10.0, 20.0),
            10,
        ),
        arm(
            "Brand#34",
            ["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
            (20.0, 30.0),
            15,
        ),
    ]);
    let blocks = [Arc::new(b)];
    let mut sel = Vec::new();
    c.bench_function("filter_or_row_block", |bench| {
        bench.iter(|| black_box(filter_blocks(&q19, &blocks, &mut sel)))
    });
}

/// Q1's aggregate input, over every row of SF 0.02 lineitem in 32 KiB
/// column blocks (the fused input's format) and row blocks (the staged
/// temps'). `agg_args_q1` evaluates the five distinct argument expressions
/// one by one to owned columns; `agg_fold_q1` folds each block into the
/// Q1 aggregate's partial the way a stream work order does (arguments,
/// group keys, group ids, scatter).
fn bench_agg_q1(c: &mut Criterion) {
    use uot_core::ops::aggregate::execute_block;
    use uot_tpch::schema::li;
    let price = || col(li::EXTENDEDPRICE);
    let disc_price = || price().mul(lit(1.0).sub(col(li::DISCOUNT)));
    let args: Vec<ScalarExpr> = vec![
        col(li::QUANTITY),
        price(),
        disc_price(),
        disc_price().mul(lit(1.0).add(col(li::TAX))),
        col(li::DISCOUNT),
    ];
    for (suffix, format) in [("", BlockFormat::Column), ("_row", BlockFormat::Row)] {
        let t = lineitem(format);
        c.bench_function(format!("agg_args_q1{suffix}"), |bench| {
            bench.iter(|| {
                let mut n = 0;
                for b in t.blocks() {
                    for e in &args {
                        n += e.eval_all(b).unwrap().len();
                    }
                }
                black_box(n)
            })
        });
        let mut pb = PlanBuilder::new();
        let aggs = vec![
            AggSpec::sum(args[0].clone()),
            AggSpec::sum(args[1].clone()),
            AggSpec::sum(args[2].clone()),
            AggSpec::sum(args[3].clone()),
            AggSpec::avg(args[0].clone()),
            AggSpec::avg(args[1].clone()),
            AggSpec::avg(args[4].clone()),
            AggSpec::count_star(),
        ];
        let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let op = pb
            .aggregate(
                Source::Table(t.clone()),
                vec![li::RETURNFLAG, li::LINESTATUS],
                aggs,
                &names,
            )
            .unwrap();
        let plan = Arc::new(pb.build(op).unwrap());
        c.bench_function(format!("agg_fold_q1{suffix}"), |bench| {
            bench.iter(|| {
                let pool = BlockPool::new(MemoryTracker::new());
                let ctx = ExecContext::new(plan.clone(), pool, format, 32 << 10).unwrap();
                for b in t.blocks() {
                    execute_block(&ctx, op, b).unwrap();
                }
                let partials = ctx.runtimes[op].agg_partials.lock().len();
                black_box(partials)
            })
        });
    }
}

criterion_group!(
    benches,
    bench_build,
    bench_build_two_runs,
    bench_probe,
    bench_aggregate_update,
    bench_sort_top_k,
    bench_agg_groups,
    bench_agg_finalize,
    bench_grace_partition,
    bench_spill_roundtrip,
    bench_filter_lineitem,
    bench_filter_or_row_block,
    bench_agg_q1
);
criterion_main!(benches);
