//! A work order whose output outgrows the budget on its own: one probe
//! block that joins a single key against every build row writes far more
//! blocks than the budget holds before its work order returns. Under
//! `DegradePolicy::Spill` each completed output block is an eviction victim
//! from the moment it fills, so the probe's own earlier blocks make room for
//! its later checkouts, and the query completes with the baseline's rows.

use std::sync::Arc;
use uot_baseline::BaselineEngine;
use uot_core::scheduler::{run, ExecMode};
use uot_core::state::ExecContext;
use uot_core::{
    DegradePolicy, Engine, EngineConfig, FusionPolicy, JoinType, PlanBuilder, QueryPlan, Source,
    Uot,
};
use uot_expr::AggSpec;
use uot_storage::{
    BlockFormat, BlockPool, DataType, MemoryTracker, Schema, SpillStore, TableBuilder, Value,
};

const BLOCK_BYTES: usize = 32 << 10;
const BUILD_ROWS: i32 = 64;
const PROBE_ROWS: i32 = 4_000;

/// `COUNT(*) GROUP BY id` over `probe ⋈ build` on one shared key: the
/// 4,000-row probe fits one 32 KiB block, and that block's work order emits
/// 256,000 rows (about 3 MB).
fn widening_plan() -> QueryPlan {
    let schema = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int32)]);
    let mut tb = TableBuilder::new("wide_build", schema, BlockFormat::Column, BLOCK_BYTES);
    for v in 0..BUILD_ROWS {
        tb.append(&[Value::I32(7), Value::I32(v)]).unwrap();
    }
    let build = Arc::new(tb.finish());
    let schema = Schema::from_pairs(&[("k", DataType::Int32), ("id", DataType::Int32)]);
    let mut tb = TableBuilder::new("wide_probe", schema, BlockFormat::Column, BLOCK_BYTES);
    for id in 0..PROBE_ROWS {
        tb.append(&[Value::I32(7), Value::I32(id)]).unwrap();
    }
    let probe = Arc::new(tb.finish());
    assert_eq!(probe.blocks().len(), 1, "the probe is one input block");

    let mut pb = PlanBuilder::new();
    let b = pb
        .build_hash(Source::Table(build), vec![0], vec![1])
        .unwrap();
    let p = pb
        .probe(
            Source::Table(probe),
            b,
            vec![0],
            vec![0, 1],
            vec![0],
            JoinType::Inner,
        )
        .unwrap();
    let a = pb
        .aggregate(Source::Op(p), vec![1], vec![AggSpec::count_star()], &["n"])
        .unwrap();
    pb.build(a).unwrap().with_uniform_uot(Uot::Blocks(1))
}

#[test]
fn widening_output_spills_its_own_blocks() {
    let plan = widening_plan();
    let want = BaselineEngine::new().execute(&plan).unwrap().sorted_rows();
    assert_eq!(want.len(), PROBE_ROWS as usize);
    for budget in [512 << 10, 1 << 20] {
        for workers in [1, 2] {
            let mode = format!("{budget} B, {workers} workers");
            // Through the engine, as `DegradePolicy::Spill` runs it.
            let config = match workers {
                1 => EngineConfig::serial(),
                w => EngineConfig::parallel(w),
            }
            .with_block_bytes(BLOCK_BYTES)
            .with_uot(Uot::Blocks(1))
            .with_fusion(FusionPolicy::Never)
            .with_memory_budget(Some(budget))
            .with_degrade(DegradePolicy::Spill);
            let got = Engine::new(config)
                .execute(plan.clone())
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert!(got.sorted_rows() == want, "{mode}: rows differ");
            assert!(got.metrics.degradations.is_empty(), "{mode}: no UoT retry");
            assert!(got.metrics.spill_events > 0, "{mode}: the output spilled");

            // The same tier armed by hand, to read the tracker afterwards.
            let tracker = MemoryTracker::new();
            let pool = BlockPool::with_budget(tracker.clone(), budget);
            let store = SpillStore::new(None, tracker.clone());
            pool.enable_spill(store.clone());
            let mut ctx =
                ExecContext::new(Arc::new(plan.clone()), pool, BlockFormat::Row, BLOCK_BYTES)
                    .unwrap();
            ctx.plan_grace(budget);
            let exec = match workers {
                1 => ExecMode::Serial,
                workers => ExecMode::Parallel { workers },
            };
            let (blocks, metrics) =
                run(Arc::new(ctx), exec).unwrap_or_else(|e| panic!("{mode}: {e}"));
            let mut rows: Vec<Vec<Value>> = blocks.iter().flat_map(|b| b.all_rows()).collect();
            rows.sort_by(|a, b| a.partial_cmp(b).expect("integer rows"));
            assert!(rows == want, "{mode}: rows differ (hand-armed)");
            assert!(
                metrics.spill_events > 0,
                "{mode}: the output spilled (hand-armed)"
            );
            drop(blocks);
            assert_eq!(tracker.current_bytes(), 0, "{mode}: the tracker drains");
            assert_eq!(store.live_files(), 0, "{mode}: no spilled block survives");
        }
    }
}
