//! Leak-check proptests: after every *successful* run — across execution
//! modes, UoTs, block formats, block sizes and plan shapes —
//! `MemoryTracker::current_bytes()` returns to its pre-query baseline
//! (zero for a fresh tracker). Query teardown releases result-block bytes,
//! pooled free lists, hash tables and every staged/parked intermediate.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use uot_core::scheduler::{run, ExecMode};
use uot_core::state::ExecContext;
use uot_core::{
    CancellationToken, FaultKind, FaultPlan, FaultSite, Injection, JoinType, PlanBuilder,
    QueryPlan, SortKey, Source, Uot,
};
use uot_expr::{cmp, col, lit, AggSpec, CmpOp, Predicate};
use uot_storage::{
    BlockFormat, BlockPool, DataType, MemoryTracker, Schema, SpillStore, Table, TableBuilder, Value,
};

/// Silence the default panic hook for *injected* panics only (they are
/// expected and contained); anything else still prints normally.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected"))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

fn arb_table(name: &'static str, max_rows: usize) -> impl Strategy<Value = Arc<Table>> {
    (
        proptest::collection::vec((0i32..25, -500i64..500), 1..max_rows),
        1usize..6,
    )
        .prop_map(move |(rows, rows_per_block)| {
            let schema = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
            let mut tb = TableBuilder::new(
                name,
                schema.clone(),
                BlockFormat::Column,
                schema.tuple_width() * rows_per_block,
            );
            for (k, v) in &rows {
                tb.append(&[Value::I32(*k), Value::I64(*v)]).unwrap();
            }
            Arc::new(tb.finish())
        })
}

/// Three plan shapes hitting the three block-parking mechanisms: stream
/// staging + hash table (join/agg), sort-collected input, and the NLJ's
/// materialized inner side.
fn plan_of(shape: usize, fact: Arc<Table>, dim: Arc<Table>) -> QueryPlan {
    let mut pb = PlanBuilder::new();
    match shape {
        0 => {
            let b = pb
                .build_hash(Source::Table(dim), vec![0], vec![0, 1])
                .unwrap();
            let s = pb
                .filter(Source::Table(fact), cmp(col(0), CmpOp::Lt, lit(20i32)))
                .unwrap();
            let p = pb
                .probe(
                    Source::Op(s),
                    b,
                    vec![0],
                    vec![0, 1],
                    vec![1],
                    JoinType::Inner,
                )
                .unwrap();
            let a = pb
                .aggregate(
                    Source::Op(p),
                    vec![0],
                    vec![AggSpec::count_star(), AggSpec::sum(col(1))],
                    &["n", "sv"],
                )
                .unwrap();
            pb.build(a).unwrap()
        }
        1 => {
            let s = pb.filter(Source::Table(fact), Predicate::True).unwrap();
            let so = pb
                .sort(Source::Op(s), vec![SortKey::asc(0)], Some(16))
                .unwrap();
            pb.build(so).unwrap()
        }
        _ => {
            let inner = pb
                .filter(Source::Table(dim), cmp(col(0), CmpOp::Lt, lit(8i32)))
                .unwrap();
            let j = pb
                .nested_loops(
                    Source::Table(fact),
                    inner,
                    vec![(0, CmpOp::Eq, 0)],
                    vec![0],
                    vec![1],
                )
                .unwrap();
            pb.build(j).unwrap()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tracker_returns_to_baseline_after_success(
        fact in arb_table("leak_fact", 50),
        dim in arb_table("leak_dim", 15),
        shape in 0usize..3,
        uot in prop_oneof![
            Just(Uot::Blocks(1)),
            Just(Uot::Blocks(2)),
            Just(Uot::Blocks(5)),
            Just(Uot::Table)
        ],
        fmt in prop_oneof![Just(BlockFormat::Row), Just(BlockFormat::Column)],
        block_bytes in prop_oneof![Just(64usize), Just(128usize), Just(1024usize)],
        parallel in any::<bool>(),
        workers in 1usize..4,
    ) {
        let plan = plan_of(shape, fact, dim).with_uniform_uot(uot);
        let tracker = MemoryTracker::new();
        let pool = BlockPool::new(tracker.clone());
        let ctx = Arc::new(
            ExecContext::new(Arc::new(plan), pool, fmt, block_bytes).unwrap(),
        );
        let mode = if parallel {
            ExecMode::Parallel { workers }
        } else {
            ExecMode::Serial
        };
        let (blocks, metrics) = run(ctx, mode).unwrap();
        // Result rows survive the teardown (blocks are still readable) ...
        let _rows: Vec<Vec<Value>> = blocks.iter().flat_map(|b| b.all_rows()).collect();
        prop_assert!(metrics.peak_temp_bytes > 0 || blocks.is_empty());
        // ... but their bytes left the temporary-memory accounting.
        prop_assert_eq!(
            tracker.current_bytes(),
            0,
            "shape={} uot={} fmt={:?} bytes={} parallel={}",
            shape, uot, fmt, block_bytes, parallel
        );
    }

    /// Spill-tier teardown: with the disk tier armed under a tight budget,
    /// every exit path — success, cancellation, deadline, a contained panic,
    /// an injected spill-write or spill-read failure — leaves the tracker at
    /// zero, no live spilled blocks, and the spill directory itself deleted.
    #[test]
    fn spill_teardown_deletes_temp_files_and_drains_tracker(
        fact in arb_table("spill_leak_fact", 50),
        dim in arb_table("spill_leak_dim", 15),
        exit in 0usize..6,
        budget in prop_oneof![Just(600usize), Just(1200), Just(4096)],
        nth in 1usize..10,
        parallel in any::<bool>(),
    ) {
        quiet_injected_panics();
        let faults = match exit {
            3 => FaultPlan::new(vec![Injection {
                site: FaultSite::WorkOrderExec,
                kind: FaultKind::Panic,
                nth,
            }]),
            4 => FaultPlan::new(vec![Injection {
                site: FaultSite::SpillWrite,
                kind: FaultKind::Error,
                nth,
            }]),
            5 => FaultPlan::new(vec![Injection {
                site: FaultSite::SpillRead,
                kind: FaultKind::Error,
                nth,
            }]),
            _ => FaultPlan::empty(),
        };
        let faults = Arc::new(faults);

        let tracker = MemoryTracker::new();
        let pool = BlockPool::with_budget(tracker.clone(), budget);
        let store = SpillStore::new(None, tracker.clone());
        store.set_observer(uot_core::spill::EngineSpillHook::new(
            Some(faults.clone()),
            None,
            tracker.clone(),
            None,
        ));
        pool.enable_spill(store.clone());
        let spill_dir = store.dir().to_path_buf();

        let plan = plan_of(0, fact, dim).with_uniform_uot(Uot::Table);
        let mut ctx = ExecContext::new(Arc::new(plan), pool, BlockFormat::Row, 96)
            .unwrap()
            .with_faults(faults);
        ctx.plan_grace(budget);
        let token = CancellationToken::new();
        if exit == 1 {
            token.cancel();
        }
        let ctx = Arc::new(
            ctx.with_cancellation(token)
                .with_deadline((exit == 2).then_some(Duration::ZERO)),
        );
        let mode = if parallel {
            ExecMode::Parallel { workers: 2 }
        } else {
            ExecMode::Serial
        };

        // Any outcome is legal (a tight budget may fail even the no-fault
        // paths); the invariants under test are purely about teardown.
        let outcome = run(ctx, mode);
        let blocks = outcome.ok().map(|(blocks, _)| blocks);
        drop(blocks);

        prop_assert_eq!(
            tracker.current_bytes(),
            0,
            "tracker leak: exit={} budget={} nth={} parallel={}",
            exit, budget, nth, parallel
        );
        prop_assert_eq!(
            store.live_files(),
            0,
            "orphaned spill files: exit={} budget={} nth={}",
            exit, budget, nth
        );
        // The scheduler and context are gone; ours is the last store handle,
        // and dropping it must remove the temp directory from disk.
        drop(store);
        prop_assert!(
            !spill_dir.exists(),
            "spill dir survived teardown: exit={} {:?}",
            exit, spill_dir
        );
    }
}
