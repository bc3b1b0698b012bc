//! Chaos proptests: seeded fault-injection schedules driven through every
//! [`FaultSite`], asserting the execution-hardening invariants:
//!
//! 1. The query always returns `Ok` or `Err` — never hangs (watchdog) and
//!    never aborts the process (panic containment).
//! 2. `MemoryTracker::current_bytes()` returns to its pre-query value on
//!    success *and* on every error path — no leaked staging blocks, parked
//!    inputs, output partials or hash-table bytes.
//! 3. An empty `FaultPlan` is bit-identical to the uninstrumented path.
//! 4. A `BlockPool` survives a contained panic: subsequent queries on the
//!    same pool succeed.
//!
//! The `CHAOS_SEED` env var (used by the CI seed matrix) shifts every
//! generated injection point so different runs explore different schedules.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use uot_core::scheduler::{run, run_query, ExecMode};
use uot_core::state::ExecContext;
use uot_core::{
    EngineError, FaultKind, FaultPlan, FaultSite, Injection, JoinType, PlanBuilder, QueryObserver,
    QueryPlan, Source, TraceEventKind, TraceSink, Uot, DEFAULT_TRACE_CAPACITY,
};
use uot_expr::{cmp, col, lit, AggSpec, CmpOp};
use uot_storage::{
    BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder, Value,
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

/// CI seed matrix: shifts every injection point.
fn chaos_seed() -> usize {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn arb_table(name: &'static str, max_rows: usize) -> impl Strategy<Value = Arc<Table>> {
    (
        proptest::collection::vec((0i32..30, -500i64..500), 1..max_rows),
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

/// select(fact) -> probe(dim) -> aggregate: covers stream transfers, a hash
/// table, staged edges and an output-emitting finalize.
fn join_agg_plan(fact: Arc<Table>, dim: Arc<Table>, uot: Uot) -> QueryPlan {
    let mut pb = PlanBuilder::new();
    let b = pb
        .build_hash(Source::Table(dim), vec![0], vec![0, 1])
        .unwrap();
    let s = pb
        .filter(Source::Table(fact), cmp(col(0), CmpOp::Lt, lit(25i32)))
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
    pb.build(a).unwrap().with_uniform_uot(uot)
}

fn ctx_with(plan: QueryPlan, pool: Arc<BlockPool>, faults: Arc<FaultPlan>) -> Arc<ExecContext> {
    Arc::new(
        ExecContext::new(Arc::new(plan), pool, BlockFormat::Row, 128)
            .unwrap()
            .with_faults(faults),
    )
}

type Outcome = std::result::Result<usize, EngineError>;

/// Run `f` on its own thread under a hard watchdog: a hang past the timeout
/// fails the test instead of wedging the suite.
fn run_with_watchdog<F>(f: F) -> Outcome
where
    F: FnOnce() -> Outcome + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("watchdog: query neither completed nor errored within 30s")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Invariants 1 + 2 across every site, kind, injection point, UoT and
    /// driver: no hang, no abort, errors only of expected shapes, and the
    /// tracker back at zero afterwards — including schedules that error
    /// with blocks still staged on a `TransferEdge`.
    #[test]
    fn fault_schedules_never_hang_or_leak(
        fact in arb_table("chaos_fact", 40),
        dim in arb_table("chaos_dim", 15),
        site_ix in 0usize..3,
        kind_ix in 0usize..3,
        nth in 1usize..20,
        uot in prop_oneof![Just(Uot::Blocks(1)), Just(Uot::Blocks(3)), Just(Uot::Table)],
        parallel in any::<bool>(),
        workers in 1usize..4,
    ) {
        quiet_injected_panics();
        let site = FaultSite::ALL[site_ix];
        let kind = match kind_ix {
            0 => FaultKind::Panic,
            1 => FaultKind::Error,
            _ => FaultKind::Delay(Duration::from_millis(1)),
        };
        let nth = 1 + (nth - 1 + chaos_seed()) % 24;
        let faults = Arc::new(FaultPlan::new(vec![Injection { site, kind, nth }]));

        let tracker = MemoryTracker::new();
        let pool = BlockPool::new(tracker.clone());
        let ctx = ctx_with(join_agg_plan(fact, dim, uot), pool, faults);
        let mode = if parallel {
            ExecMode::Parallel { workers }
        } else {
            ExecMode::Serial
        };

        let outcome = run_with_watchdog(move || {
            let observer = QueryObserver::new(&ctx.plan);
            match run_query(ctx, mode, observer) {
                Ok((blocks, _metrics)) => Ok(blocks.len()),
                Err(failed) => Err(failed.error),
            }
        });

        match &outcome {
            Ok(_) => {}
            Err(EngineError::WorkOrderPanic { payload, .. }) => {
                prop_assert!(payload.contains("injected"), "{}", payload);
            }
            Err(EngineError::BudgetExceeded { .. })
            | Err(EngineError::Storage(_))
            | Err(EngineError::Internal(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error shape: {}", other),
        }
        if matches!(kind, FaultKind::Delay(_)) {
            prop_assert!(outcome.is_ok(), "a delay must not fail the query");
        }
        prop_assert_eq!(
            tracker.current_bytes(),
            0,
            "leak after {:?}/{:?} nth={} uot={} parallel={}",
            site, kind, nth, uot, parallel
        );
    }

    /// Spill-tier chaos: with the disk tier armed under a tight budget,
    /// injected `SpillWrite`/`SpillRead` faults (the serializer failing, a
    /// spilled block failing to fault back in) surface as clean errors of
    /// the expected shapes — never a hang, an abort, a leaked tracker byte
    /// or an orphaned spilled block. Grace-join partitioning is exercised too:
    /// `plan_grace` arms for dim sides whose estimate crosses the budget.
    #[test]
    fn spill_fault_schedules_never_hang_or_leak(
        fact in arb_table("spillchaos_fact", 40),
        dim in arb_table("spillchaos_dim", 15),
        write_site in any::<bool>(),
        kind_ix in 0usize..3,
        nth in 1usize..12,
        budget in prop_oneof![Just(600usize), Just(1200), Just(4096)],
        parallel in any::<bool>(),
    ) {
        quiet_injected_panics();
        let site = if write_site { FaultSite::SpillWrite } else { FaultSite::SpillRead };
        let kind = match kind_ix {
            0 => FaultKind::Panic,
            1 => FaultKind::Error,
            _ => FaultKind::Delay(Duration::from_millis(1)),
        };
        let nth = 1 + (nth - 1 + chaos_seed()) % 16;
        let faults = Arc::new(FaultPlan::new(vec![Injection { site, kind, nth }]));

        let tracker = MemoryTracker::new();
        let pool = BlockPool::with_budget(tracker.clone(), budget);
        let store = uot_storage::SpillStore::new(None, tracker.clone());
        store.set_observer(uot_core::spill::EngineSpillHook::new(
            Some(faults.clone()),
            None,
            tracker.clone(),
            None,
        ));
        pool.enable_spill(store.clone());
        // Table UoT: staging must outgrow the budget (forcing evictions).
        let mut ctx = ExecContext::new(
            Arc::new(join_agg_plan(fact, dim, Uot::Table)),
            pool,
            BlockFormat::Row,
            96,
        )
        .unwrap()
        .with_faults(faults);
        ctx.plan_grace(budget);
        let ctx = Arc::new(ctx);
        let mode = if parallel {
            ExecMode::Parallel { workers: 2 }
        } else {
            ExecMode::Serial
        };

        let outcome = run_with_watchdog(move || {
            let observer = QueryObserver::new(&ctx.plan);
            match run_query(ctx, mode, observer) {
                Ok((blocks, _metrics)) => Ok(blocks.len()),
                Err(failed) => Err(failed.error),
            }
        });

        // A tight budget can legitimately fail the query even without the
        // injection firing, so (unlike the exec-site test) a Delay schedule
        // is not guaranteed Ok — only the error *shapes* are constrained.
        match &outcome {
            Ok(_) => {}
            Err(EngineError::WorkOrderPanic { payload, .. }) => {
                prop_assert!(payload.contains("injected"), "{}", payload);
            }
            Err(EngineError::BudgetExceeded { .. })
            | Err(EngineError::Storage(_))
            | Err(EngineError::Internal(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error shape: {}", other),
        }
        prop_assert_eq!(
            tracker.current_bytes(),
            0,
            "leak after {:?}/{:?} nth={} budget={} parallel={}",
            site, kind, nth, budget, parallel
        );
        prop_assert_eq!(
            store.live_files(),
            0,
            "orphaned spill files after {:?}/{:?} nth={} budget={}",
            site, kind, nth, budget
        );
    }

    /// Invariant 3: an installed-but-empty fault plan changes nothing — same
    /// result blocks, bit-identical rows in the same order (serial driver).
    #[test]
    fn empty_fault_plan_is_bit_identical(
        fact in arb_table("noop_fact", 40),
        dim in arb_table("noop_dim", 15),
        uot in prop_oneof![Just(Uot::Blocks(1)), Just(Uot::Blocks(2)), Just(Uot::Table)],
    ) {
        let plain_pool = BlockPool::new(MemoryTracker::new());
        let plain_ctx = ctx_with(
            join_agg_plan(fact.clone(), dim.clone(), uot),
            plain_pool,
            Arc::new(FaultPlan::empty()),
        );
        let instrumented_pool = BlockPool::new(MemoryTracker::new());
        let instrumented_ctx = ctx_with(
            join_agg_plan(fact, dim, uot),
            instrumented_pool,
            Arc::new(FaultPlan::new(vec![Injection {
                site: FaultSite::WorkOrderExec,
                kind: FaultKind::Panic,
                nth: usize::MAX, // registered but unreachable
            }])),
        );
        let (a, _) = run(plain_ctx, ExecMode::Serial).unwrap();
        let (b, _) = run(instrumented_ctx, ExecMode::Serial).unwrap();
        let rows_a: Vec<Vec<Value>> = a.iter().flat_map(|blk| blk.all_rows()).collect();
        let rows_b: Vec<Vec<Value>> = b.iter().flat_map(|blk| blk.all_rows()).collect();
        prop_assert_eq!(rows_a, rows_b);
    }

    /// Tracing under chaos: with a `TraceSink` attached, every injected
    /// fault that fires shows up as exactly one `FaultInjected` event with
    /// the configured site and kind and a plausible operator attribution —
    /// including on error paths, where `QueryResult::trace` never exists
    /// (the test holds its own sink and drains it after the run).
    #[test]
    fn injected_faults_are_traced_with_attribution(
        fact in arb_table("trace_fact", 40),
        dim in arb_table("trace_dim", 15),
        site_ix in 0usize..3,
        kind_ix in 0usize..3,
        nth in 1usize..12,
        uot in prop_oneof![Just(Uot::Blocks(1)), Just(Uot::Blocks(3)), Just(Uot::Table)],
        parallel in any::<bool>(),
    ) {
        quiet_injected_panics();
        let site = FaultSite::ALL[site_ix];
        let kind = match kind_ix {
            0 => FaultKind::Panic,
            1 => FaultKind::Error,
            _ => FaultKind::Delay(Duration::from_millis(1)),
        };
        let faults = Arc::new(FaultPlan::new(vec![Injection { site, kind, nth }]));

        let plan = join_agg_plan(fact, dim, uot);
        let op_names: Vec<String> = plan.ops().iter().map(|op| op.name.clone()).collect();
        let num_ops = op_names.len();
        let sink = TraceSink::new(DEFAULT_TRACE_CAPACITY);
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = Arc::new(
            ExecContext::new(Arc::new(plan), pool, BlockFormat::Row, 128)
                .unwrap()
                .with_faults(faults)
                .with_trace(sink.clone()),
        );
        let mode = if parallel {
            ExecMode::Parallel { workers: 2 }
        } else {
            ExecMode::Serial
        };

        let run_sink = sink.clone();
        let outcome = run_with_watchdog(move || {
            let observer = QueryObserver::new(&ctx.plan).with_trace(run_sink);
            match run_query(ctx, mode, observer) {
                Ok((blocks, _metrics)) => Ok(blocks.len()),
                Err(failed) => Err(failed.error),
            }
        });

        let trace = sink.finish(op_names);
        let fired: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::FaultInjected { site, kind, op } => Some((site, kind, op)),
                _ => None,
            })
            .collect();
        prop_assert!(fired.len() <= 1, "one injection fires at most once: {:?}", fired);
        // A failed outcome can only come from the injection on this plan, so
        // the trace must have attributed it.
        if outcome.is_err() {
            prop_assert_eq!(fired.len(), 1, "failure without a FaultInjected event");
        }
        for &(s, k, op) in &fired {
            prop_assert_eq!(s, site);
            prop_assert_eq!(k, kind);
            prop_assert!(op < num_ops, "fault attributed to op {} of {}", op, num_ops);
            match site {
                // An exec-site panic is contained; the same operator must
                // also log the panic terminal event.
                FaultSite::WorkOrderExec if matches!(kind, FaultKind::Panic) => {
                    prop_assert!(
                        trace.events.iter().any(|e| matches!(
                            e.kind,
                            TraceEventKind::WorkOrderPanicked { op: p, .. } if p == op
                        )),
                        "no WorkOrderPanicked event for op {}",
                        op
                    );
                }
                // A flush-site fault is attributed to a producer that staged
                // or transferred on some edge.
                FaultSite::TransferFlush => {
                    prop_assert!(
                        trace.events.iter().any(|e| matches!(
                            e.kind,
                            TraceEventKind::EdgeStaged { producer, .. }
                            | TraceEventKind::TransferFlushed { producer, .. }
                                if producer == op
                        )),
                        "flush fault attributed to op {} which never touched an edge",
                        op
                    );
                }
                _ => {}
            }
        }
        // Delay faults never fail the query, and with tracing on the fault
        // still shows (delays are observable, not silent).
        if matches!(kind, FaultKind::Delay(_)) {
            prop_assert!(outcome.is_ok());
        }
    }
}

/// Panic containment inside a *fused* pipeline: the `WorkOrderPanic` names
/// the whole chain (its label lists every member operator) with kind
/// `"fused-pipeline"`, since the faulting operator could be any member of
/// the fused loop — and the tracker still returns to zero.
#[test]
fn fused_pipeline_panic_names_the_chain() {
    quiet_injected_panics();
    let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
    let mut tb = TableBuilder::new("fused_chaos", s, BlockFormat::Column, 48);
    for i in 0..60 {
        tb.append(&[Value::I32(i % 20), Value::I64(i as i64)])
            .unwrap();
    }
    let t = Arc::new(tb.finish());
    let mut pb = PlanBuilder::new();
    let sel = pb
        .filter(Source::Table(t), cmp(col(0), CmpOp::Lt, lit(15i32)))
        .unwrap();
    let agg = pb
        .aggregate(
            Source::Op(sel),
            vec![0],
            vec![AggSpec::count_star(), AggSpec::sum(col(1))],
            &["n", "sv"],
        )
        .unwrap();
    let plan = Arc::new(pb.build(agg).unwrap());

    let faults = Arc::new(FaultPlan::new(vec![Injection {
        site: FaultSite::WorkOrderExec,
        kind: FaultKind::Panic,
        nth: 1, // the first work order is the fused chain's head
    }]));
    let tracker = MemoryTracker::new();
    let pool = BlockPool::new(tracker.clone());
    let fusion = uot_core::fusion::plan_fusion(
        &plan,
        uot_core::FusionPolicy::Always,
        1,
        128,
        Uot::Blocks(1),
    );
    assert_eq!(fusion.fused_count(), 1, "select->aggregate must fuse");
    let ctx = Arc::new(
        ExecContext::new(plan, pool, BlockFormat::Row, 128)
            .unwrap()
            .with_faults(faults)
            .with_fusion(fusion),
    );
    let err = run(ctx, ExecMode::Serial).unwrap_err();
    match err {
        EngineError::WorkOrderPanic { op, kind, payload } => {
            assert_eq!(kind, "fused-pipeline");
            assert!(op.contains('+'), "chain label names every member: {op}");
            assert!(payload.contains("injected"), "{payload}");
        }
        other => panic!("expected WorkOrderPanic, got {other}"),
    }
    assert_eq!(tracker.current_bytes(), 0, "fused panic path must not leak");
}

/// Invariant 4: a contained panic leaves the shared `BlockPool` (and its
/// tracker) fully usable — the next query on the *same pool* succeeds and
/// accounting stays exact.
#[test]
fn same_pool_survives_contained_panics() {
    quiet_injected_panics();
    let mk_table = |name: &str, n: i32| {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
        let mut tb = TableBuilder::new(name, s, BlockFormat::Column, 48);
        for i in 0..n {
            tb.append(&[Value::I32(i % 20), Value::I64(i as i64)])
                .unwrap();
        }
        Arc::new(tb.finish())
    };
    let fact = mk_table("recover_fact", 80);
    let dim = mk_table("recover_dim", 12);
    let tracker = MemoryTracker::new();
    let pool = BlockPool::new(tracker.clone());

    for nth in [1, 4, 9] {
        let faults = Arc::new(FaultPlan::new(vec![Injection {
            site: FaultSite::WorkOrderExec,
            kind: FaultKind::Panic,
            nth,
        }]));
        let ctx = ctx_with(
            join_agg_plan(fact.clone(), dim.clone(), Uot::Blocks(1)),
            pool.clone(),
            faults,
        );
        let err = run(ctx, ExecMode::Serial).unwrap_err();
        assert!(
            matches!(err, EngineError::WorkOrderPanic { .. }),
            "nth={nth}: {err}"
        );
        assert_eq!(tracker.current_bytes(), 0, "nth={nth}");

        // The same pool immediately runs the same query to completion.
        let ctx = ctx_with(
            join_agg_plan(fact.clone(), dim.clone(), Uot::Blocks(1)),
            pool.clone(),
            Arc::new(FaultPlan::empty()),
        );
        let (blocks, metrics) = run(ctx, ExecMode::Serial).unwrap();
        assert!(metrics.result_rows > 0);
        drop(blocks);
        assert_eq!(tracker.current_bytes(), 0, "nth={nth} post-recovery");
    }
}
