//! `EXPLAIN ANALYZE` reconciliation: the annotated tree attached to every
//! [`QueryResult`](uot_core::QueryResult) must agree *exactly* with the other
//! two sources of truth about the same execution — the per-operator
//! [`QueryMetrics`] aggregates and the structured trace — across TPC-H
//! queries, execution modes and UoTs, and the query's live [`MetricsHub`]
//! must hold the same totals as its metrics — spill counters included.
//! Explain is a pure fold of plan + metrics and the hub a fold of the
//! finished metrics, so any disagreement means double counting or dropped
//! events somewhere in the scheduler's accounting.

use std::sync::Arc;
use uot_core::{
    DegradePolicy, Engine, EngineConfig, ExecMode, HubCounter, HubHistogram, MetricsHub,
    QueryResult, Source, TraceConfig, TraceEventKind, Uot,
};
use uot_storage::BlockFormat;
use uot_tpch::{build_query, sql_text, QueryId, TpchConfig, TpchDb};

fn db() -> TpchDb {
    TpchDb::generate(TpchConfig {
        scale_factor: 0.005,
        block_bytes: 8 * 1024,
        format: BlockFormat::Column,
        seed: 7,
    })
}

/// Cross-check one executed query: explain vs metrics (field-exact), explain
/// vs trace (work-order counts), hub vs metrics (totals), and edge flow vs
/// consumer input accounting. Returns the result for case-specific checks.
fn reconcile(db: &TpchDb, q: QueryId, cfg: EngineConfig, label: &str) -> QueryResult {
    let plan = build_query(q, db).expect("plan builds");
    let hub = Arc::new(MetricsHub::new());
    let r = Engine::new(cfg.with_hub(hub.clone()))
        .execute(plan.clone())
        .expect("query runs");
    let m = &r.metrics;
    let ex = r.explain.as_ref().expect("explain is always attached");

    // Shape: one annotation per plan operator, rooted at the sink.
    assert_eq!(ex.ops.len(), plan.len(), "{label}: op count");
    assert_eq!(ex.root, plan.sink(), "{label}: root");

    // Field-exact agreement with QueryMetrics, operator by operator.
    for (id, (op, om)) in ex.ops.iter().zip(m.ops.iter()).enumerate() {
        let ctx = format!("{label}: op {id} ({})", op.name);
        assert_eq!(op.id, id, "{ctx}: id");
        assert_eq!(op.name, om.name, "{ctx}: name");
        assert_eq!(op.kind, om.kind, "{ctx}: kind");
        assert_eq!(op.work_orders, om.work_orders, "{ctx}: work orders");
        assert_eq!(op.input_blocks, om.input_blocks, "{ctx}: input blocks");
        assert_eq!(op.input_rows, om.input_rows, "{ctx}: input rows");
        assert_eq!(op.produced_blocks, om.produced_blocks, "{ctx}: out blocks");
        assert_eq!(op.produced_rows, om.produced_rows, "{ctx}: out rows");
        assert_eq!(op.produced_bytes, om.produced_bytes, "{ctx}: out bytes");
        assert_eq!(op.total_task_time, om.total_task_time, "{ctx}: task time");
        assert_eq!(op.max_task_time, om.max_task_time(), "{ctx}: max task");
        assert_eq!(op.lip_pruned_rows, om.lip_pruned_rows, "{ctx}: lip");
        assert_eq!(&op.edge.rows, &m.edges[id].rows, "{ctx}: edge rows");
        assert_eq!(&op.edge.blocks, &m.edges[id].blocks, "{ctx}: edge blocks");
        assert_eq!(&op.edge.flushes, &m.edges[id].flushes, "{ctx}: flushes");
    }

    // Query-level totals.
    assert_eq!(ex.wall_time, m.wall_time, "{label}: wall time");
    assert_eq!(ex.result_rows, m.result_rows, "{label}: result rows");
    assert_eq!(ex.workers, m.workers, "{label}: workers");
    assert_eq!(
        ex.degradations,
        m.degradations.len(),
        "{label}: degradations"
    );
    assert_eq!(ex.fused_pipelines, m.fused_pipelines, "{label}: fused");
    assert_eq!(ex.spill_events, m.spill_events, "{label}: spills");
    assert_eq!(ex.spilled_bytes, m.spilled_bytes, "{label}: spilled bytes");
    assert_eq!(ex.peak_temp_bytes, m.peak_temp_bytes, "{label}: peak temp");

    // Explain vs the task log and the trace: three independent recordings
    // of "a work order finished" must agree on the total.
    let explain_orders: usize = ex.ops.iter().map(|o| o.work_orders).sum();
    assert_eq!(explain_orders, m.tasks.len(), "{label}: task log total");
    let trace = r.trace.as_ref().expect("tracing was enabled");
    assert_eq!(trace.dropped, 0, "{label}: trace must be complete");
    assert_eq!(
        explain_orders,
        trace.count(|k| matches!(k, TraceEventKind::WorkOrderFinished { .. })),
        "{label}: trace work-order total"
    );

    // The hub, which adds the finished attempt's metrics, holds their totals.
    let snap = hub.snapshot();
    let ops = |f: fn(&uot_core::OperatorMetrics) -> usize| m.ops.iter().map(f).sum::<usize>();
    let edges = |f: fn(&uot_core::EdgeMetrics) -> usize| m.edges.iter().map(f).sum::<usize>();
    for (counter, expected) in [
        (HubCounter::WorkOrders, ops(|o| o.work_orders)),
        (HubCounter::BlocksProduced, ops(|o| o.produced_blocks)),
        (HubCounter::RowsProduced, ops(|o| o.produced_rows)),
        (HubCounter::Transfers, edges(|e| e.flushes)),
        (HubCounter::PartialTransfers, edges(|e| e.partial_flushes)),
        (HubCounter::TransferBlocks, edges(|e| e.blocks)),
        (HubCounter::TransferBytes, edges(|e| e.bytes)),
        (HubCounter::SpillEvents, m.spill_events),
        (HubCounter::SpilledBytes, m.spilled_bytes),
        (HubCounter::SpillRestoredBytes, m.restored_bytes),
    ] {
        assert_eq!(
            snap.counter(counter),
            expected as u64,
            "{label}: hub {counter:?} vs metrics"
        );
    }
    // One service-time observation per work order, in whole microseconds.
    let service = snap.histogram(HubHistogram::WorkOrderServiceUs);
    assert_eq!(
        service.count,
        ops(|o| o.work_orders) as u64,
        "{label}: hub service-time count vs work orders"
    );
    let task_us: u64 = m
        .ops
        .iter()
        .flat_map(|o| &o.task_times)
        .map(|d| d.as_micros() as u64)
        .sum();
    assert_eq!(service.sum, task_us, "{label}: hub service-time sum");

    // Flow conservation: everything a consumer reports as input arrived
    // over the transfer edges that name it as their consumer. Operators
    // that scan a base table additionally count the scanned blocks as
    // input, so for those the edge total is only a lower bound; fused
    // chain interiors see zero on both sides (blocks are pushed, never
    // staged), so the equality still holds for them.
    for (c, om) in m.ops.iter().enumerate() {
        let (rows_in, blocks_in) = ex
            .ops
            .iter()
            .filter(|o| o.edge.consumer == Some(c))
            .fold((0, 0), |(r, b), o| (r + o.edge.rows, b + o.edge.blocks));
        if matches!(plan.ops()[c].kind.stream_source(), Source::Op(_)) {
            assert_eq!(rows_in, om.input_rows, "{label}: rows into op {c}");
            assert_eq!(blocks_in, om.input_blocks, "{label}: blocks into op {c}");
        } else {
            assert!(
                rows_in <= om.input_rows && blocks_in <= om.input_blocks,
                "{label}: op {c} edge input exceeds recorded input"
            );
        }
    }

    // The rendering exists and carries one line per operator at minimum.
    let text = ex.render();
    assert!(
        text.lines().count() > plan.len(),
        "{label}: render too short:\n{text}"
    );
    r
}

#[test]
fn explain_reconciles_across_queries_modes_and_uots() {
    let db = db();
    for q in [QueryId::Q1, QueryId::Q3, QueryId::Q6] {
        for mode in [ExecMode::Serial, ExecMode::Parallel { workers: 4 }] {
            for uot in [Uot::Blocks(1), Uot::Blocks(4), Uot::Table] {
                let cfg = EngineConfig {
                    mode,
                    trace: Some(TraceConfig::default()),
                    ..EngineConfig::default()
                }
                .with_block_bytes(8 * 1024)
                .with_uot(uot);
                let label = format!("{q:?}/{mode:?}/{uot:?}");
                reconcile(&db, q, cfg, &label);
            }
        }
    }
}

/// The spill tier's counters reach the hub through the same fold. At this
/// budget Q3's first attempt spills (Q3 spills from 128 to 256 KiB here) and
/// still succeeds, so the case is non-vacuous and has one attempt.
#[test]
fn spill_counters_reconcile_with_the_hub() {
    let db = db();
    let cfg = EngineConfig {
        trace: Some(TraceConfig::default()),
        ..EngineConfig::serial()
    }
    .with_block_bytes(8 * 1024)
    .with_uot(Uot::Blocks(4))
    .with_memory_budget(Some(192 * 1024))
    .with_degrade(DegradePolicy::Spill);
    let r = reconcile(&db, QueryId::Q3, cfg, "Q3/Serial/Spill");
    let m = &r.metrics;
    assert!(m.degradations.is_empty(), "the first attempt must succeed");
    assert!(m.spill_events > 0, "the case must spill");
    assert!(m.restored_bytes > 0, "spilled blocks are faulted back in");
}

/// The SQL front door: `EXPLAIN ANALYZE <stmt>` really runs the statement,
/// returns the annotated tree as its rows, and keeps the real execution's
/// metrics (and explain struct) attached.
#[test]
fn sql_explain_analyze_returns_the_annotated_tree() {
    let db = db();
    let engine = Engine::new(EngineConfig::serial().with_block_bytes(8 * 1024))
        .with_catalog(db.catalog().clone());

    let sql = sql_text(QueryId::Q6);
    let plain = engine.execute_sql(sql).expect("plain run");
    let explained = engine
        .execute_sql(&format!("EXPLAIN ANALYZE {sql}"))
        .expect("explain analyze run");

    // The statement really executed: its measured result cardinality matches
    // the plain run, even though the returned rows are the plan rendering.
    let ex = explained.explain.as_ref().expect("explain attached");
    assert_eq!(ex.result_rows, plain.metrics.result_rows);
    assert_eq!(explained.metrics.result_rows, plain.metrics.result_rows);
    let total_orders: usize = ex.ops.iter().map(|o| o.work_orders).sum();
    assert!(total_orders > 0, "the inner statement must have run");

    // The visible result is the rendering, one row per line, one column.
    assert_eq!(explained.schema.len(), 1);
    let rows: usize = explained.blocks.iter().map(|b| b.num_rows()).sum();
    assert_eq!(rows, ex.render().lines().count());
}
