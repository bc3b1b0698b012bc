//! The one per-query scheduler observer.

use crate::metrics::{EdgeMetrics, OperatorMetrics, TaskRecord};
use crate::obs::hub::{HubCounter, HubHistogram, HubObserver, MetricsHub};
use crate::obs::live::LiveQuery;
use crate::plan::{OpId, QueryPlan};
use crate::trace::{TraceEventKind, TraceSink};
use crate::work_order::WorkOrder;
use std::sync::Arc;
use uot_storage::MemoryTracker;

/// Records one query's scheduler events — dispatch, completion, block
/// production, staging, flushes, operator completion — into every place
/// they are read from.
///
/// The metrics layer is always on: it accumulates the per-operator, per-edge
/// and per-task [`QueryMetrics`](crate::metrics::QueryMetrics) the paper's
/// figures are made of. Three layers are optional: the live
/// [`MetricsHub`] (batched, see [`QueryObserver::with_hub`]), a
/// [`TraceSink`] and the service's live-registry record. Every query, at
/// either front end, runs under this one type; an absent layer costs one
/// branch per event. Each event's numbers are computed once, by the
/// scheduler, and handed to every layer.
#[derive(Debug)]
pub struct QueryObserver {
    pub(crate) ops: Vec<OperatorMetrics>,
    pub(crate) edges: Vec<EdgeMetrics>,
    pub(crate) tasks: Vec<TaskRecord>,
    hub: Option<HubObserver>,
    trace: Option<Arc<TraceSink>>,
    live: Option<Arc<LiveQuery>>,
}

impl QueryObserver {
    /// Metrics storage shaped for `plan`, with no optional layer.
    pub fn new(plan: &QueryPlan) -> Self {
        QueryObserver {
            ops: plan
                .ops()
                .iter()
                .map(|op| OperatorMetrics {
                    name: op.name.clone(),
                    kind: op.kind.kind_label().to_string(),
                    ..Default::default()
                })
                .collect(),
            edges: vec![EdgeMetrics::default(); plan.len()],
            tasks: Vec::new(),
            hub: None,
            trace: None,
            live: None,
        }
    }

    /// Also feed `hub`. Deltas accumulate locally and reach the shared hub
    /// every few dozen events and when the observer drops, so a scrape can
    /// lag an in-flight query by a handful of events. `tracker` is the
    /// query's own memory tracker, sampled for pool residency at each
    /// work-order completion.
    pub fn with_hub(mut self, hub: Arc<MetricsHub>, tracker: Arc<MemoryTracker>) -> Self {
        self.hub = Some(HubObserver::new(hub, tracker));
        self
    }

    /// Also record every event into `sink`.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Also count dispatched and completed work orders into a live-registry
    /// record. These updates are not batched: they are one relaxed add each,
    /// and `/queries` reads them promptly.
    pub fn with_live(mut self, live: Arc<LiveQuery>) -> Self {
        self.live = Some(live);
        self
    }

    fn trace(&self, kind: TraceEventKind) {
        if let Some(sink) = &self.trace {
            sink.record(kind);
        }
    }

    /// A work order was handed to a worker.
    pub(crate) fn work_order_dispatched(&mut self, wo: &WorkOrder) {
        self.trace(TraceEventKind::WorkOrderDispatched {
            seq: wo.seq,
            op: wo.op,
        });
        if let Some(live) = &self.live {
            live.on_dispatched();
        }
    }

    /// Work order `seq` finished executing.
    pub(crate) fn work_order_completed(&mut self, seq: usize, record: TaskRecord) {
        let d = record.duration();
        let m = &mut self.ops[record.op];
        m.work_orders += 1;
        m.total_task_time += d;
        m.task_times.push(d);
        self.tasks.push(record);
        if let Some(hub) = &mut self.hub {
            hub.bump(HubCounter::WorkOrders, 1);
            hub.note(HubHistogram::WorkOrderServiceUs, d.as_micros() as u64);
            hub.sample_residency();
            hub.tick();
        }
        self.trace(TraceEventKind::WorkOrderFinished {
            seq,
            op: record.op,
            worker: record.worker,
            start: record.start,
            end: record.end,
        });
        if let Some(live) = &self.live {
            live.on_completed();
        }
    }

    /// `op` produced output blocks (completed or flushed partials).
    pub(crate) fn blocks_produced(&mut self, op: OpId, blocks: usize, rows: usize, bytes: usize) {
        let m = &mut self.ops[op];
        m.produced_blocks += blocks;
        m.produced_rows += rows;
        m.produced_bytes += bytes;
        if let Some(hub) = &mut self.hub {
            hub.bump(HubCounter::BlocksProduced, blocks as u64);
            hub.bump(HubCounter::RowsProduced, rows as u64);
            hub.tick();
        }
        self.trace(TraceEventKind::BlocksProduced { op, blocks, rows });
    }

    /// Blocks were transferred to `op`'s input.
    pub(crate) fn blocks_transferred(&mut self, op: OpId, blocks: usize, rows: usize) {
        self.ops[op].input_blocks += blocks;
        self.ops[op].input_rows += rows;
    }

    /// A transfer edge accumulated output below its UoT threshold; `staged`
    /// is the occupancy after staging.
    pub(crate) fn edge_staged(
        &mut self,
        producer: OpId,
        consumer: OpId,
        staged: usize,
        threshold: usize,
    ) {
        let e = &mut self.edges[producer];
        e.consumer = Some(consumer);
        e.threshold = threshold;
        e.stalls += 1;
        e.max_staged = e.max_staged.max(staged);
        e.sum_staged += staged;
        if let Some(hub) = &mut self.hub {
            hub.note(HubHistogram::EdgeOccupancyBlocks, staged as u64);
            hub.tick();
        }
        self.trace(TraceEventKind::EdgeStaged {
            producer,
            consumer,
            staged,
            threshold,
        });
    }

    /// A transfer edge moved `blocks` blocks (`rows` rows, `bytes` allocated
    /// bytes) to its consumer — a threshold-triggered transfer
    /// (`partial == false`) or the end-of-producer flush of a partial
    /// accumulation. The sizes are the **actual** transferred set, measured
    /// after any injected fault at the flush site ran.
    pub(crate) fn transfer_flushed(
        &mut self,
        producer: OpId,
        consumer: OpId,
        blocks: usize,
        rows: usize,
        bytes: usize,
        partial: bool,
    ) {
        let e = &mut self.edges[producer];
        e.consumer = Some(consumer);
        if partial {
            e.partial_flushes += 1;
        } else {
            e.flushes += 1;
        }
        e.blocks += blocks;
        e.rows += rows;
        e.bytes += bytes;
        if let Some(hub) = &mut self.hub {
            hub.bump(
                if partial {
                    HubCounter::PartialTransfers
                } else {
                    HubCounter::Transfers
                },
                1,
            );
            hub.bump(HubCounter::TransferBlocks, blocks as u64);
            hub.bump(HubCounter::TransferBytes, bytes as u64);
            hub.tick();
        }
        self.trace(TraceEventKind::TransferFlushed {
            producer,
            consumer,
            blocks,
            bytes,
            partial,
        });
    }

    /// `op` finished completely.
    pub(crate) fn operator_finished(&mut self, op: OpId) {
        self.trace(TraceEventKind::OperatorFinished { op });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanBuilder, Source};
    use crate::work_order::WorkKind;
    use std::time::Duration;
    use uot_expr::{cmp, col, lit, CmpOp};
    use uot_storage::{BlockFormat, DataType, Schema, TableBuilder};

    fn plan() -> QueryPlan {
        let schema = Schema::from_pairs(&[("k", DataType::Int32)]);
        let t = Arc::new(TableBuilder::new("t", schema, BlockFormat::Row, 256).finish());
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(t), cmp(col(0), CmpOp::Lt, lit(1i32)))
            .unwrap();
        pb.build(s).unwrap()
    }

    fn finished(op: OpId, seq: usize) -> (WorkOrder, TaskRecord) {
        let wo = WorkOrder {
            query: crate::query_id::QueryId::SOLO,
            op,
            kind: WorkKind::FinalizeAggregate,
            seq,
        };
        let record = TaskRecord {
            op,
            worker: 1,
            start: Duration::from_micros(10),
            end: Duration::from_micros(30),
        };
        (wo, record)
    }

    #[test]
    fn every_layer_sees_each_event() {
        let plan = plan();
        let sink = TraceSink::new(1024);
        let hub = Arc::new(MetricsHub::new());
        let mut obs = QueryObserver::new(&plan)
            .with_trace(sink.clone())
            .with_hub(hub.clone(), MemoryTracker::new());
        let (wo, record) = finished(0, 7);
        obs.work_order_dispatched(&wo);
        obs.work_order_completed(wo.seq, record);
        obs.transfer_flushed(0, 1, 2, 10, 512, true);
        obs.operator_finished(0);
        assert_eq!(obs.ops[0].work_orders, 1);
        assert_eq!(obs.ops[0].task_times, vec![Duration::from_micros(20)]);
        assert_eq!((obs.edges[0].partial_flushes, obs.edges[0].bytes), (1, 512));
        drop(obs); // flushes the hub's batched deltas
        let snap = hub.snapshot();
        assert_eq!(snap.counter(HubCounter::WorkOrders), 1);
        assert_eq!(snap.counter(HubCounter::PartialTransfers), 1);
        assert_eq!(snap.counter(HubCounter::TransferBytes), 512);
        let trace = sink.finish(vec![]);
        assert_eq!(trace.len(), 4);
        assert!(trace.events.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::WorkOrderFinished {
                seq: 7,
                op: 0,
                worker: 1,
                ..
            }
        )));
    }

    #[test]
    fn trace_records_dispatch_staging_and_finish() {
        let sink = TraceSink::new(1024);
        let mut obs = QueryObserver::new(&plan()).with_trace(sink.clone());
        let (wo, _) = finished(0, 3);
        obs.work_order_dispatched(&wo);
        obs.edge_staged(0, 1, 3, 4);
        obs.operator_finished(0);
        assert_eq!(obs.edges[0].max_staged, 3);
        let trace = sink.finish(vec![]);
        assert_eq!(trace.len(), 3);
        assert!(trace.events.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::EdgeStaged {
                producer: 0,
                consumer: 1,
                staged: 3,
                threshold: 4,
            }
        )));
    }
}
