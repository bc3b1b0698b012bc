//! The one per-query scheduler observer.

use crate::metrics::{EdgeMetrics, OperatorMetrics, QueryMetrics, TaskRecord};
use crate::obs::hub::{HubSnapshot, MetricsHub};
use crate::obs::live::LiveQuery;
use crate::plan::{OpId, QueryPlan};
use crate::trace::{TraceEventKind, TraceSink};
use crate::work_order::WorkOrder;
use std::sync::Arc;

/// Records one query's scheduler events — dispatch, completion, block
/// production, staging, flushes, operator completion — into every place
/// they are read from.
///
/// The metrics layer is always on: it accumulates the per-operator, per-edge
/// and per-task [`QueryMetrics`](crate::metrics::QueryMetrics) the paper's
/// figures are made of. Two layers are optional: a [`TraceSink`] and the
/// service's live-registry record. Every query, at either front end, runs
/// under this one type; an absent layer costs one branch per event. Each
/// event's numbers are computed once, by the scheduler, and handed to every
/// layer. The live [`MetricsHub`], when installed, sees no events: it adds
/// the finished attempt's metrics once, when the scheduler tears the attempt
/// down.
#[derive(Debug)]
pub struct QueryObserver {
    pub(crate) ops: Vec<OperatorMetrics>,
    pub(crate) edges: Vec<EdgeMetrics>,
    pub(crate) tasks: Vec<TaskRecord>,
    hub: Option<Arc<MetricsHub>>,
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

    /// Also add the attempt's finished metrics to `hub` when it ends, so a
    /// scrape counts an attempt's work once the attempt is over.
    pub fn with_hub(mut self, hub: Arc<MetricsHub>) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Also record every event into `sink`.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Also count dispatched and completed work orders into a live-registry
    /// record: one relaxed add each, which `/queries` reads promptly.
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

    /// The attempt is over and `metrics` are its final numbers: add them to
    /// the hub, if one is installed, in one bulk merge.
    pub(crate) fn attempt_finished(&self, metrics: &QueryMetrics) {
        if let Some(hub) = &self.hub {
            hub.absorb(&HubSnapshot::of_attempt(metrics));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::hub::{bucket_index, HubCounter, HubHistogram};
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
            kind: WorkKind::Finalize {
                part: 0,
                parts: 1,
                input: crate::work_order::FinalizeInput::Sort,
            },
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
            .with_hub(hub.clone());
        let (wo, record) = finished(0, 7);
        obs.work_order_dispatched(&wo);
        obs.work_order_completed(wo.seq, record);
        obs.transfer_flushed(0, 1, 2, 10, 512, true);
        obs.operator_finished(0);
        assert_eq!(obs.ops[0].work_orders, 1);
        assert_eq!(obs.ops[0].task_times, vec![Duration::from_micros(20)]);
        assert_eq!((obs.edges[0].partial_flushes, obs.edges[0].bytes), (1, 512));
        // The hub sees no events, only the finished attempt's fold.
        let snap = hub.snapshot();
        assert_eq!(snap.counter(HubCounter::WorkOrders), 0);
        assert_eq!(snap.counter(HubCounter::TransferBytes), 0);
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
    fn finished_attempt_folds_into_the_hub() {
        let plan = plan();
        let hub = Arc::new(MetricsHub::new());
        let mut obs = QueryObserver::new(&plan).with_hub(hub.clone());
        for seq in 0..3 {
            let (_, mut record) = finished(0, seq);
            record.end += Duration::from_micros(seq as u64);
            obs.work_order_completed(seq, record);
        }
        obs.blocks_produced(0, 2, 10, 4096);
        obs.blocks_produced(0, 1, 3, 2048);
        obs.edge_staged(0, 1, 1, 4);
        obs.transfer_flushed(0, 1, 4, 40, 8192, false);
        obs.transfer_flushed(0, 1, 2, 10, 512, true);
        let metrics = QueryMetrics {
            ops: obs.ops.clone(),
            edges: obs.edges.clone(),
            spill_events: 3,
            spilled_bytes: 3000,
            restored_bytes: 1000,
            ..Default::default()
        };
        obs.attempt_finished(&metrics);
        let snap = hub.snapshot();
        for (counter, expected) in [
            (HubCounter::WorkOrders, 3),
            (HubCounter::BlocksProduced, 3),
            (HubCounter::RowsProduced, 13),
            (HubCounter::Transfers, 1),
            (HubCounter::PartialTransfers, 1),
            (HubCounter::TransferBlocks, 6),
            (HubCounter::TransferBytes, 8704),
            (HubCounter::SpillEvents, 3),
            (HubCounter::SpilledBytes, 3000),
            (HubCounter::SpillRestoredBytes, 1000),
            (HubCounter::QueriesCompleted, 0),
        ] {
            assert_eq!(snap.counter(counter), expected, "{counter:?}");
        }
        // One service-time observation per work order: 20, 21 and 22 us.
        let service = snap.histogram(HubHistogram::WorkOrderServiceUs);
        assert_eq!((service.count, service.sum), (3, 63));
        assert_eq!(service.buckets[bucket_index(20)], 3);
        assert_eq!(snap.histogram(HubHistogram::QueryLatencyUs).count, 0);
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
