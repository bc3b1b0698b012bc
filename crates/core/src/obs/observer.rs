//! Trace-recording and fan-out observers.

use crate::metrics::TaskRecord;
use crate::plan::OpId;
use crate::scheduler::{MetricsCarrier, MetricsObserver, SchedulerObserver};
use crate::trace::{TraceEventKind, TraceSink};
use crate::work_order::WorkOrder;
use std::sync::Arc;
use uot_storage::StorageBlock;

/// Observer that records every scheduler event into a [`TraceSink`].
///
/// It runs on the scheduler thread, so recording costs one uncontended lock
/// per event; byte sums over flushed block slices are computed here — the
/// [`NoopObserver`](crate::scheduler::NoopObserver) path never pays them.
#[derive(Debug, Clone)]
pub struct TracingObserver {
    sink: Arc<TraceSink>,
}

impl TracingObserver {
    /// Observer recording into `sink`.
    pub fn new(sink: Arc<TraceSink>) -> Self {
        TracingObserver { sink }
    }

    /// The sink this observer records into.
    pub fn sink(&self) -> &Arc<TraceSink> {
        &self.sink
    }
}

impl SchedulerObserver for TracingObserver {
    fn work_order_dispatched(&mut self, wo: &WorkOrder) {
        self.sink.record(TraceEventKind::WorkOrderDispatched {
            seq: wo.seq,
            op: wo.op,
        });
    }

    fn work_order_completed(&mut self, wo: &WorkOrder, record: TaskRecord) {
        self.sink.record(TraceEventKind::WorkOrderFinished {
            seq: wo.seq,
            op: wo.op,
            worker: record.worker,
            start: record.start,
            end: record.end,
        });
    }

    fn blocks_produced(&mut self, op: OpId, blocks: usize, rows: usize, _bytes: usize) {
        self.sink
            .record(TraceEventKind::BlocksProduced { op, blocks, rows });
    }

    fn edge_staged(&mut self, producer: OpId, consumer: OpId, staged: usize, threshold: usize) {
        self.sink.record(TraceEventKind::EdgeStaged {
            producer,
            consumer,
            staged,
            threshold,
        });
    }

    fn transfer_flushed(
        &mut self,
        producer: OpId,
        consumer: OpId,
        blocks: &[Arc<StorageBlock>],
        partial: bool,
    ) {
        self.sink.record(TraceEventKind::TransferFlushed {
            producer,
            consumer,
            blocks: blocks.len(),
            bytes: blocks.iter().map(|b| b.allocated_bytes()).sum(),
            partial,
        });
    }

    fn operator_finished(&mut self, op: OpId) {
        self.sink.record(TraceEventKind::OperatorFinished { op });
    }
}

/// Fan-out observer: every event goes to `first`, then to `second`.
///
/// The canonical stack is `CompositeObserver<MetricsObserver, TracingObserver>`
/// — metrics keep accumulating exactly as on the untraced path (the drivers
/// reach them through [`MetricsCarrier`]) while the tracing layer records the
/// same events into its sink.
#[derive(Debug)]
pub struct CompositeObserver<A, B> {
    /// The first (inner) observer; carries the metrics in the canonical stack.
    pub first: A,
    /// The second (outer) observer.
    pub second: B,
}

impl<A, B> CompositeObserver<A, B> {
    /// Compose two observers.
    pub fn new(first: A, second: B) -> Self {
        CompositeObserver { first, second }
    }
}

impl<A: SchedulerObserver, B: SchedulerObserver> SchedulerObserver for CompositeObserver<A, B> {
    fn work_order_dispatched(&mut self, wo: &WorkOrder) {
        self.first.work_order_dispatched(wo);
        self.second.work_order_dispatched(wo);
    }

    fn work_order_completed(&mut self, wo: &WorkOrder, record: TaskRecord) {
        self.first.work_order_completed(wo, record);
        self.second.work_order_completed(wo, record);
    }

    fn blocks_produced(&mut self, op: OpId, blocks: usize, rows: usize, bytes: usize) {
        self.first.blocks_produced(op, blocks, rows, bytes);
        self.second.blocks_produced(op, blocks, rows, bytes);
    }

    fn blocks_transferred(&mut self, op: OpId, blocks: &[Arc<StorageBlock>]) {
        self.first.blocks_transferred(op, blocks);
        self.second.blocks_transferred(op, blocks);
    }

    fn edge_staged(&mut self, producer: OpId, consumer: OpId, staged: usize, threshold: usize) {
        self.first
            .edge_staged(producer, consumer, staged, threshold);
        self.second
            .edge_staged(producer, consumer, staged, threshold);
    }

    fn transfer_flushed(
        &mut self,
        producer: OpId,
        consumer: OpId,
        blocks: &[Arc<StorageBlock>],
        partial: bool,
    ) {
        self.first
            .transfer_flushed(producer, consumer, blocks, partial);
        self.second
            .transfer_flushed(producer, consumer, blocks, partial);
    }

    fn operator_finished(&mut self, op: OpId) {
        self.first.operator_finished(op);
        self.second.operator_finished(op);
    }
}

impl<A: MetricsCarrier, B> MetricsCarrier for CompositeObserver<A, B> {
    fn metrics(&mut self) -> &mut MetricsObserver {
        self.first.metrics()
    }
}

/// A tracing layer that may be absent. Every query, at either front end,
/// runs under one observer stack with this layer in it, so traced and
/// untraced queries share a single concrete
/// [`SchedulerCore`](crate::scheduler::SchedulerCore) type; an absent layer
/// costs one branch per event.
#[derive(Debug, Default)]
pub struct MaybeTracingObserver(pub Option<TracingObserver>);

impl SchedulerObserver for MaybeTracingObserver {
    fn work_order_dispatched(&mut self, wo: &WorkOrder) {
        if let Some(t) = &mut self.0 {
            t.work_order_dispatched(wo);
        }
    }

    fn work_order_completed(&mut self, wo: &WorkOrder, record: TaskRecord) {
        if let Some(t) = &mut self.0 {
            t.work_order_completed(wo, record);
        }
    }

    fn blocks_produced(&mut self, op: OpId, blocks: usize, rows: usize, bytes: usize) {
        if let Some(t) = &mut self.0 {
            t.blocks_produced(op, blocks, rows, bytes);
        }
    }

    fn blocks_transferred(&mut self, op: OpId, blocks: &[Arc<StorageBlock>]) {
        if let Some(t) = &mut self.0 {
            t.blocks_transferred(op, blocks);
        }
    }

    fn edge_staged(&mut self, producer: OpId, consumer: OpId, staged: usize, threshold: usize) {
        if let Some(t) = &mut self.0 {
            t.edge_staged(producer, consumer, staged, threshold);
        }
    }

    fn transfer_flushed(
        &mut self,
        producer: OpId,
        consumer: OpId,
        blocks: &[Arc<StorageBlock>],
        partial: bool,
    ) {
        if let Some(t) = &mut self.0 {
            t.transfer_flushed(producer, consumer, blocks, partial);
        }
    }

    fn operator_finished(&mut self, op: OpId) {
        if let Some(t) = &mut self.0 {
            t.operator_finished(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work_order::WorkKind;
    use std::time::Duration;

    #[derive(Default)]
    struct Counting {
        events: usize,
    }

    impl SchedulerObserver for Counting {
        fn work_order_dispatched(&mut self, _wo: &WorkOrder) {
            self.events += 1;
        }
        fn operator_finished(&mut self, _op: OpId) {
            self.events += 1;
        }
    }

    #[test]
    fn composite_fans_out_to_both() {
        let mut c = CompositeObserver::new(Counting::default(), Counting::default());
        let wo = WorkOrder {
            query: crate::query_id::QueryId::SOLO,
            op: 0,
            kind: WorkKind::FinalizeAggregate,
            seq: 0,
        };
        c.work_order_dispatched(&wo);
        c.operator_finished(0);
        assert_eq!(c.first.events, 2);
        assert_eq!(c.second.events, 2);
    }

    #[test]
    fn tracing_observer_records_dispatch_and_finish() {
        let sink = TraceSink::new(1024);
        let mut obs = TracingObserver::new(sink.clone());
        let wo = WorkOrder {
            query: crate::query_id::QueryId::SOLO,
            op: 2,
            kind: WorkKind::FinalizeAggregate,
            seq: 7,
        };
        obs.work_order_dispatched(&wo);
        obs.work_order_completed(
            &wo,
            TaskRecord {
                op: 2,
                worker: 1,
                start: Duration::from_micros(10),
                end: Duration::from_micros(30),
            },
        );
        obs.edge_staged(1, 2, 3, 4);
        obs.operator_finished(2);
        let trace = obs.sink().finish(vec![]);
        assert_eq!(trace.len(), 4);
        assert!(trace.events.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::WorkOrderFinished {
                seq: 7,
                op: 2,
                worker: 1,
                ..
            }
        )));
        assert!(trace.events.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::EdgeStaged {
                producer: 1,
                consumer: 2,
                staged: 3,
                threshold: 4,
            }
        )));
    }
}
