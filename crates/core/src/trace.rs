//! Structured execution tracing: typed, timestamped event capture.
//!
//! Every figure in the paper's evaluation is a view over per-work-order and
//! per-transfer timelines (Fig. 3 operator time distribution, Fig. 5 probe
//! task times, Fig. 10 scalability-vs-UoT). The [`TraceSink`] records those
//! timelines as first-class data: a bounded, sharded buffer of
//! [`TraceEvent`]s that worker threads and the scheduler append to with one
//! short uncontended lock acquisition per event. Tracing is **opt-in** — the
//! sink only exists when the engine was configured with
//! [`EngineConfig::tracing`](crate::engine::EngineConfig::tracing); without
//! one, event payloads are built inside closures that are never evaluated.
//!
//! A finished capture is frozen into a [`Trace`] — events sorted by
//! timestamp plus operator names — which the exporters under [`crate::obs`]
//! turn into Chrome `trace_event` JSON and per-edge UoT-occupancy timelines.

use crate::fault::{FaultKind, FaultSite};
use crate::plan::OpId;
use crate::uot::Uot;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What happened, with enough attribution to rebuild the paper's timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A work order was handed to a worker.
    WorkOrderDispatched {
        /// Work-order sequence number (pairs dispatch with its outcome).
        seq: usize,
        /// Operator the work order belongs to.
        op: OpId,
    },
    /// A work order finished successfully.
    WorkOrderFinished {
        /// Work-order sequence number.
        seq: usize,
        /// Operator the work order belongs to.
        op: OpId,
        /// Worker that ran it (0 in serial mode).
        worker: usize,
        /// Execution start, relative to query start.
        start: Duration,
        /// Execution end, relative to query start.
        end: Duration,
    },
    /// A work order panicked (contained; the query errors).
    WorkOrderPanicked {
        /// Work-order sequence number.
        seq: usize,
        /// Operator the work order belongs to.
        op: OpId,
    },
    /// A work order returned an error (budget, storage, injected, ...).
    WorkOrderFailed {
        /// Work-order sequence number.
        seq: usize,
        /// Operator the work order belongs to.
        op: OpId,
    },
    /// A work order observed cancellation and stopped.
    WorkOrderCancelled {
        /// Work-order sequence number.
        seq: usize,
        /// Operator the work order belongs to.
        op: OpId,
    },
    /// An operator produced output blocks (completed or flushed partials).
    BlocksProduced {
        /// Producing operator.
        op: OpId,
        /// Completed blocks produced.
        blocks: usize,
        /// Rows in those blocks.
        rows: usize,
    },
    /// A transfer edge accumulated blocks below its UoT threshold.
    EdgeStaged {
        /// Producer side of the edge.
        producer: OpId,
        /// Consumer side of the edge.
        consumer: OpId,
        /// Blocks currently staged on the edge.
        staged: usize,
        /// The edge's UoT threshold in blocks (`usize::MAX` = whole table).
        threshold: usize,
    },
    /// A transfer edge moved staged blocks to its consumer. `blocks`/`bytes`
    /// are the **actual** flushed sizes, measured after any injected fault at
    /// the flush site ran — not the pre-fault staging level.
    TransferFlushed {
        /// Producer side of the edge.
        producer: OpId,
        /// Consumer side of the edge.
        consumer: OpId,
        /// Blocks actually transferred.
        blocks: usize,
        /// Bytes actually transferred.
        bytes: usize,
        /// True for an end-of-producer partial flush (below the threshold);
        /// false for a threshold-triggered transfer.
        partial: bool,
    },
    /// An operator finished completely.
    OperatorFinished {
        /// The finished operator.
        op: OpId,
    },
    /// Temporary blocks were allocated on an operator's output path.
    PoolAlloc {
        /// Operator that allocated.
        op: OpId,
        /// Bytes of completed blocks this allocation produced.
        bytes: usize,
        /// Tracker bytes in use after the allocation.
        in_use: usize,
        /// The configured memory budget (`usize::MAX` = unlimited).
        budget: usize,
    },
    /// Tracked temporary bytes were released back to the tracker.
    PoolFree {
        /// Bytes released.
        bytes: usize,
        /// Tracker bytes in use after the release.
        in_use: usize,
    },
    /// The engine degraded the UoT after a tripped memory budget.
    Degraded {
        /// UoT of the failed attempt.
        from: Uot,
        /// UoT of the retry.
        to: Uot,
    },
    /// A fused pipeline ran to completion: every batch of the chain's input
    /// was pushed through the fused loop with zero blocks staged on interior
    /// edges. Emitted when the chain's tail operator finishes.
    PipelineFused {
        /// Pipeline id (index into the query's fused-chain list).
        pipeline: usize,
        /// Head operator (received the staged input).
        head: OpId,
        /// Tail operator (owned the output).
        tail: OpId,
        /// Number of operators fused into the loop.
        ops: usize,
        /// Input batches pushed through the loop.
        batches: usize,
        /// Input rows pushed through the loop.
        rows: usize,
        /// Summed wall time inside the fused loop, microseconds.
        elapsed_us: u64,
    },
    /// A block was evicted from the RAM tier to the disk spill tier.
    SpillOut {
        /// Operator the spilled block belongs to (the staging producer for
        /// edge blocks, the build/probe operator for grace partitions).
        op: OpId,
        /// Tracked bytes released to the disk tier.
        bytes: usize,
        /// Tracker bytes in use after the eviction.
        in_use: usize,
    },
    /// A spilled block was faulted back in from the disk tier.
    SpillIn {
        /// Operator the restored block belongs to.
        op: OpId,
        /// Tracked bytes re-charged by the fault-in.
        bytes: usize,
        /// Tracker bytes in use after the fault-in.
        in_use: usize,
    },
    /// A deterministic fault fired at an injection site.
    FaultInjected {
        /// The site that fired.
        site: FaultSite,
        /// What was injected.
        kind: FaultKind,
        /// Operator attribution: the executing operator for work-order and
        /// pool-allocation sites, the flushing producer for transfer sites.
        op: OpId,
    },
}

impl TraceEventKind {
    /// The operator this event is attributed to, if any.
    pub fn op(&self) -> Option<OpId> {
        match *self {
            TraceEventKind::WorkOrderDispatched { op, .. }
            | TraceEventKind::WorkOrderFinished { op, .. }
            | TraceEventKind::WorkOrderPanicked { op, .. }
            | TraceEventKind::WorkOrderFailed { op, .. }
            | TraceEventKind::WorkOrderCancelled { op, .. }
            | TraceEventKind::BlocksProduced { op, .. }
            | TraceEventKind::OperatorFinished { op }
            | TraceEventKind::PoolAlloc { op, .. }
            | TraceEventKind::SpillOut { op, .. }
            | TraceEventKind::SpillIn { op, .. }
            | TraceEventKind::FaultInjected { op, .. } => Some(op),
            TraceEventKind::PipelineFused { head, .. } => Some(head),
            TraceEventKind::EdgeStaged { producer, .. }
            | TraceEventKind::TransferFlushed { producer, .. } => Some(producer),
            TraceEventKind::PoolFree { .. } | TraceEventKind::Degraded { .. } => None,
        }
    }

    /// Short category label (the Chrome trace `cat`).
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::WorkOrderDispatched { .. } => "dispatch",
            TraceEventKind::WorkOrderFinished { .. } => "work_order",
            TraceEventKind::WorkOrderPanicked { .. } => "panic",
            TraceEventKind::WorkOrderFailed { .. } => "failure",
            TraceEventKind::WorkOrderCancelled { .. } => "cancel",
            TraceEventKind::BlocksProduced { .. } => "produce",
            TraceEventKind::EdgeStaged { .. } => "stage",
            TraceEventKind::TransferFlushed { .. } => "transfer",
            TraceEventKind::OperatorFinished { .. } => "op_finish",
            TraceEventKind::PoolAlloc { .. } => "pool_alloc",
            TraceEventKind::PoolFree { .. } => "pool_free",
            TraceEventKind::Degraded { .. } => "degrade",
            TraceEventKind::PipelineFused { .. } => "fused",
            TraceEventKind::SpillOut { .. } => "spill_out",
            TraceEventKind::SpillIn { .. } => "spill_in",
            TraceEventKind::FaultInjected { .. } => "fault",
        }
    }
}

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened, relative to sink creation (query start).
    pub t: Duration,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Default total event capacity of a [`TraceSink`].
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

const SHARDS: usize = 8;

/// A hash of the calling thread's id, which [`TraceSink`] picks a shard by.
/// Computed once per thread and cached in a TLS cell, because
/// `thread::current()` clones an `Arc` and hashing it on every event would
/// dominate the cost of recording the event itself.
fn thread_shard_key() -> usize {
    thread_local! {
        static SHARD_KEY: std::cell::Cell<usize> =
            const { std::cell::Cell::new(usize::MAX) };
    }
    SHARD_KEY.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            return v;
        }
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        let v = h.finish() as usize;
        c.set(v);
        v
    })
}

/// A bounded, sharded event buffer shared by every worker, whether it
/// records from inside a work order or while booking one under the
/// dispatcher lock.
///
/// Recording takes one uncontended `parking_lot` lock on a shard picked by
/// the calling thread's id, so concurrent workers rarely collide. The sink
/// holds at most `capacity` events in total, however they spread over the
/// shards; past that, events are counted as dropped instead of growing
/// without bound — a trace is a diagnostic, not a ledger, and a runaway
/// query must not OOM through its own telemetry.
#[derive(Debug)]
pub struct TraceSink {
    started: Instant,
    shards: Vec<Mutex<Vec<TraceEvent>>>,
    capacity: usize,
    /// Events offered so far, kept or not; the excess over `capacity` was
    /// dropped.
    offered: AtomicUsize,
    query: crate::query_id::QueryId,
}

impl TraceSink {
    /// A sink holding at most `capacity` events in total, attributed to the
    /// solo query id.
    pub fn new(capacity: usize) -> Arc<Self> {
        TraceSink::for_query(capacity, crate::query_id::QueryId::SOLO)
    }

    /// A sink attributed to `query` — the service gives each admitted query
    /// its own sink so frozen traces can be merged without ambiguity.
    pub fn for_query(capacity: usize, query: crate::query_id::QueryId) -> Arc<Self> {
        Arc::new(TraceSink {
            started: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            capacity,
            offered: AtomicUsize::new(0),
            query,
        })
    }

    /// The query this sink's events are attributed to.
    pub fn query(&self) -> crate::query_id::QueryId {
        self.query
    }

    /// Append one event, stamped with the elapsed time since sink creation.
    pub fn record(&self, kind: TraceEventKind) {
        let t = self.started.elapsed();
        if self.offered.fetch_add(1, Ordering::Relaxed) >= self.capacity {
            return;
        }
        let shard = thread_shard_key() % self.shards.len();
        self.shards[shard].lock().push(TraceEvent { t, kind });
    }

    /// Time elapsed since the sink was created (query start).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Events recorded so far across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// No events recorded?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the capacity was reached.
    pub fn dropped(&self) -> usize {
        self.offered
            .load(Ordering::Relaxed)
            .saturating_sub(self.capacity)
    }

    /// Drain every shard into a time-sorted [`Trace`]. `op_names` gives the
    /// display name of each operator by [`OpId`] (from the executed plan).
    pub fn finish(&self, op_names: Vec<String>) -> Trace {
        let mut events: Vec<TraceEvent> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            events.append(&mut shard.lock());
        }
        events.sort_by_key(|e| e.t);
        Trace {
            events,
            op_names,
            dropped: self.dropped(),
            query: self.query,
        }
    }
}

/// A finished, time-sorted capture of one query execution.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Operator display names, indexed by [`OpId`].
    pub op_names: Vec<String>,
    /// Events lost to the capacity bound (0 in normal runs).
    pub dropped: usize,
    /// The query this trace belongs to ([`QueryId::SOLO`](crate::query_id::QueryId::SOLO)
    /// outside a service). Exporters use it as the process id when merging
    /// traces from concurrent queries.
    pub query: crate::query_id::QueryId,
}

impl Trace {
    /// Display name of `op` (falls back to `op<N>` for ids outside the plan).
    pub fn op_name(&self, op: OpId) -> String {
        self.op_names
            .get(op)
            .cloned()
            .unwrap_or_else(|| format!("op{op}"))
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// No events recorded?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Timestamp of the last event (the traced span of the query).
    pub fn span(&self) -> Duration {
        self.events.last().map(|e| e.t).unwrap_or(Duration::ZERO)
    }

    /// Highest worker id seen in finished work orders, plus one.
    pub fn workers(&self) -> usize {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::WorkOrderFinished { worker, .. } => Some(worker),
                _ => None,
            })
            .max()
            .map_or(0, |w| w + 1)
    }

    /// Count events matching `pred`.
    pub fn count(&self, pred: impl Fn(&TraceEventKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sorts_events() {
        let sink = TraceSink::new(1024);
        sink.record(TraceEventKind::WorkOrderDispatched { seq: 0, op: 1 });
        sink.record(TraceEventKind::OperatorFinished { op: 1 });
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
        let trace = sink.finish(vec!["build".into(), "select".into()]);
        assert_eq!(trace.len(), 2);
        assert!(trace.events.windows(2).all(|w| w[0].t <= w[1].t));
        assert_eq!(trace.op_name(1), "select");
        assert_eq!(trace.op_name(9), "op9");
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn capacity_is_a_total_across_shards() {
        // One thread lands every event in one shard; the cap still counts
        // all of them against the sink's total, not a per-shard slice.
        let sink = TraceSink::new(80);
        for _ in 0..20 {
            sink.record(TraceEventKind::OperatorFinished { op: 0 });
        }
        assert_eq!((sink.len(), sink.dropped()), (20, 0));
        for _ in 0..70 {
            sink.record(TraceEventKind::OperatorFinished { op: 0 });
        }
        assert_eq!((sink.len(), sink.dropped()), (80, 10));
        let trace = sink.finish(vec![]);
        assert_eq!((trace.len(), trace.dropped), (80, 10));
    }

    #[test]
    fn capacity_holds_under_concurrent_recording() {
        let sink = TraceSink::new(100);
        std::thread::scope(|s| {
            for op in 0..4 {
                let sink = &sink;
                s.spawn(move || {
                    for _ in 0..50 {
                        sink.record(TraceEventKind::OperatorFinished { op });
                    }
                });
            }
        });
        assert_eq!((sink.len(), sink.dropped()), (100, 100));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let sink = TraceSink::new(1 << 14);
        std::thread::scope(|s| {
            for w in 0..4 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..100 {
                        sink.record(TraceEventKind::WorkOrderDispatched {
                            seq: w * 100 + i,
                            op: w,
                        });
                    }
                });
            }
        });
        let trace = sink.finish(vec![]);
        assert_eq!(trace.len(), 400);
        assert!(trace.events.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn event_attribution_and_labels() {
        let k = TraceEventKind::TransferFlushed {
            producer: 3,
            consumer: 4,
            blocks: 2,
            bytes: 256,
            partial: true,
        };
        assert_eq!(k.op(), Some(3));
        assert_eq!(k.label(), "transfer");
        assert_eq!(
            TraceEventKind::PoolFree {
                bytes: 1,
                in_use: 0
            }
            .op(),
            None
        );
        assert_eq!(
            TraceEventKind::Degraded {
                from: Uot::Table,
                to: Uot::Blocks(1)
            }
            .label(),
            "degrade"
        );
        let fused = TraceEventKind::PipelineFused {
            pipeline: 0,
            head: 1,
            tail: 3,
            ops: 3,
            batches: 12,
            rows: 480,
            elapsed_us: 250,
        };
        assert_eq!(fused.op(), Some(1));
        assert_eq!(fused.label(), "fused");
        let out = TraceEventKind::SpillOut {
            op: 2,
            bytes: 4096,
            in_use: 1024,
        };
        assert_eq!(out.op(), Some(2));
        assert_eq!(out.label(), "spill_out");
        let back = TraceEventKind::SpillIn {
            op: 2,
            bytes: 4096,
            in_use: 5120,
        };
        assert_eq!(back.op(), Some(2));
        assert_eq!(back.label(), "spill_in");
    }

    #[test]
    fn per_query_sink_stamps_the_trace() {
        let q = crate::query_id::QueryId::new(7);
        let sink = TraceSink::for_query(64, q);
        assert_eq!(sink.query(), q);
        sink.record(TraceEventKind::OperatorFinished { op: 0 });
        let trace = sink.finish(vec!["select".into()]);
        assert_eq!(trace.query, q);
        // The default constructor stays attributed to the solo id.
        assert_eq!(
            TraceSink::new(64).finish(vec![]).query,
            crate::query_id::QueryId::SOLO
        );
    }

    #[test]
    fn workers_derived_from_finished_events() {
        let sink = TraceSink::new(64);
        sink.record(TraceEventKind::WorkOrderFinished {
            seq: 0,
            op: 0,
            worker: 2,
            start: Duration::ZERO,
            end: Duration::from_micros(5),
        });
        let trace = sink.finish(vec![]);
        assert_eq!(trace.workers(), 3);
        assert!(trace.span() >= Duration::ZERO);
        assert_eq!(
            trace.count(|k| matches!(k, TraceEventKind::WorkOrderFinished { .. })),
            1
        );
    }
}
