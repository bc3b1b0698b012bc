//! The work-order scheduler: where the UoT takes effect.
//!
//! The scheduler is the component the paper actually studies. It tracks block
//! production per operator and **stages** each producer's completed output
//! blocks on its outgoing [`TransferEdge`]. Only when the staged count
//! reaches the edge's [`Uot`] threshold are the blocks *transferred* — turned
//! into consumer work orders (or collected, for blocking consumers). When a
//! producer finishes, any partially accumulated UoT flushes (Section III-B).
//!
//! A produced block that has not run yet is a held intermediate: it keeps
//! one form, an `Arc<SpillSlot>`, from the moment its producer completes it
//! until a worker runs the stream work order it feeds. The slot is the
//! pool's to evict while its producer still runs, while staged and while
//! queued, and the worker faults it back in at dispatch.
//!
//! Figure 2 of the paper falls directly out of this mechanism: with
//! `Uot::Blocks(1)` producer and consumer work orders interleave; with
//! `Uot::Table` the schedule degenerates to operator-at-a-time.
//!
//! Three layers:
//!
//! * `SchedulerCore` — the synchronous state machine: per-operator state,
//!   transfer edges, and an indexed `ReadyQueue` that picks the next work
//!   order in O(log #ops) without scanning (per-operator FIFOs plus an
//!   ordered index of dispatchable operators; work for an operator that
//!   waits on a scheduling dependency queues but is not dispatchable until
//!   the dependency finishes). Topology questions ("who
//!   depends on this operator?") are answered by the plan's precomputed
//!   [`PlanTopology`] instead of rescanning operator definitions.
//! * [`QueryObserver`] — receives each dispatch/completion/transfer event
//!   once, with its sizes computed here, and records it into the
//!   `QueryMetrics` the paper's figures are made of (plus the trace sink and
//!   live record when installed); the live hub, when installed, adds the
//!   finished metrics once, at the end of the attempt.
//! * [`run_query`] — the one driver: a pool of [`ExecMode::workers`]
//!   workers, the calling thread among them, that dispatch their own work
//!   orders. Each worker books its finished work order and takes the next
//!   one under one dispatcher lock, so no scheduler thread sits between a
//!   completion and the next dispatch (Quickstep's separate scheduler thread
//!   is an implementation choice, not part of the UoT model). A serial run
//!   is the one-worker pool: no thread is spawned and the order is
//!   deterministic. That pool — per-query in-flight bookkeeping,
//!   round-robin dispatch, the worker body — is the one the query service
//!   multiplexes its queries through. [`run`] is the convenience wrapper
//!   with default metrics and a plain error.

use crate::edge::{TransferAction, TransferEdge};
use crate::error::EngineError;
use crate::fault::{FaultKind, FaultSite};
use crate::metrics::{QueryMetrics, TaskRecord};
use crate::obs::QueryObserver;
use crate::ops::{self, execute_work_order_contained};
use crate::output::{into_blocks, Produced};
use crate::plan::{OpId, OperatorKind, QueryPlan};
use crate::state::ExecContext;
use crate::topology::Dependent;
use crate::uot::Uot;
use crate::work_order::{WorkKind, WorkOrder};
use crate::Result;
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use uot_storage::{SpillSlot, StorageBlock};

/// How many workers drive a query's work orders. The calling thread is one
/// of them, so a run spawns `workers() - 1` threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One worker, the calling thread: a deterministic work-order order.
    /// The same run as `Parallel { workers: 1 }`.
    Serial,
    /// `workers` workers, each booking its completions and picking its next
    /// work order itself under one dispatcher lock.
    Parallel {
        /// Number of workers, the calling thread included.
        workers: usize,
    },
}

impl ExecMode {
    /// Worker count this mode runs with (serial counts as one; a parallel
    /// pool is clamped to at least one worker).
    pub fn workers(self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Parallel { workers } => workers.max(1),
        }
    }
}

/// Indexed dispatch: per-operator FIFO queues plus an ordered set of
/// operators that currently have dispatchable work. An operator whose chain
/// still waits on a scheduling dependency (a build, an NLJ's inner side, a
/// LIP filter source) is *gated*: its work queues in its FIFO but is not
/// dispatchable, nor counted in `len`, until the scheduler opens it.
///
/// Policy (identical to the historical full-scan implementation): among
/// operators with queued work, pick the **critical** ones first (blocking
/// prerequisites and their stream feeders), then the most **downstream**
/// (highest id; plans are built bottom-up so id order is topological), FIFO
/// within an operator. The `BTreeSet<(bool, OpId)>` makes that `last()`, so
/// a pop costs O(log #ops) instead of a scan of every ready work order.
#[derive(Debug)]
struct ReadyQueue {
    per_op: Vec<VecDeque<WorkOrder>>,
    /// `(critical, op)` for every open op with queued work.
    dispatchable: BTreeSet<(bool, OpId)>,
    critical: Vec<bool>,
    gated: Vec<bool>,
    /// Work orders queued for open operators.
    len: usize,
}

impl ReadyQueue {
    /// A queue with every operator open; the scheduler gates its waiting
    /// operators before queuing any work.
    fn new(critical: Vec<bool>) -> Self {
        ReadyQueue {
            per_op: (0..critical.len()).map(|_| VecDeque::new()).collect(),
            dispatchable: BTreeSet::new(),
            gated: vec![false; critical.len()],
            critical,
            len: 0,
        }
    }

    fn push(&mut self, wo: WorkOrder) {
        let op = wo.op;
        self.per_op[op].push_back(wo);
        if !self.gated[op] {
            self.len += 1;
            self.dispatchable.insert((self.critical[op], op));
        }
    }

    /// Make a gated operator's queued work dispatchable, in FIFO order.
    fn open(&mut self, op: OpId) {
        if std::mem::take(&mut self.gated[op]) && !self.per_op[op].is_empty() {
            self.len += self.per_op[op].len();
            self.dispatchable.insert((self.critical[op], op));
        }
    }

    fn pop(&mut self) -> Option<WorkOrder> {
        let &(critical, op) = self.dispatchable.last()?;
        let wo = self.per_op[op].pop_front().expect("indexed op has work");
        self.len -= 1;
        if self.per_op[op].is_empty() {
            self.dispatchable.remove(&(critical, op));
        }
        Some(wo)
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Work orders queued for `op`, dispatchable or not.
    fn queued(&self, op: OpId) -> usize {
        self.per_op[op].len()
    }

    /// Remove and return every queued work order (teardown path).
    fn drain(&mut self) -> Vec<WorkOrder> {
        self.dispatchable.clear();
        self.len = 0;
        self.per_op.iter_mut().flat_map(|q| q.drain(..)).collect()
    }
}

/// Scheduler-side state of one operator. (Staging and collected-byte
/// accounting live on the operator's outgoing [`TransferEdge`].)
#[derive(Debug, Default)]
struct OpState {
    /// Unfinished scheduling dependencies (build side, NLJ inner side, LIP
    /// filter sources). The operator is startable at zero.
    waiting_on: usize,
    /// The streamed producer has finished (base tables count as finished).
    producer_finished: bool,
    /// Work orders created and not yet completed, queued ones included
    /// (gated or not).
    outstanding: usize,
    /// The finalize work orders have been dispatched (build, aggregate,
    /// sort, grace join).
    finalize_dispatched: bool,
    /// This operator is completely done.
    finished: bool,
}

/// The synchronous scheduling state machine.
pub(crate) struct SchedulerCore {
    ctx: Arc<ExecContext>,
    /// How the driver executes this query's work orders.
    mode: ExecMode,
    states: Vec<OpState>,
    /// Outgoing data edge of each operator, indexed by producer id.
    edges: Vec<TransferEdge>,
    queue: ReadyQueue,
    result_blocks: Vec<Arc<StorageBlock>>,
    observer: QueryObserver,
    seq: usize,
    unfinished: usize,
}

impl SchedulerCore {
    /// Tear down into results + metrics. Runs on the success *and* error
    /// paths (the error path discards the blocks and keeps the metrics as
    /// [`FailedQuery::partial_metrics`]); either way, every byte the query
    /// charged to the [`uot_storage::MemoryTracker`] is released so
    /// `current_bytes()` returns to its pre-query value. Every attempt at
    /// either front end ends here, so this is where an installed hub adds
    /// the attempt's metrics.
    pub(crate) fn into_results(
        mut self,
        wall_time: Duration,
        workers: usize,
    ) -> (Vec<Arc<StorageBlock>>, QueryMetrics) {
        let mut tasks = std::mem::take(&mut self.observer.tasks);
        tasks.sort_by_key(|t| t.start);
        let mut op_metrics = std::mem::take(&mut self.observer.ops);
        let edge_metrics = std::mem::take(&mut self.observer.edges);
        for (m, rt) in op_metrics.iter_mut().zip(&self.ctx.runtimes) {
            m.lip_pruned_rows = rt.lip_pruned.load(std::sync::atomic::Ordering::Relaxed);
        }
        let result_rows = self.result_blocks.iter().map(|b| b.num_rows()).sum();
        let hash_table_bytes = self
            .ctx
            .runtimes
            .iter()
            .enumerate()
            .filter_map(|(id, rt)| rt.hash_table.as_ref().map(|ht| (id, ht.memory_bytes())))
            .collect();
        // Metrics (pool stats, peak) are captured *before* the release below
        // so teardown bookkeeping does not pollute them.
        let spill = self
            .ctx
            .pool
            .spill_store()
            .map(|s| s.stats())
            .unwrap_or_default();
        let metrics = QueryMetrics {
            query: self.ctx.query,
            wall_time,
            ops: op_metrics,
            edges: edge_metrics,
            tasks,
            peak_temp_bytes: self.ctx.pool.tracker().peak_bytes(),
            pool: self.ctx.pool.stats(),
            hash_table_bytes,
            result_rows,
            workers,
            degradations: Vec::new(),
            plan_cache: None,
            fused_pipelines: self.ctx.fusion.fused_count(),
            staged_pipelines: self.ctx.fusion.staged_count(),
            spill_events: spill.spill_events,
            spilled_bytes: spill.spilled_bytes,
            restored_bytes: spill.restored_bytes,
            respill_depth: spill.respill_depth,
            spill_file_bytes: spill.file_bytes,
        };
        self.observer.attempt_finished(&metrics);
        self.release_resources();
        (self.result_blocks, metrics)
    }

    /// Set up scheduling state for a run under `mode`, recording into
    /// `observer`, and enqueue the initial work (base-table blocks are all
    /// available at query start). `default_uot` applies to every edge whose
    /// consumer has no UoT override.
    pub fn new(
        ctx: Arc<ExecContext>,
        mode: ExecMode,
        default_uot: Uot,
        observer: QueryObserver,
    ) -> Self {
        let plan = ctx.plan.clone();
        let topo = plan.topology();
        let n = plan.len();
        let default_uot = default_uot.normalized();
        let uot_of = |id: OpId| -> Uot { plan.op(id).uot.unwrap_or(default_uot) };
        let edges = (0..n)
            .map(|p| {
                match topo.consumer_of(p) {
                    None => TransferEdge::sink(),
                    Some(c) if topo.materialization_target(p) == Some(c) => {
                        TransferEdge::materialize(c)
                    }
                    Some(c) => TransferEdge::stream(c, uot_of(c)),
                }
                .owned_by(ctx.query)
            })
            .collect();
        let states = (0..n)
            .map(|id| OpState {
                waiting_on: topo.initial_waits(id),
                producer_finished: topo.stream_parent(id).is_none(),
                ..Default::default()
            })
            .collect();
        let queue = ReadyQueue::new(topo.critical_flags().to_vec());
        let mut core = SchedulerCore {
            ctx,
            mode,
            states,
            edges,
            queue,
            result_blocks: Vec::new(),
            observer,
            seq: 0,
            unfinished: n,
        };
        core.queue.gated = (0..n).map(|id| core.chain_waits(id) > 0).collect();
        // Feed base-table blocks. Their slots are resident (and shared with
        // the table, so never evicted): nothing faults in.
        for id in 0..n {
            if let crate::plan::Source::Table(t) = plan.op(id).kind.stream_source() {
                let slots = t.blocks().iter().map(|b| SpillSlot::new(b.clone(), id));
                core.transfer_in(None, id, slots.collect())
                    .expect("base-table blocks are resident");
            }
        }
        // Operators with no input at all may already be completable.
        for id in 0..n {
            // invariant: nothing has produced output yet, so no edge has
            // staged blocks and the TransferFlush fault site cannot fire.
            core.check_completion(id)
                .expect("no staged blocks at construction");
        }
        core
    }

    /// The plan being scheduled.
    fn plan(&self) -> &QueryPlan {
        &self.ctx.plan
    }

    /// True when every operator has finished.
    pub fn all_finished(&self) -> bool {
        self.unfinished == 0
    }

    /// Number of dispatchable work orders (gated operators' queued work
    /// does not count: a query with only that left has stalled).
    pub fn ready_len(&self) -> usize {
        self.queue.len()
    }

    /// Scheduling waits gating operator `op`'s stream input. For a fused-
    /// chain head this sums `waiting_on` across every chain member: the head
    /// must not start pushing batches until all build sides and LIP filter
    /// sources the chain probes against are finished. Everywhere else it is
    /// just the operator's own count.
    fn chain_waits(&self, op: OpId) -> usize {
        match self.ctx.fusion.chain_for_head(op) {
            Some(chain) => chain.ops.iter().map(|&m| self.states[m].waiting_on).sum(),
            None => self.states[op].waiting_on,
        }
    }

    /// Blocks staged on operator `op`'s input edge (its stream producer's
    /// outgoing edge).
    fn staged_into(&self, op: OpId) -> usize {
        self.plan()
            .topology()
            .stream_parent(op)
            .map_or(0, |p| self.edges[p].staged_len())
    }

    /// Describe every unfinished operator and its blocking state — the body
    /// of the stall diagnostic. Empty when all operators finished.
    pub fn stall_report(&self) -> String {
        let mut parts = Vec::new();
        for (id, st) in self.states.iter().enumerate() {
            if st.finished {
                continue;
            }
            parts.push(format!(
                "op{} ({}): waiting_on={} staged={} queued={} outstanding={}{}",
                id,
                self.plan().op(id).name,
                st.waiting_on,
                self.staged_into(id),
                self.queue.queued(id),
                st.outstanding,
                if st.producer_finished {
                    ""
                } else {
                    " producer-unfinished"
                },
            ));
        }
        parts.join("; ")
    }

    /// The stall error the driver raises when work runs out with operators
    /// still unfinished.
    pub(crate) fn stall_error(&self) -> EngineError {
        EngineError::Internal(format!(
            "scheduler stalled with unfinished operators: {}",
            self.stall_report()
        ))
    }

    /// Pop the next dispatchable work order.
    ///
    /// Policy: **downstream-first** — among eligible work orders, prefer the
    /// operator furthest down the plan (highest id; plans are built bottom-
    /// up, so id order is topological), with blocking prerequisites
    /// (critical operators) ahead of everything. Transferred blocks are
    /// consumed while still warm and intermediate memory drains promptly;
    /// with a low UoT this yields exactly the interleaved schedules of the
    /// paper's Fig. 2, while a high UoT degenerates to operator-at-a-time
    /// regardless.
    pub fn next_work_order(&mut self) -> Option<WorkOrder> {
        let wo = self.queue.pop()?;
        self.observer.work_order_dispatched(&wo);
        Some(wo)
    }

    /// Handle a completed work order.
    pub fn on_complete(
        &mut self,
        wo: &WorkOrder,
        produced: Produced,
        record: TaskRecord,
    ) -> Result<()> {
        // The worker already released a consumed intermediate input block.
        self.states[wo.op].outstanding -= 1;
        self.observer.work_order_completed(wo.seq, record);
        // A fused chain's output leaves from its *tail*: the blocks skip every
        // interior edge and land directly on the tail's outgoing edge.
        let route = match (&wo.kind, self.ctx.fusion.chain_for_head(wo.op)) {
            (WorkKind::Stream { .. }, Some(chain)) => chain.tail(),
            _ => wo.op,
        };
        self.route_output(route, produced)?;
        self.check_completion(wo.op)
    }

    /// Route blocks produced by `producer` along its transfer edge: straight
    /// to the result set (sink), parked at the producer (NLJ materialization
    /// bypass), or staged against the consumer edge's UoT threshold. The
    /// blocks arrive sealed in their slots, already eviction victims. Bulk
    /// consumers — the result set, a materialized inner side, a sort's
    /// input — take their blocks out here, faulting in any the pool evicted
    /// (only under memory pressure); that fault-in is the one way this fails.
    fn route_output(&mut self, producer: OpId, produced: Produced) -> Result<()> {
        if produced.is_empty() {
            return Ok(());
        }
        self.observer.blocks_produced(
            producer,
            produced.len(),
            produced.iter().map(|s| s.rows()).sum(),
            produced.iter().map(|s| s.bytes()).sum(),
        );
        match self.edges[producer].stage(produced) {
            TransferAction::Hold => {
                // Report the new occupancy for UoT-occupancy timelines.
                let edge = &self.edges[producer];
                if let Some(consumer) = edge.consumer() {
                    self.observer.edge_staged(
                        producer,
                        consumer,
                        edge.staged_len(),
                        edge.threshold_blocks(),
                    );
                }
            }
            TransferAction::Emit(slots) => {
                let blocks = into_blocks(slots, &self.ctx.pool)?;
                self.result_blocks.extend(blocks);
            }
            TransferAction::Transfer(slots) => {
                let consumer = self.edges[producer].consumer().expect("stream edge");
                self.transfer_in(Some((producer, false)), consumer, slots)?;
            }
            TransferAction::Materialize(slots) => {
                // The NLJ reads the inner relation from its producing
                // operator's `collected` list; the bytes are charged to the
                // edge and released when the join finishes.
                let blocks = into_blocks(slots, &self.ctx.pool)?;
                self.edges[producer]
                    .add_collected(blocks.iter().map(|b| b.allocated_bytes()).sum::<usize>());
                self.ctx.runtimes[producer].collected.lock().extend(blocks);
            }
        }
        Ok(())
    }

    /// Deliver transferred slots to `op`: collected for sorts, otherwise one
    /// stream work order per slot, queued behind the operator's gate if it
    /// is not startable yet. A transfer over an edge (`from` names its
    /// producer and whether it is a partial flush) is observed once, with
    /// sizes read from the slots (an evicted slot keeps both).
    fn transfer_in(
        &mut self,
        from: Option<(OpId, bool)>,
        op: OpId,
        slots: Vec<Arc<SpillSlot>>,
    ) -> Result<()> {
        if slots.is_empty() {
            return Ok(());
        }
        let rows = slots.iter().map(|s| s.rows()).sum();
        if let Some((producer, partial)) = from {
            let bytes = slots.iter().map(|s| s.bytes()).sum();
            self.observer
                .transfer_flushed(producer, op, slots.len(), rows, bytes, partial);
        }
        self.observer.blocks_transferred(op, slots.len(), rows);
        if !matches!(self.plan().op(op).kind, OperatorKind::Sort { .. }) {
            for slot in slots {
                self.push(op, WorkKind::Stream { slot });
            }
            return Ok(());
        }
        // Sort input parks in bulk, so it faults in here; an intermediate
        // block is charged to the incoming edge until the sort finishes.
        let blocks = into_blocks(slots, &self.ctx.pool)?;
        if let Some(parent) = self.plan().topology().stream_parent(op) {
            let bytes = blocks.iter().map(|b| b.allocated_bytes()).sum::<usize>();
            self.edges[parent].add_collected(bytes);
        }
        self.ctx.runtimes[op].collected.lock().extend(blocks);
        Ok(())
    }

    /// Queue a work order of `op`.
    fn push(&mut self, op: OpId, kind: WorkKind) {
        let seq = self.seq;
        self.seq += 1;
        self.states[op].outstanding += 1;
        let query = self.ctx.query;
        self.queue.push(WorkOrder {
            query,
            op,
            kind,
            seq,
        });
    }

    /// Decide whether `op` can finish (or needs its finalize step), and
    /// cascade the consequences downstream.
    fn check_completion(&mut self, op: OpId) -> Result<()> {
        let st = &self.states[op];
        if st.finished
            || st.waiting_on > 0
            || !st.producer_finished
            || st.outstanding > 0
            || self.staged_into(op) > 0
        {
            return Ok(());
        }
        if !self.states[op].finalize_dispatched {
            // Every stream work order has finished, so the input the
            // finalize partitions share is complete.
            let workers = self.mode.workers();
            if let Some((input, parts)) = ops::plan_finalize(&self.ctx, op, workers)? {
                self.states[op].finalize_dispatched = true;
                for part in 0..parts {
                    let input = input.clone();
                    self.push(op, WorkKind::Finalize { part, parts, input });
                }
                return Ok(());
            }
        }
        // Flush partially filled output blocks, route them, mark finished.
        if self.ctx.runtimes[op].output.is_some() {
            let flushed = self.ctx.output(op).flush(&self.ctx.pool);
            self.route_output(op, flushed)?;
        }
        // A finished build's hash table now has its final size: fold it into
        // the temporary-memory accounting so peak footprints include |H_i|
        // (the Section VI comparison).
        if let Some(ht) = &self.ctx.runtimes[op].hash_table {
            ht.sync_tracker(self.ctx.pool.tracker());
        }
        // Blocks parked for this operator's bulk consumption (sort input,
        // NLJ inner side) die with it: release the bytes charged to its
        // incoming edges.
        let mut parked = 0;
        if let Some(parent) = self.plan().topology().stream_parent(op) {
            parked += self.edges[parent].take_collected();
        }
        for dep in self.plan().op(op).kind.blocking_deps() {
            parked += self.edges[dep].take_collected();
        }
        if parked > 0 {
            self.ctx.pool.tracker().free(parked);
        }
        self.states[op].finished = true;
        self.unfinished -= 1;
        // A fused chain is complete when its tail finishes; its accumulated
        // per-batch stats become one trace event for the whole pipeline.
        if let Some(chain) = self.ctx.fusion.chain_for_tail(op) {
            self.ctx.trace_event(|| {
                use std::sync::atomic::Ordering::Relaxed;
                crate::trace::TraceEventKind::PipelineFused {
                    pipeline: chain.id,
                    head: chain.head(),
                    tail: chain.tail(),
                    ops: chain.ops.len(),
                    batches: chain.stats.batches.load(Relaxed),
                    rows: chain.stats.rows.load(Relaxed),
                    elapsed_us: chain.stats.elapsed_ns.load(Relaxed) / 1000,
                }
            });
        }
        self.observer.operator_finished(op);
        self.on_producer_finished(op)
    }

    /// Propagate an operator's completion to its consumer and to every
    /// operator waiting on it as a scheduling dependency (probes, NLJs, LIP
    /// readers) — an indexed lookup, not a plan scan.
    fn on_producer_finished(&mut self, producer: OpId) -> Result<()> {
        // Release every dependent waiting on this op (a build can unblock
        // its probe *and* several LIP selects at once).
        let dependents: Vec<Dependent> = self.plan().topology().dependents_of(producer).to_vec();
        for Dependent { op, multiplicity } in dependents {
            self.states[op].waiting_on = self.states[op].waiting_on.saturating_sub(multiplicity);
            if self.states[op].waiting_on == 0 {
                // Work gated on this dependency queues at `op` itself or,
                // when `op` sits inside a fused chain, at the chain's head —
                // and opens only once *every* member's waits clear.
                let gate = self.ctx.fusion.head_of_member(op).unwrap_or(op);
                if self.chain_waits(gate) == 0 {
                    self.queue.open(gate);
                }
                self.check_completion(op)?;
            }
        }

        let Some(consumer) = self.edges[producer].consumer() else {
            return Ok(());
        };
        // Flush any partial UoT accumulation on the outgoing edge.
        let staged = self.edges[producer].flush();
        if !staged.is_empty() {
            // The `transfer_flush` fault site fires here (only when a flush
            // actually moves blocks). On injection the popped slots are
            // released before erroring so teardown accounting stays exact.
            if let Err(e) = self.transfer_fault(producer) {
                let store = self.ctx.pool.spill_store();
                for slot in &staged {
                    slot.discard(self.ctx.pool.tracker(), store.as_deref());
                }
                return Err(e);
            }
            // Observed *after* the fault site ran: the event carries the
            // block count/bytes that actually moved (a delayed flush still
            // transfers everything; an erroring one never reaches here), not
            // the pre-fault staging level.
            self.transfer_in(Some((producer, true)), consumer, staged)?;
        }

        // Stream edge: mark the consumer's producer done.
        if self.plan().topology().stream_parent(consumer) == Some(producer) {
            self.states[consumer].producer_finished = true;
        }
        self.check_completion(consumer)
    }

    /// Check the `transfer_flush` fault site. Booking a completion runs
    /// under the dispatcher lock with no containment boundary, so an
    /// injected `Panic` here degrades to an error rather than unwinding the
    /// worker that books it. `op` is the flushing operator, recorded as the
    /// fault's attribution in the trace.
    ///
    /// The error carries the same operator/query/occupancy attribution as a
    /// budget trip on the operator allocation path (`requested: 0` is the
    /// injected-fault convention — no real allocation was asked for), so
    /// callers and diagnostics never need to special-case where a budget
    /// failure surfaced.
    fn transfer_fault(&self, op: OpId) -> Result<()> {
        let site = FaultSite::TransferFlush;
        let Some(kind) = self.ctx.faults.check(site) else {
            return Ok(());
        };
        self.ctx
            .trace_event(|| crate::trace::TraceEventKind::FaultInjected { site, kind, op });
        match kind {
            FaultKind::Panic | FaultKind::Error => {
                let tracker = self.ctx.pool.tracker();
                let in_use = tracker.current_bytes();
                let budget = self.ctx.pool.budget().unwrap_or(0);
                let (global_in_use, global_budget) =
                    tracker.parent_usage().unwrap_or((in_use, budget));
                Err(EngineError::BudgetExceeded {
                    op: self.plan().op(op).name.clone(),
                    query: self.ctx.query,
                    requested: 0,
                    in_use,
                    budget,
                    global_in_use,
                    global_budget,
                })
            }
            FaultKind::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
        }
    }

    /// Release every byte the query still holds against the memory tracker:
    /// queued work (gated or not), staged transfers, parked bulk input, output
    /// partials, hash tables, result blocks (whose ownership passes to the
    /// caller) and the pool's free lists. After this, `current_bytes()` is
    /// back at its pre-query value on both success and error paths.
    fn release_resources(&mut self) {
        let plan = self.ctx.plan.clone();
        let topo = plan.topology();
        let tracker = self.ctx.pool.tracker().clone();
        // Queued work orders never ran: their intermediate inputs are
        // charged (resident) or spilled (base-table blocks never are).
        let store = self.ctx.pool.spill_store();
        for wo in self.queue.drain() {
            if let WorkKind::Stream { slot } = &wo.kind {
                if topo.stream_parent(wo.op).is_some() {
                    slot.discard(&tracker, store.as_deref());
                }
            }
        }
        for edge in &mut self.edges {
            // Staged slots hold operator outputs — always charged (resident)
            // or spilled (an extent to retire); discard handles both.
            for slot in edge.flush() {
                slot.discard(&tracker, store.as_deref());
            }
            // Idempotent: already 0 for edges drained by check_completion.
            let parked = edge.take_collected();
            if parked > 0 {
                tracker.free(parked);
            }
        }
        // Grace-join partitions that never reached (or only partially
        // reached) the finalize step: open buffers are pool blocks, spilled
        // runs are spill-file extents, parked buffers are slots holding
        // either. Each
        // state is keyed twice (build + probe op);
        // tear it down once, from the probe key.
        for (key, grace) in &self.ctx.grace {
            if *key != grace.probe_op {
                continue;
            }
            for side in [&grace.build, &grace.probe] {
                let mut side = side.lock();
                for open in side.open.iter_mut() {
                    if let Some(b) = open.take() {
                        self.ctx.pool.discard(b);
                    }
                }
                for part in side.spilled.iter_mut() {
                    for h in part.drain(..) {
                        if let Some(store) = &store {
                            store.discard(h);
                        }
                    }
                }
                for slot in side.parked.iter_mut().filter_map(Option::take) {
                    slot.discard(&tracker, store.as_deref());
                }
            }
        }
        for rt in &self.ctx.runtimes {
            if let Some(out) = &rt.output {
                for slot in out.flush(&self.ctx.pool) {
                    slot.discard(&tracker, store.as_deref());
                }
            }
            if let Some(ht) = &rt.hash_table {
                ht.release_tracker(&tracker);
            }
            rt.collected.lock().clear();
        }
        let result_bytes: usize = self.result_blocks.iter().map(|b| b.allocated_bytes()).sum();
        if result_bytes > 0 {
            tracker.free(result_bytes);
        }
        self.ctx.pool.drain_free_lists();
    }
}

/// A query that failed, with whatever metrics had accumulated before the
/// failure — panic containment and teardown still record the work orders
/// that *did* complete.
#[derive(Debug)]
pub struct FailedQuery {
    /// The first error the query hit.
    pub error: EngineError,
    /// Metrics for the work completed before the failure.
    pub partial_metrics: QueryMetrics,
}

/// Rewrite a propagated `Cancelled` placeholder (raised inside an operator,
/// which cannot see driver-level counters) with the authoritative wall time
/// and completed-work-order count.
fn finalize_error(e: EngineError, wall: Duration, completed: usize) -> EngineError {
    match e {
        EngineError::Cancelled { .. } => EngineError::Cancelled {
            after: wall,
            completed_work_orders: completed,
        },
        other => other,
    }
}

/// Execute `ctx`'s plan under `mode`, recording metrics only and surfacing
/// only the error on failure — the common path for tests, benches and
/// examples driving a hand-built context.
pub fn run(
    ctx: Arc<ExecContext>,
    mode: ExecMode,
) -> Result<(Vec<Arc<StorageBlock>>, QueryMetrics)> {
    let observer = QueryObserver::new(&ctx.plan);
    run_query(ctx, mode, observer).map_err(|f| f.error)
}

/// What driving a query yields: its result blocks and metrics, or the
/// failure with the metrics accumulated before it.
pub(crate) type Outcome =
    std::result::Result<(Vec<Arc<StorageBlock>>, QueryMetrics), Box<FailedQuery>>;

/// Drive a hand-built context's plan on `mode.workers()` workers, the
/// calling thread among them, recording into `observer` — e.g. a
/// [`QueryObserver`] with a trace sink installed. Edges without a UoT
/// override run at [`Uot::LOW`]; the deadline, if any, is the context's own
/// ([`ExecContext::with_deadline`]) and is checked wherever cancellation is.
/// `Engine` and `QueryService` drive the contexts they prepare through the
/// same worker loop.
///
/// On failure the partial metrics survive as [`FailedQuery::partial_metrics`]:
/// after the first error, dispatch stops but every in-flight completion is
/// drained so completed work orders keep their metrics and charged bytes are
/// released. Error precedence: the first work-order error, else a tripped
/// cancellation token (deadline or external cancel), else a stall diagnostic
/// naming every unfinished operator.
pub fn run_query(
    ctx: Arc<ExecContext>,
    mode: ExecMode,
    observer: QueryObserver,
) -> std::result::Result<(Vec<Arc<StorageBlock>>, QueryMetrics), Box<FailedQuery>> {
    drive(QueryRun::new(
        SchedulerCore::new(ctx, mode, Uot::LOW, observer),
        (),
    ))
}

/// Drive one query to completion: admit it to a [`WorkerPool`] of its own,
/// run worker 0 on the calling thread and spawn the other
/// `mode.workers() - 1`. The pool closes itself when its query retires, so
/// every worker returns. With one worker (serial) no thread is spawned and
/// the work orders run in a deterministic order. A worker's panic closes
/// the pool too; the scope re-raises it.
pub(crate) fn drive(run: QueryRun) -> Outcome {
    let workers = run.core.mode.workers();
    let pool = WorkerPool::new();
    pool.admit(run);
    let retired = |d: &mut Dispatcher<()>| d.closed = true;
    std::thread::scope(|scope| {
        for worker in 1..workers {
            let pool = &pool;
            scope.spawn(move || worker_loop(worker, pool, retired));
        }
        worker_loop(0, &pool, retired);
    });
    let run = pool.lock().take_done().pop();
    run.expect("the pool closes once its query is done")
        .finish()
        .1
}

/// A worker's report: one executed work order, timed on its query's clock.
struct Completion {
    wo: WorkOrder,
    worker: usize,
    start: Duration,
    end: Duration,
    produced: Result<Produced>,
}

impl Completion {
    /// Execute `wo` on the calling thread. Contained: a panicking work order
    /// becomes a `WorkOrderPanic` completion instead of unwinding the worker
    /// (and with it the pool).
    fn execute(ctx: &ExecContext, wo: WorkOrder, worker: usize) -> Self {
        let start = ctx.elapsed();
        let produced = execute_work_order_contained(ctx, &wo);
        Completion {
            wo,
            worker,
            start,
            end: ctx.elapsed(),
            produced,
        }
    }
}

/// The body of every worker, standalone or in the query service.
/// Each turn, under the dispatcher lock, the worker books its previous
/// completion and takes the next work order round-robin; it runs that order
/// outside the lock, and waits on the pool's condvar while nothing is
/// ready. `finished` is called, still under the lock, whenever a query
/// retires: the worker booked its last in-flight completion, or found it
/// done (cancelled, say) on a pick. Returns once the pool is closed, waking
/// the other workers on its way out. A panic here is a scheduler bug (work
/// orders are contained): it closes the pool so no sibling waits forever,
/// signals `finished` and resumes unwinding.
pub(crate) fn worker_loop<M>(
    worker: usize,
    pool: &WorkerPool<M>,
    mut finished: impl FnMut(&mut Dispatcher<M>),
) {
    let body = std::panic::AssertUnwindSafe(|| {
        let mut done: Option<Completion> = None;
        loop {
            let mut d = pool.lock();
            let (ctx, wo) = loop {
                // Closed with a completion in hand only after a panic: the
                // state it would be booked into is suspect.
                if d.closed {
                    drop(d);
                    pool.ready.notify_all();
                    return;
                }
                if let Some(c) = done.take() {
                    if d.book(c) {
                        finished(&mut d);
                    }
                }
                let (job, retired) = d.next_job();
                if retired {
                    finished(&mut d);
                }
                if let Some(job) = job {
                    break job;
                }
                // A standalone pool closes once its query retired.
                if d.closed {
                    continue;
                }
                d.idle += 1;
                d = pool.ready.wait(d).unwrap_or_else(PoisonError::into_inner);
                d.idle -= 1;
            };
            let wake = d.idle > 0 && d.runs().any(QueryRun::can_dispatch);
            drop(d);
            if wake {
                pool.ready.notify_one();
            }
            done = Some(Completion::execute(&ctx, wo, worker));
        }
    });
    if let Err(panic) = std::panic::catch_unwind(body) {
        pool.close();
        finished(&mut pool.lock());
        std::panic::resume_unwind(panic);
    }
}

/// One query inside a dispatch loop: its scheduling core, the number of its
/// work orders out on workers and the first error it hit. The front end's own
/// per-query state rides along as `meta`.
pub(crate) struct QueryRun<M = ()> {
    pub(crate) core: SchedulerCore,
    pub(crate) meta: M,
    in_flight: usize,
    completed: usize,
    first_error: Option<EngineError>,
}

impl<M> QueryRun<M> {
    pub(crate) fn new(core: SchedulerCore, meta: M) -> Self {
        QueryRun {
            core,
            meta,
            in_flight: 0,
            completed: 0,
            first_error: None,
        }
    }

    /// The query's execution context.
    pub(crate) fn ctx(&self) -> &Arc<ExecContext> {
        &self.core.ctx
    }

    /// The query failed, was cancelled or ran past its deadline: nothing
    /// more dispatches, while its in-flight completions still drain.
    fn stopped(&self) -> bool {
        self.first_error.is_some() || self.core.ctx.is_cancelled()
    }

    /// Whether a work order would be handed out now.
    fn can_dispatch(&self) -> bool {
        !self.stopped() && self.core.ready_len() > 0
    }

    /// The next work order to hand out, counted as in flight. `None` when
    /// nothing is ready, and for good once the query stopped.
    fn next_work_order(&mut self) -> Option<WorkOrder> {
        if self.stopped() {
            return None;
        }
        let wo = self.core.next_work_order()?;
        self.in_flight += 1;
        Some(wo)
    }

    fn fail(&mut self, e: EngineError) {
        if self.first_error.is_none() {
            self.first_error = Some(e);
        }
    }

    /// Book a finished work order: route its output through the core, or
    /// record its error.
    fn on_done(&mut self, c: Completion) {
        self.in_flight -= 1;
        match c.produced {
            Ok(produced) => {
                self.completed += 1;
                let record = TaskRecord {
                    op: c.wo.op,
                    worker: c.worker,
                    start: c.start,
                    end: c.end,
                };
                if let Err(e) = self.core.on_complete(&c.wo, produced, record) {
                    self.fail(e);
                }
            }
            Err(e) => {
                // The worker released the input; the operator stays
                // unfinished and teardown reclaims everything else.
                self.core.states[c.wo.op].outstanding -= 1;
                self.fail(e);
            }
        }
    }

    /// Nothing in flight and nothing more will dispatch: the query finished,
    /// failed, was cancelled or stalled.
    pub(crate) fn is_done(&self) -> bool {
        // A finished query has nothing queued, so `can_dispatch` covers it.
        self.in_flight == 0 && !self.can_dispatch()
    }

    /// Tear down into the query's outcome and hand back the front end's
    /// state. Error precedence: the first work-order error, else a tripped
    /// token (deadline or external cancel), else a stall diagnostic. Every
    /// byte the query charged is released either way.
    pub(crate) fn finish(self) -> (M, Outcome) {
        let QueryRun {
            core,
            meta,
            completed,
            mut first_error,
            ..
        } = self;
        let ctx = core.ctx.clone();
        if first_error.is_none() && ctx.is_cancelled() {
            // Placeholder counters, rewritten by `finalize_error`.
            first_error = Some(EngineError::Cancelled {
                after: Duration::ZERO,
                completed_work_orders: 0,
            });
        }
        if first_error.is_none() && !core.all_finished() {
            first_error = Some(core.stall_error());
        }
        let wall = ctx.elapsed();
        let workers = core.mode.workers();
        let (blocks, metrics) = core.into_results(wall, workers);
        let outcome = match first_error {
            None => Ok((blocks, metrics)),
            Some(e) => Err(Box::new(FailedQuery {
                error: finalize_error(e, wall, completed),
                partial_metrics: metrics,
            })),
        };
        (meta, outcome)
    }
}

/// The dispatch state: a round-robin ring of the queries that may still
/// dispatch, the retired ones waiting to be taken, and the workers waiting
/// for work. It lives behind the [`WorkerPool`]'s lock, which every worker
/// takes once per work order. A pool holds few queries, so the ring holds
/// the runs themselves and a booking finds its query by a scan.
pub(crate) struct Dispatcher<M> {
    ring: Vec<QueryRun<M>>,
    /// The ring position the next pick starts at.
    next: usize,
    /// Queries done (finished, failed, cancelled or stalled, with nothing in
    /// flight), until [`take_done`](Self::take_done).
    retired: Vec<QueryRun<M>>,
    /// Workers waiting on the pool's condvar.
    idle: usize,
    closed: bool,
}

impl<M> Dispatcher<M> {
    /// The active queries.
    pub(crate) fn runs(&self) -> impl Iterator<Item = &QueryRun<M>> {
        self.ring.iter().chain(&self.retired)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ring.is_empty() && self.retired.is_empty()
    }

    /// Whether the pool was closed: its workers exit, or have exited.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Take every query that is done (finished, failed, cancelled or
    /// stalled, with nothing in flight) out of the dispatcher.
    pub(crate) fn take_done(&mut self) -> Vec<QueryRun<M>> {
        let mut done = std::mem::take(&mut self.retired);
        let mut i = 0;
        while i < self.ring.len() {
            if self.ring[i].is_done() {
                done.push(self.ring.remove(i));
            } else {
                i += 1;
            }
        }
        done
    }

    /// Book a worker's completion on its query. True when this retired the
    /// query: its last in-flight work order came back and nothing more will
    /// dispatch, so it leaves the ring.
    fn book(&mut self, c: Completion) -> bool {
        let id = c.wo.query;
        let Some(i) = self.ring.iter().position(|run| run.core.ctx.query == id) else {
            return false;
        };
        let run = &mut self.ring[i];
        run.on_done(c);
        if !run.is_done() {
            return false;
        }
        self.retired.push(self.ring.remove(i));
        true
    }

    /// The next work order round-robin, one per query per turn. Queries
    /// found done on the way (a passed deadline counts as a cancel) leave
    /// the ring; the flag says whether any did.
    fn next_job(&mut self) -> (Option<(Arc<ExecContext>, WorkOrder)>, bool) {
        let mut retired = false;
        // Each turn offers one query a pick, or retires it.
        for _ in 0..self.ring.len() {
            let i = self.next % self.ring.len();
            let run = &mut self.ring[i];
            if let Some(wo) = run.next_work_order() {
                self.next = i + 1;
                return (Some((run.ctx().clone(), wo)), retired);
            }
            if run.is_done() {
                retired = true;
                self.retired.push(self.ring.remove(i));
                // The next query slid into position `i`.
                self.next = i;
            } else {
                self.next = i + 1;
            }
        }
        (None, retired)
    }
}

/// The execution pool: a [`Dispatcher`] behind one lock, and a condvar its
/// idle workers wait on. A standalone run owns one per query; the query
/// service shares one across its queries.
pub(crate) struct WorkerPool<M> {
    dispatcher: Mutex<Dispatcher<M>>,
    ready: Condvar,
}

impl<M> WorkerPool<M> {
    pub(crate) fn new() -> Self {
        WorkerPool {
            dispatcher: Mutex::new(Dispatcher {
                ring: Vec::new(),
                next: 0,
                retired: Vec::new(),
                idle: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Lock the dispatcher. A panic while it was held is a scheduler bug
    /// that closes the pool: the guard is recovered rather than hang, and
    /// every caller checks `closed` before it trusts the queries' state.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Dispatcher<M>> {
        self.dispatcher
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Put a query on the ring and wake an idle worker for it.
    pub(crate) fn admit(&self, run: QueryRun<M>) {
        let mut d = self.lock();
        d.ring.push(run);
        let wake = d.idle > 0;
        drop(d);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Close the pool: every worker returns at its next turn.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::execute_work_order;
    use crate::plan::{JoinType, PlanBuilder, SortKey, Source};
    use crate::state::ExecContext;
    use uot_expr::{cmp, col, lit, AggSpec, CmpOp, Predicate};
    use uot_storage::{
        BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder, Value,
    };

    fn table(name: &str, n: i32, rows_per_block: usize) -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
        let mut tb = TableBuilder::new(name, s, BlockFormat::Column, rows_per_block * 12);
        for i in 0..n {
            tb.append(&[Value::I32(i), Value::F64(i as f64)]).unwrap();
        }
        Arc::new(tb.finish())
    }

    fn ctx_for(plan: QueryPlan) -> Arc<ExecContext> {
        Arc::new(
            ExecContext::new(
                Arc::new(plan),
                BlockPool::new(MemoryTracker::new()),
                BlockFormat::Row,
                // Small temp blocks (8 x 12-byte tuples) so producers emit
                // multiple full blocks and UoT effects are visible.
                96,
            )
            .unwrap(),
        )
    }

    fn select_probe_plan(uot: Uot) -> QueryPlan {
        let dim = table("dim2", 10, 4);
        let fact = table("fact2", 100, 8);
        let mut pb = PlanBuilder::new();
        let b = pb.build_hash(Source::Table(dim), vec![0], vec![1]).unwrap();
        let s = pb
            .filter(Source::Table(fact), cmp(col(0), CmpOp::Lt, lit(50i32)))
            .unwrap();
        let p = pb
            .probe(
                Source::Op(s),
                b,
                vec![0],
                vec![0, 1],
                vec![0],
                JoinType::Inner,
            )
            .unwrap();
        pb.build(p).unwrap().with_uniform_uot(uot)
    }

    fn rows_of(blocks: &[Arc<StorageBlock>]) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = blocks.iter().flat_map(|b| b.all_rows()).collect();
        rows.sort_by(|a, b| crate::engine::cmp_value_rows(a, b));
        rows
    }

    // Thin shims over the one driver, keeping the test bodies readable:
    // `run_serial` runs on the calling thread with `default_uot` on every
    // edge without an override, `run_parallel` on a pool of `workers`.

    fn core_for(ctx: &Arc<ExecContext>, default_uot: Uot) -> SchedulerCore {
        let observer = QueryObserver::new(&ctx.plan);
        SchedulerCore::new(ctx.clone(), ExecMode::Serial, default_uot, observer)
    }

    fn run_serial_detailed(ctx: Arc<ExecContext>, default_uot: Uot) -> Outcome {
        drive(QueryRun::new(core_for(&ctx, default_uot), ()))
    }

    fn run_serial(
        ctx: Arc<ExecContext>,
        default_uot: Uot,
    ) -> Result<(Vec<Arc<StorageBlock>>, QueryMetrics)> {
        run_serial_detailed(ctx, default_uot).map_err(|f| f.error)
    }

    fn run_parallel(
        ctx: Arc<ExecContext>,
        workers: usize,
    ) -> Result<(Vec<Arc<StorageBlock>>, QueryMetrics)> {
        run(ctx, ExecMode::Parallel { workers })
    }

    #[test]
    fn serial_select_probe_all_uots_agree() {
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for uot in [Uot::Blocks(1), Uot::Blocks(2), Uot::Blocks(4), Uot::Table] {
            let ctx = ctx_for(select_probe_plan(uot));
            let (blocks, metrics) = run_serial(ctx, uot).unwrap();
            let rows = rows_of(&blocks);
            // fact keys < 50 that match dim keys 0..10: 10 rows
            assert_eq!(rows.len(), 10, "{uot}");
            assert_eq!(metrics.result_rows, 10);
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(&rows, r, "{uot}"),
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let (blocks_s, _) = run_serial(ctx, Uot::LOW).unwrap();
        for workers in [2, 4] {
            let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
            let (blocks_p, metrics) = run_parallel(ctx, workers).unwrap();
            assert_eq!(rows_of(&blocks_p), rows_of(&blocks_s));
            assert_eq!(metrics.workers, workers);
        }
    }

    #[test]
    fn uot_controls_schedule_interleaving() {
        // With UoT=1 the probe starts before the select finishes (interleaved
        // sequence numbers); with UoT=Table every select task precedes every
        // probe task.
        let ctx = ctx_for(select_probe_plan(Uot::Table));
        let (_, m) = run_serial(ctx, Uot::Table).unwrap();
        // task log is chronological; find op ids: 0=build,1=select,2=probe
        let order: Vec<usize> = m.tasks.iter().map(|t| t.op).collect();
        let last_select = order.iter().rposition(|&o| o == 1).unwrap();
        let first_probe = order.iter().position(|&o| o == 2).unwrap();
        assert!(
            last_select < first_probe,
            "high UoT must not interleave: {order:?}"
        );

        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let (_, m) = run_serial(ctx, Uot::Blocks(1)).unwrap();
        let order: Vec<usize> = m.tasks.iter().map(|t| t.op).collect();
        let last_select = order.iter().rposition(|&o| o == 1).unwrap();
        let first_probe = order.iter().position(|&o| o == 2).unwrap();
        assert!(
            first_probe < last_select,
            "low UoT must interleave: {order:?}"
        );
    }

    #[test]
    fn aggregation_pipeline() {
        let t = table("t3", 50, 8);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(t), cmp(col(0), CmpOp::Ge, lit(10i32)))
            .unwrap();
        let a = pb
            .aggregate(
                Source::Op(s),
                vec![],
                vec![AggSpec::count_star(), AggSpec::sum(col(1))],
                &["n", "s"],
            )
            .unwrap();
        let plan = pb.build(a).unwrap();
        for uot in [Uot::Blocks(1), Uot::Table] {
            let ctx = ctx_for(plan.clone().with_uniform_uot(uot));
            let (blocks, _) = run_serial(ctx, Uot::LOW).unwrap();
            let rows = rows_of(&blocks);
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0][0], Value::I64(40));
            let expect: f64 = (10..50).map(|i| i as f64).sum();
            assert!((rows[0][1].as_f64() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn sort_pipeline() {
        let t = table("t4", 30, 4);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(t), cmp(col(0), CmpOp::Lt, lit(10i32)))
            .unwrap();
        let so = pb
            .sort(Source::Op(s), vec![SortKey::desc(0)], Some(3))
            .unwrap();
        let plan = pb.build(so).unwrap();
        let ctx = ctx_for(plan);
        let (blocks, _) = run_parallel(ctx, 3).unwrap();
        let rows: Vec<Vec<Value>> = blocks.iter().flat_map(|b| b.all_rows()).collect();
        let ks: Vec<i32> = rows.iter().map(|r| r[0].as_i32()).collect();
        assert_eq!(ks, vec![9, 8, 7]);
    }

    #[test]
    fn empty_base_table_cascades() {
        let t = table("empty", 0, 4);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(t.clone()), Predicate::True)
            .unwrap();
        let a = pb
            .aggregate(Source::Op(s), vec![], vec![AggSpec::count_star()], &["n"])
            .unwrap();
        let plan = pb.build(a).unwrap();
        let ctx = ctx_for(plan);
        let (blocks, _) = run_serial(ctx, Uot::LOW).unwrap();
        let rows = rows_of(&blocks);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::I64(0));
    }

    #[test]
    fn probe_waits_for_build() {
        // With UoT=1 probe input arrives before the build finishes; the
        // scheduler must hold those blocks. Validated by correctness (all
        // matches found) plus the task log (no probe before last build).
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let (_, m) = run_serial(ctx, Uot::LOW).unwrap();
        let order: Vec<usize> = m.tasks.iter().map(|t| t.op).collect();
        let last_build = order.iter().rposition(|&o| o == 0).unwrap();
        let first_probe = order.iter().position(|&o| o == 2).unwrap();
        assert!(last_build < first_probe, "{order:?}");
    }

    #[test]
    fn nested_loops_through_scheduler() {
        let t = table("t5", 6, 2);
        let mut pb = PlanBuilder::new();
        let inner = pb
            .filter(Source::Table(t.clone()), cmp(col(0), CmpOp::Lt, lit(3i32)))
            .unwrap();
        let j = pb
            .nested_loops(
                Source::Table(t),
                inner,
                vec![(0, CmpOp::Eq, 0)],
                vec![0],
                vec![1],
            )
            .unwrap();
        let plan = pb.build(j).unwrap();
        let ctx = ctx_for(plan);
        let (blocks, _) = run_parallel(ctx, 2).unwrap();
        let rows = rows_of(&blocks);
        assert_eq!(rows.len(), 3);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r[0], Value::I32(i as i32));
            assert_eq!(r[1], Value::F64(i as f64));
        }
    }

    #[test]
    fn limit_through_scheduler() {
        let t = table("t6", 40, 4);
        let mut pb = PlanBuilder::new();
        let s = pb.filter(Source::Table(t), Predicate::True).unwrap();
        let l = pb.limit(Source::Op(s), 11).unwrap();
        let plan = pb.build(l).unwrap();
        let ctx = ctx_for(plan);
        let (blocks, m) = run_serial(ctx, Uot::LOW).unwrap();
        assert_eq!(m.result_rows, 11);
        assert_eq!(rows_of(&blocks).len(), 11);
    }

    #[test]
    fn metrics_account_for_all_work() {
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let (_, m) = run_serial(ctx, Uot::LOW).unwrap();
        // fact2: 100 rows, 8 per block -> 13 select work orders;
        // dim2: 10 rows, 4 per block -> 3 build stream work orders, and one
        // finalize (10 rows are below the finalize floor).
        assert_eq!(m.ops[1].work_orders, 13);
        assert_eq!(m.ops[0].work_orders, 4);
        assert!(m.ops[2].work_orders >= 1);
        assert_eq!(
            m.tasks.len(),
            m.ops.iter().map(|o| o.work_orders).sum::<usize>()
        );
        assert!(m.peak_temp_bytes > 0);
        assert!(!m.hash_table_bytes.is_empty());
        let dom = m.dominant_operators();
        assert_eq!(dom.len(), 3);
    }

    #[test]
    fn intermediate_uot_produces_partial_flush() {
        // 13 select output blocks with UoT=4: probe receives 3 transfers of 4
        // plus a final flush. All rows must still arrive.
        let plan = select_probe_plan(Uot::Blocks(4));
        let ctx = ctx_for(plan);
        let (blocks, m) = run_serial(ctx, Uot::Blocks(4)).unwrap();
        assert_eq!(rows_of(&blocks).len(), 10);
        assert!(m.ops[2].input_blocks >= 1);
    }

    // --- new coverage: indexed dispatch, observer hook, stall diagnostics ---

    fn stream_wo(op: OpId, seq: usize) -> WorkOrder {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let b = StorageBlock::new(s, BlockFormat::Row, 64).unwrap();
        WorkOrder {
            query: crate::query_id::QueryId::SOLO,
            op,
            kind: WorkKind::Stream {
                slot: SpillSlot::new(Arc::new(b), op),
            },
            seq,
        }
    }

    #[test]
    fn ready_queue_prefers_critical_then_downstream_then_fifo() {
        // ops: 0 critical, 1 and 2 ordinary.
        let mut q = ReadyQueue::new(vec![true, false, false]);
        q.push(stream_wo(1, 0));
        q.push(stream_wo(2, 1));
        q.push(stream_wo(0, 2));
        q.push(stream_wo(2, 3));
        assert_eq!(q.len(), 4);
        // critical op 0 first, then downstream op 2 FIFO, then op 1.
        let order: Vec<(OpId, usize)> = std::iter::from_fn(|| q.pop())
            .map(|wo| (wo.op, wo.seq))
            .collect();
        assert_eq!(order, vec![(0, 2), (2, 1), (2, 3), (1, 0)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn gated_work_queues_until_its_operator_opens() {
        // op 1 is gated: its work orders queue but neither count nor pop.
        let mut q = ReadyQueue::new(vec![false, false]);
        q.gated[1] = true;
        q.push(stream_wo(1, 0));
        q.push(stream_wo(0, 1));
        q.push(stream_wo(1, 2));
        assert_eq!((q.len(), q.queued(1)), (1, 2));
        assert_eq!(q.pop().map(|wo| wo.seq), Some(1));
        assert!(q.pop().is_none());
        q.open(1);
        q.open(1);
        assert_eq!(q.len(), 2);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|wo| wo.seq).collect();
        assert_eq!(order, vec![0, 2]);
        // Once open, new work is dispatchable at once.
        q.push(stream_wo(1, 3));
        assert_eq!(q.len(), 1);
    }

    /// Drive `core` by hand on the calling thread; returns the number of
    /// work orders executed.
    fn drive_by_hand(core: &mut SchedulerCore, ctx: &ExecContext) -> usize {
        let mut executed = 0usize;
        while let Some(wo) = core.next_work_order() {
            let produced = execute_work_order(ctx, &wo).unwrap();
            executed += 1;
            core.on_complete(
                &wo,
                produced,
                TaskRecord {
                    op: wo.op,
                    worker: 0,
                    start: Duration::ZERO,
                    end: Duration::ZERO,
                },
            )
            .unwrap();
        }
        executed
    }

    #[test]
    fn metrics_only_observer_drives_bare_machine() {
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let mut core = core_for(&ctx, Uot::LOW);
        let executed = drive_by_hand(&mut core, &ctx);
        assert!(core.all_finished());
        assert!(executed >= 16, "3 build + 13 select + probes");
        assert_eq!(core.observer.tasks.len(), executed);
    }

    #[test]
    fn observer_sees_dispatch_and_finish_events() {
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let sink = crate::trace::TraceSink::new(1 << 12);
        let observer = QueryObserver::new(&ctx.plan).with_trace(sink.clone());
        let mut core = SchedulerCore::new(ctx.clone(), ExecMode::Serial, Uot::LOW, observer);
        drive_by_hand(&mut core, &ctx);
        assert!(core.all_finished());
        let trace = sink.finish(vec![]);
        use crate::trace::TraceEventKind as K;
        let dispatched = trace.count(|k| matches!(k, K::WorkOrderDispatched { .. }));
        let completed = trace.count(|k| matches!(k, K::WorkOrderFinished { .. }));
        assert_eq!(dispatched, completed);
        let finished_ops: Vec<OpId> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                K::OperatorFinished { op } => Some(op),
                _ => None,
            })
            .collect();
        assert_eq!(finished_ops, vec![0, 1, 2]);
    }

    #[test]
    fn stall_report_names_operators_and_state() {
        // Freshly constructed: the build has queued work (outstanding > 0)
        // and the probe waits on it.
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let core = core_for(&ctx, Uot::LOW);
        let report = core.stall_report();
        assert!(report.contains("op0"), "{report}");
        assert!(report.contains("op2"), "{report}");
        assert!(report.contains("waiting_on=1"), "{report}");
        assert!(report.contains("outstanding="), "{report}");
        let err = core.stall_error();
        let msg = err.to_string();
        assert!(msg.contains("scheduler stalled"), "{msg}");
        assert!(msg.contains("op2"), "{msg}");
    }

    #[test]
    fn dropping_work_orders_stalls_with_diagnostics() {
        // Simulate a lost work order: pop everything without completing.
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let mut core = core_for(&ctx, Uot::LOW);
        while core.next_work_order().is_some() {}
        assert!(!core.all_finished());
        let report = core.stall_report();
        assert!(report.contains("outstanding="), "{report}");
    }

    // --- hardening: cancellation, teardown accounting ---

    #[test]
    fn tracker_returns_to_baseline_after_success() {
        for uot in [Uot::Blocks(1), Uot::Blocks(4), Uot::Table] {
            let ctx = ctx_for(select_probe_plan(uot));
            let tracker = ctx.pool.tracker().clone();
            let (blocks, _) = run_serial(ctx, uot).unwrap();
            assert!(!blocks.is_empty());
            assert_eq!(tracker.current_bytes(), 0, "{uot}");
        }
    }

    #[test]
    fn cancellation_before_start_yields_cancelled_with_counts() {
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let tracker = ctx.pool.tracker().clone();
        ctx.cancel.cancel();
        let failed = run_serial_detailed(ctx, Uot::LOW).unwrap_err();
        match failed.error {
            EngineError::Cancelled {
                completed_work_orders,
                ..
            } => assert_eq!(completed_work_orders, 0),
            other => panic!("expected Cancelled, got {other}"),
        }
        assert_eq!(tracker.current_bytes(), 0);
    }

    #[test]
    fn expired_deadline_cancels_both_drivers() {
        for parallel in [false, true] {
            let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
            let ctx = Arc::new(
                Arc::try_unwrap(ctx)
                    .unwrap_or_else(|_| panic!("sole owner"))
                    .with_deadline(Some(Duration::ZERO)),
            );
            let tracker = ctx.pool.tracker().clone();
            let mode = if parallel {
                ExecMode::Parallel { workers: 2 }
            } else {
                ExecMode::Serial
            };
            let err = run(ctx, mode).unwrap_err();
            assert!(
                matches!(err, EngineError::Cancelled { .. }),
                "parallel={parallel}: {err}"
            );
            assert_eq!(tracker.current_bytes(), 0, "parallel={parallel}");
        }
    }

    /// A pool under `budget` with a spill tier whose I/O goes through
    /// `faults`, and a context for `select_probe_plan` at UoT 1 over it.
    fn spill_ctx(
        faults: crate::fault::FaultPlan,
    ) -> (
        Arc<ExecContext>,
        Arc<MemoryTracker>,
        Arc<uot_storage::SpillStore>,
    ) {
        let faults = Arc::new(faults);
        let tracker = MemoryTracker::new();
        let pool = BlockPool::with_budget(tracker.clone(), usize::MAX);
        let store = uot_storage::SpillStore::new(None, tracker.clone());
        store.set_observer(crate::spill::EngineSpillHook::new(
            Some(faults.clone()),
            None,
            tracker.clone(),
            None,
        ));
        pool.enable_spill(store.clone());
        let plan = Arc::new(select_probe_plan(Uot::Blocks(1)));
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 96)
            .unwrap()
            .with_faults(faults);
        (Arc::new(ctx), tracker, store)
    }

    fn complete(core: &mut SchedulerCore, ctx: &ExecContext, wo: &WorkOrder) {
        book(core, wo, execute_work_order(ctx, wo).unwrap());
    }

    fn book(core: &mut SchedulerCore, wo: &WorkOrder, produced: Produced) {
        let record = TaskRecord {
            op: wo.op,
            worker: 0,
            start: Duration::ZERO,
            end: Duration::ZERO,
        };
        core.on_complete(wo, produced, record).unwrap();
    }

    /// Fill the budget with what the query holds, then check a block out:
    /// the checkout must evict held blocks rather than fail.
    fn checkout_at_the_held_bytes(ctx: &ExecContext, store: &uot_storage::SpillStore) {
        let held = ctx.pool.tracker().current_bytes();
        assert!(held > 0);
        ctx.pool.set_budget(Some(held));
        let schema = Schema::from_pairs(&[("k", DataType::Int32)]);
        let block = ctx
            .pool
            .checkout(&schema, BlockFormat::Row, 64)
            .expect("held blocks are evictable");
        assert!(store.stats().spill_events > 0);
        ctx.pool.discard(block);
        ctx.pool.set_budget(None);
    }

    /// Run the build (op 0) to completion and every select (op 1), but no
    /// probe (op 2): the probe is startable, and the select's output waits
    /// in its queue as dispatchable work orders.
    fn queue_probe_input(core: &mut SchedulerCore, ctx: &ExecContext) {
        let initial: Vec<WorkOrder> = std::iter::from_fn(|| core.next_work_order()).collect();
        for wo in initial.iter().filter(|wo| wo.op == 0) {
            complete(core, ctx, wo);
        }
        let finalize = core.next_work_order().expect("the build's finalize");
        assert_eq!(finalize.op, 0);
        complete(core, ctx, &finalize);
        for wo in initial.iter().filter(|wo| wo.op == 1) {
            complete(core, ctx, wo);
        }
        assert!(core.queue.queued(2) > 0);
        assert_eq!(core.ready_len(), core.queue.queued(2));
    }

    #[test]
    fn gated_probe_input_spills_while_queued() {
        // Blocks transferred to a probe before its build finishes queue
        // behind the probe's gate. They are cold, so under a spill tier the
        // pool may evict them like staged blocks: a schedule that runs the
        // probe side ahead of the build, as two workers can, then does not
        // pin them against the budget. Driven by hand to force that order.
        let (ctx, tracker, store) = spill_ctx(crate::fault::FaultPlan::empty());
        let mut core = core_for(&ctx, Uot::LOW);
        // ops: 0 = build, 1 = select, 2 = probe.
        let initial: Vec<WorkOrder> = std::iter::from_fn(|| core.next_work_order()).collect();
        for wo in initial.iter().filter(|wo| wo.op == 1) {
            complete(&mut core, &ctx, wo);
        }
        // Queued, but not dispatchable while the build runs.
        assert!(core.queue.queued(2) > 0);
        assert_eq!(core.ready_len(), 0);
        assert!(core
            .stall_report()
            .contains(&format!("queued={}", core.queue.queued(2))));
        checkout_at_the_held_bytes(&ctx, &store);
        // The build finishes: the probe opens, and its workers fault the
        // evicted blocks back in.
        for wo in initial.iter().filter(|wo| wo.op == 0) {
            complete(&mut core, &ctx, wo);
        }
        drive_by_hand(&mut core, &ctx);
        assert!(core.all_finished());
        let (blocks, _) = core.into_results(Duration::ZERO, 1);
        assert_eq!(rows_of(&blocks).len(), 10);
        assert_eq!(tracker.current_bytes(), 0, "teardown must drain");
        assert_eq!(store.live_files(), 0, "every spilled block was restored");
    }

    #[test]
    fn queued_input_of_a_startable_probe_spills() {
        // Work orders queued for an operator that may run, but has not been
        // dispatched yet, hold their blocks in spill slots too: a checkout
        // under a budget the held bytes fill evicts them, and the workers
        // that run them later fault them back in.
        let (ctx, tracker, store) = spill_ctx(crate::fault::FaultPlan::empty());
        let mut core = core_for(&ctx, Uot::LOW);
        queue_probe_input(&mut core, &ctx);
        let queued = core.queue.queued(2);
        checkout_at_the_held_bytes(&ctx, &store);
        assert_eq!(drive_by_hand(&mut core, &ctx), queued);
        assert!(core.all_finished());
        let (blocks, _) = core.into_results(Duration::ZERO, 1);
        let reference = run_serial(ctx_for(select_probe_plan(Uot::Blocks(1))), Uot::LOW);
        assert_eq!(rows_of(&blocks), rows_of(&reference.unwrap().0));
        assert_eq!(tracker.current_bytes(), 0, "teardown must drain");
        assert_eq!(store.live_files(), 0, "every spilled block was restored");
    }

    #[test]
    fn failed_spill_read_of_a_queued_block_fails_its_work_order() {
        // The newest queued probe block is the one its operator reaches
        // last, so it is the one evicted; its fault-in, on the worker that
        // runs it, hits an injected read failure. The probe's work order
        // fails with it and the trace names the probe; teardown drains
        // everything.
        let read_fault = crate::fault::FaultPlan::new(vec![crate::fault::Injection {
            site: FaultSite::SpillRead,
            kind: FaultKind::Error,
            nth: 1,
        }]);
        let (ctx, tracker, store) = spill_ctx(read_fault);
        let sink = crate::trace::TraceSink::new(1 << 12);
        let ctx = Arc::new(
            Arc::try_unwrap(ctx)
                .unwrap_or_else(|_| panic!("sole owner"))
                .with_trace(sink.clone()),
        );
        let mut core = core_for(&ctx, Uot::LOW);
        queue_probe_input(&mut core, &ctx);
        checkout_at_the_held_bytes(&ctx, &store);
        let (wo, err) = loop {
            let wo = core
                .next_work_order()
                .expect("the evicted block's work order");
            assert_eq!(wo.op, 2);
            match execute_work_order_contained(&ctx, &wo) {
                Ok(produced) => book(&mut core, &wo, produced),
                Err(e) => break (wo, e),
            }
        };
        assert_eq!(core.ready_len(), 0, "the last queued block was evicted");
        assert!(
            err.to_string().contains("injected fault at SpillRead"),
            "{err}"
        );
        core.states[2].outstanding -= 1;
        drop(core.into_results(Duration::ZERO, 1));
        use crate::trace::TraceEventKind as K;
        let trace = sink.finish(vec![]);
        let failed =
            trace.count(|k| matches!(k, K::WorkOrderFailed { op: 2, seq } if *seq == wo.seq));
        assert_eq!(failed, 1, "the probe's work order is the one that failed");
        assert_eq!(tracker.current_bytes(), 0, "teardown must drain");
        assert_eq!(store.live_files(), 0, "no spilled block survives");
    }

    #[test]
    fn cancelled_work_drops_a_spilled_block_unread() {
        // A work order of a cancelled query frees its block where it is:
        // an evicted one is deleted from disk, not read back to be freed.
        let (ctx, tracker, store) = spill_ctx(crate::fault::FaultPlan::empty());
        let mut core = core_for(&ctx, Uot::LOW);
        queue_probe_input(&mut core, &ctx);
        checkout_at_the_held_bytes(&ctx, &store);
        ctx.cancel.cancel();
        while let Some(wo) = core.next_work_order() {
            let err = execute_work_order_contained(&ctx, &wo).unwrap_err();
            assert!(matches!(err, EngineError::Cancelled { .. }), "{err}");
            core.states[wo.op].outstanding -= 1;
        }
        drop(core.into_results(Duration::ZERO, 1));
        assert_eq!(store.stats().restored_bytes, 0, "nothing was read back");
        assert_eq!(tracker.current_bytes(), 0, "teardown must drain");
        assert_eq!(store.live_files(), 0, "no spilled block survives");
    }

    #[test]
    fn concurrency_never_exceeds_the_workers() {
        // A work order counts as running only between the start and end its
        // worker stamps, so the global overlap of task intervals is bounded
        // by the pool, and a one-worker pool runs them strictly one by one.
        for workers in [1, 2, 4] {
            let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
            let (_, m) = run_parallel(ctx, workers).unwrap();
            assert!(!m.tasks.is_empty());
            let overlap = m.max_concurrency();
            assert!(overlap <= workers, "{overlap} running on {workers} workers");
            if workers == 1 {
                // `tasks` is sorted by start.
                for w in m.tasks.windows(2) {
                    assert!(w[1].start >= w[0].end, "{:?} overlaps {:?}", w[0], w[1]);
                }
            }
        }
    }

    /// A 400 x 400 nested-loops cross product (the plan of the service's
    /// `cancel_stops_a_query_mid_run`): long enough that a deadline of a few
    /// milliseconds lands mid-run.
    fn cross_product_plan() -> QueryPlan {
        let t = table("cross_t", 400, 8);
        let mut pb = PlanBuilder::new();
        let inner = pb
            .filter(Source::Table(t.clone()), cmp(col(0), CmpOp::Ge, lit(0i32)))
            .unwrap();
        let j = pb
            .nested_loops(Source::Table(t), inner, vec![], vec![0], vec![0])
            .unwrap();
        pb.build(j).unwrap()
    }

    #[test]
    fn mid_query_deadline_cancels_every_mode() {
        // A deadline is a condition of cancellation: the first check past it
        // (between a work order's blocks, or at a pick) trips the token, in
        // a serial run as in a pool. A deadline too short for any work order
        // to finish first is doubled and retried, so a slow machine cannot
        // turn the mid-run case into an expired-at-start one.
        let cancelled_mid_run = |result: std::result::Result<usize, EngineError>| match result {
            Err(EngineError::Cancelled {
                completed_work_orders,
                ..
            }) => completed_work_orders > 0,
            Err(other) => panic!("expected Cancelled, got {other}"),
            Ok(rows) => panic!("query finished despite its deadline ({rows} rows)"),
        };
        for mode in [
            ExecMode::Serial,
            ExecMode::Parallel { workers: 1 },
            ExecMode::Parallel { workers: 2 },
        ] {
            let mut deadline = Duration::from_millis(2);
            let mut hits = 0;
            while hits < 2 {
                assert!(
                    deadline < Duration::from_secs(1),
                    "no mid-run cancel under {mode:?}"
                );
                let ctx = ctx_for(cross_product_plan());
                let ctx = Arc::new(
                    Arc::try_unwrap(ctx)
                        .unwrap_or_else(|_| panic!("sole owner"))
                        .with_deadline(Some(deadline)),
                );
                let tracker = ctx.pool.tracker().clone();
                let result = run(ctx, mode);
                assert_eq!(tracker.current_bytes(), 0, "teardown must drain");
                // The same 96-byte temp blocks as `ctx_for`, so both runs
                // last equally long.
                let engine = crate::engine::Engine::new(
                    crate::engine::EngineConfig {
                        mode,
                        ..Default::default()
                    }
                    .with_block_bytes(96)
                    .with_deadline(Some(deadline)),
                );
                let through_engine = engine.execute(cross_product_plan());
                if cancelled_mid_run(result.map(|(b, _)| b.len()))
                    && cancelled_mid_run(through_engine.map(|r| r.num_rows()))
                {
                    hits += 1;
                } else {
                    deadline *= 2;
                }
            }
        }
    }

    #[test]
    fn error_path_preserves_completed_task_metrics() {
        // Inject a panic into the 5th work order; the first 4 completions
        // must still be visible in the partial metrics.
        let ctx = ctx_for(select_probe_plan(Uot::Blocks(1)));
        let ctx = Arc::new(
            Arc::try_unwrap(ctx)
                .unwrap_or_else(|_| panic!("sole owner"))
                .with_faults(Arc::new(crate::fault::FaultPlan::new(vec![
                    crate::fault::Injection {
                        site: FaultSite::WorkOrderExec,
                        kind: FaultKind::Panic,
                        nth: 5,
                    },
                ]))),
        );
        let tracker = ctx.pool.tracker().clone();
        let failed = run_serial_detailed(ctx, Uot::LOW).unwrap_err();
        assert!(
            matches!(failed.error, EngineError::WorkOrderPanic { .. }),
            "{}",
            failed.error
        );
        let done: usize = failed
            .partial_metrics
            .ops
            .iter()
            .map(|o| o.work_orders)
            .sum();
        assert_eq!(done, 4, "completions before the injected panic");
        assert_eq!(tracker.current_bytes(), 0, "error path must not leak");
    }
}
