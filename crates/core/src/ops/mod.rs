//! Work-order execution: one module per physical operator.
//!
//! [`execute_work_order`] is the single entry point workers call; it
//! dispatches on the operator kind and the work kind and returns the
//! **completed** output blocks the work order produced, each already in its
//! spill slot (partially filled blocks stay in the operator's
//! [`OutputBuffer`](crate::output::OutputBuffer) for the next work order,
//! per the paper's block-pool discipline). A
//! stream work order's block waits in its spill slot until then: the worker
//! takes it out, faulting it in if the pool evicted it, and releases its
//! bytes when the work order ends.
//!
//! A blocking operator (build, aggregate, sort, grace join) ends in one
//! partitioned finalize, decided here for all of them: once its stream work
//! orders are over, `plan_finalize` takes the input they left and splits
//! the finalize into partitions, and each [`WorkKind::Finalize`] work order
//! runs one; a [`PartResults`] hands the last partition to finish every
//! partition's result.

pub mod aggregate;
pub mod build;
pub mod builders;
pub mod grace;
pub mod limit;
pub mod nlj;
pub mod probe;
pub(crate) mod row_order;
pub mod select;
pub mod sort;

use crate::error::EngineError;
use crate::fault::{FaultKind, FaultSite};
use crate::hash_table::SHARDS;
use crate::output::Produced;
use crate::plan::OperatorKind;
use crate::state::ExecContext;
use crate::work_order::{FinalizeInput, WorkKind, WorkOrder};
use crate::Result;
use parking_lot::Mutex;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use uot_storage::{StorageBlock, StorageError};

/// Consult the context's [`FaultPlan`](crate::fault::FaultPlan) at `site`:
/// no-op for the (default) empty plan; otherwise panic, fail, or stall as
/// scheduled. Injected panics carry an "injected" marker in their payload so
/// chaos tests can tell them from genuine bugs.
pub(crate) fn apply_fault(ctx: &ExecContext, site: FaultSite, op: usize) -> Result<()> {
    let Some(kind) = ctx.faults.check(site) else {
        return Ok(());
    };
    ctx.trace_event(|| crate::trace::TraceEventKind::FaultInjected { site, kind, op });
    match kind {
        FaultKind::Panic => panic!("injected fault at {site:?}"),
        // An injected error models an allocation failure; zeroed fields mark
        // it as synthetic.
        FaultKind::Error => Err(EngineError::Storage(StorageError::BudgetExceeded {
            requested: 0,
            in_use: 0,
            budget: 0,
            global_in_use: 0,
            global_budget: 0,
        })),
        FaultKind::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Execute one work order with panic containment: a panicking operator
/// becomes [`EngineError::WorkOrderPanic`] naming the operator, and a
/// [`StorageError::BudgetExceeded`] bubbling out of the operator is wrapped
/// into [`EngineError::BudgetExceeded`] naming the operator that hit the
/// wall. Both drivers call this, so worker threads and the process always
/// survive a failing work order.
pub fn execute_work_order_contained(ctx: &ExecContext, wo: &WorkOrder) -> Result<Produced> {
    // `ExecContext` is shared behind `Arc` and every interior-mutable piece
    // of it is lock- or atomic-guarded (parking_lot locks do not poison), so
    // observing state after a contained panic is safe: at worst a partial's
    // rows are lost, and teardown releases its memory either way.
    let result = match std::panic::catch_unwind(AssertUnwindSafe(|| execute_work_order(ctx, wo))) {
        Ok(result) => attach_op_context(ctx, wo.op, result),
        Err(payload) => {
            // A panic inside a fused loop is attributed to the whole
            // pipeline: the chain label names every member, since the
            // faulting operator could be any of them.
            let fused = matches!(wo.kind, WorkKind::Stream { .. })
                .then(|| ctx.fusion.chain_for_head(wo.op))
                .flatten();
            let (op_name, kind) = match fused {
                Some(chain) => (chain.label.clone(), "fused-pipeline".to_string()),
                None => {
                    let op = ctx.plan.op(wo.op);
                    (op.name.clone(), op.kind.kind_label().to_string())
                }
            };
            Err(EngineError::WorkOrderPanic {
                op: op_name,
                kind,
                payload: panic_payload_message(payload.as_ref()),
            })
        }
    };
    if let Err(e) = &result {
        use crate::trace::TraceEventKind as K;
        let (seq, op) = (wo.seq, wo.op);
        ctx.trace_event(|| match e {
            EngineError::WorkOrderPanic { .. } => K::WorkOrderPanicked { seq, op },
            EngineError::Cancelled { .. } => K::WorkOrderCancelled { seq, op },
            _ => K::WorkOrderFailed { seq, op },
        });
    }
    result
}

/// Downcast a panic payload to a human-readable message.
fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Name the responsible operator on errors that need it (budget failures).
fn attach_op_context(ctx: &ExecContext, op: usize, result: Result<Produced>) -> Result<Produced> {
    match result {
        Err(EngineError::Storage(StorageError::BudgetExceeded {
            requested,
            in_use,
            budget,
            global_in_use,
            global_budget,
        })) => Err(EngineError::BudgetExceeded {
            op: ctx.plan.op(op).name.clone(),
            query: ctx.query,
            requested,
            in_use,
            budget,
            global_in_use,
            global_budget,
        }),
        other => other,
    }
}

/// Execute one work order, returning the completed blocks it emitted. A
/// stream work order first takes its block out of its slot, restoring it
/// if it was evicted; a failed restore is the work order's error.
pub fn execute_work_order(ctx: &ExecContext, wo: &WorkOrder) -> Result<Produced> {
    match &wo.kind {
        WorkKind::Stream { slot } => {
            let store = ctx.pool.spill_store();
            // A cancelled query drops its block unread, evicted or not.
            if let Err(e) = ctx.check_cancelled() {
                if ctx.plan.topology().stream_parent(wo.op).is_some() {
                    slot.discard(ctx.pool.tracker(), store.as_deref());
                }
                return Err(e);
            }
            // From here on the block dies with the `Input` guard.
            let block = slot.take(store.as_deref())?;
            let input = Input {
                ctx,
                op: wo.op,
                block,
            };
            apply_fault(ctx, FaultSite::WorkOrderExec, wo.op)?;
            execute_stream(ctx, wo.op, &input.block)
        }
        WorkKind::Finalize { part, parts, input } => {
            ctx.check_cancelled()?;
            apply_fault(ctx, FaultSite::WorkOrderExec, wo.op)?;
            execute_finalize(ctx, wo.op, *part, *parts, input)
        }
    }
}

/// A stream work order's input block, out of its slot while the work order
/// runs. An intermediate block dies with its work order, so dropping this
/// releases its bytes whether the operator succeeded, failed or panicked.
/// Base-table blocks were never charged.
struct Input<'a> {
    ctx: &'a ExecContext,
    op: usize,
    block: Arc<StorageBlock>,
}

impl Drop for Input<'_> {
    fn drop(&mut self) {
        let ctx = self.ctx;
        if ctx.plan.topology().stream_parent(self.op).is_some() {
            let (bytes, tracker) = (self.block.allocated_bytes(), ctx.pool.tracker());
            tracker.free(bytes);
            let in_use = tracker.current_bytes();
            ctx.trace_event(|| crate::trace::TraceEventKind::PoolFree { bytes, in_use });
        }
    }
}

/// Apply operator `op`'s logic to one input block. On a fused-chain head the
/// block is pushed through the whole chain in one loop; the staged
/// per-operator path is bypassed.
fn execute_stream(ctx: &ExecContext, op: usize, block: &Arc<StorageBlock>) -> Result<Produced> {
    if let Some(chain) = ctx.fusion.chain_for_head(op) {
        return crate::fusion::execute_fused(ctx, chain, block);
    }
    match &ctx.plan.op(op).kind {
        OperatorKind::Select { .. } => select::execute(ctx, op, block),
        OperatorKind::BuildHash { .. } => build::execute(ctx, op, block),
        OperatorKind::Probe { .. } => probe::execute(ctx, op, block),
        OperatorKind::Aggregate { .. } => aggregate::execute_block(ctx, op, block),
        OperatorKind::NestedLoops { .. } => nlj::execute(ctx, op, block),
        OperatorKind::Limit { .. } => limit::execute(ctx, op, block),
        kind => Err(EngineError::Internal(format!(
            "a {} operator has no stream work orders",
            kind.kind_label()
        ))),
    }
}

/// Input rows (a build's) or groups (an aggregate's, a group counted once
/// per partial it is in) per finalize partition, at least: below it another
/// partition costs more than it saves. A finalize over `n` of them splits
/// into `min(workers, n / FINALIZE_FLOOR)` partitions, at least one (and a
/// build's into at most [`SHARDS`]), so a small build, a scalar or small
/// aggregate, a sort and a grace join keep one finalize work order.
pub const FINALIZE_FLOOR: usize = 4096;

/// Once every stream work order of `op` has finished: take the input its
/// finalize partitions share, and split the finalize for `workers` workers.
/// `None` when `op` has no finalize (a grace build's is its probe's; its
/// partition buffers park as eviction victims here).
pub(crate) fn plan_finalize(
    ctx: &ExecContext,
    op: usize,
    workers: usize,
) -> Result<Option<(FinalizeInput, usize)>> {
    plan_split(ctx, op, |n| workers.min(n / FINALIZE_FLOOR).max(1))
}

/// [`plan_finalize`] with the partition count `split` gives for the input
/// size.
fn plan_split(
    ctx: &ExecContext,
    op: usize,
    split: impl FnOnce(usize) -> usize,
) -> Result<Option<(FinalizeInput, usize)>> {
    // A grace join's build only partitioned its input; the grace probe's
    // finalize builds and probes one table per partition.
    let grace = ctx.grace.contains_key(&op);
    Ok(Some(match ctx.plan.op(op).kind {
        OperatorKind::BuildHash { .. } if !grace => {
            build::freeze(ctx, op, |rows| split(rows).min(SHARDS))
        }
        OperatorKind::BuildHash { .. } => {
            grace::park_build(ctx, op);
            return Ok(None);
        }
        OperatorKind::Aggregate { .. } => aggregate::freeze(ctx, op, split)?,
        OperatorKind::Sort { .. } => (FinalizeInput::Sort, 1),
        OperatorKind::Probe { .. } if grace => (FinalizeInput::GraceJoin, 1),
        _ => return Ok(None),
    }))
}

/// Run finalize partition `part` of `parts` of operator `op`.
fn execute_finalize(
    ctx: &ExecContext,
    op: usize,
    part: usize,
    parts: usize,
    input: &FinalizeInput,
) -> Result<Produced> {
    match input {
        FinalizeInput::Build(runs) => build::execute_finalize(ctx, op, part, parts, runs),
        FinalizeInput::Aggregate(groups) => {
            aggregate::execute_finalize(ctx, op, part, parts, groups)
        }
        FinalizeInput::Sort => sort::execute(ctx, op),
        FinalizeInput::GraceJoin => grace::finalize(ctx, op),
    }
}

/// Run `op`'s finalize on the calling thread, split as for `workers`
/// workers, once its stream work orders are over — what the scheduler
/// does, for callers that drive work orders by hand (unit tests, benches).
/// The partitions run last first, so the result cannot lean on finishing in
/// partition order. Returns the completed blocks they emitted.
pub fn finalize_in_turn(ctx: &ExecContext, op: usize, workers: usize) -> Result<Produced> {
    in_turn(ctx, op, plan_finalize(ctx, op, workers)?)
}

/// [`finalize_in_turn`] split into `parts` partitions whatever the input
/// size, so small inputs exercise every partition count.
#[cfg(test)]
pub(crate) fn finalize_parts_in_turn(
    ctx: &ExecContext,
    op: usize,
    parts: usize,
) -> Result<Produced> {
    in_turn(ctx, op, plan_split(ctx, op, |_| parts)?)
}

fn in_turn(ctx: &ExecContext, op: usize, plan: Option<(FinalizeInput, usize)>) -> Result<Produced> {
    let mut out = Vec::new();
    if let Some((input, parts)) = plan {
        for part in (0..parts).rev() {
            out.extend(execute_finalize(ctx, op, part, parts, &input)?);
        }
    }
    Ok(out)
}

/// The results of a finalize's partitions, held until the last one
/// finishes: that partition publishes them all.
#[derive(Debug)]
pub struct PartResults<T>(Mutex<Vec<(usize, T)>>);

impl<T> Default for PartResults<T> {
    fn default() -> Self {
        PartResults(Mutex::new(Vec::new()))
    }
}

impl<T> PartResults<T> {
    /// Record `result`, partition `part`'s of `parts`. The call that records
    /// the last one gets every result in partition order; the others get
    /// `None`. Each partition records once.
    pub fn finish(&self, part: usize, parts: usize, result: T) -> Option<Vec<T>> {
        let mut all = {
            let mut done = self.0.lock();
            done.push((part, result));
            if done.len() < parts {
                return None;
            }
            std::mem::take(&mut *done)
        };
        all.sort_unstable_by_key(|&(part, _)| part);
        Some(all.into_iter().map(|(_, result)| result).collect())
    }

    /// Whether no partition's result is held.
    pub fn is_empty(&self) -> bool {
        self.0.lock().is_empty()
    }
}

/// Route an operator's materialized output through its
/// [`OutputBuffer`](crate::output::OutputBuffer) — the single choke point
/// for fresh output allocations, where `pool_alloc` faults inject. Returns
/// the blocks that completed, sealed in their slots.
pub(crate) fn write_output(ctx: &ExecContext, op: usize, virt: &StorageBlock) -> Result<Produced> {
    apply_fault(ctx, FaultSite::PoolAlloc, op)?;
    let before = traced_in_use(ctx);
    let out = ctx.output(op).write_rows(virt, &ctx.pool)?;
    trace_alloc(ctx, op, before);
    Ok(out)
}

/// Tracker bytes in use right now — read only when a trace sink is installed
/// (the untraced fast path must not touch the shared atomic).
fn traced_in_use(ctx: &ExecContext) -> Option<usize> {
    ctx.trace
        .is_some()
        .then(|| ctx.pool.tracker().current_bytes())
}

/// Record a [`PoolAlloc`](crate::trace::TraceEventKind::PoolAlloc) event for
/// any net growth of tracked bytes since `before` (a `traced_in_use` probe).
fn trace_alloc(ctx: &ExecContext, op: usize, before: Option<usize>) {
    let Some(before) = before else { return };
    let in_use = ctx.pool.tracker().current_bytes();
    if in_use > before {
        ctx.trace_event(|| crate::trace::TraceEventKind::PoolAlloc {
            op,
            bytes: in_use - before,
            in_use,
            budget: ctx.pool.budget().unwrap_or(usize::MAX),
        });
    }
}
