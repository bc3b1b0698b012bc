//! Fused pipeline execution: the UoT→0 endpoint of the transfer spectrum.
//!
//! Every point on the paper's spectrum — `Uot::Blocks(1)` through
//! `Uot::Table` — still materializes intermediate blocks between operators
//! and stages them on a [`TransferEdge`](crate::transfer::TransferEdge).
//! This module adds the missing endpoint: a *fused* pipeline compiles a
//! maximal chain of stream-connected operators
//! (scan/select → LIP filter → hash-probe(s) → aggregate-or-sink) into one
//! push-based loop over the input batch. Per block the fused loop evaluates
//! predicates, consults LIP Bloom filters, hashes once, probes with the
//! prefetched [`ProbeSession`](crate::hash_table::ProbeSession), gathers
//! payload columns, and feeds the aggregate accumulator directly — no
//! intermediate block is ever staged on an edge inside the fused region.
//!
//! Fused chains still execute as ordinary work orders on the head operator,
//! so cancellation, deadlines, panic containment, budgets, and per-query
//! attribution all keep working. Build sides, sorts, nested-loops joins and
//! limits stay on the staged path.
//!
//! [`plan_fusion`] decides per pipeline using `uot-model`'s
//! [`CostParams::fusion_wins`] estimate (policy [`FusionPolicy::Auto`]), or
//! unconditionally under [`FusionPolicy::Always`] / [`FusionPolicy::Never`].

use crate::error::EngineError;
use crate::output::Produced;
use crate::plan::{OpId, OperatorKind, QueryPlan, Source};
use crate::state::ExecContext;
use crate::uot::Uot;
use crate::Result;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use uot_model::{CostParams, HardwareProfile};
use uot_storage::StorageBlock;

/// Per-pipeline fusion decision policy, settable per engine/service and per
/// submission via [`ExecOptions`](crate::exec_options::ExecOptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionPolicy {
    /// Fuse a pipeline when the cost model says the fused loop beats the
    /// better of the two staged strategies (the default).
    #[default]
    Auto,
    /// Fuse every fusible pipeline (used by equivalence tests and benches).
    Always,
    /// Never fuse; every pipeline runs on the staged path.
    Never,
}

/// Execution counters of one fused chain, filled in by [`execute_fused`]
/// and read back when the chain's tail operator finishes (the
/// `PipelineFused` trace event and `QueryMetrics` fusion counts).
#[derive(Debug, Default)]
pub struct ChainStats {
    /// Input batches pushed through the fused loop.
    pub batches: AtomicUsize,
    /// Input rows pushed through the fused loop.
    pub rows: AtomicUsize,
    /// Summed wall time inside the fused loop, nanoseconds.
    pub elapsed_ns: AtomicU64,
}

/// One fused pipeline: a maximal chain of stream-connected operators that
/// executes as a single push-based loop headed by `ops[0]`.
#[derive(Debug)]
pub struct FusedChain {
    /// Pipeline id (index into [`FusionState::chains`]).
    pub id: usize,
    /// Chain members in stream order: `ops[0]` is the head (receives the
    /// staged input), the last entry is the tail (owns the output).
    pub ops: Vec<OpId>,
    /// Human-readable chain label, e.g. `select(lineitem)+probe(#0)+agg`.
    pub label: String,
    /// Execution counters (batches / rows / elapsed).
    pub stats: ChainStats,
}

impl FusedChain {
    /// The operator that receives the chain's staged input.
    pub fn head(&self) -> OpId {
        self.ops[0]
    }

    /// The operator that owns the chain's output (and its `TransferEdge`).
    pub fn tail(&self) -> OpId {
        *self.ops.last().expect("chains have >= 2 members")
    }
}

/// The per-query fusion plan: which pipelines run fused, plus lookup tables
/// the scheduler and workers consult on the hot path. The default (empty)
/// state fuses nothing and adds a single `Vec::get` miss per lookup.
#[derive(Debug, Default)]
pub struct FusionState {
    /// Fused chains, indexed by pipeline id.
    chains: Vec<FusedChain>,
    /// `op -> chain id` when `op` heads a fused chain.
    head_chain: Vec<Option<usize>>,
    /// `op -> head OpId` when `op` is any member of a fused chain.
    member_head: Vec<Option<OpId>>,
    /// `op -> chain id` when `op` is the tail of a fused chain.
    tail_chain: Vec<Option<usize>>,
    /// Total stream pipelines in the plan (fused + staged).
    total_pipelines: usize,
}

impl FusionState {
    /// All fused chains of this query.
    pub fn chains(&self) -> &[FusedChain] {
        &self.chains
    }

    /// The fused chain headed by `op`, if any.
    pub fn chain_for_head(&self, op: OpId) -> Option<&FusedChain> {
        self.head_chain
            .get(op)
            .copied()
            .flatten()
            .map(|id| &self.chains[id])
    }

    /// The head of the fused chain `op` belongs to, if any (including the
    /// head itself).
    pub fn head_of_member(&self, op: OpId) -> Option<OpId> {
        self.member_head.get(op).copied().flatten()
    }

    /// The fused chain whose tail is `op`, if any.
    pub fn chain_for_tail(&self, op: OpId) -> Option<&FusedChain> {
        self.tail_chain
            .get(op)
            .copied()
            .flatten()
            .map(|id| &self.chains[id])
    }

    /// Number of pipelines that run fused.
    pub fn fused_count(&self) -> usize {
        self.chains.len()
    }

    /// Number of pipelines that run on the staged path.
    pub fn staged_count(&self) -> usize {
        self.total_pipelines - self.chains.len()
    }
}

/// May the stream edge `producer -> consumer` live inside a fused loop?
///
/// The producer must be a per-block pass-through (select or probe), the
/// consumer must accept a pushed batch (select, probe, or aggregate — an
/// aggregate terminates its chain at the accumulator), and the edge must be
/// a plain stream edge: `consumer` streams from `producer` and `producer`
/// is not materialized in full for an NLJ inner side.
fn fusible_link(plan: &QueryPlan, producer: OpId, consumer: OpId) -> bool {
    if plan.topology().stream_parent(consumer) != Some(producer) {
        return false;
    }
    if plan.topology().materialization_target(producer) == Some(consumer) {
        return false;
    }
    let p_ok = matches!(
        plan.op(producer).kind,
        OperatorKind::Select { .. } | OperatorKind::Probe { .. }
    );
    let c_ok = matches!(
        plan.op(consumer).kind,
        OperatorKind::Select { .. } | OperatorKind::Probe { .. } | OperatorKind::Aggregate { .. }
    );
    p_ok && c_ok
}

/// Walk an operator's stream ancestry to its base table.
fn base_table(plan: &QueryPlan, mut op: OpId) -> Option<&Arc<uot_storage::Table>> {
    loop {
        match plan.op(op).kind.stream_source() {
            Source::Table(t) => return Some(t),
            Source::Op(src) => op = *src,
        }
    }
}

/// Estimated bytes of chain-resident state the fused loop touches per batch
/// besides the input: every probed hash table (approximated by its build
/// side's base-table footprint). This is what erodes the fused loop's cache
/// residency in [`CostParams::fused_extra_cost`].
fn resident_bytes(plan: &QueryPlan, chain: &[OpId]) -> f64 {
    let mut total = 0.0;
    for &op in chain {
        if let OperatorKind::Probe { build, .. } = &plan.op(op).kind {
            if let Some(t) = base_table(plan, *build) {
                total += (t.num_rows() * t.schema().tuple_width()) as f64;
            }
        }
    }
    total
}

/// Extract maximal fusible chains from `plan` and decide per chain whether
/// to fuse, per `policy`. `workers`, `block_bytes` and `uot` parameterize
/// the staged-vs-fused cost estimate ([`FusionPolicy::Auto`]).
pub fn plan_fusion(
    plan: &QueryPlan,
    policy: FusionPolicy,
    workers: usize,
    block_bytes: usize,
    uot: Uot,
) -> FusionState {
    let n = plan.len();
    // Partition the stream graph into maximal runs of fusible links. An op
    // with no fusible parent starts a run; runs extend while links fuse.
    let mut has_fusible_parent = vec![false; n];
    for op in 0..n {
        if let Some(c) = plan.consumer_of(op) {
            if fusible_link(plan, op, c) {
                has_fusible_parent[c] = true;
            }
        }
    }
    let mut runs: Vec<Vec<OpId>> = Vec::new();
    for (op, &mid_run) in has_fusible_parent.iter().enumerate() {
        if mid_run {
            continue;
        }
        let mut run = vec![op];
        let mut cur = op;
        while let Some(c) = plan.consumer_of(cur) {
            if !fusible_link(plan, cur, c) {
                break;
            }
            run.push(c);
            cur = c;
            // An aggregate feeds its accumulator; nothing fuses past it.
            if matches!(plan.op(c).kind, OperatorKind::Aggregate { .. }) {
                break;
            }
        }
        runs.push(run);
    }
    let total_pipelines = runs.len();

    let mut state = FusionState {
        chains: Vec::new(),
        head_chain: vec![None; n],
        member_head: vec![None; n],
        tail_chain: vec![None; n],
        total_pipelines,
    };
    for run in runs {
        if run.len() < 2 {
            continue;
        }
        let fuse = match policy {
            FusionPolicy::Never => false,
            FusionPolicy::Always => true,
            FusionPolicy::Auto => {
                // Cost the chain like the staged sweeps do: N transfers of
                // `uot` blocks each, against the fused loop whose extra cost
                // is one instruction-cache term plus cache pressure from the
                // chain's resident hash tables.
                let head = run[0];
                let input_blocks = base_table(plan, head)
                    .map(|t| t.blocks().len())
                    .unwrap_or(1);
                let uot_blocks = match uot.normalized() {
                    Uot::Blocks(b) => b.max(1).min(input_blocks.max(1)),
                    Uot::Table => input_blocks.max(1),
                };
                let n_uots = (input_blocks / uot_blocks).max(1);
                let params = CostParams::derive(
                    HardwareProfile::haswell(),
                    (block_bytes * uot_blocks) as f64,
                    workers.max(1),
                    n_uots,
                );
                params.fusion_wins(resident_bytes(plan, &run))
            }
        };
        if !fuse {
            continue;
        }
        let id = state.chains.len();
        let label = run
            .iter()
            .map(|&op| plan.op(op).name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        for &op in &run {
            state.member_head[op] = Some(run[0]);
        }
        state.head_chain[run[0]] = Some(id);
        state.tail_chain[*run.last().expect("non-empty run")] = Some(id);
        state.chains.push(FusedChain {
            id,
            ops: run,
            label,
            stats: ChainStats::default(),
        });
    }
    state
}

/// Push one input batch through `chain`'s fused loop.
///
/// Each member transforms the batch in place of a staged transfer: selects
/// and probes hand the next member a virtual block (zero-copy when a select
/// passes every row through identity projections), and an aggregate tail
/// feeds its accumulator directly. Only a non-aggregate tail materializes —
/// through its own pooled [`OutputBuffer`](crate::output::OutputBuffer), the
/// same choke point the staged path uses. Returns the completed output
/// blocks, exactly as a staged work order on the tail would.
pub fn execute_fused(
    ctx: &ExecContext,
    chain: &FusedChain,
    block: &Arc<StorageBlock>,
) -> Result<Produced> {
    let t0 = Instant::now();
    let in_rows = block.num_rows();
    let mut cur: Arc<StorageBlock> = block.clone();
    let mut out = Vec::new();
    for (i, &op) in chain.ops.iter().enumerate() {
        let is_tail = i + 1 == chain.ops.len();
        match &ctx.plan.op(op).kind {
            OperatorKind::Select { .. } => match crate::ops::select::apply(ctx, op, &cur)? {
                Some(next) => cur = next,
                None => break,
            },
            OperatorKind::Probe { .. } => match crate::ops::probe::apply(ctx, op, &cur)? {
                Some(next) => cur = Arc::new(next),
                None => break,
            },
            OperatorKind::Aggregate { .. } => {
                debug_assert!(is_tail, "an aggregate terminates its fused chain");
                crate::ops::aggregate::execute_block(ctx, op, &cur)?;
                break;
            }
            other => {
                return Err(EngineError::Internal(format!(
                    "operator kind {} inside fused chain {}",
                    other.kind_label(),
                    chain.label
                )))
            }
        }
        if is_tail {
            out = crate::ops::write_output(ctx, op, &cur)?;
        }
    }
    chain.stats.batches.fetch_add(1, Ordering::Relaxed);
    chain.stats.rows.fetch_add(in_rows, Ordering::Relaxed);
    chain
        .stats
        .elapsed_ns
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinType, PlanBuilder};
    use uot_expr::{cmp, col, lit, AggSpec, CmpOp, Predicate};
    use uot_storage::{BlockFormat, DataType, Schema, Table, TableBuilder, Value};

    fn table(name: &str, rows: i32) -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
        let mut tb = TableBuilder::new(name, s, BlockFormat::Column, 256);
        for i in 0..rows {
            tb.append(&[Value::I32(i % 10), Value::I64(i as i64)])
                .unwrap();
        }
        Arc::new(tb.finish())
    }

    /// select(fact) -> probe(build(dim)) -> aggregate.
    fn join_agg_plan() -> QueryPlan {
        let mut pb = PlanBuilder::new();
        let b = pb
            .build_hash(Source::Table(table("dim", 10)), vec![0], vec![1])
            .unwrap();
        let s = pb
            .filter(
                Source::Table(table("fact", 100)),
                cmp(col(0), CmpOp::Lt, lit(8i32)),
            )
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

    #[test]
    fn select_probe_aggregate_chain_fuses() {
        let plan = join_agg_plan();
        let fs = plan_fusion(&plan, FusionPolicy::Always, 4, 32 * 1024, Uot::Blocks(1));
        assert_eq!(fs.fused_count(), 1);
        let chain = &fs.chains()[0];
        // ops 1 (select) -> 2 (probe) -> 3 (aggregate); op 0 is the build.
        assert_eq!(chain.ops, vec![1, 2, 3]);
        assert_eq!(chain.head(), 1);
        assert_eq!(chain.tail(), 3);
        assert_eq!(fs.chain_for_head(1).map(|c| c.id), Some(0));
        assert!(fs.chain_for_head(2).is_none());
        assert_eq!(fs.head_of_member(2), Some(1));
        assert_eq!(fs.head_of_member(3), Some(1));
        assert!(fs.head_of_member(0).is_none());
        assert_eq!(fs.chain_for_tail(3).map(|c| c.id), Some(0));
        // The build is its own (staged) pipeline.
        assert_eq!(fs.staged_count(), 1);
        assert!(chain.label.contains("select"));
        assert!(chain.label.contains('+'));
    }

    #[test]
    fn auto_fuses_in_memory_pipelines() {
        let plan = join_agg_plan();
        let fs = plan_fusion(&plan, FusionPolicy::Auto, 8, 128 * 1024, Uot::Blocks(1));
        assert_eq!(
            fs.fused_count(),
            1,
            "the cost model fuses in-memory chains (fused ≪ staged best)"
        );
    }

    #[test]
    fn never_policy_fuses_nothing_but_counts_pipelines() {
        let plan = join_agg_plan();
        let fs = plan_fusion(&plan, FusionPolicy::Never, 4, 32 * 1024, Uot::Blocks(1));
        assert_eq!(fs.fused_count(), 0);
        assert_eq!(fs.staged_count(), 2); // select+probe+agg run, build run
        assert!(fs.chain_for_head(1).is_none());
        assert!(fs.head_of_member(2).is_none());
    }

    #[test]
    fn breakers_stay_staged() {
        // select -> sort: sort is a breaker, nothing fuses.
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(table("t", 50)), Predicate::True)
            .unwrap();
        let srt = pb
            .sort(Source::Op(s), vec![crate::plan::SortKey::asc(0)], None)
            .unwrap();
        let plan = pb.build(srt).unwrap();
        let fs = plan_fusion(&plan, FusionPolicy::Always, 4, 32 * 1024, Uot::Blocks(1));
        assert_eq!(fs.fused_count(), 0);
        assert_eq!(fs.staged_count(), 2);

        // select -> nlj(right=select): the materialized inner side must not
        // fuse into its consumer.
        let mut pb = PlanBuilder::new();
        let inner = pb
            .filter(
                Source::Table(table("r", 20)),
                cmp(col(0), CmpOp::Lt, lit(3i32)),
            )
            .unwrap();
        let j = pb
            .nested_loops(
                Source::Table(table("l", 20)),
                inner,
                vec![(0, CmpOp::Gt, 0)],
                vec![0],
                vec![0],
            )
            .unwrap();
        let plan = pb.build(j).unwrap();
        let fs = plan_fusion(&plan, FusionPolicy::Always, 4, 32 * 1024, Uot::Blocks(1));
        assert_eq!(fs.fused_count(), 0);
    }

    #[test]
    fn chain_past_aggregate_never_forms() {
        // select -> aggregate -> sort: the run stops at the aggregate.
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(table("t", 50)), Predicate::True)
            .unwrap();
        let a = pb
            .aggregate(Source::Op(s), vec![0], vec![AggSpec::count_star()], &["n"])
            .unwrap();
        let srt = pb
            .sort(Source::Op(a), vec![crate::plan::SortKey::asc(0)], None)
            .unwrap();
        let plan = pb.build(srt).unwrap();
        let fs = plan_fusion(&plan, FusionPolicy::Always, 4, 32 * 1024, Uot::Blocks(1));
        assert_eq!(fs.fused_count(), 1);
        assert_eq!(fs.chains()[0].ops, vec![0, 1]);
        assert_eq!(fs.staged_count(), 1); // the sort
    }

    #[test]
    fn default_state_is_inert() {
        let fs = FusionState::default();
        assert!(fs.chain_for_head(0).is_none());
        assert!(fs.head_of_member(5).is_none());
        assert!(fs.chain_for_tail(3).is_none());
        assert_eq!(fs.fused_count(), 0);
        assert_eq!(fs.staged_count(), 0);
    }
}
