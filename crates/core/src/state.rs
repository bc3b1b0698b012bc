//! Shared runtime state for one executing query.
//!
//! Work orders run on worker threads and only touch this state plus their
//! input block; scheduling decisions are made between work orders, under
//! the dispatcher lock. The state is therefore limited to thread-safe
//! structures: output buffers, shared join hash tables, pooled aggregate
//! partials, collected block lists (sort input / nested-loops inner side)
//! and the limit counter.

use crate::bloom::BloomFilter;
use crate::cancel::CancellationToken;
use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::hash_table::{BuildRun, JoinHashTable, ProbeMatch};
use crate::ops::row_order::push_field;
use crate::ops::PartResults;
use crate::output::OutputBuffer;
use crate::plan::{OperatorKind, QueryPlan, Source};
use crate::Result;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::AtomicI64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uot_expr::AggState;
use uot_storage::{
    hash_key::hash_of, BlockFormat, BlockPool, ColumnBlock, ColumnData, DataType, HashKey,
    KeyBatch, KeyExtractor, Schema, SpillSlot, SpilledHandle, StorageBlock,
};

/// One side (build or probe) of a grace hash join, partitioned by hash radix.
///
/// Each partition has at most one *open* block accumulating rows in memory;
/// full blocks are spilled to disk immediately, so the resident footprint of
/// a grace side is bounded by `nparts × block_bytes` regardless of input
/// size.
#[derive(Debug, Default)]
pub struct GraceSide {
    /// Per-partition open (partially filled) block, if any.
    pub open: Vec<Option<StorageBlock>>,
    /// Per-partition spilled full blocks.
    pub spilled: Vec<Vec<SpilledHandle>>,
    /// A finished build's open blocks, parked as the pool's eviction
    /// victims until the finalize joins them.
    pub parked: Vec<Option<Arc<SpillSlot>>>,
}

impl GraceSide {
    /// Empty side with `nparts` partitions.
    pub fn with_parts(nparts: usize) -> Self {
        GraceSide {
            open: (0..nparts).map(|_| None).collect(),
            spilled: (0..nparts).map(|_| Vec::new()).collect(),
            parked: (0..nparts).map(|_| None).collect(),
        }
    }
}

/// Shared state of one grace (partitioned, out-of-core) hash join.
///
/// Present in [`ExecContext::grace`] — keyed by **both** the build and the
/// probe operator id — when [`ExecContext::plan_grace`] decided the build
/// side will not fit the memory budget. The build and probe operators then
/// partition their inputs into [`GraceSide`]s instead of building/probing a
/// monolithic hash table, and one finalize work order joins the
/// partitions one at a time.
#[derive(Debug)]
pub struct GraceJoinState {
    /// The `BuildHash` operator feeding this join.
    pub build_op: usize,
    /// The `Probe` operator.
    pub probe_op: usize,
    /// Partition count (power of two).
    pub nparts: usize,
    /// Partitioned build input.
    pub build: Mutex<GraceSide>,
    /// Partitioned probe input.
    pub probe: Mutex<GraceSide>,
}

impl GraceJoinState {
    /// Partition index for a 64-bit key hash. Uses bits 32.. so it stays
    /// disjoint from both the hash table's shard bits (top 16) and its
    /// in-shard bucket bits (bottom), making sub-partitioning on deeper bits
    /// meaningful during recursive respill.
    pub fn partition_of(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.nparts - 1)
    }
}

/// A partial hash aggregation: dense group ids assigned by an
/// open-addressing table, and one state vector per aggregate indexed by
/// group id.
///
/// Slots are placed by the top bits of the key hash the [`KeyExtractor`]
/// already computed, so a block's group ids cost one probe per row and no
/// second hash; a group's key and group-by values are stored once, when the
/// group is created, the values in one typed column per group-by column.
/// Partials are pooled per operator
/// ([`OpRuntime::agg_partials`]): a work order checks one out, folds its
/// block in and returns it, so at most one partial exists per concurrent
/// aggregate work order.
#[derive(Debug)]
pub struct AggPartial {
    /// Linear-probing slots holding `gid + 1` (0 = empty); the length is
    /// `1 << bits` and stays at least twice the group count.
    slots: Vec<u32>,
    bits: u32,
    /// Per group: key hash and key.
    hashes: Vec<u64>,
    keys: Vec<HashKey>,
    /// Group-by values: one typed column per group-by column, indexed by
    /// group id.
    group_vals: Vec<ColumnData>,
    /// Per aggregate: one state per group.
    states: Vec<Vec<AggState>>,
    /// Per aggregate: the state a new group starts from.
    init: Vec<AggState>,
}

impl AggPartial {
    const MIN_BITS: u32 = 4;

    /// An empty partial over group-by columns of types `group_types` whose
    /// groups start from the states `init` (one per aggregate).
    pub fn new(group_types: &[DataType], init: Vec<AggState>) -> Self {
        AggPartial {
            slots: vec![0; 1 << Self::MIN_BITS],
            bits: Self::MIN_BITS,
            hashes: Vec::new(),
            keys: Vec::new(),
            group_vals: group_types
                .iter()
                .map(|&t| ColumnData::with_capacity(t, 0))
                .collect(),
            states: init.iter().map(|_| Vec::new()).collect(),
            init,
        }
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.keys.len()
    }

    /// The states of aggregate `agg`, indexed by group id.
    pub fn states_mut(&mut self, agg: usize) -> &mut [AggState] {
        &mut self.states[agg]
    }

    /// Write into `gids` the group id of every key in `keys` (extracted from
    /// the group-by columns `group_by` of `block`), creating groups for
    /// unseen keys.
    pub fn assign_gids(
        &mut self,
        keys: &KeyBatch,
        block: &StorageBlock,
        group_by: &[usize],
        gids: &mut Vec<u32>,
    ) {
        debug_assert_eq!(group_by.len(), self.group_vals.len());
        gids.clear();
        gids.reserve(keys.len());
        for (row, &hash) in keys.hashes().iter().enumerate() {
            let gid = match self.find(hash, |k| keys.key_eq(row, k)) {
                Ok(gid) => gid,
                Err(slot) => {
                    for (col, &c) in self.group_vals.iter_mut().zip(group_by) {
                        push_field(col, block, row, c);
                    }
                    self.insert(slot, hash, keys.key_at(row))
                }
            };
            gids.push(gid);
        }
    }

    /// The id of the one group of an ungrouped (scalar) aggregate, created on
    /// first use.
    pub fn scalar_group(&mut self) -> u32 {
        let key = HashKey::from_i64(0);
        let hash = hash_of(&key);
        match self.find(hash, |k| *k == key) {
            Ok(gid) => gid,
            Err(slot) => self.insert(slot, hash, key),
        }
    }

    /// Freeze the partial once every stream work order of its aggregate has
    /// finished: the slot array goes, and the group-by values become one
    /// column block of schema `groups` (row = group id) that the finalize
    /// partitions share read-only.
    pub fn freeze(self, groups: Arc<Schema>) -> FrozenPartial {
        let n = self.keys.len();
        let block = ColumnBlock::from_columns(groups, self.group_vals, n)
            .expect("group columns were created from the group-by types");
        FrozenPartial {
            groups: Arc::new(StorageBlock::Column(block)),
            keys: self.keys,
            states: self.states,
        }
    }

    /// The group id of the key with `hash` for which `eq` holds, or the empty
    /// slot where it belongs.
    #[inline]
    fn find(&self, hash: u64, eq: impl Fn(&HashKey) -> bool) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (hash >> (64 - self.bits)) as usize;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                s => {
                    let gid = s - 1;
                    if self.hashes[gid as usize] == hash && eq(&self.keys[gid as usize]) {
                        return Ok(gid);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Create a group in empty `slot` (as returned by [`find`](Self::find))
    /// starting from the initial states, once its group-by values are pushed,
    /// and return its id.
    fn insert(&mut self, slot: usize, hash: u64, key: HashKey) -> u32 {
        for (col, st) in self.states.iter_mut().zip(&self.init) {
            col.push(st.clone());
        }
        let gid = u32::try_from(self.keys.len()).expect("fewer than 2^32 groups");
        self.slots[slot] = gid + 1;
        self.hashes.push(hash);
        self.keys.push(key);
        if self.keys.len() * 2 > self.slots.len() {
            self.grow();
        }
        gid
    }

    /// Double the slot array and re-place every group by its stored hash.
    fn grow(&mut self) {
        self.bits += 1;
        self.slots = vec![0; 1 << self.bits];
        let mask = self.slots.len() - 1;
        for (gid, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash >> (64 - self.bits)) as usize;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = gid as u32 + 1;
        }
    }
}

/// A pooled [`AggPartial`] once its aggregate's stream work is over:
/// read-only, shared by the finalize partitions, each of which takes the
/// groups in its key range.
#[derive(Debug)]
pub struct FrozenPartial {
    /// Group-by values, one column per group-by column; row = group id.
    pub groups: Arc<StorageBlock>,
    /// Per group: the key, equal for the same group in every partial.
    pub keys: Vec<HashKey>,
    /// Per aggregate: one state per group.
    pub states: Vec<Vec<AggState>>,
}

/// Runtime state attached to one operator.
#[derive(Debug)]
pub struct OpRuntime {
    /// Output staging (absent for `BuildHash`, which produces a hash table).
    pub output: Option<OutputBuffer>,
    /// The hash table (only for `BuildHash`).
    pub hash_table: Option<Arc<JoinHashTable>>,
    /// The runs written by the build's stream work orders (only for
    /// `BuildHash`), taken for its finalize once they are all in.
    pub build_runs: Mutex<Vec<BuildRun>>,
    /// LIP Bloom filter over the build keys — present only when some select
    /// references this build via a [`crate::plan::LipFilter`].
    pub bloom: Option<Arc<BloomFilter>>,
    /// Rows dropped by LIP filters at this select (metrics).
    pub lip_pruned: std::sync::atomic::AtomicUsize,
    /// Pooled partial aggregates (only for `Aggregate`): checked out and
    /// returned by each stream work order, frozen for the finalize step.
    pub agg_partials: Mutex<Vec<AggPartial>>,
    /// The finished output columns of each finalize partition, held until
    /// the last partition emits them all.
    pub agg_runs: PartResults<Vec<ColumnData>>,
    /// Collected input blocks: the sort input, or the materialized inner
    /// side of a nested-loops join.
    pub collected: Mutex<Vec<Arc<StorageBlock>>>,
    /// Remaining row budget (only for `Limit`).
    pub limit_remaining: AtomicI64,
}

/// Reusable per-work-order buffers for the batched key pipeline. Checked out
/// of the [`ExecContext`] pool at work-order start (one lock op) and returned
/// at the end, so per-block extraction and probing never allocate in steady
/// state.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Extracted keys + hashes for the current block.
    pub keys: KeyBatch,
    /// Resolved probe matches (inner joins).
    pub matches: Vec<ProbeMatch>,
    /// Per-row existence flags (semi/anti joins).
    pub exists: Vec<bool>,
    /// Selected row indices (semi/anti output, LIP key extraction).
    pub rows: Vec<u32>,
    /// The select's selection vector: rows that passed the predicate and
    /// the LIP filters so far.
    pub sel: Vec<usize>,
    /// Per-row group ids (grouped aggregation).
    pub gids: Vec<u32>,
}

/// One group of LIP filters sharing a key-column set: keys are extracted and
/// hashed once per block, then every Bloom filter in the group probes the
/// same hash vector.
#[derive(Debug)]
pub struct LipGroup {
    /// Extractor over the select's input schema for the shared key columns.
    pub extractor: KeyExtractor,
    /// The `BuildHash` operators whose Bloom filters consume these keys.
    pub builds: Vec<usize>,
}

/// Everything a worker needs to execute any work order of the query.
#[derive(Debug)]
pub struct ExecContext {
    /// The plan being executed.
    pub plan: Arc<QueryPlan>,
    /// The global temporary-block pool.
    pub pool: Arc<BlockPool>,
    /// Per-operator runtime state, indexed by `OpId`.
    pub runtimes: Vec<OpRuntime>,
    /// Format of temporary blocks (the paper: row store regardless of base
    /// table format; configurable here).
    pub temp_format: BlockFormat,
    /// Capacity of temporary blocks in bytes (grace-join partition buffers
    /// check out blocks of this size).
    pub block_bytes: usize,
    /// Per-operator key extractor, compiled once at context build: build
    /// keys, probe keys, or group-by keys depending on the operator kind.
    extractors: Vec<Option<KeyExtractor>>,
    /// Per-select LIP filters grouped by distinct key-column set.
    pub lip_groups: Vec<Vec<LipGroup>>,
    /// Pool of reusable [`Scratch`] buffers (≤ one per concurrent worker).
    scratch: Mutex<Vec<Scratch>>,
    /// Cooperative cancellation flag, checked between blocks by loop
    /// operators and at every scheduler dispatch (see [`Self::is_cancelled`]).
    pub cancel: CancellationToken,
    /// Optional wall-clock deadline from query start. Once it passes, the
    /// next cancellation check trips [`Self::cancel`] and the query yields
    /// [`EngineError::Cancelled`].
    pub deadline: Option<Duration>,
    /// Fault-injection registry (empty outside chaos tests).
    pub faults: Arc<FaultPlan>,
    /// Trace sink, when structured tracing is enabled for this query.
    /// `None` (the default) keeps every `trace_event` call a single branch.
    pub trace: Option<Arc<crate::trace::TraceSink>>,
    /// Which query this context belongs to: [`QueryId::SOLO`] for standalone
    /// `Engine` runs, a service-assigned id under a `QueryService`.
    pub query: crate::query_id::QueryId,
    /// Per-query fusion plan: which pipelines run as fused push-based loops.
    /// The default (empty) state fuses nothing — every direct-context test
    /// and staged run keeps the historical path.
    pub fusion: crate::fusion::FusionState,
    /// Grace hash-join state, keyed by both the build and the probe operator
    /// id. Empty unless [`plan_grace`](Self::plan_grace) decided some build
    /// side exceeds the memory budget.
    pub grace: HashMap<usize, Arc<GraceJoinState>>,
    /// Query start, for the `after` field of cancellation errors.
    started: Instant,
}

impl ExecContext {
    /// Allocate runtime state for `plan`.
    pub fn new(
        plan: Arc<QueryPlan>,
        pool: Arc<BlockPool>,
        temp_format: BlockFormat,
        block_bytes: usize,
    ) -> Result<Self> {
        // Which builds need a Bloom filter (referenced by some select's LIP
        // list), and a capacity estimate from the upstream base table.
        let mut needs_bloom = vec![false; plan.len()];
        for op in plan.ops() {
            if let OperatorKind::Select { lip, .. } = &op.kind {
                for l in lip {
                    needs_bloom[l.build] = true;
                }
            }
        }
        let estimated_rows = |mut id: usize| -> usize {
            loop {
                match plan.op(id).kind.stream_source() {
                    Source::Table(t) => return t.num_rows().max(16),
                    Source::Op(src) => id = *src,
                }
            }
        };
        // Compile key extractors once per operator: the batched pipeline's
        // single dispatch per block replaces one dispatch per row.
        let mut extractors = Vec::with_capacity(plan.len());
        let mut lip_groups: Vec<Vec<LipGroup>> = Vec::with_capacity(plan.len());
        for (id, op) in plan.ops().iter().enumerate() {
            let key_cols: Option<&[usize]> = match &op.kind {
                OperatorKind::BuildHash { key_cols, .. } => Some(key_cols),
                OperatorKind::Probe { probe_key_cols, .. } => Some(probe_key_cols),
                OperatorKind::Aggregate { group_by, .. } if !group_by.is_empty() => Some(group_by),
                _ => None,
            };
            extractors.push(match key_cols {
                Some(cols) => Some(KeyExtractor::compile(&plan.input_schema(id), cols)?),
                None => None,
            });
            let mut groups: Vec<LipGroup> = Vec::new();
            let mut group_cols: Vec<&[usize]> = Vec::new();
            if let OperatorKind::Select { lip, .. } = &op.kind {
                for l in lip {
                    match group_cols.iter().position(|c| *c == l.key_cols.as_slice()) {
                        Some(i) => groups[i].builds.push(l.build),
                        None => {
                            group_cols.push(&l.key_cols);
                            groups.push(LipGroup {
                                extractor: KeyExtractor::compile(
                                    &plan.input_schema(id),
                                    &l.key_cols,
                                )?,
                                builds: vec![l.build],
                            });
                        }
                    }
                }
            }
            lip_groups.push(groups);
        }
        let mut runtimes = Vec::with_capacity(plan.len());
        for (id, op) in plan.ops().iter().enumerate() {
            let (output, hash_table) = match &op.kind {
                OperatorKind::BuildHash { .. } => (
                    None,
                    Some(Arc::new(JoinHashTable::new(op.out_schema.clone()))),
                ),
                _ => (
                    Some(OutputBuffer::new(
                        id,
                        op.out_schema.clone(),
                        temp_format,
                        block_bytes,
                    )),
                    None,
                ),
            };
            let limit_remaining = match &op.kind {
                OperatorKind::Limit { n, .. } => AtomicI64::new(*n as i64),
                _ => AtomicI64::new(0),
            };
            let bloom = (needs_bloom[id])
                .then(|| Arc::new(BloomFilter::with_capacity(estimated_rows(id), 0.01)));
            runtimes.push(OpRuntime {
                output,
                hash_table,
                build_runs: Mutex::new(Vec::new()),
                bloom,
                lip_pruned: std::sync::atomic::AtomicUsize::new(0),
                agg_partials: Mutex::new(Vec::new()),
                agg_runs: PartResults::default(),
                collected: Mutex::new(Vec::new()),
                limit_remaining,
            });
        }
        Ok(ExecContext {
            plan,
            pool,
            runtimes,
            temp_format,
            block_bytes,
            extractors,
            lip_groups,
            scratch: Mutex::new(Vec::new()),
            cancel: CancellationToken::new(),
            deadline: None,
            faults: Arc::new(FaultPlan::empty()),
            trace: None,
            query: crate::query_id::QueryId::SOLO,
            fusion: crate::fusion::FusionState::default(),
            grace: HashMap::new(),
            started: Instant::now(),
        })
    }

    /// Decide which hash joins must run as grace (partitioned, out-of-core)
    /// joins under `budget` bytes of memory. Called once before execution
    /// when the spill tier is enabled.
    ///
    /// The build-side size estimate walks the build's stream source down to
    /// its base table and assumes every row survives with 2× expansion for
    /// hash-table overhead — deliberately pessimistic, since choosing grace
    /// for a join that would have fit costs one extra disk round-trip while
    /// the opposite choice aborts the query. A join goes grace when its
    /// estimate exceeds half the budget; the partition count doubles until a
    /// single partition's share fits a quarter of the budget (capped at 64).
    pub fn plan_grace(&mut self, budget: usize) {
        for (id, op) in self.plan.ops().iter().enumerate() {
            let OperatorKind::Probe { build, .. } = &op.kind else {
                continue;
            };
            let build_op = *build;
            let mut src = self.plan.op(build_op).kind.stream_source();
            let base_rows = loop {
                match src {
                    Source::Table(t) => break t.num_rows(),
                    Source::Op(s) => src = self.plan.op(*s).kind.stream_source(),
                }
            };
            let width = self.plan.input_schema(build_op).tuple_width().max(8);
            let est = base_rows * width * 2;
            if est <= budget / 2 {
                continue;
            }
            let mut nparts = 2usize;
            while est / nparts > budget / 4 && nparts < 64 {
                nparts *= 2;
            }
            let state = Arc::new(GraceJoinState {
                build_op,
                probe_op: id,
                nparts,
                build: Mutex::new(GraceSide::with_parts(nparts)),
                probe: Mutex::new(GraceSide::with_parts(nparts)),
            });
            self.grace.insert(build_op, state.clone());
            self.grace.insert(id, state);
        }
    }

    /// Attribute this context to `query` (builder-style; the service sets
    /// its assigned id so every error, metric and trace carries it).
    pub fn with_query(mut self, query: crate::query_id::QueryId) -> Self {
        self.query = query;
        self
    }

    /// Attach a shared cancellation token (builder-style; the default token
    /// is private to this context and can only be tripped through it).
    pub fn with_cancellation(mut self, token: CancellationToken) -> Self {
        self.cancel = token;
        self
    }

    /// Set the wall-clock deadline (builder-style).
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Attach a fault-injection plan (builder-style; chaos tests only).
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Attach a fusion plan (builder-style): chains recorded in it execute
    /// as fused push-based loops instead of staged transfers.
    pub fn with_fusion(mut self, fusion: crate::fusion::FusionState) -> Self {
        self.fusion = fusion;
        self
    }

    /// Attach a trace sink (builder-style): every scheduler and work-order
    /// event is recorded into it until the context is dropped.
    pub fn with_trace(mut self, sink: Arc<crate::trace::TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Record a trace event if a sink is installed. The closure keeps event
    /// construction (byte sums, gauge reads) off the untraced fast path.
    #[inline]
    pub fn trace_event(&self, f: impl FnOnce() -> crate::trace::TraceEventKind) {
        if let Some(sink) = &self.trace {
            sink.record(f());
        }
    }

    /// Between-blocks cancellation check for block-loop operators.
    ///
    /// The returned error's `completed_work_orders` is a placeholder (0):
    /// only the driver knows the authoritative count and rewrites the error
    /// before surfacing it.
    pub fn check_cancelled(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(EngineError::Cancelled {
                after: self.started.elapsed(),
                completed_work_orders: 0,
            })
        } else {
            Ok(())
        }
    }

    /// Wall time since this context was created (query start).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether the query should stop: its token was tripped, or its
    /// deadline has passed, which trips the token here. Every cancellation
    /// check goes through this, so a deadline needs no timer.
    pub(crate) fn is_cancelled(&self) -> bool {
        if self.deadline.is_some_and(|d| self.elapsed() >= d) {
            self.cancel.cancel();
        }
        self.cancel.is_cancelled()
    }

    /// The compiled key extractor for operator `id` (panics when `id` has no
    /// keyed kind — plan validation guarantees builds/probes/grouped
    /// aggregates always have one).
    pub fn key_extractor(&self, id: usize) -> &KeyExtractor {
        // invariant: `new` compiles an extractor for every keyed kind (build,
        // probe, grouped aggregate) and only those kinds' work orders call
        // this — no user input reaches it with a keyless operator.
        self.extractors[id]
            .as_ref()
            .expect("operator kind has key columns")
    }

    /// Check a [`Scratch`] out of the pool (or allocate a fresh one).
    pub fn take_scratch(&self) -> Scratch {
        self.scratch.lock().pop().unwrap_or_default()
    }

    /// Return a [`Scratch`] for reuse by later work orders.
    pub fn put_scratch(&self, s: Scratch) {
        self.scratch.lock().push(s);
    }

    /// The hash table of build operator `id` (panics if `id` is not a build —
    /// plan validation guarantees probes only reference builds).
    pub fn hash_table(&self, id: usize) -> &Arc<JoinHashTable> {
        // invariant: PlanBuilder::probe rejects a non-build `build` reference
        // up front, and `new` allocates a hash table for every BuildHash op.
        self.runtimes[id]
            .hash_table
            .as_ref()
            .expect("plan validation guarantees a hash table here")
    }

    /// The output buffer of operator `id` (panics for builds).
    pub fn output(&self, id: usize) -> &OutputBuffer {
        // invariant: `new` gives every non-build operator an output buffer,
        // and builds produce hash tables, never blocks — no work-order path
        // asks a build for its output buffer.
        self.runtimes[id]
            .output
            .as_ref()
            .expect("operator produces blocks")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanBuilder, Source};
    use uot_storage::{DataType, MemoryTracker, Schema, Table, TableBuilder, Value};

    fn table() -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut tb = TableBuilder::new("t", s, BlockFormat::Column, 64);
        tb.append(&[Value::I32(1)]).unwrap();
        Arc::new(tb.finish())
    }

    #[test]
    fn context_allocates_per_op_state() {
        let t = table();
        let mut pb = PlanBuilder::new();
        let b = pb
            .build_hash(Source::Table(t.clone()), vec![0], vec![0])
            .unwrap();
        let p = pb
            .probe(
                Source::Table(t),
                b,
                vec![0],
                vec![0],
                vec![0],
                crate::plan::JoinType::Inner,
            )
            .unwrap();
        let plan = Arc::new(pb.build(p).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1024).unwrap();
        assert!(ctx.runtimes[b].hash_table.is_some());
        assert!(ctx.runtimes[b].output.is_none());
        assert!(ctx.runtimes[p].output.is_some());
        assert!(ctx.runtimes[p].hash_table.is_none());
        // accessors
        let _ = ctx.hash_table(b);
        let _ = ctx.output(p);
    }

    #[test]
    fn limit_budget_initialized() {
        let t = table();
        let mut pb = PlanBuilder::new();
        let l = pb.limit(Source::Table(t), 7).unwrap();
        let plan = Arc::new(pb.build(l).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1024).unwrap();
        assert_eq!(
            ctx.runtimes[l]
                .limit_remaining
                .load(std::sync::atomic::Ordering::Relaxed),
            7
        );
    }
}
