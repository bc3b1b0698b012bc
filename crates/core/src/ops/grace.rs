//! Grace (partitioned, out-of-core) hash join.
//!
//! When [`ExecContext::plan_grace`](crate::state::ExecContext::plan_grace)
//! decides a join's build side will not fit the memory budget, the build and
//! probe operators stop building/probing a monolithic hash table. Instead
//! their stream work orders call [`partition_stream`], a typed scatter: the
//! block's row indices are grouped by partition with a counting sort over
//! the key hashes the caller already computed, and each partition's rows are
//! gathered, column by column, into a virtual block outside any lock. Only
//! then does the work order take its side's lock, to copy each virtual block
//! into that partition's open buffer with one bulk
//! [`append_range`](uot_storage::StorageBlock::append_range) and to spill
//! each buffer that fills to the query's spill file. Rows keep their input
//! order within a partition, and each side's resident footprint is bounded
//! by `nparts × block_bytes`. Once both inputs are fully partitioned the
//! scheduler dispatches one `finalize-join 1/1` work order, handled by
//! [`finalize`]: partitions are joined one at a time — restore the build
//! partition, build a small hash table, stream the probe partition through
//! it — and a partition whose build side still exceeds the budget is split
//! again on a deeper hash bit by the same scatter (bounded recursion; past
//! the bound it is built anyway, trading a bounded overshoot for
//! completion).
//!
//! The join's output leaves through the probe's
//! [`OutputBuffer`](crate::output::OutputBuffer) like any operator's: each
//! block is a slot, and an eviction victim, from the moment it fills. So a
//! skewed partition whose output outgrows the budget while its table is
//! resident evicts its own earlier output to make room, and the finalize
//! returns the slots as they are, resident or on disk, for their consumer
//! to fault in. Only the input side parks on its own: a finished build's
//! open buffers ([`park_build`]) and, at finalize start, both sides' open
//! buffers.
//!
//! Hash-partitioning is total: every row's key lands in exactly one
//! partition, so inner, semi and anti joins all stay correct per-partition.

use crate::error::EngineError;
use crate::hash_table::JoinHashTable;
use crate::ops::builders::{gather_block_column, into_virtual_block, make_builders};
use crate::output::Produced;
use crate::plan::OperatorKind;
use crate::state::{ExecContext, GraceJoinState, GraceSide};
use crate::Result;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use uot_storage::{Schema, SpillSlot, SpillStore, SpilledHandle, StorageBlock, StorageError};

/// Recursion bound for re-partitioning a partition that still does not fit.
/// Past this depth the partition is built anyway: with the level-0 fan-out
/// already sized to the budget, two extra halvings make a residual overshoot
/// small and bounded, which beats failing the query.
const MAX_RESPILL_DEPTH: usize = 2;

/// First hash bit used for re-partitioning (level-0 partition bits start at
/// 32; respill level `d` splits on bit `40 + 8·d`).
const RESPILL_SHIFT_BASE: usize = 40;

/// One block of a partition: resident in memory (tracker-charged), spilled
/// to the disk tier (an extent of the spill file), or parked in a slot the
/// pool may move between the two.
enum PartBlock {
    Mem(StorageBlock),
    Disk(SpilledHandle),
    Slot(Arc<SpillSlot>),
}

impl PartBlock {
    /// Bring the block into memory (restoring from disk charges the
    /// tracker).
    fn into_mem(self, store: &SpillStore) -> Result<StorageBlock> {
        match self {
            PartBlock::Mem(b) => Ok(b),
            PartBlock::Disk(h) => store.restore(h).map_err(EngineError::from),
            PartBlock::Slot(s) => {
                Ok(Arc::try_unwrap(s.take(Some(store))?)
                    .expect("a parked block has no other owner"))
            }
        }
    }
}

/// Release blocks without using them: pool-discard resident blocks, retire
/// spilled ones.
fn discard_all(ctx: &ExecContext, store: &SpillStore, blocks: impl IntoIterator<Item = PartBlock>) {
    for block in blocks {
        match block {
            PartBlock::Mem(b) => ctx.pool.discard(b),
            PartBlock::Disk(h) => store.discard(h),
            PartBlock::Slot(s) => s.discard(ctx.pool.tracker(), Some(store)),
        }
    }
}

/// Scatter `block`'s rows into `buckets` typed virtual blocks of `schema`:
/// bucket `b` holds, in input order, the rows whose hash `bucket_of` maps
/// to `b` (`None` when there are none). A counting sort groups the row
/// indices, and each bucket's rows are gathered one typed column at a time.
fn scatter(
    block: &StorageBlock,
    schema: &Arc<Schema>,
    hashes: &[u64],
    buckets: usize,
    bucket_of: impl Fn(u64) -> usize,
) -> Result<Vec<Option<StorageBlock>>> {
    debug_assert_eq!(hashes.len(), block.num_rows());
    let ids: Vec<u32> = hashes.iter().map(|&h| bucket_of(h) as u32).collect();
    // `starts[b]..starts[b + 1]` is bucket `b`'s range of `order`.
    let mut starts = vec![0usize; buckets + 1];
    for &b in &ids {
        starts[b as usize + 1] += 1;
    }
    for b in 0..buckets {
        starts[b + 1] += starts[b];
    }
    let mut next = starts.clone();
    let mut order = vec![0u32; ids.len()];
    for (row, &b) in ids.iter().enumerate() {
        order[next[b as usize]] = row as u32;
        next[b as usize] += 1;
    }
    (0..buckets)
        .map(|b| {
            let rows = &order[starts[b]..starts[b + 1]];
            if rows.is_empty() {
                return Ok(None);
            }
            let mut builders = make_builders(schema);
            for (c, builder) in builders.iter_mut().enumerate() {
                gather_block_column(builder, block, c, rows.iter().map(|&r| r as usize));
            }
            into_virtual_block(schema.clone(), builders).map(Some)
        })
        .collect()
}

/// Append every row of `rows` to partition `p`'s open buffer, checking out
/// a fresh buffer with `checkout` whenever none is open and spilling each
/// one that fills. On error the partially filled state stays in the side —
/// its owner releases it.
fn append_part(
    store: &SpillStore,
    side: &mut GraceSide,
    p: usize,
    rows: &StorageBlock,
    tag: usize,
    mut checkout: impl FnMut(&mut GraceSide) -> Result<StorageBlock>,
) -> Result<()> {
    let mut start = 0;
    while start < rows.num_rows() {
        if side.open[p].is_none() {
            side.open[p] = Some(checkout(side)?);
        }
        let b = side.open[p].as_mut().expect("just set");
        start += b.append_range(rows, start);
        // A buffer that fails to spill stays open.
        if b.is_full() {
            side.spilled[p].push(store.spill_block(b, tag)?);
            side.open[p] = None;
        }
    }
    Ok(())
}

/// Route one input block's rows into a grace side's partitions. Called from
/// build and probe *stream* work orders (under grace, neither touches the
/// shared hash table). `hashes` are the block's key hashes, already computed
/// by the caller (which also feeds the Bloom filter from them); `tag` is the
/// partitioning operator, for spill-event attribution. The scatter runs
/// before the side's lock is taken; under it, only bulk appends and spills.
pub(crate) fn partition_stream(
    ctx: &ExecContext,
    g: &GraceJoinState,
    side: &Mutex<GraceSide>,
    block: &Arc<StorageBlock>,
    hashes: &[u64],
    tag: usize,
    schema: &Arc<Schema>,
) -> Result<()> {
    let store = spill_store(ctx)?;
    // The other side of the join, for checkout pressure relief: its open
    // buffers are cold once this side is streaming (build and probe phases
    // are serialized by the scheduler) and can be spilled to make room.
    let other = if std::ptr::eq(side, &g.build) {
        &g.probe
    } else {
        &g.build
    };
    let parts = scatter(block, schema, hashes, g.nparts, |h| g.partition_of(h))?;
    let mut side = side.lock();
    for (p, rows) in parts.iter().enumerate() {
        if let Some(rows) = rows {
            append_part(&store, &mut side, p, rows, tag, |side| {
                checkout_part(ctx, &store, side, other, tag, schema)
            })?;
        }
    }
    Ok(())
}

/// Spill every open (partially filled) partition buffer of `side` to the
/// disk tier, releasing its tracked bytes. A buffer that fails to spill
/// stays open, so teardown still finds and releases it.
fn spill_open(store: &SpillStore, side: &mut GraceSide, tag: usize) -> Result<()> {
    for p in 0..side.open.len() {
        if let Some(b) = &side.open[p] {
            side.spilled[p].push(store.spill_block(b, tag)?);
            side.open[p] = None;
        }
    }
    Ok(())
}

/// A grace build whose stream work is over: its open partition buffers are
/// cold until the probe's finalize joins them, so they become the pool's
/// eviction victims rather than pin up to `nparts` blocks while the probe
/// side streams. Nothing is written unless a checkout needs the room.
pub(crate) fn park_build(ctx: &ExecContext, op: usize) {
    let mut side = ctx.grace[&op].build.lock();
    let side = &mut *side;
    for (open, parked) in side.open.iter_mut().zip(&mut side.parked) {
        if let Some(b) = open.take() {
            let slot = SpillSlot::new(Arc::new(b), op);
            ctx.pool.register_victim(&slot);
            *parked = Some(slot);
        }
    }
}

fn spill_store(ctx: &ExecContext) -> Result<Arc<SpillStore>> {
    ctx.pool
        .spill_store()
        .ok_or_else(|| EngineError::Internal("grace join without a spill store".into()))
}

/// Check out a fresh partition buffer. A budget refusal is not terminal
/// here: the open partition buffers (ours and the idle other side's) are
/// exactly the memory the refusal is about, so spill them and retry once.
fn checkout_part(
    ctx: &ExecContext,
    store: &SpillStore,
    side: &mut GraceSide,
    other: &Mutex<GraceSide>,
    tag: usize,
    schema: &Arc<Schema>,
) -> Result<StorageBlock> {
    match ctx.pool.checkout(schema, ctx.temp_format, ctx.block_bytes) {
        Ok(b) => return Ok(b),
        Err(StorageError::BudgetExceeded { .. }) => {}
        Err(e) => return Err(e.into()),
    }
    spill_open(store, side, tag)?;
    // Locking the other side here cannot cycle: build and probe phases are
    // serialized by the scheduler, and every partitioner of the active phase
    // acquires its own side's lock (held by our caller) before this point —
    // so no thread can hold `other` while wanting `side`.
    spill_open(store, &mut other.lock(), tag)?;
    ctx.pool
        .checkout(schema, ctx.temp_format, ctx.block_bytes)
        .map_err(Into::into)
}

/// The `finalize-join 1/1` work order: join every partition pair, returning
/// the completed output blocks in their slots, like every finalize. On any
/// error everything still held — queued partitions, restored blocks,
/// produced output — is released first, so the tracker drains and no
/// spilled block outlives the query.
pub fn finalize(ctx: &ExecContext, op: usize) -> Result<Produced> {
    let g = ctx
        .grace
        .get(&op)
        .expect("finalize-join dispatched only for grace probes")
        .clone();
    let store = spill_store(ctx)?;
    let payload_cols = match &ctx.plan.op(g.build_op).kind {
        OperatorKind::BuildHash { payload_cols, .. } => payload_cols.clone(),
        other => {
            return Err(EngineError::Internal(format!(
                "grace build op is a {}",
                other.kind_label()
            )))
        }
    };
    let build_schema = ctx.plan.input_schema(g.build_op);
    let probe_schema = ctx.plan.input_schema(op);
    let budget = ctx.pool.budget().unwrap_or(usize::MAX);

    // Drain both sides into a worklist of (depth, build, probe) partitions.
    let mut work: Vec<(usize, Vec<PartBlock>, Vec<PartBlock>)> = Vec::new();
    {
        let mut bs = g.build.lock();
        let mut ps = g.probe.lock();
        // Under a budget, park every leftover open or parked buffer on disk
        // first: queued partitions would otherwise hold up to `2 × nparts`
        // resident blocks for the whole finalize — a baseline that can
        // exceed the budget on its own and starve every per-partition
        // checkout. (On a failed spill the sides keep their state; scheduler
        // teardown releases it.)
        if budget != usize::MAX {
            spill_open(&store, &mut bs, g.build_op)?;
            spill_open(&store, &mut ps, op)?;
            for slot in bs.parked.iter().flatten() {
                slot.try_evict(&store)?;
            }
        }
        for p in 0..g.nparts {
            let mut b: Vec<PartBlock> = bs.spilled[p].drain(..).map(PartBlock::Disk).collect();
            b.extend(bs.parked[p].take().map(PartBlock::Slot));
            if let Some(blk) = bs.open[p].take() {
                b.push(PartBlock::Mem(blk));
            }
            let mut pr: Vec<PartBlock> = ps.spilled[p].drain(..).map(PartBlock::Disk).collect();
            if let Some(blk) = ps.open[p].take() {
                pr.push(PartBlock::Mem(blk));
            }
            if b.is_empty() && pr.is_empty() {
                continue;
            }
            work.push((0, b, pr));
        }
    }

    let mut out: Produced = Vec::new();
    let fail = |e: EngineError,
                work: &mut Vec<(usize, Vec<PartBlock>, Vec<PartBlock>)>,
                out: &mut Produced| {
        let queued = work.drain(..).flat_map(|(_, b, p)| b.into_iter().chain(p));
        discard_all(ctx, &store, queued);
        discard_all(ctx, &store, out.drain(..).map(PartBlock::Slot));
        e
    };
    while let Some((depth, build, probe)) = work.pop() {
        if let Err(e) = join_partition(
            ctx,
            &g,
            &store,
            op,
            depth,
            build,
            probe,
            budget,
            &payload_cols,
            &build_schema,
            &probe_schema,
            &mut out,
            &mut work,
        ) {
            return Err(fail(e, &mut work, &mut out));
        }
    }
    Ok(out)
}

/// Join one partition pair: restore the build side, build a hash table (or
/// re-partition when it still exceeds the budget), stream the probe side
/// through it. Owns its inputs and releases them on every path.
#[allow(clippy::too_many_arguments)]
fn join_partition(
    ctx: &ExecContext,
    g: &GraceJoinState,
    store: &Arc<SpillStore>,
    op: usize,
    depth: usize,
    build: Vec<PartBlock>,
    probe: Vec<PartBlock>,
    budget: usize,
    payload_cols: &[usize],
    build_schema: &Arc<Schema>,
    probe_schema: &Arc<Schema>,
    out: &mut Produced,
    work: &mut Vec<(usize, Vec<PartBlock>, Vec<PartBlock>)>,
) -> Result<()> {
    if let Err(e) = ctx.check_cancelled() {
        discard_all(ctx, store, build.into_iter().chain(probe));
        return Err(e);
    }

    // Restore the whole build partition (the hash table needs all of it).
    let mut build_blocks: Vec<StorageBlock> = Vec::with_capacity(build.len());
    let mut build_iter = build.into_iter();
    while let Some(pb) = build_iter.next() {
        match pb.into_mem(store) {
            Ok(b) => build_blocks.push(b),
            Err(e) => {
                let restored = build_blocks.into_iter().map(PartBlock::Mem);
                discard_all(ctx, store, restored.chain(build_iter).chain(probe));
                return Err(e);
            }
        }
    }

    // Still over budget? Split both sides on a deeper hash bit and requeue —
    // unless the recursion bound is hit, in which case build anyway (bounded
    // overshoot beats a terminal failure).
    let build_bytes: usize = build_blocks.iter().map(|b| b.allocated_bytes()).sum();
    if depth < MAX_RESPILL_DEPTH && build_bytes > budget / 2 {
        store.note_respill(depth + 1);
        let shift = RESPILL_SHIFT_BASE + 8 * depth;
        let build_parts: Vec<PartBlock> = build_blocks.into_iter().map(PartBlock::Mem).collect();
        let (b0, b1) = match split(ctx, store, g.build_op, build_schema, build_parts, shift) {
            Ok(v) => v,
            Err(e) => {
                discard_all(ctx, store, probe);
                return Err(e);
            }
        };
        let (p0, p1) = match split(ctx, store, op, probe_schema, probe, shift) {
            Ok(v) => v,
            Err(e) => {
                discard_all(ctx, store, b0.into_iter().chain(b1));
                return Err(e);
            }
        };
        work.push((depth + 1, b1, p1));
        work.push((depth + 1, b0, p0));
        return Ok(());
    }

    // Build this partition's hash table the way a build operator does, on
    // this one work order: a run per block, releasing each input block as
    // its run is written, then one finalize over every run.
    let ht = JoinHashTable::new(ctx.plan.op(g.build_op).out_schema.clone());
    let tracker = ctx.pool.tracker();
    let mut scratch = ctx.take_scratch();
    let mut runs = Vec::with_capacity(build_blocks.len());
    for b in build_blocks {
        ctx.key_extractor(g.build_op)
            .extract_block(&b, &mut scratch.keys);
        runs.push(ht.run(&b, &scratch.keys, payload_cols));
        tracker.free(b.allocated_bytes());
    }
    ctx.put_scratch(scratch);
    ht.link_all(&runs);
    drop(runs);
    ht.sync_tracker(tracker);

    // Stream the probe partition through it, one block at a time.
    let mut probe_iter = probe.into_iter();
    while let Some(pb) = probe_iter.next() {
        let block = match pb.into_mem(store) {
            Ok(b) => Arc::new(b),
            Err(e) => {
                ht.release_tracker(tracker);
                discard_all(ctx, store, probe_iter);
                return Err(e);
            }
        };
        let produced = crate::ops::probe::apply_with(ctx, op, &block, &ht).and_then(|v| match v {
            Some(virt) => crate::ops::write_output(ctx, op, &virt),
            None => Ok(Vec::new()),
        });
        tracker.free(block.allocated_bytes());
        drop(block);
        match produced {
            Ok(slots) => out.extend(slots),
            Err(e) => {
                ht.release_tracker(tracker);
                discard_all(ctx, store, probe_iter);
                return Err(e);
            }
        }
    }
    ht.release_tracker(tracker);
    Ok(())
}

/// Split one side of a partition in two on hash bit `shift`, with the same
/// typed scatter as [`partition_stream`], spilling full output blocks. The
/// key operator `key_op`'s extractor re-hashes the rows (partition blocks
/// hold that operator's input schema). Consumes `input`; on error every
/// block still held — input, open buffers, finished halves — is released.
fn split(
    ctx: &ExecContext,
    store: &Arc<SpillStore>,
    key_op: usize,
    schema: &Arc<Schema>,
    input: Vec<PartBlock>,
    shift: usize,
) -> Result<(Vec<PartBlock>, Vec<PartBlock>)> {
    let mut input = VecDeque::from(input);
    let mut halves = GraceSide::with_parts(2);
    let mut scratch = ctx.take_scratch();
    let tracker = ctx.pool.tracker().clone();
    let mut route = |block: &StorageBlock, halves: &mut GraceSide| -> Result<()> {
        ctx.key_extractor(key_op)
            .extract_block(block, &mut scratch.keys);
        let parts = scatter(block, schema, scratch.keys.hashes(), 2, |h| {
            ((h >> shift) & 1) as usize
        })?;
        for (half, rows) in parts.iter().enumerate() {
            if let Some(rows) = rows {
                append_part(store, halves, half, rows, key_op, |_| {
                    Ok(ctx
                        .pool
                        .checkout(schema, ctx.temp_format, ctx.block_bytes)?)
                })?;
            }
        }
        Ok(())
    };
    let mut run = || -> Result<()> {
        while let Some(pb) = input.pop_front() {
            let block = pb.into_mem(store)?;
            // The input block dies here, whether its rows routed or not.
            let routed = route(&block, &mut halves);
            tracker.free(block.allocated_bytes());
            routed?;
        }
        Ok(())
    };
    let result = run();
    ctx.put_scratch(scratch);
    // Each half: its spilled blocks in order, then its open buffer.
    let [h0, h1] = [0, 1].map(|half| {
        let spilled = halves.spilled[half].drain(..).map(PartBlock::Disk);
        let mut blocks: Vec<PartBlock> = spilled.collect();
        blocks.extend(halves.open[half].take().map(PartBlock::Mem));
        blocks
    });
    match result {
        Ok(()) => Ok((h0, h1)),
        Err(e) => {
            discard_all(ctx, store, h0.into_iter().chain(h1).chain(input));
            Err(e)
        }
    }
}
