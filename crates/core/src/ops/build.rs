//! The build-hash operator, in two phases.
//!
//! Each stream work order extracts and hashes its block's keys, feeds the
//! Bloom filter, and writes the block into a private
//! [`BuildRun`] on the operator's runtime state — no shared table is
//! touched. Once every stream work order has finished, the build's
//! partitioned finalize (see [`ops`](crate::ops)) takes the runs, and each
//! finalize partition links the shards it owns
//! ([`JoinHashTable::link`](crate::hash_table::JoinHashTable::link)); the
//! last one publishes the table, and the build finishes after it.

use crate::error::EngineError;
use crate::hash_table::BuildRun;
use crate::output::Produced;
use crate::plan::OperatorKind;
use crate::state::ExecContext;
use crate::work_order::FinalizeInput;
use crate::Result;
use std::sync::Arc;
use uot_storage::StorageBlock;

/// Run one build stream work order. Builds never emit blocks.
pub fn execute(ctx: &ExecContext, op: usize, block: &Arc<StorageBlock>) -> Result<Produced> {
    let payload_cols = payload_cols(ctx, op)?;
    // Batched pipeline: extract + hash all keys once, write the run, and
    // feed the Bloom filter from the same hash vector.
    let mut scratch = ctx.take_scratch();
    ctx.key_extractor(op)
        .extract_block(block, &mut scratch.keys);
    if let Some(bloom) = ctx.runtimes[op].bloom.as_ref() {
        bloom.insert_hashes(scratch.keys.hashes());
    }
    // Under a grace join the shared hash table stays empty: rows route into
    // hash partitions (spilling as they fill) and the per-partition tables
    // are built during finalize instead. The Bloom filter still sees every
    // key, so probe-side pre-filtering keeps working.
    if let Some(g) = ctx.grace.get(&op) {
        let schema = ctx.plan.input_schema(op);
        let res = crate::ops::grace::partition_stream(
            ctx,
            g,
            &g.build,
            block,
            scratch.keys.hashes(),
            op,
            &schema,
        );
        ctx.put_scratch(scratch);
        res?;
        return Ok(Vec::new());
    }
    let run = (!scratch.keys.is_empty())
        .then(|| ctx.hash_table(op).run(block, &scratch.keys, payload_cols));
    ctx.put_scratch(scratch);
    if let Some(run) = run {
        ctx.runtimes[op].build_runs.lock().push(run);
    }
    Ok(Vec::new())
}

fn payload_cols(ctx: &ExecContext, op: usize) -> Result<&[usize]> {
    match &ctx.plan.op(op).kind {
        OperatorKind::BuildHash { payload_cols, .. } => Ok(payload_cols),
        other => Err(EngineError::Internal(format!(
            "build work order on {}",
            other.kind_label()
        ))),
    }
}

/// Take the runs of build `op` once every stream work order has finished,
/// and split its finalize into the partitions `split` gives for its rows.
pub(crate) fn freeze(
    ctx: &ExecContext,
    op: usize,
    split: impl FnOnce(usize) -> usize,
) -> (FinalizeInput, usize) {
    let runs = std::mem::take(&mut *ctx.runtimes[op].build_runs.lock());
    let parts = split(runs.iter().map(BuildRun::rows).sum());
    (FinalizeInput::Build(runs.into()), parts)
}

/// Finalize partition `part` of `parts` of build `op`: link the shards the
/// partition owns from every run. The last partition publishes the table.
pub(crate) fn execute_finalize(
    ctx: &ExecContext,
    op: usize,
    part: usize,
    parts: usize,
    runs: &[BuildRun],
) -> Result<Produced> {
    payload_cols(ctx, op)?;
    ctx.hash_table(op).link(runs, part, parts);
    Ok(Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinType, PlanBuilder, Source};
    use uot_storage::{
        BlockFormat, BlockPool, DataType, HashKey, MemoryTracker, Schema, Table, TableBuilder,
        Value,
    };

    fn table() -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
        let mut tb = TableBuilder::new("dim", s, BlockFormat::Column, 1 << 10);
        for i in 0..50 {
            tb.append(&[Value::I32(i % 10), Value::F64(i as f64)])
                .unwrap();
        }
        Arc::new(tb.finish())
    }

    #[test]
    fn builds_table_from_blocks() {
        let t = table();
        let mut pb = PlanBuilder::new();
        let b = pb
            .build_hash(Source::Table(t.clone()), vec![0], vec![1])
            .unwrap();
        let p = pb
            .probe(
                Source::Table(t.clone()),
                b,
                vec![0],
                vec![0],
                vec![0],
                JoinType::Inner,
            )
            .unwrap();
        let plan = Arc::new(pb.build(p).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1 << 10).unwrap();
        for blk in t.blocks() {
            let out = execute(&ctx, b, &blk.clone()).unwrap();
            assert!(out.is_empty());
        }
        crate::ops::finalize_in_turn(&ctx, b, 1).unwrap();
        let ht = ctx.hash_table(b);
        assert_eq!(ht.len(), 50);
        // key 3 appears 5 times (3, 13, 23, 33, 43)
        let mut vals = Vec::new();
        ht.probe_key(&HashKey::from_i32(3), |p| vals.push(p.f64_at(0)));
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(vals, vec![3.0, 13.0, 23.0, 33.0, 43.0]);
    }
}
