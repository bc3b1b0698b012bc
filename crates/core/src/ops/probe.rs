//! The probe operator: the paper's canonical *consumer*.
//!
//! A probe work order looks up every row of its input block in the join hash
//! table built by the upstream build operator, and assembles output rows from
//! probe-side columns plus payload columns (inner join), or probe-side
//! columns only (semi/anti joins).
//!
//! The default path is batched: keys and hashes for the whole block come from
//! the operator's precompiled [`uot_storage::KeyExtractor`] (one dispatch per
//! block), matches resolve through a prefetched
//! [`crate::hash_table::ProbeSession`] into a flat match vector, and each
//! output column is materialized with one typed gather loop. A row-at-a-time
//! [`execute_scalar`] is retained as the reference implementation the
//! property tests diff against.

use crate::error::EngineError;
use crate::ops::builders::{
    gather_block_column, gather_payload_column, into_virtual_block, make_builders,
};
use crate::output::Produced;
use crate::plan::{JoinType, OperatorKind};
use crate::state::ExecContext;
use crate::Result;
use std::sync::Arc;
use uot_storage::{HashKey, StorageBlock};

struct ProbeSpec<'a> {
    build: usize,
    probe_key_cols: &'a [usize],
    probe_out_cols: &'a [usize],
    build_out_cols: &'a [usize],
    join: JoinType,
}

fn probe_spec<'a>(ctx: &'a ExecContext, op: usize) -> Result<ProbeSpec<'a>> {
    match &ctx.plan.op(op).kind {
        OperatorKind::Probe {
            build,
            probe_key_cols,
            probe_out_cols,
            build_out_cols,
            join,
            ..
        } => Ok(ProbeSpec {
            build: *build,
            probe_key_cols,
            probe_out_cols,
            build_out_cols,
            join: *join,
        }),
        other => Err(EngineError::Internal(format!(
            "probe work order on {}",
            other.kind_label()
        ))),
    }
}

/// Run one probe work order (staged batched path). Returns completed output
/// blocks.
pub fn execute(ctx: &ExecContext, op: usize, block: &Arc<StorageBlock>) -> Result<Produced> {
    // Under a grace join probe rows are only partitioned here; the actual
    // probing happens partition-by-partition in the finalize-join work order.
    if let Some(g) = ctx.grace.get(&op) {
        let mut scratch = ctx.take_scratch();
        ctx.key_extractor(op)
            .extract_block(block, &mut scratch.keys);
        let schema = ctx.plan.input_schema(op);
        let res = crate::ops::grace::partition_stream(
            ctx,
            g,
            &g.probe,
            block,
            scratch.keys.hashes(),
            op,
            &schema,
        );
        ctx.put_scratch(scratch);
        res?;
        return Ok(Vec::new());
    }
    match apply(ctx, op, block)? {
        None => Ok(Vec::new()),
        Some(virt) => crate::ops::write_output(ctx, op, &virt),
    }
}

/// Probe one block and assemble the join output as a virtual block — `None`
/// when no row matches. Shared by the staged [`execute`] (which routes the
/// result through the output buffer) and the fused pipeline loop (which
/// pushes it straight into the next chain member). Scratch buffers come from
/// the context's pooled [`Scratch`](crate::state::Scratch) either way.
pub(crate) fn apply(
    ctx: &ExecContext,
    op: usize,
    block: &Arc<StorageBlock>,
) -> Result<Option<StorageBlock>> {
    let spec = probe_spec(ctx, op)?;
    apply_with(ctx, op, block, ctx.hash_table(spec.build))
}

/// [`apply`] against an explicit hash table instead of the shared one — the
/// grace-join finalize path builds a table per partition and probes each
/// partition's blocks through it.
pub(crate) fn apply_with(
    ctx: &ExecContext,
    op: usize,
    block: &Arc<StorageBlock>,
    ht: &crate::hash_table::JoinHashTable,
) -> Result<Option<StorageBlock>> {
    let spec = probe_spec(ctx, op)?;
    let out_schema = ctx.plan.op(op).out_schema.clone();
    let mut builders = make_builders(&out_schema);
    let n_probe_cols = spec.probe_out_cols.len();

    let mut scratch = ctx.take_scratch();
    ctx.key_extractor(op)
        .extract_block(block, &mut scratch.keys);
    let session = ht.probe_session();
    match spec.join {
        JoinType::Inner => {
            scratch.matches.clear();
            session.probe_batch(&scratch.keys, &mut scratch.matches);
            for (j, &c) in spec.probe_out_cols.iter().enumerate() {
                gather_block_column(
                    &mut builders[j],
                    block,
                    c,
                    scratch.matches.iter().map(|m| m.probe_row as usize),
                );
            }
            for (j, &c) in spec.build_out_cols.iter().enumerate() {
                gather_payload_column(
                    &mut builders[n_probe_cols + j],
                    &session,
                    c,
                    &scratch.matches,
                );
            }
        }
        JoinType::Semi | JoinType::Anti => {
            scratch.exists.clear();
            session.contains_batch(&scratch.keys, &mut scratch.exists);
            let want = matches!(spec.join, JoinType::Semi);
            scratch.rows.clear();
            scratch.rows.extend(
                scratch
                    .exists
                    .iter()
                    .enumerate()
                    .filter(|&(_, &e)| e == want)
                    .map(|(r, _)| r as u32),
            );
            for (j, &c) in spec.probe_out_cols.iter().enumerate() {
                gather_block_column(
                    &mut builders[j],
                    block,
                    c,
                    scratch.rows.iter().map(|&r| r as usize),
                );
            }
        }
    }
    ctx.put_scratch(scratch);
    if builders.first().map(|b| b.is_empty()).unwrap_or(true) {
        return Ok(None);
    }
    Ok(Some(into_virtual_block(out_schema, builders)?))
}

/// Row-at-a-time reference implementation of the probe (the pre-vectorized
/// path). Kept for the batched-vs-scalar property tests and the `probe_batch`
/// microbenchmark baseline; must produce the same multiset of rows as
/// [`execute`].
pub fn execute_scalar(ctx: &ExecContext, op: usize, block: &Arc<StorageBlock>) -> Result<Produced> {
    let spec = probe_spec(ctx, op)?;
    let ht = ctx.hash_table(spec.build);
    let out_schema = ctx.plan.op(op).out_schema.clone();
    let mut builders = make_builders(&out_schema);
    let n_probe_cols = spec.probe_out_cols.len();
    let n = block.num_rows();

    for row in 0..n {
        let key = HashKey::from_row(block, row, spec.probe_key_cols);
        match spec.join {
            JoinType::Inner => {
                ht.probe_key(&key, |payload| {
                    for (j, &c) in spec.probe_out_cols.iter().enumerate() {
                        builders[j].push_from_block(block, row, c);
                    }
                    for (j, &c) in spec.build_out_cols.iter().enumerate() {
                        builders[n_probe_cols + j].push_from_payload(payload, c);
                    }
                });
            }
            JoinType::Semi => {
                if ht.contains_key(&key) {
                    for (j, &c) in spec.probe_out_cols.iter().enumerate() {
                        builders[j].push_from_block(block, row, c);
                    }
                }
            }
            JoinType::Anti => {
                if !ht.contains_key(&key) {
                    for (j, &c) in spec.probe_out_cols.iter().enumerate() {
                        builders[j].push_from_block(block, row, c);
                    }
                }
            }
        }
    }
    if builders.first().map(|b| b.is_empty()).unwrap_or(true) {
        return Ok(Vec::new());
    }
    let virt = into_virtual_block(out_schema, builders)?;
    crate::ops::write_output(ctx, op, &virt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::build;
    use crate::output::into_blocks;
    use crate::plan::{PlanBuilder, Source};
    use uot_storage::{
        BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder, Value,
    };

    fn dim() -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("name", DataType::Char(4))]);
        let mut tb = TableBuilder::new("dim", s, BlockFormat::Column, 1 << 10);
        for i in 0..4 {
            tb.append(&[Value::I32(i), Value::Str(format!("d{i}"))])
                .unwrap();
        }
        Arc::new(tb.finish())
    }

    fn fact() -> Arc<Table> {
        let s = Schema::from_pairs(&[("fk", DataType::Int32), ("amt", DataType::Float64)]);
        let mut tb = TableBuilder::new("fact", s, BlockFormat::Column, 1 << 10);
        for i in 0..12 {
            tb.append(&[Value::I32(i % 6), Value::F64(i as f64)])
                .unwrap();
        }
        Arc::new(tb.finish())
    }

    fn setup(
        join: JoinType,
        build_out: Vec<usize>,
    ) -> (ExecContext, usize, usize, Arc<Table>, Arc<Table>) {
        let d = dim();
        let f = fact();
        let mut pb = PlanBuilder::new();
        let b = pb
            .build_hash(Source::Table(d.clone()), vec![0], vec![0, 1])
            .unwrap();
        let p = pb
            .probe(
                Source::Table(f.clone()),
                b,
                vec![0],
                vec![0, 1],
                build_out,
                join,
            )
            .unwrap();
        let plan = Arc::new(pb.build(p).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1 << 10).unwrap();
        (ctx, b, p, d, f)
    }

    fn run_probe(ctx: &ExecContext, b: usize, p: usize, d: &Table, f: &Table) -> Vec<Vec<Value>> {
        for blk in d.blocks() {
            build::execute(ctx, b, &blk.clone()).unwrap();
        }
        crate::ops::finalize_in_turn(ctx, b, 1).unwrap();
        let mut rows = Vec::new();
        for blk in f.blocks() {
            for out in into_blocks(execute(ctx, p, &blk.clone()).unwrap(), &ctx.pool).unwrap() {
                rows.extend(out.all_rows());
            }
        }
        for out in into_blocks(ctx.output(p).flush(&ctx.pool), &ctx.pool).unwrap() {
            rows.extend(out.all_rows());
        }
        rows
    }

    #[test]
    fn inner_join_emits_matches_with_payload() {
        let (ctx, b, p, d, f) = setup(JoinType::Inner, vec![1]);
        let mut rows = run_probe(&ctx, b, p, &d, &f);
        // fact keys 0..5, dim keys 0..3 -> 8 matching fact rows (fk in 0..=3)
        assert_eq!(rows.len(), 8);
        rows.sort_by(|a, b| a[1].as_f64().partial_cmp(&b[1].as_f64()).unwrap());
        assert_eq!(rows[0][0], Value::I32(0));
        assert_eq!(rows[0][2], Value::Str("d0".into()));
        // row with fk=3 carries d3
        let r3 = rows.iter().find(|r| r[0] == Value::I32(3)).unwrap();
        assert_eq!(r3[2], Value::Str("d3".into()));
    }

    #[test]
    fn semi_join_emits_each_matching_probe_row_once() {
        let (ctx, b, p, d, f) = setup(JoinType::Semi, vec![]);
        let rows = run_probe(&ctx, b, p, &d, &f);
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| r.len() == 2)); // probe cols only
        assert!(rows.iter().all(|r| r[0].as_i32() <= 3));
    }

    #[test]
    fn anti_join_emits_non_matching_probe_rows() {
        let (ctx, b, p, d, f) = setup(JoinType::Anti, vec![]);
        let rows = run_probe(&ctx, b, p, &d, &f);
        assert_eq!(rows.len(), 4); // fk 4 and 5, twice each
        assert!(rows.iter().all(|r| r[0].as_i32() >= 4));
    }

    #[test]
    fn probe_against_empty_build() {
        let (ctx, b, p, _d, f) = setup(JoinType::Inner, vec![1]);
        // Skip the build's stream work entirely: the finalize links an
        // empty table.
        crate::ops::finalize_in_turn(&ctx, b, 1).unwrap();
        let out = execute(&ctx, p, &f.blocks()[0].clone()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_build_keys_multiply() {
        // dim with duplicate keys
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut tb = TableBuilder::new("dup", s.clone(), BlockFormat::Column, 1 << 10);
        for _ in 0..3 {
            tb.append(&[Value::I32(7)]).unwrap();
        }
        let d = Arc::new(tb.finish());
        let mut tb = TableBuilder::new("probe1", s, BlockFormat::Column, 1 << 10);
        tb.append(&[Value::I32(7)]).unwrap();
        tb.append(&[Value::I32(8)]).unwrap();
        let f = Arc::new(tb.finish());
        let mut pb = PlanBuilder::new();
        let b = pb
            .build_hash(Source::Table(d.clone()), vec![0], vec![0])
            .unwrap();
        let p = pb
            .probe(
                Source::Table(f.clone()),
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
        let rows = run_probe(&ctx, b, p, &d, &f);
        assert_eq!(rows.len(), 3); // 7 matches thrice, 8 never
    }
}
