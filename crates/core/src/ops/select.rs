//! The select operator: filter + project on one block.
//!
//! This is the canonical *producer* of the paper's select → probe pair. A
//! work order refines a selection vector of surviving row indices, starting
//! from every row of its input block: the predicate's conjuncts one by one
//! ([`Predicate::filter`]), then the LIP Bloom filters. It gathers each
//! projection for the surviving rows and appends the result to the
//! operator's output buffer.

use crate::error::EngineError;
use crate::output::Produced;
use crate::plan::OperatorKind;
use crate::state::{ExecContext, Scratch};
use crate::Result;
use std::sync::Arc;
use uot_expr::{Predicate, ScalarExpr};
use uot_storage::{ColumnBlock, ColumnData, StorageBlock};

/// Run one select work order (staged path). Returns completed output blocks.
pub fn execute(ctx: &ExecContext, op: usize, block: &Arc<StorageBlock>) -> Result<Produced> {
    match apply(ctx, op, block)? {
        None => Ok(Vec::new()),
        Some(virt) => crate::ops::write_output(ctx, op, &virt),
    }
}

/// Evaluate the select over one block and return the surviving rows as a
/// virtual block — `None` when nothing survives. This is the transform both
/// paths share: the staged [`execute`] writes the result through the
/// operator's output buffer; a fused pipeline pushes it straight into the
/// next chain member. When every row survives and every projection is an
/// identity column reference, the input block is passed through untouched
/// (zero copy). The selection vector lives in a pooled [`Scratch`].
pub(crate) fn apply(
    ctx: &ExecContext,
    op: usize,
    block: &Arc<StorageBlock>,
) -> Result<Option<Arc<StorageBlock>>> {
    let (predicate, projections, lip) = match &ctx.plan.op(op).kind {
        OperatorKind::Select {
            predicate,
            projections,
            lip,
            ..
        } => (predicate, projections, lip),
        other => {
            return Err(EngineError::Internal(format!(
                "select work order on {}",
                other.kind_label()
            )))
        }
    };
    let mut scratch = ctx.take_scratch();
    let out = select_rows(ctx, op, block, predicate, !lip.is_empty(), &mut scratch)
        .and_then(|()| project(ctx, op, block, projections, &scratch.sel));
    ctx.put_scratch(scratch);
    out
}

/// Leave in `scratch.sel` the rows of `block` that pass the predicate and,
/// when `lip` is set, every LIP Bloom filter.
fn select_rows(
    ctx: &ExecContext,
    op: usize,
    block: &StorageBlock,
    predicate: &Predicate,
    lip: bool,
    scratch: &mut Scratch,
) -> Result<()> {
    let Scratch {
        sel, rows, keys, ..
    } = scratch;
    sel.clear();
    sel.extend(0..block.num_rows());
    predicate.filter(block, sel).map_err(EngineError::from)?;
    if !lip {
        return Ok(());
    }
    // LIP: consult downstream builds' Bloom filters and drop rows whose join
    // keys are definitely absent — before materializing or transferring them.
    // Filters sharing a key-column set are grouped at context build: the
    // surviving rows' keys are extracted and hashed once per group, and every
    // Bloom filter in the group probes the same hash vector.
    let before = sel.len();
    for group in &ctx.lip_groups[op] {
        let blooms: Vec<_> = group
            .builds
            .iter()
            .filter_map(|&b| ctx.runtimes[b].bloom.as_deref())
            .collect();
        if blooms.is_empty() {
            continue;
        }
        rows.clear();
        rows.extend(sel.iter().map(|&r| r as u32));
        group.extractor.extract_rows(block, rows, keys);
        let mut hashes = keys.hashes().iter();
        sel.retain(|_| {
            let h = *hashes.next().expect("one hash per surviving row");
            blooms.iter().all(|bl| bl.may_contain_hash(h))
        });
    }
    ctx.runtimes[op]
        .lip_pruned
        .fetch_add(before - sel.len(), std::sync::atomic::Ordering::Relaxed);
    Ok(())
}

/// Gather every projection for the rows in `sel` into a virtual block.
fn project(
    ctx: &ExecContext,
    op: usize,
    block: &Arc<StorageBlock>,
    projections: &[ScalarExpr],
    sel: &[usize],
) -> Result<Option<Arc<StorageBlock>>> {
    let selected = sel.len();
    if selected == 0 {
        return Ok(None);
    }
    let all = selected == block.num_rows();
    // Identity fast path: a pure pass-through (all rows, bare column refs in
    // order, full width) reuses the input block instead of re-gathering it.
    if all
        && projections.len() == block.schema().len()
        && projections
            .iter()
            .enumerate()
            .all(|(i, p)| p.as_col() == Some(i))
    {
        return Ok(Some(block.clone()));
    }
    let cols: Vec<ColumnData> = projections
        .iter()
        .map(|p| {
            if all {
                p.eval_all(block)
            } else {
                p.eval_gather(block, sel)
            }
        })
        .collect::<std::result::Result<_, _>>()
        .map_err(EngineError::from)?;
    let out_schema = ctx.plan.op(op).out_schema.clone();
    let virt = StorageBlock::Column(ColumnBlock::from_columns(out_schema, cols, selected)?);
    Ok(Some(Arc::new(virt)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::into_blocks;
    use crate::plan::{PlanBuilder, Source};
    use crate::state::ExecContext;
    use std::sync::Arc;
    use uot_expr::{cmp, col, lit, CmpOp};
    use uot_storage::{
        BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder, Value,
    };

    fn table(format: BlockFormat) -> Arc<Table> {
        let s = Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("price", DataType::Float64),
            ("disc", DataType::Float64),
        ]);
        let mut tb = TableBuilder::new("t", s, format, 1 << 12);
        for i in 0..100 {
            tb.append(&[Value::I32(i), Value::F64(100.0 + i as f64), Value::F64(0.1)])
                .unwrap();
        }
        Arc::new(tb.finish())
    }

    fn run(format: BlockFormat) -> Vec<Vec<Value>> {
        let t = table(format);
        let mut pb = PlanBuilder::new();
        let s = pb
            .select(
                Source::Table(t.clone()),
                cmp(col(0), CmpOp::Lt, lit(5i32)),
                vec![col(0), col(1).mul(lit(1.0).sub(col(2)))],
                &["k", "revenue"],
            )
            .unwrap();
        let plan = Arc::new(pb.build(s).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1 << 12).unwrap();
        let block = t.blocks()[0].clone();
        let mut out = Vec::new();
        for b in into_blocks(execute(&ctx, s, &block).unwrap(), &ctx.pool).unwrap() {
            out.extend(b.all_rows());
        }
        for b in into_blocks(ctx.output(s).flush(&ctx.pool), &ctx.pool).unwrap() {
            out.extend(b.all_rows());
        }
        out
    }

    #[test]
    fn filters_and_computes_both_formats() {
        for fmt in [BlockFormat::Row, BlockFormat::Column] {
            let rows = run(fmt);
            assert_eq!(rows.len(), 5);
            assert_eq!(rows[0][0], Value::I32(0));
            let rev = rows[3][1].as_f64();
            assert!((rev - 103.0 * 0.9).abs() < 1e-9, "{rev}");
        }
    }

    #[test]
    fn empty_selection_emits_nothing() {
        let t = table(BlockFormat::Column);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(t.clone()), cmp(col(0), CmpOp::Lt, lit(0i32)))
            .unwrap();
        let plan = Arc::new(pb.build(s).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool.clone(), BlockFormat::Row, 1 << 12).unwrap();
        let completed = execute(&ctx, s, &t.blocks()[0].clone()).unwrap();
        assert!(completed.is_empty());
        assert!(ctx.output(s).flush(&ctx.pool).is_empty());
        assert_eq!(pool.stats().created, 0);
    }

    #[test]
    fn full_selection_takes_all_rows_path() {
        let t = table(BlockFormat::Column);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(t.clone()), uot_expr::Predicate::True)
            .unwrap();
        let plan = Arc::new(pb.build(s).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Column, 1 << 12).unwrap();
        let mut rows = Vec::new();
        for b in into_blocks(execute(&ctx, s, &t.blocks()[0].clone()).unwrap(), &ctx.pool).unwrap()
        {
            rows.extend(b.all_rows());
        }
        for b in into_blocks(ctx.output(s).flush(&ctx.pool), &ctx.pool).unwrap() {
            rows.extend(b.all_rows());
        }
        assert_eq!(rows.len(), t.blocks()[0].num_rows());
    }
}
