//! Nested-loops join with a fully materialized inner side.
//!
//! The paper hypothesizes (Section V-B) that for nested loops the UoT mostly
//! affects how often the *outer* stream's sequential access is disrupted;
//! the inner side is scanned sequentially per outer block. We reproduce that
//! shape: outer blocks stream (UoT-gated), the inner relation is the
//! materialized output of an upstream operator.

use crate::error::EngineError;
use crate::ops::builders::{into_virtual_block, make_builders};
use crate::output::Produced;
use crate::plan::OperatorKind;
use crate::state::ExecContext;
use crate::Result;
use std::sync::Arc;
use uot_expr::CmpOp;
use uot_storage::{DataType, StorageBlock};

/// Run one nested-loops work order over an outer block.
pub fn execute(ctx: &ExecContext, op: usize, block: &Arc<StorageBlock>) -> Result<Produced> {
    let (right, conds, left_out, right_out) = match &ctx.plan.op(op).kind {
        OperatorKind::NestedLoops {
            right,
            conds,
            left_out,
            right_out,
            ..
        } => (*right, conds, left_out, right_out),
        other => {
            return Err(EngineError::Internal(format!(
                "nested-loops work order on {}",
                other.kind_label()
            )))
        }
    };
    let inner_blocks = ctx.runtimes[right].collected.lock().clone();
    let out_schema = ctx.plan.op(op).out_schema.clone();
    let mut builders = make_builders(&out_schema);
    let n_left = left_out.len();

    for lrow in 0..block.num_rows() {
        // O(|outer| x |inner|) per work order: honor cancellation between
        // outer rows, not just between work orders.
        ctx.check_cancelled()?;
        for rb in &inner_blocks {
            for rrow in 0..rb.num_rows() {
                if conds
                    .iter()
                    .all(|&(lc, op_, rc)| field_cmp(block, lrow, lc, rb, rrow, rc, op_))
                {
                    for (j, &c) in left_out.iter().enumerate() {
                        builders[j].push_from_block(block, lrow, c);
                    }
                    for (j, &c) in right_out.iter().enumerate() {
                        builders[n_left + j].push_from_block(rb, rrow, c);
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

/// Typed comparison of `left[lrow][lc] op right[rrow][rc]`.
fn field_cmp(
    left: &StorageBlock,
    lrow: usize,
    lc: usize,
    right: &StorageBlock,
    rrow: usize,
    rc: usize,
    op: CmpOp,
) -> bool {
    use std::cmp::Ordering;
    let ord = match (left.schema().dtype(lc), right.schema().dtype(rc)) {
        (DataType::Int32, DataType::Int32) => left.i32_at(lrow, lc).cmp(&right.i32_at(rrow, rc)),
        (DataType::Int64, DataType::Int64) => left.i64_at(lrow, lc).cmp(&right.i64_at(rrow, rc)),
        (DataType::Int32, DataType::Int64) => {
            (left.i32_at(lrow, lc) as i64).cmp(&right.i64_at(rrow, rc))
        }
        (DataType::Int64, DataType::Int32) => {
            left.i64_at(lrow, lc).cmp(&(right.i32_at(rrow, rc) as i64))
        }
        (DataType::Date, DataType::Date) => left.date_at(lrow, lc).cmp(&right.date_at(rrow, rc)),
        (DataType::Float64, DataType::Float64) => left
            .f64_at(lrow, lc)
            .partial_cmp(&right.f64_at(rrow, rc))
            .unwrap_or(Ordering::Equal),
        (DataType::Char(_), DataType::Char(_)) => {
            left.char_at(lrow, lc).cmp(right.char_at(rrow, rc))
        }
        // mixed/unsupported combinations never match; plan validation keeps
        // these out of real plans
        _ => return false,
    };
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::into_blocks;
    use crate::plan::{PlanBuilder, Source};
    use uot_expr::Predicate;
    use uot_storage::{
        BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder, Value,
    };

    fn table(name: &str, n: i32) -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut tb = TableBuilder::new(name, s, BlockFormat::Column, 64);
        for i in 0..n {
            tb.append(&[Value::I32(i)]).unwrap();
        }
        Arc::new(tb.finish())
    }

    fn run_nlj(conds: Vec<(usize, CmpOp, usize)>) -> Vec<(i32, i32)> {
        let lt = table("left1", 4);
        let rt = table("right1", 3);
        let mut pb = PlanBuilder::new();
        let r = pb
            .filter(Source::Table(rt.clone()), Predicate::True)
            .unwrap();
        let j = pb
            .nested_loops(Source::Table(lt.clone()), r, conds, vec![0], vec![0])
            .unwrap();
        let plan = Arc::new(pb.build(j).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1 << 12).unwrap();
        // scheduler would materialize the inner side:
        ctx.runtimes[r]
            .collected
            .lock()
            .extend(rt.blocks().iter().cloned());
        let mut rows = Vec::new();
        for lb in lt.blocks() {
            for b in into_blocks(execute(&ctx, j, &lb.clone()).unwrap(), &ctx.pool).unwrap() {
                rows.extend(b.all_rows());
            }
        }
        for b in into_blocks(ctx.output(j).flush(&ctx.pool), &ctx.pool).unwrap() {
            rows.extend(b.all_rows());
        }
        let mut pairs: Vec<(i32, i32)> = rows
            .iter()
            .map(|r| (r[0].as_i32(), r[1].as_i32()))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn equi_condition() {
        assert_eq!(
            run_nlj(vec![(0, CmpOp::Eq, 0)]),
            vec![(0, 0), (1, 1), (2, 2)]
        );
    }

    #[test]
    fn inequality_condition() {
        // left.k > right.k
        assert_eq!(
            run_nlj(vec![(0, CmpOp::Gt, 0)]),
            vec![(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
        );
    }

    #[test]
    fn cross_product_with_no_conditions() {
        assert_eq!(run_nlj(vec![]).len(), 12);
    }

    #[test]
    fn conjunctive_conditions() {
        // k >= k AND k <= k  <=> equality
        assert_eq!(
            run_nlj(vec![(0, CmpOp::Ge, 0), (0, CmpOp::Le, 0)]),
            vec![(0, 0), (1, 1), (2, 2)]
        );
        // Ne condition
        let ne = run_nlj(vec![(0, CmpOp::Ne, 0)]);
        assert_eq!(ne.len(), 9);
    }
}
