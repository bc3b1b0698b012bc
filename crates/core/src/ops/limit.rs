//! Limit: pass through the first `n` rows of the stream.
//!
//! The row budget is a shared atomic so concurrent work orders never emit
//! more than `n` rows in total (which rows win is scheduling-dependent, as
//! in any parallel engine without an ORDER BY under the LIMIT).

use crate::error::EngineError;
use crate::output::Produced;
use crate::plan::OperatorKind;
use crate::state::ExecContext;
use crate::Result;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use uot_storage::{ColumnBlock, ColumnData, StorageBlock};

/// Run one limit work order.
pub fn execute(ctx: &ExecContext, op: usize, block: &Arc<StorageBlock>) -> Result<Produced> {
    if !matches!(&ctx.plan.op(op).kind, OperatorKind::Limit { .. }) {
        return Err(EngineError::Internal(
            "limit work order on non-limit".into(),
        ));
    }
    let n = block.num_rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    // Claim up to n rows from the shared budget.
    let budget = &ctx.runtimes[op].limit_remaining;
    let mut claimed;
    let mut cur = budget.load(Ordering::Relaxed);
    loop {
        if cur <= 0 {
            return Ok(Vec::new());
        }
        claimed = (n as i64).min(cur);
        match budget.compare_exchange_weak(cur, cur - claimed, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => break,
            Err(actual) => cur = actual,
        }
    }
    let take = claimed as usize;
    let out_schema = ctx.plan.op(op).out_schema.clone();
    let rows: Vec<usize> = (0..take).collect();
    let cols: Vec<ColumnData> = (0..out_schema.len())
        .map(|c| uot_expr::gather_column(block, c, &rows))
        .collect::<std::result::Result<_, _>>()
        .map_err(EngineError::from)?;
    let virt = StorageBlock::Column(ColumnBlock::from_columns(out_schema, cols, take)?);
    crate::ops::write_output(ctx, op, &virt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::into_blocks;
    use crate::plan::{PlanBuilder, Source};
    use uot_storage::{
        BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder, Value,
    };

    fn table(n: i32) -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut tb = TableBuilder::new("t", s, BlockFormat::Column, 16); // 4 rows/block
        for i in 0..n {
            tb.append(&[Value::I32(i)]).unwrap();
        }
        Arc::new(tb.finish())
    }

    fn run_limit(total_rows: i32, n: usize) -> Vec<Vec<Value>> {
        let t = table(total_rows);
        let mut pb = PlanBuilder::new();
        let l = pb.limit(Source::Table(t.clone()), n).unwrap();
        let plan = Arc::new(pb.build(l).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1 << 12).unwrap();
        let mut rows = Vec::new();
        for b in t.blocks() {
            for out in into_blocks(execute(&ctx, l, &b.clone()).unwrap(), &ctx.pool).unwrap() {
                rows.extend(out.all_rows());
            }
        }
        for out in into_blocks(ctx.output(l).flush(&ctx.pool), &ctx.pool).unwrap() {
            rows.extend(out.all_rows());
        }
        rows
    }

    #[test]
    fn caps_total_rows() {
        assert_eq!(run_limit(20, 7).len(), 7);
        assert_eq!(run_limit(20, 0).len(), 0);
        assert_eq!(run_limit(3, 7).len(), 3);
        assert_eq!(run_limit(0, 7).len(), 0);
    }

    #[test]
    fn takes_block_prefixes_in_order() {
        let rows = run_limit(20, 6);
        let ks: Vec<i32> = rows.iter().map(|r| r[0].as_i32()).collect();
        // serial execution: first block fully, then 2 from the second
        assert_eq!(ks, vec![0, 1, 2, 3, 4, 5]);
    }
}
