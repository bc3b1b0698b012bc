//! Hash aggregation: pooled partials plus a finalize merge.
//!
//! Each stream work order checks a partial out of the operator's pool (or
//! creates one), folds its block in column-at-a-time and returns it — no
//! synchronization on the hot path beyond the checkout. A block is folded in
//! three passes: every distinct argument expression is evaluated once, one
//! pass over the key hashes assigns dense group ids, and one scatter pass per
//! aggregate updates the states by group id. The single finalize work order
//! merges the pooled partials (at most one per concurrent work order), sorts
//! the group ids by the typed [`RowOrder`] over the group-value columns, and
//! emits each group's values and final aggregates as typed columns through
//! the operator's bulk output copy. This is the standard
//! parallel-aggregation shape of block-based engines like Quickstep.

use crate::error::EngineError;
use crate::ops::row_order::{gather, RowOrder, RowRef};
use crate::plan::OperatorKind;
use crate::state::{AggPartial, ExecContext};
use crate::Result;
use std::sync::Arc;
use uot_expr::{AggFunc, AggSpec, AggState, ScalarExpr};
use uot_storage::{ColumnBlock, ColumnData, StorageBlock, Value};

/// Fold one input block into a pooled partial.
pub fn execute_block(
    ctx: &ExecContext,
    op: usize,
    block: &Arc<StorageBlock>,
) -> Result<Vec<StorageBlock>> {
    let (group_by, aggs) = match &ctx.plan.op(op).kind {
        OperatorKind::Aggregate { group_by, aggs, .. } => (group_by, aggs),
        other => {
            return Err(EngineError::Internal(format!(
                "aggregate work order on {}",
                other.kind_label()
            )))
        }
    };
    let n = block.num_rows();
    if n == 0 {
        return Ok(Vec::new());
    }

    // Evaluate each distinct argument expression once over the whole block
    // (Q1's seven aggregate arguments are five distinct expressions).
    let mut exprs: Vec<&ScalarExpr> = Vec::new();
    let mut cols: Vec<ColumnData> = Vec::new();
    let mut arg_of: Vec<Option<usize>> = Vec::with_capacity(aggs.len());
    for spec in aggs {
        arg_of.push(match (spec.func, &spec.arg) {
            (AggFunc::CountStar, _) => None,
            (_, Some(e)) => Some(match exprs.iter().position(|x| *x == e) {
                Some(i) => i,
                None => {
                    cols.push(e.eval_all(block)?);
                    exprs.push(e);
                    cols.len() - 1
                }
            }),
            (_, None) => {
                return Err(EngineError::Internal(
                    "non-COUNT(*) aggregate without argument".into(),
                ))
            }
        });
    }

    let pooled = ctx.runtimes[op].agg_partials.lock().pop();
    let mut partial = pooled.unwrap_or_else(|| new_partial(ctx, op, group_by, aggs));
    if group_by.is_empty() {
        // Scalar aggregation: a single implicit group.
        let gid = partial.scalar_group() as usize;
        for (i, arg) in arg_of.iter().enumerate() {
            let state = &mut partial.states_mut(i)[gid];
            match arg {
                None => state.update_count(n),
                Some(c) => state.update_column(&cols[*c])?,
            }
        }
    } else {
        let mut scratch = ctx.take_scratch();
        ctx.key_extractor(op)
            .extract_block(block, &mut scratch.keys);
        partial.assign_gids(&scratch.keys, block, group_by, &mut scratch.gids);
        let gids = &scratch.gids;
        let updated = arg_of
            .iter()
            .enumerate()
            .try_for_each(|(i, arg)| match arg {
                None => {
                    AggState::count_scatter(partial.states_mut(i), gids);
                    Ok(())
                }
                Some(c) => AggState::update_scatter(partial.states_mut(i), gids, &cols[*c]),
            });
        ctx.put_scratch(scratch);
        updated?;
    }
    ctx.runtimes[op].agg_partials.lock().push(partial);
    Ok(Vec::new())
}

/// An empty partial for operator `op`: typed columns for the group-by
/// values, and each aggregate's initial state over the operator's input.
fn new_partial(ctx: &ExecContext, op: usize, group_by: &[usize], aggs: &[AggSpec]) -> AggPartial {
    let in_schema = ctx.plan.input_schema(op);
    let types: Vec<_> = group_by.iter().map(|&c| in_schema.dtype(c)).collect();
    let init = aggs
        .iter()
        .map(|a| a.init_state(&in_schema).expect("validated by planner"))
        .collect();
    AggPartial::new(&types, init)
}

/// Merge the pooled partials and emit the result blocks.
pub fn execute_finalize(ctx: &ExecContext, op: usize) -> Result<Vec<StorageBlock>> {
    let (group_by, aggs) = match &ctx.plan.op(op).kind {
        OperatorKind::Aggregate { group_by, aggs, .. } => (group_by, aggs),
        other => {
            return Err(EngineError::Internal(format!(
                "aggregate finalize on {}",
                other.kind_label()
            )))
        }
    };
    let mut partials: Vec<AggPartial> = std::mem::take(&mut *ctx.runtimes[op].agg_partials.lock());
    // Merge into the largest partial, so the fewest groups move.
    let largest = (0..partials.len()).max_by_key(|&i| partials[i].group_count());
    let mut merged = match largest {
        Some(i) => partials.swap_remove(i),
        None => new_partial(ctx, op, group_by, aggs),
    };
    for partial in partials {
        // Honor cancellation between partials.
        ctx.check_cancelled()?;
        merged.merge(partial);
    }
    // SQL semantics: a scalar aggregate over zero rows still yields one row.
    if group_by.is_empty() {
        merged.scalar_group();
    }
    let n = merged.group_count();
    let (groups, mut states) = merged.into_parts();
    let schema = &ctx.plan.op(op).out_schema;
    let width = group_by.len();
    // Groups in group-value order: sort the group ids over the group-by
    // columns, then gather those columns in that order.
    let mut refs: Vec<RowRef> = (0..n as u32).map(|g| (0, g)).collect();
    let group_schema = schema.project(&(0..width).collect::<Vec<_>>());
    let block = [Arc::new(StorageBlock::Column(ColumnBlock::from_columns(
        group_schema.clone(),
        groups,
        n,
    )?))];
    let order = RowOrder::new(&block, &group_schema, &[]);
    refs.sort_unstable_by(|a, b| order.cmp(*a, *b));
    let mut cols = gather(&block, &refs, &group_schema);
    // Each aggregate's final values, one typed column in the same order.
    for (a, col_states) in states.iter_mut().enumerate() {
        let mut col = ColumnData::with_capacity(schema.dtype(width + a), n);
        for &(_, g) in &refs {
            push_finished(&mut col, col_states[g as usize].finish())?;
        }
        cols.push(col);
    }
    let virt = StorageBlock::Column(ColumnBlock::from_columns(schema.clone(), cols, n)?);
    crate::ops::write_output(ctx, op, &virt)
}

/// Append an aggregate's final value to its output column.
fn push_finished(col: &mut ColumnData, v: Value) -> Result<()> {
    match (col, v) {
        (ColumnData::I32(c), Value::I32(x)) | (ColumnData::Date(c), Value::Date(x)) => c.push(x),
        (ColumnData::I64(c), Value::I64(x)) => c.push(x),
        (ColumnData::F64(c), Value::F64(x)) => c.push(x),
        (_, v) => {
            return Err(EngineError::Internal(format!(
                "aggregate value {v:?} does not match its output column"
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanBuilder, Source};
    use uot_expr::{col, AggSpec};
    use uot_storage::{
        BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder,
    };

    fn table(rows: i32) -> Arc<Table> {
        let s = Schema::from_pairs(&[
            ("g", DataType::Int32),
            ("v", DataType::Float64),
            ("flag", DataType::Char(1)),
        ]);
        let mut tb = TableBuilder::new("t", s, BlockFormat::Column, 256);
        for i in 0..rows {
            tb.append(&[
                Value::I32(i % 3),
                Value::F64(i as f64),
                Value::Str(if i % 2 == 0 { "A" } else { "B" }.into()),
            ])
            .unwrap();
        }
        Arc::new(tb.finish())
    }

    fn run_agg(
        t: &Arc<Table>,
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
        names: &[&str],
    ) -> Vec<Vec<Value>> {
        let mut pb = PlanBuilder::new();
        let a = pb
            .aggregate(Source::Table(t.clone()), group_by, aggs, names)
            .unwrap();
        let plan = Arc::new(pb.build(a).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1 << 12, 4).unwrap();
        for blk in t.blocks() {
            execute_block(&ctx, a, &blk.clone()).unwrap();
        }
        let mut rows = Vec::new();
        for b in execute_finalize(&ctx, a).unwrap() {
            rows.extend(b.all_rows());
        }
        for b in ctx.output(a).flush() {
            rows.extend(b.all_rows());
        }
        rows
    }

    #[test]
    fn grouped_sum_count_across_blocks() {
        let t = table(30); // multiple blocks of ~21 rows each (256B/12B)
        assert!(t.num_blocks() > 1, "need multi-block input for this test");
        let rows = run_agg(
            &t,
            vec![0],
            vec![AggSpec::sum(col(1)), AggSpec::count_star()],
            &["s", "n"],
        );
        assert_eq!(rows.len(), 3);
        // group g: values g, g+3, ..., g+27 -> 10 values, sum = 10g + 3*45
        for (g, row) in rows.iter().enumerate() {
            assert_eq!(row[0], Value::I32(g as i32));
            assert_eq!(row[2], Value::I64(10));
            let expect = 10.0 * g as f64 + 3.0 * 45.0;
            assert!((row[1].as_f64() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn string_group_keys() {
        let t = table(10);
        let rows = run_agg(&t, vec![2], vec![AggSpec::count_star()], &["n"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Str("A".into()));
        assert_eq!(rows[0][1], Value::I64(5));
        assert_eq!(rows[1][0], Value::Str("B".into()));
        assert_eq!(rows[1][1], Value::I64(5));
    }

    #[test]
    fn scalar_aggregate() {
        let t = table(10);
        let rows = run_agg(
            &t,
            vec![],
            vec![
                AggSpec::min(col(1)),
                AggSpec::max(col(1)),
                AggSpec::avg(col(1)),
            ],
            &["mn", "mx", "av"],
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::F64(0.0));
        assert_eq!(rows[0][1], Value::F64(9.0));
        assert_eq!(rows[0][2], Value::F64(4.5));
    }

    #[test]
    fn scalar_aggregate_on_empty_input_yields_one_row() {
        let t = table(0);
        let rows = run_agg(&t, vec![], vec![AggSpec::count_star()], &["n"]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::I64(0));
    }

    #[test]
    fn grouped_aggregate_on_empty_input_yields_no_rows() {
        let t = table(0);
        let rows = run_agg(&t, vec![0], vec![AggSpec::count_star()], &["n"]);
        assert!(rows.is_empty());
    }

    #[test]
    fn output_is_sorted_by_group() {
        let t = table(30);
        let rows = run_agg(&t, vec![0], vec![AggSpec::count_star()], &["n"]);
        let keys: Vec<i32> = rows.iter().map(|r| r[0].as_i32()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    /// Row `i` of a table with `groups` scrambled group ids: (g Int32,
    /// d Date, x Float64, q Int32, w Char(20) — a 20-byte label of g).
    fn mixed_row(i: usize, groups: usize) -> Vec<Value> {
        let g = (i * 7919 % groups) as i32;
        vec![
            Value::I32(g),
            Value::Date(9000 + (i * 31 % 1000) as i32),
            Value::F64((i as f64 * 0.37).sin() * 1000.0),
            Value::I32((i * 13 % 101) as i32 - 50),
            Value::Str(format!("wide-group-{g:09}")),
        ]
    }

    fn mixed_table(rows: usize, groups: usize) -> Arc<Table> {
        let s = Schema::from_pairs(&[
            ("g", DataType::Int32),
            ("d", DataType::Date),
            ("x", DataType::Float64),
            ("q", DataType::Int32),
            ("w", DataType::Char(20)),
        ]);
        let mut tb = TableBuilder::new("m", s, BlockFormat::Column, 1024);
        for i in 0..rows {
            tb.append(&mixed_row(i, groups)).unwrap();
        }
        Arc::new(tb.finish())
    }

    /// Per group id g: (rows, sum q, min/max q, min/max d, min/max x).
    #[allow(clippy::type_complexity)]
    fn mixed_reference(
        rows: usize,
        groups: usize,
    ) -> std::collections::BTreeMap<i32, (i64, i64, i32, i32, i32, i32, f64, f64)> {
        let mut m = std::collections::BTreeMap::new();
        for i in 0..rows {
            let r = mixed_row(i, groups);
            let (g, d, x, q) = (r[0].as_i32(), r[1].as_date(), r[2].as_f64(), r[3].as_i32());
            let e = m.entry(g).or_insert((0, 0, q, q, d, d, x, x));
            e.0 += 1;
            e.1 += q as i64;
            e.2 = e.2.min(q);
            e.3 = e.3.max(q);
            e.4 = e.4.min(d);
            e.5 = e.5.max(d);
            e.6 = e.6.min(x);
            e.7 = e.7.max(x);
        }
        m
    }

    #[test]
    fn wide_group_keys_take_the_var_key_path() {
        let (n, groups) = (600, 37);
        let t = mixed_table(n, groups);
        let want = mixed_reference(n, groups);
        // Char(20) alone, and Int32 + Char(20): 20 and 24 key bytes, both
        // past the 16-byte packed limit.
        for group_by in [vec![4], vec![0, 4]] {
            let width = group_by.len();
            let rows = run_agg(
                &t,
                group_by,
                vec![AggSpec::count_star(), AggSpec::sum(col(3))],
                &["n", "s"],
            );
            assert_eq!(rows.len(), groups);
            // The 9-digit zero-padded label sorts like g itself.
            for (row, (g, e)) in rows.iter().zip(&want) {
                assert_eq!(row[width - 1], Value::Str(format!("wide-group-{g:09}")));
                assert_eq!(row[width], Value::I64(e.0));
                assert_eq!(row[width + 1], Value::I64(e.1));
            }
        }
    }

    #[test]
    fn thousands_of_groups_grow_the_slot_array_many_times() {
        // 3000 groups from 16 initial slots at load ≤ 1/2: nine doublings.
        let (n, groups) = (9000, 3000);
        let t = mixed_table(n, groups);
        let want = mixed_reference(n, groups);
        let rows = run_agg(
            &t,
            vec![0],
            vec![AggSpec::count_star(), AggSpec::sum(col(3))],
            &["n", "s"],
        );
        assert_eq!(rows.len(), groups);
        for (row, (g, e)) in rows.iter().zip(&want) {
            assert_eq!(row, &vec![Value::I32(*g), Value::I64(e.0), Value::I64(e.1)]);
        }
    }

    #[test]
    fn partials_checked_out_together_merge_at_finalize() {
        let (n, groups) = (400, 23);
        let t = mixed_table(n, groups);
        assert!(t.num_blocks() >= 4);
        let aggs = vec![
            AggSpec::count_star(),
            AggSpec::sum(col(2)),
            AggSpec::min(col(1)),
            AggSpec::avg(col(3)),
        ];
        let names = ["n", "sx", "md", "aq"];
        let serial = run_agg(&t, vec![0], aggs.clone(), &names);

        let mut pb = PlanBuilder::new();
        let a = pb
            .aggregate(Source::Table(t.clone()), vec![0], aggs, &names)
            .unwrap();
        let plan = Arc::new(pb.build(a).unwrap());
        let ctx = ExecContext::new(
            plan,
            BlockPool::new(MemoryTracker::new()),
            BlockFormat::Row,
            1 << 12,
            4,
        )
        .unwrap();
        let pool = &ctx.runtimes[a].agg_partials;
        // Even blocks go to the partial a first work order created; odd
        // blocks run while that partial is checked out (as by a concurrent
        // work order), so they build a second one. Groups land in both.
        let blocks = t.blocks();
        execute_block(&ctx, a, &blocks[0].clone()).unwrap();
        let held = pool.lock().pop().expect("first partial pooled");
        for blk in blocks.iter().skip(1).step_by(2) {
            execute_block(&ctx, a, &blk.clone()).unwrap();
        }
        let second = pool.lock().pop().expect("second partial pooled");
        pool.lock().push(held);
        for blk in blocks.iter().skip(2).step_by(2) {
            execute_block(&ctx, a, &blk.clone()).unwrap();
        }
        let first = pool.lock().pop().expect("first partial back in the pool");
        assert!(first.group_count() > 0 && second.group_count() > 0);
        assert!(
            first.group_count() + second.group_count() > groups,
            "groups overlap"
        );
        pool.lock().extend([first, second]);

        let mut rows = Vec::new();
        for b in execute_finalize(&ctx, a).unwrap() {
            rows.extend(b.all_rows());
        }
        rows.extend(ctx.output(a).flush().iter().flat_map(|b| b.all_rows()));
        assert!(pool.lock().is_empty(), "finalize consumes the pool");
        assert_eq!(rows.len(), groups);
        assert_eq!(rows, serial, "two merged partials equal one");
    }

    #[test]
    fn grouped_min_max_over_int_date_and_float() {
        let (n, groups) = (500, 7);
        let t = mixed_table(n, groups);
        let want = mixed_reference(n, groups);
        let rows = run_agg(
            &t,
            vec![0],
            vec![
                AggSpec::min(col(3)),
                AggSpec::max(col(3)),
                AggSpec::min(col(1)),
                AggSpec::max(col(1)),
                AggSpec::min(col(2)),
                AggSpec::max(col(2)),
            ],
            &["mnq", "mxq", "mnd", "mxd", "mnx", "mxx"],
        );
        assert_eq!(rows.len(), groups);
        for (row, (g, e)) in rows.iter().zip(&want) {
            assert_eq!(
                row,
                &vec![
                    Value::I32(*g),
                    Value::I32(e.2),
                    Value::I32(e.3),
                    Value::Date(e.4),
                    Value::Date(e.5),
                    Value::F64(e.6),
                    Value::F64(e.7),
                ]
            );
        }
    }

    #[test]
    fn multi_column_group() {
        let t = table(12);
        let rows = run_agg(&t, vec![0, 2], vec![AggSpec::count_star()], &["n"]);
        // groups: (g, flag) — g in 0..3, flag alternates with parity of i;
        // g and parity are correlated mod 6: 6 distinct groups.
        assert_eq!(rows.len(), 6);
        let total: i64 = rows.iter().map(|r| r[2].as_i64()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn groups_emit_in_date_int64_char_order() {
        let s = Schema::from_pairs(&[
            ("d", DataType::Date),
            ("n", DataType::Int64),
            ("s", DataType::Char(6)),
            ("v", DataType::Float64),
        ]);
        let mut tb = TableBuilder::new("g", s, BlockFormat::Row, 256);
        // "a " and "a" store the same padded bytes: one group, decoded "a".
        let labels = ["b", "a ", "ab", "a", "ba", "", "zz"];
        let mut rows = Vec::new();
        for i in 0..300i64 {
            let row = vec![
                Value::Date(9000 + (i * 7 % 5) as i32),
                Value::I64(i * 11 % 4 - 2),
                Value::Str(labels[(i * 13 % 7) as usize].into()),
                Value::F64(i as f64),
            ];
            tb.append(&row).unwrap();
            rows.push(row);
        }
        let t = Arc::new(tb.finish());
        assert!(t.num_blocks() > 1);
        for group_by in [vec![0, 1, 2], vec![2, 0, 1], vec![1, 2], vec![2]] {
            let width = group_by.len();
            let got = run_agg(&t, group_by.clone(), vec![AggSpec::count_star()], &["n"]);
            // Reference: the distinct decoded group tuples in value order.
            let mut want: Vec<Vec<Value>> = t
                .blocks()
                .iter()
                .flat_map(|b| b.all_rows())
                .map(|r| group_by.iter().map(|&c| r[c].clone()).collect())
                .collect();
            want.sort_by(|a, b| crate::engine::cmp_value_rows(a, b));
            want.dedup();
            let keys: Vec<Vec<Value>> = got.iter().map(|r| r[..width].to_vec()).collect();
            assert_eq!(keys, want, "group by {group_by:?}");
            let total: i64 = got.iter().map(|r| r[width].as_i64()).sum();
            assert_eq!(total, rows.len() as i64);
        }
    }
}
