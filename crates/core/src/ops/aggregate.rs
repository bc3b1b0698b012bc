//! Hash aggregation: pooled partials plus a partitioned finalize.
//!
//! Each stream work order checks a partial out of the operator's pool (or
//! creates one), folds its block in column-at-a-time and returns it — no
//! synchronization on the hot path beyond the checkout. A block is folded in
//! three passes: every distinct argument expression is evaluated once, one
//! pass over the key hashes assigns dense group ids, and one scatter pass per
//! aggregate updates the states by group id.
//!
//! Once every stream work order has finished, the scheduler [`freeze`]s the
//! pooled partials (at most one per concurrent work order) into a shared,
//! read-only set and splits the finalize into `P` work orders, one per
//! worker but at most one per [`FINALIZE_FLOOR`] groups. Partition `p` takes
//! the groups whose stored hash maps to `p`, in every partial, and orders
//! them by group value: by a normalized key — each integer or date value
//! with its sign bit flipped, the fields concatenated big-endian into a
//! `u64` or `u128` — when the group columns pack into 128 bits, and by the
//! typed [`RowOrder`] with the stored key as tiebreak otherwise (`Char`
//! columns, wider keys). A group in several partials then sits in one run of
//! adjacent references; the partition merges each run's states and finishes
//! them straight into typed output columns. The last partition to finish
//! merges the `P` ordered runs into one group order and emits it once
//! through the operator's bulk output copy. This is the standard
//! parallel-aggregation shape of block-based engines like Quickstep.

use crate::error::EngineError;
use crate::ops::row_order::{RowOrder, RowRef};
use crate::plan::OperatorKind;
use crate::state::{AggPartial, ExecContext, FrozenPartial};
use crate::Result;
use std::cmp::Ordering;
use std::sync::Arc;
use uot_expr::{AggFunc, AggSpec, AggState, ScalarExpr};
use uot_storage::{ColumnBlock, ColumnData, DataType, HashKey, Schema, StorageBlock, Value};

/// Fold one input block into a pooled partial.
pub fn execute_block(
    ctx: &ExecContext,
    op: usize,
    block: &Arc<StorageBlock>,
) -> Result<Vec<StorageBlock>> {
    let (group_by, aggs) = spec(ctx, op)?;
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

/// Groups per finalize partition below which another partition costs more
/// than it saves. An aggregate whose partials hold `n` groups in all (a group
/// counted once per partial it is in) splits its finalize into
/// `min(workers, n / FINALIZE_FLOOR)` partitions, at least one — so a scalar
/// or small aggregate keeps a single finalize work order.
pub const FINALIZE_FLOOR: usize = 4096;

/// Freeze the pooled partials of aggregate `op` once every stream work order
/// has finished, and split its finalize for `workers` workers: the partials,
/// shared read-only by the partitions, and the partition count.
pub fn freeze(
    ctx: &ExecContext,
    op: usize,
    workers: usize,
) -> Result<(Arc<[FrozenPartial]>, usize)> {
    let (group_by, aggs) = spec(ctx, op)?;
    let mut partials = std::mem::take(&mut *ctx.runtimes[op].agg_partials.lock());
    // SQL semantics: a scalar aggregate over zero rows still yields one row.
    if group_by.is_empty() && partials.is_empty() {
        let mut empty = new_partial(ctx, op, group_by, aggs);
        empty.scalar_group();
        partials.push(empty);
    }
    let groups: usize = partials.iter().map(AggPartial::group_count).sum();
    let parts = workers.min(groups / FINALIZE_FLOOR).max(1);
    let schema = group_schema(ctx, op, group_by.len());
    let frozen = partials
        .into_iter()
        .map(|p| p.freeze(schema.clone()))
        .collect();
    Ok((frozen, parts))
}

/// Finalize partition `part` of `parts` of aggregate `op`: order the groups
/// whose hash falls in the partition, merge each group's states across
/// `partials` and finish them into typed columns. The last partition to
/// finish merges every partition's ordered groups into one group order and
/// emits them through the operator's bulk output copy.
pub fn execute_finalize(
    ctx: &ExecContext,
    op: usize,
    part: usize,
    parts: usize,
    partials: &[FrozenPartial],
) -> Result<Vec<StorageBlock>> {
    let (group_by, _) = spec(ctx, op)?;
    let schema = &ctx.plan.op(op).out_schema;
    let group_schema = group_schema(ctx, op, group_by.len());
    let blocks: Vec<Arc<StorageBlock>> = partials.iter().map(|p| p.groups.clone()).collect();
    let rows = RowGroups {
        order: RowOrder::new(&blocks, &group_schema, &[]),
        partials,
    };
    let width = group_by.len();
    let run = match packed_bits(&group_schema) {
        Some(bits) if bits <= 64 => {
            let entries = order_packed(partials, part, parts, |k| k as u64);
            ctx.check_cancelled()?;
            let (cols, _, keys) =
                finish_runs(partials, &entries, |a, b| a.0 == b.0, schema, width)?;
            GroupRun {
                cols,
                keys: RunKeys::Bits64(keys),
            }
        }
        Some(_) => {
            let entries = order_packed(partials, part, parts, |k| k);
            ctx.check_cancelled()?;
            let (cols, _, keys) =
                finish_runs(partials, &entries, |a, b| a.0 == b.0, schema, width)?;
            GroupRun {
                cols,
                keys: RunKeys::Bits128(keys),
            }
        }
        None => {
            let mut entries: Vec<((), RowRef)> = in_partition(partials, part, parts)
                .map(|r| ((), r))
                .collect();
            entries.sort_unstable_by(|a, b| rows.cmp(a.1, b.1));
            ctx.check_cancelled()?;
            let same = |a: &((), RowRef), b: &((), RowRef)| rows.key(a.1) == rows.key(b.1);
            let (cols, firsts, _) = finish_runs(partials, &entries, same, schema, width)?;
            GroupRun {
                cols,
                keys: RunKeys::Rows(firsts),
            }
        }
    };
    let runs = {
        let mut done = ctx.runtimes[op].agg_runs.lock();
        done.push((part, run));
        if done.len() < parts {
            return Ok(Vec::new());
        }
        std::mem::take(&mut *done)
    };
    let cols = merge_runs(runs, &rows, schema);
    let n = cols.first().map_or(0, ColumnData::len);
    let virt = StorageBlock::Column(ColumnBlock::from_columns(schema.clone(), cols, n)?);
    crate::ops::write_output(ctx, op, &virt)
}

/// The group-by columns and aggregates of aggregate `op`.
fn spec(ctx: &ExecContext, op: usize) -> Result<(&[usize], &[AggSpec])> {
    match &ctx.plan.op(op).kind {
        OperatorKind::Aggregate { group_by, aggs, .. } => Ok((group_by, aggs)),
        other => Err(EngineError::Internal(format!(
            "aggregate work order on {}",
            other.kind_label()
        ))),
    }
}

/// The schema of aggregate `op`'s `width` group-value columns.
fn group_schema(ctx: &ExecContext, op: usize, width: usize) -> Arc<Schema> {
    ctx.plan
        .op(op)
        .out_schema
        .project(&(0..width).collect::<Vec<_>>())
}

/// The partition of `parts` a group with key hash `hash` belongs to: the
/// hash's upper half scaled into `0..parts`.
fn partition_of(hash: u64, parts: usize) -> usize {
    (((hash >> 32) * parts as u64) >> 32) as usize
}

/// One finalize partition's groups in group order: the output columns
/// (group values, then each aggregate's final value) and, per group, the key
/// the final merge orders the partitions' groups by.
#[derive(Debug)]
pub struct GroupRun {
    cols: Vec<ColumnData>,
    keys: RunKeys,
}

/// Per group of a [`GroupRun`], what orders it among every partition's
/// groups.
#[derive(Debug)]
enum RunKeys {
    /// The packed normalized key (see [`packed_keys`]), up to 64 bits.
    Bits64(Vec<u64>),
    /// The packed normalized key, 65 to 128 bits.
    Bits128(Vec<u128>),
    /// The group's first `(partial, group id)`, ordered by [`RowGroups`].
    Rows(Vec<RowRef>),
}

impl RunKeys {
    fn bits64(&self) -> &[u64] {
        match self {
            RunKeys::Bits64(k) => k,
            _ => unreachable!("every partition of an aggregate orders its groups alike"),
        }
    }

    fn bits128(&self) -> &[u128] {
        match self {
            RunKeys::Bits128(k) => k,
            _ => unreachable!("every partition of an aggregate orders its groups alike"),
        }
    }

    fn rows(&self) -> &[RowRef] {
        match self {
            RunKeys::Rows(k) => k,
            _ => unreachable!("every partition of an aggregate orders its groups alike"),
        }
    }
}

/// The order of groups whose values do not pack into a normalized key (a
/// `Char` column, or more than 128 bits): the typed row order over the group
/// values, then the stored key — so the same group from several partials
/// sorts adjacent even where distinct keys decode alike (`Char` values that
/// differ only in trailing whitespace) — then the reference, so a group's
/// states merge in partial order.
struct RowGroups<'a> {
    order: RowOrder<'a>,
    partials: &'a [FrozenPartial],
}

impl RowGroups<'_> {
    fn key(&self, (p, g): RowRef) -> &HashKey {
        &self.partials[p as usize].keys[g as usize]
    }

    fn cmp(&self, a: RowRef, b: RowRef) -> Ordering {
        self.order
            .cmp_fields(a, b)
            .then_with(|| self.key(a).cmp(self.key(b)))
            .then(a.cmp(&b))
    }
}

/// Bits of the normalized key over group columns of `schema`, or `None` when
/// a column is neither an integer nor a date, or they need more than 128.
fn packed_bits(schema: &Schema) -> Option<u32> {
    let mut bits = 0;
    for c in 0..schema.len() {
        bits += match schema.dtype(c) {
            DataType::Int32 | DataType::Date => 32,
            DataType::Int64 => 64,
            DataType::Float64 | DataType::Char(_) => return None,
        };
    }
    (bits <= 128).then_some(bits)
}

/// The `(partial, group id)` of every group of `partials` whose hash falls
/// in partition `part` of `parts`, partial by partial.
fn in_partition(
    partials: &[FrozenPartial],
    part: usize,
    parts: usize,
) -> impl Iterator<Item = RowRef> + '_ {
    partials.iter().enumerate().flat_map(move |(p, partial)| {
        (partial.hashes.iter().enumerate())
            .filter(move |&(_, &h)| partition_of(h, parts) == part)
            .map(move |(g, _)| (p as u32, g as u32))
    })
}

/// The normalized key of group `g` of group columns `cols`: each value
/// mapped to the unsigned integer of its width that orders alike (its sign
/// bit flipped), the fields concatenated big-endian. Integer order is then
/// group-value order, and distinct groups get distinct keys.
fn packed_key(cols: &[&ColumnData], g: usize) -> u128 {
    cols.iter().fold(0, |k, col| match col {
        ColumnData::I32(v) | ColumnData::Date(v) => k << 32 | u128::from(v[g] as u32 ^ 1 << 31),
        ColumnData::I64(v) => k << 64 | u128::from(v[g] as u64 ^ 1 << 63),
        other => unreachable!("packed group key over {other:?}"),
    })
}

/// Partition `part` of `parts`' groups with their normalized keys, narrowed
/// to `K`, in key order.
fn order_packed<K: Ord + Copy>(
    partials: &[FrozenPartial],
    part: usize,
    parts: usize,
    narrow: impl Fn(u128) -> K,
) -> Vec<(K, RowRef)> {
    let cols: Vec<Vec<&ColumnData>> = (partials.iter())
        .map(|p| group_columns(p).collect())
        .collect();
    let mut entries: Vec<(K, RowRef)> = in_partition(partials, part, parts)
        .map(|(p, g)| (narrow(packed_key(&cols[p as usize], g as usize)), (p, g)))
        .collect();
    // The stable sort adapts to presorted runs: each partial lists its
    // groups in first-seen order, which is key order wherever the input is
    // clustered by key, so there it mostly merges runs.
    entries.sort();
    entries
}

/// The group-value columns of a frozen partial.
fn group_columns(partial: &FrozenPartial) -> impl Iterator<Item = &ColumnData> {
    (0..partial.groups.schema().len())
        .map(|c| (partial.groups.column_data(c)).expect("frozen groups are a column block"))
}

/// Walk a partition's `entries` — its references in group order, each with
/// the key that ordered it — run by run: a run is one group's references,
/// one per partial it is in, and `same` holds between adjacent entries of
/// one run. Each run's states are merged (the first cloned, the rest merged
/// in; a one-member run is not cloned) and finalized into typed columns. Returns the output columns (group
/// values from each run's first reference, then the aggregates), and each
/// group's first reference and key.
fn finish_runs<K: Copy>(
    partials: &[FrozenPartial],
    entries: &[(K, RowRef)],
    same: impl Fn(&(K, RowRef), &(K, RowRef)) -> bool,
    schema: &Schema,
    width: usize,
) -> Result<(Vec<ColumnData>, Vec<RowRef>, Vec<K>)> {
    let mut aggs: Vec<ColumnData> = (width..schema.len())
        .map(|c| ColumnData::with_capacity(schema.dtype(c), entries.len()))
        .collect();
    let mut firsts = Vec::with_capacity(entries.len());
    let mut keys = Vec::with_capacity(entries.len());
    let mut start = 0;
    while start < entries.len() {
        let end = (start + 1..entries.len())
            .find(|&i| !same(&entries[i - 1], &entries[i]))
            .unwrap_or(entries.len());
        let (key, first) = entries[start];
        for (a, col) in aggs.iter_mut().enumerate() {
            let state = |(p, g): RowRef| &partials[p as usize].states[a][g as usize];
            let value = match &entries[start + 1..end] {
                [] => state(first).finalize(),
                rest => {
                    let mut merged = state(first).clone();
                    for &(_, r) in rest {
                        merged.merge(state(r));
                    }
                    merged.finalize()
                }
            };
            push_finished(col, value)?;
        }
        firsts.push(first);
        keys.push(key);
        start = end;
    }
    let mut cols: Vec<ColumnData> = (0..width)
        .map(|c| {
            let srcs: Vec<&ColumnData> = (partials.iter())
                .map(|p| {
                    group_columns(p)
                        .nth(c)
                        .expect("a column per group-by column")
                })
                .collect();
            gather_columns(schema.dtype(c), &srcs, &firsts)
        })
        .collect();
    cols.extend(aggs);
    Ok((cols, firsts, keys))
}

/// Merge every partition's ordered groups into one group order: one column
/// per output column. Partitions hold disjoint groups, so this is a merge of
/// the runs by their keys.
fn merge_runs(
    mut runs: Vec<(usize, GroupRun)>,
    rows: &RowGroups,
    schema: &Schema,
) -> Vec<ColumnData> {
    runs.sort_unstable_by_key(|&(part, _)| part);
    let mut runs: Vec<GroupRun> = runs.into_iter().map(|(_, run)| run).collect();
    if runs.len() == 1 {
        return runs.pop().expect("one run").cols;
    }
    let order = match &runs[0].keys {
        RunKeys::Bits64(_) => merge_order(&runs, RunKeys::bits64, u64::cmp),
        RunKeys::Bits128(_) => merge_order(&runs, RunKeys::bits128, u128::cmp),
        RunKeys::Rows(_) => merge_order(&runs, RunKeys::rows, |&a, &b| rows.cmp(a, b)),
    };
    (0..schema.len())
        .map(|c| {
            let srcs: Vec<&ColumnData> = runs.iter().map(|r| &r.cols[c]).collect();
            gather_columns(schema.dtype(c), &srcs, &order)
        })
        .collect()
}

/// Every `(run, group)` of `runs` in the order of their keys (`keys` of
/// each run, ordered by `cmp`). Each run is sorted already, so the
/// run-adaptive stable sort merges them in linear passes.
fn merge_order<'a, K: Copy + 'a>(
    runs: &'a [GroupRun],
    keys: impl Fn(&'a RunKeys) -> &'a [K],
    cmp: impl Fn(&K, &K) -> Ordering,
) -> Vec<(u32, u32)> {
    let mut all: Vec<(K, u32, u32)> = (runs.iter().enumerate())
        .flat_map(|(r, run)| {
            (keys(&run.keys).iter().enumerate()).map(move |(i, &k)| (k, r as u32, i as u32))
        })
        .collect();
    all.sort_by(|a, b| cmp(&a.0, &b.0));
    all.into_iter().map(|(_, r, i)| (r, i)).collect()
}

/// One column of type `dtype` holding row `i` of `srcs[r]`, for every
/// `(r, i)` of `refs` in order, copied in one typed loop.
fn gather_columns(dtype: DataType, srcs: &[&ColumnData], refs: &[RowRef]) -> ColumnData {
    fn pick<T: Copy>(
        srcs: &[&ColumnData],
        view: fn(&ColumnData) -> &[T],
        refs: &[RowRef],
    ) -> Vec<T> {
        let srcs: Vec<&[T]> = srcs.iter().map(|c| view(c)).collect();
        refs.iter()
            .map(|&(r, i)| srcs[r as usize][i as usize])
            .collect()
    }
    match dtype {
        DataType::Int32 => ColumnData::I32(pick(srcs, ColumnData::as_i32, refs)),
        DataType::Date => ColumnData::Date(pick(srcs, ColumnData::as_date, refs)),
        DataType::Int64 => ColumnData::I64(pick(srcs, ColumnData::as_i64, refs)),
        DataType::Float64 => ColumnData::F64(pick(srcs, ColumnData::as_f64, refs)),
        DataType::Char(_) => {
            let mut col = ColumnData::with_capacity(dtype, refs.len());
            if let ColumnData::Char { data, .. } = &mut col {
                for &(r, i) in refs {
                    data.extend_from_slice(srcs[r as usize].char_value(i as usize));
                }
            }
            col
        }
    }
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

    /// Freeze aggregate `op`'s pooled partials, run its finalize as `parts`
    /// partitions — last first, so the merge cannot lean on partition order
    /// — and flush: the emitted rows.
    fn finalize_rows(ctx: &ExecContext, op: usize, parts: usize) -> Vec<Vec<Value>> {
        let (partials, _) = freeze(ctx, op, 1).unwrap();
        let mut rows = Vec::new();
        for part in (0..parts).rev() {
            for b in execute_finalize(ctx, op, part, parts, &partials).unwrap() {
                rows.extend(b.all_rows());
            }
        }
        rows.extend(ctx.output(op).flush().iter().flat_map(|b| b.all_rows()));
        rows
    }

    fn agg_ctx(
        t: &Arc<Table>,
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
        names: &[&str],
    ) -> (ExecContext, usize) {
        let mut pb = PlanBuilder::new();
        let a = pb
            .aggregate(Source::Table(t.clone()), group_by, aggs, names)
            .unwrap();
        let plan = Arc::new(pb.build(a).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1 << 12).unwrap();
        (ctx, a)
    }

    /// Aggregate `t` with one partial and a finalize of one, two and three
    /// partitions; every partition count must emit the same rows.
    fn run_agg(
        t: &Arc<Table>,
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
        names: &[&str],
    ) -> Vec<Vec<Value>> {
        let mut outputs = (1..=3).map(|parts| {
            let (ctx, a) = agg_ctx(t, group_by.clone(), aggs.clone(), names);
            for blk in t.blocks() {
                execute_block(&ctx, a, &blk.clone()).unwrap();
            }
            finalize_rows(&ctx, a, parts)
        });
        let rows = outputs.next().unwrap();
        for (parts, other) in (2..).zip(outputs) {
            assert_eq!(other, rows, "{parts} partitions");
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

        for parts in 1..=3 {
            let (ctx, a) = agg_ctx(&t, vec![0], aggs.clone(), &names);
            let pool = &ctx.runtimes[a].agg_partials;
            // Even blocks go to the partial a first work order created; odd
            // blocks run while that partial is checked out (as by a
            // concurrent work order), so they build a second one. Groups
            // land in both.
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

            let rows = finalize_rows(&ctx, a, parts);
            assert!(pool.lock().is_empty(), "finalize consumes the pool");
            assert!(ctx.runtimes[a].agg_runs.lock().is_empty());
            assert_eq!(rows.len(), groups);
            assert_eq!(
                rows, serial,
                "two merged partials equal one ({parts} partitions)"
            );
        }
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
