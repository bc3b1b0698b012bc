//! Hash aggregation: pooled partials plus a partitioned finalize.
//!
//! Each stream work order checks a partial out of the operator's pool (or
//! creates one), folds its block in column-at-a-time and returns it — no
//! synchronization on the hot path beyond the checkout. A block is folded in
//! three passes: the argument expressions are evaluated by one
//! [`Evaluator`], which computes every distinct subtree once and borrows a
//! column block's slices for bare columns, one pass over the key hashes
//! assigns dense group ids, and one scatter pass per aggregate updates the
//! states by group id.
//!
//! Once every stream work order has finished, the scheduler freezes the
//! pooled partials (at most one per concurrent work order) into a shared,
//! read-only set and splits the finalize into `P` partitions by key range
//! (see [`ops`](crate::ops)). Groups order by a normalized key — each
//! integer or date value with its sign bit flipped, the fields concatenated
//! big-endian into a `u64` or `u128` — when the group columns pack into 128
//! bits, and by the typed row order then the stored key otherwise (`Char`
//! columns, wider keys). The freeze sorts a small fixed-stride sample of the
//! groups in that order and takes `P − 1` of them as splitters. Partition
//! `p` takes the groups of every partial between its two splitters and
//! orders them; a group in several partials then sits in one run of
//! adjacent references, whose states the partition merges and finishes
//! straight into typed output columns. The ranges are in group order, so
//! the last partition to finish emits every partition's groups in
//! partition order through the operator's bulk output copy, with no merge.
//! This is the standard parallel-aggregation shape of block-based engines
//! like Quickstep.

use crate::error::EngineError;
use crate::ops::row_order::{RowOrder, RowRef};
use crate::output::Produced;
use crate::plan::OperatorKind;
use crate::state::{AggPartial, ExecContext, FrozenPartial};
use crate::work_order::FinalizeInput;
use crate::Result;
use std::cmp::Ordering;
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::ops::RangeBounds;
use std::sync::Arc;
use uot_expr::{AggFunc, AggSpec, AggState, Evaluator, Rows};
use uot_storage::{ColumnBlock, ColumnData, DataType, HashKey, Schema, StorageBlock, Value};

/// Fold one input block into a pooled partial.
pub fn execute_block(ctx: &ExecContext, op: usize, block: &Arc<StorageBlock>) -> Result<Produced> {
    let (group_by, aggs) = spec(ctx, op)?;
    let n = block.num_rows();
    if n == 0 {
        return Ok(Vec::new());
    }

    // Evaluate each argument once over the whole block, sharing equal
    // subtrees: Q1's seven aggregate arguments are five distinct
    // expressions, and `price * (1 - disc)` is computed once for two of
    // them. Bare columns borrow a column block's slices.
    let mut args = Evaluator::new(block, Rows::All);
    let mut arg_of: Vec<Option<usize>> = Vec::with_capacity(aggs.len());
    for spec in aggs {
        arg_of.push(match (spec.func, &spec.arg) {
            (AggFunc::CountStar, _) => None,
            (_, Some(e)) => Some(args.eval(e)?),
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
                Some(c) => state.update_column(&args.get(*c).column(n))?,
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
                Some(c) => {
                    AggState::update_scatter(partial.states_mut(i), gids, &args.get(*c).column(n))
                }
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

/// Groups sampled, at a fixed stride over every partial's groups, to pick
/// the splitters of an aggregate's finalize partitions.
const SPLITTER_SAMPLE: usize = 256;

/// An aggregate's pooled partials, frozen once its stream work was over,
/// and the splitters that give each finalize partition a key range.
#[derive(Debug, Default)]
pub struct FrozenGroups {
    partials: Vec<FrozenPartial>,
    /// `parts − 1` sampled groups in group order: partition `p` takes the
    /// groups at or above splitter `p − 1` and below splitter `p`. Every
    /// copy of one group compares alike, so it lands in one partition.
    splitters: Vec<RowRef>,
}

/// Freeze the pooled partials of aggregate `op` once every stream work order
/// has finished, and split its finalize into the partitions `split` gives
/// for its group count (a group counted once per partial it is in).
pub(crate) fn freeze(
    ctx: &ExecContext,
    op: usize,
    split: impl FnOnce(usize) -> usize,
) -> Result<(FinalizeInput, usize)> {
    let (group_by, aggs) = spec(ctx, op)?;
    let mut partials = std::mem::take(&mut *ctx.runtimes[op].agg_partials.lock());
    // SQL semantics: a scalar aggregate over zero rows still yields one row.
    if group_by.is_empty() && partials.is_empty() {
        let mut empty = new_partial(ctx, op, group_by, aggs);
        empty.scalar_group();
        partials.push(empty);
    }
    let parts = split(partials.iter().map(AggPartial::group_count).sum());
    let schema = group_schema(ctx, op, group_by.len());
    let partials: Vec<FrozenPartial> = (partials.into_iter())
        .map(|p| p.freeze(schema.clone()))
        .collect();
    let splitters = match parts {
        1 => Vec::new(),
        _ => splitters(&partials, &schema, parts),
    };
    let frozen = FrozenGroups {
        partials,
        splitters,
    };
    Ok((FinalizeInput::Aggregate(Arc::new(frozen)), parts))
}

/// `parts − 1` splitters for `partials`, whose group columns have schema
/// `schema`: a fixed-stride sample of their groups, sorted in group order,
/// cut at even steps. None when there is no group.
fn splitters(partials: &[FrozenPartial], schema: &Schema, parts: usize) -> Vec<RowRef> {
    let n: usize = partials.iter().map(|p| p.keys.len()).sum();
    let stride = n.div_ceil(SPLITTER_SAMPLE).max(1);
    let mut sample: Vec<RowRef> = all_groups(partials).step_by(stride).collect();
    if packed_bits(schema).is_some() {
        let cols = packed_columns(partials);
        sample.sort_unstable_by_key(|&r| packed_key(&cols, r));
    } else {
        let blocks = group_blocks(partials);
        let rows = RowGroups::new(&blocks, schema, partials);
        sample.sort_unstable_by(|&a, &b| rows.cmp_group(a, b));
    }
    (1..parts)
        .filter_map(|k| sample.get(k * sample.len() / parts).copied())
        .collect()
}

/// Finalize partition `part` of `parts` of aggregate `op`: order the groups
/// in the partition's key range, merge each group's states across the
/// partials and finish them into typed columns. The last partition to
/// finish emits every partition's groups, in partition order, through the
/// operator's bulk output copy.
pub(crate) fn execute_finalize(
    ctx: &ExecContext,
    op: usize,
    part: usize,
    parts: usize,
    frozen: &FrozenGroups,
) -> Result<Produced> {
    let (group_by, _) = spec(ctx, op)?;
    let schema = &ctx.plan.op(op).out_schema;
    let group_schema = group_schema(ctx, op, group_by.len());
    let partials = &frozen.partials[..];
    // Partition `part`'s bounds: at or above the splitter before it, below
    // its own. (With no group at all there are no splitters, and nothing to
    // bound.)
    let lo = part.checked_sub(1).and_then(|i| frozen.splitters.get(i));
    let hi = frozen.splitters.get(part);
    let width = group_by.len();
    let cols = match packed_bits(&group_schema) {
        Some(bits) => {
            let cols = packed_columns(partials);
            let key = |r: RowRef| packed_key(&cols, r);
            if bits <= 64 {
                let entries = order_packed(partials, parts, (lo, hi), |r| key(r) as u64);
                ctx.check_cancelled()?;
                finish_runs(partials, &entries, |a, b| a.0 == b.0, schema, width)?
            } else {
                let entries = order_packed(partials, parts, (lo, hi), key);
                ctx.check_cancelled()?;
                finish_runs(partials, &entries, |a, b| a.0 == b.0, schema, width)?
            }
        }
        None => {
            let blocks = group_blocks(partials);
            let rows = RowGroups::new(&blocks, &group_schema, partials);
            let within = |&((), r): &((), RowRef)| {
                lo.is_none_or(|&l| rows.cmp_group(r, l).is_ge())
                    && hi.is_none_or(|&h| rows.cmp_group(r, h).is_lt())
            };
            let all = all_groups(partials).map(|r| ((), r));
            let mut entries = keep_in_range(all, parts, within);
            entries.sort_unstable_by(|a, b| rows.cmp(a.1, b.1));
            ctx.check_cancelled()?;
            let same = |a: &((), RowRef), b: &((), RowRef)| rows.key(a.1) == rows.key(b.1);
            finish_runs(partials, &entries, same, schema, width)?
        }
    };
    let Some(runs) = ctx.runtimes[op].agg_runs.finish(part, parts, cols) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for cols in runs {
        let n = cols.first().map_or(0, ColumnData::len);
        let written = ColumnBlock::from_columns(schema.clone(), cols, n)
            .map_err(EngineError::from)
            .and_then(|run| crate::ops::write_output(ctx, op, &StorageBlock::Column(run)));
        match written {
            Ok(blocks) => out.extend(blocks),
            Err(e) => {
                let store = ctx.pool.spill_store();
                for slot in out {
                    slot.discard(ctx.pool.tracker(), store.as_deref());
                }
                return Err(e);
            }
        }
    }
    Ok(out)
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

/// The order of groups whose values do not pack into a normalized key (a
/// `Char` column, or more than 128 bits): the typed row order over the group
/// values, then the stored key — so the same group from several partials
/// sorts adjacent even where distinct keys decode alike (`Char` values that
/// differ only in trailing whitespace) — then, within a partition, the
/// reference, so a group's states merge in partial order.
struct RowGroups<'a> {
    order: RowOrder<'a>,
    partials: &'a [FrozenPartial],
}

impl<'a> RowGroups<'a> {
    fn new(
        blocks: &'a [Arc<StorageBlock>],
        schema: &Schema,
        partials: &'a [FrozenPartial],
    ) -> Self {
        RowGroups {
            order: RowOrder::new(blocks, schema, &[]),
            partials,
        }
    }

    fn key(&self, (p, g): RowRef) -> &HashKey {
        &self.partials[p as usize].keys[g as usize]
    }

    /// The group order, with no reference tiebreak: every copy of one group
    /// compares equal, which keeps a group on one side of each splitter.
    fn cmp_group(&self, a: RowRef, b: RowRef) -> Ordering {
        self.order
            .cmp_fields(a, b)
            .then_with(|| self.key(a).cmp(self.key(b)))
    }

    fn cmp(&self, a: RowRef, b: RowRef) -> Ordering {
        self.cmp_group(a, b).then(a.cmp(&b))
    }
}

/// The group-value blocks of `partials`, in partial order.
fn group_blocks(partials: &[FrozenPartial]) -> Vec<Arc<StorageBlock>> {
    partials.iter().map(|p| p.groups.clone()).collect()
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

/// Every group of `partials` as `(partial, group id)`, partial by partial.
fn all_groups(partials: &[FrozenPartial]) -> impl Iterator<Item = RowRef> + '_ {
    (partials.iter().enumerate())
        .flat_map(|(p, partial)| (0..partial.keys.len() as u32).map(move |g| (p as u32, g)))
}

/// The entries of `all` in a partition's key range (`within`), or all of
/// them when the finalize has one partition, which then does no per-group
/// check.
fn keep_in_range<T>(
    all: impl Iterator<Item = T>,
    parts: usize,
    within: impl FnMut(&T) -> bool,
) -> Vec<T> {
    match parts {
        1 => all.collect(),
        _ => all.filter(within).collect(),
    }
}

/// The group-value columns of each partial, for [`packed_key`].
fn packed_columns(partials: &[FrozenPartial]) -> Vec<Vec<&ColumnData>> {
    partials
        .iter()
        .map(|p| group_columns(p).collect())
        .collect()
}

/// The normalized key of group `(p, g)` of the partials' group columns
/// `cols`: each value mapped to the unsigned integer of its width that
/// orders alike (its sign bit flipped), the fields concatenated big-endian.
/// Integer order is then group-value order, and distinct groups get
/// distinct keys.
fn packed_key(cols: &[Vec<&ColumnData>], (p, g): RowRef) -> u128 {
    let g = g as usize;
    cols[p as usize].iter().fold(0, |k, col| match col {
        ColumnData::I32(v) | ColumnData::Date(v) => k << 32 | u128::from(v[g] as u32 ^ 1 << 31),
        ColumnData::I64(v) => k << 64 | u128::from(v[g] as u64 ^ 1 << 63),
        other => unreachable!("packed group key over {other:?}"),
    })
}

/// The groups at or above `lo` and below `hi` (every group for a finalize
/// of one of `parts`) with their normalized keys, narrowed to `K` by `key`,
/// in key order.
fn order_packed<K: Ord + Copy>(
    partials: &[FrozenPartial],
    parts: usize,
    (lo, hi): (Option<&RowRef>, Option<&RowRef>),
    key: impl Fn(RowRef) -> K,
) -> Vec<(K, RowRef)> {
    let lo = lo.map_or(Unbounded, |&r| Included(key(r)));
    let hi = hi.map_or(Unbounded, |&r| Excluded(key(r)));
    let all = all_groups(partials).map(|r| (key(r), r));
    let mut entries = keep_in_range(all, parts, |(k, _)| (lo, hi).contains(k));
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
/// in; a one-member run is not cloned) and finalized into typed columns.
/// Returns the output columns: group values from each run's first
/// reference, then the aggregates.
fn finish_runs<K: Copy>(
    partials: &[FrozenPartial],
    entries: &[(K, RowRef)],
    same: impl Fn(&(K, RowRef), &(K, RowRef)) -> bool,
    schema: &Schema,
    width: usize,
) -> Result<Vec<ColumnData>> {
    let mut aggs: Vec<ColumnData> = (width..schema.len())
        .map(|c| ColumnData::with_capacity(schema.dtype(c), entries.len()))
        .collect();
    let mut firsts = Vec::with_capacity(entries.len());
    let mut start = 0;
    while start < entries.len() {
        let end = (start + 1..entries.len())
            .find(|&i| !same(&entries[i - 1], &entries[i]))
            .unwrap_or(entries.len());
        let first = entries[start].1;
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
    Ok(cols)
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

    /// Run aggregate `op`'s finalize as `parts` partitions, last first,
    /// and flush: the emitted rows.
    fn finalize_rows(ctx: &ExecContext, op: usize, parts: usize) -> Vec<Vec<Value>> {
        let mut done = crate::ops::finalize_parts_in_turn(ctx, op, parts).unwrap();
        done.extend(ctx.output(op).flush(&ctx.pool));
        let blocks = crate::output::into_blocks(done, &ctx.pool).unwrap();
        blocks.iter().flat_map(|b| b.all_rows()).collect()
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
            assert!(ctx.runtimes[a].agg_runs.is_empty());
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
