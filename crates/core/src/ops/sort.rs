//! Sort: a blocking operator (Section V-B: "sort-based operations are
//! typically blocking and generally not amenable to pipelining").
//!
//! Input blocks are collected as they arrive; one finalize work order sorts
//! a permutation of `(block, row)` references under the typed
//! [`RowOrder`], keeping only the top k when a `LIMIT` is set, and gathers
//! the result through the operator's bulk output copy. No row is decoded
//! into `Value`s.

use crate::error::EngineError;
use crate::ops::row_order::{gather, RowOrder, RowRef};
use crate::output::Produced;
use crate::plan::OperatorKind;
use crate::state::ExecContext;
use crate::Result;
use uot_storage::{ColumnBlock, StorageBlock};

/// Run the sort finalize work order.
pub fn execute(ctx: &ExecContext, op: usize) -> Result<Produced> {
    let (keys, limit) = match &ctx.plan.op(op).kind {
        OperatorKind::Sort { keys, limit, .. } => (keys, *limit),
        other => {
            return Err(EngineError::Internal(format!(
                "sort finalize on {}",
                other.kind_label()
            )))
        }
    };
    let blocks = std::mem::take(&mut *ctx.runtimes[op].collected.lock());
    let mut refs: Vec<RowRef> = Vec::with_capacity(blocks.iter().map(|b| b.num_rows()).sum());
    for (b, block) in blocks.iter().enumerate() {
        // The finalize touches the whole input: honor cancellation between
        // collected blocks.
        ctx.check_cancelled()?;
        refs.extend((0..block.num_rows() as u32).map(|r| (b as u32, r)));
    }
    let schema = &ctx.plan.op(op).out_schema;
    let order = RowOrder::new(&blocks, schema, keys);
    let cmp = |a: &RowRef, b: &RowRef| order.cmp(*a, *b);
    match limit {
        Some(0) => refs.clear(),
        // Top k: partition the k smallest to the front, then sort only them.
        Some(k) if k < refs.len() => {
            refs.select_nth_unstable_by(k - 1, cmp);
            refs.truncate(k);
        }
        _ => {}
    }
    // `RowOrder` is total (it ends on the reference), so an unstable sort
    // yields the stable order.
    refs.sort_unstable_by(cmp);
    let cols = gather(&blocks, &refs, schema);
    let virt = StorageBlock::Column(ColumnBlock::from_columns(schema.clone(), cols, refs.len())?);
    crate::ops::write_output(ctx, op, &virt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::into_blocks;
    use crate::plan::{PlanBuilder, SortKey, Source};
    use std::cmp::Ordering;
    use std::sync::Arc;
    use uot_storage::{
        BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder, Value,
    };

    fn table(vals: &[(i32, f64)]) -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
        let mut tb = TableBuilder::new("t", s, BlockFormat::Column, 64);
        for &(k, v) in vals {
            tb.append(&[Value::I32(k), Value::F64(v)]).unwrap();
        }
        Arc::new(tb.finish())
    }

    fn run_sort(t: &Arc<Table>, keys: Vec<SortKey>, limit: Option<usize>) -> Vec<Vec<Value>> {
        run_sort_blocks(t, t.blocks().to_vec(), keys, limit)
    }

    /// Sort `blocks` (of `t`'s schema) as the input of a sort over `t`.
    fn run_sort_blocks(
        t: &Arc<Table>,
        blocks: Vec<Arc<StorageBlock>>,
        keys: Vec<SortKey>,
        limit: Option<usize>,
    ) -> Vec<Vec<Value>> {
        let mut pb = PlanBuilder::new();
        let s = pb.sort(Source::Table(t.clone()), keys, limit).unwrap();
        let plan = Arc::new(pb.build(s).unwrap());
        let pool = BlockPool::new(MemoryTracker::new());
        let ctx = ExecContext::new(plan, pool, BlockFormat::Row, 1 << 12).unwrap();
        // scheduler would do this routing:
        ctx.runtimes[s].collected.lock().extend(blocks);
        let mut rows = Vec::new();
        for b in into_blocks(execute(&ctx, s).unwrap(), &ctx.pool).unwrap() {
            rows.extend(b.all_rows());
        }
        for b in into_blocks(ctx.output(s).flush(&ctx.pool), &ctx.pool).unwrap() {
            rows.extend(b.all_rows());
        }
        rows
    }

    #[test]
    fn ascending_and_descending() {
        let t = table(&[(3, 1.0), (1, 2.0), (2, 0.5), (1, 1.0)]);
        let rows = run_sort(&t, vec![SortKey::asc(0)], None);
        let ks: Vec<i32> = rows.iter().map(|r| r[0].as_i32()).collect();
        assert_eq!(ks, vec![1, 1, 2, 3]);

        let rows = run_sort(&t, vec![SortKey::desc(1)], None);
        let vs: Vec<f64> = rows.iter().map(|r| r[1].as_f64()).collect();
        assert_eq!(vs, vec![2.0, 1.0, 1.0, 0.5]);
    }

    #[test]
    fn compound_keys() {
        let t = table(&[(1, 5.0), (2, 1.0), (1, 1.0), (2, 5.0)]);
        let rows = run_sort(&t, vec![SortKey::asc(0), SortKey::desc(1)], None);
        let pairs: Vec<(i32, f64)> = rows
            .iter()
            .map(|r| (r[0].as_i32(), r[1].as_f64()))
            .collect();
        assert_eq!(pairs, vec![(1, 5.0), (1, 1.0), (2, 5.0), (2, 1.0)]);
    }

    #[test]
    fn limit_truncates() {
        let t = table(&[(5, 0.0), (3, 0.0), (4, 0.0), (1, 0.0), (2, 0.0)]);
        let rows = run_sort(&t, vec![SortKey::asc(0)], Some(3));
        let ks: Vec<i32> = rows.iter().map(|r| r[0].as_i32()).collect();
        assert_eq!(ks, vec![1, 2, 3]);
    }

    #[test]
    fn empty_input() {
        let t = table(&[]);
        let rows = run_sort(&t, vec![SortKey::asc(0)], None);
        assert!(rows.is_empty());
    }

    #[test]
    fn ties_are_deterministic() {
        // equal keys: full-row tiebreak orders by remaining column
        let t = table(&[(1, 9.0), (1, 3.0), (1, 6.0)]);
        let rows = run_sort(&t, vec![SortKey::asc(0)], None);
        let vs: Vec<f64> = rows.iter().map(|r| r[1].as_f64()).collect();
        assert_eq!(vs, vec![3.0, 6.0, 9.0]);
    }

    #[test]
    fn limit_zero_and_limit_past_the_input() {
        let t = table(&[(2, 0.0), (1, 0.0), (3, 0.0)]);
        assert!(run_sort(&t, vec![SortKey::asc(0)], Some(0)).is_empty());
        let rows = run_sort(&t, vec![SortKey::desc(0)], Some(7));
        let ks: Vec<i32> = rows.iter().map(|r| r[0].as_i32()).collect();
        assert_eq!(ks, vec![3, 2, 1]);
    }

    #[test]
    fn char_keys_ignore_trailing_whitespace_like_decoded_values() {
        // Decoded, "b\t" and "b " are both "b": equal keys, so the second
        // column decides, as it would between the decoded rows.
        let s = Schema::from_pairs(&[("s", DataType::Char(4)), ("k", DataType::Int32)]);
        let mut tb = TableBuilder::new("c", s, BlockFormat::Row, 64);
        for (v, k) in [("b\t", 2), ("ab", 0), ("b ", 1), ("a", 3), ("b\u{a0}", 4)] {
            tb.append(&[Value::Str(v.into()), Value::I32(k)]).unwrap();
        }
        let t = Arc::new(tb.finish());
        let rows = run_sort(&t, vec![SortKey::asc(0)], None);
        let ks: Vec<i32> = rows.iter().map(|r| r[1].as_i32()).collect();
        // "b\u{a0}" is not ASCII: decoding trims the no-break space too.
        assert_eq!(ks, vec![3, 0, 1, 2, 4]);
    }

    /// The sort order before the typed sort: keys, then the decoded row.
    fn compare_rows(a: &[Value], b: &[Value], keys: &[SortKey]) -> Ordering {
        for k in keys {
            let ord = a[k.col].partial_cmp(&b[k.col]).unwrap_or(Ordering::Equal);
            let ord = if k.desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        crate::engine::cmp_value_rows(a, b)
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn schema() -> Arc<Schema> {
            Schema::from_pairs(&[
                ("i", DataType::Int32),
                ("l", DataType::Int64),
                ("f", DataType::Float64),
                ("d", DataType::Date),
                ("s", DataType::Char(5)),
            ])
        }

        /// Rows drawn from small domains, so keys tie often; strings may end
        /// in spaces or a tab, and floats include both zeros.
        fn row() -> impl Strategy<Value = Vec<Value>> {
            (
                -3i32..3,
                -2i64..2,
                prop_oneof![
                    Just(0.0),
                    Just(-0.0),
                    Just(1.5),
                    Just(-2.25),
                    Just(f64::MAX),
                    Just(f64::MIN_POSITIVE),
                    -1e6f64..1e6,
                ],
                9000i32..9004,
                proptest::collection::vec(prop_oneof![Just('a'), Just('b')], 0..4),
                proptest::collection::vec(prop_oneof![Just(' '), Just('\t')], 0..3),
            )
                .prop_map(|(i, l, f, d, body, tail)| {
                    let s: String = body.into_iter().chain(tail).collect();
                    vec![
                        Value::I32(i),
                        Value::I64(l),
                        Value::F64(f),
                        Value::Date(d),
                        Value::Str(s),
                    ]
                })
        }

        /// Blocks of random sizes over `rows`, each in a random format.
        fn blocks(rows: &[Vec<Value>], cuts: &[(usize, bool)]) -> Vec<Arc<StorageBlock>> {
            let mut out = Vec::new();
            let (mut i, mut c) = (0, 0);
            while i < rows.len() {
                let (n, row_format) = cuts[c % cuts.len()];
                let n = n.min(rows.len() - i);
                let format = if row_format {
                    BlockFormat::Row
                } else {
                    BlockFormat::Column
                };
                let mut b = StorageBlock::new(schema(), format, 1 << 12).unwrap();
                for r in &rows[i..i + n] {
                    assert!(b.append_row(r).unwrap());
                }
                out.push(Arc::new(b));
                i += n;
                c += 1;
            }
            out
        }

        proptest! {
            #[test]
            fn typed_sort_equals_the_value_row_sort(
                rows in proptest::collection::vec(row(), 0..120),
                keys in proptest::collection::vec((0usize..5, any::<bool>()), 1..4),
                cuts in proptest::collection::vec((1usize..40, any::<bool>()), 1..6),
                limit_pick in 0u8..5,
                k in 2usize..200,
            ) {
                let n = rows.len();
                let limit = match limit_pick {
                    0 => None,
                    1 => Some(0),
                    2 => Some(1),
                    3 => Some(k % n.max(1)), // k < n (0 when n ≤ 1)
                    _ => Some(n + k % 3),   // k ≥ n
                };
                let keys: Vec<SortKey> = keys
                    .into_iter()
                    .map(|(col, desc)| SortKey { col, desc })
                    .collect();
                let input = blocks(&rows, &cuts);
                let t = Arc::new(TableBuilder::new("p", schema(), BlockFormat::Column, 1 << 12).finish());
                let got = run_sort_blocks(&t, input.clone(), keys.clone(), limit);

                let mut want: Vec<Vec<Value>> = input.iter().flat_map(|b| b.all_rows()).collect();
                want.sort_by(|a, b| compare_rows(a, b, &keys));
                if let Some(k) = limit {
                    want.truncate(k);
                }
                prop_assert_eq!(got, want);
            }
        }
    }
}
