//! Property tests for expression evaluation:
//! * vectorized evaluation agrees with the row-at-a-time reference,
//! * predicate bitmaps agree with per-row evaluation,
//! * selection-vector filtering agrees with bitmap evaluation, errors too,
//! * aggregate merge is order-insensitive (parallel partials are sound).

use proptest::prelude::*;
use std::sync::Arc;
use uot_expr::{cmp, col, lit, AggSpec, BinOp, CmpOp, Predicate, ScalarExpr};
use uot_storage::{BlockFormat, DataType, Schema, StorageBlock, Value};

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("a", DataType::Int32),
        ("b", DataType::Float64),
        ("c", DataType::Int64),
        ("d", DataType::Date),
    ])
}

fn block(rows: &[(i32, f64, i64, i32)], format: BlockFormat) -> StorageBlock {
    let mut b = StorageBlock::new(schema(), format, 1 << 20).unwrap();
    for &(a, bb, c, d) in rows {
        b.append_row(&[Value::I32(a), Value::F64(bb), Value::I64(c), Value::Date(d)])
            .unwrap();
    }
    b
}

/// Values of the `tag` column of [`tagged_block`], picked by `a mod 5`.
const TAGS: [&str; 5] = ["A", "AB", "ABC", "B", ""];

/// [`block`] plus a `Char(4)` column `tag` (column 4) for string predicates.
fn tagged_block(rows: &[(i32, f64, i64, i32)], format: BlockFormat) -> StorageBlock {
    let mut cols = schema().columns().to_vec();
    cols.push(uot_storage::Column::new("tag", DataType::Char(4)));
    let mut b = StorageBlock::new(Schema::new(cols), format, 1 << 20).unwrap();
    for &(a, bb, c, d) in rows {
        let tag = TAGS[a.rem_euclid(5) as usize];
        b.append_row(&[
            Value::I32(a),
            Value::F64(bb),
            Value::I64(c),
            Value::Date(d),
            Value::Str(tag.into()),
        ])
        .unwrap();
    }
    b
}

fn arb_rows() -> impl Strategy<Value = Vec<(i32, f64, i64, i32)>> {
    proptest::collection::vec(
        (
            -100i32..100,
            -100.0f64..100.0,
            -1000i64..1000,
            -5000i32..5000,
        ),
        1..60,
    )
}

/// Numeric expressions over columns a (i32), b (f64), c (i64).
fn arb_expr() -> impl Strategy<Value = ScalarExpr> {
    let leaf = prop_oneof![
        Just(col(0)),
        Just(col(1)),
        Just(col(2)),
        (-50i32..50).prop_map(lit),
        (-50.0f64..50.0).prop_map(lit),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (
            inner.clone(),
            inner,
            prop_oneof![Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul)],
        )
            .prop_map(|(l, r, op)| l.bin(op, r))
    })
}

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_pred() -> impl Strategy<Value = Predicate> {
    let leaf = (arb_expr(), arb_op(), arb_expr()).prop_map(|(l, o, r)| cmp(l, o, r));
    combine(leaf.boxed())
}

/// [`arb_pred`]'s leaves plus every shape `Predicate::filter` treats on its
/// own, over [`tagged_block`]: a bare column against a literal of its own
/// type on either side, string predicates on `tag`, and leaves that fail
/// (a date against an integer, integer division by zero, string predicates
/// on a numeric or missing column).
fn arb_filter_pred() -> impl Strategy<Value = Predicate> {
    let typed_literal =
        (0usize..4, arb_op(), -60i32..60, any::<bool>()).prop_map(|(c, o, x, flip)| {
            let v = match c {
                0 => Value::I32(x),
                1 => Value::F64(x as f64 + 0.5),
                2 => Value::I64(x as i64 * 10),
                _ => Value::Date(x * 80),
            };
            if flip {
                cmp(lit(v), o, col(c))
            } else {
                cmp(col(c), o, lit(v))
            }
        });
    let text = prop_oneof![
        Just(""),
        Just("A"),
        Just("AB"),
        Just("B"),
        Just("BC"),
        Just("ABCDE")
    ]
    .prop_map(String::from);
    let string = prop_oneof![
        text.clone()
            .prop_map(|value| Predicate::StrEq { col: 4, value }),
        text.clone()
            .prop_map(|prefix| Predicate::StrStartsWith { col: 4, prefix }),
        text.clone()
            .prop_map(|needle| Predicate::StrContains { col: 4, needle }),
        proptest::collection::vec(text, 0..3)
            .prop_map(|values| Predicate::StrIn { col: 4, values }),
    ];
    let failing = prop_oneof![
        arb_op().prop_map(|o| cmp(col(3), o, lit(7i32))),
        arb_op().prop_map(|o| cmp(col(2).div(col(0)), o, lit(0i64))),
        prop_oneof![Just(0usize), Just(9)].prop_map(|col| Predicate::StrEq {
            col,
            value: "A".into(),
        }),
    ];
    let leaf = (arb_expr(), arb_op(), arb_expr()).prop_map(|(l, o, r)| cmp(l, o, r));
    combine(prop_oneof![leaf, typed_literal, string, failing].boxed())
}

/// `And`/`Or`/`Not` trees over `leaf`.
fn combine(leaf: BoxedStrategy<Predicate>) -> impl Strategy<Value = Predicate> {
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|p| p.negate()),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vectorized_matches_row_eval(
        rows in arb_rows(),
        expr in arb_expr(),
        fmt in prop_oneof![Just(BlockFormat::Row), Just(BlockFormat::Column)],
    ) {
        let b = block(&rows, fmt);
        let vec = expr.eval_all(&b).unwrap();
        for r in 0..b.num_rows() {
            let scalar = expr.eval_row(&b, r).unwrap();
            match (&vec, &scalar) {
                (uot_storage::ColumnData::I64(v), Value::I64(s)) => {
                    prop_assert_eq!(v[r], *s)
                }
                (uot_storage::ColumnData::F64(v), Value::F64(s)) => {
                    prop_assert!((v[r] - s).abs() <= 1e-9 * s.abs().max(1.0))
                }
                (uot_storage::ColumnData::I32(v), Value::I32(s)) => {
                    prop_assert_eq!(v[r], *s)
                }
                other => prop_assert!(false, "type mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn gather_is_a_subset_of_eval_all(
        rows in arb_rows(),
        expr in arb_expr(),
    ) {
        let b = block(&rows, BlockFormat::Column);
        let all = expr.eval_all(&b).unwrap();
        let idx: Vec<usize> = (0..b.num_rows()).step_by(2).collect();
        let sub = expr.eval_gather(&b, &idx).unwrap();
        prop_assert_eq!(sub.len(), idx.len());
        for (j, &r) in idx.iter().enumerate() {
            match (&all, &sub) {
                (uot_storage::ColumnData::I64(a), uot_storage::ColumnData::I64(s)) => {
                    prop_assert_eq!(a[r], s[j])
                }
                (uot_storage::ColumnData::F64(a), uot_storage::ColumnData::F64(s)) => {
                    prop_assert_eq!(a[r].to_bits(), s[j].to_bits())
                }
                (uot_storage::ColumnData::I32(a), uot_storage::ColumnData::I32(s)) => {
                    prop_assert_eq!(a[r], s[j])
                }
                other => prop_assert!(false, "type mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn predicates_agree_across_formats(
        rows in arb_rows(),
        pred in arb_pred(),
    ) {
        let r = block(&rows, BlockFormat::Row);
        let c = block(&rows, BlockFormat::Column);
        let bm_r = pred.eval(&r).unwrap();
        let bm_c = pred.eval(&c).unwrap();
        prop_assert_eq!(
            bm_r.iter_ones().collect::<Vec<_>>(),
            bm_c.iter_ones().collect::<Vec<_>>()
        );
    }

    #[test]
    fn filter_agrees_with_eval(
        rows in arb_rows(),
        pred in arb_filter_pred(),
        keep in proptest::collection::vec(any::<bool>(), 60),
        fmt in prop_oneof![Just(BlockFormat::Row), Just(BlockFormat::Column)],
    ) {
        let b = tagged_block(&rows, fmt);
        let n = b.num_rows();
        let eval = pred.eval(&b);
        // From every row: the same verdict, and on success the same rows.
        let mut sel: Vec<usize> = (0..n).collect();
        let filtered = pred.filter(&b, &mut sel);
        prop_assert_eq!(&filtered.err(), &eval.as_ref().err().cloned(), "{:?}", pred);
        if let Ok(bm) = &eval {
            prop_assert_eq!(&sel, &bm.iter_ones().collect::<Vec<_>>(), "{:?}", pred);
        }
        // From an ascending subset: the subset ∩ eval whenever both succeed.
        let subset: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
        let mut sel = subset.clone();
        if let (Ok(()), Ok(bm)) = (pred.filter(&b, &mut sel), &eval) {
            let expect: Vec<usize> = subset.into_iter().filter(|&i| bm.get(i)).collect();
            prop_assert_eq!(sel, expect, "{:?}", pred);
        }
        // Boundaries: every column against a value it holds, every operator,
        // literal on either side, so equal values always occur.
        let pivot = keep.iter().position(|&k| k).unwrap_or(0) % n;
        for c in 0..5 {
            let v = b.value_at(pivot, c).unwrap();
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                for p in [cmp(col(c), op, lit(v.clone())), cmp(lit(v.clone()), op, col(c))] {
                    let mut sel: Vec<usize> = (0..n).collect();
                    match (p.filter(&b, &mut sel), p.eval(&b)) {
                        (Ok(()), Ok(bm)) => {
                            prop_assert_eq!(&sel, &bm.iter_ones().collect::<Vec<_>>(), "{:?}", p)
                        }
                        (f, e) => prop_assert_eq!(f.err(), e.err(), "{:?}", p),
                    }
                }
            }
        }
    }

    #[test]
    fn demorgan_holds(rows in arb_rows(), p in arb_pred(), q in arb_pred()) {
        let b = block(&rows, BlockFormat::Column);
        // !(p && q) == !p || !q
        let lhs = p.clone().and(q.clone()).negate().eval(&b).unwrap();
        let rhs = p.negate().or(q.negate()).eval(&b).unwrap();
        prop_assert_eq!(
            lhs.iter_ones().collect::<Vec<_>>(),
            rhs.iter_ones().collect::<Vec<_>>()
        );
    }

    #[test]
    fn aggregate_merge_is_partition_invariant(
        rows in arb_rows(),
        split in 0usize..60,
    ) {
        let b = block(&rows, BlockFormat::Column);
        let s = schema();
        let split = split.min(rows.len());
        for spec in [
            AggSpec::sum(col(2)),
            AggSpec::min(col(0)),
            AggSpec::max(col(0)),
            AggSpec::avg(col(1)),
            AggSpec::count_star(),
        ] {
            // whole-input state
            let mut whole = spec.init_state(&s).unwrap();
            if spec.func == uot_expr::AggFunc::CountStar {
                whole.update_count(rows.len());
            } else {
                let data = spec.arg.as_ref().unwrap().eval_all(&b).unwrap();
                whole.update_column(&data).unwrap();
            }
            // split into two partials and merge
            let idx_a: Vec<usize> = (0..split).collect();
            let idx_b: Vec<usize> = (split..rows.len()).collect();
            let mut pa = spec.init_state(&s).unwrap();
            let mut pb = spec.init_state(&s).unwrap();
            if spec.func == uot_expr::AggFunc::CountStar {
                pa.update_count(idx_a.len());
                pb.update_count(idx_b.len());
            } else {
                let arg = spec.arg.as_ref().unwrap();
                if !idx_a.is_empty() {
                    pa.update_column(&arg.eval_gather(&b, &idx_a).unwrap()).unwrap();
                }
                if !idx_b.is_empty() {
                    pb.update_column(&arg.eval_gather(&b, &idx_b).unwrap()).unwrap();
                }
            }
            pa.merge(&pb);
            match (whole.finalize(), pa.finalize()) {
                (Value::F64(w), Value::F64(m)) => {
                    prop_assert!((w - m).abs() <= 1e-9 * w.abs().max(1.0))
                }
                (w, m) => prop_assert_eq!(w, m),
            }
        }
    }
}
