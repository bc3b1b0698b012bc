//! Property tests for expression evaluation:
//! * vectorized evaluation agrees with the row-at-a-time reference,
//! * predicate bitmaps agree with per-row evaluation,
//! * selection-vector filtering agrees with bitmap evaluation, errors too:
//!   every column pair, every `Char` width the string kernels dispatch on,
//!   and `Or`/`Not` from any starting selection in both block formats,
//! * string predicates agree with a per-row reference built on `value_at`,
//!   so a bug `eval` and `filter` share shows too,
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

/// The `Char` columns of [`tagged_block`] as (index, width): `tag`, then
/// one column per width where the string kernels change how they compare
/// (one byte, one word, just past a word, two words, just past two words,
/// TPC-H's `Char(25)`).
const CHAR_COLS: [(usize, usize); 7] = [
    (4, 4),
    (9, 1),
    (10, 8),
    (11, 9),
    (12, 16),
    (13, 17),
    (14, 25),
];

/// The numeric and date columns of [`tagged_block`]: `a`, `b`, `c`, `d` and
/// their twins `a2`, `b2`, `c2`, `d2`, one of each type per group.
const NUM_COLS: [usize; 8] = [0, 1, 2, 3, 5, 6, 7, 8];

/// `ABCD…` cut to `w` bytes.
fn base(w: usize) -> String {
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[..w].to_string()
}

/// The values a `Char(w)` column of [`tagged_block`] holds: empty, one
/// letter, an inner space, the full width, one byte short of it, and the
/// full width changed only in its last byte or only in byte 8, so that a
/// kernel skipping a byte at a dispatch boundary selects a wrong row.
fn char_values(w: usize) -> Vec<String> {
    let full = base(w);
    let mut out = vec![String::new(), "A".to_string(), full.clone()];
    if w >= 3 {
        out.push("A C".to_string());
    }
    if w >= 2 {
        out.push(full[..w - 1].to_string());
        out.push(format!("{}z", &full[..w - 1]));
    }
    if w > 8 {
        out.push(format!("{}z{}", &full[..8], &full[9..]));
    }
    out
}

/// Literals for string predicates on a `Char(w)` column: every stored
/// value, each with a trailing space and one byte too long, the empty
/// string, prefixes cut at every dispatch boundary, and inner substrings.
fn texts(w: usize) -> Vec<String> {
    let mut out = Vec::new();
    for v in char_values(w) {
        out.push(format!("{v} "));
        out.push(format!("{v}Q"));
        out.push(v);
    }
    let full = base(w);
    for k in [1, 2, 7, 8, 9, 15, 16, 17, 24, 25] {
        if k <= w {
            out.push(full[..k].to_string());
        }
    }
    if w >= 4 {
        out.push(full[1..4].to_string());
        out.push(full[w - 3..].to_string());
        out.push(format!("{} ", &full[w - 2..]));
    }
    out
}

/// [`block`] plus the `Char(4)` column `tag` (column 4), twins of the
/// first four columns (5–8: a row's own values when `a` is a multiple of
/// 3, the next row's otherwise, so that equal pairs are common), and
/// `Char` columns 9–14 of the widths in [`CHAR_COLS`].
fn tagged_block(rows: &[(i32, f64, i64, i32)], format: BlockFormat) -> StorageBlock {
    use uot_storage::Column;
    let mut cols = schema().columns().to_vec();
    cols.push(Column::new("tag", DataType::Char(4)));
    for (name, t) in [
        ("a2", DataType::Int32),
        ("b2", DataType::Float64),
        ("c2", DataType::Int64),
        ("d2", DataType::Date),
    ] {
        cols.push(Column::new(name, t));
    }
    for &(_, w) in &CHAR_COLS[1..] {
        cols.push(Column::new(format!("w{w}"), DataType::Char(w as u16)));
    }
    let mut b = StorageBlock::new(Schema::new(cols), format, 1 << 20).unwrap();
    for (r, &(a, bb, c, d)) in rows.iter().enumerate() {
        let (a2, b2, c2, d2) = if a.rem_euclid(3) == 0 {
            (a, bb, c, d)
        } else {
            rows[(r + 1) % rows.len()]
        };
        let mut row = vec![
            Value::I32(a),
            Value::F64(bb),
            Value::I64(c),
            Value::Date(d),
            Value::Str(TAGS[a.rem_euclid(5) as usize].into()),
            Value::I32(a2),
            Value::F64(b2),
            Value::I64(c2),
            Value::Date(d2),
        ];
        for &(_, w) in &CHAR_COLS[1..] {
            let vs = char_values(w);
            let pick = (a + r as i32).rem_euclid(vs.len() as i32) as usize;
            row.push(Value::Str(vs[pick].clone()));
        }
        b.append_row(&row).unwrap();
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

/// A string predicate on any `Char` column of [`tagged_block`], with a
/// literal from that column's [`texts`].
fn arb_string_pred() -> impl Strategy<Value = Predicate> {
    let picks = proptest::collection::vec(any::<u16>(), 4);
    (0..CHAR_COLS.len(), 0..4u8, picks).prop_map(|(c, kind, picks)| {
        let (col, w) = CHAR_COLS[c];
        let t = texts(w);
        let pick = |k: u16| t[k as usize % t.len()].clone();
        match kind {
            0 => Predicate::StrEq {
                col,
                value: pick(picks[0]),
            },
            1 => Predicate::StrStartsWith {
                col,
                prefix: pick(picks[0]),
            },
            2 => Predicate::StrContains {
                col,
                needle: pick(picks[0]),
            },
            _ => Predicate::StrIn {
                col,
                values: picks[1..=(picks[0] % 3) as usize]
                    .iter()
                    .map(|&k| pick(k))
                    .collect(),
            },
        }
    })
}

/// A bare column against a literal of its own type, on either side.
fn arb_col_literal() -> impl Strategy<Value = Predicate> {
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
    })
}

/// An `Or` or a `Not` over trees three levels deep of every leaf shape
/// `filter` has a kernel for, so that `And`, `Or` and `Not` nest under
/// each other.
fn arb_or_not() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        arb_col_literal(),
        arb_column_pair(),
        arb_string_pred(),
        (arb_expr(), arb_op(), arb_expr()).prop_map(|(l, o, r)| cmp(l, o, r)),
    ];
    let tree = leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Predicate::And),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Predicate::Or),
            inner.prop_map(|p| p.negate()),
        ]
    });
    prop_oneof![
        proptest::collection::vec(tree.clone(), 1..4).prop_map(Predicate::Or),
        tree.prop_map(|p| p.negate()),
    ]
}

/// A comparison of two columns of [`tagged_block`]: a pair of one type (in
/// place) or of two (the generic path, or `eval`'s type error).
fn arb_column_pair() -> impl Strategy<Value = Predicate> {
    let any_col = prop_oneof![
        (0..NUM_COLS.len()).prop_map(|i| NUM_COLS[i]),
        (0..CHAR_COLS.len()).prop_map(|i| CHAR_COLS[i].0),
    ];
    (any_col.clone(), arb_op(), any_col).prop_map(|(x, o, y)| cmp(col(x), o, col(y)))
}

/// [`arb_pred`]'s leaves plus every shape `Predicate::filter` treats on its
/// own, over [`tagged_block`]: a bare column against a literal of its own
/// type on either side, two columns, string predicates on every `Char`
/// width, and leaves that fail (a date against an integer, integer
/// division by zero, string predicates on a numeric or missing column).
fn arb_filter_pred() -> impl Strategy<Value = Predicate> {
    let failing = prop_oneof![
        arb_op().prop_map(|o| cmp(col(3), o, lit(7i32))),
        arb_op().prop_map(|o| cmp(col(2).div(col(0)), o, lit(0i64))),
        prop_oneof![Just(0usize), Just(99)].prop_map(|col| Predicate::StrEq {
            col,
            value: "A".into(),
        }),
    ];
    let leaf = (arb_expr(), arb_op(), arb_expr()).prop_map(|(l, o, r)| cmp(l, o, r));
    combine(
        prop_oneof![
            leaf,
            arb_col_literal(),
            arb_column_pair(),
            arb_string_pred(),
            failing
        ]
        .boxed(),
    )
}

/// Keep the rows of `sel` that `bm` selects.
fn keep_selected(sel: &[usize], bm: &uot_storage::Bitmap) -> Vec<usize> {
    sel.iter().copied().filter(|&i| bm.get(i)).collect()
}

/// What a string predicate says about row `row` of `b`, from the row's
/// decoded value padded back to the column width and `str` methods.
fn string_reference(p: &Predicate, b: &StorageBlock, row: usize) -> bool {
    let text = |col: usize| {
        let DataType::Char(w) = b.schema().dtype(col) else {
            unreachable!("a string predicate on a Char column")
        };
        let w = w as usize;
        let Value::Str(s) = b.value_at(row, col).unwrap() else {
            unreachable!("a Char column decodes to a string")
        };
        (format!("{s:<w$}"), w)
    };
    let equals = |col: usize, v: &str| {
        let (t, w) = text(col);
        v.len() <= w && t == format!("{v:<w$}")
    };
    match p {
        Predicate::StrEq { col, value } => equals(*col, value),
        Predicate::StrIn { col, values } => values.iter().any(|v| equals(*col, v)),
        Predicate::StrStartsWith { col, prefix } => text(*col).0.starts_with(prefix.as_str()),
        Predicate::StrContains { col, needle } => text(*col).0.contains(needle.as_str()),
        other => unreachable!("not a string predicate: {other:?}"),
    }
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
        // From an ascending subset: where eval succeeds, filter succeeds
        // and keeps the subset ∩ eval; it fails only where eval does.
        let subset: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
        let mut sel = subset.clone();
        match (pred.filter(&b, &mut sel), &eval) {
            (Ok(()), Ok(bm)) => prop_assert_eq!(sel, keep_selected(&subset, bm), "{:?}", pred),
            (Err(_), Ok(_)) => prop_assert!(false, "filter fails where eval succeeds: {:?}", pred),
            (_, Err(_)) => {}
        }
        // Boundaries: every column against a value it holds, every operator,
        // literal on either side, so equal values always occur.
        let pivot = keep.iter().position(|&k| k).unwrap_or(0) % n;
        for c in 0..b.schema().len() {
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
    fn column_pairs_compare_like_eval(
        rows in arb_rows(),
        keep in proptest::collection::vec(any::<bool>(), 60),
        fmt in prop_oneof![Just(BlockFormat::Row), Just(BlockFormat::Column)],
    ) {
        let b = tagged_block(&rows, fmt);
        let n = b.num_rows();
        let subset: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
        let cols = NUM_COLS.iter().copied().chain([4, 14]);
        for x in cols.clone() {
            for y in cols.clone() {
                for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                    let p = cmp(col(x), op, col(y));
                    let mut all: Vec<usize> = (0..n).collect();
                    let mut sub = subset.clone();
                    match (p.eval(&b), p.filter(&b, &mut all), p.filter(&b, &mut sub)) {
                        (Ok(bm), Ok(()), Ok(())) => {
                            prop_assert_eq!(&all, &bm.iter_ones().collect::<Vec<_>>(), "{:?}", p);
                            prop_assert_eq!(sub, keep_selected(&subset, &bm), "{:?}", p);
                        }
                        (e, f, g) => {
                            let e = e.err();
                            prop_assert!(e.is_some(), "filter fails where eval succeeds: {:?}", p);
                            prop_assert_eq!(&f.err(), &e, "{:?}", p);
                            prop_assert_eq!(&g.err(), &e, "{:?}", p);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn string_predicates_match_a_per_row_reference(
        rows in arb_rows(),
        p in arb_string_pred(),
        keep in proptest::collection::vec(any::<bool>(), 60),
        fmt in prop_oneof![Just(BlockFormat::Row), Just(BlockFormat::Column)],
    ) {
        let b = tagged_block(&rows, fmt);
        let n = b.num_rows();
        let expect: Vec<usize> = (0..n).filter(|&r| string_reference(&p, &b, r)).collect();
        prop_assert_eq!(&p.eval(&b).unwrap().iter_ones().collect::<Vec<_>>(), &expect, "{:?}", p);
        let mut sel: Vec<usize> = (0..n).collect();
        p.filter(&b, &mut sel).unwrap();
        prop_assert_eq!(&sel, &expect, "{:?}", p);
        let mut sel: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
        let want: Vec<usize> = sel.iter().copied().filter(|r| expect.contains(r)).collect();
        p.filter(&b, &mut sel).unwrap();
        prop_assert_eq!(sel, want, "{:?}", p);
    }

    #[test]
    fn or_and_not_refine_any_selection(
        rows in arb_rows(),
        p in arb_or_not(),
        first in arb_col_literal(),
        keep in proptest::collection::vec(any::<bool>(), 60),
        fmt in prop_oneof![Just(BlockFormat::Row), Just(BlockFormat::Column)],
    ) {
        let b = tagged_block(&rows, fmt);
        let n = b.num_rows();
        let eval = p.eval(&b);
        // Starting selections: every row, a random subset, and the rows an
        // earlier conjunct kept (how an `And` hands `sel` on).
        let mut narrowed: Vec<usize> = (0..n).collect();
        first.filter(&b, &mut narrowed).unwrap();
        for from in [(0..n).collect(), (0..n).filter(|&i| keep[i]).collect(), narrowed] {
            let mut sel: Vec<usize> = from.clone();
            match (p.filter(&b, &mut sel), &eval) {
                (Ok(()), Ok(bm)) => prop_assert_eq!(sel, keep_selected(&from, bm), "{:?}", p),
                (Err(_), Ok(_)) => prop_assert!(false, "filter fails where eval succeeds: {:?}", p),
                (_, Err(_)) => {}
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
