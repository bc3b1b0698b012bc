//! Differential test of the partitioned aggregate finalize: every execution
//! mode emits exactly the operator-at-a-time baseline's rows, in the
//! baseline's order.
//!
//! The finalize splits into one partition per worker once the partials hold
//! enough groups ([`FINALIZE_FLOOR`] per partition), each taking one key
//! range cut by splitters sampled from the groups. A partition orders its
//! groups by a normalized integer key when every group column is an integer
//! or date that fit 128 bits together (by the typed row order otherwise),
//! merges each group's states across the partials, and the partitions'
//! groups are emitted in partition order. The tables here are random
//! and their rows arrive in no key order, so nothing rests on the input
//! being clustered. The cases cover each group-key shape: 32-, 64-, 96- and
//! 128-bit packed keys, wider integer keys, `Char` keys (with values that
//! differ only in trailing spaces, which pad to the same group), negative
//! values and the `i32`/`i64` extremes, a scalar aggregate, group counts
//! below and above the floor, and groups crowded into a narrow key band
//! beside the extremes, where the sampled key ranges come out uneven. Each
//! case runs serial and on 2 and 3 workers, with fusion always and never.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use uot_baseline::BaselineEngine;
use uot_core::ops::FINALIZE_FLOOR;
use uot_core::{Engine, EngineConfig, FusionPolicy, PlanBuilder, QueryPlan, Source};
use uot_expr::{cmp, col, lit, AggSpec, CmpOp};
use uot_storage::{BlockFormat, DataType, Schema, Table, TableBuilder, Value};

const BLOCK_BYTES: usize = 8 << 10;

/// One random group value of type `ty`: often an extreme or a value next to
/// zero, so sign handling and the ends of each range are exercised.
fn group_value(rng: &mut StdRng, ty: DataType) -> Value {
    let special = rng.gen_bool(0.2);
    match ty {
        DataType::Int32 if special => Value::I32(
            [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX][rng.gen_range(0..7usize)],
        ),
        DataType::Int32 => Value::I32(rng.gen_range(-1_000_000..1_000_000)),
        DataType::Date if special => {
            Value::Date([i32::MIN, -1, 0, i32::MAX][rng.gen_range(0..4usize)])
        }
        DataType::Date => Value::Date(rng.gen_range(-100_000..100_000)),
        DataType::Int64 if special => Value::I64(
            [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX][rng.gen_range(0..7usize)],
        ),
        DataType::Int64 => Value::I64(rng.gen_range(-(1i64 << 40)..(1i64 << 40))),
        DataType::Char(n) => {
            let len = rng.gen_range(0..=n as usize);
            Value::Str(
                (0..len)
                    .map(|_| b"ab Z~"[rng.gen_range(0..5usize)] as char)
                    .collect(),
            )
        }
        DataType::Float64 => unreachable!("float columns do not group"),
    }
}

/// A table with `groups` distinct tuples over group columns of `types`,
/// then a `Float64` and an `Int32` value column, and `rows` rows (at least
/// `groups`) in random order: one per group, the rest drawing their group at
/// random. A `Char` value is written with a trailing
/// space now and then: it pads to the same bytes, so it is the same group.
fn random_table(seed: u64, types: &[DataType], groups: usize, rows: usize) -> Arc<Table> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut tuples: Vec<Vec<Value>> = Vec::new();
    while tuples.len() < groups {
        let t: Vec<Value> = types.iter().map(|&ty| group_value(&mut rng, ty)).collect();
        // The padded bytes decide the group: trailing spaces do not count.
        let key = format!(
            "{:?}",
            t.iter()
                .map(|v| match v {
                    Value::Str(s) => Value::Str(s.trim_end_matches(' ').into()),
                    v => v.clone(),
                })
                .collect::<Vec<_>>()
        );
        if seen.insert(key) {
            tuples.push(t);
        }
    }
    let mut pairs: Vec<(String, DataType)> = types
        .iter()
        .enumerate()
        .map(|(i, &ty)| (format!("g{i}"), ty))
        .collect();
    pairs.push(("v".into(), DataType::Float64));
    pairs.push(("q".into(), DataType::Int32));
    let pairs: Vec<(&str, DataType)> = pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let mut tb = TableBuilder::new(
        "t",
        Schema::from_pairs(&pairs),
        BlockFormat::Column,
        BLOCK_BYTES,
    );
    // Every group at least once, the rest at random, all shuffled.
    let mut picks: Vec<usize> = (0..groups)
        .chain((groups..rows).map(|_| rng.gen_range(0..groups)))
        .collect();
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.gen_range(0..=i));
    }
    for g in picks {
        let mut row = tuples[g].clone();
        for (v, &ty) in row.iter_mut().zip(types) {
            if let (Value::Str(s), DataType::Char(n)) = (&mut *v, ty) {
                if s.len() < n as usize && rng.gen_bool(0.3) {
                    s.push(' ');
                }
            }
        }
        row.push(Value::F64(rng.gen_range(-1e6..1e6)));
        row.push(Value::I32(rng.gen_range(-1000..1000)));
        tb.append(&row).unwrap();
    }
    Arc::new(tb.finish())
}

/// `select(q >= -1000) → aggregate` over `t`, grouping by its first `width`
/// columns: `COUNT(*)`, float `SUM` and `AVG`, and integer `SUM`/`MIN`/`MAX`.
/// The select keeps every row; it gives fusion a chain to fuse.
fn plan(t: &Arc<Table>, width: usize) -> QueryPlan {
    let (v, q) = (width, width + 1);
    let mut pb = PlanBuilder::new();
    let s = pb
        .filter(
            Source::Table(t.clone()),
            cmp(col(q), CmpOp::Ge, lit(-1000i32)),
        )
        .unwrap();
    let a = pb
        .aggregate(
            Source::Op(s),
            (0..width).collect(),
            vec![
                AggSpec::count_star(),
                AggSpec::sum(col(v)),
                AggSpec::avg(col(v)),
                AggSpec::sum(col(q)),
                AggSpec::min(col(q)),
                AggSpec::max(col(q)),
            ],
            &["n", "sv", "av", "sq", "mn", "mx"],
        )
        .unwrap();
    pb.build(a).unwrap()
}

/// Run `types`' case through every mode and compare with the baseline.
fn check(name: &str, seed: u64, types: &[DataType], groups: usize, rows: usize) {
    let t = random_table(seed, types, groups, rows);
    check_table(name, &t, types.len(), groups);
}

/// Run the aggregate over the first `width` columns of `t`, which hold
/// `groups` distinct tuples, through every mode and compare with the
/// baseline.
fn check_table(name: &str, t: &Arc<Table>, width: usize, groups: usize) {
    let types: Vec<DataType> = (0..width).map(|c| t.schema().dtype(c)).collect();
    let plan = plan(t, width);
    let agg = plan.sink();
    let want = BaselineEngine::new().execute(&plan).unwrap().rows();
    assert_eq!(
        want.len(),
        groups.max(usize::from(types.is_empty())),
        "{name}: baseline groups"
    );
    for workers in [1, 2, 3] {
        for fusion in [FusionPolicy::Always, FusionPolicy::Never] {
            let config = match workers {
                1 => EngineConfig::serial(),
                w => EngineConfig::parallel(w),
            };
            let engine = Engine::new(config.with_block_bytes(BLOCK_BYTES).with_fusion(fusion));
            let got = engine.execute(plan.clone()).unwrap();
            assert!(
                got.rows() == want,
                "{name}: {workers} workers, fusion {fusion:?} diverges from the baseline"
            );
            if fusion == FusionPolicy::Always {
                // A fused aggregate runs only its finalize work orders.
                let parts = if groups >= workers * FINALIZE_FLOOR {
                    workers
                } else {
                    1
                };
                assert_eq!(
                    got.metrics.ops[agg].work_orders, parts,
                    "{name}: {workers} workers split the finalize in {parts}"
                );
            }
        }
    }
}

const SMALL: usize = 300;
/// Enough groups for three partitions, whichever partials they land in.
const LARGE: usize = 3 * FINALIZE_FLOOR + 100;

#[test]
fn packed_keys_of_32_and_64_bits() {
    use DataType::*;
    check("int32", 1, &[Int32], SMALL, 1200);
    check("int32 large", 2, &[Int32], LARGE, 2 * LARGE);
    check("date", 3, &[Date], SMALL, 900);
    check("int64", 4, &[Int64], SMALL, 1200);
    check("int64 large", 5, &[Int64], LARGE, 2 * LARGE);
    check("int32+date", 6, &[Int32, Date], SMALL, 1200);
}

#[test]
fn packed_keys_of_96_and_128_bits() {
    use DataType::*;
    check("int32+int64", 7, &[Int32, Int64], SMALL, 1200);
    check(
        "date+int32+int32 large",
        8,
        &[Date, Int32, Int32],
        LARGE,
        2 * LARGE,
    );
    check("int64+int64", 9, &[Int64, Int64], SMALL, 1200);
    check(
        "int32+int32+int64 large",
        10,
        &[Int32, Int32, Int64],
        LARGE,
        2 * LARGE,
    );
    check("int32x4", 11, &[Int32, Int32, Int32, Int32], SMALL, 1200);
}

#[test]
fn keys_wider_than_128_bits_and_char_keys_take_the_row_order() {
    use DataType::*;
    check("int64+int64+int32", 12, &[Int64, Int64, Int32], SMALL, 1200);
    check(
        "int64+int64+int32 large",
        13,
        &[Int64, Int64, Int32],
        LARGE,
        2 * LARGE,
    );
    check("char", 14, &[Char(4)], 200, 1200);
    check("int32+char large", 15, &[Int32, Char(5)], LARGE, 2 * LARGE);
    check("char+date", 16, &[Char(3), Date], SMALL, 1200);
}

#[test]
fn scalar_aggregates_keep_one_finalize() {
    check("scalar", 17, &[], 1, 2000);
    check("scalar over one row", 18, &[], 1, 1);
}

/// A table whose group values crowd into a narrow band of the key space:
/// `groups − 2` of them take consecutive `Int32` values from 1,000 (with
/// `chars`, 8 consecutive values, each with distinct `Char(6)` labels),
/// plus one group at `i32::MIN` and one at `i32::MAX`. Each group appears
/// four times or more, most rows in the band's first 64 groups, all
/// shuffled, so every group sits in every partial of a parallel run.
fn skewed_table(seed: u64, chars: bool, groups: usize) -> Arc<Table> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tuple = |g: usize| -> Vec<Value> {
        let int = match g {
            0 => i32::MIN,
            1 => i32::MAX,
            g if chars => 1000 + (g % 8) as i32,
            g => 1000 + g as i32,
        };
        let mut t = vec![Value::I32(int)];
        if chars {
            t.push(Value::Str(format!("{:06}", g / 8)));
        }
        t
    };
    let mut pairs = vec![("g0", DataType::Int32)];
    if chars {
        pairs.push(("g1", DataType::Char(6)));
    }
    pairs.extend([("v", DataType::Float64), ("q", DataType::Int32)]);
    let mut tb = TableBuilder::new(
        "skewed",
        Schema::from_pairs(&pairs),
        BlockFormat::Column,
        BLOCK_BYTES,
    );
    let mut picks: Vec<usize> = (0..4 * groups)
        .map(|i| i % groups)
        .chain((0..4 * groups).map(|_| rng.gen_range(0..64)))
        .collect();
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.gen_range(0..=i));
    }
    for g in picks {
        let mut row = tuple(g);
        row.push(Value::F64(rng.gen_range(-1e6..1e6)));
        row.push(Value::I32(rng.gen_range(-1000..1000)));
        tb.append(&row).unwrap();
    }
    Arc::new(tb.finish())
}

#[test]
fn skewed_keys_split_by_sampled_ranges() {
    check_table("skewed int32", &skewed_table(19, false, LARGE), 1, LARGE);
    check_table(
        "skewed int32+char",
        &skewed_table(20, true, LARGE),
        2,
        LARGE,
    );
}
