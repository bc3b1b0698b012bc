//! Differential test of the two-phase join build: every execution mode
//! joins exactly the operator-at-a-time baseline's rows, and the build runs
//! the finalize work orders its size calls for.
//!
//! Build work orders write their blocks into private runs; once they are
//! all in, `P = min(workers, rows / FINALIZE_FLOOR)` finalize work orders
//! (at least one) size and link the table's shards, and probes read the
//! result without locks. The baseline joins through a plain `HashMap` over
//! its materialized build input, so it shares nothing with that table.
//!
//! The build inputs here are random, spread over many blocks, with heavy
//! duplicate keys (one hot key takes a tenth of the rows) and keys drawn
//! with negatives and the `i32`/`i64` extremes. Key shapes: `Int32`,
//! `Int64`, `Date`, `Char`, composites, and keys wider than 16 bytes.
//! Inner joins run with a payload and with none (zero-width rows), semi and
//! anti joins with none, at build sizes below and above the floor. Each
//! case runs serial and on 2 and 3 workers, with fusion always and never, at
//! a UoT of one block and of the whole table.
//!
//! The `grace_spill_*` leg runs every key shape and join type again under
//! `DegradePolicy::Spill`, with row and column temporaries, serial and on 2
//! workers, at two budgets: one that arms a grace join, and one so small
//! that the hot key's partition must be split again (respilled).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use uot_baseline::BaselineEngine;
use uot_core::ops::FINALIZE_FLOOR;
use uot_core::{
    DegradePolicy, Engine, EngineConfig, FusionPolicy, JoinType, PlanBuilder, QueryPlan, Source,
    Uot,
};
use uot_expr::{cmp, col, lit, AggSpec, CmpOp};
use uot_storage::{BlockFormat, DataType, Schema, Table, TableBuilder, Value};

const BLOCK_BYTES: usize = 4 << 10;

/// One random key value of type `ty`: often an extreme or a value next to
/// zero.
fn key_value(rng: &mut StdRng, ty: DataType) -> Value {
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
        DataType::Char(n) => Value::Str(
            (0..rng.gen_range(0..=n as usize))
                .map(|_| b"abZ~-"[rng.gen_range(0..5usize)] as char)
                .collect(),
        ),
        DataType::Float64 => unreachable!("float columns do not join"),
    }
}

/// Tuples of key values of `types`; duplicates are possible, which only
/// makes the keys heavier.
fn key_pool(rng: &mut StdRng, types: &[DataType], n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| types.iter().map(|&ty| key_value(rng, ty)).collect())
        .collect()
}

/// A table of `keys` rows, each followed by `extra` (name, value) columns.
fn table(
    name: &str,
    types: &[DataType],
    keys: &[Vec<Value>],
    extra: &[(&str, DataType)],
    rng: &mut StdRng,
) -> Arc<Table> {
    let mut pairs: Vec<(String, DataType)> = types
        .iter()
        .enumerate()
        .map(|(i, &ty)| (format!("k{i}"), ty))
        .collect();
    pairs.extend(extra.iter().map(|&(n, t)| (n.to_string(), t)));
    let pairs: Vec<(&str, DataType)> = pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::from_pairs(&pairs);
    let mut tb = TableBuilder::new(name, schema, BlockFormat::Column, BLOCK_BYTES);
    for (i, key) in keys.iter().enumerate() {
        let mut row = key.clone();
        for &(_, ty) in extra {
            row.push(match ty {
                DataType::Int32 => Value::I32(i as i32),
                DataType::Int64 => Value::I64(rng.gen_range(i64::MIN..=i64::MAX)),
                _ => unreachable!("extra columns are integers"),
            });
        }
        tb.append(&row).unwrap();
    }
    Arc::new(tb.finish())
}

/// A join variant: the join type, and whether the build carries a payload.
#[derive(Debug, Clone, Copy)]
struct Join {
    join: JoinType,
    payload: bool,
}

const JOINS: [Join; 4] = [
    Join {
        join: JoinType::Inner,
        payload: true,
    },
    Join {
        join: JoinType::Inner,
        payload: false,
    },
    Join {
        join: JoinType::Semi,
        payload: false,
    },
    Join {
        join: JoinType::Anti,
        payload: false,
    },
];

/// `select(build) → build_hash`, `select(probe) → probe`. Both selects keep
/// every row; they give the UoT an edge to act on and fusion a chain. With
/// `count`, `COUNT(*) GROUP BY id` runs over the join, so the join streams
/// into it instead of being the sink. Returns the plan and the build's
/// operator id.
fn plan(
    build: &Arc<Table>,
    probe: &Arc<Table>,
    width: usize,
    j: Join,
    count: bool,
) -> (QueryPlan, usize) {
    let keys: Vec<usize> = (0..width).collect();
    let (v, q) = (width, width + 1);
    let mut pb = PlanBuilder::new();
    let sb = pb
        .filter(
            Source::Table(build.clone()),
            cmp(col(q), CmpOp::Ge, lit(0i32)),
        )
        .unwrap();
    let payload: Vec<usize> = if j.payload {
        keys.iter().copied().chain([v]).collect()
    } else {
        Vec::new()
    };
    let build_out: Vec<usize> = (0..payload.len()).collect();
    let b = pb
        .build_hash(Source::Op(sb), keys.clone(), payload)
        .unwrap();
    let sp = pb
        .filter(
            Source::Table(probe.clone()),
            cmp(col(width), CmpOp::Ge, lit(0i32)),
        )
        .unwrap();
    let out: Vec<usize> = (0..=width).collect();
    let p = pb
        .probe(Source::Op(sp), b, keys, out, build_out, j.join)
        .unwrap();
    if !count {
        return (pb.build(p).unwrap(), b);
    }
    let id = vec![width];
    let n = pb
        .aggregate(Source::Op(p), id, vec![AggSpec::count_star()], &["n"])
        .unwrap();
    (pb.build(n).unwrap(), b)
}

/// A random build of `rows` rows over `distinct` key tuples of `types`
/// (keys, then `v: Int64`, `q: Int32`) and a probe of `probe_rows` rows
/// (keys, then `id: Int32`), followed by `skew_probes` more on the key
/// drawn most often after the hot one. Drawn key tuples may repeat, which
/// makes the extremes and short strings heavy keys; with `unique`, the
/// repeats are dropped, so only the hot key is heavy.
fn tables(
    seed: u64,
    types: &[DataType],
    rows: usize,
    distinct: usize,
    probe_rows: usize,
    unique: bool,
    skew_probes: usize,
) -> (Arc<Table>, Arc<Table>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = key_pool(&mut rng, types, distinct);
    if unique {
        let mut seen: Vec<Vec<Value>> = Vec::with_capacity(pool.len());
        pool.retain(|k| {
            let new = !seen.contains(k);
            if new {
                seen.push(k.clone());
            }
            new
        });
    }
    let distinct = pool.len();
    // One hot key takes a tenth of the build; the rest spread at random.
    let mut drawn = vec![0usize; distinct];
    let build_keys: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            let i = if rng.gen_bool(0.1) {
                0
            } else {
                rng.gen_range(0..distinct)
            };
            drawn[i] += 1;
            pool[i].clone()
        })
        .collect();
    // Probe keys: mostly build keys other than the hot one, some fresh ones.
    let fresh = key_pool(&mut rng, types, probe_rows);
    let mut probe_keys: Vec<Vec<Value>> = (0..probe_rows)
        .map(|i| {
            if rng.gen_bool(0.75) {
                pool[rng.gen_range(1..distinct)].clone()
            } else {
                fresh[i].clone()
            }
        })
        .collect();
    let warm = (1..distinct).max_by_key(|&i| drawn[i]).unwrap_or(0);
    probe_keys.extend(std::iter::repeat_n(pool[warm].clone(), skew_probes));
    let build = table(
        "build",
        types,
        &build_keys,
        &[("v", DataType::Int64), ("q", DataType::Int32)],
        &mut rng,
    );
    let probe = table(
        "probe",
        types,
        &probe_keys,
        &[("id", DataType::Int32)],
        &mut rng,
    );
    (build, probe)
}

/// Join a random build of `rows` rows over `distinct` key tuples of `types`
/// with a probe of `probe_rows` rows, in every mode, against the baseline.
fn check(
    name: &str,
    seed: u64,
    types: &[DataType],
    rows: usize,
    distinct: usize,
    probe_rows: usize,
) {
    let (build, probe) = tables(seed, types, rows, distinct, probe_rows, false, 0);
    assert!(build.blocks().len() > 1, "{name}: the build spans blocks");
    for j in JOINS {
        let (plan, b) = plan(&build, &probe, types.len(), j, false);
        let want = BaselineEngine::new().execute(&plan).unwrap().sorted_rows();
        if matches!(j.join, JoinType::Inner) {
            assert!(!want.is_empty(), "{name}: {j:?} joins some rows");
        }
        for workers in [1, 2, 3] {
            let parts = workers.min(rows / FINALIZE_FLOOR).max(1);
            for fusion in [FusionPolicy::Always, FusionPolicy::Never] {
                for uot in [Uot::Blocks(1), Uot::Table] {
                    let config = match workers {
                        1 => EngineConfig::serial(),
                        w => EngineConfig::parallel(w),
                    };
                    let config = EngineConfig {
                        default_uot: uot,
                        ..config.with_block_bytes(BLOCK_BYTES).with_fusion(fusion)
                    };
                    let got = Engine::new(config).execute(plan.clone()).unwrap();
                    let mode = format!("{name}: {j:?}, {workers} workers, {fusion:?}, {uot}");
                    assert!(
                        got.sorted_rows() == want,
                        "{mode}: rows differ from the baseline"
                    );
                    // Every stream work order took one transferred block;
                    // the rest are the finalize partitions.
                    let m = &got.metrics.ops[b];
                    assert_eq!(m.input_rows, rows, "{mode}: build input");
                    assert_eq!(
                        m.work_orders - m.input_blocks,
                        parts,
                        "{mode}: finalize work orders"
                    );
                }
            }
        }
    }
}

const SMALL: usize = 300;
/// Enough rows for three finalize partitions.
const LARGE: usize = 3 * FINALIZE_FLOOR + 100;

#[test]
fn single_integer_keys() {
    use DataType::*;
    check("int32", 1, &[Int32], SMALL, 40, 200);
    check("int32 large", 2, &[Int32], LARGE, LARGE / 4, 400);
    check("int64", 3, &[Int64], SMALL, 60, 200);
    check("int64 large", 4, &[Int64], LARGE, LARGE / 3, 400);
    check("date", 5, &[Date], SMALL, 30, 200);
}

#[test]
fn char_and_composite_keys() {
    use DataType::*;
    check("char", 6, &[Char(6)], SMALL, 50, 200);
    check("int32+date", 7, &[Int32, Date], SMALL, 50, 200);
    check(
        "int64+int32 large",
        8,
        &[Int64, Int32],
        LARGE,
        LARGE / 4,
        400,
    );
    check("char+int32", 9, &[Char(3), Int32], SMALL, 50, 200);
}

#[test]
fn keys_wider_than_16_bytes() {
    use DataType::*;
    check(
        "int64+int64+int32",
        10,
        &[Int64, Int64, Int32],
        SMALL,
        50,
        200,
    );
    check("char(20) large", 11, &[Char(20)], LARGE, LARGE / 4, 400);
}

/// Block size of the grace leg: small, so every partition spans blocks and
/// its open buffers fit the respill leg's budget.
const GRACE_BLOCK_BYTES: usize = 256;
/// Build rows of the grace leg: enough that the hot key's partition (a
/// tenth of the build) outgrows half of the respill leg's budget.
const GRACE_ROWS: usize = 8_000;
const GRACE_PROBE_ROWS: usize = 150;
/// Probe rows of the output leg on the build's most drawn key after the hot
/// one (about a dozen build rows): their partition's inner join emits
/// 22,000–35,000 rows, two to three times the leg's budget, while its table
/// is resident, yet no one probe block's output comes near the budget.
const GRACE_SKEW_PROBES: usize = 2_000;

/// Join a random build of `GRACE_ROWS` rows over distinct key tuples of
/// `types` (about four rows each, plus the hot key) with a probe of
/// `GRACE_PROBE_ROWS` rows as a grace join, against the baseline: at a
/// budget that arms the grace join, and at one that forces a respill. The
/// join's result is held in memory there, so it is kept small next to the
/// budgets. The output leg adds `GRACE_SKEW_PROBES` probe rows on one key
/// and counts the join's rows per probe row: at the budget that arms the
/// grace join, that skewed partition's table fits, its output does not, and
/// only the count's small result stays in memory.
fn check_grace(name: &str, seed: u64, types: &[DataType]) {
    let rows = |hot| {
        let (g, d, p) = (GRACE_ROWS, GRACE_ROWS / 4, GRACE_PROBE_ROWS);
        tables(seed, types, g, d, p, true, hot)
    };
    let (build, probe) = rows(0);
    let (_, skewed) = rows(GRACE_SKEW_PROBES);
    // `plan_grace` estimates the build at twice its base table's bytes and
    // arms a grace join above half the budget, with as many partitions
    // (up to 64) as keep one within a quarter of it. At a tenth of the
    // estimate that is 64 partitions, and the hot key's partition is more
    // than half the budget, so the finalize splits it again.
    let est = 2 * GRACE_ROWS * build.schema().tuple_width().max(8);
    // (leg, budget, probe table, count over the join, respill expected)
    let legs = [
        ("grace", est, &probe, false, false),
        ("respill", est / 10, &probe, false, true),
        ("output", est, &skewed, true, false),
    ];
    for j in JOINS {
        for (leg, budget, probe, count, respill) in legs {
            let (plan, _) = plan(&build, probe, types.len(), j, count);
            let want = BaselineEngine::new().execute(&plan).unwrap().sorted_rows();
            for temp_format in [BlockFormat::Row, BlockFormat::Column] {
                for workers in [1, 2] {
                    let config = match workers {
                        1 => EngineConfig::serial(),
                        w => EngineConfig::parallel(w),
                    };
                    let config = EngineConfig {
                        temp_format,
                        ..config
                            .with_block_bytes(GRACE_BLOCK_BYTES)
                            .with_memory_budget(Some(budget))
                            .with_degrade(DegradePolicy::Spill)
                    };
                    let mode = format!(
                        "{name}: {j:?}, {leg} leg ({budget} B), {temp_format:?}, {workers} workers"
                    );
                    let got = Engine::new(config)
                        .execute(plan.clone())
                        .unwrap_or_else(|e| panic!("{mode}: {e}"));
                    assert!(
                        got.sorted_rows() == want,
                        "{mode}: rows differ from the baseline"
                    );
                    let m = &got.metrics;
                    assert!(m.degradations.is_empty(), "{mode}: no UoT retry");
                    assert!(m.spill_events > 0, "{mode}: the partitions spilled");
                    if respill {
                        assert!(m.respill_depth >= 1, "{mode}: a partition was split again");
                    }
                    if count && j.payload {
                        let probe = m.ops.iter().find(|o| o.kind == "probe").unwrap();
                        assert!(probe.produced_bytes > budget, "{mode}: output over budget");
                    }
                }
            }
        }
    }
}

#[test]
fn grace_spill_integer_keys() {
    use DataType::*;
    check_grace("int32", 21, &[Int32]);
    check_grace("int64", 22, &[Int64]);
    check_grace("date", 23, &[Date]);
}

#[test]
fn grace_spill_char_and_composite_keys() {
    use DataType::*;
    check_grace("char", 24, &[Char(6)]);
    check_grace("int32+date", 25, &[Int32, Date]);
    check_grace("int64+int32", 26, &[Int64, Int32]);
    check_grace("char+int32", 27, &[Char(3), Int32]);
}

#[test]
fn grace_spill_keys_wider_than_16_bytes() {
    use DataType::*;
    check_grace("int64+int64+int32", 28, &[Int64, Int64, Int32]);
    check_grace("char(20)", 29, &[Char(20)]);
}
