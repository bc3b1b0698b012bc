//! Property tests for the vectorized key pipeline: the batched probe path
//! (KeyExtractor → batch hash → prefetched ProbeSession → gather assembly)
//! must be indistinguishable from the retained row-at-a-time scalar path.
//!
//! Randomized build/probe tables (both block formats, single-`Int32`,
//! composite-fixed, and wide-`Var` key shapes, duplicate and absent keys) are
//! joined under inner/semi/anti semantics through both implementations, and
//! the sorted outputs must match exactly. A second property drives the whole
//! engine across UoTs and temporary formats and checks the batched pipeline
//! never changes query answers.

use proptest::prelude::*;
use std::sync::Arc;
use uot_core::ops::{self, build, probe};
use uot_core::output::into_blocks;
use uot_core::state::ExecContext;
use uot_core::{Engine, EngineConfig, JoinType, PlanBuilder, QueryPlan, Source, Uot};
use uot_storage::{
    BlockFormat, BlockPool, DataType, MemoryTracker, Schema, Table, TableBuilder, Value,
};

/// Which key-column set to join on — exercises all three extractor shapes.
#[derive(Debug, Clone, Copy)]
enum KeyShape {
    /// Single `Int32` column (the extractor's packed fast path).
    I32,
    /// `(Int32, Char(4))` composite, 8 encoded bytes (fixed-width packing).
    Composite,
    /// Single `Char(20)`, 20 encoded bytes (wide `Var` fallback).
    Wide,
}

impl KeyShape {
    fn cols(self) -> Vec<usize> {
        match self {
            KeyShape::I32 => vec![0],
            KeyShape::Composite => vec![0, 1],
            KeyShape::Wide => vec![2],
        }
    }
}

#[derive(Debug, Clone)]
struct JoinCase {
    /// Build-side keys (domain 0..12, so duplicates are common).
    build_keys: Vec<i32>,
    /// Probe-side keys (domain 0..20, so some keys are absent from build).
    probe_keys: Vec<i32>,
    key_shape: KeyShape,
    build_format: BlockFormat,
    probe_format: BlockFormat,
    rows_per_block: usize,
}

fn arb_case() -> impl Strategy<Value = JoinCase> {
    let fmt = prop_oneof![Just(BlockFormat::Row), Just(BlockFormat::Column)];
    (
        proptest::collection::vec(0i32..12, 0..80),
        proptest::collection::vec(0i32..20, 0..120),
        prop_oneof![
            Just(KeyShape::I32),
            Just(KeyShape::Composite),
            Just(KeyShape::Wide)
        ],
        fmt.clone(),
        fmt,
        prop_oneof![Just(3usize), Just(7), Just(32)],
    )
        .prop_map(
            |(build_keys, probe_keys, key_shape, build_format, probe_format, rows_per_block)| {
                JoinCase {
                    build_keys,
                    probe_keys,
                    key_shape,
                    build_format,
                    probe_format,
                    rows_per_block,
                }
            },
        )
}

/// All key columns derive deterministically from `k`, so key equality across
/// the two paths is purely about the pipeline, not data generation.
fn key_table(name: &str, keys: &[i32], format: BlockFormat, rows_per_block: usize) -> Arc<Table> {
    let s = Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("tag", DataType::Char(4)),
        ("wide", DataType::Char(20)),
        ("v", DataType::Int32),
    ]);
    let tuple = s.tuple_width();
    let mut tb = TableBuilder::new(name, s, format, rows_per_block * tuple);
    for (i, &k) in keys.iter().enumerate() {
        tb.append(&[
            Value::I32(k),
            Value::Str(format!("t{}", k % 5)),
            Value::Str(format!("wide-key-{k:08}")),
            Value::I32(i as i32),
        ])
        .unwrap();
    }
    Arc::new(tb.finish())
}

fn join_plan(case: &JoinCase, join: JoinType) -> (QueryPlan, usize, usize) {
    let dim = key_table(
        "dim",
        &case.build_keys,
        case.build_format,
        case.rows_per_block,
    );
    let fact = key_table(
        "fact",
        &case.probe_keys,
        case.probe_format,
        case.rows_per_block,
    );
    let key_cols = case.key_shape.cols();
    let mut pb = PlanBuilder::new();
    let b = pb
        .build_hash(Source::Table(dim), key_cols.clone(), vec![3, 0])
        .unwrap();
    let build_out = if matches!(join, JoinType::Inner) {
        vec![0, 1]
    } else {
        vec![]
    };
    let p = pb
        .probe(
            Source::Table(fact),
            b,
            key_cols,
            vec![0, 3],
            build_out,
            join,
        )
        .unwrap();
    (pb.build(p).unwrap(), b, p)
}

/// Drive build + probe work orders by hand through either probe
/// implementation and return the sorted output rows.
fn run_probe_path(plan: &Arc<QueryPlan>, b: usize, p: usize, scalar: bool) -> Vec<Vec<Value>> {
    let pool = BlockPool::new(MemoryTracker::new());
    let ctx = ExecContext::new(plan.clone(), pool, BlockFormat::Row, 1 << 12).unwrap();
    let (dim, fact) = match (
        plan.op(b).kind.stream_source(),
        plan.op(p).kind.stream_source(),
    ) {
        (Source::Table(d), Source::Table(f)) => (d.clone(), f.clone()),
        _ => unreachable!("plans here stream from tables"),
    };
    for blk in dim.blocks() {
        build::execute(&ctx, b, &blk.clone()).unwrap();
    }
    ops::finalize_in_turn(&ctx, b, 1).unwrap();
    let mut rows = Vec::new();
    for blk in fact.blocks() {
        let out = if scalar {
            probe::execute_scalar(&ctx, p, &blk.clone()).unwrap()
        } else {
            probe::execute(&ctx, p, &blk.clone()).unwrap()
        };
        for o in into_blocks(out, &ctx.pool).unwrap() {
            rows.extend(o.all_rows());
        }
    }
    for o in into_blocks(ctx.output(p).flush(&ctx.pool), &ctx.pool).unwrap() {
        rows.extend(o.all_rows());
    }
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched and scalar probes agree row-for-row for every join type.
    #[test]
    fn batched_probe_matches_scalar_reference(case in arb_case()) {
        for join in [JoinType::Inner, JoinType::Semi, JoinType::Anti] {
            let (plan, b, p) = join_plan(&case, join);
            let plan = Arc::new(plan);
            let batched = run_probe_path(&plan, b, p, false);
            let scalar = run_probe_path(&plan, b, p, true);
            prop_assert_eq!(
                &batched, &scalar,
                "join {:?} shape {:?} formats {:?}/{:?}",
                join, case.key_shape, case.build_format, case.probe_format
            );
            // Cross-check the expected row count directly from the key
            // multisets so the property can't pass vacuously.
            let expected = match join {
                JoinType::Inner => case.probe_keys.iter().map(|pk| {
                    case.build_keys.iter().filter(|bk| *bk == pk).count()
                }).sum::<usize>(),
                JoinType::Semi => case.probe_keys.iter()
                    .filter(|pk| case.build_keys.contains(pk)).count(),
                JoinType::Anti => case.probe_keys.iter()
                    .filter(|pk| !case.build_keys.contains(pk)).count(),
            };
            prop_assert_eq!(batched.len(), expected, "count for {:?}", join);
        }
    }

    /// The batched pipeline is invisible at the engine level: answers are
    /// identical across execution modes, UoTs, and temporary formats.
    #[test]
    fn engine_results_invariant_with_batched_pipeline(case in arb_case()) {
        let (plan, _, _) = join_plan(&case, JoinType::Inner);
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for uot in [Uot::Blocks(1), Uot::Blocks(3), Uot::Table] {
            for temp_format in [BlockFormat::Row, BlockFormat::Column] {
                let cfg = EngineConfig {
                    default_uot: uot,
                    temp_format,
                    ..EngineConfig::serial()
                }
                .with_block_bytes(256);
                let result = Engine::new(cfg).execute(plan.clone()).unwrap();
                let rows = result.sorted_rows();
                match &reference {
                    None => reference = Some(rows),
                    Some(r) => prop_assert_eq!(&rows, r, "under {} {:?}", uot, temp_format),
                }
            }
        }
    }
}
