//! Property-based end-to-end invariant: the Unit of Transfer is a *schedule*
//! parameter, never a *result* parameter.
//!
//! Randomized select / build / probe / aggregate chains with random per-edge
//! UoT overrides must produce identical `sorted_rows()` under every
//! combination of execution mode (serial, 2 and 4 workers), default UoT
//! (block-level pipelining, grouped, full materialization) and temporary
//! block format (row, column), and through a `QueryService` as well as the
//! `Engine`. This is the paper's premise — the UoT spans a
//! performance spectrum while answers stay fixed — enforced as a property.
//!
//! The fact table carries a float column on purpose: `SUM`/`AVG` over
//! `Float64` use the exact accumulator (`uot_expr::ExactF64Sum`), so even
//! float aggregates must be *bit*-identical across schedules — the property
//! asserts plain equality, no epsilon.
//!
//! A second property compiles the equivalent SQL text through the front door
//! (`uot_core::sql::compile`) and checks the SQL-built plan agrees with the
//! hand-constructed plan byte-for-byte under every schedule — the
//! `api_redesign` contract that the SQL surface is a pure re-spelling of the
//! builder API.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use uot_core::trace::TraceEventKind;
use uot_core::{
    Engine, EngineConfig, ExecMode, FusionPolicy, JoinType, PlanBuilder, QueryPlan, QueryService,
    ServiceConfig, Source, TraceConfig, Uot,
};
use uot_expr::{cmp, col, lit, AggSpec, CmpOp};
use uot_storage::{BlockFormat, Catalog, DataType, Schema, Table, TableBuilder, Value};

/// Shape of one randomized query: data, predicate, and plan structure.
#[derive(Debug, Clone)]
struct PlanSpec {
    /// Fact rows as (key, value) pairs.
    fact: Vec<(i32, i32)>,
    /// Distinct dim keys 0..dim_keys with payload `10 * key`.
    dim_keys: i32,
    /// Selection threshold: keep fact rows with key < threshold.
    threshold: i32,
    /// Join the fact against the dim through a build/probe pair.
    join: bool,
    /// Group by key and aggregate (count, sum of value).
    aggregate: bool,
    /// Per-operator UoT overrides, applied as `uots[op % len]`.
    uots: Vec<Uot>,
    /// Rows per base-table block (block granularity feeds the UoT).
    rows_per_block: usize,
}

fn arb_uot() -> impl Strategy<Value = Uot> {
    prop_oneof![
        Just(Uot::Blocks(1)),
        Just(Uot::Blocks(2)),
        Just(Uot::Blocks(3)),
        Just(Uot::Blocks(5)),
        Just(Uot::Table),
    ]
}

fn arb_spec() -> impl Strategy<Value = PlanSpec> {
    (
        proptest::collection::vec(((0i32..40), (-100i32..100)), 0..120),
        1i32..20,
        0i32..45,
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(arb_uot(), 4),
        prop_oneof![Just(2usize), Just(5), Just(16)],
    )
        .prop_map(
            |(fact, dim_keys, threshold, join, aggregate, uots, rows_per_block)| PlanSpec {
                fact,
                dim_keys,
                threshold,
                join,
                aggregate,
                uots,
                rows_per_block,
            },
        )
}

/// Fact table: (k Int32, v Int32, f Float64) with `f = v * 0.1` — an
/// inexact dyadic so float summation order would show up in the low bits if
/// aggregation were not exact.
fn fact_table(rows: &[(i32, i32)], rows_per_block: usize) -> Table {
    let s = Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("v", DataType::Int32),
        ("f", DataType::Float64),
    ]);
    let mut tb = TableBuilder::new("fact", s, BlockFormat::Column, rows_per_block * 16);
    for &(k, v) in rows {
        tb.append(&[Value::I32(k), Value::I32(v), Value::F64(v as f64 * 0.1)])
            .unwrap();
    }
    tb.finish()
}

/// Dim table: (dk Int32, p Int32) with payload `p = 10 * dk`.
fn dim_table(dim_keys: i32, rows_per_block: usize) -> Table {
    let s = Schema::from_pairs(&[("dk", DataType::Int32), ("p", DataType::Int32)]);
    let mut tb = TableBuilder::new("dim", s, BlockFormat::Column, rows_per_block * 8);
    for k in 0..dim_keys {
        tb.append(&[Value::I32(k), Value::I32(10 * k)]).unwrap();
    }
    tb.finish()
}

/// Catalog holding `spec`'s tables (the SQL path resolves names against it;
/// the constructor path scans the same `Arc<Table>`s).
fn catalog_for(spec: &PlanSpec) -> Arc<Catalog> {
    let c = Catalog::new();
    c.register(fact_table(&spec.fact, spec.rows_per_block))
        .unwrap();
    c.register(dim_table(spec.dim_keys, spec.rows_per_block))
        .unwrap();
    c
}

/// Build the plan described by `spec` over `catalog`'s tables:
/// `select(fact, k < t)` [`-> probe(build(dim))`] [`-> group-by aggregate`],
/// then stamp every operator with its randomized UoT override.
fn build_plan_in(spec: &PlanSpec, catalog: &Catalog) -> QueryPlan {
    let fact = catalog.get("fact").unwrap();
    let dim = catalog.get("dim").unwrap();

    let mut pb = PlanBuilder::new();
    let mut tail = pb
        .filter(
            Source::Table(fact),
            cmp(col(0), CmpOp::Lt, lit(spec.threshold)),
        )
        .unwrap();
    if spec.join {
        let b = pb.build_hash(Source::Table(dim), vec![0], vec![1]).unwrap();
        // output: [fact k, fact v, fact f, dim payload]
        tail = pb
            .probe(
                Source::Op(tail),
                b,
                vec![0],
                vec![0, 1, 2],
                vec![0],
                JoinType::Inner,
            )
            .unwrap();
    }
    if spec.aggregate {
        tail = pb
            .aggregate(
                Source::Op(tail),
                vec![0],
                vec![
                    AggSpec::count_star(),
                    AggSpec::sum(col(1)),
                    AggSpec::sum(col(2)),
                ],
                &["n", "s", "sf"],
            )
            .unwrap();
    }
    let mut plan = pb.build(tail).unwrap();
    let n = plan.len();
    for op in 0..n {
        plan = plan.with_op_uot(op, spec.uots[op % spec.uots.len()]);
    }
    plan
}

fn build_plan(spec: &PlanSpec) -> QueryPlan {
    build_plan_in(spec, &catalog_for(spec))
}

/// The SQL spelling of `spec`'s query (modulo projection narrowing the
/// binder applies, which must not change results).
fn sql_for(spec: &PlanSpec) -> String {
    let t = spec.threshold;
    match (spec.join, spec.aggregate) {
        (false, false) => format!("SELECT k, v, f FROM fact WHERE k < {t}"),
        (false, true) => format!(
            "SELECT k, COUNT(*) AS n, SUM(v) AS s, SUM(f) AS sf \
             FROM fact WHERE k < {t} GROUP BY k"
        ),
        (true, false) => format!("SELECT k, v, f, p FROM fact, dim WHERE k = dk AND k < {t}"),
        (true, true) => format!(
            "SELECT k, COUNT(*) AS n, SUM(v) AS s, SUM(f) AS sf \
             FROM fact, dim WHERE k = dk AND k < {t} GROUP BY k"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn results_invariant_across_modes_uots_and_formats(spec in arb_spec()) {
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for mode in [
            ExecMode::Serial,
            ExecMode::Parallel { workers: 2 },
            ExecMode::Parallel { workers: 4 },
        ] {
            for default_uot in [Uot::Blocks(1), Uot::Blocks(3), Uot::Table] {
                for temp_format in [BlockFormat::Row, BlockFormat::Column] {
                    let cfg = EngineConfig {
                        mode,
                        default_uot,
                        temp_format,
                        ..EngineConfig::serial()
                    }
                    // Tiny temporaries (16 x 8-byte tuples) so multi-block
                    // UoT accumulation actually happens.
                    .with_block_bytes(128);
                    let result = Engine::new(cfg).execute(build_plan(&spec)).unwrap();
                    let rows = result.sorted_rows();
                    match &reference {
                        None => reference = Some(rows),
                        Some(r) => prop_assert_eq!(
                            &rows, r,
                            "divergence under {:?} {} {:?}",
                            mode, default_uot, temp_format
                        ),
                    }
                }
            }
        }
        // The query service (two shared workers) must agree with the engine.
        let service = QueryService::start(ServiceConfig {
            workers: 2,
            block_bytes: 128,
            ..Default::default()
        })
        .unwrap();
        let rows = service.submit(build_plan(&spec)).unwrap().wait().unwrap().sorted_rows();
        prop_assert_eq!(&rows, reference.as_ref().unwrap(), "divergence through QueryService");
        // Sanity-check the reference against a direct computation of the
        // expected row count, so the property can't pass vacuously.
        let selected: Vec<(i32, i32)> = spec
            .fact
            .iter()
            .copied()
            .filter(|&(k, _)| k < spec.threshold)
            .collect();
        let joined: Vec<(i32, i32)> = if spec.join {
            selected
                .into_iter()
                .filter(|&(k, _)| k < spec.dim_keys)
                .collect()
        } else {
            selected
        };
        let expected_rows = if spec.aggregate {
            let mut keys: Vec<i32> = joined.iter().map(|&(k, _)| k).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        } else {
            joined.len()
        };
        prop_assert_eq!(reference.unwrap().len(), expected_rows);
    }

    /// The SQL front door is a re-spelling of the plan-builder API: compiling
    /// the equivalent SQL text must produce byte-identical results to the
    /// hand-built plan — including float aggregates, bit for bit — under
    /// every mode / UoT / temp-format combination.
    #[test]
    fn sql_built_plans_match_constructor_plans(spec in arb_spec()) {
        let catalog = catalog_for(&spec);
        let sql = sql_for(&spec);
        for mode in [ExecMode::Serial, ExecMode::Parallel { workers: 2 }] {
            for default_uot in [Uot::Blocks(1), Uot::Blocks(3), Uot::Table] {
                for temp_format in [BlockFormat::Row, BlockFormat::Column] {
                    let cfg = EngineConfig {
                        mode,
                        default_uot,
                        temp_format,
                        ..EngineConfig::serial()
                    }
                    .with_block_bytes(128);
                    let ctor = Engine::new(cfg.clone())
                        .execute(build_plan_in(&spec, &catalog))
                        .unwrap();
                    let sql_plan = uot_core::sql::compile(&sql, &catalog).unwrap();
                    let from_sql = Engine::new(cfg).execute(sql_plan).unwrap();
                    prop_assert_eq!(
                        from_sql.sorted_rows(),
                        ctor.sorted_rows(),
                        "SQL vs constructor divergence under {:?} {} {:?} for `{}`",
                        mode, default_uot, temp_format, &sql
                    );
                }
            }
        }
    }

    /// Observability must be a pure observer: installing a trace sink on the
    /// query's observer (what `EngineConfig::tracing` does) may not change
    /// results or any schedule-deterministic metric. And the trace itself must be
    /// internally consistent: every dispatched work order reaches exactly
    /// one terminal event (finish, panic, failure, or cancellation).
    #[test]
    fn tracing_observer_leaves_metrics_untouched(spec in arb_spec()) {
        for mode in [ExecMode::Serial, ExecMode::Parallel { workers: 2 }] {
            for default_uot in [Uot::Blocks(1), Uot::Blocks(3), Uot::Table] {
                let cfg = EngineConfig {
                    mode,
                    default_uot,
                    ..EngineConfig::serial()
                }
                .with_block_bytes(128);
                let plain = Engine::new(cfg.clone())
                    .execute(build_plan(&spec))
                    .unwrap();
                let traced = Engine::new(cfg.tracing(TraceConfig::default()))
                    .execute(build_plan(&spec))
                    .unwrap();

                prop_assert_eq!(plain.sorted_rows(), traced.sorted_rows());
                let (pm, tm) = (&plain.metrics, &traced.metrics);
                prop_assert_eq!(pm.result_rows, tm.result_rows);
                prop_assert_eq!(pm.tasks.len(), tm.tasks.len());
                prop_assert_eq!(pm.ops.len(), tm.ops.len());
                for (po, to) in pm.ops.iter().zip(&tm.ops) {
                    prop_assert_eq!(po.work_orders, to.work_orders, "op {}", po.name);
                    prop_assert_eq!(po.input_blocks, to.input_blocks, "op {}", po.name);
                    prop_assert_eq!(po.produced_rows, to.produced_rows, "op {}", po.name);
                    if mode == ExecMode::Serial {
                        // Block packing depends on which rows share a work
                        // order; that partition is only schedule-stable when
                        // one worker drains the queue.
                        prop_assert_eq!(po.produced_blocks, to.produced_blocks, "op {}", po.name);
                    }
                }

                let trace = traced.trace.as_ref().expect("tracing was on");
                prop_assert_eq!(trace.dropped, 0, "default capacity fits tiny plans");
                let mut dispatched = BTreeSet::new();
                let mut terminal = BTreeSet::new();
                for e in &trace.events {
                    match e.kind {
                        TraceEventKind::WorkOrderDispatched { seq, .. } => {
                            prop_assert!(dispatched.insert(seq), "seq {} dispatched twice", seq);
                        }
                        TraceEventKind::WorkOrderFinished { seq, .. }
                        | TraceEventKind::WorkOrderPanicked { seq, .. }
                        | TraceEventKind::WorkOrderFailed { seq, .. }
                        | TraceEventKind::WorkOrderCancelled { seq, .. } => {
                            prop_assert!(terminal.insert(seq), "seq {} finished twice", seq);
                        }
                        _ => {}
                    }
                }
                prop_assert_eq!(&dispatched, &terminal, "unmatched dispatch/terminal events");
                prop_assert_eq!(dispatched.len(), tm.tasks.len());
            }
        }
    }

    /// Fusion is a *schedule* decision, never a *result* decision: forcing
    /// every eligible pipeline through the fused push-based loop
    /// (`FusionPolicy::Always`) must produce byte-identical rows to fully
    /// staged execution (`FusionPolicy::Never`) under every mode / UoT /
    /// temp-format combination. `ExactF64Sum` makes plain `==` valid even
    /// for float aggregates — no epsilon.
    #[test]
    fn fused_and_staged_results_are_byte_identical(spec in arb_spec()) {
        for mode in [ExecMode::Serial, ExecMode::Parallel { workers: 2 }] {
            for default_uot in [Uot::Blocks(1), Uot::Blocks(3), Uot::Table] {
                for temp_format in [BlockFormat::Row, BlockFormat::Column] {
                    let cfg = EngineConfig {
                        mode,
                        default_uot,
                        temp_format,
                        ..EngineConfig::serial()
                    }
                    .with_block_bytes(128);
                    let fused = Engine::new(cfg.clone().with_fusion(FusionPolicy::Always))
                        .execute(build_plan(&spec))
                        .unwrap();
                    let staged = Engine::new(cfg.with_fusion(FusionPolicy::Never))
                        .execute(build_plan(&spec))
                        .unwrap();
                    prop_assert_eq!(
                        fused.sorted_rows(),
                        staged.sorted_rows(),
                        "fused vs staged divergence under {:?} {} {:?}",
                        mode, default_uot, temp_format
                    );
                    // The policies must actually differ in how they ran:
                    // Never fuses nothing, and Always fuses the whole
                    // select->probe/aggregate chain whenever one exists (a
                    // lone select is a single-op pipeline, nothing to fuse).
                    prop_assert_eq!(staged.metrics.fused_pipelines, 0);
                    if spec.join || spec.aggregate {
                        prop_assert!(fused.metrics.fused_pipelines > 0);
                    }
                }
            }
        }
    }
}
