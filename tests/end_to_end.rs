//! Workspace-level integration tests: the full stack (generator → plans →
//! UoT engine → metrics) cross-checked against the operator-at-a-time
//! baseline and the analytical model.

use uot::baseline::BaselineEngine;
use uot::engine::{Engine, EngineConfig, ExecMode, Uot};
use uot::model::{CostParams, HardwareProfile};
use uot::storage::{BlockFormat, Value};
use uot::tpch::{all_queries, build_query, chain_specs, QueryId, TpchConfig, TpchDb};

fn db() -> TpchDb {
    TpchDb::generate(
        TpchConfig::scale(0.003)
            .with_block_bytes(8 * 1024)
            .with_format(BlockFormat::Column),
    )
}

/// Row comparison with a relative float tolerance, for the UoT-invariance
/// check over the paper's chains.
fn rows_match(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(x, y)| match (x, y) {
                    (Value::F64(p), Value::F64(q)) => {
                        (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0)
                    }
                    _ => x == y,
                })
        })
}

#[test]
fn uot_engine_and_baseline_agree_on_every_query() {
    let db = db();
    let engine = Engine::new(
        EngineConfig::parallel(3)
            .with_block_bytes(8 * 1024)
            .with_uot(Uot::LOW),
    );
    let baseline = BaselineEngine::new();
    for q in all_queries() {
        let plan = build_query(q, &db).expect("plan builds");
        let a = engine.execute(plan.clone()).expect("uot engine runs");
        let b = baseline.execute(&plan).expect("baseline runs");
        // Both engines aggregate through `AggState` with exact float sums,
        // so results agree bit for bit, not just within a tolerance.
        assert!(
            a.sorted_rows() == b.sorted_rows(),
            "{} diverges between execution models",
            q.label()
        );
    }
}

#[test]
fn chains_are_uot_invariant_through_the_facade() {
    let db = db();
    for spec in chain_specs(&db).expect("chains build") {
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for uot in [Uot::Blocks(1), Uot::Blocks(3), Uot::Table] {
            let engine = Engine::new(
                EngineConfig::parallel(2)
                    .with_block_bytes(8 * 1024)
                    .with_uot(uot),
            );
            let rows = engine
                .execute(spec.plan.clone().with_uniform_uot(uot))
                .expect("chain runs")
                .sorted_rows();
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert!(rows_match(&rows, r), "chain {} differs at {uot}", spec.name),
            }
        }
    }
}

#[test]
fn schedules_shape_matches_uot() {
    // Low UoT: probe tasks interleave with select tasks.
    // High UoT: all probe tasks come after all select tasks.
    let db = db();
    let chains = chain_specs(&db).expect("chains build");
    let spec = chains.iter().find(|c| c.name == "Q10").expect("Q10 chain");
    let run = |uot: Uot| {
        Engine::new(EngineConfig {
            mode: ExecMode::Serial,
            block_bytes: 2 * 1024,
            default_uot: uot,
            ..Default::default()
        })
        .execute(spec.plan.clone().with_uniform_uot(uot))
        .expect("chain runs")
        .metrics
    };
    let high = run(Uot::HIGH);
    let order: Vec<usize> = high.tasks.iter().map(|t| t.op).collect();
    let last_select = order.iter().rposition(|&o| o == spec.select_op);
    let first_probe = order.iter().position(|&o| o == spec.probe_op);
    if let (Some(ls), Some(fp)) = (last_select, first_probe) {
        assert!(ls < fp, "high UoT must not interleave: {order:?}");
    }
    let low = run(Uot::LOW);
    let order: Vec<usize> = low.tasks.iter().map(|t| t.op).collect();
    let last_select = order.iter().rposition(|&o| o == spec.select_op);
    let first_probe = order.iter().position(|&o| o == spec.probe_op);
    if let (Some(ls), Some(fp)) = (last_select, first_probe) {
        assert!(fp < ls, "low UoT must interleave: {order:?}");
    }
}

#[test]
fn measured_uot_gap_is_narrow_like_the_model_says() {
    // The model predicts a narrow gap between the extremes under
    // parallelism; the engine should deliver one too (within 3x either way
    // even on noisy CI machines — the paper's figures show ~1x).
    let db = TpchDb::generate(
        TpchConfig::scale(0.005)
            .with_block_bytes(16 * 1024)
            .with_format(BlockFormat::Column),
    );
    let plan = build_query(QueryId::Q3, &db).expect("Q3 builds");
    let time = |uot: Uot| {
        let engine = Engine::new(
            EngineConfig::parallel(2)
                .with_block_bytes(16 * 1024)
                .with_uot(uot),
        );
        let mut best = f64::MAX;
        for _ in 0..3 {
            let r = engine
                .execute(plan.clone().with_uniform_uot(uot))
                .expect("runs");
            best = best.min(r.metrics.wall_time.as_secs_f64());
        }
        best
    };
    let low = time(Uot::LOW);
    let high = time(Uot::HIGH);
    let ratio = low / high;
    assert!(
        (0.33..3.0).contains(&ratio),
        "low/high wall-time ratio {ratio} is outside any plausible band"
    );
    // And the model agrees the gap is narrow at this geometry.
    let p = CostParams::derive(HardwareProfile::haswell(), 16.0 * 1024.0, 2, 100);
    assert!((0.4..2.5).contains(&p.cost_ratio_eq1()));
}

#[test]
fn metrics_expose_everything_the_figures_need() {
    let db = db();
    let plan = build_query(QueryId::Q7, &db).expect("Q7 builds");
    let r = Engine::new(EngineConfig::serial().with_block_bytes(8 * 1024))
        .execute(plan)
        .expect("Q7 runs");
    let m = &r.metrics;
    // Fig 3: per-operator shares
    assert!(!m.dominant_operators().is_empty());
    // Fig 5: per-task times for the probes
    assert!(m.ops.iter().any(|o| o.kind == "probe" && o.work_orders > 0));
    // Fig 9: DOP inspection
    assert!(m.max_dop(0) >= 1);
    // Table II: memory + hash table sizes
    assert!(m.peak_temp_bytes > 0);
    assert!(m.hash_table_bytes.len() >= 4); // Q7 builds 4 hash tables
                                            // Fig 2: schedule text renders
    assert!(!m.schedule_text(40).is_empty());
}
