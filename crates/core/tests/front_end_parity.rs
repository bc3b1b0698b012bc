//! `Engine` and `QueryService` run one query lifecycle, so a query behaves
//! the same at either front end — including under memory pressure, where
//! `DegradePolicy::LowerUot` (and `Spill`'s `LowerUot` fallback) retries the
//! query once at a lower UoT with fusion off.

use std::sync::Arc;
use uot_core::trace::TraceEventKind;
use uot_core::{
    Degradation, DegradePolicy, Engine, EngineConfig, ExecOptions, FaultKind, FaultPlan, FaultSite,
    FusionPolicy, HubCounter, Injection, PlanBuilder, QueryPlan, QueryService, ServiceConfig,
    Source, Uot,
};
use uot_expr::{cmp, col, lit, AggSpec, CmpOp};
use uot_storage::{BlockFormat, DataType, Schema, TableBuilder, Value};

/// A pass-through filter into a count. At `Uot::Table` all 25 filter output
/// blocks (96 B each) stage at once and overflow a 600-byte budget; at
/// `Blocks(1)` the aggregate drains them as they appear.
fn select_agg_plan() -> QueryPlan {
    let schema = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
    let mut tb = TableBuilder::new("parity_t", schema, BlockFormat::Column, 96);
    for i in 0..200 {
        tb.append(&[Value::I32(i), Value::F64(i as f64)]).unwrap();
    }
    let mut pb = PlanBuilder::new();
    let s = pb
        .filter(
            Source::Table(Arc::new(tb.finish())),
            cmp(col(0), CmpOp::Ge, lit(0i32)),
        )
        .unwrap();
    let a = pb
        .aggregate(Source::Op(s), vec![], vec![AggSpec::count_star()], &["n"])
        .unwrap();
    pb.build(a).unwrap()
}

/// A service with the engine tests' 96-byte blocks and `Uot::Table`.
fn service(degrade: DegradePolicy) -> QueryService {
    QueryService::start(ServiceConfig {
        workers: 2,
        memory_budget: 64 << 20,
        default_reservation: 8 << 20,
        block_bytes: 96,
        default_uot: Uot::Table,
        degrade,
        ..Default::default()
    })
    .unwrap()
}

#[test]
fn lower_uot_retry_is_the_same_at_every_front_end() {
    let degraded = vec![Degradation {
        from: Uot::Table,
        to: Uot::Blocks(1),
    }];
    let opts = ExecOptions::default()
        .with_reservation(600)
        .with_fusion(FusionPolicy::Never);
    for cfg in [EngineConfig::serial(), EngineConfig::parallel(2)] {
        let cfg = cfg
            .with_block_bytes(96)
            .with_uot(Uot::Table)
            .with_degrade(DegradePolicy::LowerUot);
        let mode = cfg.mode;
        let r = Engine::new(cfg)
            .execute_with(select_agg_plan(), opts.clone())
            .unwrap();
        assert_eq!(r.rows(), vec![vec![Value::I64(200)]], "{mode:?}");
        assert_eq!(r.metrics.degradations, degraded, "{mode:?}");
    }
    let svc = service(DegradePolicy::LowerUot);
    let r = svc
        .submit_with(select_agg_plan(), opts)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(r.rows(), vec![vec![Value::I64(200)]]);
    assert_eq!(r.metrics.degradations, degraded);
    assert_eq!(svc.memory_in_use(), 0);
}

#[test]
fn spill_fallback_retries_without_fusion_through_the_service() {
    // A synthetic BudgetExceeded on the first work order forces the budget
    // retry, which must re-plan with fusion off at the degraded UoT.
    let faults = Arc::new(FaultPlan::new(vec![Injection {
        site: FaultSite::WorkOrderExec,
        kind: FaultKind::Error,
        nth: 1,
    }]));
    let svc = service(DegradePolicy::Spill);
    let r = svc
        .submit_with(
            select_agg_plan(),
            ExecOptions::default().with_faults(faults).traced(),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(r.rows(), vec![vec![Value::I64(200)]]);
    assert_eq!(
        r.metrics.degradations,
        vec![Degradation {
            from: Uot::Table,
            to: Uot::Blocks(1),
        }]
    );
    assert_eq!(r.metrics.fused_pipelines, 0, "the retry must not fuse");
    let trace = r.trace.expect("tracing was requested");
    assert!(
        matches!(
            trace.events.first().map(|e| &e.kind),
            Some(TraceEventKind::Degraded { .. })
        ),
        "the retry's trace starts with the degradation"
    );
    let hub = svc.hub_snapshot();
    assert_eq!(hub.counter(HubCounter::QueriesSubmitted), 1);
    assert_eq!(hub.counter(HubCounter::QueriesCompleted), 1);
    assert_eq!(hub.counter(HubCounter::QueriesFailed), 0);
    assert_eq!(svc.memory_in_use(), 0);
}
