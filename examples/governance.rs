//! Resource governance & failure handling: the execution-hardening layer in
//! action — memory budgets, automatic UoT degradation, cooperative
//! cancellation, deadlines, and contained injected panics.
//!
//! ```text
//! cargo run --release --example governance
//! ```

use std::sync::Arc;
use std::time::Duration;
use uot::prelude::*;
use uot_core::{PlanBuilder, Source};
use uot_expr::{AggSpec, Predicate};

/// A wide-then-narrow chain: a pass-through filter fans a table out into
/// many temporary blocks, then a count aggregate collapses them. Under
/// `Uot::Table` every filter output block stays staged at once; under
/// `Uot::Blocks(1)` only a handful are live at any moment.
fn wide_then_narrow(rows: i32) -> Result<QueryPlan, Box<dyn std::error::Error>> {
    let table = {
        let schema = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
        let mut tb = TableBuilder::new("events", schema, BlockFormat::Column, 96);
        for i in 0..rows {
            tb.append(&[Value::I32(i % 50), Value::I64(i as i64)])?;
        }
        Arc::new(tb.finish())
    };
    let mut pb = PlanBuilder::new();
    let f = pb.filter(Source::Table(table), Predicate::True)?;
    let a = pb.aggregate(Source::Op(f), vec![], vec![AggSpec::count_star()], &["n"])?;
    Ok(pb.build(a)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A memory budget between the pipelined and blocking footprints: the
    //    blocking run trips it, and the error names the operator that asked.
    let budget = 600;
    // Staged execution: under the default FusionPolicy::Auto this
    // filter -> aggregate chain would run as one fused loop that never
    // stages a block, so the budget would never trip.
    let strict = Engine::new(
        EngineConfig::serial()
            .with_block_bytes(96)
            .with_uot(Uot::Table)
            .with_fusion(FusionPolicy::Never)
            .with_memory_budget(Some(budget)),
    );
    let err = strict.execute(wide_then_narrow(200)?).unwrap_err();
    println!("budget {budget} B at uot=table: {err}");

    // 2. Same budget with degradation enabled: the engine retries once at a
    //    halved-toward-Blocks(1) UoT and records the step in the metrics.
    let governed = Engine::new(
        EngineConfig::serial()
            .with_block_bytes(96)
            .with_uot(Uot::Table)
            .with_fusion(FusionPolicy::Never)
            .with_memory_budget(Some(budget))
            .with_degrade(DegradePolicy::LowerUot),
    );
    let result = governed.execute(wide_then_narrow(200)?)?;
    println!(
        "with DegradePolicy::LowerUot: rows={:?} degradations={:?}",
        result.rows(),
        result.metrics.degradations
    );

    // 3. Cooperative cancellation: a query submitted to a QueryService stops
    //    at its next cancellation point once its handle is cancelled.
    let service = QueryService::start(ServiceConfig {
        workers: 2,
        block_bytes: 96,
        ..Default::default()
    })?;
    let handle = service.submit(wide_then_narrow(5_000)?)?;
    handle.cancel();
    match handle.wait() {
        Err(e @ EngineError::Cancelled { .. }) => println!("cancelled: {e}"),
        other => println!("finished before the cancel was observed: {other:?}"),
    }
    service.shutdown();

    // 4. Deadlines: the same mechanism, armed by the engine itself.
    let deadlined = Engine::new(
        EngineConfig::serial()
            .with_block_bytes(96)
            .with_deadline(Some(Duration::ZERO)),
    );
    let err = deadlined.execute(wide_then_narrow(200)?).unwrap_err();
    println!("deadline 0s: {err}");

    // 5. Panic containment via the deterministic fault harness: an injected
    //    panic in the 3rd work order becomes a typed error naming the
    //    operator, and the engine stays usable afterwards.
    let engine = Engine::new(EngineConfig::serial().with_block_bytes(96));
    let faults = Arc::new(FaultPlan::new(vec![Injection {
        site: FaultSite::WorkOrderExec,
        kind: FaultKind::Panic,
        nth: 3,
    }]));
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the expected panic print
    let err = engine
        .execute_with(
            wide_then_narrow(200)?,
            ExecOptions::default().with_faults(faults),
        )
        .unwrap_err();
    std::panic::set_hook(prev);
    println!("injected panic: {err}");
    let ok = engine.execute(wide_then_narrow(200)?)?;
    println!("engine still healthy: rows={:?}", ok.rows());

    Ok(())
}
