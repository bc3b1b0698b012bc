//! Overhead A/B of the always-on [`MetricsHub`]: the acceptance gate for
//! live telemetry is that installing the hub costs **at most ~1%** on a
//! realistic workload versus the untraced fast path.
//!
//! Two sections:
//!
//! 1. **Workload** — TPC-H Q1/Q6/Q12, engine-level, serial, interleaved
//!    A/B: every round runs each query once *without* a hub and once
//!    *with* one shared hub installed via `EngineConfig::with_hub` (the
//!    query's submission and outcome counted, and the finished attempt's
//!    `QueryMetrics` merged into the counters and log-bucketed histograms
//!    once). Interleaving makes the comparison robust against machine
//!    drift; mean-of-best-3 per arm absorbs outliers. The mix-total delta
//!    is asserted against the tolerance (`UOT_OVERHEAD_TOL`, default
//!    1.0%).
//! 2. **Dispatch stress** (informational, not asserted) — the
//!    `sched_dispatch`-shaped worst case: thousands of tiny blocks, so the
//!    fold's one service-time observation per work order is a maximal
//!    fraction of each work order. This bounds the hub's cost in
//!    ns/work-order.
//!
//! `--smoke` shrinks everything for CI. `--write` saves the report to
//! `results/obs_live_overhead.txt`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use uot_bench::{mean_of_best, runs, ReportTable};
use uot_core::{Engine, EngineConfig, MetricsHub, PlanBuilder, QueryPlan, Source, Uot};
use uot_expr::Predicate;
use uot_storage::{BlockFormat, DataType, Schema, TableBuilder, Value};
use uot_tpch::{build_query, QueryId, TpchConfig, TpchDb};

fn tolerance() -> f64 {
    std::env::var("UOT_OVERHEAD_TOL")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

fn config(hub: Option<Arc<MetricsHub>>) -> EngineConfig {
    let cfg = EngineConfig::serial().with_block_bytes(8 * 1024);
    match hub {
        Some(h) => cfg.with_hub(h),
        None => cfg,
    }
}

/// One timed execution (wall clock around the whole call, like a client).
fn run_once(plan: &QueryPlan, cfg: &EngineConfig) -> (Duration, u64) {
    let engine = Engine::new(cfg.clone());
    let t0 = Instant::now();
    let r = engine.execute(plan.clone()).expect("bench query runs");
    let d = t0.elapsed();
    let wos = r.metrics.ops.iter().map(|o| o.work_orders as u64).sum();
    (d, wos)
}

fn tiny_select_plan(blocks: usize) -> QueryPlan {
    const BLOCK_BYTES: usize = 64;
    let schema = Schema::from_pairs(&[("k", DataType::Int32)]);
    let rows_per_block = BLOCK_BYTES / std::mem::size_of::<i32>();
    let mut tb = TableBuilder::new("tiny", schema, BlockFormat::Column, BLOCK_BYTES);
    for i in 0..(blocks * rows_per_block) as i64 {
        tb.append(&[Value::I32(i as i32)]).expect("append row");
    }
    let table = Arc::new(tb.finish());
    let mut pb = PlanBuilder::new();
    let sel = pb
        .filter(Source::Table(table), Predicate::True)
        .expect("filter");
    pb.build(sel).expect("plan builds")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let write = std::env::args().any(|a| a == "--write");
    let sf = if smoke { 0.005 } else { 0.02 };
    let rounds = if smoke { runs().max(4) } else { runs().max(6) };
    let db = TpchDb::generate(TpchConfig {
        scale_factor: sf,
        block_bytes: 8 * 1024,
        format: BlockFormat::Column,
        seed: 42,
    });
    let hub = Arc::new(MetricsHub::new());
    let queries = [QueryId::Q1, QueryId::Q6, QueryId::Q12];
    println!(
        "obs live overhead: {} rounds interleaved A/B, TPC-H SF {sf}, serial{}",
        rounds,
        if smoke { " [smoke]" } else { "" }
    );

    let mut t = ReportTable::new(
        "Always-on MetricsHub overhead (engine, serial, interleaved A/B, mean of best 3)",
        &["query", "off ms", "on ms", "delta %"],
    );
    let mut off_total = 0.0f64;
    let mut on_total = 0.0f64;
    for q in queries {
        let plan = build_query(q, &db).expect("plan builds");
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..rounds {
            off.push(run_once(&plan, &config(None)).0);
            on.push(run_once(&plan, &config(Some(hub.clone()))).0);
        }
        let off_ms = mean_of_best(&mut off, 3).as_secs_f64() * 1e3;
        let on_ms = mean_of_best(&mut on, 3).as_secs_f64() * 1e3;
        off_total += off_ms;
        on_total += on_ms;
        t.row(vec![
            format!("{q:?}"),
            format!("{off_ms:.3}"),
            format!("{on_ms:.3}"),
            format!("{:+.2}", 100.0 * (on_ms - off_ms) / off_ms),
        ]);
    }
    let mix_delta = 100.0 * (on_total - off_total) / off_total;
    t.row(vec![
        "mix total".into(),
        format!("{off_total:.3}"),
        format!("{on_total:.3}"),
        format!("{mix_delta:+.2}"),
    ]);
    t.emit();

    // Worst case: tiny blocks, so the hub's per-work-order share of the
    // fold is a maximal fraction of every work order. Informational only.
    let tiny = tiny_select_plan(if smoke { 500 } else { 4000 });
    let mut s = ReportTable::new(
        "Dispatch-stress bound (tiny blocks, ns/work order; informational)",
        &["arm", "work orders", "ns / work order"],
    );
    let mut stress = Vec::new();
    for (name, hub) in [("off", None), ("on", Some(hub.clone()))] {
        let cfg = config(hub).with_block_bytes(64).with_uot(Uot::LOW);
        let mut times = Vec::new();
        let mut wos = 0;
        for _ in 0..rounds {
            let (d, w) = run_once(&tiny, &cfg);
            times.push(d);
            wos = w;
        }
        let best = mean_of_best(&mut times, 3);
        let ns = best.as_secs_f64() * 1e9 / wos.max(1) as f64;
        stress.push(ns);
        s.row(vec![name.into(), wos.to_string(), format!("{ns:.1}")]);
    }
    s.row(vec![
        "delta".into(),
        "-".into(),
        format!("{:+.1}%", 100.0 * (stress[1] - stress[0]) / stress[0]),
    ]);
    s.emit();

    // Sanity: the hub really observed the "on" runs.
    let snap = hub.snapshot();
    assert!(
        snap.counter(uot_core::HubCounter::QueriesCompleted) > 0
            && snap.counter(uot_core::HubCounter::WorkOrders) > 0,
        "hub arm ran without recording anything"
    );

    if write {
        let report = format!(
            "## Always-on MetricsHub overhead (engine, serial, interleaved A/B)\n\n\
             TPC-H SF {sf}, {rounds} interleaved rounds per arm, mean of best 3.\n\
             \"off\" = no hub installed. \"on\" = EngineConfig::with_hub: the\n\
             query's submission and outcome are counted, and each finished\n\
             attempt's QueryMetrics is folded into the hub's counters and\n\
             log-bucketed histograms in one merge; no scheduler event\n\
             touches the hub.\n\n{}\n\
             Mix-total delta: {mix_delta:+.2}% (gate: <= {:.1}%).\n\n\
             Worst-case bound, tiny-block dispatch stress (informational):\n{}\n\
             The stress rows bound the cost per work order: the fold adds one\n\
             non-atomic service-time observation per work order against a ~1 us\n\
             work order, so at this size the delta swings with run-to-run noise,\n\
             while on the TPC-H rows above each work order does orders of\n\
             magnitude more real work and the hub disappears into noise.\n",
            t.render(),
            tolerance(),
            s.render(),
        );
        std::fs::create_dir_all("results").expect("results dir");
        std::fs::write("results/obs_live_overhead.txt", report).expect("write results");
        println!("wrote results/obs_live_overhead.txt");
    }

    assert!(
        mix_delta <= tolerance(),
        "hub overhead {mix_delta:+.2}% exceeds the {:.1}% gate",
        tolerance()
    );
    println!(
        "hub overhead on the TPC-H mix: {mix_delta:+.2}% (gate {:.1}%): OK",
        tolerance()
    );
}
