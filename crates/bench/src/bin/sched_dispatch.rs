//! Scheduler-dispatch microbenchmark: isolates the cost of picking the next
//! work order from the ready set.
//!
//! Builds a synthetic table of many tiny blocks (~16 rows each) so the
//! per-work-order execution cost is trivial and the run time is dominated by
//! scheduler bookkeeping: seeding the initial work orders, choosing the next
//! one under the `(critical, downstream-first, FIFO)` policy, and routing
//! outputs. With `UOT_DISPATCH_BLOCKS` source blocks (default 10 000) the
//! select→aggregate chain issues >2× that many work orders.
//!
//! One table holds serial and `Parallel(UOT_WORKERS)` rows. The modes run
//! interleaved — every run executes each plan under each mode once before
//! the next run starts — so drift on the machine lands on both alike. Serial
//! is the one-worker pool on the calling thread (`Parallel(1)` runs the same
//! code), so the parallel row's gap to it is the price of a second worker
//! contending for the dispatcher lock.
//!
//! Env knobs: `UOT_DISPATCH_BLOCKS` (source blocks), `UOT_RUNS` (protocol
//! runs, mean of best 3), `UOT_WORKERS` (parallel worker count).

use std::sync::Arc;
use std::time::Duration;
use uot_bench::{mean_of_best, runs, workers, PlatformInfo, ReportTable};
use uot_core::{Engine, EngineConfig, ExecMode, PlanBuilder, QueryPlan, Source, Uot};
use uot_expr::{AggSpec, Predicate};
use uot_storage::{BlockFormat, DataType, Schema, TableBuilder, Value};

/// Tiny blocks: 64 bytes of row data per block (~16 Int32 rows).
const BLOCK_BYTES: usize = 64;

fn dispatch_blocks() -> usize {
    std::env::var("UOT_DISPATCH_BLOCKS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000)
}

fn make_tiny_block_table(blocks: usize) -> Arc<uot_storage::Table> {
    let schema = Schema::from_pairs(&[("k", DataType::Int32)]);
    let rows_per_block = BLOCK_BYTES / std::mem::size_of::<i32>();
    let mut tb = TableBuilder::new("tiny", schema, BlockFormat::Column, BLOCK_BYTES);
    for i in 0..(blocks * rows_per_block) as i64 {
        tb.append(&[Value::I32(i as i32)]).expect("append row");
    }
    Arc::new(tb.finish())
}

/// select(True) — one work order per source block, nothing downstream.
fn select_only(table: Arc<uot_storage::Table>) -> QueryPlan {
    let mut pb = PlanBuilder::new();
    let sel = pb
        .filter(Source::Table(table), Predicate::True)
        .expect("filter");
    pb.build(sel).expect("plan builds")
}

/// select(True) → aggregate(count) — exercises producer→consumer routing on
/// every block plus the finalize work order.
fn select_aggregate(table: Arc<uot_storage::Table>) -> QueryPlan {
    let mut pb = PlanBuilder::new();
    let sel = pb
        .filter(Source::Table(table), Predicate::True)
        .expect("filter");
    let agg = pb
        .aggregate(Source::Op(sel), vec![], vec![AggSpec::count_star()], &["n"])
        .expect("aggregate");
    pb.build(agg).expect("plan builds")
}

fn engine(mode: ExecMode) -> Engine {
    Engine::new(
        EngineConfig {
            mode,
            ..EngineConfig::serial()
        }
        .with_block_bytes(BLOCK_BYTES)
        .with_uot(Uot::LOW),
    )
}

fn main() {
    let blocks = dispatch_blocks();
    let table = make_tiny_block_table(blocks);
    let plans: Vec<(&str, QueryPlan)> = vec![
        ("select-only", select_only(table.clone())),
        ("select->aggregate", select_aggregate(table)),
    ];
    let mut modes = vec![ExecMode::Serial];
    if workers() > 1 {
        modes.push(ExecMode::Parallel { workers: workers() });
    }
    let engines: Vec<Engine> = modes.iter().map(|&m| engine(m)).collect();
    let n = runs();
    // times[plan][mode], one entry per run; work orders per plan.
    let mut times = vec![vec![Vec::<Duration>::with_capacity(n); modes.len()]; plans.len()];
    let mut wos = vec![0u64; plans.len()];
    for _ in 0..n {
        for (p, (_, plan)) in plans.iter().enumerate() {
            for (m, engine) in engines.iter().enumerate() {
                let r = engine.execute(plan.clone()).expect("bench query runs");
                times[p][m].push(r.metrics.wall_time);
                wos[p] = r.metrics.ops.iter().map(|o| o.work_orders as u64).sum();
            }
        }
    }

    println!(
        "sched_dispatch: {blocks} tiny source blocks, {n} interleaved runs (mean of best 3), {} CPUs",
        PlatformInfo::collect().cpus
    );
    let mut t = ReportTable::new(
        format!("Scheduler dispatch overhead ({blocks} tiny source blocks)"),
        &[
            "plan",
            "mode",
            "work orders",
            "total ms",
            "ns / work order",
            "x serial",
        ],
    );
    for (p, (plan_name, _)) in plans.iter().enumerate() {
        let serial = mean_of_best(&mut times[p][0], 3);
        for (m, mode) in modes.iter().enumerate() {
            let d = mean_of_best(&mut times[p][m], 3);
            let mode_name = match mode {
                ExecMode::Serial => "serial".to_string(),
                ExecMode::Parallel { workers } => format!("parallel({workers})"),
            };
            t.row(vec![
                plan_name.to_string(),
                mode_name,
                wos[p].to_string(),
                format!("{:.2}", d.as_secs_f64() * 1e3),
                format!("{:.1}", d.as_secs_f64() * 1e9 / wos[p].max(1) as f64),
                format!("{:.2}", d.as_secs_f64() / serial.as_secs_f64()),
            ]);
        }
    }
    t.emit();
}
