//! TPC-H under a starvation budget: the graceful-degradation contract.
//!
//! Runs the mixed TPC-H workload three ways through one [`QueryService`]
//! configuration axis — a comfortable reservation (the reference), a tight
//! reservation with `DegradePolicy::Off`, and the same tight reservation
//! with `DegradePolicy::Spill` — and asserts the contract both ways:
//!
//! 1. With spill, **every** query completes and its sorted result rows are
//!    byte-identical to the comfortable-reservation reference.
//! 2. Without spill, at least one query fails with a fully attributed
//!    `BudgetExceeded` at the same tight reservation — proving the budget
//!    really is below the working set and the disk tier is what saved run 1.
//! 3. At least one spill run actually touched the disk tier
//!    (`spill_events > 0`), and every service drains its tracker to 0.
//!
//! ```text
//! cargo run --release -p uot-bench --bin tpch_spill [-- --smoke]
//! ```
//!
//! Knobs: `UOT_SF`, `UOT_WORKERS`, and `UOT_SPILL_RESERVATION` (tight
//! per-query reservation in bytes; scaled defaults below). CI runs this in
//! the spill job across a `CHAOS_SEED` matrix alongside the chaos suites.

use std::time::{Duration, Instant};
use uot_bench::{ms, workers, ReportTable};
use uot_core::{DegradePolicy, EngineError, ExecOptions, QueryService, ServiceConfig, Uot};
use uot_storage::{BlockFormat, Value};
use uot_tpch::{sql_text, QueryId as TpchQuery, TpchConfig, TpchDb};

/// The mix perfbench's `service-mix` workload runs: one of each plan shape.
const MIX: [TpchQuery; 5] = [
    TpchQuery::Q1,
    TpchQuery::Q3,
    TpchQuery::Q6,
    TpchQuery::Q12,
    TpchQuery::Q19,
];

struct Run {
    rows: Result<Vec<Vec<Value>>, EngineError>,
    latency: Duration,
    spill_events: usize,
    spilled_bytes: usize,
}

/// Submit every query in the mix serially against a fresh service with the
/// given reservation/degrade policy; returns one [`Run`] per query and
/// asserts the shared tracker drains to zero afterwards.
fn drive(db: &TpchDb, uot: Uot, reservation: usize, degrade: DegradePolicy) -> Vec<Run> {
    let service = QueryService::start(ServiceConfig {
        workers: workers(),
        block_bytes: 32 * 1024,
        default_uot: uot,
        memory_budget: 256 << 20,
        default_reservation: reservation,
        degrade,
        catalog: db.catalog().clone(),
        ..Default::default()
    })
    .expect("service starts");
    let runs = MIX
        .iter()
        .map(|&q| {
            let t0 = Instant::now();
            let outcome = service
                .submit_sql_with(sql_text(q), ExecOptions::default())
                .expect("service accepts")
                .wait();
            let latency = t0.elapsed();
            let (spill_events, spilled_bytes) = outcome
                .as_ref()
                .map(|r| (r.metrics.spill_events, r.metrics.spilled_bytes))
                .unwrap_or((0, 0));
            Run {
                rows: outcome.map(|r| r.sorted_rows()),
                latency,
                spill_events,
                spilled_bytes,
            }
        })
        .collect();
    let in_use = service.memory_in_use();
    assert_eq!(
        in_use, 0,
        "tracker must drain to 0 after the mix (degrade={degrade:?}, got {in_use})"
    );
    service.shutdown();
    runs
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sf = if smoke {
        0.005
    } else {
        std::env::var("UOT_SF")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.02)
    };
    // The tight reservation must sit in the degradation band: above the
    // non-evictable floor (in-flight blocks, hash-table shards, output
    // partials) so spill can complete, below the mix's working set so the
    // no-spill run provably fails. The band is not monotone — a *larger*
    // reservation can fail where a smaller one passes, because the grace
    // arming threshold (est > budget/2) moves with it — so the default is a
    // pinned, tested point per SF rather than a formula; override to explore.
    let tight = std::env::var("UOT_SPILL_RESERVATION")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| ((sf / 0.005) as usize).max(1) * (448 << 10));
    println!(
        "tpch spill: SF {sf}, {} workers, tight reservation {} KiB{}",
        workers(),
        tight >> 10,
        if smoke { " [smoke]" } else { "" }
    );
    let db = TpchDb::generate(
        TpchConfig::scale(sf)
            .with_block_bytes(32 * 1024)
            .with_format(BlockFormat::Column),
    );

    let reference = drive(&db, Uot::LOW, 16 << 20, DegradePolicy::Off);
    let strict = drive(&db, Uot::LOW, tight, DegradePolicy::Off);
    let spill = drive(&db, Uot::LOW, tight, DegradePolicy::Spill);

    let mut table = ReportTable::new(
        "TPC-H under a starvation budget: Off fails, Spill completes identically",
        &[
            "query",
            "ref ms",
            "tight+Off",
            "tight+Spill ms",
            "spill events",
            "spilled B",
            "identical",
        ],
    );
    let mut strict_failures = 0usize;
    let mut total_spill_events = 0usize;
    for (i, q) in MIX.iter().enumerate() {
        let reference_rows = reference[i]
            .rows
            .as_ref()
            .unwrap_or_else(|e| panic!("{} reference run failed: {e}", q.label()));
        let strict_outcome = match &strict[i].rows {
            Ok(_) => "ok".to_string(),
            Err(EngineError::BudgetExceeded { op, .. }) => {
                strict_failures += 1;
                format!("budget@{op}")
            }
            Err(e) => panic!(
                "{}: tight budget without spill may only fail BudgetExceeded, got {e}",
                q.label()
            ),
        };
        let spilled_rows = spill[i].rows.as_ref().unwrap_or_else(|e| {
            panic!(
                "{} must complete under DegradePolicy::Spill: {e}",
                q.label()
            )
        });
        let identical = spilled_rows == reference_rows;
        assert!(
            identical,
            "{}: spilled run diverged from the reference result",
            q.label()
        );
        total_spill_events += spill[i].spill_events;
        table.row(vec![
            q.label(),
            ms(reference[i].latency),
            strict_outcome,
            ms(spill[i].latency),
            spill[i].spill_events.to_string(),
            spill[i].spilled_bytes.to_string(),
            "yes".to_string(),
        ]);
    }
    table.emit();

    assert!(
        strict_failures > 0,
        "no query failed at the tight reservation without spill — the budget \
         is not below the working set; lower UOT_SPILL_RESERVATION"
    );
    assert!(
        total_spill_events > 0,
        "no spill activity at the tight reservation — raise SF or lower \
         UOT_SPILL_RESERVATION"
    );
    println!(
        "contract holds: {strict_failures}/{} queries fail without spill; all {} complete \
         byte-identically with it ({total_spill_events} spill events)",
        MIX.len(),
        MIX.len()
    );
}
