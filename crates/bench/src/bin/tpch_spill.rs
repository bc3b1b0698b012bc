//! TPC-H under a starvation budget: the graceful-degradation contract.
//!
//! Runs the mixed TPC-H workload through one [`QueryService`] configuration
//! axis — a comfortable reservation (the reference), then, at each tight
//! reservation, `DegradePolicy::Off` and `DegradePolicy::Spill` at the
//! table UoT (operator-at-a-time: every intermediate is held whole) and
//! `DegradePolicy::Spill` at the low UoT (one block per transfer, so the
//! held intermediates are mostly blocks queued for a worker) — and asserts
//! the contract at each point:
//!
//! 1. With spill, at both UoTs, **every** query completes and its sorted
//!    result rows are byte-identical to the comfortable-reservation
//!    reference.
//! 2. Without spill, at least one query fails with a fully attributed
//!    `BudgetExceeded` at the same tight reservation at the table UoT —
//!    proving the budget really is below the working set and the disk tier
//!    is what saved the spill run. Each such error shows the check that
//!    refused it: `in_use + requested` exceeds the query's budget, or the
//!    global figures the global one. At the low UoT the staged mix fits
//!    these reservations without spill, so that leg proves byte-identity
//!    under eviction and grace partitioning, not tightness.
//! 3. Each spill run touched the disk tier (`spill_events > 0` at each
//!    UoT on its own), and every service drains its tracker to 0.
//!
//! Every run is staged (`FusionPolicy::Never`), as spill runs always are.
//!
//! ```text
//! cargo run --release -p uot-bench --bin tpch_spill [-- --smoke]
//! ```
//!
//! `--smoke` runs at SF 0.005 and checks two tight reservations, 448 KiB and
//! the measured floor, 416 KiB; a full run checks 448 KiB scaled by SF. Knobs: `UOT_SF`,
//! `UOT_WORKERS`, and `UOT_SPILL_RESERVATION` (one tight per-query
//! reservation in bytes, replacing the pinned points). CI runs this in the
//! spill job across a `CHAOS_SEED` matrix alongside the chaos suites.

use std::time::{Duration, Instant};
use uot_bench::{ms, workers, ReportTable};
use uot_core::{
    DegradePolicy, EngineError, ExecOptions, FusionPolicy, QueryService, ServiceConfig, Uot,
};
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
    spill_file_bytes: usize,
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
        // Staged, like every spill run (a fused loop materializes nothing
        // to evict), so the Off run holds what the Spill run holds.
        fusion: FusionPolicy::Never,
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
            let (spill_events, spilled_bytes, spill_file_bytes) = outcome
                .as_ref()
                .map(|r| {
                    let m = &r.metrics;
                    (m.spill_events, m.spilled_bytes, m.spill_file_bytes)
                })
                .unwrap_or((0, 0, 0));
            Run {
                rows: outcome.map(|r| r.sorted_rows()),
                latency,
                spill_events,
                spilled_bytes,
                spill_file_bytes,
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
    // A tight reservation must sit in the degradation band: above the
    // non-evictable floor (blocks running on workers, hash tables, output
    // partials, a build's uncharged runs and a grace join's open partition
    // buffers) so spill can complete, below the mix's working set so the
    // no-spill run provably fails. The band is not monotone — a *larger*
    // reservation can fail where a smaller one passes, because the grace
    // arming threshold (est > budget/2) moves with it — so the points are
    // pinned and tested per SF rather than a formula; override to explore.
    // The smoke run sweeps down to the measured floor: at 384 KiB a grace
    // join's open partition buffers (16 of them) leave no room.
    let scale = ((sf / 0.005) as usize).max(1);
    let kib: &[usize] = if smoke { &[448, 416] } else { &[448] };
    let points: Vec<usize> = match std::env::var("UOT_SPILL_RESERVATION") {
        Ok(r) => vec![r.parse().expect("UOT_SPILL_RESERVATION is a byte count")],
        Err(_) => kib.iter().map(|k| scale * (k << 10)).collect(),
    };
    println!(
        "tpch spill: SF {sf}, {} workers, tight reservations {:?} KiB{}",
        workers(),
        points.iter().map(|p| p >> 10).collect::<Vec<_>>(),
        if smoke { " [smoke]" } else { "" }
    );
    let db = TpchDb::generate(
        TpchConfig::scale(sf)
            .with_block_bytes(32 * 1024)
            .with_format(BlockFormat::Column),
    );
    let reference = drive(&db, Uot::LOW, 16 << 20, DegradePolicy::Off);
    for tight in points {
        check_contract(&db, &reference, tight);
    }
}

/// Run the mix at the `tight` reservation — without spill and with it at
/// the table UoT, with it at the low UoT — and assert the contract against
/// the comfortable-reservation `reference`.
fn check_contract(db: &TpchDb, reference: &[Run], tight: usize) {
    let strict = drive(db, Uot::Table, tight, DegradePolicy::Off);
    let spill_table = drive(db, Uot::Table, tight, DegradePolicy::Spill);
    let spill_low = drive(db, Uot::LOW, tight, DegradePolicy::Spill);

    let mut table = ReportTable::new(
        format!(
            "TPC-H under a starvation budget ({} KiB): Off fails, Spill completes identically",
            tight >> 10
        ),
        &[
            "query",
            "ref ms",
            "table+Off",
            "table+Spill ms",
            "table spills",
            "low+Spill ms",
            "low spills",
            "identical",
        ],
    );
    let mut strict_failures = 0usize;
    let mut spill_events = [0usize; 2];
    let mut largest_file = 0usize;
    for (i, q) in MIX.iter().enumerate() {
        let reference_rows = reference[i]
            .rows
            .as_ref()
            .unwrap_or_else(|e| panic!("{} reference run failed: {e}", q.label()));
        let strict_outcome = match &strict[i].rows {
            Ok(_) => "ok".to_string(),
            Err(
                e @ EngineError::BudgetExceeded {
                    op,
                    requested,
                    in_use,
                    budget,
                    global_in_use,
                    global_budget,
                    ..
                },
            ) => {
                // The error shows the check that refused: that level was
                // full for the bytes requested.
                assert!(
                    in_use + requested > *budget || global_in_use + requested > *global_budget,
                    "{}: a budget error below its budget: {e}",
                    q.label()
                );
                strict_failures += 1;
                format!("budget@{op}")
            }
            Err(e) => panic!(
                "{}: tight budget without spill may only fail BudgetExceeded, got {e}",
                q.label()
            ),
        };
        for (leg, (uot, spill)) in [("table", &spill_table[i]), ("low", &spill_low[i])]
            .into_iter()
            .enumerate()
        {
            let rows = spill.rows.as_ref().unwrap_or_else(|e| {
                panic!(
                    "{} must complete under DegradePolicy::Spill at {} KiB, {uot} UoT: {e}",
                    q.label(),
                    tight >> 10
                )
            });
            assert!(
                rows == reference_rows,
                "{}: spilled run at the {uot} UoT diverged from the reference result",
                q.label()
            );
            spill_events[leg] += spill.spill_events;
            largest_file = largest_file.max(spill.spill_file_bytes);
        }
        let spills = |r: &Run| format!("{} ({} B)", r.spill_events, r.spilled_bytes);
        table.row(vec![
            q.label(),
            ms(reference[i].latency),
            strict_outcome,
            ms(spill_table[i].latency),
            spills(&spill_table[i]),
            ms(spill_low[i].latency),
            spills(&spill_low[i]),
            "yes".to_string(),
        ]);
    }
    table.emit();

    assert!(
        strict_failures > 0,
        "no query failed at the tight reservation without spill — the budget \
         is not below the working set; lower UOT_SPILL_RESERVATION"
    );
    let [table_events, low_events] = spill_events;
    assert!(
        table_events > 0 && low_events > 0,
        "no spill activity at the tight reservation ({table_events} at the table UoT, \
         {low_events} at the low UoT) — raise SF or lower UOT_SPILL_RESERVATION"
    );
    println!(
        "contract holds at {} KiB: {strict_failures}/{} queries fail without spill; all {} \
         complete byte-identically with it at both UoTs ({table_events} spill events at the \
         table UoT, {low_events} at the low UoT; largest spill file {} KiB)",
        tight >> 10,
        MIX.len(),
        MIX.len(),
        largest_file.div_ceil(1 << 10)
    );
}
