//! Cross-query isolation proptests for the multi-query [`QueryService`]:
//!
//! 1. A query's results and its schedule-deterministic metrics (per-operator
//!    work-order counts and produced rows, result rows) are identical when
//!    it runs alone vs alongside noisy neighbors — including a sibling with
//!    injected faults and a sibling cancelled mid-run.
//! 2. The shared pool tracker returns to exactly 0 after all queries drain,
//!    on every teardown path (success, fault, cancellation).
//! 3. Concurrent SQL clients share one plan cache, and the hub's latency
//!    histogram accounts for every submission.
//!
//! Timing-dependent metrics (wall time, task durations, peak bytes, pool
//! counters) are legitimately perturbed by contention and are not compared.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uot_core::obs::hub::bucket_index;
use uot_core::{
    DegradePolicy, EngineError, ExecOptions, FaultKind, FaultPlan, FaultSite, FusionPolicy,
    HubHistogram, Injection, JoinType, PlanBuilder, QueryHandle, QueryPlan, QueryResult,
    QueryService, ServiceConfig, Source, Uot,
};
use uot_expr::{cmp, col, lit, AggSpec, CmpOp};
use uot_storage::{BlockFormat, Catalog, DataType, Schema, Table, TableBuilder, Value};

/// Silence the default panic hook for *injected* panics only (they are
/// expected and contained); anything else still prints normally.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected"))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

fn arb_table(name: &'static str, max_rows: usize) -> impl Strategy<Value = Arc<Table>> {
    (
        proptest::collection::vec((0i32..25, -500i64..500), 1..max_rows),
        1usize..6,
    )
        .prop_map(move |(rows, rows_per_block)| {
            let schema = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
            let mut tb = TableBuilder::new(
                name,
                schema.clone(),
                BlockFormat::Column,
                schema.tuple_width() * rows_per_block,
            );
            for (k, v) in &rows {
                tb.append(&[Value::I32(*k), Value::I64(*v)]).unwrap();
            }
            Arc::new(tb.finish())
        })
}

/// select(fact) -> probe(dim) -> aggregate: stream transfers, a hash table,
/// staged edges and an output-emitting finalize.
fn join_agg_plan(fact: &Arc<Table>, dim: &Arc<Table>) -> QueryPlan {
    let mut pb = PlanBuilder::new();
    let b = pb
        .build_hash(Source::Table(dim.clone()), vec![0], vec![0, 1])
        .unwrap();
    let s = pb
        .filter(
            Source::Table(fact.clone()),
            cmp(col(0), CmpOp::Lt, lit(20i32)),
        )
        .unwrap();
    let p = pb
        .probe(
            Source::Op(s),
            b,
            vec![0],
            vec![0, 1],
            vec![1],
            JoinType::Inner,
        )
        .unwrap();
    let a = pb
        .aggregate(
            Source::Op(p),
            vec![0],
            vec![AggSpec::count_star(), AggSpec::sum(col(1))],
            &["n", "sv"],
        )
        .unwrap();
    pb.build(a).unwrap()
}

/// The comparison basis: everything about an execution that must not depend
/// on what else the service is running.
#[derive(Debug, PartialEq)]
struct Deterministic {
    sorted_rows: Vec<Vec<Value>>,
    per_op: Vec<(String, usize, usize)>, // (name, work_orders, produced_rows)
    result_rows: usize,
}

fn deterministic_view(result: &uot_core::QueryResult) -> Deterministic {
    Deterministic {
        sorted_rows: result.sorted_rows(),
        per_op: result
            .metrics
            .ops
            .iter()
            .map(|o| (o.name.clone(), o.work_orders, o.produced_rows))
            .collect(),
        result_rows: result.metrics.result_rows,
    }
}

fn service() -> QueryService {
    QueryService::start(ServiceConfig {
        workers: 2,
        memory_budget: 64 << 20,
        default_reservation: 4 << 20,
        block_bytes: 128,
        ..Default::default()
    })
    .expect("service starts")
}

/// A fixed (non-proptest) table for the deterministic regression tests.
fn fixed_table(name: &'static str, n: i32) -> Arc<Table> {
    let schema = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
    let mut tb = TableBuilder::new(
        name,
        schema.clone(),
        BlockFormat::Column,
        schema.tuple_width() * 4,
    );
    for i in 0..n {
        tb.append(&[Value::I32(i % 25), Value::I64(i as i64)])
            .unwrap();
    }
    Arc::new(tb.finish())
}

/// Regression: a budget error surfacing from the *transfer-flush* path (the
/// scheduler flushing a staged edge) must carry the same operator, query and
/// occupancy attribution as one raised on the operator allocation path, so
/// diagnostics never need to care where the failure surfaced.
#[test]
fn transfer_flush_budget_error_carries_full_attribution() {
    let fact = fixed_table("tf_fact", 60);
    let dim = fixed_table("tf_dim", 10);
    let svc = service();
    let faults = Arc::new(FaultPlan::new(vec![Injection {
        site: FaultSite::TransferFlush,
        kind: FaultKind::Error,
        nth: 1,
    }]));
    let handle = svc
        .submit_with(
            join_agg_plan(&fact, &dim),
            ExecOptions::default()
                .with_uot(Uot::Table)
                // Fusion off: a fused select->probe chain bypasses the
                // staged edge, and the flush site would never fire.
                .with_fusion(FusionPolicy::Never)
                .with_faults(faults),
        )
        .unwrap();
    let id = handle.id();
    match handle.wait().unwrap_err() {
        EngineError::BudgetExceeded {
            op,
            query,
            requested,
            budget,
            global_budget,
            ..
        } => {
            assert!(!op.is_empty(), "flush failure must name the flushing op");
            assert_eq!(query, id, "flush failure must name the query");
            assert_eq!(requested, 0, "injected-fault convention");
            assert_eq!(budget, 4 << 20, "per-query reservation");
            assert_eq!(global_budget, 64 << 20, "service-wide budget");
        }
        other => panic!("expected BudgetExceeded from transfer flush, got {other}"),
    }
    assert_eq!(svc.memory_in_use(), 0, "failed flush must not leak");
}

/// The SQL client mix: a grouped aggregation, a filtered scalar aggregate, a
/// join and a sort with a limit — one of each plan shape.
const MIX: [&str; 4] = [
    "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM fact GROUP BY k ORDER BY k",
    "SELECT SUM(v) AS s FROM fact WHERE k < 5",
    "SELECT dk, COUNT(*) AS n, SUM(w) AS sw FROM fact, dim WHERE k = dk GROUP BY dk",
    "SELECT k, v FROM fact WHERE k = 3 ORDER BY v DESC LIMIT 10",
];

fn mix_catalog() -> Arc<Catalog> {
    let c = Catalog::new();
    let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
    let mut fact = TableBuilder::new("fact", s, BlockFormat::Column, 1024);
    for i in 0..3000 {
        fact.append(&[Value::I32(i % 25), Value::I64(i as i64)])
            .unwrap();
    }
    c.register(fact.finish()).unwrap();
    let s = Schema::from_pairs(&[("dk", DataType::Int32), ("w", DataType::Int64)]);
    let mut dim = TableBuilder::new("dim", s, BlockFormat::Column, 1024);
    for i in 0..20 {
        dim.append(&[Value::I32(i), Value::I64(i as i64 * 3)])
            .unwrap();
    }
    c.register(dim.finish()).unwrap();
    c
}

/// Rank `round((n-1)·p)` of `sorted`, the rule the hub's quantiles use.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Wait for every handle, failing instead of hanging if admission stalls.
fn wait_all(handles: Vec<QueryHandle>) -> Vec<uot_core::Result<QueryResult>> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handles.into_iter().map(QueryHandle::wait).collect());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("admission stalled: queued queries never ran")
}

/// Closed-loop SQL clients against one service: client `c` submits
/// `MIX[(c + r) % MIX.len()]` in round `r`, so distinct statements are in
/// flight together and each client revisits its own first statement (a
/// guaranteed plan-cache hit). The plan cache counts every submission once,
/// the hub's latency histogram sees every query and never reads above the
/// clients' own clocks, and the shared tracker drains to 0 — under each UoT
/// extreme, under the spill tier, and with admission serialized.
#[test]
fn sql_clients_share_the_plan_cache_and_drain_the_tracker() {
    const CLIENTS: usize = 3;
    const ROUNDS: usize = MIX.len() + 1;
    let catalog = mix_catalog();
    for (uot, reservation, degrade) in [
        (Uot::LOW, 16usize << 20, DegradePolicy::Off),
        (Uot::Table, 16 << 20, DegradePolicy::Off),
        (Uot::LOW, 1 << 20, DegradePolicy::Spill),
    ] {
        let label = format!("{uot:?}/{degrade:?}");
        let service = QueryService::start(ServiceConfig {
            workers: 2,
            block_bytes: 4096,
            default_uot: uot,
            memory_budget: 256 << 20,
            default_reservation: reservation,
            degrade,
            catalog: catalog.clone(),
            ..Default::default()
        })
        .expect("service starts");
        let mut latencies: Vec<Duration> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let service = &service;
                    s.spawn(move || {
                        (0..ROUNDS)
                            .map(|r| {
                                let sql = MIX[(c + r) % MIX.len()];
                                let t0 = Instant::now();
                                let result = service
                                    .submit_sql(sql)
                                    .expect("service accepts")
                                    .wait()
                                    .unwrap_or_else(|e| panic!("client {c}: {sql}: {e}"));
                                let latency = t0.elapsed();
                                assert!(result.num_rows() > 0, "{sql} returned no rows");
                                latency
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        latencies.sort_unstable();
        let submissions = (CLIENTS * ROUNDS) as u64;

        let cache = service.plan_cache_stats();
        assert_eq!(
            cache.entries,
            MIX.len().min(CLIENTS + ROUNDS - 1),
            "{label}"
        );
        assert!(cache.hits > 0, "{label}: no plan-cache hits");
        assert_eq!(cache.hits + cache.misses, submissions, "{label}");

        // The hub stamps each latency before the reply is sent and counts
        // from after the client's clock started, so at every rank the hub's
        // bucket cannot lie above the client's.
        let snap = service.hub_snapshot();
        let hub = snap.histogram(HubHistogram::QueryLatencyUs);
        assert_eq!(hub.count, submissions, "{label}");
        for p in [0.50, 0.99] {
            let client_us = percentile(&latencies, p).as_micros() as u64;
            let (h, c) = (bucket_index(hub.quantile(p)), bucket_index(client_us));
            assert!(
                h <= c,
                "{label} p{p}: hub bucket {h} above client bucket {c}"
            );
        }

        let in_use = service.memory_in_use();
        assert_eq!(
            in_use, 0,
            "{label}: {in_use} bytes still charged after the drain"
        );
        service.shutdown();
    }

    // Admission serialized: the budget fits exactly one reservation, so the
    // whole mix queues up front and runs one query at a time.
    let serialized = QueryService::start(ServiceConfig {
        workers: 2,
        block_bytes: 4096,
        memory_budget: 16 << 20,
        default_reservation: 16 << 20,
        catalog,
        ..Default::default()
    })
    .expect("service starts");
    let handles = (0..CLIENTS * ROUNDS)
        .map(|i| {
            serialized
                .submit_sql(MIX[i % MIX.len()])
                .expect("service accepts")
        })
        .collect();
    for result in wait_all(handles) {
        result.expect("serialized query runs");
    }
    assert!(serialized.plan_cache_stats().hits > 0);
    assert_eq!(serialized.memory_in_use(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn query_is_isolated_from_noisy_siblings(
        fact in arb_table("iso_fact", 40),
        dim in arb_table("iso_dim", 15),
        noise_fact in arb_table("noise_fact", 60),
        noise_dim in arb_table("noise_dim", 15),
        uot in prop_oneof![Just(Uot::Blocks(1)), Just(Uot::Blocks(3)), Just(Uot::Table)],
        fault_kind in 0usize..2,
        nth in 1usize..10,
    ) {
        quiet_injected_panics();
        let plan = join_agg_plan(&fact, &dim);
        let opts = ExecOptions::default().with_uot(uot);
        let svc = service();

        // Baseline: the query alone on an otherwise idle service.
        let baseline = svc
            .submit_with(plan.clone(), opts.clone())
            .unwrap()
            .wait()
            .unwrap();
        let baseline_view = deterministic_view(&baseline);
        prop_assert_eq!(svc.memory_in_use(), 0, "baseline teardown leaked");

        // The same query alongside three noisy neighbors: a plain sibling,
        // a sibling with an injected fault, and a sibling cancelled mid-run.
        let kind = if fault_kind == 0 { FaultKind::Panic } else { FaultKind::Error };
        let faults = Arc::new(FaultPlan::new(vec![Injection {
            site: FaultSite::WorkOrderExec,
            kind,
            nth,
        }]));
        let victim = svc.submit_with(plan.clone(), opts.clone()).unwrap();
        let noisy = svc
            .submit_with(join_agg_plan(&noise_fact, &noise_dim), opts.clone())
            .unwrap();
        let faulted = svc
            .submit_with(
                join_agg_plan(&noise_fact, &noise_dim),
                opts.clone().with_faults(faults),
            )
            .unwrap();
        let cancelled = svc
            .submit_with(join_agg_plan(&noise_fact, &noise_dim), opts)
            .unwrap();
        cancelled.cancel();

        let contended = victim.wait().unwrap();
        // Drain the neighbors: any outcome is legal for them — the noisy one
        // succeeds, the faulted one fails or survives (nth past its schedule),
        // the cancelled one is cancelled or finished the race.
        let _ = noisy.wait().unwrap();
        match faulted.wait() {
            Ok(_) => {}
            Err(
                EngineError::WorkOrderPanic { .. }
                | EngineError::BudgetExceeded { .. }
                | EngineError::Internal(_)
                | EngineError::Storage(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected fault shape: {other}"),
        }
        match cancelled.wait() {
            Ok(_) | Err(EngineError::Cancelled { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected cancel outcome: {other}"),
        }

        // Byte-identical results and schedule-deterministic metrics.
        prop_assert_eq!(deterministic_view(&contended), baseline_view);
        // Invariant 2: every teardown path drained its temporary memory.
        prop_assert_eq!(
            svc.memory_in_use(),
            0,
            "pool tracker nonzero after all queries drained (uot={})",
            uot
        );
    }
}
