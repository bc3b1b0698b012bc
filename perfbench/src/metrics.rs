//! From samples and the program's own counters to named metrics.
//!
//! End-to-end metrics come from an untraced pass. Per-layer metrics come
//! from a traced pass: the benchmark's spans plus what the program already
//! returns (`QueryMetrics`, `Trace`, the service hub, the plan-cache
//! outcome). Per-query figures are means over the pass's successful queries.

use crate::system::Pass;
use std::time::Duration;
use uot_core::{HistogramSnapshot, HubHistogram, PlanCacheOutcome};
use uot_tpch::QueryId as Stmt;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        // An empty float sum is -0.0; report it as 0.
        value: value + 0.0,
        unit,
    }
}

/// The `p` quantile of an ascending slice (0 when empty): the mean of the
/// samples ranked within 1% of the sample count of the nearest rank
/// `round((n-1)·p)`, the rule the hub and `concurrent_clients` use. A mix of
/// statements has one latency range per statement, and a single order
/// statistic near where two ranges meet jumps between them from run to run;
/// the average over the window moves smoothly. Below 100 samples it is the
/// nearest-rank sample itself.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((n - 1) as f64 * p).round() as usize;
    let window = &sorted[rank.saturating_sub(n / 100)..=(rank + n / 100).min(n - 1)];
    window.iter().sum::<f64>() / window.len() as f64
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

const MIB: f64 = (1 << 20) as f64;

/// Latencies of each statement in `only`, ms, ascending.
fn statement_latencies(pass: &Pass, stmts: &[Stmt], only: &[Stmt]) -> Vec<(Stmt, Vec<f64>)> {
    only.iter()
        .map(|q| {
            let lat = pass
                .executed()
                .filter(|(s, _)| stmts[s.stmt] == *q)
                .map(|(s, _)| ms(s.latency))
                .collect();
            (*q, sorted(lat))
        })
        .collect()
}

/// Mean of the best three of ascending `lat` (the paper's protocol).
fn best_of_three(lat: &[f64]) -> f64 {
    let best = &lat[..lat.len().min(3)];
    best.iter().sum::<f64>() / best.len().max(1) as f64
}

/// Latency samples of the successful queries, ms, ascending.
fn latencies_ms(pass: &Pass) -> Vec<f64> {
    sorted(pass.executed().map(|(s, _)| ms(s.latency)).collect())
}

/// The end-to-end metrics of an untraced pass. `geomean_ms` weighs every
/// statement equally (TPC-H power style) and takes each statement's time by
/// the paper's protocol, the mean of its best three runs, which other
/// tenants of a shared machine move far less than a median.
pub fn end_to_end(setup: &[Duration], pass: &Pass, stmts: &[Stmt]) -> Vec<Metric> {
    let per_stmt = statement_latencies(pass, stmts, stmts);
    let geomean = (per_stmt
        .iter()
        .map(|(_, l)| best_of_three(l).max(1e-9).ln())
        .sum::<f64>()
        / per_stmt.len().max(1) as f64)
        .exp();
    // The footprint of the hungriest statement: each statement's median
    // per-query peak, then the largest. Under spill a query's peak depends
    // on when eviction runs, so a plain maximum would report the rarest case.
    let peak = stmts
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let peaks: Vec<f64> = pass
                .executed()
                .filter(|(s, _)| s.stmt == i)
                .map(|(_, e)| e.metrics().peak_temp_bytes as f64)
                .collect();
            median(&peaks)
        })
        .fold(0.0, f64::max);
    let setup_s: Vec<f64> = setup.iter().map(Duration::as_secs_f64).collect();
    vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("throughput_qps", pass.throughput(), "1/s"),
        metric(
            "latency_p50_ms",
            percentile(&latencies_ms(pass), 0.50),
            "ms",
        ),
        metric("geomean_ms", geomean, "ms"),
        metric("peak_temp_mb", peak / MIB, "MiB"),
    ]
}

/// Operator kinds, as `OperatorMetrics::kind` labels them.
const KINDS: [&str; 7] = [
    "select",
    "probe",
    "build",
    "aggregate",
    "sort",
    "nlj",
    "limit",
];

/// Inputs to the per-layer metrics besides the two passes.
#[derive(Debug, Clone, Copy)]
pub struct LayerInputs {
    /// `TpchDb::generate`, one call.
    pub generate: Duration,
    /// Mean over statements of the median `uot_core::compile` time.
    pub compile: Duration,
}

/// `after − before` of one hub histogram: what a pass added.
fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum - before.sum,
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(a, b)| a - b)
            .collect(),
    }
}

/// The per-layer metrics: `traced` gives the layer split, `plain` (the
/// untraced pass of the same run) the per-statement latencies and the
/// tracing overhead.
pub fn per_layer(
    inputs: LayerInputs,
    plain: &Pass,
    traced: &Pass,
    stmts: &[Stmt],
    per_statement: &[Stmt],
) -> Vec<Metric> {
    let ok: Vec<_> = traced.executed().collect();
    let q = ok.len().max(1) as f64;
    let sum = |f: &dyn Fn(&uot_core::QueryMetrics) -> f64| -> f64 {
        ok.iter().map(|(_, e)| f(e.metrics())).sum()
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut out = vec![
        metric("tpch.generate_s", inputs.generate.as_secs_f64(), "s"),
        metric("sql.compile_us", us(inputs.compile), "us"),
    ];
    let lookups: Vec<_> = ok
        .iter()
        .filter_map(|(_, e)| e.metrics().plan_cache)
        .collect();
    let hits = lookups
        .iter()
        .filter(|o| **o == PlanCacheOutcome::Hit)
        .count();
    out.push(metric(
        "sql.plan_cache_hit_ratio",
        ratio(hits as f64, lookups.len() as f64),
        "ratio",
    ));

    // service: time in submit, time between the call and the scheduler's
    // own wall clock, admission wait from the hub.
    let submit: Vec<f64> = ok.iter().map(|(s, _)| us(s.submit)).collect();
    let queue = sorted(
        ok.iter()
            .map(|(s, e)| ms(s.latency.saturating_sub(e.metrics().wall_time)))
            .collect(),
    );
    let admission = traced.hub.as_ref().map_or(0, |(before, after)| {
        histogram_delta(
            before.histogram(HubHistogram::AdmissionWaitUs),
            after.histogram(HubHistogram::AdmissionWaitUs),
        )
        .quantile(0.99)
    });
    out.extend([
        metric("service.submit_us", submit.iter().sum::<f64>() / q, "us"),
        metric("service.queue_wait_p50_ms", percentile(&queue, 0.50), "ms"),
        metric("service.queue_wait_p99_ms", percentile(&queue, 0.99), "ms"),
        metric("service.admission_wait_p99_us", admission as f64, "us"),
    ]);

    // scheduler: work orders, transfers across edges, staging, and the
    // share of wall time not spent inside work orders.
    let work_orders = sum(&|m| m.ops.iter().map(|o| o.work_orders).sum::<usize>() as f64);
    let transfers = sum(&|m| {
        m.edges
            .iter()
            .map(|e| e.flushes + e.partial_flushes)
            .sum::<usize>() as f64
    });
    let transfer_bytes = sum(&|m| m.edges.iter().map(|e| e.bytes).sum::<usize>() as f64);
    let staged = sum(&|m| m.edges.iter().map(|e| e.sum_staged).sum::<usize>() as f64);
    let stalls = sum(&|m| m.edges.iter().map(|e| e.stalls).sum::<usize>() as f64);
    let task = sum(&|m| m.total_task_time().as_secs_f64());
    let wall = sum(&|m| m.wall_time.as_secs_f64());
    let capacity = sum(&|m| m.workers.max(1) as f64 * m.wall_time.as_secs_f64());
    let waits = sorted(
        ok.iter()
            .flat_map(|(_, e)| e.dispatch_waits.iter().map(|d| us(*d)))
            .collect(),
    );
    out.extend([
        metric("scheduler.work_orders", work_orders / q, "count/query"),
        metric("scheduler.transfers", transfers / q, "count/query"),
        metric(
            "scheduler.transfer_mb",
            transfer_bytes / MIB / q,
            "MiB/query",
        ),
        metric(
            "scheduler.mean_staged_blocks",
            ratio(staged, stalls),
            "blocks",
        ),
        metric("scheduler.overhead_ratio", 1.0 - ratio(task, wall), "ratio"),
        metric(
            "scheduler.overhead_us_per_wo",
            ratio((capacity - task) * 1e6, work_orders),
            "us",
        ),
        metric(
            "scheduler.worker_idle_ratio",
            1.0 - ratio(task, capacity),
            "ratio",
        ),
        metric(
            "scheduler.dispatch_wait_p50_us",
            percentile(&waits, 0.50),
            "us",
        ),
        metric(
            "scheduler.dispatch_wait_p99_us",
            percentile(&waits, 0.99),
            "us",
        ),
    ]);

    out.extend([
        metric(
            "fusion.fused_pipelines",
            sum(&|m| m.fused_pipelines as f64) / q,
            "count/query",
        ),
        metric(
            "fusion.staged_pipelines",
            sum(&|m| m.staged_pipelines as f64) / q,
            "count/query",
        ),
    ]);

    // ops: fused chains run as work orders of their head operator, so they
    // are charged to the head's kind.
    for kind in KINDS {
        let of_kind = |f: &dyn Fn(&uot_core::OperatorMetrics) -> f64| {
            sum(&|m| m.ops.iter().filter(|o| o.kind == kind).map(f).sum())
        };
        let task_s = of_kind(&|o| o.total_task_time.as_secs_f64());
        let rows = of_kind(&|o| o.input_rows as f64);
        out.extend([
            metric(format!("ops.{kind}.task_ms"), task_s * 1e3 / q, "ms/query"),
            metric(
                format!("ops.{kind}.work_orders"),
                of_kind(&|o| o.work_orders as f64) / q,
                "count/query",
            ),
            metric(
                format!("ops.{kind}.ns_per_input_row"),
                ratio(task_s * 1e9, rows),
                "ns",
            ),
        ]);
    }

    let created = sum(&|m| m.pool.created as f64);
    let reused = sum(&|m| m.pool.reused as f64);
    out.extend([
        metric(
            "storage.pool_reuse_ratio",
            ratio(reused, created + reused),
            "ratio",
        ),
        metric("storage.blocks_created", created / q, "count/query"),
        metric(
            "storage.hash_table_mb",
            sum(&|m| m.hash_table_bytes.iter().map(|(_, b)| *b).sum::<usize>() as f64) / MIB / q,
            "MiB/query",
        ),
    ]);

    let respill = ok
        .iter()
        .map(|(_, e)| e.metrics().respill_depth)
        .max()
        .unwrap_or(0);
    out.extend([
        metric(
            "spill.events",
            sum(&|m| m.spill_events as f64) / q,
            "count/query",
        ),
        metric(
            "spill.mb_out",
            sum(&|m| m.spilled_bytes as f64) / MIB / q,
            "MiB/query",
        ),
        metric("spill.respill_depth", respill as f64, "count"),
        metric(
            "spill.degraded_queries",
            sum(&|m| (m.spill_events > 0 || !m.degradations.is_empty()) as u8 as f64) / q,
            "share",
        ),
    ]);

    // The latency tail of the untraced pass. On a shared machine it spreads
    // too far from run to run to hold an end-to-end bound, so it is
    // reported here, unbounded.
    let lat = latencies_ms(plain);
    out.extend([
        metric("latency_p90_ms", percentile(&lat, 0.90), "ms"),
        metric("latency_p99_ms", percentile(&lat, 0.99), "ms"),
    ]);
    for (stmt, lat) in statement_latencies(plain, stmts, per_statement) {
        out.push(metric(
            format!("query.{}.p50_ms", stmt.label()),
            percentile(&lat, 0.5),
            "ms",
        ));
    }

    let dropped: usize = ok.iter().filter_map(|(_, e)| e.trace_dropped).sum();
    out.extend([
        metric(
            "obs.trace_overhead_ratio",
            1.0 - ratio(traced.throughput(), plain.throughput()),
            "ratio",
        ),
        metric("obs.trace_dropped", dropped as f64, "count"),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_median() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 200 samples: the window is ranks 98..=102 around rank 100, and
        // is cut at the top end.
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 1.0), 198.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(best_of_three(&[1.0, 2.0, 6.0, 9.0]), 3.0);
        assert_eq!(best_of_three(&[4.0]), 4.0);
    }

    #[test]
    fn histogram_delta_subtracts_bucketwise() {
        let mut before = HistogramSnapshot::empty();
        before.record(10);
        let mut after = before.clone();
        after.record(1000);
        let d = histogram_delta(&before, &after);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 1000);
        assert!(d.quantile(0.5) >= 1000);
    }
}
