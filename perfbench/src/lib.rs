//! # uot-perfbench
//!
//! The UoT engine's benchmark: four closed-loop workloads across the
//! transfer spectrum, driven through the public SQL API (`Engine` and
//! `QueryService`), every answer checked against the operator-at-a-time
//! baseline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpch-staged-low --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics from an untraced pass; `--trace 1` reports the
//! per-layer metrics from a traced pass (plus an untraced pass of the same
//! length, for the tracing overhead and per-statement latencies) and writes
//! the benchmark's spans to `.perfbench_run/`. The line before it is the run
//! record: seed, platform, configuration and sample counts.
//!
//! ## Workloads
//!
//! | name | stresses | bypasses |
//! |---|---|---|
//! | `tpch-staged-low` | scheduler and transfer edges (every block is a transfer and a work order), each operator kind separately; serial engine, `Uot::Blocks(1)`, fusion off, 32 KiB blocks, SF 0.02, 14 statements | fusion, service, spill |
//! | `tpch-fused-table` | fused kernels, hash tables, memory (peak temp several times L2); parallel engine (2 workers), `Uot::Table`, `FusionPolicy::Auto`, 512 KiB blocks, SF 0.05 | scheduler/edge work, service, spill |
//! | `service-mix` | admission, per-query scheduler multiplexing, round-robin dispatch, the hub; two callers over the Q1/Q3/Q6/Q12/Q19 mix, `Uot::LOW`, 128 KiB temporaries, 16 MiB reservations | spill, table-UoT staging |
//! | `service-spill` | spill tier and grace join (`DegradePolicy::Spill`, 1792 KiB reservation at SF 0.02), one caller over the mix | fusion (spill turns it off), admission contention |
//!
//! ## Which layer metric should move which end-to-end metric
//!
//! | layer metrics | end-to-end metric, workload |
//! |---|---|
//! | `tpch.generate_s` | `setup_s`, all |
//! | `sql.compile_us`, `sql.plan_cache_hit_ratio` | `setup_s` only (after warm-up every query hits the cache) |
//! | `service.*` | `latency_p50_ms` on `service-mix`, and its unbounded tail (`latency_p90_ms`, `latency_p99_ms`, reported with the layers) |
//! | `scheduler.*` | `throughput_qps` on `tpch-staged-low` (most) and `service-mix`; about 0 on `tpch-fused-table` |
//! | `fusion.*` | `geomean_ms` on `tpch-fused-table`; no fused pipelines on `tpch-staged-low` |
//! | `ops.<kind>.*` | `geomean_ms` and `throughput_qps` on both `tpch-*` workloads |
//! | `storage.*` | `peak_temp_mb` on `tpch-fused-table` |
//! | `spill.*` | `latency_p50_ms` and `throughput_qps` on `service-spill`; 0 elsewhere |
//! | `query.<Qnn>.p50_ms` | locates a change in `geomean_ms` |
//! | `obs.*` | none: the cost and completeness of the traced pass itself |

pub mod json;
pub mod metrics;
pub mod platform;
pub mod spans;
pub mod system;
pub mod workload;

use metrics::{LayerInputs, Metric};
use spans::SpanLog;
use std::path::Path;
use std::time::{Duration, Instant};
use system::System;
use workload::{Workload, MIX};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// `uot_core::compile` calls per statement in a traced run.
const COMPILE_REPEATS: usize = 11;

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed: the TPC-H generator's seed and the callers' offsets.
    pub seed: u64,
    /// Measured time; a traced run splits it between its two passes.
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass instead of end-to-end.
    pub trace: bool,
}

/// What one run found.
#[derive(Debug)]
pub struct Report {
    /// No query failed, the service drained, no trace event was dropped.
    pub correct: bool,
    /// Queries issued in measured passes.
    pub attempted: usize,
    /// Queries that errored or returned a wrong answer.
    pub failed: usize,
    /// End-to-end or per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Statements the baseline gave reference answers for.
    pub checked_statements: usize,
    /// Temporary bytes the service held after the last query (0 on the
    /// engine).
    pub memory_in_use: usize,
    /// `Trace::dropped` summed over the traced pass.
    pub trace_dropped: usize,
    /// The run record (seed, platform, configuration, sample counts).
    pub record: Vec<(&'static str, String)>,
    /// The benchmark's spans.
    pub spans: SpanLog,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    json::object(&[
                        ("value", json::number(m.value)),
                        ("unit", json::string(m.unit)),
                    ]),
                )
            })
            .collect();
        json::object(&[
            ("correct", self.correct.to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", json::object(&metrics)),
        ])
    }
}

/// Point the engine's spill files (created under the system temporary
/// directory) at `dir`, so a run writes only inside its working directory.
/// Call before any thread starts.
pub fn use_scratch_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::env::set_var("TMPDIR", dir.canonicalize()?);
    Ok(())
}

/// Run `w` once.
pub fn run(w: &Workload, opts: Options) -> Report {
    let mut spans = SpanLog::new(Instant::now());
    let repeats = if opts.trace { 1 } else { SETUP_REPEATS };
    let mut setup = Vec::with_capacity(repeats);
    let mut system = None;
    for _ in 0..repeats {
        // The previous instance shuts down before the next one is timed.
        drop(system.take());
        let t0 = Instant::now();
        let s = System::start(w, opts.seed, &mut spans);
        s.warm_up(false);
        setup.push(t0.elapsed());
        system = Some(s);
    }
    let system = system.expect("at least one set-up");
    let reference = spans.time("baseline.reference", || system.reference());

    let mut passes = Vec::new();
    let metrics = if opts.trace {
        let half = opts.seconds / 2.0;
        let plain = system.drive(w, half, opts.seed, false, &mut spans);
        system.warm_up(true);
        let traced = system.drive(w, half, opts.seed, true, &mut spans);
        let inputs = LayerInputs {
            generate: spans.durations("tpch.generate").sum(),
            compile: compile_time(&system, w, &mut spans),
        };
        let m = metrics::per_layer(inputs, &plain, &traced, &w.statements, &MIX);
        passes.push(plain);
        passes.push(traced);
        m
    } else {
        let pass = system.drive(w, opts.seconds, opts.seed, false, &mut spans);
        let m = metrics::end_to_end(&setup, &pass, &w.statements);
        passes.push(pass);
        m
    };

    let attempted: usize = passes.iter().map(|p| p.samples.len()).sum();
    let failed: usize = passes.iter().map(|p| system.failures(p, &reference)).sum();
    let memory_in_use = system.memory_in_use().unwrap_or(0);
    let trace_dropped: usize = passes
        .iter()
        .flat_map(|p| p.executed())
        .filter_map(|(_, e)| e.trace_dropped)
        .sum();
    let traced_queries = passes
        .iter()
        .flat_map(|p| p.executed())
        .filter(|(_, e)| e.trace_dropped.is_some())
        .count();
    let correct = failed == 0
        && memory_in_use == 0
        && trace_dropped == 0
        && reference.len() == w.statements.len()
        && (!opts.trace || traced_queries > 0);

    let mut record = vec![
        ("workload", json::string(w.name)),
        ("seed", opts.seed.to_string()),
        ("seconds", json::number(opts.seconds)),
        ("trace", u8::from(opts.trace).to_string()),
    ];
    record.extend(platform::record(w));
    record.push(("setup_runs", setup.len().to_string()));
    record.push(("samples", sample_counts(w, &passes)));
    drop(system);
    Report {
        correct,
        attempted,
        failed,
        metrics,
        checked_statements: reference.len(),
        memory_in_use,
        trace_dropped,
        record,
        spans,
    }
}

/// Mean over the workload's statements of the median `uot_core::compile`
/// time, each call recorded as a span.
fn compile_time(system: &System, w: &Workload, spans: &mut SpanLog) -> Duration {
    let catalog = system.db().catalog();
    let medians: Vec<f64> = w
        .statements
        .iter()
        .map(|&q| {
            let sql = uot_tpch::sql_text(q);
            let times: Vec<f64> = (0..COMPILE_REPEATS)
                .map(|_| {
                    let t0 = Instant::now();
                    spans.time("sql.compile", || {
                        std::hint::black_box(uot_core::compile(sql, catalog))
                            .expect("TPC-H SQL compiles")
                    });
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            metrics::median(&times)
        })
        .collect();
    Duration::from_secs_f64(medians.iter().sum::<f64>() / medians.len().max(1) as f64)
}

/// Samples per statement label, summed over the passes.
fn sample_counts(w: &Workload, passes: &[system::Pass]) -> String {
    let mut counts: Vec<(String, String)> = w
        .statements
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let n: usize = passes
                .iter()
                .map(|p| p.samples.iter().filter(|s| s.stmt == i).count())
                .sum();
            (q.label(), n.to_string())
        })
        .collect();
    let total: usize = passes.iter().map(|p| p.samples.len()).sum();
    counts.push(("total".into(), total.to_string()));
    let fields: Vec<(&str, String)> = counts
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    json::object(&fields)
}
