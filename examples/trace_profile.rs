//! Structured-tracing demo: run a TPC-H-style join chain at two UoTs with
//! tracing enabled and export every profile format the `obs` module offers.
//!
//! ```text
//! cargo run --release --example trace_profile
//! ```
//!
//! Writes, per UoT, under `target/trace_profile/`:
//!
//! * `trace_<uot>.json` — Chrome `trace_event` JSON; open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.
//! * `counters_<uot>.txt` — Prometheus text exposition of a hub installed
//!   for that one run.
//! * `uot_timeline_<uot>.csv` — per-edge staged-block occupancy over time.
//!
//! It also prints each run's operator time shares (the paper's Fig. 3 view)
//! from the query's metrics.

use std::sync::Arc;
use uot::engine::obs::{chrome_trace_json, prometheus_from_hub, uot_timelines};
use uot::engine::{Engine, EngineConfig, MetricsHub, TraceConfig, Uot};
use uot::storage::BlockFormat;
use uot::tpch::{build_query, QueryId, TpchConfig, TpchDb};

fn main() {
    let out_dir = std::path::Path::new("target/trace_profile");
    std::fs::create_dir_all(out_dir).expect("create output directory");

    println!("generating TPC-H data (SF 0.02)...");
    let db = TpchDb::generate(
        TpchConfig::scale(0.02)
            .with_block_bytes(16 * 1024)
            .with_format(BlockFormat::Column),
    );

    for uot in [Uot::LOW, Uot::Table] {
        let slug = match uot {
            Uot::Table => "table".to_string(),
            Uot::Blocks(n) => format!("blocks{n}"),
        };
        // Q5: the deepest join chain in the suite — six tables, a fan of
        // build/probe edges, and an aggregation sink.
        let plan = build_query(QueryId::Q5, &db).expect("Q5 builds");
        let hub = Arc::new(MetricsHub::new());
        let engine = Engine::new(
            EngineConfig::parallel(4)
                .with_block_bytes(16 * 1024)
                .with_uot(uot)
                .tracing(TraceConfig::default())
                .with_hub(hub.clone()),
        );
        let result = engine.execute(plan).expect("Q5 runs");
        let trace = result.trace.as_ref().expect("tracing was enabled");
        println!(
            "\n{uot}: {} rows, {:.2} ms wall, {} trace events ({} dropped)",
            result.num_rows(),
            result.metrics.wall_time.as_secs_f64() * 1e3,
            trace.len(),
            trace.dropped,
        );

        let chrome = chrome_trace_json(trace);
        let chrome_path = out_dir.join(format!("trace_{slug}.json"));
        std::fs::write(&chrome_path, &chrome).expect("write chrome trace");
        println!("  chrome trace  -> {}", chrome_path.display());

        let counters = prometheus_from_hub(&hub.snapshot());
        let counters_path = out_dir.join(format!("counters_{slug}.txt"));
        std::fs::write(&counters_path, &counters).expect("write counters");
        println!("  counters      -> {}", counters_path.display());

        let mut csv = String::new();
        for tl in uot_timelines(trace) {
            csv.push_str(&tl.to_csv(trace));
            csv.push('\n');
        }
        let csv_path = out_dir.join(format!("uot_timeline_{slug}.csv"));
        std::fs::write(&csv_path, &csv).expect("write timeline csv");
        println!("  uot timeline  -> {}", csv_path.display());

        println!("  operator time shares (Fig. 3 view):");
        for (op, name, frac) in result.metrics.dominant_operators().into_iter().take(5) {
            if frac > 0.0 {
                println!("    {frac:>6.1}%  op{op:<3} {name}", frac = frac * 100.0);
            }
        }
    }
    println!("\nopen the .json files in chrome://tracing or https://ui.perfetto.dev");
}
