//! Live telemetry demo: one [`QueryService`] with the always-on metrics hub
//! and the HTTP introspection endpoint enabled, fed a burst of TPC-H SQL —
//! then scraped like Prometheus would, queried for its live query table, and
//! asked for an `EXPLAIN ANALYZE` of one statement.
//!
//! ```text
//! cargo run --release --example live_telemetry
//! ```
//!
//! Everything here is plain std networking: the endpoint is a blocking
//! `TcpListener` thread inside the service, and this example talks to it
//! exactly the way `curl` would.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use uot::engine::{HubHistogram, QueryService, ServiceConfig, Uot};
use uot::storage::BlockFormat;
use uot::tpch::{sql_text, QueryId as TpchQuery, TpchConfig, TpchDb};

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to the endpoint");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: demo\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
        .split_once("\r\n\r\n")
        .expect("a full HTTP response")
        .1
        .to_string()
}

fn main() {
    println!("generating TPC-H data (SF 0.02)...");
    let block_bytes = 32 * 1024;
    let db = TpchDb::generate(
        TpchConfig::scale(0.02)
            .with_block_bytes(block_bytes)
            .with_format(BlockFormat::Column),
    );

    let service = QueryService::start(ServiceConfig {
        workers: 4,
        block_bytes,
        default_uot: Uot::LOW,
        catalog: db.catalog().clone(),
        http_port: Some(0), // ephemeral; pass Some(9184) for a fixed port
        ..Default::default()
    })
    .expect("service starts");
    let addr = service.http_addr().expect("endpoint bound");
    println!("introspection endpoint: http://{addr}");
    println!("  (try: curl -s {addr}/metrics | head)");

    // A burst of mixed traffic through the SQL front door.
    let mix = [
        TpchQuery::Q1,
        TpchQuery::Q3,
        TpchQuery::Q6,
        TpchQuery::Q12,
        TpchQuery::Q14,
        TpchQuery::Q19,
    ];
    println!("\nsubmitting {} queries...", 2 * mix.len());
    let handles: Vec<_> = (0..2)
        .flat_map(|_| mix.iter())
        .map(|&q| service.submit_sql(sql_text(q)).expect("service accepts"))
        .collect();
    for h in handles {
        h.wait().expect("query runs");
    }

    // Scrape the hub the way Prometheus would.
    println!("\n--- GET /metrics (excerpt) ---");
    let metrics = http_get(addr, "/metrics");
    for line in metrics.lines().filter(|l| {
        l.starts_with("uot_hub_queries_")
            || l.starts_with("uot_hub_work_orders_total")
            || l.starts_with("uot_hub_transfer_blocks_total")
            || l.starts_with("uot_service_")
    }) {
        println!("{line}");
    }

    println!("\n--- GET /queries ---");
    print!("{}", http_get(addr, "/queries"));

    // The same numbers, in-process: fold the hub and read quantiles off the
    // log-bucketed latency histogram.
    let snapshot = service.hub_snapshot();
    let latency = snapshot.histogram(HubHistogram::QueryLatencyUs);
    println!(
        "hub: {} queries, latency p50 ~{} us, p99 ~{} us (log-bucketed)",
        latency.count,
        latency.quantile(0.5),
        latency.quantile(0.99),
    );

    // Per-query introspection: EXPLAIN ANALYZE really runs the statement and
    // returns the annotated operator tree as its rows.
    println!("\n--- EXPLAIN ANALYZE {} ---", TpchQuery::Q6.label());
    let explained = service
        .submit_sql(&format!("EXPLAIN ANALYZE {}", sql_text(TpchQuery::Q6)))
        .expect("service accepts")
        .wait()
        .expect("query runs");
    print!("{}", explained.explain.as_ref().expect("attached").render());

    service.shutdown();
    println!("\nservice shut down; endpoint closed.");
}
