//! Live service telemetry, end to end: a [`QueryService`] with the HTTP
//! introspection endpoint enabled serves real Prometheus text and a live
//! query table *while queries are in flight*, the always-on hub counters
//! reconcile with what was submitted, and `EXPLAIN ANALYZE` works through
//! the service front door.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uot_core::{
    ExecOptions, FaultKind, FaultPlan, FaultSite, Injection, QueryService, ServiceConfig,
};
use uot_storage::{BlockFormat, Catalog, DataType, Schema, TableBuilder, Value};

fn catalog() -> Arc<Catalog> {
    let c = Catalog::new();
    let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
    let mut tb = TableBuilder::new("fact", s, BlockFormat::Column, 2 * 1024);
    for i in 0..4000 {
        tb.append(&[Value::I32(i % 50), Value::F64(i as f64 * 0.5)])
            .unwrap();
    }
    c.register(tb.finish()).unwrap();
    c
}

const QUERY: &str = "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM fact GROUP BY k ORDER BY k";

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect to introspection endpoint");
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let (head, body) = resp.split_once("\r\n\r\n").expect("full http response");
    (head.to_string(), body.to_string())
}

/// Every line of a Prometheus exposition is a comment or `name[{labels}] value`,
/// each family declares HELP and TYPE exactly once, and counter families end
/// in `_total`.
fn assert_prometheus_conformant(body: &str) {
    use std::collections::HashMap;
    let mut type_of: HashMap<&str, &str> = HashMap::new();
    let mut help_seen: HashMap<&str, usize> = HashMap::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, ty) = (it.next().unwrap(), it.next().unwrap());
            assert!(
                type_of.insert(name, ty).is_none(),
                "duplicate TYPE for {name}"
            );
            assert!(
                matches!(ty, "counter" | "gauge" | "histogram"),
                "unknown type {ty}"
            );
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap();
            *help_seen.entry(name).or_insert(0) += 1;
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");
        // Sample line: name or name{labels}, then a float value.
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in: {line}"
        );
        assert!(value.parse::<f64>().is_ok(), "bad sample value: {line}");
    }
    for (name, count) in help_seen {
        assert_eq!(count, 1, "HELP repeated for {name}");
    }
    // Counter families use the _total suffix convention.
    for (name, ty) in type_of {
        if ty == "counter" {
            assert!(name.ends_with("_total"), "counter {name} missing _total");
        }
    }
}

#[test]
fn introspection_endpoint_serves_live_data_midflight() {
    let service = QueryService::start(ServiceConfig {
        workers: 2,
        catalog: catalog(),
        http_port: Some(0),
        ..Default::default()
    })
    .unwrap();
    let addr = service.http_addr().expect("endpoint bound");

    let (head, body) = get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");

    // Hold one query in flight with an injected work-order delay, then catch
    // it live on both routes.
    let faults = FaultPlan::new(vec![Injection {
        site: FaultSite::WorkOrderExec,
        kind: FaultKind::Delay(Duration::from_millis(400)),
        nth: 1,
    }]);
    let slow = service
        .submit_sql_with(
            QUERY,
            ExecOptions {
                faults: Some(Arc::new(faults)),
                ..Default::default()
            },
        )
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut caught_live = false;
    while Instant::now() < deadline {
        let (_, queries) = get(addr, "/queries");
        if queries.contains("running") {
            let (_, metrics) = get(addr, "/metrics");
            let active = metrics
                .lines()
                .find_map(|l| l.strip_prefix("uot_service_active_queries "))
                .expect("active gauge present")
                .parse::<f64>()
                .unwrap();
            assert!(active >= 1.0, "query in flight but gauge says {active}");
            caught_live = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(caught_live, "never observed the delayed query on /queries");
    slow.wait().unwrap();

    // A burst of ordinary traffic, then reconcile the scraped counters.
    let handles: Vec<_> = (0..6).map(|_| service.submit_sql(QUERY).unwrap()).collect();
    for h in handles {
        h.wait().unwrap();
    }

    let (_, body) = get(addr, "/metrics");
    assert_prometheus_conformant(&body);
    let counter = |name: &str| -> f64 {
        body.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} missing from /metrics"))
            .parse()
            .unwrap()
    };
    assert_eq!(counter("uot_hub_queries_submitted_total"), 7.0);
    assert_eq!(counter("uot_hub_queries_completed_total"), 7.0);
    assert_eq!(counter("uot_hub_queries_failed_total"), 0.0);
    assert!(counter("uot_hub_work_orders_total") > 0.0);
    assert!(counter("uot_hub_rows_produced_total") > 0.0);
    assert_eq!(counter("uot_service_active_queries"), 0.0);
    // The latency histogram saw exactly one observation per query.
    let hist_count = body
        .lines()
        .find_map(|l| l.strip_prefix("uot_hub_query_latency_us_count "))
        .expect("histogram count present")
        .parse::<f64>()
        .unwrap();
    assert_eq!(hist_count, 7.0);

    // The drained registry renders an empty live table.
    let (_, queries) = get(addr, "/queries");
    assert!(!queries.contains("running"), "{queries}");

    service.shutdown();
}

#[test]
fn service_explain_analyze_returns_the_annotated_tree() {
    let service = QueryService::start(ServiceConfig {
        workers: 2,
        catalog: catalog(),
        ..Default::default()
    })
    .unwrap();

    let plain = service.submit_sql(QUERY).unwrap().wait().unwrap();
    let explained = service
        .submit_sql(&format!("explain analyze {QUERY}"))
        .unwrap()
        .wait()
        .unwrap();

    let ex = explained.explain.as_ref().expect("explain attached");
    assert_eq!(ex.result_rows, plain.metrics.result_rows);
    assert_eq!(explained.metrics.result_rows, plain.metrics.result_rows);

    // The visible rows are the annotated tree, one line per row.
    assert_eq!(explained.schema.len(), 1);
    let rows: usize = explained.blocks.iter().map(|b| b.num_rows()).sum();
    assert_eq!(rows, ex.render().lines().count());
    // And the plain run's rows are real data, not the rendering.
    assert!(plain.schema.len() > 1);

    service.shutdown();
}
