//! Prometheus text exposition of the live [`MetricsHub`](crate::obs::hub::MetricsHub).
//!
//! [`prometheus_from_hub`] renders a
//! [`HubSnapshot`](crate::obs::hub::HubSnapshot) — counters plus real
//! Prometheus histograms (`_bucket{le=...}`/`_sum`/`_count`). It backs the
//! service's `/metrics` endpoint; per-query exposition renders a hub
//! installed for that one query with
//! [`EngineConfig::with_hub`](crate::engine::EngineConfig::with_hub).

use crate::obs::hub::{bucket_bounds, HubSnapshot};
use std::fmt::Write;

/// Render a live [`HubSnapshot`] in Prometheus text-exposition format:
/// every hub counter as a `counter` family (all carry the `_total` suffix),
/// every hub distribution as a real Prometheus `histogram` —
/// `name_bucket{le="..."}` samples with cumulative counts (empty buckets are
/// skipped; `+Inf` always present), plus `name_sum` and `name_count`.
pub fn prometheus_from_hub(snap: &HubSnapshot) -> String {
    let mut out = String::new();
    for (name, help, value) in snap.counter_rows() {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, help, h) in snap.histogram_rows() {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (i, &b) in h.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            cum += b;
            // Buckets are half-open [lo, hi) over integers, so `hi - 1` is
            // the inclusive upper bound Prometheus' `le` expects.
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cum}",
                bucket_bounds(i).1 - 1
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_snapshot_renders_counters_and_histograms() {
        use crate::obs::hub::{HubCounter, HubHistogram, MetricsHub};
        let hub = MetricsHub::new();
        hub.add(HubCounter::WorkOrders, 4);
        for v in [3u64, 3, 100] {
            hub.record(HubHistogram::WorkOrderServiceUs, v);
        }
        let text = prometheus_from_hub(&hub.snapshot());
        assert!(text.contains("# TYPE uot_hub_work_orders_total counter"));
        assert!(text.contains("uot_hub_work_orders_total 4"));
        assert!(text.contains("# TYPE uot_hub_work_order_service_us histogram"));
        // Cumulative buckets: the two 3s fill le="3", the 100 lands above.
        assert!(text.contains(r#"uot_hub_work_order_service_us_bucket{le="3"} 2"#));
        assert!(text.contains(r#"uot_hub_work_order_service_us_bucket{le="+Inf"} 3"#));
        assert!(text.contains("uot_hub_work_order_service_us_sum 106"));
        assert!(text.contains("uot_hub_work_order_service_us_count 3"));
        // Every counter family carries the _total suffix.
        for line in text.lines().filter(|l| l.starts_with("# TYPE")) {
            let mut parts = line.split_whitespace().skip(2);
            let (name, kind) = (parts.next().unwrap(), parts.next().unwrap());
            if kind == "counter" {
                assert!(name.ends_with("_total"), "counter without _total: {name}");
            }
        }
    }
}
