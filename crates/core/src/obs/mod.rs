//! Observability: the per-query observer, the live hub and the exporters.
//!
//! * [`QueryObserver`] — the one observer every query runs under: it records
//!   each scheduler event once into the query's metrics and, when
//!   installed, a [`TraceSink`](crate::trace::TraceSink) and the service's
//!   live registry; an installed hub gets the finished attempt's metrics.
//! * [`hub`] — the always-on [`MetricsHub`]: counters and log-bucketed
//!   histograms across every query a service or engine runs, a fold of
//!   each finished attempt's metrics.
//! * [`live`] / [`http`] — the live per-query registry and the HTTP
//!   introspection endpoint (`/metrics`, `/queries`).
//! * [`prometheus`] — Prometheus text exposition of a hub snapshot.
//! * [`explain`] — `EXPLAIN ANALYZE`, a fold of plan + metrics.
//! * [`chrome`] — Chrome `trace_event` JSON for `chrome://tracing` /
//!   [Perfetto](https://ui.perfetto.dev) timelines.
//! * [`timeline`] — per-edge UoT-occupancy timelines.
//!
//! The observer, hub, live registry and HTTP endpoint run while queries
//! execute; [`chrome`] and [`timeline`] are pure functions over a frozen
//! [`Trace`](crate::trace::Trace).

pub mod chrome;
pub mod explain;
pub mod http;
pub mod hub;
pub mod live;
pub mod observer;
pub mod prometheus;
pub mod timeline;

pub use chrome::{chrome_trace_json, merged_chrome_trace_json};
pub use explain::ExplainAnalyze;
pub use http::{IntrospectionServer, ServerState};
pub use hub::{HistogramSnapshot, HubCounter, HubHistogram, HubSnapshot, MetricsHub};
pub use live::{LiveQuery, LiveRegistry};
pub use observer::QueryObserver;
pub use prometheus::prometheus_from_hub;
pub use timeline::{uot_timelines, EdgeTimeline};
