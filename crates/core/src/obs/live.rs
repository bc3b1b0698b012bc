//! Live per-query status: the registry behind `/queries` and the watchdog.
//!
//! Each admitted query gets a [`LiveQuery`] record of lock-free atomics,
//! updated from the scheduler thread by
//! [`QueryObserver`](crate::obs::QueryObserver) and read concurrently by
//! the HTTP endpoint and the watchdog thread. Queued submissions appear as
//! lightweight [`QueuedEntry`]s so `/queries` shows the admission queue too.

use crate::obs::hub::{HubCounter, MetricsHub};
use crate::plan::OpId;
use crate::query_id::QueryId;
use crate::trace::{TraceEventKind, TraceSink, WatchdogKind};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uot_storage::MemoryTracker;

/// Lifecycle of a registry entry, rendered in the `/queries` state column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LiveState {
    /// Admitted and executing.
    Running = 0,
    /// Cancelled (explicitly or by deadline); draining in-flight work.
    Cancelling = 1,
}

/// Watch state of one transfer edge, keyed by its producer operator.
#[derive(Debug)]
pub struct EdgeWatch {
    /// Consumer operator (`usize::MAX` until first observed).
    consumer: AtomicUsize,
    /// Blocks currently staged below the UoT threshold.
    staged: AtomicUsize,
    /// The edge's UoT threshold in blocks.
    threshold: AtomicUsize,
    /// Microseconds (since query start) of the last staging/flush event.
    last_change_us: AtomicU64,
    /// Whether the watchdog already flagged the current stall.
    flagged: AtomicBool,
}

impl EdgeWatch {
    fn new() -> Self {
        EdgeWatch {
            consumer: AtomicUsize::new(usize::MAX),
            staged: AtomicUsize::new(0),
            threshold: AtomicUsize::new(0),
            last_change_us: AtomicU64::new(0),
            flagged: AtomicBool::new(false),
        }
    }
}

/// Live status of one admitted query — all atomics, written from the
/// scheduler thread, read from the HTTP and watchdog threads.
#[derive(Debug)]
pub struct LiveQuery {
    /// Service-assigned query id.
    pub id: QueryId,
    /// Display label (the plan's sink operator name).
    pub label: String,
    /// The query's admission reservation, bytes.
    pub reservation: usize,
    /// Optional per-query deadline (relative to admission).
    pub deadline: Option<Duration>,
    /// Admission time; every relative timestamp below counts from it.
    pub started: Instant,
    /// The query's own memory tracker (resident bytes).
    tracker: Arc<MemoryTracker>,
    /// The query's trace sink, when tracing — watchdog flags are recorded
    /// into it as structured events.
    sink: Option<Arc<TraceSink>>,
    state: AtomicU8,
    dispatched: AtomicUsize,
    completed: AtomicUsize,
    rows: AtomicUsize,
    spill_events: AtomicUsize,
    /// Per-producer edge watch state, sized to the plan.
    edges: Box<[EdgeWatch]>,
    deadline_flagged: AtomicBool,
}

impl LiveQuery {
    /// A fresh record for an admitted query with `ops` plan operators.
    pub fn new(
        id: QueryId,
        label: String,
        reservation: usize,
        deadline: Option<Duration>,
        tracker: Arc<MemoryTracker>,
        sink: Option<Arc<TraceSink>>,
        ops: usize,
    ) -> Arc<Self> {
        Arc::new(LiveQuery {
            id,
            label,
            reservation,
            deadline,
            started: Instant::now(),
            tracker,
            sink,
            state: AtomicU8::new(LiveState::Running as u8),
            dispatched: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            rows: AtomicUsize::new(0),
            spill_events: AtomicUsize::new(0),
            edges: (0..ops).map(|_| EdgeWatch::new()).collect(),
            deadline_flagged: AtomicBool::new(false),
        })
    }

    /// Mark the query as cancelling (deadline or explicit cancel).
    pub fn set_cancelling(&self) {
        self.state
            .store(LiveState::Cancelling as u8, Ordering::Relaxed);
    }

    /// Work orders dispatched so far.
    pub fn dispatched(&self) -> usize {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Work orders completed so far.
    pub fn completed(&self) -> usize {
        self.completed.load(Ordering::Relaxed)
    }

    /// Output rows produced so far.
    pub fn rows(&self) -> usize {
        self.rows.load(Ordering::Relaxed)
    }

    /// Spill writes so far.
    pub fn spill_events(&self) -> usize {
        self.spill_events.load(Ordering::Relaxed)
    }

    /// Bytes currently resident in the query's pool.
    pub fn resident_bytes(&self) -> usize {
        self.tracker.current_bytes()
    }

    fn state_label(&self) -> &'static str {
        if self.state.load(Ordering::Relaxed) == LiveState::Cancelling as u8 {
            "cancelling"
        } else {
            "running"
        }
    }

    pub(crate) fn on_dispatched(&self) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_rows(&self, rows: usize) {
        self.rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Record a spill write (called from the spill hook's I/O thread).
    pub fn on_spill(&self) {
        self.spill_events.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_edge_staged(
        &self,
        producer: OpId,
        consumer: OpId,
        staged: usize,
        threshold: usize,
    ) {
        let e = &self.edges[producer];
        e.consumer.store(consumer, Ordering::Relaxed);
        e.staged.store(staged, Ordering::Relaxed);
        e.threshold.store(threshold, Ordering::Relaxed);
        e.last_change_us
            .store(self.started.elapsed().as_micros() as u64, Ordering::Relaxed);
        e.flagged.store(false, Ordering::Relaxed);
    }

    pub(crate) fn on_edge_flushed(&self, producer: OpId) {
        let e = &self.edges[producer];
        e.staged.store(0, Ordering::Relaxed);
        e.last_change_us
            .store(self.started.elapsed().as_micros() as u64, Ordering::Relaxed);
        e.flagged.store(false, Ordering::Relaxed);
    }

    /// One watchdog pass over this query: flag edges that have held staged
    /// blocks unchanged past `stall_timeout`, and (once) a query past
    /// `deadline_fraction` of its deadline. Each flag is a hub counter and,
    /// when tracing, a structured [`TraceEventKind::Watchdog`] event.
    /// Returns the number of new flags raised.
    pub fn watchdog_pass(
        &self,
        hub: &MetricsHub,
        stall_timeout: Duration,
        deadline_fraction: f64,
    ) -> usize {
        let mut raised = 0;
        let now_us = self.started.elapsed().as_micros() as u64;
        for (producer, e) in self.edges.iter().enumerate() {
            if e.staged.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let waited_us = now_us.saturating_sub(e.last_change_us.load(Ordering::Relaxed));
            if waited_us < stall_timeout.as_micros() as u64 {
                continue;
            }
            if e.flagged.swap(true, Ordering::Relaxed) {
                continue; // already flagged this stall
            }
            hub.add(HubCounter::WatchdogStalledEdges, 1);
            if let Some(sink) = &self.sink {
                sink.record(TraceEventKind::Watchdog {
                    kind: WatchdogKind::StalledEdge,
                    producer,
                    consumer: e.consumer.load(Ordering::Relaxed),
                    waited_us,
                });
            }
            raised += 1;
        }
        if let Some(deadline) = self.deadline {
            let elapsed = self.started.elapsed();
            if elapsed.as_secs_f64() >= deadline.as_secs_f64() * deadline_fraction
                && !self.deadline_flagged.swap(true, Ordering::Relaxed)
            {
                hub.add(HubCounter::WatchdogDeadline, 1);
                if let Some(sink) = &self.sink {
                    sink.record(TraceEventKind::Watchdog {
                        kind: WatchdogKind::DeadlineNear,
                        producer: 0,
                        consumer: 0,
                        waited_us: elapsed.as_micros() as u64,
                    });
                }
                raised += 1;
            }
        }
        raised
    }
}

/// Configuration of the watchdog thread a
/// [`QueryService`](crate::service::QueryService) runs over its
/// [`LiveRegistry`]: each pass flags stalled transfer edges and queries
/// close to their deadline as structured
/// [`Watchdog`](crate::trace::TraceEventKind::Watchdog) trace events and
/// [`MetricsHub`] counters.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Run the watchdog thread at all.
    pub enabled: bool,
    /// How often the watchdog scans the registry.
    pub poll_interval: Duration,
    /// A transfer edge holding staged blocks with no activity for this long
    /// is flagged as stalled (once per stall; edge activity re-arms it).
    pub stall_timeout: Duration,
    /// A query past this fraction of its deadline is flagged (once).
    pub deadline_fraction: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: true,
            poll_interval: Duration::from_millis(100),
            stall_timeout: Duration::from_secs(1),
            deadline_fraction: 0.8,
        }
    }
}

/// A submission waiting in the admission queue.
#[derive(Debug)]
pub struct QueuedEntry {
    /// The reservation it is waiting for.
    pub reservation: usize,
    /// When it was queued.
    pub since: Instant,
}

#[derive(Debug)]
enum Entry {
    Queued(QueuedEntry),
    Running(Arc<LiveQuery>),
}

/// The service-wide registry of live queries, shared by the scheduler
/// thread (writes), the HTTP endpoint and the watchdog thread (reads).
#[derive(Debug, Default)]
pub struct LiveRegistry {
    entries: Mutex<BTreeMap<u64, Entry>>,
}

impl LiveRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A submission entered the admission queue.
    pub fn enqueue(&self, id: QueryId, reservation: usize) {
        self.entries.lock().insert(
            id.raw(),
            Entry::Queued(QueuedEntry {
                reservation,
                since: Instant::now(),
            }),
        );
    }

    /// A query was admitted (replaces any queued entry under the same id).
    pub fn admit(&self, live: Arc<LiveQuery>) {
        self.entries
            .lock()
            .insert(live.id.raw(), Entry::Running(live));
    }

    /// A query finished (or a queued submission was rejected).
    pub fn remove(&self, id: QueryId) {
        self.entries.lock().remove(&id.raw());
    }

    /// `(running, queued)` entry counts.
    pub fn counts(&self) -> (usize, usize) {
        let entries = self.entries.lock();
        let running = entries
            .values()
            .filter(|e| matches!(e, Entry::Running(_)))
            .count();
        (running, entries.len() - running)
    }

    /// Snapshot the running queries (watchdog and tests).
    pub fn running(&self) -> Vec<Arc<LiveQuery>> {
        self.entries
            .lock()
            .values()
            .filter_map(|e| match e {
                Entry::Running(q) => Some(q.clone()),
                Entry::Queued(_) => None,
            })
            .collect()
    }

    /// One watchdog pass over every running query; returns flags raised.
    pub fn watchdog_pass(
        &self,
        hub: &MetricsHub,
        stall_timeout: Duration,
        deadline_fraction: f64,
    ) -> usize {
        self.running()
            .iter()
            .map(|q| q.watchdog_pass(hub, stall_timeout, deadline_fraction))
            .sum()
    }

    /// Render the `/queries` table: one row per live query, aligned columns.
    pub fn render_table(&self) -> String {
        let entries = self.entries.lock();
        let mut rows: Vec<[String; 8]> = Vec::with_capacity(entries.len());
        for (id, e) in entries.iter() {
            match e {
                Entry::Queued(q) => rows.push([
                    format!("q{id}"),
                    "queued".into(),
                    "-".into(),
                    "-/-".into(),
                    q.reservation.to_string(),
                    "-".into(),
                    "-".into(),
                    format!("{} ms", q.since.elapsed().as_millis()),
                ]),
                Entry::Running(q) => {
                    let (done, total) = (q.completed(), q.dispatched());
                    let progress = if total == 0 {
                        "-".to_string()
                    } else {
                        format!("{}%", done * 100 / total.max(1))
                    };
                    rows.push([
                        format!("q{id}"),
                        q.state_label().into(),
                        progress,
                        format!("{done}/{total}"),
                        q.reservation.to_string(),
                        q.resident_bytes().to_string(),
                        q.spill_events().to_string(),
                        format!("{} ms", q.started.elapsed().as_millis()),
                    ]);
                }
            }
        }
        drop(entries);
        let headers = [
            "query",
            "state",
            "progress",
            "work orders",
            "reserved B",
            "resident B",
            "spills",
            "age",
        ];
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!("{h:<w$}  "));
        }
        out.push('\n');
        for row in &rows {
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!("{cell:<w$}  "));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live(id: u64, ops: usize) -> Arc<LiveQuery> {
        LiveQuery::new(
            QueryId::new(id),
            "agg".into(),
            1 << 20,
            None,
            MemoryTracker::new(),
            Some(TraceSink::for_query(1024, QueryId::new(id))),
            ops,
        )
    }

    #[test]
    fn registry_tracks_queued_and_running() {
        let reg = LiveRegistry::new();
        reg.enqueue(QueryId::new(2), 512);
        reg.admit(live(1, 3));
        assert_eq!(reg.counts(), (1, 1));
        let table = reg.render_table();
        assert!(table.contains("q1"), "{table}");
        assert!(table.contains("q2"), "{table}");
        assert!(table.contains("queued"), "{table}");
        assert!(table.contains("running"), "{table}");
        reg.remove(QueryId::new(2));
        assert_eq!(reg.counts(), (1, 0));
    }

    #[test]
    fn watchdog_flags_a_stalled_edge_once() {
        let hub = MetricsHub::new();
        let q = live(1, 2);
        q.on_edge_staged(0, 1, 2, 4);
        // Zero timeout: any staged edge counts as stalled immediately.
        assert_eq!(q.watchdog_pass(&hub, Duration::ZERO, 0.8), 1);
        // Second pass: the same stall is not re-flagged.
        assert_eq!(q.watchdog_pass(&hub, Duration::ZERO, 0.8), 0);
        // A flush clears the flag; a new stall is flagged again.
        q.on_edge_flushed(0);
        assert_eq!(q.watchdog_pass(&hub, Duration::ZERO, 0.8), 0, "empty edge");
        q.on_edge_staged(0, 1, 1, 4);
        assert_eq!(q.watchdog_pass(&hub, Duration::ZERO, 0.8), 1);
        let snap = hub.snapshot();
        assert_eq!(snap.counter(HubCounter::WatchdogStalledEdges), 2);
    }

    #[test]
    fn watchdog_flags_deadline_fraction() {
        let hub = MetricsHub::new();
        let q = LiveQuery::new(
            QueryId::new(7),
            "agg".into(),
            1 << 20,
            Some(Duration::ZERO),
            MemoryTracker::new(),
            None,
            1,
        );
        assert_eq!(q.watchdog_pass(&hub, Duration::from_secs(60), 0.8), 1);
        assert_eq!(q.watchdog_pass(&hub, Duration::from_secs(60), 0.8), 0);
        assert_eq!(hub.snapshot().counter(HubCounter::WatchdogDeadline), 1);
    }
}
