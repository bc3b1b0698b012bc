//! Live per-query status: the registry behind `/queries`.
//!
//! Each admitted query gets a [`LiveQuery`] record of lock-free atomics,
//! updated by [`QueryObserver`](crate::obs::QueryObserver) under the worker
//! pool's dispatcher lock (whichever worker books a completion) and read
//! concurrently by the HTTP endpoint. Queued submissions appear as lightweight
//! [`QueuedEntry`]s so `/queries` shows the admission queue too.

use crate::cancel::CancellationToken;
use crate::query_id::QueryId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use uot_storage::MemoryTracker;

/// Live status of one admitted query — all atomics, written by the worker
/// that holds the dispatcher lock, read from the HTTP thread.
#[derive(Debug)]
pub struct LiveQuery {
    /// Service-assigned query id.
    pub id: QueryId,
    /// The query's admission reservation, bytes.
    pub reservation: usize,
    /// Admission time; the `/queries` age column counts from it.
    pub started: Instant,
    /// The query's own memory tracker (resident bytes).
    tracker: Arc<MemoryTracker>,
    /// The query's cancellation token: once tripped (explicitly or by the
    /// deadline) the query is draining, and `/queries` says `cancelling`.
    token: CancellationToken,
    dispatched: AtomicUsize,
    completed: AtomicUsize,
    spill_events: AtomicUsize,
}

impl LiveQuery {
    /// A fresh record for a query admitted now.
    pub fn new(
        id: QueryId,
        reservation: usize,
        tracker: Arc<MemoryTracker>,
        token: CancellationToken,
    ) -> Arc<Self> {
        Arc::new(LiveQuery {
            id,
            reservation,
            started: Instant::now(),
            tracker,
            token,
            dispatched: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            spill_events: AtomicUsize::new(0),
        })
    }

    /// Work orders dispatched so far.
    pub fn dispatched(&self) -> usize {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Work orders completed so far.
    pub fn completed(&self) -> usize {
        self.completed.load(Ordering::Relaxed)
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
        if self.token.is_cancelled() {
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

    /// Record a spill write (called from the spill hook's I/O thread).
    pub fn on_spill(&self) {
        self.spill_events.fetch_add(1, Ordering::Relaxed);
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

/// The service-wide registry of live queries, shared by the service
/// thread (writes) and the HTTP endpoint (reads).
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

    /// Snapshot the running queries.
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

    fn live(id: u64) -> Arc<LiveQuery> {
        LiveQuery::new(
            QueryId::new(id),
            1 << 20,
            MemoryTracker::new(),
            CancellationToken::new(),
        )
    }

    #[test]
    fn registry_tracks_queued_and_running() {
        let reg = LiveRegistry::new();
        reg.enqueue(QueryId::new(2), 512);
        reg.admit(live(1));
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
    fn a_cancelled_query_renders_cancelling() {
        let reg = LiveRegistry::new();
        let token = CancellationToken::new();
        reg.admit(LiveQuery::new(
            QueryId::new(1),
            1 << 20,
            MemoryTracker::new(),
            token.clone(),
        ));
        let row = |table: String| table.lines().nth(1).unwrap_or_default().to_string();
        let before = row(reg.render_table());
        assert!(before.contains("running"), "{before}");
        token.cancel();
        let after = row(reg.render_table());
        assert!(after.starts_with("q1 "), "{after}");
        assert!(after.contains("cancelling"), "{after}");
    }
}
