//! The benchmark's own spans: one record per call it makes into a layer's
//! public API (`TpchDb::generate`, `uot_core::compile`,
//! `Engine::execute_sql_with`, `QueryService::submit_sql_with`,
//! `QueryHandle::wait`). Spans stay in memory and are written out once, at
//! the end of a traced run. Nothing here reaches inside the engine.

use crate::json;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`tpch.generate`, `service.submit_sql_with`, ...).
    pub name: &'static str,
    /// Start, relative to the run's epoch.
    pub start: Duration,
    /// End, relative to the run's epoch.
    pub end: Duration,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Client-side query id shared by every span of one query.
    pub query: Option<u64>,
}

impl Span {
    /// Wall time of the call.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An append-only span log. A disabled log records nothing, so untraced
/// passes pay nothing for it.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty, recording log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// An empty log sharing this log's epoch, recording only if `enabled`.
    pub fn fork(&self, enabled: bool) -> Self {
        SpanLog {
            epoch: self.epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Start a span; returns its id for [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query: Option<u64>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    /// End the span `id` opened.
    pub fn close(&mut self, id: usize) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end = self.epoch.elapsed();
        }
    }

    /// Run `f` inside a top-level span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, None, None);
        let out = f();
        self.close(id);
        out
    }

    /// Move `other`'s spans into this log, keeping parent links intact.
    pub fn append(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span, in recording order per client.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans called `name`.
    pub fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = Duration> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::duration)
    }

    /// The log as one JSON document (`{"spans": [...]}`), times in µs.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                json::object(&[
                    ("name", json::string(s.name)),
                    ("start_us", json::number(s.start.as_secs_f64() * 1e6)),
                    ("end_us", json::number(s.end.as_secs_f64() * 1e6)),
                    ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
                    ("query", s.query.map_or("null".into(), |q| q.to_string())),
                ])
            })
            .collect();
        json::object(&[("spans", format!("[{}]", items.join(",\n")))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_keep_parents_across_append() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch);
        log.time("tpch.generate", || ());
        let mut client = log.fork(true);
        let root = client.open("query", None, Some(7));
        let child = client.open("engine.execute_sql", Some(root), Some(7));
        client.close(child);
        client.close(root);
        log.append(client);
        assert_eq!(log.spans().len(), 3);
        assert_eq!(log.spans()[2].parent, Some(1));
        assert!(log.spans()[1].end >= log.spans()[2].end);
        assert_eq!(log.durations("query").count(), 1);
        assert!(log
            .to_json()
            .starts_with("{\"spans\": [{\"name\": \"tpch.generate\""));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now()).fork(false);
        let id = log.open("query", None, None);
        log.close(id);
        assert!(log.spans().is_empty());
    }
}
