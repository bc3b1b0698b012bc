//! Per-edge UoT-occupancy timelines: how many blocks each transfer edge
//! held over time, a signal only the [`Trace`] keeps. (The paper's Fig. 3
//! operator time shares and Fig. 5 task-time distributions are
//! [`QueryMetrics::dominant_operators`](crate::metrics::QueryMetrics::dominant_operators)
//! and [`OperatorMetrics::task_times`](crate::metrics::OperatorMetrics::task_times).)

use crate::plan::OpId;
use crate::trace::{Trace, TraceEventKind};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Duration;

/// The UoT occupancy of one transfer edge over time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeTimeline {
    /// Producer side of the edge.
    pub producer: OpId,
    /// Consumer side of the edge.
    pub consumer: OpId,
    /// The edge's UoT threshold in blocks (`usize::MAX` = whole table);
    /// taken from the first staging event seen.
    pub threshold: usize,
    /// `(timestamp, staged blocks)` samples: one per staging event, plus a
    /// zero sample at every flush (the edge empties).
    pub points: Vec<(Duration, usize)>,
    /// `(timestamp, blocks, bytes, partial)` per flush over this edge.
    pub flushes: Vec<(Duration, usize, usize, bool)>,
}

impl EdgeTimeline {
    /// Peak staged occupancy.
    pub fn peak_staged(&self) -> usize {
        self.points.iter().map(|&(_, s)| s).max().unwrap_or(0)
    }

    /// Total bytes flushed over this edge.
    pub fn total_bytes(&self) -> usize {
        self.flushes.iter().map(|&(_, _, b, _)| b).sum()
    }

    /// Render as CSV (`t_us,staged` per line) for plotting.
    pub fn to_csv(&self, trace: &Trace) -> String {
        let mut out = format!(
            "# edge {} -> {} (threshold {})\nt_us,staged\n",
            trace.op_name(self.producer),
            trace.op_name(self.consumer),
            if self.threshold == usize::MAX {
                "table".to_string()
            } else {
                self.threshold.to_string()
            }
        );
        for (t, staged) in &self.points {
            let _ = writeln!(out, "{:.3},{}", t.as_secs_f64() * 1e6, staged);
        }
        out
    }
}

/// Extract the occupancy timeline of every transfer edge seen in `trace`,
/// ordered by `(producer, consumer)`.
pub fn uot_timelines(trace: &Trace) -> Vec<EdgeTimeline> {
    fn entry(
        edges: &mut BTreeMap<(OpId, OpId), EdgeTimeline>,
        producer: OpId,
        consumer: OpId,
        threshold: Option<usize>,
    ) -> &mut EdgeTimeline {
        let e = edges
            .entry((producer, consumer))
            .or_insert_with(|| EdgeTimeline {
                producer,
                consumer,
                threshold: 0,
                points: Vec::new(),
                flushes: Vec::new(),
            });
        if e.threshold == 0 {
            e.threshold = threshold.unwrap_or(0);
        }
        e
    }
    let mut edges: BTreeMap<(OpId, OpId), EdgeTimeline> = BTreeMap::new();
    for e in &trace.events {
        match e.kind {
            TraceEventKind::EdgeStaged {
                producer,
                consumer,
                staged,
                threshold,
            } => {
                entry(&mut edges, producer, consumer, Some(threshold))
                    .points
                    .push((e.t, staged));
            }
            TraceEventKind::TransferFlushed {
                producer,
                consumer,
                blocks,
                bytes,
                partial,
            } => {
                let edge = entry(&mut edges, producer, consumer, None);
                edge.points.push((e.t, 0));
                edge.flushes.push((e.t, blocks, bytes, partial));
            }
            _ => {}
        }
    }
    edges.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    fn staged(t: u64, staged: usize) -> TraceEvent {
        TraceEvent {
            t: us(t),
            kind: TraceEventKind::EdgeStaged {
                producer: 0,
                consumer: 1,
                staged,
                threshold: 3,
            },
        }
    }

    #[test]
    fn timeline_tracks_occupancy_and_flushes() {
        let trace = Trace {
            events: vec![
                staged(1, 1),
                staged(2, 2),
                TraceEvent {
                    t: us(3),
                    kind: TraceEventKind::TransferFlushed {
                        producer: 0,
                        consumer: 1,
                        blocks: 3,
                        bytes: 300,
                        partial: false,
                    },
                },
                staged(4, 1),
                TraceEvent {
                    t: us(5),
                    kind: TraceEventKind::TransferFlushed {
                        producer: 0,
                        consumer: 1,
                        blocks: 1,
                        bytes: 100,
                        partial: true,
                    },
                },
            ],
            query: crate::query_id::QueryId::SOLO,
            op_names: vec!["select".into(), "agg".into()],
            dropped: 0,
        };
        let tls = uot_timelines(&trace);
        assert_eq!(tls.len(), 1);
        let tl = &tls[0];
        assert_eq!(tl.threshold, 3);
        assert_eq!(tl.peak_staged(), 2);
        assert_eq!(tl.total_bytes(), 400);
        assert_eq!(tl.flushes.len(), 2);
        assert!(tl.flushes[1].3, "second flush is the partial one");
        // Occupancy returns to zero after each flush.
        assert_eq!(tl.points.last(), Some(&(us(5), 0)));
        let csv = tl.to_csv(&trace);
        assert!(csv.contains("select -> agg"));
        assert!(csv.lines().count() > 3);
    }

    #[test]
    fn empty_trace_gives_empty_views() {
        let trace = Trace::default();
        assert!(uot_timelines(&trace).is_empty());
    }
}
