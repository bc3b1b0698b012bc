//! Execution metrics.
//!
//! Every figure in the paper's evaluation is a readout of scheduler-level
//! metrics: per-task (work-order) execution times (Fig. 5, Fig. 10, Table
//! VI), per-operator time shares (Fig. 3), chain/query wall times (Figs. 6-8,
//! 11), DOP behavior (Fig. 9) and memory footprints (Section VI). The engine
//! records them natively rather than relying on external profilers.

use crate::plan::OpId;
use crate::query_id::QueryId;
use crate::uot::Uot;
use std::time::Duration;
use uot_sql::PlanCacheOutcome;
use uot_storage::PoolStats;

/// One UoT degradation taken by the engine's
/// [`DegradePolicy`](crate::engine::DegradePolicy) after a budget failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degradation {
    /// The UoT the failed attempt ran with.
    pub from: Uot,
    /// The lower UoT the retry ran with.
    pub to: Uot,
}

/// One executed work order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRecord {
    /// Operator the task belonged to.
    pub op: OpId,
    /// Worker that ran it (0 in serial mode).
    pub worker: usize,
    /// Start, relative to query start.
    pub start: Duration,
    /// End, relative to query start.
    pub end: Duration,
}

impl TaskRecord {
    /// Task duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Aggregated metrics for one operator.
#[derive(Debug, Clone, Default)]
pub struct OperatorMetrics {
    /// Display name from the plan.
    pub name: String,
    /// Operator kind label ("select", "probe", ...).
    pub kind: String,
    /// Number of executed work orders.
    pub work_orders: usize,
    /// Sum of work-order durations (CPU-side operator time).
    pub total_task_time: Duration,
    /// Individual work-order durations.
    pub task_times: Vec<Duration>,
    /// Input blocks consumed.
    pub input_blocks: usize,
    /// Input rows consumed (rows in transferred blocks).
    pub input_rows: usize,
    /// Output blocks produced (completed + flushed partials).
    pub produced_blocks: usize,
    /// Output rows produced.
    pub produced_rows: usize,
    /// Output bytes produced (allocated bytes of completed blocks).
    pub produced_bytes: usize,
    /// Rows dropped by LIP Bloom filters at this operator (selects only).
    pub lip_pruned_rows: usize,
}

impl OperatorMetrics {
    /// Mean work-order duration; zero when no work ran.
    pub fn avg_task_time(&self) -> Duration {
        if self.work_orders == 0 {
            Duration::ZERO
        } else {
            self.total_task_time / self.work_orders as u32
        }
    }

    /// Longest work-order duration.
    pub fn max_task_time(&self) -> Duration {
        self.task_times
            .iter()
            .max()
            .copied()
            .unwrap_or(Duration::ZERO)
    }
}

/// Live-accumulated statistics of one transfer edge, indexed by its
/// producer operator. The per-edge half of `EXPLAIN ANALYZE`: occupancy,
/// stall and flush behavior of the UoT staging machinery.
#[derive(Debug, Clone, Default)]
pub struct EdgeMetrics {
    /// Consumer side of the edge (`None` for the sink edge).
    pub consumer: Option<OpId>,
    /// The edge's UoT threshold in blocks (`usize::MAX` = whole table).
    pub threshold: usize,
    /// Staging events observed (block batches held below the threshold).
    pub stalls: usize,
    /// Highest staged occupancy observed, blocks.
    pub max_staged: usize,
    /// Sum of staged occupancies over staging events (mean = `/ stalls`).
    pub sum_staged: usize,
    /// Threshold-triggered transfers.
    pub flushes: usize,
    /// End-of-producer partial flushes.
    pub partial_flushes: usize,
    /// Blocks moved across the edge.
    pub blocks: usize,
    /// Rows moved across the edge.
    pub rows: usize,
    /// Bytes moved across the edge.
    pub bytes: usize,
}

impl EdgeMetrics {
    /// Mean staged occupancy over staging events; zero when none occurred.
    pub fn mean_staged(&self) -> f64 {
        if self.stalls == 0 {
            0.0
        } else {
            self.sum_staged as f64 / self.stalls as f64
        }
    }
}

/// Metrics for one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// The query these metrics belong to ([`QueryId::SOLO`] outside a
    /// service).
    pub query: QueryId,
    /// End-to-end wall time.
    pub wall_time: Duration,
    /// Per-operator aggregates, indexed by [`OpId`].
    pub ops: Vec<OperatorMetrics>,
    /// Per-edge transfer statistics, indexed by producer [`OpId`].
    pub edges: Vec<EdgeMetrics>,
    /// The full task log (chronological by start time).
    pub tasks: Vec<TaskRecord>,
    /// Peak bytes of temporary storage (pool blocks + hash tables).
    pub peak_temp_bytes: usize,
    /// Block-pool behavior counters.
    pub pool: PoolStats,
    /// Final size of each join hash table, by build operator.
    pub hash_table_bytes: Vec<(OpId, usize)>,
    /// Rows in the query result.
    pub result_rows: usize,
    /// Number of workers configured.
    pub workers: usize,
    /// UoT degradations taken to fit the memory budget (empty unless
    /// [`DegradePolicy::LowerUot`](crate::engine::DegradePolicy) kicked in).
    pub degradations: Vec<Degradation>,
    /// For SQL submissions: whether the physical plan came from the plan
    /// cache ([`PlanCacheOutcome::Hit`]) or was compiled fresh. `None` when
    /// the query was submitted as a pre-built plan.
    pub plan_cache: Option<PlanCacheOutcome>,
    /// Stream pipelines executed as fused push-based loops (UoT -> 0).
    pub fused_pipelines: usize,
    /// Stream pipelines executed via staged transfer edges.
    pub staged_pipelines: usize,
    /// Blocks evicted to the disk spill tier (0 without
    /// [`DegradePolicy::Spill`](crate::engine::DegradePolicy) or without
    /// memory pressure).
    pub spill_events: usize,
    /// Cumulative tracked bytes moved out to the disk tier.
    pub spilled_bytes: usize,
    /// Cumulative tracked bytes faulted back in from the disk tier.
    pub restored_bytes: usize,
    /// Deepest grace-join re-partitioning recursion taken (0 = every
    /// partition fit on the first pass).
    pub respill_depth: usize,
    /// Length the query's append-only spill file reached (0 when nothing
    /// spilled). Freed extents are not reused, so this is the disk the
    /// query held at its end, at most `spilled_bytes`.
    pub spill_file_bytes: usize,
}

impl QueryMetrics {
    /// Operators ordered by their share of total operator time — the paper's
    /// Fig. 3 "dominant operator" analysis. Returns `(op id, name, fraction)`
    /// with fractions of the summed task time.
    pub fn dominant_operators(&self) -> Vec<(OpId, String, f64)> {
        let total: f64 = self
            .ops
            .iter()
            .map(|o| o.total_task_time.as_secs_f64())
            .sum();
        let mut v: Vec<(OpId, String, f64)> = self
            .ops
            .iter()
            .enumerate()
            .map(|(id, o)| {
                let frac = if total > 0.0 {
                    o.total_task_time.as_secs_f64() / total
                } else {
                    0.0
                };
                (id, o.name.clone(), frac)
            })
            .collect();
        v.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        v
    }

    /// Maximum number of concurrently executing work orders of `op` — the
    /// realized degree of parallelism (Section IV-C of the paper).
    pub fn max_dop(&self, op: OpId) -> usize {
        max_overlap(self.tasks.iter().filter(|t| t.op == op))
    }

    /// Maximum number of work orders executing at once across the whole
    /// query. A work order runs only between the start and end its worker
    /// stamps, so this never exceeds [`QueryMetrics::workers`].
    pub fn max_concurrency(&self) -> usize {
        max_overlap(self.tasks.iter())
    }

    /// An ASCII schedule of work orders over time — the shape Fig. 2 of the
    /// paper draws. One line per worker; each character cell is one time
    /// bucket showing the operator id (mod 10) that ran there, `.` for idle.
    pub fn schedule_text(&self, buckets: usize) -> String {
        if self.tasks.is_empty() || buckets == 0 {
            return String::new();
        }
        let end = self
            .tasks
            .iter()
            .map(|t| t.end)
            .max()
            .unwrap_or(Duration::ZERO)
            .as_secs_f64()
            .max(1e-9);
        // One lane per worker. The lane count is clamped from both sides:
        // every *configured* worker gets a lane (idle workers render as all
        // dots instead of vanishing when fewer tasks than workers ran), and a
        // task record can never index past the grid even if its worker id
        // exceeds the configured count.
        let seen = self
            .tasks
            .iter()
            .map(|t| t.worker.saturating_add(1))
            .max()
            .unwrap_or(0);
        let lanes = self.workers.max(seen).max(1);
        let mut grid = vec![vec!['.'; buckets]; lanes];
        for t in &self.tasks {
            let lane = t.worker.min(lanes - 1);
            let b0 = (((t.start.as_secs_f64() / end) * buckets as f64) as usize).min(buckets - 1);
            // Paint at least one cell so sub-bucket tasks stay visible.
            let b1 = (((t.end.as_secs_f64() / end) * buckets as f64).ceil() as usize)
                .clamp(b0 + 1, buckets);
            let ch = char::from_digit((t.op % 10) as u32, 10).unwrap_or('?');
            for cell in grid[lane].iter_mut().take(b1).skip(b0) {
                *cell = ch;
            }
        }
        let mut out = String::new();
        for (w, row) in grid.iter().enumerate() {
            out.push_str(&format!("w{w:02} |"));
            out.extend(row.iter());
            out.push('\n');
        }
        out
    }

    /// Total operator (CPU) time across all work orders.
    pub fn total_task_time(&self) -> Duration {
        self.ops.iter().map(|o| o.total_task_time).sum()
    }
}

/// The most intervals open at once: sweep start/end events, ends first on
/// ties, so a task starting the instant another ends does not overlap it.
fn max_overlap<'a>(tasks: impl Iterator<Item = &'a TaskRecord>) -> usize {
    let mut events: Vec<(Duration, i32)> = Vec::new();
    for t in tasks {
        events.push((t.start, 1));
        events.push((t.end, -1));
    }
    events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut cur = 0i32;
    let mut max = 0i32;
    for (_, d) in events {
        cur += d;
        max = max.max(cur);
    }
    max.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn sample() -> QueryMetrics {
        QueryMetrics {
            wall_time: ms(100),
            ops: vec![
                OperatorMetrics {
                    name: "select(t)".into(),
                    kind: "select".into(),
                    work_orders: 2,
                    total_task_time: ms(60),
                    task_times: vec![ms(40), ms(20)],
                    ..Default::default()
                },
                OperatorMetrics {
                    name: "probe(t)".into(),
                    kind: "probe".into(),
                    work_orders: 1,
                    total_task_time: ms(40),
                    task_times: vec![ms(40)],
                    ..Default::default()
                },
            ],
            tasks: vec![
                TaskRecord {
                    op: 0,
                    worker: 0,
                    start: ms(0),
                    end: ms(40),
                },
                TaskRecord {
                    op: 0,
                    worker: 1,
                    start: ms(10),
                    end: ms(30),
                },
                TaskRecord {
                    op: 1,
                    worker: 0,
                    start: ms(40),
                    end: ms(80),
                },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn task_duration() {
        let t = TaskRecord {
            op: 0,
            worker: 0,
            start: ms(10),
            end: ms(25),
        };
        assert_eq!(t.duration(), ms(15));
    }

    #[test]
    fn averages() {
        let m = sample();
        assert_eq!(m.ops[0].avg_task_time(), ms(30));
        assert_eq!(m.ops[0].max_task_time(), ms(40));
        assert_eq!(OperatorMetrics::default().avg_task_time(), Duration::ZERO);
        assert_eq!(m.total_task_time(), ms(100));
    }

    #[test]
    fn dominant_operator_fractions() {
        let m = sample();
        let d = m.dominant_operators();
        assert_eq!(d[0].0, 0);
        assert!((d[0].2 - 0.6).abs() < 1e-9);
        assert!((d[1].2 - 0.4).abs() < 1e-9);
    }

    #[test]
    fn dominant_with_no_time_is_zero() {
        let m = QueryMetrics {
            ops: vec![OperatorMetrics::default()],
            ..Default::default()
        };
        assert_eq!(m.dominant_operators()[0].2, 0.0);
    }

    #[test]
    fn max_dop_counts_overlap() {
        let m = sample();
        assert_eq!(m.max_dop(0), 2); // two select tasks overlap from 10-30
        assert_eq!(m.max_dop(1), 1);
        assert_eq!(m.max_dop(7), 0); // no tasks
    }

    #[test]
    fn schedule_text_shape() {
        let m = sample();
        let s = m.schedule_text(16);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2); // two workers
        assert!(lines[0].starts_with("w00 |"));
        assert!(lines[0].contains('0')); // select ran on worker 0
        assert!(lines[0].contains('1')); // probe ran on worker 0
        assert!(lines[1].contains('0'));
        // empty metrics -> empty schedule
        assert!(QueryMetrics::default().schedule_text(8).is_empty());
    }

    #[test]
    fn schedule_text_overwide_worker_count() {
        // More configured workers than workers that ever ran a task: every
        // configured worker still gets a lane, idle ones all dots.
        let m = QueryMetrics {
            workers: 4,
            tasks: vec![TaskRecord {
                op: 3,
                worker: 0,
                start: ms(0),
                end: ms(10),
            }],
            ..Default::default()
        };
        let s = m.schedule_text(8);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('3'));
        for idle in &lines[1..] {
            assert!(idle.ends_with(&".".repeat(8)), "idle lane garbled: {idle}");
        }
    }

    #[test]
    fn schedule_text_zero_duration_task_paints_a_cell() {
        let m = QueryMetrics {
            workers: 1,
            tasks: vec![
                TaskRecord {
                    op: 1,
                    worker: 0,
                    start: ms(0),
                    end: ms(100),
                },
                TaskRecord {
                    op: 5,
                    worker: 0,
                    start: ms(100),
                    end: ms(100),
                },
            ],
            ..Default::default()
        };
        // The instantaneous task at the very end of the span must still show
        // up somewhere instead of indexing past the grid.
        let s = m.schedule_text(4);
        assert!(s.contains('5'), "zero-duration task vanished: {s}");
    }

    #[test]
    fn schedule_text_stray_worker_id_is_clamped() {
        // A record whose worker id exceeds the configured count lands on the
        // last lane instead of panicking.
        let m = QueryMetrics {
            workers: 2,
            tasks: vec![TaskRecord {
                op: 7,
                worker: 9,
                start: ms(0),
                end: ms(5),
            }],
            ..Default::default()
        };
        let s = m.schedule_text(4);
        assert_eq!(s.lines().count(), 10, "lanes grow to cover seen ids");
        assert!(s.contains('7'));
    }
}
