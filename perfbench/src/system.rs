//! A workload's running system: generated data plus a started `Engine` or
//! `QueryService`, driven by closed-loop callers.

use crate::spans::SpanLog;
use crate::workload::{Front, Workload, TRACE_CAPACITY};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use uot_baseline::BaselineEngine;
use uot_core::obs::HubSnapshot;
use uot_core::{
    Engine, ExecOptions, QueryMetrics, QueryResult, QueryService, ServiceConfig, Trace,
    TraceConfig, TraceEventKind,
};
use uot_storage::{BlockFormat, Value};
use uot_tpch::{build_query, sql_text, QueryId as Stmt, TpchConfig, TpchDb};

enum Frontend {
    /// The measured engine, plus a copy that traces every query (the
    /// engine's trace capacity is a configuration field, not an option).
    Engine {
        plain: Engine,
        traced: Engine,
    },
    Service(QueryService),
}

/// What a successful query left behind.
#[derive(Debug)]
pub struct Executed {
    /// The result, with its per-work-order logs dropped to save memory.
    pub result: QueryResult,
    /// Dispatch-to-start wait of every work order (traced queries only).
    pub dispatch_waits: Vec<Duration>,
    /// `Trace::dropped`, or `None` when the query was not traced.
    pub trace_dropped: Option<usize>,
}

impl Executed {
    fn new(mut result: QueryResult) -> Executed {
        let trace = result.trace.take();
        result.explain = None;
        result.metrics.tasks = Vec::new();
        for op in &mut result.metrics.ops {
            op.task_times = Vec::new();
        }
        Executed {
            result,
            dispatch_waits: trace.as_ref().map(dispatch_waits).unwrap_or_default(),
            trace_dropped: trace.map(|t| t.dropped),
        }
    }

    /// The engine's own metrics for this query.
    pub fn metrics(&self) -> &QueryMetrics {
        &self.result.metrics
    }
}

/// Time each work order waited between dispatch and the start of its
/// execution, paired by work-order sequence number.
fn dispatch_waits(trace: &Trace) -> Vec<Duration> {
    let mut dispatched = HashMap::new();
    let mut waits = Vec::new();
    for e in &trace.events {
        match e.kind {
            TraceEventKind::WorkOrderDispatched { seq, .. } => {
                dispatched.insert(seq, e.t);
            }
            TraceEventKind::WorkOrderFinished { seq, start, .. } => {
                if let Some(t) = dispatched.get(&seq) {
                    waits.push(start.saturating_sub(*t));
                }
            }
            _ => {}
        }
    }
    waits
}

/// One query as the caller saw it.
#[derive(Debug)]
pub struct Sample {
    /// Index into the workload's statement list.
    pub stmt: usize,
    /// From the public call to the result in hand.
    pub latency: Duration,
    /// Time inside `submit_sql_with` (zero on the engine).
    pub submit: Duration,
    /// The result, or the error text.
    pub outcome: Result<Executed, String>,
}

/// One measured pass: every caller's samples plus what the program's
/// counters said around it.
#[derive(Debug)]
pub struct Pass {
    /// Samples of every caller.
    pub samples: Vec<Sample>,
    /// Wall time from the first call to the last reply.
    pub wall: Duration,
    /// Service hub at the start and end of the pass (service only).
    pub hub: Option<(HubSnapshot, HubSnapshot)>,
}

impl Pass {
    /// Results of the queries that succeeded.
    pub fn executed(&self) -> impl Iterator<Item = (&Sample, &Executed)> {
        self.samples
            .iter()
            .filter_map(|s| s.outcome.as_ref().ok().map(|e| (s, e)))
    }

    /// Successful queries per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.executed().count() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Sorted rows equal, floats within 1e-9 relative (the rule
/// `tests/end_to_end.rs` uses between the engine and the baseline).
pub fn rows_match(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(x, y)| match (x, y) {
                    (Value::F64(p), Value::F64(q)) => {
                        (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0)
                    }
                    _ => x == y,
                })
        })
}

/// Generated data plus a started front end.
pub struct System {
    db: TpchDb,
    front: Frontend,
    statements: Vec<Stmt>,
}

impl System {
    /// Generate the workload's data from `seed` and start its front end.
    pub fn start(w: &Workload, seed: u64, spans: &mut SpanLog) -> System {
        let config = TpchConfig {
            seed,
            ..TpchConfig::scale(w.sf)
                .with_block_bytes(w.base_block_bytes)
                .with_format(BlockFormat::Column)
        };
        let db = spans.time("tpch.generate", || TpchDb::generate(config));
        let catalog = db.catalog().clone();
        let front = match &w.front {
            Front::Engine(cfg) => Frontend::Engine {
                plain: Engine::new(cfg.clone()).with_catalog(catalog.clone()),
                traced: Engine::new(cfg.clone().tracing(TraceConfig {
                    capacity: TRACE_CAPACITY,
                }))
                .with_catalog(catalog),
            },
            Front::Service(cfg) => Frontend::Service(
                QueryService::start(ServiceConfig {
                    catalog,
                    ..cfg.clone()
                })
                .expect("the workload's service configuration is valid"),
            ),
        };
        System {
            db,
            front,
            statements: w.statements.clone(),
        }
    }

    /// One untimed pass over the statements, filling the plan cache and the
    /// block pools. `traced` warms the tracing engine instead.
    pub fn warm_up(&self, traced: bool) {
        let mut spans = SpanLog::new(Instant::now()).fork(false);
        for stmt in 0..self.statements.len() {
            self.query(stmt, traced, &mut spans, 0);
        }
    }

    /// Reference answers from the operator-at-a-time baseline on the
    /// hand-built plans, sorted, one per statement.
    pub fn reference(&self) -> Vec<Vec<Vec<Value>>> {
        let baseline = BaselineEngine::new();
        self.statements
            .iter()
            .map(|&q| {
                let plan = build_query(q, &self.db).expect("hand-built TPC-H plan builds");
                baseline
                    .execute(&plan)
                    .expect("baseline runs every TPC-H plan")
                    .sorted_rows()
            })
            .collect()
    }

    /// Results that are errors or differ from the reference.
    pub fn failures(&self, pass: &Pass, reference: &[Vec<Vec<Value>>]) -> usize {
        pass.samples
            .iter()
            .filter(|s| match &s.outcome {
                Ok(e) => !rows_match(&e.result.sorted_rows(), &reference[s.stmt]),
                Err(_) => true,
            })
            .count()
    }

    /// Temporary bytes the service still holds (`None` on the engine).
    pub fn memory_in_use(&self) -> Option<usize> {
        match &self.front {
            Frontend::Engine { .. } => None,
            Frontend::Service(s) => Some(s.memory_in_use()),
        }
    }

    fn hub(&self) -> Option<HubSnapshot> {
        match &self.front {
            Frontend::Engine { .. } => None,
            Frontend::Service(s) => Some(s.hub_snapshot()),
        }
    }

    /// The catalog SQL resolves against.
    pub fn db(&self) -> &TpchDb {
        &self.db
    }

    /// Run `clients` closed-loop callers for at least `seconds`. Each caller
    /// starts at its seed-derived offset and walks whole cycles of the
    /// statement list, so every statement runs equally often whatever the
    /// speed. With `traced`, every query records a trace and every call a
    /// span (into `spans`).
    pub fn drive(
        &self,
        w: &Workload,
        seconds: f64,
        seed: u64,
        traced: bool,
        spans: &mut SpanLog,
    ) -> Pass {
        let n = self.statements.len();
        let hub_before = self.hub();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let per_client: Vec<(Vec<Sample>, SpanLog)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..w.clients)
                .map(|c| {
                    let mut log = spans.fork(traced);
                    let offset = w.client_offset(seed, c);
                    s.spawn(move || {
                        let mut samples = Vec::new();
                        let mut i = 0;
                        while i % n != 0 || Instant::now() < deadline {
                            let id = ((c as u64) << 32) | i as u64;
                            samples.push(self.query((offset + i) % n, traced, &mut log, id));
                            i += 1;
                        }
                        (samples, log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = started.elapsed();
        let mut samples = Vec::new();
        for (s, log) in per_client {
            samples.extend(s);
            spans.append(log);
        }
        Pass {
            samples,
            wall,
            hub: hub_before.zip(self.hub()),
        }
    }

    fn query(&self, stmt: usize, traced: bool, spans: &mut SpanLog, id: u64) -> Sample {
        let sql = sql_text(self.statements[stmt]);
        let root = spans.open("query", None, Some(id));
        let t0 = Instant::now();
        let (outcome, submit) = match &self.front {
            Frontend::Engine {
                plain,
                traced: tracing,
            } => {
                let engine = if traced { tracing } else { plain };
                let span = spans.open("engine.execute_sql_with", Some(root), Some(id));
                let r = engine.execute_sql_with(sql, ExecOptions::default());
                spans.close(span);
                (r, Duration::ZERO)
            }
            Frontend::Service(service) => {
                let opts = if traced {
                    ExecOptions::default().traced()
                } else {
                    ExecOptions::default()
                };
                let span = spans.open("service.submit_sql_with", Some(root), Some(id));
                let handle = service.submit_sql_with(sql, opts);
                spans.close(span);
                let submit = t0.elapsed();
                let span = spans.open("query_handle.wait", Some(root), Some(id));
                let r = handle.and_then(|h| h.wait());
                spans.close(span);
                (r, submit)
            }
        };
        let latency = t0.elapsed();
        spans.close(root);
        Sample {
            stmt,
            latency,
            submit,
            outcome: outcome.map(Executed::new).map_err(|e| e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_tolerates_float_rounding_only() {
        let a = vec![vec![Value::I32(1), Value::F64(1.0)]];
        assert!(rows_match(
            &a,
            &[vec![Value::I32(1), Value::F64(1.0 + 1e-12)]]
        ));
        assert!(!rows_match(&a, &[vec![Value::I32(1), Value::F64(1.001)]]));
        assert!(!rows_match(&a, &[vec![Value::I32(2), Value::F64(1.0)]]));
        assert!(!rows_match(&a, &[]));
    }
}
