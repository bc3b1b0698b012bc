//! The multi-query service: one worker pool, one memory budget, many
//! concurrent queries.
//!
//! The [`Engine`](crate::engine::Engine) runs one query at a time on the
//! caller's thread — the right shape for studying one query's UoT
//! behaviour, the wrong shape for a server. [`QueryService`] is the
//! long-lived form: one `SchedulerCore` per admitted query shares a pool of
//! worker threads, and every dispatched work order, pool allocation, metric
//! and trace event carries the query's [`QueryId`]. The workers dispatch
//! their own work orders (booking each completion and taking the next order
//! under one dispatcher lock); a service thread keeps admission, the budget
//! retry and teardown, and sleeps until a submission, a retired query or
//! shutdown arrives.
//! Everything else about a query's life — its preparation, the budget-retry
//! rule, teardown, its deadline (checked wherever cancellation is) and the
//! worker pool and its loop — is the code a standalone `Engine` run uses.
//!
//! Three mechanisms keep tenants honest:
//!
//! * **Admission control** — each query reserves a slice of the global
//!   memory budget before it runs. While the sum of active reservations
//!   would exceed the budget, new queries wait in a FIFO admission queue
//!   (bounded by [`ServiceConfig::max_queued`]); a reservation that can
//!   never fit is rejected immediately with
//!   [`EngineError::AdmissionRejected`].
//! * **Per-query budgets** — an admitted query allocates from its own
//!   [`BlockPool`](uot_storage::BlockPool) whose [`MemoryTracker`] is
//!   parented on the service-wide tracker, so a query that outgrows its
//!   reservation fails alone with [`EngineError::BudgetExceeded`] (naming its
//!   [`QueryId`]) while the global gauge stays exact.
//! * **Fair dispatch** — ready work is drawn round-robin across active
//!   queries, one work order per query per turn, so a block-rich scan
//!   cannot starve a short probe. Within one query the per-operator
//!   policy (critical-first, downstream-first, FIFO) is unchanged.
//!
//! Cancellation ([`QueryHandle::cancel`]) and per-query deadlines tear down
//! exactly one query — its staged blocks, parked bytes and pool free lists
//! drain back to the global tracker — while sibling queries keep running.

use crate::cancel::CancellationToken;
use crate::engine::{EngineConfig, ExecMode, QueryResult, TraceConfig};
use crate::error::EngineError;
use crate::exec_options::ExecOptions;
use crate::fault::FaultPlan;
use crate::lifecycle::{self, Prepared};
use crate::metrics::Degradation;
use crate::obs::hub::{HubCounter, HubHistogram};
use crate::obs::{
    HubSnapshot, IntrospectionServer, LiveQuery, LiveRegistry, MetricsHub, ServerState,
};
use crate::plan::QueryPlan;
use crate::query_id::QueryId;
use crate::scheduler::{worker_loop, QueryRun, WorkerPool};
use crate::trace::{TraceSink, DEFAULT_TRACE_CAPACITY};
use crate::uot::Uot;
use crate::Result;
use crossbeam::channel::{Receiver, Sender};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use uot_sql::{CacheStats, PlanCache, PlanCacheOutcome};
use uot_storage::{BlockFormat, Catalog, MemoryTracker};

/// Service-wide configuration: the shared worker pool, the global memory
/// budget admission control carves reservations from, and the per-query
/// execution defaults (block size, UoT, fusion, degradation). Temporaries
/// are row-format blocks from a reusing pool, as under a default
/// [`EngineConfig`]; tracing is per query ([`ExecOptions::traced`]).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads shared by every admitted query.
    pub workers: usize,
    /// Global budget in bytes for temporary memory across *all* queries.
    pub memory_budget: usize,
    /// Reservation for queries that do not set
    /// [`ExecOptions::reservation`].
    pub default_reservation: usize,
    /// Admission-queue depth: submissions past it are rejected with
    /// [`EngineError::AdmissionRejected`] instead of queueing.
    pub max_queued: usize,
    /// Size of temporary storage blocks in bytes.
    pub block_bytes: usize,
    /// Default unit of transfer for every edge without an override.
    pub default_uot: Uot,
    /// Default fused-pipeline policy (per-query override via
    /// [`ExecOptions::fusion`]).
    pub fusion: crate::fusion::FusionPolicy,
    /// Default budget-degradation policy (per-query override via
    /// [`ExecOptions::degrade`]).
    /// [`DegradePolicy::Spill`](crate::engine::DegradePolicy::Spill) arms a
    /// per-query disk spill tier against the query's own reservation, so a
    /// query that outgrows it degrades to out-of-core execution instead of
    /// failing with [`EngineError::BudgetExceeded`].
    pub degrade: crate::engine::DegradePolicy,
    /// Event capacity of each traced query's trace sink.
    pub trace_capacity: usize,
    /// Catalog [`QueryService::submit_sql`] resolves table names against
    /// (empty by default; plan-based submissions never consult it).
    pub catalog: Arc<Catalog>,
    /// HTTP introspection endpoint: `Some(port)` binds `127.0.0.1:port`
    /// (0 = ephemeral, see [`QueryService::http_addr`]) serving `/metrics`,
    /// `/queries` and `/healthz`. `None` (the default) runs no server.
    pub http_port: Option<u16>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            memory_budget: 256 << 20,
            default_reservation: 16 << 20,
            max_queued: 64,
            block_bytes: 128 * 1024,
            default_uot: Uot::LOW,
            fusion: crate::fusion::FusionPolicy::Auto,
            degrade: crate::engine::DegradePolicy::Off,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            catalog: Catalog::new(),
            http_port: None,
        }
    }
}

impl ServiceConfig {
    fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(EngineError::Config(
                "a query service needs at least 1 worker (got workers=0)".into(),
            ));
        }
        if self.memory_budget == 0 {
            return Err(EngineError::Config(
                "memory_budget=0 would reject every admission".into(),
            ));
        }
        if self.default_reservation == 0 || self.default_reservation > self.memory_budget {
            return Err(EngineError::Config(format!(
                "default_reservation={} must be in 1..={} (the global budget)",
                self.default_reservation, self.memory_budget
            )));
        }
        Ok(())
    }

    /// The configuration a query runs under before its own [`ExecOptions`]
    /// are layered on: the service's per-query defaults, the shared pool's
    /// width, the default reservation as its budget and the service's hub.
    fn query_defaults(&self, trace: bool, hub: &Arc<MetricsHub>) -> EngineConfig {
        EngineConfig {
            block_bytes: self.block_bytes,
            temp_format: BlockFormat::Row,
            default_uot: self.default_uot,
            mode: ExecMode::Parallel {
                workers: self.workers,
            },
            pool_reuse: true,
            memory_budget: Some(self.default_reservation),
            degrade: self.degrade,
            deadline: None,
            trace: trace.then_some(TraceConfig {
                capacity: self.trace_capacity,
            }),
            fusion: self.fusion,
            hub: Some(hub.clone()),
        }
    }
}

/// A submitted query: cancel it, or wait for its result.
#[derive(Debug)]
pub struct QueryHandle {
    id: QueryId,
    token: CancellationToken,
    rx: Receiver<Result<QueryResult>>,
}

impl QueryHandle {
    /// The service-assigned id of this query.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Cancel this query (cooperative: it stops at the next cancellation
    /// point and yields [`EngineError::Cancelled`]). Sibling queries are
    /// unaffected.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Block until the query finishes.
    pub fn wait(self) -> Result<QueryResult> {
        self.rx.recv().unwrap_or(Err(EngineError::ServiceShutdown))
    }
}

/// The service's record of one submitted query, from submission to reply.
/// It outlives a budget retry, which re-runs the query under the same id,
/// reservation and token.
struct Ticket {
    id: QueryId,
    /// The service defaults with the query's options layered on.
    cfg: EngineConfig,
    faults: Option<Arc<FaultPlan>>,
    token: CancellationToken,
    reply: Sender<Result<QueryResult>>,
    reservation: usize,
    /// Plan-cache outcome when the query arrived as SQL (`None` for
    /// pre-built plans); stamped onto the final metrics.
    cache: Option<PlanCacheOutcome>,
    /// Submission time — the hub's latency and admission-wait histograms
    /// both count from here.
    submitted: Instant,
    /// `EXPLAIN ANALYZE` submission: deliver the rendered plan tree as the
    /// result rows instead of the statement's own output.
    explain: bool,
    /// The running attempt's trace sink and live-registry record.
    sink: Option<Arc<TraceSink>>,
    live: Option<Arc<LiveQuery>>,
    /// Set once the budget-retry rule fired: the retry's result records it,
    /// and no second retry follows.
    degraded: Option<Degradation>,
}

/// One query as submitted, before admission.
struct Submission {
    plan: QueryPlan,
    ticket: Ticket,
}

/// Everything the service thread multiplexes over one channel — no
/// `select!` needed: submissions, retirements and shutdown arrive in order.
enum ToService {
    Submit(Box<Submission>),
    /// A worker retired a query: it booked the query's last in-flight
    /// completion, or found it done on a pick. The query awaits teardown.
    Finished,
    Shutdown,
}

/// A long-lived, multi-query execution service (see the module docs).
///
/// Dropping the service shuts it down gracefully: active queries drain,
/// queued submissions are rejected with [`EngineError::ServiceShutdown`],
/// and all threads are joined.
#[derive(Debug)]
pub struct QueryService {
    to_service: Sender<ToService>,
    service: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
    tracker: Arc<MemoryTracker>,
    config: ServiceConfig,
    /// Compiled plans shared by every [`QueryService::submit_sql`] client,
    /// keyed by normalized SQL text.
    plan_cache: PlanCache<QueryPlan>,
    /// Always-on live metrics, shared with every query's observer.
    hub: Arc<MetricsHub>,
    /// The HTTP introspection endpoint, when configured.
    http: Option<IntrospectionServer>,
}

impl QueryService {
    /// Start the service: one service thread (admission, budget retry,
    /// teardown) plus [`ServiceConfig::workers`] worker threads.
    pub fn start(config: ServiceConfig) -> Result<Self> {
        config.validate()?;
        let tracker = MemoryTracker::new();
        let hub = Arc::new(MetricsHub::new());
        let registry = Arc::new(LiveRegistry::new());
        let (to_service, service_rx) = crossbeam::channel::unbounded::<ToService>();
        let pool = Arc::new(WorkerPool::new());
        let workers = (0..config.workers)
            .map(|worker| {
                let (pool, done) = (pool.clone(), to_service.clone());
                std::thread::spawn(move || {
                    worker_loop(worker, &pool, |_| {
                        let _ = done.send(ToService::Finished);
                    })
                })
            })
            .collect();
        let loop_state = ServiceLoop {
            config: config.clone(),
            tracker: tracker.clone(),
            pool,
            pending: VecDeque::new(),
            reserved: 0,
            draining: false,
            hub: hub.clone(),
            registry: registry.clone(),
        };
        let service = std::thread::spawn(move || loop_state.run(service_rx));
        let http = match config.http_port {
            None => None,
            Some(port) => Some(
                IntrospectionServer::start(
                    port,
                    Arc::new(ServerState {
                        hub: hub.clone(),
                        registry,
                        tracker: tracker.clone(),
                        started: Instant::now(),
                    }),
                )
                .map_err(|e| {
                    EngineError::Config(format!("introspection endpoint bind failed: {e}"))
                })?,
            ),
        };
        Ok(QueryService {
            to_service,
            service: Some(service),
            workers,
            next_id: AtomicU64::new(1),
            tracker,
            config,
            plan_cache: PlanCache::new(),
            hub,
            http,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The service-wide memory tracker every per-query pool parents on.
    /// `current_bytes()` is the global pool occupancy across all queries;
    /// it returns to 0 whenever no query holds temporary memory.
    pub fn tracker(&self) -> &Arc<MemoryTracker> {
        &self.tracker
    }

    /// Bytes of temporary memory currently held across all queries.
    pub fn memory_in_use(&self) -> usize {
        self.tracker.current_bytes()
    }

    /// The always-on live metrics hub (counters + histograms across every
    /// query this service has run).
    pub fn hub(&self) -> &Arc<MetricsHub> {
        &self.hub
    }

    /// A consistent-enough point-in-time copy of the hub (see
    /// [`MetricsHub::snapshot`]).
    pub fn hub_snapshot(&self) -> HubSnapshot {
        self.hub.snapshot()
    }

    /// Bound address of the HTTP introspection endpoint — the actual port
    /// when [`ServiceConfig::http_port`] was `Some(0)`; `None` when no
    /// endpoint was configured.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http.as_ref().map(|s| s.addr())
    }

    /// Submit a SQL statement with default [`ExecOptions`] — the primary
    /// front door: compile (or fetch from the plan cache), then run.
    pub fn submit_sql(&self, sql: &str) -> Result<QueryHandle> {
        self.submit_sql_with(sql, ExecOptions::default())
    }

    /// Submit a SQL statement with per-query [`ExecOptions`].
    ///
    /// Compilation happens on the calling thread against
    /// [`ServiceConfig::catalog`], memoized in the service-wide plan cache;
    /// frontend failures return [`EngineError::Sql`] immediately instead of
    /// through the handle. [`QueryMetrics::plan_cache`](crate::metrics::QueryMetrics::plan_cache)
    /// on the result records whether this submission hit the cache.
    /// `EXPLAIN ANALYZE <stmt>` submissions execute the inner statement
    /// normally (same plan cache, same options) and deliver the rendered
    /// [`ExplainAnalyze`] tree as the result rows; the real metrics, trace
    /// and [`QueryResult::explain`] stay attached.
    pub fn submit_sql_with(&self, sql: &str, opts: ExecOptions) -> Result<QueryHandle> {
        let (sql, explain) = match uot_sql::strip_explain_analyze(sql) {
            Some(inner) => (inner, true),
            None => (sql, false),
        };
        let (plan, outcome) = self
            .plan_cache
            .get_or_compile(sql, || crate::sql::compile(sql, &self.config.catalog))?;
        self.submit_inner((*plan).clone(), opts, Some(outcome), explain)
    }

    /// Counters of the shared SQL plan cache.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Submit a pre-built `plan` with default [`ExecOptions`] (escape hatch
    /// for plans SQL cannot express; [`QueryService::submit_sql`] is the
    /// primary API).
    pub fn submit(&self, plan: QueryPlan) -> Result<QueryHandle> {
        self.submit_with(plan, ExecOptions::default())
    }

    /// Submit a pre-built `plan`. Returns immediately with a [`QueryHandle`];
    /// admission (or rejection), execution and teardown happen on the service
    /// threads, and the outcome is delivered through [`QueryHandle::wait`].
    pub fn submit_with(&self, plan: QueryPlan, opts: ExecOptions) -> Result<QueryHandle> {
        self.submit_inner(plan, opts, None, false)
    }

    fn submit_inner(
        &self,
        plan: QueryPlan,
        opts: ExecOptions,
        cache: Option<PlanCacheOutcome>,
        explain: bool,
    ) -> Result<QueryHandle> {
        let id = QueryId::new(self.next_id.fetch_add(1, Ordering::Relaxed));
        let token = CancellationToken::new();
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let defaults = self.config.query_defaults(opts.trace, &self.hub);
        let (cfg, plan) = opts.apply(defaults, plan);
        lifecycle::hub_submitted(&self.hub);
        let ticket = Ticket {
            id,
            reservation: cfg.memory_budget.unwrap_or(self.config.default_reservation),
            cfg,
            faults: opts.faults,
            token: token.clone(),
            reply: reply_tx,
            cache,
            submitted: Instant::now(),
            explain,
            sink: None,
            live: None,
            degraded: None,
        };
        self.to_service
            .send(ToService::Submit(Box::new(Submission { plan, ticket })))
            .map_err(|_| EngineError::ServiceShutdown)?;
        Ok(QueryHandle {
            id,
            token,
            rx: reply_rx,
        })
    }

    /// Shut down gracefully: drain active queries, reject queued ones, join
    /// every thread. (Dropping the service does the same.)
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let _ = self.to_service.send(ToService::Shutdown);
        if let Some(h) = self.service.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(mut server) = self.http.take() {
            server.shutdown();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The service thread's event loop: it blocks on its channel and wakes for
/// a submission, a retired query or shutdown. Deadlines need no wake-up: a
/// query past its deadline is cancelled by its own next cancellation check
/// and retires through a worker like any cancelled query.
struct ServiceLoop {
    config: ServiceConfig,
    tracker: Arc<MemoryTracker>,
    /// Admitted queries, dispatched round-robin by the shared workers.
    pool: Arc<WorkerPool<Ticket>>,
    /// FIFO admission queue (reservations that do not currently fit).
    pending: VecDeque<Box<Submission>>,
    /// Sum of active reservations, ≤ `config.memory_budget`.
    reserved: usize,
    draining: bool,
    /// The service's always-on metrics hub.
    hub: Arc<MetricsHub>,
    /// The service's live query registry.
    registry: Arc<LiveRegistry>,
}

impl ServiceLoop {
    fn run(mut self, rx: Receiver<ToService>) {
        loop {
            // A pool closed under the loop means a worker panicked and the
            // queries' state is suspect: stop without finalizing any, so
            // every handle still waiting sees `ServiceShutdown`.
            if self.pool.lock().is_closed() {
                self.draining = true;
                self.admit_pending(); // draining: rejects everything queued
                break;
            }
            self.sweep_finished();
            if self.draining && self.pool.lock().is_empty() {
                self.admit_pending(); // draining: rejects everything queued
                break;
            }
            let Ok(msg) = rx.recv() else {
                break;
            };
            match msg {
                ToService::Submit(sub) => self.handle_submit(sub),
                ToService::Finished => {}
                ToService::Shutdown => self.draining = true,
            }
        }
    }

    /// Whether `reservation` fits beside the active ones. Checked: a sum
    /// past `usize::MAX` fits no budget.
    fn fits(&self, reservation: usize) -> bool {
        self.reserved
            .checked_add(reservation)
            .is_some_and(|total| total <= self.config.memory_budget)
    }

    fn handle_submit(&mut self, sub: Box<Submission>) {
        let (query, reservation) = (sub.ticket.id, sub.ticket.reservation);
        let budget = self.config.memory_budget;
        let rejected = |reason: String| EngineError::AdmissionRejected {
            query,
            reservation,
            budget,
            reason,
        };
        if self.draining {
            self.reply(sub.ticket, Err(EngineError::ServiceShutdown));
        } else if reservation == 0 || reservation > budget {
            self.hub.add(HubCounter::AdmissionRejected, 1);
            let e = rejected("reservation can never fit the global budget".into());
            self.reply(sub.ticket, Err(e));
        } else if self.pending.is_empty() && self.fits(reservation) {
            // FIFO admission: no queue-jumping past an earlier waiter even
            // if this reservation would fit right now.
            self.activate(*sub);
        } else if self.pending.len() < self.config.max_queued {
            self.hub.add(HubCounter::AdmissionQueued, 1);
            self.registry.enqueue(query, reservation);
            self.pending.push_back(sub);
        } else {
            self.hub.add(HubCounter::AdmissionRejected, 1);
            let e = rejected(format!(
                "admission queue full ({} queued)",
                self.pending.len()
            ));
            self.reply(sub.ticket, Err(e));
        }
    }

    /// Admit queued submissions in FIFO order while their reservations fit
    /// (on draining: reject them all).
    fn admit_pending(&mut self) {
        while let Some(front) = self.pending.front() {
            if !self.draining && !self.fits(front.ticket.reservation) {
                break;
            }
            let sub = self.pending.pop_front().expect("front exists");
            if self.draining {
                self.reply(sub.ticket, Err(EngineError::ServiceShutdown));
            } else {
                self.activate(*sub);
            }
        }
    }

    /// Carve the query's reservation out of the global budget and start its
    /// first attempt.
    fn activate(&mut self, sub: Submission) {
        let Submission { plan, ticket } = sub;
        self.hub.record(
            HubHistogram::AdmissionWaitUs,
            ticket.submitted.elapsed().as_micros() as u64,
        );
        self.reserved += ticket.reservation;
        self.start_attempt(Arc::new(plan), ticket);
    }

    /// Prepare an attempt of an admitted query, its tracker parented on the
    /// service's, and put it on the dispatch ring. A query that cannot be
    /// prepared (invalid plan, spill tier unavailable) is answered at once.
    fn start_attempt(&mut self, plan: Arc<QueryPlan>, mut ticket: Ticket) {
        let prepared = lifecycle::prepare(
            &ticket.cfg,
            plan,
            ticket.id,
            &ticket.token,
            ticket.faults.as_ref(),
            Some((&self.tracker, self.config.memory_budget)),
        );
        match prepared {
            Ok(Prepared { core, sink, live }) => {
                if let Some(live) = &live {
                    self.registry.admit(live.clone());
                }
                ticket.sink = sink;
                ticket.live = live;
                self.pool.admit(QueryRun::new(core, ticket));
            }
            Err(e) => self.release(ticket, Err(e)),
        }
    }

    /// Finalize every query whose in-flight work has drained and that is
    /// finished, failed, cancelled or stalled — outside the dispatcher lock,
    /// so teardown never stalls the workers.
    fn sweep_finished(&mut self) {
        let done = self.pool.lock().take_done();
        for run in done {
            self.finalize(run);
        }
    }

    /// Tear down one query — the same contract as a standalone run: metrics
    /// are captured, then every byte it charged drains back through its
    /// parented tracker to the service tracker, on success and error paths
    /// alike. A budget failure the retry rule covers re-runs the query in
    /// place, keeping its id, reservation, token and what is left of its
    /// deadline; any other outcome is delivered, the reservation released and
    /// queued admissions retried.
    fn finalize(&mut self, run: QueryRun<Ticket>) {
        let plan = run.ctx().plan.clone();
        let elapsed = run.ctx().elapsed();
        let (mut ticket, outcome) = run.finish();
        match outcome {
            Ok((blocks, mut metrics)) => {
                metrics.plan_cache = ticket.cache;
                let mut result =
                    lifecycle::query_result(&plan, ticket.sink.take(), blocks, metrics);
                if let Some(d) = ticket.degraded {
                    lifecycle::record_degradation(&mut result, d);
                }
                if ticket.explain {
                    result = result.into_explain_rows();
                }
                self.release(ticket, Ok(result));
            }
            Err(failed) => {
                let retry = match ticket.degraded {
                    None => lifecycle::budget_retry(&ticket.cfg, &plan, &failed.error, elapsed),
                    Some(_) => None,
                };
                match retry {
                    Some(retry) => {
                        ticket.cfg = retry.config;
                        ticket.degraded = Some(retry.degradation);
                        self.start_attempt(retry.plan, ticket);
                    }
                    None => self.release(ticket, Err(failed.error)),
                }
            }
        }
        self.admit_pending();
    }

    /// Answer an admitted query and give its reservation back.
    fn release(&mut self, ticket: Ticket, outcome: Result<QueryResult>) {
        self.reserved -= ticket.reservation;
        self.reply(ticket, outcome);
    }

    /// Deliver a submission's one outcome. Every submission leaves the
    /// service through here, so the hub counts each exactly once.
    fn reply(&self, ticket: Ticket, outcome: Result<QueryResult>) {
        self.registry.remove(ticket.id);
        lifecycle::hub_finished(&self.hub, &outcome, ticket.submitted.elapsed());
        let _ = ticket.reply.send(outcome);
    }
}

/// The loop exits on shutdown (or with the service thread's panic): closing
/// the pool lets every worker return.
impl Drop for ServiceLoop {
    fn drop(&mut self) {
        self.pool.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinType, PlanBuilder, Source};
    use std::time::Duration;
    use uot_expr::{cmp, col, lit, AggSpec, CmpOp};
    use uot_storage::{DataType, Schema, Table, TableBuilder, Value};

    fn table(name: &str, n: i32) -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
        let mut tb = TableBuilder::new(name, s, BlockFormat::Column, 96);
        for i in 0..n {
            tb.append(&[Value::I32(i), Value::F64(i as f64 * 2.0)])
                .unwrap();
        }
        Arc::new(tb.finish())
    }

    fn join_agg_plan(rows: i32) -> QueryPlan {
        let dim = table("dim", 20);
        let fact = table("fact", rows);
        let mut pb = PlanBuilder::new();
        let b = pb.build_hash(Source::Table(dim), vec![0], vec![1]).unwrap();
        let s = pb
            .filter(Source::Table(fact), cmp(col(0), CmpOp::Lt, lit(100i32)))
            .unwrap();
        let p = pb
            .probe(Source::Op(s), b, vec![0], vec![0], vec![0], JoinType::Inner)
            .unwrap();
        let a = pb
            .aggregate(
                Source::Op(p),
                vec![],
                vec![AggSpec::count_star(), AggSpec::sum(col(1))],
                &["n", "s"],
            )
            .unwrap();
        pb.build(a).unwrap()
    }

    fn small_service(workers: usize) -> QueryService {
        QueryService::start(ServiceConfig {
            workers,
            memory_budget: 64 << 20,
            default_reservation: 8 << 20,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn two_concurrent_queries_complete_and_pool_drains() {
        let svc = small_service(4);
        let h1 = svc.submit(join_agg_plan(200)).unwrap();
        let h2 = svc.submit(join_agg_plan(400)).unwrap();
        assert_ne!(h1.id(), h2.id());
        let r1 = h1.wait().unwrap();
        let r2 = h2.wait().unwrap();
        assert_eq!(r1.rows()[0][0], Value::I64(20));
        assert_eq!(r2.rows()[0][0], Value::I64(20));
        assert_eq!(r1.metrics.query.raw(), 1);
        assert_eq!(r2.metrics.query.raw(), 2);
        assert_eq!(svc.memory_in_use(), 0, "global pool must drain");
        svc.shutdown();
    }

    #[test]
    fn admission_queues_until_a_reservation_frees() {
        // Budget fits exactly one reservation: the second query queues and
        // still completes once the first finishes.
        let svc = QueryService::start(ServiceConfig {
            workers: 2,
            memory_budget: 8 << 20,
            default_reservation: 8 << 20,
            ..Default::default()
        })
        .unwrap();
        let h1 = svc.submit(join_agg_plan(300)).unwrap();
        let h2 = svc.submit(join_agg_plan(300)).unwrap();
        assert_eq!(h1.wait().unwrap().rows()[0][0], Value::I64(20));
        assert_eq!(h2.wait().unwrap().rows()[0][0], Value::I64(20));
        assert_eq!(svc.memory_in_use(), 0);
    }

    #[test]
    fn impossible_reservation_is_rejected() {
        let svc = small_service(2);
        let err = svc
            .submit_with(
                join_agg_plan(50),
                ExecOptions::default().with_reservation(usize::MAX),
            )
            .unwrap()
            .wait()
            .unwrap_err();
        match err {
            EngineError::AdmissionRejected { query, reason, .. } => {
                assert_eq!(query.raw(), 1);
                assert!(reason.contains("never fit"), "{reason}");
            }
            other => panic!("expected AdmissionRejected, got {other}"),
        }
        assert_eq!(svc.memory_in_use(), 0);
    }

    #[test]
    fn full_admission_queue_rejects() {
        let svc = QueryService::start(ServiceConfig {
            workers: 1,
            memory_budget: 1 << 20,
            default_reservation: 1 << 20,
            max_queued: 0,
            ..Default::default()
        })
        .unwrap();
        // First admits; with a zero-depth queue the second must be rejected
        // while the first still holds the whole budget. h1's first work
        // order sleeps, so h1 cannot finish before the service handles h2.
        let slow_start = crate::fault::FaultPlan::new(vec![crate::fault::Injection {
            site: crate::fault::FaultSite::WorkOrderExec,
            kind: crate::fault::FaultKind::Delay(Duration::from_millis(300)),
            nth: 1,
        }]);
        let h1 = svc
            .submit_with(
                join_agg_plan(2000),
                ExecOptions::default().with_faults(Arc::new(slow_start)),
            )
            .unwrap();
        let h2 = svc.submit(join_agg_plan(50)).unwrap();
        let e2 = h2.wait().unwrap_err();
        assert!(matches!(e2, EngineError::AdmissionRejected { .. }), "{e2}");
        h1.wait().unwrap();
        assert_eq!(svc.memory_in_use(), 0);
    }

    #[test]
    fn cancelling_one_query_leaves_siblings_running() {
        let svc = small_service(2);
        let victim = svc.submit(join_agg_plan(4000)).unwrap();
        let survivor = svc.submit(join_agg_plan(200)).unwrap();
        victim.cancel();
        let r = survivor.wait().unwrap();
        assert_eq!(r.rows()[0][0], Value::I64(20));
        match victim.wait() {
            Err(EngineError::Cancelled { .. }) => {}
            Err(other) => panic!("expected Cancelled, got {other}"),
            // Tiny race: the victim may have finished before the cancel
            // landed; that is a legal outcome too.
            Ok(r) => assert_eq!(r.rows()[0][0], Value::I64(20)),
        }
        assert_eq!(svc.memory_in_use(), 0, "teardown must drain the victim");
    }

    /// A 400x400 nested-loops cross product: long enough that a cancel, or
    /// a deadline of a few milliseconds, lands before the join finishes.
    fn cross_product_plan() -> QueryPlan {
        let t = table("cancel_t", 400);
        let mut pb = PlanBuilder::new();
        let inner = pb
            .filter(Source::Table(t.clone()), cmp(col(0), CmpOp::Ge, lit(0i32)))
            .unwrap();
        let j = pb
            .nested_loops(Source::Table(t), inner, vec![], vec![0], vec![0])
            .unwrap();
        pb.build(j).unwrap()
    }

    #[test]
    fn cancel_stops_a_query_mid_run() {
        let svc = small_service(1);
        let handle = svc.submit(cross_product_plan()).unwrap();
        handle.cancel();
        match handle.wait() {
            Err(EngineError::Cancelled { after, .. }) => assert!(after > Duration::ZERO),
            Err(other) => panic!("expected Cancelled, got {other}"),
            Ok(r) => panic!(
                "query finished despite cancellation ({} rows)",
                r.num_rows()
            ),
        }
        assert_eq!(svc.memory_in_use(), 0, "teardown must drain the query");
    }

    #[test]
    fn per_query_deadline_fires_while_siblings_survive() {
        let svc = small_service(2);
        let doomed = svc
            .submit_with(
                join_agg_plan(4000),
                ExecOptions::default().with_deadline(Duration::ZERO),
            )
            .unwrap();
        let survivor = svc.submit(join_agg_plan(200)).unwrap();
        let e = doomed.wait().unwrap_err();
        assert!(matches!(e, EngineError::Cancelled { .. }), "{e}");
        assert_eq!(survivor.wait().unwrap().rows()[0][0], Value::I64(20));
        assert_eq!(svc.memory_in_use(), 0);
    }

    #[test]
    fn mid_run_deadline_fires_while_a_sibling_completes() {
        // No timer wakes the service for a deadline: the query's own
        // cancellation checks trip its token once the deadline passes. A
        // deadline too short for any work order to finish first is doubled
        // and retried, so a slow machine cannot turn the mid-run case into
        // an expired-at-start one.
        let svc = QueryService::start(ServiceConfig {
            workers: 2,
            memory_budget: 64 << 20,
            default_reservation: 8 << 20,
            block_bytes: 96,
            ..Default::default()
        })
        .unwrap();
        let mut deadline = Duration::from_millis(2);
        loop {
            assert!(deadline < Duration::from_secs(1), "no mid-run cancel");
            let doomed = svc
                .submit_with(
                    cross_product_plan(),
                    ExecOptions::default().with_deadline(deadline),
                )
                .unwrap();
            let sibling = svc.submit(join_agg_plan(200)).unwrap();
            let outcome = doomed.wait();
            assert_eq!(sibling.wait().unwrap().rows()[0][0], Value::I64(20));
            assert_eq!(svc.memory_in_use(), 0, "teardown must drain");
            match outcome {
                Err(EngineError::Cancelled {
                    completed_work_orders,
                    ..
                }) if completed_work_orders > 0 => break,
                Err(EngineError::Cancelled { .. }) => deadline *= 2,
                Err(other) => panic!("expected Cancelled, got {other}"),
                Ok(r) => panic!(
                    "query finished despite its deadline ({} rows)",
                    r.num_rows()
                ),
            }
        }
    }

    #[test]
    fn per_query_budget_fails_only_the_offender() {
        let svc = QueryService::start(ServiceConfig {
            workers: 2,
            memory_budget: 64 << 20,
            default_reservation: 8 << 20,
            default_uot: Uot::Table,
            block_bytes: 96,
            // Fusion off: the overflow below relies on Table-UoT staging,
            // which a fused pipeline would bypass.
            fusion: crate::fusion::FusionPolicy::Never,
            ..Default::default()
        })
        .unwrap();
        // A tiny reservation the Table-UoT staging must overflow.
        let offender = svc
            .submit_with(
                join_agg_plan(2000),
                ExecOptions::default().with_reservation(600),
            )
            .unwrap();
        let sibling = svc.submit(join_agg_plan(200)).unwrap();
        let err = offender.wait().unwrap_err();
        match &err {
            EngineError::BudgetExceeded {
                query,
                budget,
                global_budget,
                ..
            } => {
                assert_eq!(query.raw(), 1);
                assert_eq!(*budget, 600);
                assert_eq!(*global_budget, 64 << 20);
            }
            other => panic!("expected BudgetExceeded, got {other}"),
        }
        assert_eq!(sibling.wait().unwrap().rows()[0][0], Value::I64(20));
        assert_eq!(svc.memory_in_use(), 0);
    }

    /// A filter whose Table-UoT staging dwarfs a small reservation, feeding
    /// an aggregate (the spill-friendly consumer: streaming work orders hold
    /// no output blocks, so the flushed transfer drains as it is consumed).
    fn select_agg_plan(rows: i32) -> QueryPlan {
        let fact = table("fact", rows);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(fact), cmp(col(0), CmpOp::Lt, lit(100i32)))
            .unwrap();
        let a = pb
            .aggregate(Source::Op(s), vec![], vec![AggSpec::count_star()], &["n"])
            .unwrap();
        pb.build(a).unwrap()
    }

    #[test]
    fn spill_lets_an_overcommitted_query_complete() {
        // A 600-byte reservation the Table-UoT staging must overflow — the
        // same wall per_query_budget_fails_only_the_offender hits — but with
        // DegradePolicy::Spill the staged blocks evict to this query's disk
        // tier and the query completes, while an unrelated sibling runs
        // untouched on its own reservation.
        let svc = QueryService::start(ServiceConfig {
            workers: 2,
            memory_budget: 64 << 20,
            default_reservation: 8 << 20,
            default_uot: Uot::Table,
            block_bytes: 96,
            fusion: crate::fusion::FusionPolicy::Never,
            ..Default::default()
        })
        .unwrap();
        let spilled = svc
            .submit_with(
                select_agg_plan(2000),
                ExecOptions::default()
                    .with_reservation(600)
                    .with_degrade(crate::engine::DegradePolicy::Spill),
            )
            .unwrap();
        let sibling = svc.submit(join_agg_plan(200)).unwrap();
        let r = spilled.wait().unwrap();
        assert_eq!(r.rows()[0][0], Value::I64(100));
        assert!(
            r.metrics.spill_events > 0,
            "a 600-byte reservation under Table UoT must evict staged blocks"
        );
        assert_eq!(sibling.wait().unwrap().rows()[0][0], Value::I64(20));
        assert_eq!(svc.memory_in_use(), 0, "resident bytes must drain");
        svc.shutdown();
    }

    #[test]
    fn traced_query_stamps_its_id() {
        let svc = small_service(2);
        let h = svc
            .submit_with(join_agg_plan(100), ExecOptions::default().traced())
            .unwrap();
        let id = h.id();
        let r = h.wait().unwrap();
        let trace = r.trace.expect("tracing was requested");
        assert_eq!(trace.query, id);
        assert!(!trace.events.is_empty());
    }

    #[test]
    fn traced_query_is_bounded_by_the_service_trace_capacity() {
        let capacity = 8;
        let svc = QueryService::start(ServiceConfig {
            workers: 2,
            trace_capacity: capacity,
            ..Default::default()
        })
        .unwrap();
        let r = svc
            .submit_with(join_agg_plan(400), ExecOptions::default().traced())
            .unwrap()
            .wait()
            .unwrap();
        let trace = r.trace.expect("tracing was requested");
        assert!(trace.len() <= capacity, "{} events", trace.len());
        assert!(trace.dropped > 0, "a full sink must count what it drops");
    }

    #[test]
    fn shutdown_rejects_queued_and_later_submissions() {
        let svc = QueryService::start(ServiceConfig {
            workers: 1,
            memory_budget: 1 << 20,
            default_reservation: 1 << 20,
            ..Default::default()
        })
        .unwrap();
        // h1's first work order sleeps, so h1 still holds the whole budget
        // when the service handles h2's submission and the shutdown.
        let slow_start = crate::fault::FaultPlan::new(vec![crate::fault::Injection {
            site: crate::fault::FaultSite::WorkOrderExec,
            kind: crate::fault::FaultKind::Delay(Duration::from_millis(300)),
            nth: 1,
        }]);
        let h1 = svc
            .submit_with(
                join_agg_plan(1000),
                ExecOptions::default().with_faults(Arc::new(slow_start)),
            )
            .unwrap();
        let h2 = svc.submit(join_agg_plan(50)).unwrap(); // queued behind h1
        drop(svc); // graceful: drains h1, rejects h2
        assert!(h1.wait().is_ok());
        assert!(matches!(
            h2.wait().unwrap_err(),
            EngineError::ServiceShutdown | EngineError::AdmissionRejected { .. }
        ));
    }

    #[test]
    fn invalid_config_is_rejected_at_start() {
        assert!(QueryService::start(ServiceConfig {
            workers: 0,
            ..Default::default()
        })
        .is_err());
        assert!(QueryService::start(ServiceConfig {
            default_reservation: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn undersized_blocks_are_rejected_per_query() {
        let svc = QueryService::start(ServiceConfig {
            block_bytes: 8,
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        let err = svc.submit(join_agg_plan(10)).unwrap().wait().unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err}");
    }

    #[test]
    fn unbounded_budget_admission_does_not_overflow() {
        // Two usize::MAX reservations against a usize::MAX budget: their sum
        // overflows, so the second must queue behind the first and run once
        // the first gives its reservation back.
        let svc = QueryService::start(ServiceConfig {
            workers: 1,
            memory_budget: usize::MAX,
            ..Default::default()
        })
        .unwrap();
        let opts = ExecOptions::default().with_reservation(usize::MAX);
        let h1 = svc.submit_with(join_agg_plan(200), opts.clone()).unwrap();
        let h2 = svc.submit_with(join_agg_plan(200), opts).unwrap();
        assert_eq!(h1.wait().unwrap().rows()[0][0], Value::I64(20));
        assert_eq!(h2.wait().unwrap().rows()[0][0], Value::I64(20));
        assert_eq!(svc.memory_in_use(), 0);
    }
}
