//! The query lifecycle both front ends share.
//!
//! [`Engine`](crate::engine::Engine) runs one query to completion on the
//! calling thread; [`QueryService`](crate::service::QueryService) admits many
//! into one dispatch loop. Everything between "a plan and its resolved
//! [`EngineConfig`]" and "a [`QueryResult`]" is the same code for both:
//! [`prepare`] (validation, tracker and budgeted pool, spill tier,
//! [`ExecContext`], grace plan, fusion decision, observer and
//! [`SchedulerCore`]), the budget-retry rule ([`budget_retry`] +
//! [`record_degradation`]), result assembly ([`query_result`]) and the hub's
//! per-query counters ([`hub_submitted`] / [`hub_finished`]).

use crate::cancel::CancellationToken;
use crate::engine::{DegradePolicy, EngineConfig, ExecMode, QueryResult};
use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::fusion::FusionPolicy;
use crate::metrics::{Degradation, QueryMetrics};
use crate::obs::hub::{HubCounter, HubHistogram, MetricsHub};
use crate::obs::live::LiveQuery;
use crate::obs::{ExplainAnalyze, QueryObserver};
use crate::plan::{OperatorKind, QueryPlan};
use crate::query_id::QueryId;
use crate::scheduler::SchedulerCore;
use crate::state::ExecContext;
use crate::trace::{TraceEvent, TraceEventKind, TraceSink};
use crate::Result;
use std::sync::Arc;
use std::time::Duration;
use uot_storage::{BlockPool, MemoryTracker, StorageBlock, StorageError};

/// A prepared attempt, ready to drive.
pub(crate) struct Prepared {
    pub core: SchedulerCore,
    pub sink: Option<Arc<TraceSink>>,
    /// The live-registry record (service attempts only).
    pub live: Option<Arc<LiveQuery>>,
}

/// Catch configuration mistakes that would otherwise surface as confusing
/// mid-query failures: a worker pool of zero threads, or temporary blocks too
/// small to hold one output tuple of some operator.
fn validate(cfg: &EngineConfig, plan: &QueryPlan) -> Result<()> {
    if let ExecMode::Parallel { workers: 0 } = cfg.mode {
        return Err(EngineError::Config(
            "parallel mode requires at least 1 worker (got workers=0)".into(),
        ));
    }
    for (id, op) in plan.ops().iter().enumerate() {
        // Builds materialize into hash tables, not pool blocks; every other
        // operator writes output tuples into `block_bytes`-sized temporaries.
        if matches!(op.kind, OperatorKind::BuildHash { .. }) {
            continue;
        }
        let width = op.out_schema.tuple_width();
        if width > cfg.block_bytes {
            return Err(EngineError::Config(format!(
                "block_bytes={} cannot hold one {}-byte tuple of op{} ({})",
                cfg.block_bytes, width, id, op.name
            )));
        }
    }
    Ok(())
}

/// Validate and build everything one execution attempt needs under the
/// resolved per-query `cfg`. `service` is the service-wide tracker and global
/// budget a service query's tracker parents on; such an attempt also gets a
/// live-registry record. Standalone runs pass `None`.
pub(crate) fn prepare(
    cfg: &EngineConfig,
    plan: Arc<QueryPlan>,
    query: QueryId,
    token: &CancellationToken,
    faults: Option<&Arc<FaultPlan>>,
    service: Option<(&Arc<MemoryTracker>, usize)>,
) -> Result<Prepared> {
    validate(cfg, &plan)?;
    let tracker = match service {
        Some((parent, global_budget)) => MemoryTracker::with_parent(parent.clone(), global_budget),
        None => MemoryTracker::new(),
    };
    let budget = cfg.memory_budget.unwrap_or(usize::MAX);
    let pool = BlockPool::with_budget(tracker.clone(), budget);
    pool.set_reuse_enabled(cfg.pool_reuse);
    let sink = cfg.trace.map(|tc| TraceSink::for_query(tc.capacity, query));
    // Progress and spill activity stream into the live record while the
    // service's HTTP endpoint reads it.
    let live = service.map(|_| LiveQuery::new(query, budget, tracker.clone(), token.clone()));
    // Spill only makes sense against a finite budget: with none the pool
    // never feels pressure. Evicted bytes come off the query's tracker, so
    // only resident bytes count toward a service's admission budget.
    let spill = cfg.degrade == DegradePolicy::Spill && cfg.memory_budget.is_some();
    if spill {
        let store = uot_storage::SpillStore::new(None, tracker.clone());
        store.set_observer(crate::spill::EngineSpillHook::new(
            faults.cloned(),
            sink.clone(),
            tracker.clone(),
            live.clone(),
        ));
        pool.enable_spill(store);
    }
    let mut ctx = ExecContext::new(plan, pool, cfg.temp_format, cfg.block_bytes)?
        .with_query(query)
        .with_cancellation(token.clone())
        .with_deadline(cfg.deadline);
    if let Some(faults) = faults {
        ctx = ctx.with_faults(faults.clone());
    }
    if let Some(sink) = &sink {
        ctx = ctx.with_trace(sink.clone());
    }
    if spill {
        ctx.plan_grace(budget);
    }
    let uot = cfg.default_uot.normalized();
    // With the spill tier armed, fused chains would pin their interior
    // blocks and hash tables resident (nothing stages, nothing evicts); fall
    // back to staged execution so every edge stays evictable.
    let fusion = if spill {
        FusionPolicy::Never
    } else {
        cfg.fusion
    };
    let fusion =
        crate::fusion::plan_fusion(&ctx.plan, fusion, cfg.mode.workers(), cfg.block_bytes, uot);
    let ctx = Arc::new(ctx.with_fusion(fusion));
    let mut observer = QueryObserver::new(&ctx.plan);
    if let Some(hub) = &cfg.hub {
        observer = observer.with_hub(hub.clone());
    }
    if let Some(sink) = &sink {
        observer = observer.with_trace(sink.clone());
    }
    if let Some(live) = &live {
        observer = observer.with_live(live.clone());
    }
    Ok(Prepared {
        core: SchedulerCore::new(ctx, cfg.mode, uot, observer),
        sink,
        live,
    })
}

/// The attempt [`budget_retry`] asks for.
pub(crate) struct Retry {
    pub config: EngineConfig,
    pub plan: Arc<QueryPlan>,
    pub degradation: Degradation,
}

/// The one budget-retry rule. When an attempt of `plan` under `cfg` fails
/// with a memory-budget error and the policy is [`DegradePolicy::LowerUot`]
/// (or [`DegradePolicy::Spill`], whose documented fallback it is), retry once
/// at [`Uot::degrade`](crate::uot::Uot::degrade) of the attempt's UoT with
/// fusion off, so the degraded UoT governs every edge and no fused loop
/// allocates gather scratch under pressure. The retry keeps what is left of
/// the deadline after `elapsed`. `None` means `err` is final.
pub(crate) fn budget_retry(
    cfg: &EngineConfig,
    plan: &QueryPlan,
    err: &EngineError,
    elapsed: Duration,
) -> Option<Retry> {
    let budget_error = matches!(err, EngineError::BudgetExceeded { .. })
        || matches!(
            err,
            EngineError::Storage(StorageError::BudgetExceeded { .. })
        );
    if !budget_error || !matches!(cfg.degrade, DegradePolicy::LowerUot | DegradePolicy::Spill) {
        return None;
    }
    let from = cfg.default_uot.normalized();
    let to = from.degrade()?;
    Some(Retry {
        config: EngineConfig {
            default_uot: to,
            fusion: FusionPolicy::Never,
            deadline: cfg.deadline.map(|d| d.saturating_sub(elapsed)),
            ..cfg.clone()
        },
        plan: Arc::new(plan.clone().with_uniform_uot(to)),
        degradation: Degradation { from, to },
    })
}

/// Stamp a successful retry's result with the degradation behind it: in the
/// metrics, and prepended to the retry's fresh trace so a reader sees why
/// this attempt ran at a lower UoT.
pub(crate) fn record_degradation(result: &mut QueryResult, d: Degradation) {
    result.metrics.degradations.push(d);
    if let Some(trace) = &mut result.trace {
        trace.events.insert(
            0,
            TraceEvent {
                t: Duration::ZERO,
                kind: TraceEventKind::Degraded {
                    from: d.from,
                    to: d.to,
                },
            },
        );
    }
}

/// Assemble a finished attempt's [`QueryResult`]: the trace frozen with the
/// plan's operator names, and the `EXPLAIN ANALYZE` fold of plan + metrics.
pub(crate) fn query_result(
    plan: &QueryPlan,
    sink: Option<Arc<TraceSink>>,
    blocks: Vec<Arc<StorageBlock>>,
    metrics: QueryMetrics,
) -> QueryResult {
    let trace = sink.map(|s| s.finish(plan.ops().iter().map(|op| op.name.clone()).collect()));
    let explain = Some(ExplainAnalyze::build(plan, &metrics));
    QueryResult {
        schema: plan.result_schema().clone(),
        blocks,
        metrics,
        trace,
        explain,
    }
}

/// Count a query as submitted on the hub.
pub(crate) fn hub_submitted(hub: &MetricsHub) {
    hub.add(HubCounter::QueriesSubmitted, 1);
}

/// Record a submitted query's one outcome on the hub — completed, cancelled
/// or failed (admission rejections included) — with its end-to-end latency.
pub(crate) fn hub_finished(hub: &MetricsHub, outcome: &Result<QueryResult>, latency: Duration) {
    hub.add(
        match outcome {
            Ok(_) => HubCounter::QueriesCompleted,
            Err(EngineError::Cancelled { .. }) => HubCounter::QueriesCancelled,
            Err(_) => HubCounter::QueriesFailed,
        },
        1,
    );
    hub.record(HubHistogram::QueryLatencyUs, latency.as_micros() as u64);
}
