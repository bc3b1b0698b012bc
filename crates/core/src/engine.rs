//! The engine facade: configuration, execution, results.

use crate::cancel::CancellationToken;
use crate::error::EngineError;
use crate::exec_options::ExecOptions;
use crate::fault::FaultPlan;
use crate::fusion::FusionPolicy;
use crate::lifecycle::{self, Prepared};
use crate::metrics::QueryMetrics;
use crate::obs::{ExplainAnalyze, MetricsHub};
use crate::plan::QueryPlan;
use crate::query_id::QueryId;
use crate::scheduler::{drive, QueryRun};
use crate::trace::{Trace, DEFAULT_TRACE_CAPACITY};
use crate::uot::Uot;
use crate::Result;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uot_sql::{CacheStats, PlanCache};
use uot_storage::{BlockFormat, Catalog, Schema, StorageBlock, Value};

pub use crate::scheduler::ExecMode;

/// What to do when a query trips its memory budget.
///
/// A lower UoT drains intermediates sooner (the paper's Section VI footprint
/// argument), so degrading the transfer unit is the natural first response
/// to memory pressure. [`DegradePolicy::Spill`] goes further: it arms a
/// disk-backed second tier up front, so a working set beyond the budget
/// degrades to out-of-core execution instead of a terminal error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Surface [`EngineError::BudgetExceeded`] to the caller (default).
    #[default]
    Off,
    /// Retry once with the default UoT halved toward [`Uot::LOW`] and
    /// fusion off, at either front end; the degradation is recorded in
    /// [`QueryMetrics::degradations`].
    LowerUot,
    /// Arm the disk spill tier: cold staged edge blocks evict to the query's
    /// spill file under pressure (faulting back in at transfer time), joins whose build
    /// side is estimated past the budget run as grace/partitioned hash joins,
    /// and fusion is disabled so every edge stays evictable. If the budget
    /// still trips, fall back to one [`DegradePolicy::LowerUot`]-style retry
    /// (spill is tried *before* lowering the UoT).
    Spill,
}

/// Structured-tracing knobs (see [`EngineConfig::tracing`]).
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Maximum events the per-query [`TraceSink`] retains; past it events
    /// are dropped (and counted in [`Trace::dropped`]) instead of growing
    /// without bound.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// Engine configuration. The fields mirror the experimental dimensions of
/// Section IV of the paper: block size, storage format (of temporaries),
/// UoT, and parallelism.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Size of temporary storage blocks in bytes.
    pub block_bytes: usize,
    /// Format of temporary blocks. The paper's Quickstep uses **row store
    /// for temporary tables regardless of the base-table format**
    /// (Section IV-B); that is the default here too.
    pub temp_format: BlockFormat,
    /// Default unit of transfer for every edge without an override.
    pub default_uot: Uot,
    /// Execution mode.
    pub mode: ExecMode,
    /// Whether the block pool reuses returned blocks (the `ablation_pool`
    /// knob; `true` matches Quickstep).
    pub pool_reuse: bool,
    /// Hard cap on temporary bytes (pool blocks) a query may hold at once.
    /// `None` = unlimited. An allocation past the cap fails with
    /// [`EngineError::BudgetExceeded`] naming the operator that hit it.
    pub memory_budget: Option<usize>,
    /// Response to a tripped memory budget.
    pub degrade: DegradePolicy,
    /// Optional wall-clock deadline per query; past it the query is
    /// cancelled and yields [`EngineError::Cancelled`].
    pub deadline: Option<Duration>,
    /// Structured tracing: `Some` records every scheduler/work-order event
    /// into a per-query [`Trace`] returned on [`QueryResult::trace`]. `None`
    /// (the default) records no trace.
    pub trace: Option<TraceConfig>,
    /// Fused-pipeline policy: whether eligible select/probe/aggregate chains
    /// run as single push-based loops (UoT -> 0) instead of staging blocks
    /// on their interior transfer edges. [`FusionPolicy::Auto`] (the
    /// default) asks the cost model per pipeline.
    pub fusion: FusionPolicy,
    /// Always-on live metrics: when set, every execution counts its
    /// submission and outcome into this [`MetricsHub`], and each attempt
    /// adds its finished [`QueryMetrics`] to it in one merge when it ends.
    /// `None` (the default) feeds no hub.
    pub hub: Option<Arc<MetricsHub>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            block_bytes: 128 * 1024,
            temp_format: BlockFormat::Row,
            default_uot: Uot::LOW,
            mode: ExecMode::Parallel {
                workers: std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4),
            },
            pool_reuse: true,
            memory_budget: None,
            degrade: DegradePolicy::Off,
            deadline: None,
            trace: None,
            fusion: FusionPolicy::Auto,
            hub: None,
        }
    }
}

impl EngineConfig {
    /// Serial configuration with sane defaults (tests, examples).
    pub fn serial() -> Self {
        EngineConfig {
            mode: ExecMode::Serial,
            ..Default::default()
        }
    }

    /// Parallel configuration with `workers` threads.
    pub fn parallel(workers: usize) -> Self {
        EngineConfig {
            mode: ExecMode::Parallel { workers },
            ..Default::default()
        }
    }

    /// Builder-style setter for the block size.
    pub fn with_block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = bytes;
        self
    }

    /// Builder-style setter for the default UoT.
    pub fn with_uot(mut self, uot: Uot) -> Self {
        self.default_uot = uot;
        self
    }

    /// Builder-style setter for the memory budget.
    pub fn with_memory_budget(mut self, bytes: Option<usize>) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Builder-style setter for the budget degradation policy.
    pub fn with_degrade(mut self, policy: DegradePolicy) -> Self {
        self.degrade = policy;
        self
    }

    /// Builder-style setter for the per-query deadline.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Builder-style setter for the fused-pipeline policy.
    pub fn with_fusion(mut self, fusion: FusionPolicy) -> Self {
        self.fusion = fusion;
        self
    }

    /// Builder-style setter for the live metrics hub: every execution under
    /// this config adds its outcome and its attempts' metrics to `hub`.
    pub fn with_hub(mut self, hub: Arc<MetricsHub>) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Enable structured tracing: every execution records a [`Trace`]
    /// (returned on [`QueryResult::trace`]) that the exporters under
    /// [`crate::obs`] turn into Chrome `trace_event` JSON, Prometheus-style
    /// snapshots, and per-edge UoT-occupancy timelines.
    pub fn tracing(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// A materialized query result plus its execution metrics.
#[derive(Debug)]
pub struct QueryResult {
    /// Result schema.
    pub schema: Arc<Schema>,
    /// Result blocks (in completion order — unordered unless the sink was a
    /// sort).
    pub blocks: Vec<Arc<StorageBlock>>,
    /// Execution metrics.
    pub metrics: QueryMetrics,
    /// The structured trace, when the engine was configured with
    /// [`EngineConfig::tracing`].
    pub trace: Option<Trace>,
    /// The executed plan annotated with measured per-operator and per-edge
    /// statistics (`EXPLAIN ANALYZE`). Always present: it is a pure fold of
    /// the plan and the metrics, computed after execution.
    pub explain: Option<ExplainAnalyze>,
}

impl QueryResult {
    /// Total result rows.
    pub fn num_rows(&self) -> usize {
        self.blocks.iter().map(|b| b.num_rows()).sum()
    }

    /// Materialize all rows in block order.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        self.blocks.iter().flat_map(|b| b.all_rows()).collect()
    }

    /// Materialize all rows in a canonical total order — use this to compare
    /// results across UoTs, block sizes, formats and executors.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows();
        rows.sort_by(|a, b| cmp_value_rows(a, b));
        rows
    }

    /// Replace the rows with the rendered `EXPLAIN ANALYZE` tree, as an
    /// `EXPLAIN ANALYZE <stmt>` submission returns at either front end. The
    /// measured metrics, trace and [`QueryResult::explain`] stay attached.
    pub(crate) fn into_explain_rows(mut self) -> Self {
        if let Some(ex) = &self.explain {
            (self.schema, self.blocks) = ex.result_blocks();
        }
        self
    }
}

/// Total order over value rows, column by column (values that do not
/// compare count as equal): the canonical order of
/// [`QueryResult::sorted_rows`].
pub(crate) fn cmp_value_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// The query engine: executes plans under an [`EngineConfig`].
///
/// Each execution gets a fresh [`BlockPool`] and [`MemoryTracker`], so
/// `metrics.peak_temp_bytes` is exactly the query's own temporary footprint
/// (pool blocks + join hash tables), the quantity Section VI of the paper
/// analyzes.
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
    /// Catalog SQL statements resolve against (`None` until
    /// [`Engine::with_catalog`]; plan-based execution never needs it).
    catalog: Option<Arc<Catalog>>,
    /// Compiled-plan cache for [`Engine::execute_sql`], keyed by normalized
    /// SQL text.
    plan_cache: PlanCache<QueryPlan>,
}

impl Engine {
    /// Engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            catalog: None,
            plan_cache: PlanCache::new(),
        }
    }

    /// Attach the catalog [`Engine::execute_sql`] resolves table names
    /// against.
    pub fn with_catalog(mut self, catalog: Arc<Catalog>) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Counters of the SQL plan cache.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Execute `plan` and return the materialized result.
    pub fn execute(&self, plan: QueryPlan) -> Result<QueryResult> {
        self.execute_with(plan, ExecOptions::default())
    }

    /// Execute `plan` with per-run [`ExecOptions`] layered over the engine
    /// configuration — the unified entry every other `execute_*` routes
    /// through.
    pub fn execute_with(&self, plan: QueryPlan, opts: ExecOptions) -> Result<QueryResult> {
        let (cfg, plan) = opts.apply(self.config.clone(), plan);
        run_standalone(&cfg, plan, opts.faults.as_ref())
    }

    /// Compile and execute a SQL statement against the attached catalog.
    ///
    /// The compiled physical plan is memoized in this engine's plan cache;
    /// [`QueryMetrics::plan_cache`] on the result records whether this call
    /// hit it. Requires [`Engine::with_catalog`].
    pub fn execute_sql(&self, sql: &str) -> Result<QueryResult> {
        self.execute_sql_with(sql, ExecOptions::default())
    }

    /// [`Self::execute_sql`] with per-run [`ExecOptions`].
    ///
    /// `EXPLAIN ANALYZE <stmt>` is handled here: the inner statement runs
    /// normally (same plan cache, same options), then the result rows are
    /// replaced by the rendered [`ExplainAnalyze`] tree. The real metrics,
    /// trace and [`QueryResult::explain`] stay attached.
    pub fn execute_sql_with(&self, sql: &str, opts: ExecOptions) -> Result<QueryResult> {
        match uot_sql::strip_explain_analyze(sql) {
            Some(inner) => Ok(self.execute_sql_plain(inner, opts)?.into_explain_rows()),
            None => self.execute_sql_plain(sql, opts),
        }
    }

    fn execute_sql_plain(&self, sql: &str, opts: ExecOptions) -> Result<QueryResult> {
        let catalog = self.catalog.as_ref().ok_or_else(|| {
            EngineError::Config(
                "engine has no catalog to resolve SQL against; use Engine::with_catalog".into(),
            )
        })?;
        let (plan, outcome) = self
            .plan_cache
            .get_or_compile(sql, || crate::sql::compile(sql, catalog))?;
        let mut result = self.execute_with((*plan).clone(), opts)?;
        result.metrics.plan_cache = Some(outcome);
        Ok(result)
    }
}

/// Run one standalone query on the calling thread through the shared
/// lifecycle: prepare, drive under `cfg.mode`, and apply the budget-retry
/// rule at most once.
fn run_standalone(
    cfg: &EngineConfig,
    plan: QueryPlan,
    faults: Option<&Arc<FaultPlan>>,
) -> Result<QueryResult> {
    let started = Instant::now();
    // Nothing outside this call holds the token: only the query's own
    // deadline fires it.
    let token = &CancellationToken::new();
    if let Some(hub) = &cfg.hub {
        lifecycle::hub_submitted(hub);
    }
    let attempt = |cfg: &EngineConfig, plan: Arc<QueryPlan>| -> Result<QueryResult> {
        let Prepared { core, sink, .. } =
            lifecycle::prepare(cfg, plan.clone(), QueryId::SOLO, token, faults, None)?;
        let (blocks, metrics) = drive(QueryRun::new(core, ())).map_err(|f| f.error)?;
        Ok(lifecycle::query_result(&plan, sink, blocks, metrics))
    };
    let plan = Arc::new(plan);
    let mut result = attempt(cfg, plan.clone());
    let retry = match &result {
        Err(e) => lifecycle::budget_retry(cfg, &plan, e, started.elapsed()),
        Ok(_) => None,
    };
    if let Some(retry) = retry {
        result = attempt(&retry.config, retry.plan).map(|mut r| {
            lifecycle::record_degradation(&mut r, retry.degradation);
            r
        });
    }
    if let Some(hub) = &cfg.hub {
        lifecycle::hub_finished(hub, &result, started.elapsed());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Degradation;
    use crate::plan::{JoinType, PlanBuilder, SortKey, Source};
    use crate::trace::TraceEventKind;
    use uot_expr::{cmp, col, lit, AggSpec, CmpOp};
    use uot_storage::{DataType, Table, TableBuilder};

    fn table(name: &str, n: i32) -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
        let mut tb = TableBuilder::new(name, s, BlockFormat::Column, 96); // 8 rows/block
        for i in 0..n {
            tb.append(&[Value::I32(i), Value::F64(i as f64 * 2.0)])
                .unwrap();
        }
        Arc::new(tb.finish())
    }

    fn plan() -> QueryPlan {
        let dim = table("dim", 20);
        let fact = table("fact", 200);
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

    #[test]
    fn end_to_end_serial() {
        let engine = Engine::new(EngineConfig::serial());
        let r = engine.execute(plan()).unwrap();
        let rows = r.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::I64(20));
        let expect: f64 = (0..20).map(|i| i as f64 * 2.0).sum();
        assert_eq!(rows[0][1], Value::F64(expect));
        assert!(r.metrics.wall_time.as_nanos() > 0);
    }

    #[test]
    fn all_modes_and_uots_agree() {
        let reference = Engine::new(EngineConfig::serial())
            .execute(plan())
            .unwrap()
            .sorted_rows();
        for mode in [ExecMode::Serial, ExecMode::Parallel { workers: 4 }] {
            for uot in [Uot::Blocks(1), Uot::Blocks(3), Uot::Table] {
                let cfg = EngineConfig {
                    mode,
                    default_uot: uot,
                    ..Default::default()
                };
                let rows = Engine::new(cfg).execute(plan()).unwrap().sorted_rows();
                assert_eq!(rows, reference, "{mode:?} {uot}");
            }
        }
    }

    #[test]
    fn formats_and_block_sizes_agree() {
        let reference = Engine::new(EngineConfig::serial())
            .execute(plan())
            .unwrap()
            .sorted_rows();
        for fmt in [BlockFormat::Row, BlockFormat::Column] {
            for bytes in [256usize, 1024, 1 << 20] {
                let cfg = EngineConfig {
                    temp_format: fmt,
                    ..EngineConfig::serial()
                }
                .with_block_bytes(bytes);
                let rows = Engine::new(cfg).execute(plan()).unwrap().sorted_rows();
                assert_eq!(rows, reference, "{fmt:?} {bytes}");
            }
        }
    }

    #[test]
    fn execute_with_uot_overrides() {
        let engine = Engine::new(EngineConfig::serial());
        let r = engine
            .execute_with(plan(), ExecOptions::default().with_uot(Uot::Table))
            .unwrap();
        assert_eq!(r.rows().len(), 1);
    }

    #[test]
    fn sorted_sink_preserves_order() {
        let t = table("t", 50);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(t), cmp(col(0), CmpOp::Lt, lit(10i32)))
            .unwrap();
        let so = pb
            .sort(Source::Op(s), vec![SortKey::desc(0)], Some(4))
            .unwrap();
        let plan = pb.build(so).unwrap();
        let r = Engine::new(EngineConfig::parallel(4))
            .execute(plan)
            .unwrap();
        let ks: Vec<i32> = r.rows().iter().map(|row| row[0].as_i32()).collect();
        assert_eq!(ks, vec![9, 8, 7, 6]);
        assert_eq!(r.num_rows(), 4);
    }

    #[test]
    fn metrics_capture_memory() {
        let r = Engine::new(EngineConfig::serial()).execute(plan()).unwrap();
        assert!(r.metrics.peak_temp_bytes > 0);
        assert_eq!(r.metrics.hash_table_bytes.len(), 1);
        assert!(r.metrics.hash_table_bytes[0].1 > 0);
    }

    #[test]
    fn pool_reuse_ablation_runs() {
        let cfg = EngineConfig {
            pool_reuse: false,
            mode: ExecMode::Serial,
            ..Default::default()
        };
        let r = Engine::new(cfg).execute(plan()).unwrap();
        assert_eq!(r.rows().len(), 1);
        assert_eq!(r.metrics.pool.reused, 0);
    }

    #[test]
    fn zero_workers_is_a_config_error() {
        let err = Engine::new(EngineConfig::parallel(0))
            .execute(plan())
            .unwrap_err();
        match err {
            crate::EngineError::Config(msg) => assert!(msg.contains("workers=0"), "{msg}"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn undersized_blocks_are_a_config_error() {
        // The plan's widest tuple is 12 bytes (Int32 + Float64); 8-byte
        // temporary blocks cannot hold a single output tuple.
        let err = Engine::new(EngineConfig::serial().with_block_bytes(8))
            .execute(plan())
            .unwrap_err();
        match err {
            crate::EngineError::Config(msg) => {
                assert!(msg.contains("block_bytes=8"), "{msg}");
                assert!(msg.contains("tuple"), "{msg}");
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_uot_is_normalized_not_rejected() {
        let cfg = EngineConfig::serial().with_uot(Uot::Blocks(0));
        let r = Engine::new(cfg).execute(plan()).unwrap();
        assert_eq!(r.rows().len(), 1);
    }

    #[test]
    fn config_builders() {
        let c = EngineConfig::serial()
            .with_block_bytes(512)
            .with_uot(Uot::Table)
            .with_memory_budget(Some(4096))
            .with_degrade(DegradePolicy::LowerUot)
            .with_deadline(Some(Duration::from_secs(5)))
            .with_fusion(FusionPolicy::Always);
        assert_eq!(c.block_bytes, 512);
        assert_eq!(c.default_uot, Uot::Table);
        assert_eq!(c.mode, ExecMode::Serial);
        assert_eq!(c.memory_budget, Some(4096));
        assert_eq!(c.degrade, DegradePolicy::LowerUot);
        assert_eq!(c.deadline, Some(Duration::from_secs(5)));
        assert_eq!(c.fusion, FusionPolicy::Always);
        assert_eq!(EngineConfig::default().fusion, FusionPolicy::Auto);
        let c = EngineConfig::parallel(7);
        assert_eq!(c.mode, ExecMode::Parallel { workers: 7 });
    }

    // --- hardening: budgets, degradation, cancellation, fault injection ---

    /// Pass-through filter into a scalar aggregate: under `Uot::Table` all
    /// 25 filter output blocks (96 B each) stage at once; under a low UoT
    /// the aggregate drains them as they appear.
    fn wide_then_narrow_plan() -> QueryPlan {
        let t = table("budget_t", 200);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(t), cmp(col(0), CmpOp::Ge, lit(0i32)))
            .unwrap();
        let a = pb
            .aggregate(Source::Op(s), vec![], vec![AggSpec::count_star()], &["n"])
            .unwrap();
        pb.build(a).unwrap()
    }

    #[test]
    fn budget_exceeded_names_the_operator() {
        // Fusion off: the budget trips via Table-UoT *staging*, which a
        // fused select->aggregate loop would bypass entirely.
        let cfg = EngineConfig::serial()
            .with_uot(Uot::Table)
            .with_block_bytes(96)
            .with_memory_budget(Some(600))
            .with_fusion(FusionPolicy::Never);
        let err = Engine::new(cfg)
            .execute(wide_then_narrow_plan())
            .unwrap_err();
        match err {
            crate::EngineError::BudgetExceeded {
                op,
                query,
                requested,
                in_use,
                budget,
                ..
            } => {
                assert!(!op.is_empty());
                assert_eq!(query, crate::QueryId::SOLO);
                assert!(requested > 0);
                assert!(in_use + requested > budget);
                assert_eq!(budget, 600);
            }
            other => panic!("expected BudgetExceeded, got {other}"),
        }
    }

    #[test]
    fn lower_uot_degradation_completes_and_is_recorded() {
        let cfg = EngineConfig::serial()
            .with_uot(Uot::Table)
            .with_block_bytes(96)
            .with_memory_budget(Some(600))
            .with_degrade(DegradePolicy::LowerUot)
            .with_fusion(FusionPolicy::Never);
        let r = Engine::new(cfg).execute(wide_then_narrow_plan()).unwrap();
        assert_eq!(r.rows(), vec![vec![Value::I64(200)]]);
        assert_eq!(
            r.metrics.degradations,
            vec![Degradation {
                from: Uot::Table,
                to: Uot::Blocks(1),
            }]
        );
    }

    /// A join whose build side (200 rows of payload) dwarfs a tight budget:
    /// the shape the spill tier exists for.
    fn big_join_plan() -> QueryPlan {
        let dim = table("spill_dim", 200);
        let fact = table("spill_fact", 400);
        let mut pb = PlanBuilder::new();
        let b = pb.build_hash(Source::Table(dim), vec![0], vec![1]).unwrap();
        let p = pb
            .probe(
                Source::Table(fact),
                b,
                vec![0],
                vec![0, 1],
                vec![0],
                JoinType::Inner,
            )
            .unwrap();
        pb.build(p).unwrap()
    }

    #[test]
    fn spill_completes_byte_identical_where_budget_alone_fails() {
        let reference = Engine::new(EngineConfig::serial())
            .execute(big_join_plan())
            .unwrap()
            .sorted_rows();
        assert_eq!(reference.len(), 200, "fact keys 0..200 match a dim row");
        let tight = EngineConfig::serial()
            .with_uot(Uot::Table)
            .with_block_bytes(96)
            .with_memory_budget(Some(4096))
            .with_fusion(FusionPolicy::Never);
        // Without spill the same budget is terminal...
        let err = Engine::new(tight.clone())
            .execute(big_join_plan())
            .unwrap_err();
        assert!(
            matches!(err, crate::EngineError::BudgetExceeded { .. }),
            "{err:?}"
        );
        // ...and with it the run degrades to out-of-core and matches the
        // unbudgeted result byte for byte, with spill traffic in the trace.
        let r = Engine::new(
            tight
                .with_degrade(DegradePolicy::Spill)
                .tracing(TraceConfig::default()),
        )
        .execute(big_join_plan())
        .unwrap();
        assert_eq!(r.sorted_rows(), reference);
        assert!(r.metrics.spill_events > 0, "{:?}", r.metrics);
        assert!(r.metrics.spilled_bytes > 0);
        let trace = r.trace.unwrap();
        assert!(trace.count(|k| matches!(k, TraceEventKind::SpillOut { .. })) > 0);
        assert!(trace.count(|k| matches!(k, TraceEventKind::SpillIn { .. })) > 0);
    }

    #[test]
    fn spill_parallel_matches_serial() {
        let reference = Engine::new(EngineConfig::serial())
            .execute(big_join_plan())
            .unwrap()
            .sorted_rows();
        let cfg = EngineConfig::parallel(4)
            .with_uot(Uot::Table)
            .with_block_bytes(96)
            .with_memory_budget(Some(4096))
            .with_degrade(DegradePolicy::Spill);
        let r = Engine::new(cfg).execute(big_join_plan()).unwrap();
        assert_eq!(r.sorted_rows(), reference);
    }

    #[test]
    fn spill_without_budget_is_a_plain_run() {
        let cfg = EngineConfig::serial().with_degrade(DegradePolicy::Spill);
        let r = Engine::new(cfg).execute(big_join_plan()).unwrap();
        assert_eq!(r.num_rows(), 200);
        assert_eq!(r.metrics.spill_events, 0, "no budget, no pressure");
    }

    #[test]
    fn spill_keeps_table_uot_by_evicting_staged_blocks() {
        // Same shape as `budget_exceeded_names_the_operator`: under
        // `Uot::Table` the filter's 25 staged output blocks blow the 600-byte
        // budget. With the spill tier armed they evict to disk instead, and
        // the flush faults them back in.
        let cfg = EngineConfig::serial()
            .with_uot(Uot::Table)
            .with_block_bytes(96)
            .with_memory_budget(Some(600))
            .with_degrade(DegradePolicy::Spill)
            .with_fusion(FusionPolicy::Never);
        let r = Engine::new(cfg).execute(wide_then_narrow_plan()).unwrap();
        assert_eq!(r.rows(), vec![vec![Value::I64(200)]]);
        assert!(r.metrics.spill_events > 0, "{:?}", r.metrics);
        assert!(
            r.metrics.degradations.is_empty(),
            "spill succeeded on the first attempt, no UoT retry"
        );
    }

    #[test]
    fn degradation_off_by_default() {
        let cfg = EngineConfig::serial()
            .with_uot(Uot::Table)
            .with_block_bytes(96)
            .with_memory_budget(Some(600))
            .with_fusion(FusionPolicy::Never);
        assert_eq!(cfg.degrade, DegradePolicy::Off);
        let err = Engine::new(cfg)
            .execute(wide_then_narrow_plan())
            .unwrap_err();
        assert!(matches!(err, crate::EngineError::BudgetExceeded { .. }));
    }

    #[test]
    fn budget_retry_replans_without_fusion() {
        use crate::fault::{FaultKind, FaultSite, Injection};
        // Deterministic budget pressure: a synthetic BudgetExceeded on the
        // first work order (the fused pipeline's head) forces the LowerUot
        // retry. The retry must re-plan with FusionPolicy::Never so the
        // degraded UoT actually governs every edge — visible as zero fused
        // pipelines in the final metrics.
        let cfg = EngineConfig::serial()
            .with_uot(Uot::Table)
            .with_degrade(DegradePolicy::LowerUot);
        let faults = Arc::new(FaultPlan::new(vec![Injection {
            site: FaultSite::WorkOrderExec,
            kind: FaultKind::Error,
            nth: 1,
        }]));
        let r = Engine::new(cfg.clone())
            .execute_with(
                wide_then_narrow_plan(),
                ExecOptions::default().with_faults(faults),
            )
            .unwrap();
        assert_eq!(r.rows(), vec![vec![Value::I64(200)]]);
        assert_eq!(r.metrics.degradations.len(), 1);
        assert_eq!(
            r.metrics.fused_pipelines, 0,
            "budget-degraded retry must not fuse"
        );
        assert!(r.metrics.staged_pipelines > 0);
        // Control: the same config without pressure fuses the pipeline.
        let r = Engine::new(cfg).execute(wide_then_narrow_plan()).unwrap();
        assert_eq!(r.rows(), vec![vec![Value::I64(200)]]);
        assert!(r.metrics.fused_pipelines > 0, "auto policy should fuse");
    }

    #[test]
    fn injected_panic_is_contained_in_both_modes() {
        use crate::fault::{FaultKind, FaultSite, Injection};
        for cfg in [EngineConfig::serial(), EngineConfig::parallel(4)] {
            let engine = Engine::new(cfg.clone());
            let faults = Arc::new(FaultPlan::new(vec![Injection {
                site: FaultSite::WorkOrderExec,
                kind: FaultKind::Panic,
                nth: 3,
            }]));
            let err = engine
                .execute_with(plan(), ExecOptions::default().with_faults(faults))
                .unwrap_err();
            match err {
                crate::EngineError::WorkOrderPanic { op, kind, payload } => {
                    assert!(!op.is_empty(), "{cfg:?}");
                    assert!(!kind.is_empty(), "{cfg:?}");
                    assert!(payload.contains("injected"), "{payload}");
                }
                other => panic!("expected WorkOrderPanic, got {other}"),
            }
            // The process (and the engine) survive: the same engine runs the
            // same query cleanly right after the contained panic.
            let r = engine.execute(plan()).unwrap();
            assert_eq!(r.rows().len(), 1);
        }
    }

    #[test]
    fn deadline_is_enforced_through_the_engine() {
        let cfg = EngineConfig::serial().with_deadline(Some(Duration::ZERO));
        let err = Engine::new(cfg).execute(plan()).unwrap_err();
        assert!(matches!(err, crate::EngineError::Cancelled { .. }), "{err}");
    }
}
