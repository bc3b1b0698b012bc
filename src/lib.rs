//! # uot — Unit-of-Transfer query processing
//!
//! Facade crate for the reproduction of *"On inter-operator data transfers in
//! query processing"* (Deshmukh, Sundarmurthy, Patel; ICDE 2022). It
//! re-exports the workspace crates under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`storage`] | `uot-storage` | blocks (row/column), block pool, catalog |
//! | [`expr`] | `uot-expr` | scalar expressions, predicates, aggregates |
//! | [`sql`] | `uot-sql` | SQL lexer/parser/binder, logical plan, plan cache |
//! | [`engine`] | `uot-core` | UoT abstraction, work orders, operators, scheduler |
//! | [`model`] | `uot-model` | the paper's analytical cost & memory models |
//! | [`cachesim`] | `uot-cachesim` | cache-hierarchy simulator with prefetcher |
//! | [`tpch`] | `uot-tpch` | TPC-H generator, query plans, chain extraction |
//! | [`baseline`] | `uot-baseline` | MonetDB-style operator-at-a-time engine |
//!
//! See `README.md` for a tour and `examples/quickstart.rs` for a first query.

pub use uot_baseline as baseline;
pub use uot_cachesim as cachesim;
pub use uot_core as engine;
pub use uot_expr as expr;
pub use uot_model as model;
pub use uot_sql as sql;
pub use uot_storage as storage;
pub use uot_tpch as tpch;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use uot_core::{
        CacheStats, CancellationToken, DegradePolicy, Engine, EngineConfig, EngineError, ExecMode,
        ExecOptions, ExplainAnalyze, FaultKind, FaultPlan, FaultSite, FusionPolicy, HubCounter,
        HubHistogram, HubSnapshot, Injection, MetricsHub, PlanCacheOutcome, PlanError, QueryHandle,
        QueryId, QueryPlan, QueryResult, QueryService, ServiceConfig, Trace, TraceConfig, Uot,
    };
    pub use uot_storage::{
        date_from_ymd, BlockFormat, Catalog, DataType, Schema, Table, TableBuilder, Value,
    };
}
