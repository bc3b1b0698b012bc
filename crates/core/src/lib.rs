//! # uot-core
//!
//! The Unit-of-Transfer (UoT) query engine — the primary contribution of
//! *"On inter-operator data transfers in query processing"* (ICDE 2022),
//! rebuilt as a library.
//!
//! ## The UoT spectrum
//!
//! The paper's thesis is that "pipelining" vs. "blocking" is not a binary but
//! a spectrum parameterized by the **unit of transfer**: how many fixed-size
//! storage blocks a producer operator accumulates before its output is handed
//! to the consumer. [`Uot::Blocks(1)`](Uot) is classic block-level pipelining;
//! [`Uot::Table`](Uot) is classic blocking (operator-at-a-time); everything in
//! between is fair game.
//!
//! ## Architecture (mirrors Quickstep, Section III of the paper)
//!
//! * A physical [`QueryPlan`] is a tree of operators (select, build-hash,
//!   probe, aggregate, sort, nested-loops join, limit).
//! * Operator logic is packaged into **work orders** ([`WorkOrder`]): one
//!   unit of relational work on one input block.
//! * A single **scheduler** ([`scheduler`]) tracks block production,
//!   stages producer output per consumer edge, and *releases staged blocks to
//!   the consumer only when the edge's UoT is reached* (partially
//!   accumulated UoTs flush when the producer finishes).
//! * **Worker threads** execute work orders to completion and report back.
//! * Temporary output goes into blocks checked out from the shared
//!   [`BlockPool`](uot_storage::BlockPool), one block per work order at a
//!   time.
//! * Everything is metered: per-task execution times, per-operator totals,
//!   degree-of-parallelism samples, and peak temporary memory — the metrics
//!   the paper's figures are made of.

pub mod bloom;
pub mod cancel;
pub mod edge;
pub mod engine;
pub mod error;
pub mod exec_options;
pub mod fault;
pub mod fusion;
pub mod hash_table;
mod lifecycle;
pub mod metrics;
pub mod obs;
pub mod ops;
pub mod output;
pub mod plan;
pub mod query_id;
pub mod scheduler;
pub mod service;
pub mod spill;
pub mod sql;
pub mod state;
pub mod topology;
pub mod trace;
pub mod uot;
pub mod work_order;

pub use bloom::BloomFilter;
pub use cancel::CancellationToken;
pub use edge::{EdgeDest, TransferAction, TransferEdge};
pub use engine::{DegradePolicy, Engine, EngineConfig, ExecMode, QueryResult, TraceConfig};
pub use error::EngineError;
pub use exec_options::ExecOptions;
pub use fault::{FaultKind, FaultPlan, FaultSite, Injection};
pub use fusion::{FusedChain, FusionPolicy, FusionState};
pub use hash_table::{JoinHashTable, PayloadRef, ProbeMatch, ProbeSession};
pub use metrics::{Degradation, EdgeMetrics, OperatorMetrics, QueryMetrics, TaskRecord};
pub use obs::{
    prometheus_from_hub, ExplainAnalyze, HistogramSnapshot, HubCounter, HubHistogram, HubSnapshot,
    IntrospectionServer, LiveQuery, LiveRegistry, MetricsHub, QueryObserver, ServerState,
};
pub use plan::{
    JoinType, LipFilter, OpId, Operator, OperatorKind, PlanBuilder, QueryPlan, SortKey, Source,
};
pub use query_id::QueryId;
pub use scheduler::{run, run_query, FailedQuery};
pub use service::{QueryHandle, QueryService, ServiceConfig};
pub use spill::EngineSpillHook;
pub use sql::{compile, lower};
pub use topology::{Dependent, PlanTopology};
pub use trace::{Trace, TraceEvent, TraceEventKind, TraceSink, DEFAULT_TRACE_CAPACITY};
pub use uot::Uot;
// Frontend types callers of the SQL entry points interact with directly.
pub use uot_sql::{CacheStats, PlanCacheOutcome, PlanError, PlanErrorKind};
pub use work_order::{WorkKind, WorkOrder};

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
