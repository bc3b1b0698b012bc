//! Work orders: the unit of dispatchable work.
//!
//! "Quickstep uses an abstraction called *work orders*, which represents the
//! relational operator logic that needs to be executed on a specified input"
//! (Section III of the paper). A [`WorkOrder`] pairs an operator with one
//! input — a streamed block, or a finalize step for blocking operators.

use crate::hash_table::BuildRun;
use crate::plan::OpId;
use crate::query_id::QueryId;
use crate::state::FrozenPartial;
use std::sync::Arc;
use uot_storage::StorageBlock;

/// What a work order does.
#[derive(Debug, Clone)]
pub enum WorkKind {
    /// Apply the operator's logic to one input block (select, build run,
    /// probe, aggregate-partial, nested-loops outer block, limit).
    Stream {
        /// The input block.
        block: Arc<StorageBlock>,
    },
    /// One partition of a (non-grace) build's finalize: size and link the
    /// hash-table shards that partition `part` of `parts` owns, from every
    /// run the build's stream work orders wrote. The last partition to
    /// finish publishes the table, which probes then read without locks.
    FinalizeBuild {
        /// This partition, in `0..parts`.
        part: usize,
        /// The build's finalize partition count.
        parts: usize,
        /// The build's runs, taken once its stream work was over and shared
        /// by every partition.
        runs: Arc<[BuildRun]>,
    },
    /// One partition of an aggregate's finalize: merge, order and finish the
    /// groups of the frozen partials whose hash falls in partition `part` of
    /// `parts`. The last partition to finish merges every partition's
    /// ordered groups and emits the result blocks.
    FinalizeAggregate {
        /// This partition, in `0..parts`.
        part: usize,
        /// The operator's finalize partition count.
        parts: usize,
        /// The operator's pooled partials, frozen once its stream work was
        /// over and shared by every partition.
        partials: Arc<[FrozenPartial]>,
    },
    /// Sort all collected input and emit the result blocks.
    FinalizeSort,
    /// Grace hash join: process the spilled build/probe partitions one at a
    /// time and emit the joined result blocks.
    FinalizeJoin,
}

/// One schedulable unit of work.
#[derive(Debug, Clone)]
pub struct WorkOrder {
    /// The query this work order executes for ([`QueryId::SOLO`] outside a
    /// service). Workers shared across queries use it to attribute
    /// completions, metrics and trace events.
    pub query: QueryId,
    /// The operator this work order belongs to.
    pub op: OpId,
    /// The work to perform.
    pub kind: WorkKind,
    /// Monotone sequence number (dispatch order diagnostics). Unique within
    /// one query, not across queries.
    pub seq: usize,
}

impl WorkOrder {
    /// Short description for schedule dumps. The query id is shown only when
    /// it is not the solo id, so single-query dumps stay unchanged.
    pub fn describe(&self) -> String {
        let q = if self.query == QueryId::SOLO {
            String::new()
        } else {
            format!("{} ", self.query)
        };
        match &self.kind {
            WorkKind::Stream { block } => {
                format!("{q}op{} stream({} rows)", self.op, block.num_rows())
            }
            WorkKind::FinalizeBuild { part, parts, .. } => {
                format!("{q}op{} finalize-build {}/{parts}", self.op, part + 1)
            }
            WorkKind::FinalizeAggregate { part, parts, .. } => {
                format!("{q}op{} finalize-agg {}/{parts}", self.op, part + 1)
            }
            WorkKind::FinalizeSort => format!("{q}op{} finalize-sort", self.op),
            WorkKind::FinalizeJoin => format!("{q}op{} finalize-join", self.op),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uot_storage::{BlockFormat, DataType, Schema, Value};

    #[test]
    fn describe_mentions_shape() {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut b = StorageBlock::new(s, BlockFormat::Row, 64).unwrap();
        b.append_row(&[Value::I32(1)]).unwrap();
        let wo = WorkOrder {
            query: QueryId::SOLO,
            op: 3,
            kind: WorkKind::Stream { block: Arc::new(b) },
            seq: 0,
        };
        assert_eq!(wo.describe(), "op3 stream(1 rows)");
        let wo = WorkOrder {
            query: QueryId::new(2),
            op: 1,
            kind: WorkKind::FinalizeSort,
            seq: 1,
        };
        assert!(wo.describe().contains("finalize-sort"));
        assert!(wo.describe().starts_with("q2 "));
    }

    #[test]
    fn describe_names_the_finalize_partition() {
        let wo = |part, parts| WorkOrder {
            query: QueryId::SOLO,
            op: 4,
            kind: WorkKind::FinalizeAggregate {
                part,
                parts,
                partials: Arc::from(Vec::new()),
            },
            seq: 0,
        };
        assert_eq!(wo(0, 2).describe(), "op4 finalize-agg 1/2");
        assert_eq!(wo(1, 2).describe(), "op4 finalize-agg 2/2");
        assert_eq!(wo(0, 1).describe(), "op4 finalize-agg 1/1");
    }

    #[test]
    fn describe_names_the_build_finalize_partition() {
        let wo = |part, parts| WorkOrder {
            query: QueryId::SOLO,
            op: 2,
            kind: WorkKind::FinalizeBuild {
                part,
                parts,
                runs: Arc::from(Vec::new()),
            },
            seq: 0,
        };
        assert_eq!(wo(0, 2).describe(), "op2 finalize-build 1/2");
        assert_eq!(wo(1, 2).describe(), "op2 finalize-build 2/2");
        assert_eq!(wo(0, 1).describe(), "op2 finalize-build 1/1");
    }
}
