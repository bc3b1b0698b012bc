//! Work orders: the unit of dispatchable work.
//!
//! "Quickstep uses an abstraction called *work orders*, which represents the
//! relational operator logic that needs to be executed on a specified input"
//! (Section III of the paper). A [`WorkOrder`] pairs an operator with one
//! input — a streamed block, or a finalize step for blocking operators.
//!
//! A streamed block stays in the [`SpillSlot`] its producer sealed it in
//! until a worker runs its work order: a transferred block that has not run
//! yet is still a held intermediate, and the block pool may evict it like
//! one. A work order's own output leaves it the same way, as
//! [`Produced`](crate::output::Produced) slots.

use crate::hash_table::BuildRun;
use crate::ops::aggregate::FrozenGroups;
use crate::plan::OpId;
use crate::query_id::QueryId;
use std::sync::Arc;
use uot_storage::SpillSlot;

/// What a work order does.
#[derive(Debug, Clone)]
pub enum WorkKind {
    /// Apply the operator's logic to one input block (select, build run,
    /// probe, aggregate-partial, nested-loops outer block, limit).
    Stream {
        /// The input block, resident or evicted until the executing worker
        /// takes it (faulting it back in if it was evicted).
        slot: Arc<SpillSlot>,
    },
    /// One partition of a blocking operator's finalize, dispatched once
    /// every stream work order of the operator has finished (see the
    /// [`ops`](crate::ops) module). A build links the hash-table shards
    /// partition `part` owns, an aggregate finishes the groups in the
    /// partition's key range, and a sort or a grace join runs whole as the
    /// one partition of one. The last partition to finish publishes the
    /// operator's result.
    Finalize {
        /// This partition, in `0..parts`.
        part: usize,
        /// The operator's finalize partition count.
        parts: usize,
        /// What the partitions share.
        input: FinalizeInput,
    },
}

/// The input a finalize's partitions share, taken once the operator's
/// stream work was over.
#[derive(Debug, Clone)]
pub enum FinalizeInput {
    /// A build's runs.
    Build(Arc<[BuildRun]>),
    /// An aggregate's frozen partials and its partitions' key ranges.
    Aggregate(Arc<FrozenGroups>),
    /// A sort, whose collected blocks are on its runtime state.
    Sort,
    /// A grace join's probe, whose partitions are in its grace state.
    GraceJoin,
}

impl FinalizeInput {
    /// The operator label a finalize work order's description carries.
    fn label(&self) -> &'static str {
        match self {
            FinalizeInput::Build(_) => "build",
            FinalizeInput::Aggregate(_) => "agg",
            FinalizeInput::Sort => "sort",
            FinalizeInput::GraceJoin => "join",
        }
    }
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
            WorkKind::Stream { slot } => {
                format!("{q}op{} stream({} rows)", self.op, slot.rows())
            }
            WorkKind::Finalize { part, parts, input } => {
                let kind = input.label();
                format!("{q}op{} finalize-{kind} {}/{parts}", self.op, part + 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uot_storage::{BlockFormat, DataType, Schema, StorageBlock, Value};

    #[test]
    fn describe_mentions_shape() {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut b = StorageBlock::new(s, BlockFormat::Row, 64).unwrap();
        b.append_row(&[Value::I32(1)]).unwrap();
        let wo = WorkOrder {
            query: QueryId::SOLO,
            op: 3,
            kind: WorkKind::Stream {
                slot: SpillSlot::new(Arc::new(b), 0),
            },
            seq: 0,
        };
        assert_eq!(wo.describe(), "op3 stream(1 rows)");
        let wo = WorkOrder {
            query: QueryId::new(2),
            op: 1,
            kind: WorkKind::Finalize {
                part: 0,
                parts: 1,
                input: FinalizeInput::Sort,
            },
            seq: 1,
        };
        assert!(wo.describe().contains("finalize-sort"));
        assert!(wo.describe().starts_with("q2 "));
    }

    #[test]
    fn describe_names_the_finalize_partition() {
        let wo = |part, parts, input| WorkOrder {
            query: QueryId::SOLO,
            op: 4,
            kind: WorkKind::Finalize { part, parts, input },
            seq: 0,
        };
        let agg = || FinalizeInput::Aggregate(Arc::new(FrozenGroups::default()));
        assert_eq!(wo(0, 2, agg()).describe(), "op4 finalize-agg 1/2");
        assert_eq!(wo(1, 2, agg()).describe(), "op4 finalize-agg 2/2");
        assert_eq!(wo(0, 1, agg()).describe(), "op4 finalize-agg 1/1");
        let build = || FinalizeInput::Build(Arc::from(Vec::new()));
        assert_eq!(wo(0, 2, build()).describe(), "op4 finalize-build 1/2");
        assert_eq!(wo(1, 2, build()).describe(), "op4 finalize-build 2/2");
        assert_eq!(wo(0, 1, build()).describe(), "op4 finalize-build 1/1");
        let sort = wo(0, 1, FinalizeInput::Sort).describe();
        assert_eq!(sort, "op4 finalize-sort 1/1");
        let join = wo(0, 1, FinalizeInput::GraceJoin).describe();
        assert_eq!(join, "op4 finalize-join 1/1");
    }
}
