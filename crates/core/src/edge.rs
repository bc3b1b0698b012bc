//! Transfer edges: the data path between a producer and its consumer.
//!
//! The paper's central mechanism — accumulate a producer's output blocks
//! until the edge's [`Uot`] threshold is reached, then transfer them to the
//! consumer — lives here as a first-class type. The scheduler owns one
//! [`TransferEdge`] per operator, describing what happens to that operator's
//! output:
//!
//! * **Sink** — the operator is the plan sink; blocks go straight to the
//!   query result, no staging.
//! * **Stream** — blocks stage at the consumer's input until the UoT
//!   threshold is met ([`TransferAction::Transfer`]), with partial
//!   accumulations flushed when the producer finishes (Section III-B:
//!   "partially filled blocks are scheduled for data transfer at the end of
//!   the operator's execution").
//! * **Materialize** — the inner side of a nested-loops join. The consumer
//!   cannot start before this producer finishes, so the UoT is immaterial:
//!   blocks bypass staging and park at the producer for bulk consumption.
//!
//! Blocks arrive already in their [`SpillSlot`]s: the operator's
//! [`OutputBuffer`](crate::output::OutputBuffer) sealed each one when it
//! completed and offered it to the pool as an eviction victim then. An
//! edge only moves slots; it wraps and registers nothing.
//!
//! The edge also owns the **collected-bytes accounting**: blocks parked for
//! bulk consumption (a sort's input, an NLJ's materialized inner side) are
//! charged to the edge and released in one step when the consumer finishes,
//! which is what makes `peak_temp_bytes` reflect the paper's Section VI
//! footprint analysis.

use crate::plan::OpId;
use crate::query_id::QueryId;
use crate::uot::Uot;
use std::sync::Arc;
use uot_storage::SpillSlot;

/// Where an operator's output goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeDest {
    /// Plan sink: blocks are query results.
    Sink,
    /// Streamed edge into `0` with UoT staging.
    Stream(OpId),
    /// Materialization edge into nested-loops join `0` (UoT bypass).
    Materialize(OpId),
}

/// What the scheduler should do with freshly produced blocks.
///
/// While a stream edge's slot sits below the UoT threshold its block is
/// *cold* — the only live reference is the slot's — and the block pool may
/// evict it to the disk spill tier under memory pressure. A transfer hands
/// the slots on to the consumer's work orders, and the worker that runs one
/// faults its block back in.
#[derive(Debug)]
pub enum TransferAction {
    /// Append these slots' blocks to the query result set.
    Emit(Vec<Arc<SpillSlot>>),
    /// The UoT threshold was reached: transfer these slots to the consumer.
    Transfer(Vec<Arc<SpillSlot>>),
    /// Still accumulating below the threshold.
    Hold,
    /// Materialization edge: park these slots' blocks at the producer for
    /// the consuming join.
    Materialize(Vec<Arc<SpillSlot>>),
}

/// The outgoing data edge of one operator.
#[derive(Debug)]
pub struct TransferEdge {
    dest: EdgeDest,
    /// Accumulation threshold in blocks (`usize::MAX` for [`Uot::Table`]).
    threshold: usize,
    /// Blocks staged on this edge, below the threshold, in the slots the
    /// pool's second tier may evict them from.
    staged: Vec<Arc<SpillSlot>>,
    /// Bytes of tracked blocks parked for bulk consumption downstream of
    /// this edge; released when the consumer finishes.
    collected_bytes: usize,
    /// The query whose plan this edge belongs to: staged blocks and parked
    /// bytes are charged against this query's reservation, and a teardown
    /// drains exactly the edges carrying its id.
    query: QueryId,
}

impl TransferEdge {
    /// Edge of the sink operator.
    pub fn sink() -> Self {
        TransferEdge {
            dest: EdgeDest::Sink,
            threshold: 1,
            staged: Vec::new(),
            collected_bytes: 0,
            query: QueryId::SOLO,
        }
    }

    /// Streamed edge into `consumer` with the given UoT.
    pub fn stream(consumer: OpId, uot: Uot) -> Self {
        TransferEdge {
            dest: EdgeDest::Stream(consumer),
            threshold: uot.threshold_blocks(),
            staged: Vec::new(),
            collected_bytes: 0,
            query: QueryId::SOLO,
        }
    }

    /// Materialization edge into nested-loops join `consumer`.
    pub fn materialize(consumer: OpId) -> Self {
        TransferEdge {
            dest: EdgeDest::Materialize(consumer),
            threshold: 1,
            staged: Vec::new(),
            collected_bytes: 0,
            query: QueryId::SOLO,
        }
    }

    /// Attribute this edge to `query` (builder-style; the scheduler stamps
    /// the owning context's id when it builds the edge set).
    pub fn owned_by(mut self, query: QueryId) -> Self {
        self.query = query;
        self
    }

    /// The query this edge belongs to.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// Where this edge leads.
    pub fn dest(&self) -> EdgeDest {
        self.dest
    }

    /// The consumer on the other end, if any.
    pub fn consumer(&self) -> Option<OpId> {
        match self.dest {
            EdgeDest::Sink => None,
            EdgeDest::Stream(c) | EdgeDest::Materialize(c) => Some(c),
        }
    }

    /// Blocks currently staged on this edge.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Accumulation threshold in blocks (`usize::MAX` for [`Uot::Table`]).
    pub fn threshold_blocks(&self) -> usize {
        self.threshold
    }

    /// Stage freshly produced slots and decide what to do with them.
    pub fn stage(&mut self, slots: Vec<Arc<SpillSlot>>) -> TransferAction {
        if slots.is_empty() {
            return TransferAction::Hold;
        }
        match self.dest {
            EdgeDest::Sink => TransferAction::Emit(slots),
            EdgeDest::Materialize(_) => TransferAction::Materialize(slots),
            EdgeDest::Stream(_) => {
                self.staged.extend(slots);
                if self.staged.len() >= self.threshold {
                    TransferAction::Transfer(std::mem::take(&mut self.staged))
                } else {
                    TransferAction::Hold
                }
            }
        }
    }

    /// Flush a partial accumulation (producer finished before the threshold
    /// was reached). Returns the staged slots; empty for non-stream edges.
    pub fn flush(&mut self) -> Vec<Arc<SpillSlot>> {
        std::mem::take(&mut self.staged)
    }

    /// Charge bytes of blocks parked for bulk consumption to this edge.
    pub fn add_collected(&mut self, bytes: usize) {
        self.collected_bytes += bytes;
    }

    /// Release the parked bytes (the consumer finished).
    pub fn take_collected(&mut self) -> usize {
        std::mem::take(&mut self.collected_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uot_storage::{BlockFormat, DataType, Schema, StorageBlock, Value};

    fn slot(rows: i32) -> Arc<SpillSlot> {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut b = StorageBlock::new(s, BlockFormat::Row, 256).unwrap();
        for i in 0..rows {
            b.append_row(&[Value::I32(i)]).unwrap();
        }
        SpillSlot::new(Arc::new(b), 0)
    }

    #[test]
    fn threshold_accumulates_then_transfers() {
        let mut e = TransferEdge::stream(7, Uot::Blocks(3));
        assert!(matches!(e.stage(vec![slot(1)]), TransferAction::Hold));
        assert!(matches!(e.stage(vec![slot(1)]), TransferAction::Hold));
        assert_eq!(e.staged_len(), 2);
        match e.stage(vec![slot(1)]) {
            TransferAction::Transfer(slots) => assert_eq!(slots.len(), 3),
            other => panic!("expected transfer, got {other:?}"),
        }
        assert_eq!(e.staged_len(), 0);
    }

    #[test]
    fn oversized_batch_transfers_at_once() {
        let mut e = TransferEdge::stream(1, Uot::Blocks(2));
        match e.stage(vec![slot(1), slot(1), slot(1)]) {
            TransferAction::Transfer(slots) => assert_eq!(slots.len(), 3),
            other => panic!("expected transfer, got {other:?}"),
        }
    }

    #[test]
    fn table_uot_holds_until_flush() {
        let mut e = TransferEdge::stream(2, Uot::Table);
        for _ in 0..50 {
            assert!(matches!(e.stage(vec![slot(1)]), TransferAction::Hold));
        }
        assert_eq!(e.staged_len(), 50);
        let flushed = e.flush();
        assert_eq!(flushed.len(), 50);
        assert_eq!(e.staged_len(), 0);
    }

    #[test]
    fn partial_flush_on_producer_finish() {
        let mut e = TransferEdge::stream(2, Uot::Blocks(4));
        assert!(matches!(
            e.stage(vec![slot(1), slot(1)]),
            TransferAction::Hold
        ));
        assert_eq!(e.staged_len(), 2);
        let flushed = e.flush();
        assert_eq!(flushed.len(), 2, "partial accumulation must flush");
        assert!(e.flush().is_empty(), "second flush is empty");
    }

    #[test]
    fn materialization_edge_bypasses_staging() {
        let mut e = TransferEdge::materialize(4);
        match e.stage(vec![slot(1), slot(1)]) {
            TransferAction::Materialize(slots) => assert_eq!(slots.len(), 2),
            other => panic!("expected materialize, got {other:?}"),
        }
        assert_eq!(e.staged_len(), 0, "bypass edges never stage");
        assert_eq!(e.consumer(), Some(4));
        assert_eq!(e.dest(), EdgeDest::Materialize(4));
    }

    #[test]
    fn sink_edge_emits_immediately() {
        let mut e = TransferEdge::sink();
        match e.stage(vec![slot(2)]) {
            TransferAction::Emit(slots) => assert_eq!(slots.len(), 1),
            other => panic!("expected emit, got {other:?}"),
        }
        assert_eq!(e.consumer(), None);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut e = TransferEdge::stream(0, Uot::Blocks(1));
        assert!(matches!(e.stage(Vec::new()), TransferAction::Hold));
        assert_eq!(e.staged_len(), 0);
    }

    #[test]
    fn collected_bytes_accumulate_and_release() {
        let mut e = TransferEdge::materialize(3);
        e.add_collected(100);
        e.add_collected(28);
        assert_eq!(e.take_collected(), 128);
        assert_eq!(e.take_collected(), 0, "release is one-shot");
    }

    #[test]
    fn edges_default_to_solo_and_take_an_owner() {
        assert_eq!(TransferEdge::sink().query(), QueryId::SOLO);
        let e = TransferEdge::stream(1, Uot::Blocks(2)).owned_by(QueryId::new(5));
        assert_eq!(e.query(), QueryId::new(5));
    }

    #[test]
    fn blocks_zero_behaves_like_one() {
        let mut e = TransferEdge::stream(1, Uot::Blocks(0));
        assert!(matches!(
            e.stage(vec![slot(1)]),
            TransferAction::Transfer(_)
        ));
    }

    #[test]
    fn staged_slots_resolve_back_to_their_blocks() {
        let mut e = TransferEdge::stream(1, Uot::Blocks(2));
        assert!(matches!(e.stage(vec![slot(3)]), TransferAction::Hold));
        let slots = e.flush();
        assert_eq!(slots.len(), 1);
        let b = slots[0].take(None).unwrap();
        assert_eq!(b.num_rows(), 3);
    }
}
