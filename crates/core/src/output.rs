//! Per-operator output buffering over the global block pool.
//!
//! Mirrors Quickstep's discipline (Section III-A of the paper): a work order
//! checks out a temporary block, appends its output, and returns the block
//! when it finishes; a block is held by at most one work order at a time.
//! Partially filled blocks go back to the operator's partial list so the
//! next work order can keep filling them, and are flushed when the operator
//! finishes.
//!
//! A block leaves the buffer as a [`SpillSlot`] the moment it is complete —
//! when it fills, or when the finished operator flushes it — and is one of
//! the pool's eviction victims from then on, until whoever consumes it
//! takes it out. So a work order whose output outgrows the budget by itself
//! (one probe block that joins thousands of build rows, or a grace join's
//! skewed partition) makes room for its next checkout by evicting the
//! blocks it already completed. Without a spill tier a slot is only a
//! wrapper: nothing is registered and nothing is ever evicted.

use crate::Result;
use parking_lot::Mutex;
use std::sync::Arc;
use uot_storage::{BlockFormat, BlockPool, Schema, SpillSlot, StorageBlock};

/// The completed blocks a work order produced, each in its spill slot.
pub type Produced = Vec<Arc<SpillSlot>>;

/// Thread-safe output staging for one operator.
#[derive(Debug)]
pub struct OutputBuffer {
    /// The producing operator, which spill events of its blocks name.
    op: usize,
    schema: Arc<Schema>,
    format: BlockFormat,
    block_bytes: usize,
    /// Partially filled blocks, never empty.
    partials: Mutex<Vec<StorageBlock>>,
}

impl OutputBuffer {
    /// Create operator `op`'s buffer, producing blocks of the given shape.
    pub fn new(op: usize, schema: Arc<Schema>, format: BlockFormat, block_bytes: usize) -> Self {
        OutputBuffer {
            op,
            schema,
            format,
            block_bytes,
            partials: Mutex::new(Vec::new()),
        }
    }

    /// Schema of produced blocks.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Take a block to write into: a partially filled one if available,
    /// otherwise a fresh checkout from `pool`.
    fn checkout(&self, pool: &BlockPool) -> Result<StorageBlock> {
        if let Some(b) = self.partials.lock().pop() {
            return Ok(b);
        }
        Ok(pool.checkout(&self.schema, self.format, self.block_bytes)?)
    }

    /// A completed block becomes a slot and an eviction victim — the one
    /// place produced blocks do.
    fn seal(&self, block: StorageBlock, pool: &BlockPool) -> Arc<SpillSlot> {
        let slot = SpillSlot::new(Arc::new(block), self.op);
        pool.register_victim(&slot);
        slot
    }

    /// Copy every row of `src` into checked-out blocks. Returns the blocks
    /// that became **full** during the copy, each sealed before the next
    /// checkout, so a checkout the budget refuses can evict them; a trailing
    /// partial block is retained internally. Each block is filled by one
    /// bulk [`StorageBlock::append_range`] (a typed loop per column). On a
    /// failed checkout mid-copy this call's completed blocks are discarded,
    /// so the tracker does not leak bytes on error paths (the query is
    /// failing; partial rows die with it).
    pub fn write_rows(&self, src: &StorageBlock, pool: &BlockPool) -> Result<Produced> {
        debug_assert_eq!(src.schema().len(), self.schema.len());
        let mut completed: Produced = Vec::new();
        let mut row = 0;
        while row < src.num_rows() {
            let mut cur = match self.checkout(pool) {
                Ok(b) => b,
                Err(e) => {
                    let store = pool.spill_store();
                    for slot in completed {
                        slot.discard(pool.tracker(), store.as_deref());
                    }
                    return Err(e);
                }
            };
            row += cur.append_range(src, row);
            if cur.is_full() {
                completed.push(self.seal(cur, pool));
            } else {
                // Only the last block of the copy can have room left.
                self.partials.lock().push(cur);
            }
        }
        Ok(completed)
    }

    /// Seal and drain all partially filled blocks (the operator has
    /// finished). Empty when everything happened to fill exactly.
    pub fn flush(&self, pool: &BlockPool) -> Produced {
        let partials = std::mem::take(&mut *self.partials.lock());
        partials.into_iter().map(|b| self.seal(b, pool)).collect()
    }
}

/// Take the blocks out of `slots` in order, faulting evicted ones back in
/// from `pool`'s spill tier — for consumers that hold their input in bulk
/// (the query result, a sort's input, a nested-loops join's inner side).
/// On a failed fault-in every block is released, taken or not.
pub fn into_blocks(slots: Produced, pool: &BlockPool) -> Result<Vec<Arc<StorageBlock>>> {
    let store = pool.spill_store();
    let mut blocks = Vec::with_capacity(slots.len());
    let mut slots = slots.into_iter();
    while let Some(slot) = slots.next() {
        match slot.take(store.as_deref()) {
            Ok(b) => blocks.push(b),
            Err(e) => {
                let taken = blocks.iter().map(|b| b.allocated_bytes()).sum();
                pool.tracker().free(taken);
                for rest in slots {
                    rest.discard(pool.tracker(), store.as_deref());
                }
                return Err(e.into());
            }
        }
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uot_storage::{DataType, MemoryTracker, SpillStore, Value};

    fn setup(block_bytes: usize) -> (Arc<BlockPool>, OutputBuffer, Arc<Schema>) {
        let schema = Schema::from_pairs(&[("k", DataType::Int32)]);
        let pool = BlockPool::new(MemoryTracker::new());
        let buf = OutputBuffer::new(3, schema.clone(), BlockFormat::Row, block_bytes);
        (pool, buf, schema)
    }

    fn src_block(schema: &Arc<Schema>, n: i32) -> StorageBlock {
        let mut b = StorageBlock::new(schema.clone(), BlockFormat::Column, 1 << 16).unwrap();
        for i in 0..n {
            b.append_row(&[Value::I32(i)]).unwrap();
        }
        b
    }

    fn rows_of(slots: Produced, pool: &BlockPool) -> Vec<i32> {
        let blocks = into_blocks(slots, pool).unwrap();
        blocks
            .iter()
            .flat_map(|b| b.all_rows())
            .map(|r| r[0].as_i32())
            .collect()
    }

    #[test]
    fn write_rows_splits_into_blocks() {
        let (pool, buf, schema) = setup(16); // 4 rows per block
        let src = src_block(&schema, 10);
        let completed = buf.write_rows(&src, &pool).unwrap();
        assert_eq!(completed.len(), 2);
        assert!(completed.iter().all(|s| s.rows() == 4));
        let rest = buf.flush(&pool);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].rows(), 2);
    }

    #[test]
    fn partials_are_continued_by_next_work_order() {
        let (pool, buf, schema) = setup(16);
        // First "work order" writes 2 rows -> one partial.
        buf.write_rows(&src_block(&schema, 2), &pool).unwrap();
        // Second writes 3 rows: fills the partial (4) and starts another (1).
        let completed = buf.write_rows(&src_block(&schema, 3), &pool).unwrap();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].rows(), 4);
        let rest = buf.flush(&pool);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].rows(), 1);
        // pool stats: exactly 2 blocks were ever created
        assert_eq!(pool.stats().created, 2);
    }

    #[test]
    fn empty_source_writes_nothing() {
        let (pool, buf, schema) = setup(16);
        let completed = buf.write_rows(&src_block(&schema, 0), &pool).unwrap();
        assert!(completed.is_empty());
        assert!(buf.flush(&pool).is_empty());
        assert_eq!(pool.stats().created, 0);
    }

    #[test]
    fn exact_fill_leaves_no_partial() {
        let (pool, buf, schema) = setup(16);
        let completed = buf.write_rows(&src_block(&schema, 8), &pool).unwrap();
        assert_eq!(completed.len(), 2);
        assert!(buf.flush(&pool).is_empty());
        // Nothing is checked out past the last row.
        assert_eq!(pool.stats().created, 2);
        assert_eq!(pool.stats().returned, 0);
    }

    #[test]
    fn contents_preserved_across_splits() {
        let (pool, buf, schema) = setup(16);
        let src = src_block(&schema, 11);
        let mut slots = buf.write_rows(&src, &pool).unwrap();
        slots.extend(buf.flush(&pool));
        assert_eq!(rows_of(slots, &pool), (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn completed_blocks_are_victims_only_under_a_spill_tier() {
        let (pool, buf, schema) = setup(16);
        buf.write_rows(&src_block(&schema, 10), &pool).unwrap();
        buf.flush(&pool);
        assert_eq!(pool.victims(), 0, "no tier, nothing registered");
        pool.enable_spill(SpillStore::new(None, pool.tracker().clone()));
        let completed = buf.write_rows(&src_block(&schema, 10), &pool).unwrap();
        assert_eq!(pool.victims(), 2);
        assert!(completed.iter().all(|s| s.tag() == 3));
        buf.flush(&pool);
        assert_eq!(pool.victims(), 3, "flushed partials are victims too");
    }

    /// A budget of two 4-row blocks, and a buffer over it: a 40-row copy
    /// needs ten blocks.
    fn tight(schema: &Arc<Schema>) -> (Arc<MemoryTracker>, Arc<BlockPool>, OutputBuffer) {
        let block = StorageBlock::new(schema.clone(), BlockFormat::Row, 16).unwrap();
        let tracker = MemoryTracker::new();
        let pool = BlockPool::with_budget(tracker.clone(), 2 * block.allocated_bytes());
        let buf = OutputBuffer::new(3, schema.clone(), BlockFormat::Row, 16);
        (tracker, pool, buf)
    }

    #[test]
    fn refused_checkout_spills_the_copys_own_blocks() {
        let schema = Schema::from_pairs(&[("k", DataType::Int32)]);
        let (tracker, pool, buf) = tight(&schema);
        let store = SpillStore::new(None, tracker.clone());
        pool.enable_spill(store.clone());
        let completed = buf.write_rows(&src_block(&schema, 40), &pool).unwrap();
        assert_eq!(completed.len(), 10);
        assert!(
            store.stats().spill_events >= 8,
            "each checkout past the second evicts"
        );
        assert!(completed.iter().filter(|s| s.is_spilled()).count() >= 8);
        assert!(buf.flush(&pool).is_empty());
        let bytes: usize = completed.iter().map(|s| s.bytes()).sum();
        assert_eq!(rows_of(completed, &pool), (0..40).collect::<Vec<_>>());
        // The taken blocks, faulted back in, are the caller's to release.
        tracker.free(bytes);
        pool.drain_free_lists();
        assert_eq!(tracker.current_bytes(), 0);
        assert_eq!(store.live_files(), 0);
    }

    #[test]
    fn refused_checkout_without_a_spill_tier_fails_clean() {
        let schema = Schema::from_pairs(&[("k", DataType::Int32)]);
        let (tracker, pool, buf) = tight(&schema);
        let err = buf.write_rows(&src_block(&schema, 40), &pool).unwrap_err();
        use uot_storage::StorageError::BudgetExceeded;
        assert!(
            matches!(err, crate::EngineError::Storage(BudgetExceeded { .. })),
            "{err}"
        );
        assert!(buf.flush(&pool).is_empty());
        assert_eq!(
            tracker.current_bytes(),
            0,
            "the completed blocks were released"
        );
        assert_eq!(pool.victims(), 0, "nothing was registered");
    }
}
