//! Per-operator output buffering over the global block pool.
//!
//! Mirrors Quickstep's discipline (Section III-A of the paper): a work order
//! checks out a temporary block, appends its output, and returns the block
//! when it finishes; a block is held by at most one work order at a time.
//! Full blocks are emitted to the scheduler immediately; partially filled
//! blocks go back to the operator's partial list so the next work order can
//! keep filling them, and are flushed when the operator finishes.

use crate::Result;
use parking_lot::Mutex;
use std::sync::Arc;
use uot_storage::{BlockFormat, BlockPool, Schema, StorageBlock};

/// Thread-safe output staging for one operator.
#[derive(Debug)]
pub struct OutputBuffer {
    schema: Arc<Schema>,
    format: BlockFormat,
    block_bytes: usize,
    partials: Mutex<Vec<StorageBlock>>,
}

impl OutputBuffer {
    /// Create a buffer producing blocks of the given shape.
    pub fn new(schema: Arc<Schema>, format: BlockFormat, block_bytes: usize) -> Self {
        OutputBuffer {
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
    pub fn checkout(&self, pool: &BlockPool) -> Result<StorageBlock> {
        if let Some(b) = self.partials.lock().pop() {
            return Ok(b);
        }
        Ok(pool.checkout(&self.schema, self.format, self.block_bytes)?)
    }

    /// Return a block after a work order finishes with it. Empty blocks go
    /// back to the pool; non-empty, non-full blocks join the partial list.
    /// Full blocks should be emitted, not put back (enforced by debug
    /// assertion).
    pub fn put_back(&self, block: StorageBlock, pool: &BlockPool) {
        debug_assert!(!block.is_full(), "full blocks must be emitted");
        if block.num_rows() == 0 {
            pool.give_back(block);
        } else {
            self.partials.lock().push(block);
        }
    }

    /// Copy every row of `src` into checked-out blocks. Returns the blocks
    /// that became **full** during the copy; a trailing partial block is
    /// retained internally. Each block is filled by one bulk
    /// [`StorageBlock::append_range`] (a typed loop per column), and a full
    /// block is swapped for a fresh checkout at once. On a failed checkout
    /// mid-copy every block this call holds is discarded, so the tracker does
    /// not leak bytes on error paths (the query is failing; partial rows die
    /// with it).
    pub fn write_rows(&self, src: &StorageBlock, pool: &BlockPool) -> Result<Vec<StorageBlock>> {
        debug_assert_eq!(src.schema().len(), self.schema.len());
        let mut completed = Vec::new();
        let n = src.num_rows();
        if n == 0 {
            return Ok(completed);
        }
        let mut cur = self.checkout(pool)?;
        let mut row = 0;
        while row < n {
            row += cur.append_range(src, row);
            if cur.is_full() {
                match self.checkout(pool) {
                    Ok(next) => completed.push(std::mem::replace(&mut cur, next)),
                    Err(e) => {
                        for b in completed {
                            pool.discard(b);
                        }
                        pool.discard(cur);
                        return Err(e);
                    }
                }
            }
        }
        self.put_back(cur, pool);
        Ok(completed)
    }

    /// Drain all partially filled blocks (the operator has finished). Empty
    /// list when everything happened to fill exactly.
    pub fn flush(&self) -> Vec<StorageBlock> {
        let mut partials = self.partials.lock();
        partials.drain(..).filter(|b| b.num_rows() > 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uot_storage::{DataType, MemoryTracker, Value};

    fn setup(block_bytes: usize) -> (Arc<BlockPool>, OutputBuffer, Arc<Schema>) {
        let schema = Schema::from_pairs(&[("k", DataType::Int32)]);
        let pool = BlockPool::new(MemoryTracker::new());
        let buf = OutputBuffer::new(schema.clone(), BlockFormat::Row, block_bytes);
        (pool, buf, schema)
    }

    fn src_block(schema: &Arc<Schema>, n: i32) -> StorageBlock {
        let mut b = StorageBlock::new(schema.clone(), BlockFormat::Column, 1 << 16).unwrap();
        for i in 0..n {
            b.append_row(&[Value::I32(i)]).unwrap();
        }
        b
    }

    #[test]
    fn write_rows_splits_into_blocks() {
        let (pool, buf, schema) = setup(16); // 4 rows per block
        let src = src_block(&schema, 10);
        let completed = buf.write_rows(&src, &pool).unwrap();
        assert_eq!(completed.len(), 2);
        assert!(completed.iter().all(|b| b.is_full()));
        let rest = buf.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].num_rows(), 2);
    }

    #[test]
    fn partials_are_continued_by_next_work_order() {
        let (pool, buf, schema) = setup(16);
        // First "work order" writes 2 rows -> one partial.
        buf.write_rows(&src_block(&schema, 2), &pool).unwrap();
        // Second writes 3 rows: fills the partial (4) and starts another (1).
        let completed = buf.write_rows(&src_block(&schema, 3), &pool).unwrap();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].num_rows(), 4);
        let rest = buf.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].num_rows(), 1);
        // pool stats: exactly 2 blocks were ever created
        assert_eq!(pool.stats().created, 2);
    }

    #[test]
    fn empty_source_writes_nothing() {
        let (pool, buf, schema) = setup(16);
        let completed = buf.write_rows(&src_block(&schema, 0), &pool).unwrap();
        assert!(completed.is_empty());
        assert!(buf.flush().is_empty());
        assert_eq!(pool.stats().created, 0);
    }

    #[test]
    fn exact_fill_leaves_no_partial() {
        let (pool, buf, schema) = setup(16);
        let completed = buf.write_rows(&src_block(&schema, 8), &pool).unwrap();
        assert_eq!(completed.len(), 2);
        assert!(buf.flush().is_empty());
        // The trailing empty checkout went back to the pool.
        assert_eq!(pool.stats().returned, 1);
    }

    #[test]
    fn put_back_empty_goes_to_pool() {
        let (pool, buf, _schema) = setup(16);
        let b = buf.checkout(&pool).unwrap();
        buf.put_back(b, &pool);
        assert!(buf.flush().is_empty());
        assert_eq!(pool.stats().returned, 1);
    }

    #[test]
    fn contents_preserved_across_splits() {
        let (pool, buf, schema) = setup(16);
        let src = src_block(&schema, 11);
        let mut all = Vec::new();
        for b in buf.write_rows(&src, &pool).unwrap() {
            all.extend(b.all_rows());
        }
        for b in buf.flush() {
            all.extend(b.all_rows());
        }
        let got: Vec<i32> = all.iter().map(|r| r[0].as_i32()).collect();
        assert_eq!(got, (0..11).collect::<Vec<_>>());
    }
}
