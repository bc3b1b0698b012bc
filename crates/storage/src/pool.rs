//! The global temporary-block pool and memory accounting.
//!
//! Quickstep (Section III-A of the paper) keeps "a thread-safe global pool of
//! partially filled temporary storage blocks": a work order checks a block
//! out, writes its output, and returns it, so each block is touched by at
//! most one work order at a time. [`BlockPool`] reproduces that design and
//! adds precise byte accounting via [`MemoryTracker`], which the memory
//! experiments (Section VI) read.
//!
//! Reuse can be disabled (`reuse_enabled(false)`) to quantify how much the
//! pool actually saves — the `ablation_pool` experiment.

use crate::block::{BlockFormat, StorageBlock};
use crate::schema::Schema;
use crate::spill::{SpillSlot, SpillStore};
use crate::Result;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Thread-safe allocation meter.
///
/// Tracks bytes currently allocated to blocks and the high-water mark. Shared
/// (`Arc`) between the pool, tables and the engine.
#[derive(Debug, Default)]
pub struct MemoryTracker {
    current: AtomicUsize,
    peak: AtomicUsize,
    total_allocated: AtomicUsize,
    /// Optional upstream tracker every charge/release is mirrored to, with
    /// the budget enforced at that level. Lets a per-query tracker carve its
    /// reservation out of a process-wide pool: the query-local budget bounds
    /// one query, the parent budget bounds the sum across queries.
    parent: Option<(Arc<MemoryTracker>, usize)>,
}

impl MemoryTracker {
    /// New tracker with all counters at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(MemoryTracker::default())
    }

    /// New tracker that mirrors every charge and release into `parent` and
    /// refuses `try_alloc` when the *parent's* total would exceed
    /// `parent_budget`. When the child drains back to zero, so does its
    /// contribution to the parent — the existing per-query teardown
    /// invariants compose into a global "pool returns to 0" guarantee.
    pub fn with_parent(parent: Arc<MemoryTracker>, parent_budget: usize) -> Arc<Self> {
        Arc::new(MemoryTracker {
            parent: Some((parent, parent_budget)),
            ..MemoryTracker::default()
        })
    }

    /// Record an allocation of `bytes`.
    pub fn alloc(&self, bytes: usize) {
        if let Some((parent, _)) = &self.parent {
            parent.alloc(bytes);
        }
        let cur = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.total_allocated.fetch_add(bytes, Ordering::Relaxed);
        self.peak.fetch_max(cur, Ordering::Relaxed);
    }

    /// Record an allocation of `bytes` only if the resulting total stays
    /// within `limit` — and, for a parented tracker, within the parent's
    /// budget as well. Each check-and-charge is a single atomic update, so
    /// concurrent allocators can never jointly overshoot either limit. A
    /// refusal says which level refused and the occupancy it refused at, so
    /// an error built from it shows what the check saw, not what a later
    /// read finds after other threads moved the counter.
    pub fn try_alloc(&self, bytes: usize, limit: usize) -> std::result::Result<(), Refusal> {
        if let Some((parent, parent_budget)) = &self.parent {
            parent.try_alloc(bytes, *parent_budget).map_err(
                |(Refusal::Local(in_use) | Refusal::Parent(in_use))| Refusal::Parent(in_use),
            )?;
        }
        match self
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                cur.checked_add(bytes).filter(|&next| next <= limit)
            }) {
            Ok(prev) => {
                self.total_allocated.fetch_add(bytes, Ordering::Relaxed);
                self.peak.fetch_max(prev + bytes, Ordering::Relaxed);
                Ok(())
            }
            Err(in_use) => {
                // Back out the speculative parent charge.
                if let Some((parent, _)) = &self.parent {
                    parent.free(bytes);
                }
                Err(Refusal::Local(in_use))
            }
        }
    }

    /// Record a release of `bytes`.
    pub fn free(&self, bytes: usize) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
        if let Some((parent, _)) = &self.parent {
            parent.free(bytes);
        }
    }

    /// For a parented tracker: the parent's current bytes and the budget
    /// enforced at the parent level. `None` for a standalone tracker.
    pub fn parent_usage(&self) -> Option<(usize, usize)> {
        self.parent
            .as_ref()
            .map(|(parent, budget)| (parent.current_bytes(), *budget))
    }

    /// Bytes currently allocated.
    pub fn current_bytes(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Cumulative bytes ever allocated (ignores frees).
    pub fn total_allocated_bytes(&self) -> usize {
        self.total_allocated.load(Ordering::Relaxed)
    }

    /// Reset peak to the current level (between experiment phases).
    pub fn reset_peak(&self) {
        self.peak
            .store(self.current.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Why [`MemoryTracker::try_alloc`] refused a charge: the level whose limit
/// it would have crossed, with that level's bytes in use when it refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The tracker's own limit (a query's budget).
    Local(usize),
    /// The parent's budget (the process-wide pool a query's share is carved
    /// from).
    Parent(usize),
}

/// Key identifying a free-list: blocks are only reusable for the same
/// (schema, format, size) combination because column blocks hold typed
/// vectors.
#[derive(PartialEq, Eq, Hash)]
struct PoolKey(Arc<Schema>, BlockFormat, usize);

/// Counters describing pool behavior, for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Blocks newly allocated because no reusable block existed.
    pub created: usize,
    /// Checkouts served from the free lists.
    pub reused: usize,
    /// Blocks returned to the pool.
    pub returned: usize,
    /// Blocks discarded (memory released).
    pub discarded: usize,
}

/// Thread-safe pool of reusable temporary storage blocks.
#[derive(Debug)]
pub struct BlockPool {
    tracker: Arc<MemoryTracker>,
    free: Mutex<HashMap<PoolKey, Vec<StorageBlock>>>,
    reuse: AtomicBool,
    /// Allocation budget in bytes; `usize::MAX` means unlimited.
    budget: AtomicUsize,
    created: AtomicUsize,
    reused: AtomicUsize,
    returned: AtomicUsize,
    discarded: AtomicUsize,
    /// Optional disk tier. With a store installed, a checkout that would
    /// exceed the budget evicts cold registered victims instead of failing.
    spill: Mutex<Option<Arc<SpillStore>>>,
    /// Eviction candidates in registration order; the newest is evicted
    /// first. Slots that were meanwhile taken or spilled are dropped when
    /// they reach either end.
    victims: Mutex<VecDeque<Arc<SpillSlot>>>,
}

// PoolKey's manual Debug via the map would be noisy; keep the derive happy.
impl std::fmt::Debug for PoolKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PoolKey({}, {:?}, {})", self.0, self.1, self.2)
    }
}

impl BlockPool {
    /// Create a pool metering through `tracker`, with no allocation budget.
    pub fn new(tracker: Arc<MemoryTracker>) -> Arc<Self> {
        BlockPool::with_budget(tracker, usize::MAX)
    }

    /// Create a pool metering through `tracker` that refuses allocations once
    /// the tracker's current bytes would exceed `budget`. Checkouts past the
    /// budget return [`StorageError::BudgetExceeded`] instead of growing;
    /// reuse of already-charged free-list blocks is always allowed (it does
    /// not allocate).
    pub fn with_budget(tracker: Arc<MemoryTracker>, budget: usize) -> Arc<Self> {
        Arc::new(BlockPool {
            tracker,
            free: Mutex::new(HashMap::new()),
            reuse: AtomicBool::new(true),
            budget: AtomicUsize::new(budget),
            created: AtomicUsize::new(0),
            reused: AtomicUsize::new(0),
            returned: AtomicUsize::new(0),
            discarded: AtomicUsize::new(0),
            spill: Mutex::new(None),
            victims: Mutex::new(VecDeque::new()),
        })
    }

    /// Install the disk tier: checkouts past the budget now evict cold
    /// registered victims ([`BlockPool::register_victim`]) and retry before
    /// surfacing [`StorageError::BudgetExceeded`](crate::StorageError::BudgetExceeded).
    pub fn enable_spill(&self, store: Arc<SpillStore>) {
        *self.spill.lock() = Some(store);
    }

    /// The installed disk tier, if any.
    pub fn spill_store(&self) -> Option<Arc<SpillStore>> {
        self.spill.lock().clone()
    }

    /// Offer a produced block as an eviction candidate. No-op without a
    /// spill tier. Consumers take blocks in about the order they were
    /// produced, so the newest victim is the one needed last and is evicted
    /// first. Slots already taken are dropped from both ends here, so a
    /// query that never meets pressure does not keep one entry per block it
    /// ever produced.
    pub fn register_victim(&self, slot: &Arc<SpillSlot>) {
        if self.spill.lock().is_some() {
            let mut victims = self.victims.lock();
            while victims.front().is_some_and(|s| s.is_taken()) {
                victims.pop_front();
            }
            while victims.back().is_some_and(|s| s.is_taken()) {
                victims.pop_back();
            }
            victims.push_back(slot.clone());
        }
    }

    /// Registered eviction candidates not pruned yet (taken slots leave the
    /// list lazily, at its ends).
    pub fn victims(&self) -> usize {
        self.victims.lock().len()
    }

    /// Release RAM by draining idle free-list blocks, then evicting the
    /// newest spillable victim. Returns the bytes released (`0` = nothing
    /// left to reclaim). Errors only on a spill-I/O failure.
    fn reclaim_some(&self, store: &SpillStore) -> Result<usize> {
        let freed = self.drain_free_lists();
        if freed > 0 {
            return Ok(freed);
        }
        loop {
            let slot = match self.victims.lock().pop_back() {
                Some(s) => s,
                None => return Ok(0),
            };
            let freed = slot.try_evict(store)?;
            if freed > 0 {
                // Still staged, now on disk: keep it known so teardown paths
                // that walk the scheduler's edges find it there.
                return Ok(freed);
            }
            // Taken or already spilled: drop it and keep looking.
        }
    }

    /// Change the allocation budget (`None` = unlimited). Takes effect for
    /// subsequent checkouts; already-allocated blocks are never reclaimed.
    pub fn set_budget(&self, budget: Option<usize>) {
        self.budget
            .store(budget.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    /// The configured allocation budget, if any.
    pub fn budget(&self) -> Option<usize> {
        let b = self.budget.load(Ordering::Relaxed);
        (b != usize::MAX).then_some(b)
    }

    /// Enable or disable block reuse (the `ablation_pool` knob). With reuse
    /// off, `give_back` releases the block's memory immediately and every
    /// checkout allocates fresh.
    pub fn set_reuse_enabled(&self, enabled: bool) {
        self.reuse.store(enabled, Ordering::Relaxed);
    }

    /// The tracker this pool meters through.
    pub fn tracker(&self) -> &Arc<MemoryTracker> {
        &self.tracker
    }

    /// Check out an empty block of the requested shape: reuses a returned
    /// block when possible, otherwise allocates a new one.
    pub fn checkout(
        &self,
        schema: &Arc<Schema>,
        format: BlockFormat,
        capacity_bytes: usize,
    ) -> Result<StorageBlock> {
        if self.reuse.load(Ordering::Relaxed) {
            let mut free = self.free.lock();
            if let Some(list) = free.get_mut(&PoolKey(schema.clone(), format, capacity_bytes)) {
                if let Some(mut b) = list.pop() {
                    drop(free);
                    b.clear();
                    self.reused.fetch_add(1, Ordering::Relaxed);
                    return Ok(b);
                }
            }
        }
        let b = StorageBlock::new(schema.clone(), format, capacity_bytes)?;
        let bytes = b.allocated_bytes();
        let budget = self.budget.load(Ordering::Relaxed);
        while let Err(refusal) = self.tracker.try_alloc(bytes, budget) {
            // Second tier: push cold staged blocks out to disk and retry.
            // Each round either releases bytes or proves nothing is left to
            // reclaim, so the loop terminates.
            if let Some(store) = self.spill_store() {
                if self.reclaim_some(&store)? > 0 {
                    continue;
                }
            }
            // `b` was never charged; dropping it here leaves accounting
            // untouched, so a failed checkout is side-effect free. The
            // refusing level reports the occupancy it refused at; the other
            // level's is read now.
            let parent = self.tracker.parent_usage();
            let (in_use, global_in_use) = match refusal {
                Refusal::Local(refused) => (refused, parent.map_or(refused, |(global, _)| global)),
                Refusal::Parent(refused) => (self.tracker.current_bytes(), refused),
            };
            let global_budget = parent.map_or(budget, |(_, global_budget)| global_budget);
            return Err(crate::error::StorageError::BudgetExceeded {
                requested: bytes,
                in_use,
                budget,
                global_in_use,
                global_budget,
            });
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        Ok(b)
    }

    /// Return a block to the pool for reuse. Its contents are discarded; its
    /// memory stays allocated (it is still counted by the tracker) so that it
    /// can be handed out again without a fresh allocation.
    pub fn give_back(&self, mut block: StorageBlock) {
        if !self.reuse.load(Ordering::Relaxed) {
            self.discard(block);
            return;
        }
        self.returned.fetch_add(1, Ordering::Relaxed);
        block.clear();
        let key = PoolKey(
            block.schema().clone(),
            block.format(),
            block.allocated_bytes(),
        );
        // invariant: parking_lot mutexes cannot poison, so `lock()` cannot
        // fail even if a holder panicked (panics are contained upstream).
        self.free.lock().entry(key).or_default().push(block);
    }

    /// Drop a block and release its memory from the tracker.
    pub fn discard(&self, block: StorageBlock) {
        self.discarded.fetch_add(1, Ordering::Relaxed);
        self.tracker.free(block.allocated_bytes());
        drop(block);
    }

    /// Release every pooled free block (e.g. at the end of a query, or as
    /// the cheapest reclaim step under memory pressure). Returns the bytes
    /// released.
    pub fn drain_free_lists(&self) -> usize {
        let mut free = self.free.lock();
        let mut freed = 0;
        for (_, list) in free.drain() {
            for b in list {
                self.discarded.fetch_add(1, Ordering::Relaxed);
                freed += b.allocated_bytes();
                self.tracker.free(b.allocated_bytes());
            }
        }
        freed
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            created: self.created.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            returned: self.returned.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;
    use crate::value::Value;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[("k", DataType::Int32)])
    }

    #[test]
    fn tracker_counts_and_peaks() {
        let t = MemoryTracker::new();
        t.alloc(100);
        t.alloc(50);
        assert_eq!(t.current_bytes(), 150);
        assert_eq!(t.peak_bytes(), 150);
        t.free(100);
        assert_eq!(t.current_bytes(), 50);
        assert_eq!(t.peak_bytes(), 150);
        t.alloc(10);
        assert_eq!(t.peak_bytes(), 150); // below old peak
        assert_eq!(t.total_allocated_bytes(), 160);
        t.reset_peak();
        assert_eq!(t.peak_bytes(), 60);
    }

    #[test]
    fn checkout_allocates_and_meters() {
        let t = MemoryTracker::new();
        let p = BlockPool::new(t.clone());
        let b = p.checkout(&schema(), BlockFormat::Row, 1024).unwrap();
        assert_eq!(t.current_bytes(), b.allocated_bytes());
        assert_eq!(p.stats().created, 1);
    }

    #[test]
    fn give_back_enables_reuse() {
        let t = MemoryTracker::new();
        let p = BlockPool::new(t.clone());
        let mut b = p.checkout(&schema(), BlockFormat::Row, 1024).unwrap();
        b.append_row(&[Value::I32(1)]).unwrap();
        let bytes = b.allocated_bytes();
        p.give_back(b);
        assert_eq!(t.current_bytes(), bytes); // memory retained for reuse
        let b2 = p.checkout(&schema(), BlockFormat::Row, 1024).unwrap();
        assert_eq!(b2.num_rows(), 0); // cleared
        assert_eq!(p.stats().reused, 1);
        assert_eq!(p.stats().created, 1); // no second allocation
        assert_eq!(t.current_bytes(), bytes);
    }

    #[test]
    fn mismatched_shapes_do_not_reuse() {
        let t = MemoryTracker::new();
        let p = BlockPool::new(t);
        let b = p.checkout(&schema(), BlockFormat::Row, 1024).unwrap();
        p.give_back(b);
        // Different format
        let _ = p.checkout(&schema(), BlockFormat::Column, 1024).unwrap();
        // Different size
        let _ = p.checkout(&schema(), BlockFormat::Row, 2048).unwrap();
        // Different schema
        let s2 = Schema::from_pairs(&[("x", DataType::Int64)]);
        let _ = p.checkout(&s2, BlockFormat::Row, 1024).unwrap();
        assert_eq!(p.stats().created, 4);
        assert_eq!(p.stats().reused, 0);
    }

    #[test]
    fn discard_releases_memory() {
        let t = MemoryTracker::new();
        let p = BlockPool::new(t.clone());
        let b = p.checkout(&schema(), BlockFormat::Row, 1024).unwrap();
        p.discard(b);
        assert_eq!(t.current_bytes(), 0);
        assert!(t.peak_bytes() > 0);
    }

    #[test]
    fn reuse_disabled_discards_on_return() {
        let t = MemoryTracker::new();
        let p = BlockPool::new(t.clone());
        p.set_reuse_enabled(false);
        let b = p.checkout(&schema(), BlockFormat::Row, 1024).unwrap();
        p.give_back(b);
        assert_eq!(t.current_bytes(), 0);
        let _b2 = p.checkout(&schema(), BlockFormat::Row, 1024).unwrap();
        assert_eq!(p.stats().created, 2);
        assert_eq!(p.stats().reused, 0);
    }

    #[test]
    fn drain_free_lists_releases_all() {
        let t = MemoryTracker::new();
        let p = BlockPool::new(t.clone());
        // Three live blocks at once, all returned: three entries on the free list.
        let blocks: Vec<_> = (0..3)
            .map(|_| p.checkout(&schema(), BlockFormat::Row, 1024).unwrap())
            .collect();
        for b in blocks {
            p.give_back(b);
        }
        assert!(t.current_bytes() > 0);
        p.drain_free_lists();
        assert_eq!(t.current_bytes(), 0);
        assert_eq!(p.stats().discarded, 3);
    }

    #[test]
    fn budget_allows_checkouts_under_it() {
        let t = MemoryTracker::new();
        let p = BlockPool::with_budget(t.clone(), 1 << 20);
        let b = p.checkout(&schema(), BlockFormat::Row, 1024).unwrap();
        assert_eq!(t.current_bytes(), b.allocated_bytes());
        assert_eq!(p.budget(), Some(1 << 20));
    }

    #[test]
    fn over_budget_checkout_fails_without_side_effects() {
        let t = MemoryTracker::new();
        let p = BlockPool::with_budget(t.clone(), 4096);
        let b = p.checkout(&schema(), BlockFormat::Row, 2048).unwrap();
        let in_use = t.current_bytes();
        let created = p.stats().created;
        let err = p.checkout(&schema(), BlockFormat::Row, 4096).unwrap_err();
        match err {
            crate::StorageError::BudgetExceeded {
                requested,
                in_use: reported,
                budget,
                global_in_use,
                global_budget,
            } => {
                assert!(requested >= 4096);
                assert_eq!(reported, in_use);
                assert_eq!(budget, 4096);
                // Standalone pool: global mirrors local.
                assert_eq!(global_in_use, in_use);
                assert_eq!(global_budget, 4096);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // Accounting and counters unchanged by the failed checkout.
        assert_eq!(t.current_bytes(), in_use);
        assert_eq!(p.stats().created, created);
        drop(b);
    }

    #[test]
    fn reuse_path_ignores_budget() {
        let t = MemoryTracker::new();
        let p = BlockPool::with_budget(t.clone(), usize::MAX);
        let b = p.checkout(&schema(), BlockFormat::Row, 2048).unwrap();
        p.give_back(b);
        // Tighten the budget below what is already charged: reuse still works
        // because pooled blocks are already paid for.
        p.set_budget(Some(1));
        let b2 = p.checkout(&schema(), BlockFormat::Row, 2048).unwrap();
        assert_eq!(p.stats().reused, 1);
        // ... but a fresh allocation of a different shape is refused.
        assert!(matches!(
            p.checkout(&schema(), BlockFormat::Column, 2048),
            Err(crate::StorageError::BudgetExceeded { .. })
        ));
        drop(b2);
    }

    #[test]
    fn set_budget_none_lifts_the_cap() {
        let t = MemoryTracker::new();
        let p = BlockPool::with_budget(t, 1);
        assert!(p.checkout(&schema(), BlockFormat::Row, 1024).is_err());
        p.set_budget(None);
        assert_eq!(p.budget(), None);
        assert!(p.checkout(&schema(), BlockFormat::Row, 1024).is_ok());
    }

    #[test]
    fn try_alloc_is_exact_at_the_limit() {
        let t = MemoryTracker::new();
        assert!(t.try_alloc(60, 100).is_ok());
        assert!(t.try_alloc(40, 100).is_ok()); // exactly at the limit is allowed
        assert_eq!(t.try_alloc(1, 100), Err(Refusal::Local(100))); // one past is not
        assert_eq!(t.current_bytes(), 100);
        assert_eq!(t.peak_bytes(), 100);
        assert_eq!(t.total_allocated_bytes(), 100); // failed charge not counted
        t.free(100);
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn concurrent_try_alloc_never_overshoots() {
        let t = MemoryTracker::new();
        let granted = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = t.clone();
                let granted = &granted;
                scope.spawn(move || {
                    for _ in 0..100 {
                        if t.try_alloc(7, 301).is_ok() {
                            granted.fetch_add(7, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(t.current_bytes() <= 301);
        assert_eq!(t.current_bytes(), granted.load(Ordering::Relaxed));
    }

    #[test]
    fn parented_tracker_mirrors_charges_and_releases() {
        let global = MemoryTracker::new();
        let a = MemoryTracker::with_parent(global.clone(), 1000);
        let b = MemoryTracker::with_parent(global.clone(), 1000);
        a.alloc(100);
        b.alloc(200);
        assert_eq!(a.current_bytes(), 100);
        assert_eq!(b.current_bytes(), 200);
        assert_eq!(global.current_bytes(), 300);
        assert_eq!(a.parent_usage(), Some((300, 1000)));
        a.free(100);
        b.free(200);
        assert_eq!(global.current_bytes(), 0);
    }

    #[test]
    fn parent_budget_bounds_the_sum_across_children() {
        let global = MemoryTracker::new();
        let a = MemoryTracker::with_parent(global.clone(), 300);
        let b = MemoryTracker::with_parent(global.clone(), 300);
        assert!(a.try_alloc(200, usize::MAX).is_ok());
        // b alone is under its own (unlimited) local limit, but the parent
        // budget is shared: 200 + 200 > 300.
        assert_eq!(b.try_alloc(200, usize::MAX), Err(Refusal::Parent(200)));
        assert_eq!(global.current_bytes(), 200); // failed charge backed out
        assert!(b.try_alloc(100, usize::MAX).is_ok());
        assert_eq!(global.current_bytes(), 300);
    }

    #[test]
    fn child_local_limit_failure_backs_out_parent_charge() {
        let global = MemoryTracker::new();
        let child = MemoryTracker::with_parent(global.clone(), usize::MAX);
        assert_eq!(child.try_alloc(100, 50), Err(Refusal::Local(0))); // local limit refuses
        assert_eq!(child.current_bytes(), 0);
        assert_eq!(global.current_bytes(), 0);
    }

    /// A budget error shows a refused check: the level that refused was
    /// full for the bytes requested.
    fn assert_over_budget(err: crate::StorageError) {
        match err {
            crate::StorageError::BudgetExceeded {
                requested,
                in_use,
                budget,
                global_in_use,
                global_budget,
            } => assert!(
                in_use + requested > budget || global_in_use + requested > global_budget,
                "{err:?}"
            ),
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn budget_error_reports_the_occupancy_the_check_refused_at() {
        // Local refusal.
        let t = MemoryTracker::new();
        let p = BlockPool::with_budget(t.clone(), 6000);
        let held = p.checkout(&schema(), BlockFormat::Row, 4096).unwrap();
        assert_over_budget(p.checkout(&schema(), BlockFormat::Row, 4096).unwrap_err());
        p.discard(held);
        // Parent refusal: a sibling holds most of the shared budget.
        let global = MemoryTracker::new();
        global.alloc(6000);
        let child = MemoryTracker::with_parent(global.clone(), 8192);
        let p = BlockPool::with_budget(child, usize::MAX);
        assert_over_budget(p.checkout(&schema(), BlockFormat::Row, 4096).unwrap_err());
        global.free(6000);
        // Other threads free between a refusal and its error: the error
        // still shows what the refused check saw.
        for parented in [false, true] {
            let global = MemoryTracker::new();
            let (tracker, budget) = if parented {
                (
                    MemoryTracker::with_parent(global.clone(), 3 * 1024),
                    usize::MAX,
                )
            } else {
                (global.clone(), 3 * 1024)
            };
            let p = BlockPool::with_budget(tracker, budget);
            p.set_reuse_enabled(false);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for _ in 0..2000 {
                            match p.checkout(&schema(), BlockFormat::Row, 1024) {
                                Ok(b) => p.discard(b),
                                Err(e) => assert_over_budget(e),
                            }
                        }
                    });
                }
            });
            assert_eq!(global.current_bytes(), 0);
        }
    }

    #[test]
    fn carved_out_pool_reports_global_occupancy_on_budget_error() {
        let global = MemoryTracker::new();
        // Sibling already holding most of the shared budget.
        global.alloc(6000);
        let child = MemoryTracker::with_parent(global.clone(), 8192);
        let p = BlockPool::with_budget(child, usize::MAX);
        let err = p.checkout(&schema(), BlockFormat::Row, 4096).unwrap_err();
        match err {
            crate::StorageError::BudgetExceeded {
                in_use,
                global_in_use,
                global_budget,
                ..
            } => {
                assert_eq!(in_use, 0); // this query holds nothing...
                assert_eq!(global_in_use, 6000); // ...the contention is global
                assert_eq!(global_budget, 8192);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        global.free(6000);
    }

    #[test]
    fn checkout_under_pressure_drains_free_lists_first() {
        let t = MemoryTracker::new();
        let p = BlockPool::with_budget(t.clone(), 4096);
        let store = crate::spill::SpillStore::new(None, t.clone());
        p.enable_spill(store);
        // Fill the budget with idle returned blocks...
        let blocks: Vec<_> = (0..2)
            .map(|_| p.checkout(&schema(), BlockFormat::Row, 2048).unwrap())
            .collect();
        for b in blocks {
            p.give_back(b);
        }
        assert_eq!(t.current_bytes(), 4096);
        // ...then a differently-shaped checkout must succeed by reclaiming
        // them instead of failing.
        let b = p.checkout(&schema(), BlockFormat::Column, 4096).unwrap();
        assert!(t.current_bytes() <= 4096);
        p.discard(b);
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn checkout_under_pressure_evicts_registered_victims() {
        let t = MemoryTracker::new();
        let p = BlockPool::with_budget(t.clone(), 4096);
        let store = crate::spill::SpillStore::new(None, t.clone());
        p.enable_spill(store.clone());
        p.set_reuse_enabled(false); // keep the free lists out of the picture
        let staged = Arc::new(p.checkout(&schema(), BlockFormat::Row, 2048).unwrap());
        let slot = crate::spill::SpillSlot::new(staged, 5);
        p.register_victim(&slot);
        // A full-budget checkout forces the staged block out to disk.
        let b = p.checkout(&schema(), BlockFormat::Row, 4096).unwrap();
        assert!(slot.is_spilled());
        assert_eq!(store.stats().spill_events, 1);
        assert_eq!(t.current_bytes(), b.allocated_bytes());
        // The staged data is intact behind the slot.
        let back = slot.take(Some(&store)).unwrap();
        assert_eq!(back.num_rows(), 0);
        t.free(back.allocated_bytes());
        p.discard(b);
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn spill_evicts_the_newest_victim_and_prunes_taken_ones() {
        let t = MemoryTracker::new();
        let p = BlockPool::with_budget(t.clone(), 6144);
        let store = crate::spill::SpillStore::new(None, t.clone());
        p.enable_spill(store.clone());
        p.set_reuse_enabled(false);
        let slot = || {
            let b = Arc::new(p.checkout(&schema(), BlockFormat::Row, 2048).unwrap());
            let s = crate::spill::SpillSlot::new(b, 1);
            p.register_victim(&s);
            s
        };
        let (first, second) = (slot(), slot());
        // The first is consumed: the next registration drops it.
        t.free(first.take(None).unwrap().allocated_bytes());
        let third = slot();
        assert_eq!(p.victims.lock().len(), 2);
        // Pressure evicts the newest, the block its consumer reaches last.
        let b = p.checkout(&schema(), BlockFormat::Row, 4096).unwrap();
        assert!(third.is_spilled() && !second.is_spilled());
        for s in [second, third] {
            t.free(s.take(Some(&store)).unwrap().allocated_bytes());
        }
        p.discard(b);
        assert_eq!(t.current_bytes(), 0);
        assert_eq!(store.live_files(), 0);
    }

    #[test]
    fn without_spill_tier_pressure_still_fails_cleanly() {
        let t = MemoryTracker::new();
        let p = BlockPool::with_budget(t.clone(), 1024);
        assert!(matches!(
            p.checkout(&schema(), BlockFormat::Row, 2048),
            Err(crate::StorageError::BudgetExceeded { .. })
        ));
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn pool_is_thread_safe() {
        let t = MemoryTracker::new();
        let p = BlockPool::new(t.clone());
        let s = schema();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = p.clone();
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let b = p.checkout(&s, BlockFormat::Column, 4096).unwrap();
                        p.give_back(b);
                    }
                });
            }
        });
        let st = p.stats();
        assert_eq!(st.returned, 200);
        assert_eq!(st.created + st.reused, 200);
        // At most one live block per thread at a time.
        assert!(t.current_bytes() <= 4 * 4096);
    }
}
