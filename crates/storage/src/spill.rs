//! The disk-backed second tier of the block pool.
//!
//! A [`SpillStore`] turns a terminal `BudgetExceeded` into graceful
//! degradation: when the RAM tier is full, cold blocks are serialized to
//! the query's spill file and their bytes are released from the
//! [`MemoryTracker`]; a later read faults the block back in and re-charges
//! exactly the bytes it releases on consumption, so the "tracker drains to
//! zero" teardown invariant is unchanged.
//!
//! Two kinds of state live in the second tier:
//!
//! * **Eviction victims** — intermediate blocks wrapped in a [`SpillSlot`],
//!   from the moment their producer completes them until a worker takes
//!   the block to run the work order that consumes it, and a finished
//!   grace build's open partition blocks.
//!   The pool evicts the newest registered slot, the one its consumer
//!   reaches last, when an allocation would exceed the budget
//!   ([`BlockPool::checkout`](crate::BlockPool::checkout) retries after
//!   each eviction).
//! * **Grace-join partitions** — the engine spills build/probe partition
//!   blocks eagerly through [`SpillStore::spill_block`] and restores them
//!   one partition at a time.
//!
//! Each store has one append-only file, `spill.bin`, in a unique directory
//! under the OS temp dir (or a caller override). Both are created by the
//! first spill, so a query that never spills touches no file system. A
//! spill reserves the next extent of the file with one atomic add and
//! writes it with a positioned write; a restore is one positioned read, and
//! neither a restore nor a discard calls the file system again. Freed
//! extents are not reused, so the file grows to at most the query's
//! cumulative [`SpillStats::spilled_bytes`]. Dropping the store removes the
//! directory, so no teardown path can leak temp files. All I/O is
//! observable through a [`SpillObserver`] — the engine installs an adapter
//! that injects deterministic faults (chaos tests) and records
//! `SpillOut`/`SpillIn` trace events.

use crate::block::{BlockFormat, StorageBlock};
use crate::column_block::ColumnData;
use crate::error::StorageError;
use crate::pool::MemoryTracker;
use crate::schema::Schema;
use crate::Result;
use parking_lot::Mutex;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Which direction a spill I/O goes — fault-injection sites key off this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillIo {
    /// Serializing a block out to the spill file.
    Write,
    /// Faulting a spilled block back in.
    Read,
}

/// Observation and fault-injection hook for spill I/O.
///
/// `before_io` runs before each write/read; returning `Err(detail)` aborts
/// the I/O with [`StorageError::SpillIo`] (the engine's chaos harness uses
/// this for deterministic I/O failures). `spilled`/`restored` fire after a
/// successful I/O — the engine records trace events there. `tag` is an
/// opaque attribution id chosen by the caller (the engine passes the
/// operator id that owns the block).
pub trait SpillObserver: Send + Sync {
    /// Called before each spill I/O; `Err(detail)` aborts it.
    fn before_io(&self, _io: SpillIo, _tag: usize) -> std::result::Result<(), String> {
        Ok(())
    }
    /// A block of `bytes` tracked bytes moved to the disk tier.
    fn spilled(&self, _tag: usize, _bytes: usize) {}
    /// A block of `bytes` tracked bytes was faulted back in.
    fn restored(&self, _tag: usize, _bytes: usize) {}
}

/// Counters describing second-tier activity, surfaced in `QueryMetrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Blocks written to the disk tier.
    pub spill_events: usize,
    /// Cumulative tracked bytes moved out to disk.
    pub spilled_bytes: usize,
    /// Cumulative tracked bytes faulted back in.
    pub restored_bytes: usize,
    /// Deepest grace-join re-partitioning recursion observed (0 = no
    /// partition ever had to be split again).
    pub respill_depth: usize,
    /// Length of the spill file: every extent reserved so far, restored or
    /// not. At most `spilled_bytes` (an extent holds only the rows in use).
    pub file_bytes: usize,
}

/// Descriptor of one spilled block: everything needed to rebuild it, minus
/// its encoded rows, which are the `len` bytes at `offset` in the store's
/// spill file. A handle is consumed by exactly one restore or discard.
#[derive(Debug)]
pub struct SpilledHandle {
    offset: u64,
    len: usize,
    schema: Arc<Schema>,
    format: BlockFormat,
    capacity_bytes: usize,
    rows: usize,
    /// Tracker bytes the resident block held (re-charged on restore).
    tracked_bytes: usize,
    tag: usize,
}

impl SpilledHandle {
    /// Tracker bytes the block will charge when faulted back in.
    pub fn tracked_bytes(&self) -> usize {
        self.tracked_bytes
    }

    /// Rows in the spilled block.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// A disk-backed block store tied to one query's memory tracker.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    tracker: Arc<MemoryTracker>,
    /// The spill file, opened by the first spill (`opening` serializes that).
    file: OnceLock<File>,
    opening: Mutex<()>,
    /// End of the file: the next spill's extent starts here.
    end: AtomicUsize,
    /// Blocks written and not yet restored or discarded.
    live: AtomicUsize,
    spill_events: AtomicUsize,
    spilled_bytes: AtomicUsize,
    restored_bytes: AtomicUsize,
    respill_depth: AtomicUsize,
    observer: Mutex<Option<Arc<dyn SpillObserver>>>,
}

impl std::fmt::Debug for dyn SpillObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpillObserver")
    }
}

static STORE_COUNTER: AtomicUsize = AtomicUsize::new(0);

impl SpillStore {
    /// Create a store whose directory will be a unique one under `base`
    /// (the OS temp dir when `None`), metering restores through `tracker`.
    /// Nothing is created on disk until the first spill.
    pub fn new(base: Option<&Path>, tracker: Arc<MemoryTracker>) -> Arc<Self> {
        let base = base
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let unique = format!(
            "uot-spill-{}-{}",
            std::process::id(),
            STORE_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        Arc::new(SpillStore {
            dir: base.join(unique),
            tracker,
            file: OnceLock::new(),
            opening: Mutex::new(()),
            end: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            spill_events: AtomicUsize::new(0),
            spilled_bytes: AtomicUsize::new(0),
            restored_bytes: AtomicUsize::new(0),
            respill_depth: AtomicUsize::new(0),
            observer: Mutex::new(None),
        })
    }

    /// Install the observation/fault hook (the engine's adapter).
    pub fn set_observer(&self, observer: Arc<dyn SpillObserver>) {
        *self.observer.lock() = Some(observer);
    }

    /// The directory that holds (or, before the first spill, will hold)
    /// this store's spill file.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the spill counters.
    pub fn stats(&self) -> SpillStats {
        SpillStats {
            spill_events: self.spill_events.load(Ordering::Relaxed),
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
            restored_bytes: self.restored_bytes.load(Ordering::Relaxed),
            respill_depth: self.respill_depth.load(Ordering::Relaxed),
            file_bytes: self.end.load(Ordering::Relaxed),
        }
    }

    /// Number of spilled blocks currently on disk: written, and not yet
    /// restored or discarded (leak tests).
    pub fn live_files(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Record that a grace join re-partitioned at recursion `depth`.
    pub fn note_respill(&self, depth: usize) {
        self.respill_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// The spill file, creating the directory and the file on first use.
    fn file(&self) -> Result<&File> {
        if let Some(f) = self.file.get() {
            return Ok(f);
        }
        let _opening = self.opening.lock();
        if let Some(f) = self.file.get() {
            return Ok(f);
        }
        let io = |what: &str, path: &Path, e: std::io::Error| StorageError::SpillIo {
            detail: format!("{what} {}: {e}", path.display()),
        };
        std::fs::create_dir_all(&self.dir).map_err(|e| io("creating spill dir", &self.dir, e))?;
        let path = self.dir.join("spill.bin");
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| {
                let _ = std::fs::remove_dir(&self.dir);
                io("creating", &path, e)
            })?;
        Ok(self.file.get_or_init(|| file))
    }

    /// Serialize `block` to the next extent of the spill file and release
    /// its tracked bytes.
    ///
    /// On any failure the tracker is untouched and the block stays usable —
    /// a failed spill is side-effect free, like a failed checkout.
    pub fn spill_block(&self, block: &StorageBlock, tag: usize) -> Result<SpilledHandle> {
        let observer = self.observer.lock().clone();
        if let Some(o) = &observer {
            o.before_io(SpillIo::Write, tag)
                .map_err(|detail| StorageError::SpillIo { detail })?;
        }
        let mut buf = Vec::with_capacity(block.num_rows() * block.schema().tuple_width());
        encode_block(block, &mut buf);
        let file = self.file()?;
        // Relaxed: the add only has to hand out disjoint extents; a handle
        // reaches the thread that restores it through the locks that pass it.
        let offset = self.end.fetch_add(buf.len(), Ordering::Relaxed) as u64;
        file.write_all_at(&buf, offset)
            .map_err(|e| StorageError::SpillIo {
                detail: format!(
                    "writing {} bytes at {offset} of the spill file: {e}",
                    buf.len()
                ),
            })?;
        self.live.fetch_add(1, Ordering::Relaxed);
        let tracked_bytes = block.allocated_bytes();
        self.spill_events.fetch_add(1, Ordering::Relaxed);
        self.spilled_bytes
            .fetch_add(tracked_bytes, Ordering::Relaxed);
        self.tracker.free(tracked_bytes);
        if let Some(o) = &observer {
            o.spilled(tag, tracked_bytes);
        }
        Ok(SpilledHandle {
            offset,
            len: buf.len(),
            schema: block.schema().clone(),
            format: block.format(),
            capacity_bytes: block.allocated_bytes(),
            rows: block.num_rows(),
            tracked_bytes,
            tag,
        })
    }

    /// Fault a spilled block back in, re-charging its tracked bytes. The
    /// handle is consumed either way: on error the data is unrecoverable,
    /// and its extent is abandoned like every other freed one.
    pub fn restore(&self, handle: SpilledHandle) -> Result<StorageBlock> {
        let result = self.restore_inner(&handle);
        self.live.fetch_sub(1, Ordering::Relaxed);
        result
    }

    fn restore_inner(&self, handle: &SpilledHandle) -> Result<StorageBlock> {
        let observer = self.observer.lock().clone();
        if let Some(o) = &observer {
            o.before_io(SpillIo::Read, handle.tag)
                .map_err(|detail| StorageError::SpillIo { detail })?;
        }
        let file = self.file.get().ok_or_else(|| StorageError::SpillIo {
            detail: "restoring from a store that never spilled".into(),
        })?;
        let mut bytes = vec![0u8; handle.len];
        file.read_exact_at(&mut bytes, handle.offset)
            .map_err(|e| StorageError::SpillIo {
                detail: format!(
                    "reading {} bytes at {} of the spill file: {e}",
                    handle.len, handle.offset
                ),
            })?;
        let block = decode_block(
            handle.schema.clone(),
            handle.format,
            handle.capacity_bytes,
            handle.rows,
            &bytes,
        )?;
        // The fault-in is charged unconditionally (not `try_alloc`): the
        // caller is about to consume the block, and refusing the charge here
        // would deadlock the spill path against the very pressure it exists
        // to relieve. Transient overshoot is bounded by one block.
        self.tracker.alloc(handle.tracked_bytes);
        self.restored_bytes
            .fetch_add(handle.tracked_bytes, Ordering::Relaxed);
        if let Some(o) = &observer {
            o.restored(handle.tag, handle.tracked_bytes);
        }
        Ok(block)
    }

    /// Drop a spilled block without restoring it (query teardown). Its
    /// tracked bytes were already released at spill time, so accounting is
    /// untouched, and its extent is simply abandoned.
    pub fn discard(&self, _handle: SpilledHandle) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        if self.file.get().is_some() {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// One staged block that the pool may transparently move between tiers.
///
/// A slot starts `Resident`, may be evicted to `Spilled` by the pool under
/// pressure, and ends `Taken` when its consumer claims the block with
/// [`SpillSlot::take`]. The eviction guard requires the slot to be the sole
/// owner of the block `Arc`, so a block another component still references
/// can never be spilled out from under it.
#[derive(Debug)]
pub struct SpillSlot {
    state: Mutex<SlotState>,
    tag: usize,
}

#[derive(Debug)]
enum SlotState {
    Resident(Arc<StorageBlock>),
    Spilled(SpilledHandle),
    Taken,
}

impl SpillSlot {
    /// Wrap a freshly produced block, attributed to operator `tag`.
    pub fn new(block: Arc<StorageBlock>, tag: usize) -> Arc<Self> {
        Arc::new(SpillSlot {
            state: Mutex::new(SlotState::Resident(block)),
            tag,
        })
    }

    /// The attribution tag (operator id) this slot was created with.
    pub fn tag(&self) -> usize {
        self.tag
    }

    /// Rows in the block, resident or spilled (`0` once taken).
    pub fn rows(&self) -> usize {
        match &*self.state.lock() {
            SlotState::Resident(b) => b.num_rows(),
            SlotState::Spilled(h) => h.rows(),
            SlotState::Taken => 0,
        }
    }

    /// The block's allocated bytes, resident or spilled (`0` once taken).
    pub fn bytes(&self) -> usize {
        match &*self.state.lock() {
            SlotState::Resident(b) => b.allocated_bytes(),
            SlotState::Spilled(h) => h.tracked_bytes(),
            SlotState::Taken => 0,
        }
    }

    /// Tracked bytes currently held in RAM by this slot.
    pub fn resident_bytes(&self) -> usize {
        match &*self.state.lock() {
            SlotState::Resident(b) => b.allocated_bytes(),
            _ => 0,
        }
    }

    /// Is the block currently on the disk tier?
    pub fn is_spilled(&self) -> bool {
        matches!(&*self.state.lock(), SlotState::Spilled(_))
    }

    /// Has the block been claimed (or discarded)?
    pub(crate) fn is_taken(&self) -> bool {
        matches!(&*self.state.lock(), SlotState::Taken)
    }

    /// Claim the block, faulting it back in from `store` if it was evicted.
    /// A slot can be taken exactly once.
    pub fn take(&self, store: Option<&SpillStore>) -> Result<Arc<StorageBlock>> {
        let mut state = self.state.lock();
        match std::mem::replace(&mut *state, SlotState::Taken) {
            SlotState::Resident(b) => Ok(b),
            SlotState::Spilled(handle) => {
                let store = store.ok_or_else(|| StorageError::SpillIo {
                    detail: "spilled slot taken without a spill store".into(),
                })?;
                store.restore(handle).map(Arc::new)
            }
            SlotState::Taken => Err(StorageError::SpillIo {
                detail: "spill slot already taken".into(),
            }),
        }
    }

    /// Drop the block without consuming it, releasing tracked bytes of a
    /// resident block from `tracker` and retiring a spilled one's extent
    /// (query teardown). Idempotent.
    pub fn discard(&self, tracker: &MemoryTracker, store: Option<&SpillStore>) {
        let mut state = self.state.lock();
        match std::mem::replace(&mut *state, SlotState::Taken) {
            SlotState::Resident(b) => tracker.free(b.allocated_bytes()),
            SlotState::Spilled(handle) => {
                if let Some(store) = store {
                    store.discard(handle);
                }
            }
            SlotState::Taken => {}
        }
    }

    /// Try to move a resident block to the disk tier. Returns the tracked
    /// bytes released — `0` when the slot is not evictable (already spilled,
    /// taken, or its block is shared). Errors only on spill I/O failure, in
    /// which case the slot is left resident and untouched.
    pub fn try_evict(&self, store: &SpillStore) -> Result<usize> {
        let mut state = self.state.lock();
        let block = match &*state {
            SlotState::Resident(b) if Arc::strong_count(b) == 1 => b.clone(),
            _ => return Ok(0),
        };
        // `block` is a second Arc; drop the guard's view only after the spill
        // succeeds so a failed write leaves the slot resident.
        let handle = store.spill_block(&block, self.tag)?;
        let bytes = handle.tracked_bytes();
        *state = SlotState::Spilled(handle);
        Ok(bytes)
    }
}

/// Serialize every row of `block`, appending to `out`: a row block as its
/// tuples with one copy, a column block column after column, one typed
/// slice each. Char columns are copied as raw padded bytes — never through
/// [`Value`](crate::Value), which trims padding. Either way the encoding is
/// `num_rows × tuple_width` bytes.
fn encode_block(block: &StorageBlock, out: &mut Vec<u8>) {
    match block {
        StorageBlock::Row(b) => out.extend_from_slice(b.tuples(0, b.num_rows())),
        StorageBlock::Column(b) => {
            for c in 0..b.schema().len() {
                match b.column(c) {
                    ColumnData::I32(v) | ColumnData::Date(v) => put(out, v, |x| x.to_le_bytes()),
                    ColumnData::I64(v) => put(out, v, |x| x.to_le_bytes()),
                    ColumnData::F64(v) => put(out, v, |x| x.to_le_bytes()),
                    ColumnData::Char { data, .. } => out.extend_from_slice(data),
                }
            }
        }
    }
}

/// Append `values` to `out` as `N`-byte little-endian encodings.
fn put<T: Copy, const N: usize>(out: &mut Vec<u8>, values: &[T], encode: impl Fn(T) -> [u8; N]) {
    let at = out.len();
    out.resize(at + values.len() * N, 0);
    for (dst, &x) in out[at..].chunks_exact_mut(N).zip(values) {
        dst.copy_from_slice(&encode(x));
    }
}

/// Append the `N`-byte little-endian values in `bytes` to `dst`.
fn get<T, const N: usize>(dst: &mut Vec<T>, bytes: &[u8], decode: impl Fn([u8; N]) -> T) {
    dst.extend(
        bytes
            .chunks_exact(N)
            .map(|c| decode(c.try_into().expect("chunks_exact yields N-byte chunks"))),
    );
}

/// Rebuild a block from [`encode_block`]'s encoding of its `rows` rows.
fn decode_block(
    schema: Arc<Schema>,
    format: BlockFormat,
    capacity_bytes: usize,
    rows: usize,
    bytes: &[u8],
) -> Result<StorageBlock> {
    let w = schema.tuple_width();
    if bytes.len() != rows * w {
        return Err(StorageError::SpillIo {
            detail: format!(
                "spill extent holds {} bytes, expected {} ({} rows of {} bytes)",
                bytes.len(),
                rows * w,
                rows,
                w
            ),
        });
    }
    let mut block = StorageBlock::new(schema.clone(), format, capacity_bytes)?;
    if rows > block.capacity_rows() {
        return Err(StorageError::SpillIo {
            detail: format!(
                "spill extent holds {rows} rows, more than the block's {}",
                block.capacity_rows()
            ),
        });
    }
    match &mut block {
        StorageBlock::Row(b) => b.grow(rows).copy_from_slice(bytes),
        StorageBlock::Column(b) => {
            let mut rest = bytes;
            for (c, col) in b.grow(rows).iter_mut().enumerate() {
                let (seg, tail) = rest.split_at(rows * schema.dtype(c).width());
                rest = tail;
                match col {
                    ColumnData::I32(v) | ColumnData::Date(v) => get(v, seg, i32::from_le_bytes),
                    ColumnData::I64(v) => get(v, seg, i64::from_le_bytes),
                    ColumnData::F64(v) => get(v, seg, f64::from_le_bytes),
                    ColumnData::Char { data, .. } => data.extend_from_slice(seg),
                }
            }
        }
    }
    Ok(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;
    use crate::value::Value;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("v", DataType::Float64),
            ("tag", DataType::Char(4)),
            ("d", DataType::Date),
            ("big", DataType::Int64),
        ])
    }

    fn filled(format: BlockFormat, n: i32) -> StorageBlock {
        let mut b = StorageBlock::new(schema(), format, 4096).unwrap();
        for i in 0..n {
            b.append_row(&[
                Value::I32(i),
                Value::F64(i as f64 * 0.5),
                Value::Str(format!("t{i}")), // padded: raw bytes must survive
                Value::Date(7000 + i),
                Value::I64(i as i64 * 3),
            ])
            .unwrap();
        }
        b
    }

    /// Spill `block` and restore it, checking the rows, the padded `Char`
    /// bytes, the format, the capacity and the tracker on the way.
    fn round_trip(store: &SpillStore, t: &MemoryTracker, block: StorageBlock) {
        let bytes = block.allocated_bytes();
        t.alloc(bytes); // simulate the pool charge
        let expected = block.all_rows();
        let chars: Vec<Vec<u8>> = (0..block.num_rows())
            .map(|r| block.char_at(r, 2).to_vec())
            .collect();
        let (format, capacity) = (block.format(), block.capacity_rows());
        let live = store.live_files();

        let handle = store.spill_block(&block, 3).unwrap();
        assert_eq!(t.current_bytes(), 0, "spill releases the charge");
        assert_eq!(store.live_files(), live + 1);
        drop(block);

        let back = store.restore(handle).unwrap();
        assert_eq!(t.current_bytes(), bytes, "restore re-charges");
        assert_eq!(back.all_rows(), expected, "{format:?}");
        for (r, raw) in chars.iter().enumerate() {
            assert_eq!(back.char_at(r, 2), &raw[..], "{format:?} row {r}");
        }
        assert_eq!((back.format(), back.capacity_rows()), (format, capacity));
        assert_eq!(store.live_files(), live, "restore retires the block");
        t.free(bytes);
    }

    #[test]
    fn spill_and_restore_round_trips_both_formats() {
        let t = MemoryTracker::new();
        let store = SpillStore::new(None, t.clone());
        for format in [BlockFormat::Row, BlockFormat::Column] {
            round_trip(&store, &t, filled(format, 9));
            round_trip(&store, &t, filled(format, 0));
            let cap = filled(format, 0).capacity_rows() as i32;
            let full = filled(format, cap);
            assert!(full.is_full());
            round_trip(&store, &t, full);
        }
        assert_eq!(store.stats().spill_events, 6);
    }

    #[test]
    fn char_padding_survives_the_round_trip() {
        // "t1" in Char(4) is stored as "t1  "; a Value round-trip would trim.
        let t = MemoryTracker::new();
        let store = SpillStore::new(None, t.clone());
        for format in [BlockFormat::Row, BlockFormat::Column] {
            let block = filled(format, 2);
            t.alloc(block.allocated_bytes());
            assert_eq!(block.char_at(1, 2), b"t1  ");
            let handle = store.spill_block(&block, 0).unwrap();
            let back = store.restore(handle).unwrap();
            assert_eq!(back.char_at(1, 2), b"t1  ", "{format:?}");
            t.free(back.allocated_bytes());
        }
    }

    #[test]
    fn a_virtual_column_block_round_trips() {
        // Output assembled from typed columns: capacity is exactly its rows.
        let t = MemoryTracker::new();
        let store = SpillStore::new(None, t.clone());
        let src = filled(BlockFormat::Column, 5);
        let cols = (0..5)
            .map(|c| match &src {
                StorageBlock::Column(b) => b.column(c).clone(),
                StorageBlock::Row(_) => unreachable!(),
            })
            .collect();
        let virt = crate::ColumnBlock::from_columns(schema(), cols, 5).unwrap();
        round_trip(&store, &t, StorageBlock::Column(virt));
    }

    #[test]
    fn one_file_per_store_grows_by_extents() {
        let t = MemoryTracker::new();
        let store = SpillStore::new(None, t.clone());
        let w = schema().tuple_width();
        let (a, b) = (filled(BlockFormat::Row, 4), filled(BlockFormat::Column, 7));
        t.alloc(a.allocated_bytes() + b.allocated_bytes());
        let ha = store.spill_block(&a, 0).unwrap();
        let hb = store.spill_block(&b, 0).unwrap();
        let entries: Vec<_> = std::fs::read_dir(store.dir()).unwrap().collect();
        assert_eq!(entries.len(), 1, "one spill file per store");
        let len = std::fs::metadata(store.dir().join("spill.bin"))
            .unwrap()
            .len();
        assert_eq!(len as usize, 11 * w, "extents hold the rows in use");
        let s = store.stats();
        assert_eq!(s.file_bytes, 11 * w);
        assert!(s.file_bytes <= s.spilled_bytes);
        // Restoring out of order reads the right extent; freed extents are
        // not reused, so the file only grows.
        assert_eq!(store.restore(hb).unwrap().all_rows(), b.all_rows());
        store.discard(ha);
        let c = filled(BlockFormat::Row, 2);
        t.alloc(c.allocated_bytes());
        let hc = store.spill_block(&c, 0).unwrap();
        assert_eq!(store.stats().file_bytes, 13 * w);
        assert_eq!(store.restore(hc).unwrap().all_rows(), c.all_rows());
        assert_eq!(store.live_files(), 0);
    }

    #[test]
    fn a_store_that_never_spills_creates_nothing() {
        let t = MemoryTracker::new();
        let store = SpillStore::new(None, t.clone());
        let dir = store.dir().to_path_buf();
        assert!(!dir.exists(), "no directory before the first spill");
        assert_eq!(store.stats(), SpillStats::default());
        drop(store);
        assert!(!dir.exists(), "and none after the store drops");
    }

    #[test]
    fn stats_and_drop_cleanup() {
        let t = MemoryTracker::new();
        let dir;
        {
            let store = SpillStore::new(None, t.clone());
            dir = store.dir().to_path_buf();
            let b1 = filled(BlockFormat::Row, 4);
            let b2 = filled(BlockFormat::Column, 4);
            t.alloc(b1.allocated_bytes() + b2.allocated_bytes());
            let h1 = store.spill_block(&b1, 0).unwrap();
            let _h2 = store.spill_block(&b2, 1).unwrap();
            let s = store.stats();
            assert_eq!(s.spill_events, 2);
            assert_eq!(s.spilled_bytes, b1.allocated_bytes() + b2.allocated_bytes());
            assert_eq!(store.live_files(), 2);
            let _ = store.restore(h1).unwrap();
            assert_eq!(store.stats().restored_bytes, b1.allocated_bytes());
            store.note_respill(2);
            store.note_respill(1);
            assert_eq!(store.stats().respill_depth, 2);
            assert!(dir.exists());
            t.free(b1.allocated_bytes()); // restore charged it
        }
        assert!(!dir.exists(), "drop removes the spill directory");
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn discard_deletes_without_recharging() {
        let t = MemoryTracker::new();
        let store = SpillStore::new(None, t.clone());
        let block = filled(BlockFormat::Row, 3);
        t.alloc(block.allocated_bytes());
        let handle = store.spill_block(&block, 0).unwrap();
        assert_eq!(t.current_bytes(), 0);
        store.discard(handle);
        assert_eq!(store.live_files(), 0);
        assert_eq!(t.current_bytes(), 0);
    }

    struct FailWrites;
    impl SpillObserver for FailWrites {
        fn before_io(&self, io: SpillIo, _tag: usize) -> std::result::Result<(), String> {
            match io {
                SpillIo::Write => Err("injected write failure".into()),
                SpillIo::Read => Ok(()),
            }
        }
    }

    #[test]
    fn failed_spill_is_side_effect_free() {
        let t = MemoryTracker::new();
        let store = SpillStore::new(None, t.clone());
        store.set_observer(Arc::new(FailWrites));
        let block = filled(BlockFormat::Row, 3);
        t.alloc(block.allocated_bytes());
        let before = t.current_bytes();
        let err = store.spill_block(&block, 0).unwrap_err();
        assert!(matches!(err, StorageError::SpillIo { .. }));
        assert!(err.to_string().contains("injected write failure"));
        assert_eq!(t.current_bytes(), before, "tracker untouched");
        assert_eq!(store.live_files(), 0);
        assert_eq!(store.stats(), SpillStats::default());
        assert!(
            !store.dir().exists(),
            "an injected failure reserves nothing"
        );
        t.free(before);
    }

    struct FailReads;
    impl SpillObserver for FailReads {
        fn before_io(&self, io: SpillIo, _tag: usize) -> std::result::Result<(), String> {
            match io {
                SpillIo::Read => Err("injected read failure".into()),
                SpillIo::Write => Ok(()),
            }
        }
    }

    #[test]
    fn failed_restore_still_retires_the_block() {
        let t = MemoryTracker::new();
        let store = SpillStore::new(None, t.clone());
        let block = filled(BlockFormat::Row, 3);
        t.alloc(block.allocated_bytes());
        let handle = store.spill_block(&block, 0).unwrap();
        store.set_observer(Arc::new(FailReads));
        let err = store.restore(handle).unwrap_err();
        assert!(matches!(err, StorageError::SpillIo { .. }));
        assert_eq!(
            store.live_files(),
            0,
            "the block is retired even on failure"
        );
        assert_eq!(t.current_bytes(), 0, "failed restore charges nothing");
    }

    #[test]
    fn slot_lifecycle_resident_evict_take() {
        let t = MemoryTracker::new();
        let store = SpillStore::new(None, t.clone());
        let block = filled(BlockFormat::Column, 5);
        let bytes = block.allocated_bytes();
        t.alloc(bytes);
        let expected = block.all_rows();
        let slot = SpillSlot::new(Arc::new(block), 7);
        assert_eq!(slot.tag(), 7);
        assert_eq!(slot.rows(), 5);
        assert_eq!(slot.resident_bytes(), bytes);
        assert!(!slot.is_spilled());

        let freed = slot.try_evict(&store).unwrap();
        assert_eq!(freed, bytes);
        assert!(slot.is_spilled());
        assert_eq!(slot.resident_bytes(), 0);
        assert_eq!(slot.rows(), 5, "rows visible while spilled");
        assert_eq!(slot.bytes(), bytes, "bytes visible while spilled");
        assert_eq!(t.current_bytes(), 0);
        // Second eviction attempt is a no-op.
        assert_eq!(slot.try_evict(&store).unwrap(), 0);

        let back = slot.take(Some(&store)).unwrap();
        assert_eq!(back.all_rows(), expected);
        assert_eq!(back.allocated_bytes(), bytes);
        assert_eq!((t.current_bytes(), slot.bytes()), (bytes, 0));
        assert!(slot.take(Some(&store)).is_err(), "taken exactly once");
        t.free(bytes);
    }

    #[test]
    fn shared_blocks_are_not_evictable() {
        let t = MemoryTracker::new();
        let store = SpillStore::new(None, t.clone());
        let block = Arc::new(filled(BlockFormat::Row, 2));
        let extra_ref = block.clone();
        let slot = SpillSlot::new(block, 0);
        assert_eq!(slot.try_evict(&store).unwrap(), 0, "shared: not evictable");
        drop(extra_ref);
        assert!(slot.try_evict(&store).unwrap() > 0);
    }

    #[test]
    fn slot_discard_handles_both_tiers() {
        let t = MemoryTracker::new();
        let store = SpillStore::new(None, t.clone());
        // Resident slot: discard frees tracked bytes.
        let b = filled(BlockFormat::Row, 2);
        let bytes = b.allocated_bytes();
        t.alloc(bytes);
        let slot = SpillSlot::new(Arc::new(b), 0);
        slot.discard(&t, Some(&store));
        assert_eq!(t.current_bytes(), 0);
        // Spilled slot: discard deletes the file, accounting untouched.
        let b = filled(BlockFormat::Row, 2);
        t.alloc(b.allocated_bytes());
        let slot = SpillSlot::new(Arc::new(b), 0);
        slot.try_evict(&store).unwrap();
        assert_eq!(store.live_files(), 1);
        slot.discard(&t, Some(&store));
        assert_eq!(store.live_files(), 0);
        assert_eq!(t.current_bytes(), 0);
        // Discard is idempotent.
        slot.discard(&t, Some(&store));
        assert_eq!(t.current_bytes(), 0);
    }
}
