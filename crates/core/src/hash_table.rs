//! The shared, non-partitioned join hash table, built in two phases.
//!
//! Quickstep uses non-partitioned hash joins (the paper cites Blanas et al.):
//! every probe work order of a join reads one table. We build that table in
//! two phases, so no work order ever takes a lock on it:
//!
//! * **Stream.** Each build work order writes its block into a private
//!   [`BuildRun`] ([`JoinHashTable::run`]): hashes, keys and the payload,
//!   each array allocated once at the block's row count, with the rows
//!   grouped by shard through a per-shard histogram.
//! * **Finalize.** Once every run exists, [`JoinHashTable::link`] runs once
//!   per finalize partition. Partition `p` of `P` owns a disjoint range of
//!   the [`SHARDS`] shards; for each it counts the rows exactly, allocates
//!   the bucket heads (at most 7/8 load) and the `next` chain once, copies
//!   the shard's rows out of every run and links them, prefetching the head
//!   of a row a fixed distance ahead. The last partition publishes the
//!   shards; from then on the table is immutable.
//!
//! Probes read the frozen shards with no lock: a [`ProbeSession`] is a
//! plain borrow, and [`ProbeSession::probe_batch`] runs the two-pass scheme
//! from the vectorized join literature (pass 1 hashes the whole block and
//! software-prefetches the bucket head of a row a fixed distance ahead;
//! pass 2 resolves matches into a flat [`ProbeMatch`] vector for
//! gather-based output assembly).
//!
//! Each shard is a chained table we own outright: `heads[b]` is the first
//! row of bucket `b`, `next[r]` the row after `r` in its bucket, and keys
//! and payload are row-aligned arrays, so a row index is all a match needs.
//! Keys of at most 16 encoded bytes (every TPC-H join key) are stored packed
//! as `u128`s and compare in one step; wider keys keep their hash alongside.
//! Shard selection uses the *top* hash bits and bucket placement the
//! *bottom* bits, so the two indices stay independent. All placement derives
//! from [`uot_storage::hash_of`], which the batched key pipeline
//! ([`uot_storage::KeyBatch`]) computes identically.
//!
//! Payload rows are stored as fixed-width encoded bytes — the same encoding
//! as a row-store tuple — so a hash table's memory footprint is directly
//! measurable, which the memory experiments (Section VI of the paper,
//! `|H_i|`) rely on.

use crate::ops::PartResults;
use crate::Result;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use uot_storage::{
    hash_of, DataType, HashKey, KeyBatch, KeyExtractor, MemoryTracker, Schema, StorageBlock,
};

/// Shards per table: the unit a finalize partition owns, so at most this
/// many partitions link one table in parallel, and what keeps each link
/// pass's bucket heads small enough to stay cached.
pub const SHARDS: usize = 64;

/// Sentinel for "no row / end of chain".
const NIL: u32 = u32::MAX;

/// How many rows ahead of the cursor the link and probe loops prefetch a
/// bucket head. Far enough to cover DRAM latency at ~1 ns/row of work, near
/// enough to stay in L1.
const PREFETCH_DIST: usize = 16;

/// Prefetch the cache line holding `*p` into L1 (read intent). No-op on
/// architectures without an explicit prefetch hint.
#[inline(always)]
fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(p as *const i8, _MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, readonly));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = p;
    }
}

/// Shard index from the *top* hash bits — bucket placement uses the bottom
/// bits, so the two stay independent.
#[inline(always)]
fn shard_of(hash: u64) -> usize {
    ((hash >> 48) as usize) & (SHARDS - 1)
}

/// A read-only view of one payload row stored in the table.
#[derive(Clone, Copy)]
pub struct PayloadRef<'a> {
    schema: &'a Schema,
    bytes: &'a [u8],
}

impl<'a> PayloadRef<'a> {
    /// Read an `Int32` payload column.
    #[inline]
    pub fn i32_at(&self, col: usize) -> i32 {
        let off = self.schema.offset(col);
        i32::from_le_bytes(self.bytes[off..off + 4].try_into().unwrap())
    }

    /// Read an `Int64` payload column.
    #[inline]
    pub fn i64_at(&self, col: usize) -> i64 {
        let off = self.schema.offset(col);
        i64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Read a `Float64` payload column.
    #[inline]
    pub fn f64_at(&self, col: usize) -> f64 {
        let off = self.schema.offset(col);
        f64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Read a `Date` payload column.
    #[inline]
    pub fn date_at(&self, col: usize) -> i32 {
        self.i32_at(col)
    }

    /// Read a `Char(n)` payload column (padded bytes).
    #[inline]
    pub fn char_at(&self, col: usize) -> &'a [u8] {
        let off = self.schema.offset(col);
        let w = self.schema.dtype(col).width();
        &self.bytes[off..off + w]
    }

    /// The payload schema.
    #[inline]
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }
}

/// Row-aligned keys of a run or a shard.
#[derive(Debug, Clone)]
enum Keys {
    /// Keys of at most 16 encoded bytes, packed, and their encoded width.
    Packed(Vec<u128>, u8),
    /// Wider keys.
    Wide(Vec<HashKey>),
}

impl Keys {
    /// Empty keys of the same kind, with room for `rows`.
    fn with_capacity_like(&self, rows: usize) -> Keys {
        match self {
            Keys::Packed(_, width) => Keys::Packed(Vec::with_capacity(rows), *width),
            Keys::Wide(_) => Keys::Wide(Vec::with_capacity(rows)),
        }
    }

    /// Resident bytes, the heap part of wide keys included.
    fn bytes(&self) -> usize {
        match self {
            Keys::Packed(k, _) => k.capacity() * std::mem::size_of::<u128>(),
            Keys::Wide(k) => {
                k.capacity() * std::mem::size_of::<HashKey>()
                    + k.iter()
                        .map(|k| match k {
                            HashKey::Var(bytes) => bytes.len(),
                            HashKey::Fixed(..) => 0,
                        })
                        .sum::<usize>()
            }
        }
    }
}

/// The probe side's keys, borrowed from a [`KeyBatch`] or a single key.
enum ProbeKeys<'a> {
    Packed(&'a [u128], u8),
    Wide(&'a [HashKey]),
}

impl<'a> ProbeKeys<'a> {
    fn of_batch(batch: &'a KeyBatch) -> Self {
        match batch.packed() {
            Some((packed, width)) => ProbeKeys::Packed(packed, width),
            // invariant: a batch is either packed or wide.
            None => ProbeKeys::Wide(batch.wide().expect("a batch holds packed or wide keys")),
        }
    }

    fn of_key(key: &'a HashKey) -> Self {
        match key {
            HashKey::Fixed(packed, width) => {
                ProbeKeys::Packed(std::slice::from_ref(packed), *width)
            }
            HashKey::Var(_) => ProbeKeys::Wide(std::slice::from_ref(key)),
        }
    }
}

/// One build work order's block, written for the finalize to link: the
/// rows grouped by shard, each array allocated once at the block's row
/// count. Private to the work order that wrote it until the finalize.
pub struct BuildRun {
    /// Shard `s` holds rows `starts[s]..starts[s + 1]`.
    starts: Vec<u32>,
    hashes: Vec<u64>,
    keys: Keys,
    /// Encoded payload rows, back to back.
    payload: Vec<u8>,
}

impl std::fmt::Debug for BuildRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuildRun")
            .field("rows", &self.rows())
            .finish()
    }
}

impl BuildRun {
    /// Number of rows in the run.
    pub fn rows(&self) -> usize {
        self.hashes.len()
    }

    /// The rows of shard `s`.
    fn shard_rows(&self, s: usize) -> Range<usize> {
        self.starts[s] as usize..self.starts[s + 1] as usize
    }
}

/// One shard of a linked table. Immutable once published.
#[derive(Debug)]
struct Shard {
    /// The first row of every bucket, or `NIL`; a power of two longer than
    /// the row count.
    heads: Vec<u32>,
    /// Per row: the next row of its bucket, or `NIL`.
    next: Vec<u32>,
    /// Per row: the key hash, kept for wide keys only (packed keys compare
    /// in one step).
    hashes: Vec<u64>,
    keys: Keys,
    /// Encoded payload rows: row `r` occupies `[r*w, (r+1)*w)` where `w` is
    /// the payload tuple width.
    payload: Vec<u8>,
}

impl Shard {
    /// Size shard `s` exactly from `runs`, copy its rows out of each run
    /// and link them into their buckets.
    fn link(runs: &[BuildRun], s: usize, width: usize) -> Shard {
        let rows: usize = runs.iter().map(|r| r.shard_rows(s).len()).sum();
        assert!(
            rows < NIL as usize,
            "a shard holds fewer than 2^32 - 1 rows"
        );
        // At most 7/8 load, and always at least one vacant head.
        let buckets = (rows * 8 / 7 + 1).next_power_of_two();
        let mask = buckets - 1;
        let mut heads = vec![NIL; buckets];
        let mut next = Vec::with_capacity(rows);
        let mut keys = runs.first().map_or(Keys::Packed(Vec::new(), 0), |r| {
            r.keys.with_capacity_like(rows)
        });
        let mut hashes = Vec::with_capacity(if matches!(keys, Keys::Wide(_)) {
            rows
        } else {
            0
        });
        let mut payload = Vec::with_capacity(rows * width);
        for run in runs {
            let range = run.shard_rows(s);
            let hs = &run.hashes[range.clone()];
            let base = next.len();
            for (j, &h) in hs.iter().enumerate() {
                if let Some(&ahead) = hs.get(j + PREFETCH_DIST) {
                    prefetch_read(&heads[ahead as usize & mask]);
                }
                let b = h as usize & mask;
                next.push(heads[b]);
                heads[b] = (base + j) as u32;
            }
            match (&mut keys, &run.keys) {
                (Keys::Packed(dst, _), Keys::Packed(src, _)) => {
                    dst.extend_from_slice(&src[range.clone()])
                }
                (Keys::Wide(dst), Keys::Wide(src)) => {
                    dst.extend_from_slice(&src[range.clone()]);
                    hashes.extend_from_slice(hs);
                }
                // invariant: one compiled extractor keys every run of a table.
                _ => unreachable!("runs of one table share their key shape"),
            }
            payload.extend_from_slice(&run.payload[range.start * width..range.end * width]);
        }
        Shard {
            heads,
            next,
            hashes,
            keys,
            payload,
        }
    }

    /// Whether row `r` holds probe key `i` of `keys`, whose hash is `hash`.
    #[inline(always)]
    fn holds(&self, r: usize, keys: &ProbeKeys<'_>, i: usize, hash: u64) -> bool {
        match (&self.keys, keys) {
            (Keys::Packed(k, w), ProbeKeys::Packed(p, pw)) => k[r] == p[i] && w == pw,
            (Keys::Wide(k), ProbeKeys::Wide(p)) => self.hashes[r] == hash && k[r] == p[i],
            _ => false,
        }
    }

    /// The rows whose key is probe key `i` of `keys` (hash `hash`), by
    /// walking its bucket's chain.
    #[inline]
    fn matches<'s>(
        &'s self,
        keys: &'s ProbeKeys<'s>,
        i: usize,
        hash: u64,
    ) -> impl Iterator<Item = u32> + 's {
        let mut row = self.heads[hash as usize & (self.heads.len() - 1)];
        std::iter::from_fn(move || {
            while row != NIL {
                let r = row;
                row = self.next[r as usize];
                if self.holds(r as usize, keys, i, hash) {
                    return Some(r);
                }
            }
            None
        })
    }

    #[inline(always)]
    fn prefetch_head(&self, hash: u64) {
        prefetch_read(&self.heads[hash as usize & (self.heads.len() - 1)]);
    }

    fn memory_bytes(&self) -> usize {
        (self.heads.capacity() + self.next.capacity()) * std::mem::size_of::<u32>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.keys.bytes()
            + self.payload.capacity()
    }
}

/// One resolved probe match: input row `probe_row` of the probed block joins
/// the build-side payload row `payload` of shard `shard`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeMatch {
    /// Row index within the probed block (or selection vector).
    pub probe_row: u32,
    /// Which shard holds the payload.
    pub shard: u32,
    /// Payload row index within that shard.
    pub payload: u32,
}

/// A join hash table: written as [`BuildRun`]s, linked by finalize
/// partitions, then read without locks.
#[derive(Debug)]
pub struct JoinHashTable {
    payload_schema: Arc<Schema>,
    /// Shards linked by finished finalize partitions, until the last
    /// partition publishes them all.
    linked: PartResults<Vec<Shard>>,
    /// The frozen shards, in shard order.
    shards: OnceLock<Box<[Shard]>>,
    /// Bytes already reported to the memory tracker (see `sync_tracker`).
    tracked: AtomicUsize,
}

impl JoinHashTable {
    /// An empty table storing payload rows of `payload_schema`.
    pub fn new(payload_schema: Arc<Schema>) -> Self {
        JoinHashTable {
            payload_schema,
            linked: PartResults::default(),
            shards: OnceLock::new(),
            tracked: AtomicUsize::new(0),
        }
    }

    /// Schema of the stored payload rows.
    pub fn payload_schema(&self) -> &Arc<Schema> {
        &self.payload_schema
    }

    /// Number of payload rows linked (0 until the table is published).
    pub fn len(&self) -> usize {
        self.shards
            .get()
            .map_or(0, |shards| shards.iter().map(|s| s.next.len()).sum())
    }

    /// True when no row is linked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the last finalize partition has published the table.
    #[cfg(test)]
    fn is_linked(&self) -> bool {
        self.shards.get().is_some()
    }

    /// The stream phase: write every key of `batch` (extracted from
    /// `block`) and the `payload_cols` of its row into a new run, the rows
    /// grouped by shard. Touches nothing shared.
    pub fn run(&self, block: &StorageBlock, batch: &KeyBatch, payload_cols: &[usize]) -> BuildRun {
        let hashes = batch.hashes();
        debug_assert_eq!(hashes.len(), block.num_rows());
        // A counting sort by shard: the histogram, its prefix sums, then
        // the source row of every position.
        let mut starts = vec![0u32; SHARDS + 1];
        for &h in hashes {
            starts[shard_of(h) + 1] += 1;
        }
        for s in 0..SHARDS {
            starts[s + 1] += starts[s];
        }
        let mut fill = starts[..SHARDS].to_vec();
        let mut order = vec![0u32; hashes.len()];
        for (i, &h) in hashes.iter().enumerate() {
            let s = shard_of(h);
            order[fill[s] as usize] = i as u32;
            fill[s] += 1;
        }
        let keys = match ProbeKeys::of_batch(batch) {
            ProbeKeys::Packed(packed, width) => {
                Keys::Packed(order.iter().map(|&i| packed[i as usize]).collect(), width)
            }
            ProbeKeys::Wide(wide) => {
                Keys::Wide(order.iter().map(|&i| wide[i as usize].clone()).collect())
            }
        };
        BuildRun {
            starts,
            hashes: order.iter().map(|&i| hashes[i as usize]).collect(),
            keys,
            payload: encode_payload(block, &order, payload_cols, &self.payload_schema),
        }
    }

    /// Finalize partition `part` of `parts`: link the shards it owns from
    /// every run. The partition that links the last shards publishes the
    /// table. Partitions run concurrently, each at most once.
    pub fn link(&self, runs: &[BuildRun], part: usize, parts: usize) {
        debug_assert!(part < parts);
        let width = self.payload_schema.tuple_width();
        let owned = part * SHARDS / parts..(part + 1) * SHARDS / parts;
        let shards: Vec<Shard> = owned.map(|s| Shard::link(runs, s, width)).collect();
        if let Some(linked) = self.linked.finish(part, parts, shards) {
            let all: Box<[Shard]> = linked.into_iter().flatten().collect();
            // invariant: every shard belongs to exactly one partition, and
            // each partition links once, so the table is published once.
            assert!(self.shards.set(all).is_ok(), "a table is linked once");
        }
    }

    /// Link every shard on the calling thread: the one-shot finalize.
    pub fn link_all(&self, runs: &[BuildRun]) {
        self.link(runs, 0, 1);
    }

    /// Build the table from `block` alone on the calling thread, keyed by
    /// `key_cols` with `payload_cols` as the payload: one run, then one
    /// finalize. (Scalar-API entry point: compiles a throwaway extractor;
    /// the engine's build operator uses a precompiled one with `run`.)
    pub fn insert_block(
        &self,
        block: &StorageBlock,
        key_cols: &[usize],
        payload_cols: &[usize],
    ) -> Result<()> {
        let extractor = KeyExtractor::compile(block.schema(), key_cols)?;
        let mut batch = KeyBatch::new();
        extractor.extract_block(block, &mut batch);
        self.link_all(&[self.run(block, &batch, payload_cols)]);
        Ok(())
    }

    /// The published shards.
    fn frozen(&self) -> &[Shard] {
        // invariant: the scheduler starts a probe only once its build
        // finished, and a build finishes after its last finalize partition.
        self.shards
            .get()
            .expect("a table is probed only after its finalize")
    }

    /// Visit every payload row matching `key`. Returns the number of matches.
    /// Matches within a key come in no particular order; callers that care
    /// sort.
    pub fn probe_key(&self, key: &HashKey, mut f: impl FnMut(PayloadRef<'_>)) -> usize {
        let session = self.probe_session();
        let hash = hash_of(key);
        let sh = shard_of(hash);
        let keys = ProbeKeys::of_key(key);
        let mut n = 0;
        for payload in session.shards[sh].matches(&keys, 0, hash) {
            f(session.payload(ProbeMatch {
                probe_row: 0,
                shard: sh as u32,
                payload,
            }));
            n += 1;
        }
        n
    }

    /// True if any payload row matches `key` (semi/anti joins).
    pub fn contains_key(&self, key: &HashKey) -> bool {
        let hash = hash_of(key);
        let keys = ProbeKeys::of_key(key);
        let found = self.frozen()[shard_of(hash)]
            .matches(&keys, 0, hash)
            .next()
            .is_some();
        found
    }

    /// Open a batched probe session over the published table.
    pub fn probe_session(&self) -> ProbeSession<'_> {
        ProbeSession {
            payload_schema: &self.payload_schema,
            shards: self.frozen(),
        }
    }

    /// Resident bytes: payload rows, keys, bucket heads and chains. Mirrors
    /// the paper's `|H_i|` accounting; 0 until the table is published.
    pub fn memory_bytes(&self) -> usize {
        self.shards
            .get()
            .map_or(0, |shards| shards.iter().map(Shard::memory_bytes).sum())
    }

    /// Report memory growth since the last sync to `tracker` (called by the
    /// engine when a build operator finishes, and at query teardown with
    /// `release`).
    pub fn sync_tracker(&self, tracker: &MemoryTracker) {
        let now = self.memory_bytes();
        let prev = self.tracked.swap(now, Ordering::Relaxed);
        if now > prev {
            tracker.alloc(now - prev);
        } else {
            tracker.free(prev - now);
        }
    }

    /// Release all tracked bytes from `tracker` (query teardown).
    pub fn release_tracker(&self, tracker: &MemoryTracker) {
        let prev = self.tracked.swap(0, Ordering::Relaxed);
        tracker.free(prev);
    }

    /// Bucket heads and rows of every published shard (sizing tests).
    #[cfg(test)]
    fn shard_sizes(&self) -> Vec<(usize, usize)> {
        self.frozen()
            .iter()
            .map(|s| (s.heads.len(), s.next.len()))
            .collect()
    }
}

/// A per-work-order probe view of a published table. It holds no lock:
/// the table no longer changes.
///
/// Probes run in two passes over a [`KeyBatch`]: the cursor at row `i`
/// resolves matches while the bucket head for row `i + PREFETCH_DIST` is
/// being prefetched, hiding DRAM latency behind useful work.
pub struct ProbeSession<'a> {
    payload_schema: &'a Arc<Schema>,
    shards: &'a [Shard],
}

impl ProbeSession<'_> {
    /// Resolve every key of `batch` against the table, appending one
    /// [`ProbeMatch`] per (probe row, matching payload row) pair to `out`
    /// in probe-row order.
    pub fn probe_batch(&self, batch: &KeyBatch, out: &mut Vec<ProbeMatch>) {
        let keys = ProbeKeys::of_batch(batch);
        let hashes = batch.hashes();
        for (i, &h) in hashes.iter().enumerate() {
            if let Some(&ahead) = hashes.get(i + PREFETCH_DIST) {
                self.shards[shard_of(ahead)].prefetch_head(ahead);
            }
            let sh = shard_of(h);
            out.extend(
                self.shards[sh]
                    .matches(&keys, i, h)
                    .map(|payload| ProbeMatch {
                        probe_row: i as u32,
                        shard: sh as u32,
                        payload,
                    }),
            );
        }
    }

    /// Existence-only variant for semi/anti joins: pushes one `bool` per key
    /// of `batch` onto `out`.
    pub fn contains_batch(&self, batch: &KeyBatch, out: &mut Vec<bool>) {
        let keys = ProbeKeys::of_batch(batch);
        let hashes = batch.hashes();
        out.reserve(hashes.len());
        for (i, &h) in hashes.iter().enumerate() {
            if let Some(&ahead) = hashes.get(i + PREFETCH_DIST) {
                self.shards[shard_of(ahead)].prefetch_head(ahead);
            }
            out.push(
                self.shards[shard_of(h)]
                    .matches(&keys, i, h)
                    .next()
                    .is_some(),
            );
        }
    }

    /// The payload row a [`ProbeMatch`] refers to.
    #[inline]
    pub fn payload(&self, m: ProbeMatch) -> PayloadRef<'_> {
        let w = self.payload_schema.tuple_width();
        let off = m.payload as usize * w;
        PayloadRef {
            schema: self.payload_schema,
            bytes: &self.shards[m.shard as usize].payload[off..off + w],
        }
    }

    /// The payload schema (same as the owning table's).
    #[inline]
    pub fn payload_schema(&self) -> &Arc<Schema> {
        self.payload_schema
    }
}

/// Encode the `cols` of `block`'s rows, in the row order `order`, with the
/// row-store fixed-width encoding of `schema`: one typed loop per column.
fn encode_payload(block: &StorageBlock, order: &[u32], cols: &[usize], schema: &Schema) -> Vec<u8> {
    debug_assert_eq!(cols.len(), schema.len());
    let w = schema.tuple_width();
    let mut out = vec![0u8; order.len() * w];
    if w == 0 {
        return out;
    }
    for (j, &c) in cols.iter().enumerate() {
        let off = schema.offset(j);
        let data = block.column_data(c);
        match schema.dtype(j) {
            DataType::Int32 => match data {
                Some(d) => {
                    let vals = d.as_i32();
                    put(&mut out, w, off, order, |r| vals[r].to_le_bytes())
                }
                None => put(&mut out, w, off, order, |r| {
                    block.i32_at(r, c).to_le_bytes()
                }),
            },
            DataType::Date => match data {
                Some(d) => {
                    let vals = d.as_date();
                    put(&mut out, w, off, order, |r| vals[r].to_le_bytes())
                }
                None => put(&mut out, w, off, order, |r| {
                    block.date_at(r, c).to_le_bytes()
                }),
            },
            DataType::Int64 => match data {
                Some(d) => {
                    let vals = d.as_i64();
                    put(&mut out, w, off, order, |r| vals[r].to_le_bytes())
                }
                None => put(&mut out, w, off, order, |r| {
                    block.i64_at(r, c).to_le_bytes()
                }),
            },
            DataType::Float64 => match data {
                Some(d) => {
                    let vals = d.as_f64();
                    put(&mut out, w, off, order, |r| vals[r].to_le_bytes())
                }
                None => put(&mut out, w, off, order, |r| {
                    block.f64_at(r, c).to_le_bytes()
                }),
            },
            DataType::Char(n) => {
                let n = n as usize;
                for (dst, &r) in out.chunks_exact_mut(w).zip(order) {
                    dst[off..off + n].copy_from_slice(block.char_at(r as usize, c));
                }
            }
        }
    }
    out
}

/// Write `get(r)` at byte `off` of every `w`-byte row of `out`, `r` running
/// over `order`.
#[inline(always)]
fn put<const N: usize>(
    out: &mut [u8],
    w: usize,
    off: usize,
    order: &[u32],
    get: impl Fn(usize) -> [u8; N],
) {
    for (dst, &r) in out.chunks_exact_mut(w).zip(order) {
        dst[off..off + N].copy_from_slice(&get(r as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uot_storage::{BlockFormat, Value};

    fn build_block(n: i32) -> StorageBlock {
        let s = Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("name", DataType::Char(4)),
            ("w", DataType::Float64),
        ]);
        let mut b = StorageBlock::new(s, BlockFormat::Column, 1 << 16).unwrap();
        for i in 0..n {
            b.append_row(&[
                Value::I32(i % 4), // duplicate keys
                Value::Str(format!("n{i}")),
                Value::F64(i as f64),
            ])
            .unwrap();
        }
        b
    }

    fn table_for(block: &StorageBlock) -> JoinHashTable {
        JoinHashTable::new(block.schema().project(&[1, 2]))
    }

    /// Write one run per block of `blocks` keyed by column 0.
    fn runs_of(ht: &JoinHashTable, blocks: &[StorageBlock], payload: &[usize]) -> Vec<BuildRun> {
        let ex = KeyExtractor::compile(blocks[0].schema(), &[0]).unwrap();
        let mut batch = KeyBatch::new();
        blocks
            .iter()
            .map(|b| {
                ex.extract_block(b, &mut batch);
                ht.run(b, &batch, payload)
            })
            .collect()
    }

    #[test]
    fn insert_and_probe() {
        let b = build_block(8);
        let ht = table_for(&b);
        ht.insert_block(&b, &[0], &[1, 2]).unwrap();
        assert_eq!(ht.len(), 8);

        // key 1 matches rows 1 and 5
        let mut got = vec![];
        let n = ht.probe_key(&HashKey::from_i32(1), |p| {
            got.push((
                String::from_utf8_lossy(p.char_at(0)).trim_end().to_string(),
                p.f64_at(1),
            ));
        });
        assert_eq!(n, 2);
        got.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        assert_eq!(got, vec![("n1".to_string(), 1.0), ("n5".to_string(), 5.0)]);
    }

    #[test]
    fn missing_key_yields_nothing() {
        let b = build_block(4);
        let ht = table_for(&b);
        ht.insert_block(&b, &[0], &[1, 2]).unwrap();
        let mut called = false;
        assert_eq!(ht.probe_key(&HashKey::from_i32(99), |_| called = true), 0);
        assert!(!called);
        assert!(!ht.contains_key(&HashKey::from_i32(99)));
        assert!(ht.contains_key(&HashKey::from_i32(0)));
    }

    #[test]
    fn empty_table() {
        let b = build_block(0);
        let ht = table_for(&b);
        ht.insert_block(&b, &[0], &[1, 2]).unwrap();
        assert!(ht.is_empty());
        assert_eq!(ht.probe_key(&HashKey::from_i32(0), |_| {}), 0);
        // A build with no run at all links to an empty table too.
        let ht = table_for(&b);
        ht.link_all(&[]);
        assert!(ht.is_linked() && ht.is_empty());
        assert!(!ht.contains_key(&HashKey::from_i32(0)));
    }

    #[test]
    fn concurrent_build_is_complete() {
        // Eight work orders write their runs concurrently, then three
        // finalize partitions link them concurrently.
        let blocks: Vec<StorageBlock> = (0..8).map(|_| build_block(100)).collect();
        let ht = table_for(&blocks[0]);
        let ex = KeyExtractor::compile(blocks[0].schema(), &[0]).unwrap();
        let runs: Vec<BuildRun> = std::thread::scope(|s| {
            let handles: Vec<_> = blocks
                .iter()
                .map(|b| {
                    let (ht, ex) = (&ht, &ex);
                    s.spawn(move || {
                        let mut batch = KeyBatch::new();
                        ex.extract_block(b, &mut batch);
                        ht.run(b, &batch, &[1, 2])
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        std::thread::scope(|s| {
            for part in 0..3 {
                let (ht, runs) = (&ht, &runs);
                s.spawn(move || ht.link(runs, part, 3));
            }
        });
        assert_eq!(ht.len(), 800);
        // each key 0..3 appears 25 times per block * 8 blocks
        for k in 0..4 {
            assert_eq!(ht.probe_key(&HashKey::from_i32(k), |_| {}), 200);
        }
    }

    #[test]
    fn the_last_partition_publishes() {
        let blocks = vec![build_block(50), build_block(30)];
        let ht = table_for(&blocks[0]);
        let runs = runs_of(&ht, &blocks, &[1, 2]);
        assert_eq!(runs.iter().map(BuildRun::rows).sum::<usize>(), 80);
        for part in [2, 0] {
            ht.link(&runs, part, 3);
            assert!(!ht.is_linked());
            assert_eq!(ht.len(), 0);
        }
        ht.link(&runs, 1, 3);
        assert!(ht.is_linked());
        assert_eq!(ht.len(), 80);
        // key 2 is rows 2, 6, .. of each block: 12 of 50 and 7 of 30
        assert_eq!(ht.probe_key(&HashKey::from_i32(2), |_| {}), 19);
    }

    #[test]
    fn every_shard_keeps_a_vacant_head_at_most_seven_eighths_load() {
        let blocks: Vec<StorageBlock> = [0, 1, 7, 640, 1 << 12]
            .into_iter()
            .map(|n| {
                let s = Schema::from_pairs(&[("k", DataType::Int32)]);
                let mut b = StorageBlock::new(s, BlockFormat::Column, 1 << 16).unwrap();
                for i in 0..n {
                    b.append_row(&[Value::I32(i)]).unwrap();
                }
                b
            })
            .collect();
        for b in &blocks {
            let ht = JoinHashTable::new(b.schema().project(&[]));
            ht.insert_block(b, &[0], &[]).unwrap();
            let sizes = ht.shard_sizes();
            assert_eq!(sizes.len(), SHARDS);
            assert_eq!(
                sizes.iter().map(|&(_, rows)| rows).sum::<usize>(),
                b.num_rows()
            );
            for (heads, rows) in sizes {
                assert!(heads.is_power_of_two());
                assert!(heads > rows, "{rows} rows in {heads} heads");
                assert!(rows * 8 <= heads * 7, "{rows} rows in {heads} heads");
            }
        }
    }

    #[test]
    fn memory_accounting() {
        let b = build_block(64);
        let ht = table_for(&b);
        let t = MemoryTracker::new();
        ht.sync_tracker(&t);
        let before = t.current_bytes();
        ht.insert_block(&b, &[0], &[1, 2]).unwrap();
        ht.sync_tracker(&t);
        assert!(t.current_bytes() > before);
        assert!(ht.memory_bytes() >= 64 * (4 + 8)); // at least the payload rows
        ht.release_tracker(&t);
        assert_eq!(t.current_bytes(), 0);
    }

    #[test]
    fn composite_keys() {
        let b = build_block(8);
        let ht = JoinHashTable::new(b.schema().project(&[2]));
        // key on (k, name) — all distinct because name differs
        ht.insert_block(&b, &[0, 1], &[2]).unwrap();
        let key = HashKey::from_row(&b, 3, &[0, 1]);
        let mut vals = vec![];
        ht.probe_key(&key, |p| vals.push(p.f64_at(0)));
        assert_eq!(vals, vec![3.0]);
    }

    #[test]
    fn wide_keys() {
        let s = Schema::from_pairs(&[("k", DataType::Char(20)), ("v", DataType::Int64)]);
        let mut b = StorageBlock::new(s, BlockFormat::Row, 1 << 14).unwrap();
        for i in 0..40i64 {
            b.append_row(&[Value::Str(format!("wide-{:02}", i % 10)), Value::I64(i)])
                .unwrap();
        }
        let ht = JoinHashTable::new(b.schema().project(&[1]));
        ht.insert_block(&b, &[0], &[1]).unwrap();
        let key = HashKey::from_row(&b, 3, &[0]);
        assert!(matches!(key, HashKey::Var(_)));
        let mut vals = vec![];
        ht.probe_key(&key, |p| vals.push(p.i64_at(0)));
        vals.sort_unstable();
        assert_eq!(vals, vec![3, 13, 23, 33]);
        // A packed key never equals a wide one.
        assert!(!ht.contains_key(&HashKey::from_i64(3)));
    }

    #[test]
    fn batched_probe_matches_scalar() {
        let build = build_block(200);
        let ht = table_for(&build);
        ht.insert_block(&build, &[0], &[1, 2]).unwrap();

        // Probe block with hit, duplicate-hit, and miss keys.
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut probe = StorageBlock::new(s, BlockFormat::Column, 1 << 12).unwrap();
        for i in 0..64 {
            probe.append_row(&[Value::I32(i % 7)]).unwrap(); // 4..6 miss
        }
        let ex = KeyExtractor::compile(probe.schema(), &[0]).unwrap();
        let mut batch = KeyBatch::new();
        ex.extract_block(&probe, &mut batch);

        let session = ht.probe_session();
        let mut matches = Vec::new();
        session.probe_batch(&batch, &mut matches);
        let mut exists = Vec::new();
        session.contains_batch(&batch, &mut exists);

        for (r, &seen) in exists.iter().enumerate() {
            let key = HashKey::from_row(&probe, r, &[0]);
            let mut scalar: Vec<f64> = Vec::new();
            ht.probe_key(&key, |p| scalar.push(p.f64_at(1)));
            let mut batched: Vec<f64> = matches
                .iter()
                .filter(|m| m.probe_row == r as u32)
                .map(|&m| session.payload(m).f64_at(1))
                .collect();
            scalar.sort_by(|a, b| a.partial_cmp(b).unwrap());
            batched.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(batched, scalar, "row {r}");
            assert_eq!(seen, !scalar.is_empty());
        }
        // Matches come out in probe-row order (gather relies on it).
        assert!(matches.windows(2).all(|w| w[0].probe_row <= w[1].probe_row));
    }

    #[test]
    fn zero_width_payload() {
        let b = build_block(30);
        let ht = JoinHashTable::new(b.schema().project(&[]));
        ht.insert_block(&b, &[0], &[]).unwrap();
        assert_eq!(ht.len(), 30);
        // 30 rows over keys 0..4: keys 0,1 appear 8 times, 2,3 appear 7.
        assert_eq!(ht.probe_key(&HashKey::from_i32(0), |_| {}), 8);
        assert_eq!(ht.probe_key(&HashKey::from_i32(3), |_| {}), 7);
        assert!(ht.contains_key(&HashKey::from_i32(2)));
    }
}
