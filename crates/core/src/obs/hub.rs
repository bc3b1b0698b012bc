//! The always-on metrics hub: live service telemetry without trace replay.
//!
//! [`TraceSink`](crate::trace::TraceSink) speaks only after a query finishes
//! — it buffers events and folds them post-hoc. The [`MetricsHub`] is the
//! complementary running total across every query a service or engine runs:
//! lock-free counters and log-bucketed (HDR-style) histograms, cheap enough
//! to leave on for every query. It records nothing per event. The front end
//! counts each query's submission, admission and outcome once, and each
//! finished attempt adds its [`QueryMetrics`] in one bulk merge
//! (`HubSnapshot::of_attempt` + [`MetricsHub::absorb`]). A `/metrics`
//! scrape therefore counts an attempt's work when the attempt ends; in-flight
//! progress is on `/queries`.
//!
//! ## Histogram bucketing
//!
//! Values 0..8 map to exact unit buckets; larger values map to one of four
//! sub-buckets per power of two (two mantissa bits), so every bucket's width
//! is at most 25% of its lower bound. 252 buckets cover the full `u64`
//! range. Recording is three relaxed atomic adds.

use crate::metrics::QueryMetrics;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic event counters the hub maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HubCounter {
    /// Queries submitted to the service (before admission).
    QueriesSubmitted,
    /// Queries that finished successfully.
    QueriesCompleted,
    /// Queries that finished with an error (other than cancellation).
    QueriesFailed,
    /// Queries cancelled (explicitly or by deadline).
    QueriesCancelled,
    /// Submissions parked in the admission queue.
    AdmissionQueued,
    /// Submissions rejected at admission.
    AdmissionRejected,
    /// Work orders completed.
    WorkOrders,
    /// Output blocks produced by operators.
    BlocksProduced,
    /// Output rows produced by operators.
    RowsProduced,
    /// Edge flushes (threshold-triggered transfers).
    Transfers,
    /// End-of-producer flushes of partial accumulations.
    PartialTransfers,
    /// Blocks moved across transfer edges.
    TransferBlocks,
    /// Bytes moved across transfer edges.
    TransferBytes,
    /// Blocks evicted to the disk spill tier.
    SpillEvents,
    /// Bytes written to the disk spill tier.
    SpilledBytes,
    /// Bytes faulted back in from the spill tier.
    SpillRestoredBytes,
}

/// Names and help strings, indexed by `HubCounter as usize`. Counter names
/// follow the Prometheus convention: every counter carries a `_total`
/// suffix.
pub(crate) const COUNTERS: &[(&str, &str)] = &[
    ("uot_hub_queries_submitted_total", "Queries submitted"),
    ("uot_hub_queries_completed_total", "Queries that succeeded"),
    ("uot_hub_queries_failed_total", "Queries that failed"),
    ("uot_hub_queries_cancelled_total", "Queries cancelled"),
    (
        "uot_hub_admission_queued_total",
        "Submissions parked in the admission queue",
    ),
    (
        "uot_hub_admission_rejected_total",
        "Submissions rejected at admission",
    ),
    ("uot_hub_work_orders_total", "Work orders completed"),
    ("uot_hub_blocks_produced_total", "Output blocks produced"),
    ("uot_hub_rows_produced_total", "Output rows produced"),
    (
        "uot_hub_transfers_total",
        "Threshold-triggered edge flushes",
    ),
    (
        "uot_hub_partial_transfers_total",
        "End-of-producer partial flushes",
    ),
    (
        "uot_hub_transfer_blocks_total",
        "Blocks moved across transfer edges",
    ),
    (
        "uot_hub_transfer_bytes_total",
        "Bytes moved across transfer edges",
    ),
    ("uot_hub_spill_events_total", "Blocks evicted to disk"),
    ("uot_hub_spilled_bytes_total", "Bytes spilled to disk"),
    (
        "uot_hub_spill_restored_bytes_total",
        "Bytes restored from disk",
    ),
];

/// The distributions the hub tracks as log-bucketed histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HubHistogram {
    /// Submit-to-result latency per query, microseconds.
    QueryLatencyUs,
    /// Submit-to-admission wait per query, microseconds.
    AdmissionWaitUs,
    /// Work-order service time, microseconds.
    WorkOrderServiceUs,
}

/// Names and help strings, indexed by `HubHistogram as usize`.
pub(crate) const HISTOGRAMS: &[(&str, &str)] = &[
    (
        "uot_hub_query_latency_us",
        "Submit-to-result query latency (us)",
    ),
    ("uot_hub_admission_wait_us", "Submit-to-admission wait (us)"),
    (
        "uot_hub_work_order_service_us",
        "Work-order service time (us)",
    ),
];

const NUM_COUNTERS: usize = COUNTERS.len();
const NUM_HISTOGRAMS: usize = HISTOGRAMS.len();

/// Total buckets: 8 exact unit buckets plus 4 sub-buckets for each of the 61
/// octaves `2^3 ..= 2^63`.
pub const HIST_BUCKETS: usize = 252;

/// Bucket index of `v` (see the module docs for the mapping).
pub fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64;
        let sub = (v >> (msb - 2)) & 3;
        (8 + (msb - 3) * 4 + sub) as usize
    }
}

/// Half-open value range `[lo, hi)` covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < 8 {
        (i as u64, i as u64 + 1)
    } else {
        let octave = ((i - 8) / 4) as u32;
        let sub = ((i - 8) % 4) as u64;
        let width = 1u64 << (octave + 1);
        let lo = (1u64 << (octave + 3)) + sub * width;
        (lo, lo.saturating_add(width))
    }
}

/// One live histogram: relaxed atomic bucket counts plus count and sum.
#[derive(Debug)]
struct AtomicHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Add `n` observations totalling `sum`, whose buckets the caller has
    /// already added. The count goes last with `Release`, so a snapshot that
    /// `Acquire`-loads the count sees at least that many bucket/sum updates.
    fn publish(&self, n: u64, sum: u64) {
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Release);
    }
}

/// Live metrics: counters plus log-bucketed histograms (module docs). One hub
/// serves a whole [`QueryService`](crate::service::QueryService) — or a whole
/// [`Engine`](crate::engine::Engine) when installed via
/// [`EngineConfig::hub`](crate::engine::EngineConfig::hub) — across every
/// query it runs.
#[derive(Debug)]
pub struct MetricsHub {
    counters: [AtomicU64; NUM_COUNTERS],
    hists: [AtomicHistogram; NUM_HISTOGRAMS],
}

impl Default for MetricsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        MetricsHub {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    /// Add `delta` to a counter.
    pub fn add(&self, c: HubCounter, delta: u64) {
        self.counters[c as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Record one observation into a histogram.
    pub fn record(&self, h: HubHistogram, v: u64) {
        let h = &self.hists[h as usize];
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        h.publish(1, v);
    }

    /// Bulk-merge `delta` — one finished attempt's metrics, or another
    /// hub's snapshot — in one pass over its non-zero entries instead of an
    /// atomic add per event. Keeps the snapshot ordering
    /// invariant: every histogram's buckets and sum land before its count
    /// (`Release`), so a concurrent [`snapshot`](Self::snapshot) never sees
    /// a count the buckets can't cover.
    pub fn absorb(&self, delta: &HubSnapshot) {
        for (&d, shared) in delta.counters.iter().zip(self.counters.iter()) {
            if d > 0 {
                shared.fetch_add(d, Ordering::Relaxed);
            }
        }
        for (d, shared) in delta.hists.iter().zip(self.hists.iter()) {
            if d.count == 0 {
                continue;
            }
            for (&b, sb) in d.buckets.iter().zip(shared.buckets.iter()) {
                if b > 0 {
                    sb.fetch_add(b, Ordering::Relaxed);
                }
            }
            shared.publish(d.count, d.sum);
        }
    }

    /// A point-in-time copy. Recording may continue concurrently; the
    /// snapshot never loses or double-counts an update that completed before
    /// the call, and never includes a partial bucket increment without
    /// eventually including its count.
    pub fn snapshot(&self) -> HubSnapshot {
        let counters = std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed));
        let hists = self
            .hists
            .iter()
            .map(|h| {
                // Count first (Acquire): the buckets and sum read after it
                // cover at least that many observations.
                let count = h.count.load(Ordering::Acquire);
                HistogramSnapshot {
                    count,
                    sum: h.sum.load(Ordering::Relaxed),
                    buckets: h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                }
            })
            .collect();
        HubSnapshot { counters, hists }
    }
}

/// A point-in-time copy of a [`MetricsHub`], or the delta one finished
/// attempt adds to it.
#[derive(Debug, Clone)]
pub struct HubSnapshot {
    counters: [u64; NUM_COUNTERS],
    hists: Vec<HistogramSnapshot>,
}

impl HubSnapshot {
    fn empty() -> Self {
        HubSnapshot {
            counters: [0; NUM_COUNTERS],
            hists: (0..NUM_HISTOGRAMS)
                .map(|_| HistogramSnapshot::empty())
                .collect(),
        }
    }

    /// The delta one finished attempt adds to the hub: its work-order,
    /// production, transfer and spill totals, and one service-time
    /// observation per executed work order.
    pub(crate) fn of_attempt(m: &QueryMetrics) -> Self {
        let mut s = HubSnapshot::empty();
        let c = &mut s.counters;
        for op in &m.ops {
            c[HubCounter::WorkOrders as usize] += op.work_orders as u64;
            c[HubCounter::BlocksProduced as usize] += op.produced_blocks as u64;
            c[HubCounter::RowsProduced as usize] += op.produced_rows as u64;
        }
        for e in &m.edges {
            c[HubCounter::Transfers as usize] += e.flushes as u64;
            c[HubCounter::PartialTransfers as usize] += e.partial_flushes as u64;
            c[HubCounter::TransferBlocks as usize] += e.blocks as u64;
            c[HubCounter::TransferBytes as usize] += e.bytes as u64;
        }
        c[HubCounter::SpillEvents as usize] = m.spill_events as u64;
        c[HubCounter::SpilledBytes as usize] = m.spilled_bytes as u64;
        c[HubCounter::SpillRestoredBytes as usize] = m.restored_bytes as u64;
        let service = &mut s.hists[HubHistogram::WorkOrderServiceUs as usize];
        for d in m.ops.iter().flat_map(|op| &op.task_times) {
            service.record(d.as_micros() as u64);
        }
        s
    }

    /// The current value of `c`.
    pub fn counter(&self, c: HubCounter) -> u64 {
        self.counters[c as usize]
    }

    /// The histogram for `h`.
    pub fn histogram(&self, h: HubHistogram) -> &HistogramSnapshot {
        &self.hists[h as usize]
    }

    /// Merge `other` into `self` (counters add, histograms add bucketwise) —
    /// for aggregating hubs across services or processes.
    pub fn merge(&mut self, other: &HubSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// Iterate `(name, help, value)` over every counter.
    pub(crate) fn counter_rows(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        COUNTERS
            .iter()
            .zip(self.counters.iter())
            .map(|(&(name, help), &v)| (name, help, v))
    }

    /// Iterate `(name, help, histogram)` over every histogram.
    pub(crate) fn histogram_rows(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, &HistogramSnapshot)> + '_ {
        HISTOGRAMS
            .iter()
            .zip(self.hists.iter())
            .map(|(&(name, help), h)| (name, help, h))
    }
}

/// One log-bucketed histogram's counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket observation counts ([`bucket_bounds`] gives the ranges).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty histogram.
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Add `other`'s observations to `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Record one observation without atomics — the per-attempt fold and
    /// the serial reference path; the concurrent path is
    /// [`MetricsHub::record`].
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (0.0 ..= 1.0) as the largest value mapping to the
    /// bucket that holds the rank-`round(q * (count-1))` observation — the
    /// same rank rule the bench harness's exact percentiles use, so the two
    /// always land in the same bucket when fed the same observations.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum > rank {
                return bucket_bounds(i).1 - 1;
            }
        }
        bucket_bounds(HIST_BUCKETS - 1).1 - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_exhaustive_and_monotonic() {
        // Every bucket's bounds round-trip through bucket_index, and bounds
        // tile the value range without gaps or overlaps.
        let mut prev_hi = 0u64;
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(
                lo,
                prev_hi,
                "bucket {i} must start where {} ended",
                i.max(1) - 1
            );
            assert!(hi > lo);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi - 1), i);
            prev_hi = hi;
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_width_is_within_a_quarter_of_lower_bound() {
        for i in 8..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(
                (hi - lo) * 4 <= lo,
                "bucket {i} [{lo},{hi}) wider than 25% of its lower bound"
            );
        }
    }

    #[test]
    fn record_and_snapshot_round_trip() {
        let hub = MetricsHub::new();
        hub.add(HubCounter::WorkOrders, 3);
        hub.add(HubCounter::WorkOrders, 2);
        for v in [0u64, 1, 7, 8, 100, 1_000_000] {
            hub.record(HubHistogram::QueryLatencyUs, v);
        }
        let snap = hub.snapshot();
        assert_eq!(snap.counter(HubCounter::WorkOrders), 5);
        let h = snap.histogram(HubHistogram::QueryLatencyUs);
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1_000_116);
        assert_eq!(h.buckets.iter().sum::<u64>(), 6);
    }

    #[test]
    fn quantile_matches_exact_rank_bucket() {
        let hub = MetricsHub::new();
        let mut values: Vec<u64> = (0..1000).map(|i| i * 37 % 9973).collect();
        for &v in &values {
            hub.record(HubHistogram::WorkOrderServiceUs, v);
        }
        values.sort_unstable();
        let snap = hub.snapshot();
        let h = snap.histogram(HubHistogram::WorkOrderServiceUs);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let rank = ((values.len() - 1) as f64 * q).round() as usize;
            assert_eq!(
                bucket_index(h.quantile(q)),
                bucket_index(values[rank]),
                "q={q}"
            );
        }
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = MetricsHub::new();
        let b = MetricsHub::new();
        a.record(HubHistogram::QueryLatencyUs, 10);
        b.record(HubHistogram::QueryLatencyUs, 10);
        b.record(HubHistogram::QueryLatencyUs, 99);
        b.add(HubCounter::SpillEvents, 2);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counter(HubCounter::SpillEvents), 2);
        let h = s.histogram(HubHistogram::QueryLatencyUs);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 119);
        assert_eq!(h.buckets[bucket_index(10)], 2);
        assert_eq!(h.buckets[bucket_index(99)], 1);
    }
}
