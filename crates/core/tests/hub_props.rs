//! Property and concurrency tests for the always-on [`MetricsHub`].
//!
//! The hub is one set of atomic counters and histogram buckets that any
//! thread may add to while a scraper takes [`HubSnapshot`]s. These tests pin
//! the contract:
//!
//! 1. Recording any workload from any number of threads and then taking a
//!    snapshot yields exactly the same histogram (count, sum, every bucket)
//!    as a serial [`HistogramSnapshot`] built with `record()` — the
//!    reference implementation.
//! 2. Snapshots taken *while* recorders are running never over-count and
//!    are monotone: the hub may miss in-flight increments but it never
//!    invents them, so a scraper always sees a consistent past.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use uot_core::obs::hub::{bucket_bounds, bucket_index, HIST_BUCKETS};
use uot_core::{HistogramSnapshot, HubCounter, HubHistogram, MetricsHub};

/// Values stay below 2^44 so a 512-element workload cannot overflow the
/// u64 `sum` accumulator; the range still exercises ~44 of the 63 octaves.
fn observation() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..16,                // the exact low buckets
        1u64..(1 << 20),         // mid octaves
        (1u64 << 20)..(1 << 44), // high octaves
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Concurrent recording + snapshot == serial reference, exactly.
    #[test]
    fn concurrent_histogram_matches_serial_reference(
        values in proptest::collection::vec(observation(), 0..512),
        threads in 1usize..5,
    ) {
        let mut reference = HistogramSnapshot::empty();
        for &v in &values {
            reference.record(v);
        }

        let hub = MetricsHub::new();
        // Chunk the workload across real threads so the observations race on
        // the same atomics.
        std::thread::scope(|s| {
            for chunk in values.chunks(values.len().div_ceil(threads).max(1)) {
                let hub = &hub;
                s.spawn(move || {
                    for &v in chunk {
                        hub.record(HubHistogram::QueryLatencyUs, v);
                    }
                });
            }
        });

        let snap = hub.snapshot();
        let folded = snap.histogram(HubHistogram::QueryLatencyUs);
        prop_assert_eq!(folded.count, reference.count);
        prop_assert_eq!(folded.sum, reference.sum);
        prop_assert_eq!(&folded.buckets[..], &reference.buckets[..]);
    }

    /// Counter adds distribute over threads: the snapshot total is the
    /// serial sum no matter how the deltas are interleaved.
    #[test]
    fn concurrent_counters_sum_exactly(
        deltas in proptest::collection::vec(0u64..(1 << 32), 0..256),
        threads in 1usize..5,
    ) {
        let expected: u64 = deltas.iter().sum();
        let hub = MetricsHub::new();
        std::thread::scope(|s| {
            for chunk in deltas.chunks(deltas.len().div_ceil(threads).max(1)) {
                let hub = &hub;
                s.spawn(move || {
                    for &d in chunk {
                        hub.add(HubCounter::TransferBytes, d);
                    }
                });
            }
        });
        prop_assert_eq!(hub.snapshot().counter(HubCounter::TransferBytes), expected);
    }

    /// Merging partial snapshots is associative with recording: split a
    /// workload arbitrarily, record each part into its own hub, merge the
    /// snapshots — same result as one hub seeing it all.
    #[test]
    fn snapshot_merge_matches_single_hub(
        values in proptest::collection::vec(observation(), 0..256),
        split in 0usize..=256,
    ) {
        let cut = split.min(values.len());
        let whole = MetricsHub::new();
        let (a, b) = (MetricsHub::new(), MetricsHub::new());
        for (i, &v) in values.iter().enumerate() {
            whole.record(HubHistogram::QueryLatencyUs, v);
            whole.add(HubCounter::SpillEvents, 1);
            let part = if i < cut { &a } else { &b };
            part.record(HubHistogram::QueryLatencyUs, v);
            part.add(HubCounter::SpillEvents, 1);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let lone = whole.snapshot();
        prop_assert_eq!(merged.counter(HubCounter::SpillEvents), lone.counter(HubCounter::SpillEvents));
        let (m, l) = (
            merged.histogram(HubHistogram::QueryLatencyUs),
            lone.histogram(HubHistogram::QueryLatencyUs),
        );
        prop_assert_eq!(m.count, l.count);
        prop_assert_eq!(m.sum, l.sum);
        prop_assert_eq!(&m.buckets[..], &l.buckets[..]);
    }

    /// Every value lands in a bucket whose bounds contain it, and the
    /// bucket index is monotone in the value — the invariant the quantile
    /// estimator and the bench's same-bucket assertion both lean on.
    #[test]
    fn bucket_index_is_consistent_and_monotone(a in any::<u64>(), b in any::<u64>()) {
        for v in [a, b] {
            let i = bucket_index(v);
            prop_assert!(i < HIST_BUCKETS);
            let (lo, hi) = bucket_bounds(i);
            prop_assert!(lo <= v && v <= hi, "{v} outside bucket {i} = [{lo}, {hi}]");
        }
        if a <= b {
            prop_assert!(bucket_index(a) <= bucket_index(b));
        } else {
            prop_assert!(bucket_index(b) <= bucket_index(a));
        }
    }
}

/// Live scraping: snapshots racing with recorders never over-count, counts
/// are monotone across successive snapshots, and the post-join snapshot is
/// exact. This is the `/metrics` endpoint's consistency story.
///
/// Every recorder pauses halfway on a barrier the scraper joins, so at least
/// one scrape lands while recording is under way however the threads are
/// scheduled, and that scrape must read exactly the recorded half.
#[test]
fn concurrent_snapshots_are_monotone_and_final_fold_is_exact() {
    const RECORDERS: u64 = 4;
    const PER_THREAD: u64 = 50_000;

    let hub = Arc::new(MetricsHub::new());
    let done = Arc::new(AtomicBool::new(false));
    // Recorders plus the scraper: `halfway` parks everyone at PER_THREAD / 2,
    // `resume` lets the recorders go once the scraper has read the hub.
    let halfway = Arc::new(Barrier::new(RECORDERS as usize + 1));
    let resume = Arc::new(Barrier::new(RECORDERS as usize + 1));

    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for _ in 0..RECORDERS {
            let (hub, halfway, resume) = (hub.clone(), halfway.clone(), resume.clone());
            workers.push(s.spawn(move || {
                for i in 0..PER_THREAD {
                    if i == PER_THREAD / 2 {
                        halfway.wait();
                        resume.wait();
                    }
                    hub.add(HubCounter::WorkOrders, 1);
                    hub.record(HubHistogram::WorkOrderServiceUs, i % 4096);
                }
            }));
        }

        let scraper = {
            let (hub, done) = (hub.clone(), done.clone());
            let (halfway, resume) = (halfway.clone(), resume.clone());
            s.spawn(move || {
                let cap = RECORDERS * PER_THREAD;
                halfway.wait();
                let snap = hub.snapshot();
                // Release the recorders before asserting, so a failure here
                // fails the test instead of parking them forever.
                resume.wait();
                let half = RECORDERS * PER_THREAD / 2;
                let mut last_counter = snap.counter(HubCounter::WorkOrders);
                let mut last_count = snap.histogram(HubHistogram::WorkOrderServiceUs).count;
                assert_eq!(last_counter, half, "halfway counter");
                assert_eq!(last_count, half, "halfway histogram count");
                let mut scrapes = 1u64;
                while !done.load(Ordering::Acquire) {
                    let snap = hub.snapshot();
                    let c = snap.counter(HubCounter::WorkOrders);
                    assert!(
                        c >= last_counter,
                        "counter went backwards: {last_counter} -> {c}"
                    );
                    assert!(c <= cap, "counter over-counted: {c} > {cap}");
                    last_counter = c;

                    let h = snap.histogram(HubHistogram::WorkOrderServiceUs);
                    assert!(h.count >= last_count, "histogram count went backwards");
                    assert!(
                        h.count <= cap,
                        "histogram over-counted: {} > {cap}",
                        h.count
                    );
                    last_count = h.count;
                    // A recorder publishes buckets before bumping `count`
                    // and the snapshot reads `count` first, so the bucket
                    // total can only ever run ahead of the count — never
                    // behind.
                    let staged: u64 = h.buckets.iter().sum();
                    assert!(
                        staged >= h.count,
                        "bucket total {staged} fell behind count {}",
                        h.count
                    );
                    scrapes += 1;
                }
                scrapes
            })
        };

        for w in workers {
            w.join().expect("recorder thread panicked");
        }
        done.store(true, Ordering::Release);
        let scrapes = scraper.join().expect("scraper thread panicked");
        assert!(scrapes > 0, "scraper never ran");
    });

    let snap = hub.snapshot();
    let total = RECORDERS * PER_THREAD;
    assert_eq!(snap.counter(HubCounter::WorkOrders), total);
    let h = snap.histogram(HubHistogram::WorkOrderServiceUs);
    assert_eq!(h.count, total);
    let per_thread_sum: u64 = (0..PER_THREAD).map(|i| i % 4096).sum();
    assert_eq!(h.sum, RECORDERS * per_thread_sum);
    assert_eq!(h.buckets.iter().sum::<u64>(), total);
    // Spot-check placement: every observation was < 4096, so nothing may
    // sit above bucket_index(4095).
    let top = bucket_index(4095);
    assert!(h.buckets[top + 1..].iter().all(|&b| b == 0));
}
