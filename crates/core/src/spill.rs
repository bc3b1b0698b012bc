//! Engine-side adapter for the storage crate's disk spill tier.
//!
//! [`SpillStore`](uot_storage::SpillStore) is deliberately engine-agnostic:
//! it reports I/O through the [`SpillObserver`](uot_storage::SpillObserver)
//! trait. [`EngineSpillHook`] is the engine's implementation — it threads the
//! deterministic [`FaultPlan`] through the new `SpillWrite`/`SpillRead`
//! sites and records `SpillOut`/`SpillIn` [`TraceEventKind`]s, so the chaos
//! harness and the exporters see the second tier exactly like every other
//! engine mechanism. Spill counts are recorded once, by the store's own
//! [`SpillStats`](uot_storage::SpillStats); they reach
//! [`QueryMetrics`](crate::metrics::QueryMetrics) and, through its fold, the
//! metrics hub when the attempt ends.

use crate::fault::{FaultKind, FaultPlan, FaultSite};
use crate::obs::live::LiveQuery;
use crate::trace::{TraceEventKind, TraceSink};
use std::sync::Arc;
use uot_storage::{MemoryTracker, SpillIo, SpillObserver};

/// Fault-injection and tracing hook installed on each query's
/// [`SpillStore`](uot_storage::SpillStore).
pub struct EngineSpillHook {
    faults: Option<Arc<FaultPlan>>,
    trace: Option<Arc<TraceSink>>,
    tracker: Arc<MemoryTracker>,
    live: Option<Arc<LiveQuery>>,
}

impl EngineSpillHook {
    /// Build the hook for one query execution. `tracker` is the query's
    /// tracker (read for the `in_use` field of spill trace events); each
    /// spill write also counts into the query's `live` registry entry as it
    /// happens, when given.
    pub fn new(
        faults: Option<Arc<FaultPlan>>,
        trace: Option<Arc<TraceSink>>,
        tracker: Arc<MemoryTracker>,
        live: Option<Arc<LiveQuery>>,
    ) -> Arc<Self> {
        Arc::new(EngineSpillHook {
            faults,
            trace,
            tracker,
            live,
        })
    }
}

impl SpillObserver for EngineSpillHook {
    fn before_io(&self, io: SpillIo, tag: usize) -> std::result::Result<(), String> {
        let site = match io {
            SpillIo::Write => FaultSite::SpillWrite,
            SpillIo::Read => FaultSite::SpillRead,
        };
        let Some(faults) = &self.faults else {
            return Ok(());
        };
        match faults.check(site) {
            None => Ok(()),
            Some(kind @ FaultKind::Delay(d)) => {
                if let Some(t) = &self.trace {
                    t.record(TraceEventKind::FaultInjected {
                        site,
                        kind,
                        op: tag,
                    });
                }
                std::thread::sleep(d);
                Ok(())
            }
            // Spill I/O runs while a worker books a completion under the
            // dispatcher lock as well as inside work orders, so a `Panic`
            // here is not guaranteed to be contained by the work-order
            // catch_unwind. Both failure kinds degrade to a
            // clean error instead — the invariant under test is "a failed
            // spill surfaces as an attributed error, never a crash or leak".
            Some(kind @ (FaultKind::Panic | FaultKind::Error)) => {
                if let Some(t) = &self.trace {
                    t.record(TraceEventKind::FaultInjected {
                        site,
                        kind,
                        op: tag,
                    });
                }
                Err(format!("injected fault at {site:?}"))
            }
        }
    }

    fn spilled(&self, tag: usize, bytes: usize) {
        if let Some(t) = &self.trace {
            t.record(TraceEventKind::SpillOut {
                op: tag,
                bytes,
                in_use: self.tracker.current_bytes(),
            });
        }
        if let Some(live) = &self.live {
            live.on_spill();
        }
    }

    fn restored(&self, tag: usize, bytes: usize) {
        if let Some(t) = &self.trace {
            t.record(TraceEventKind::SpillIn {
                op: tag,
                bytes,
                in_use: self.tracker.current_bytes(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Injection;
    use uot_storage::{BlockFormat, Schema, SpillStore, StorageBlock, StorageError, Value};

    fn block() -> StorageBlock {
        let s = Schema::from_pairs(&[("k", uot_storage::DataType::Int32)]);
        let mut b = StorageBlock::new(s, BlockFormat::Row, 256).unwrap();
        b.append_row(&[Value::I32(1)]).unwrap();
        b
    }

    #[test]
    fn hook_records_spill_events_and_injects_faults() {
        let tracker = MemoryTracker::new();
        let sink = TraceSink::new(1024);
        let faults = Arc::new(FaultPlan::new(vec![Injection {
            site: FaultSite::SpillWrite,
            kind: FaultKind::Error,
            nth: 2,
        }]));
        let store = SpillStore::new(None, tracker.clone());
        store.set_observer(EngineSpillHook::new(
            Some(faults),
            Some(sink.clone()),
            tracker.clone(),
            None,
        ));

        let b = block();
        tracker.alloc(b.allocated_bytes());
        // First write succeeds and is traced; second hits the injection.
        let h = store.spill_block(&b, 3).unwrap();
        let b2 = block();
        tracker.alloc(b2.allocated_bytes());
        let err = store.spill_block(&b2, 3).unwrap_err();
        assert!(matches!(err, StorageError::SpillIo { .. }));
        assert!(err.to_string().contains("injected fault at SpillWrite"));
        let restored = store.restore(h).unwrap();
        assert_eq!(restored.num_rows(), 1);

        let trace = sink.finish(vec![]);
        assert_eq!(
            trace.count(|k| matches!(k, TraceEventKind::SpillOut { op: 3, .. })),
            1
        );
        assert_eq!(
            trace.count(|k| matches!(k, TraceEventKind::SpillIn { op: 3, .. })),
            1
        );
        assert_eq!(
            trace.count(|k| matches!(
                k,
                TraceEventKind::FaultInjected {
                    site: FaultSite::SpillWrite,
                    ..
                }
            )),
            1
        );
    }

    #[test]
    fn panic_kind_degrades_to_a_clean_error() {
        let tracker = MemoryTracker::new();
        let faults = Arc::new(FaultPlan::new(vec![Injection {
            site: FaultSite::SpillRead,
            kind: FaultKind::Panic,
            nth: 1,
        }]));
        let store = SpillStore::new(None, tracker.clone());
        let b = block();
        tracker.alloc(b.allocated_bytes());
        let h = store.spill_block(&b, 0).unwrap();
        store.set_observer(EngineSpillHook::new(
            Some(faults),
            None,
            tracker.clone(),
            None,
        ));
        let err = store.restore(h).unwrap_err();
        assert!(err.to_string().contains("injected fault at SpillRead"));
        assert_eq!(tracker.current_bytes(), 0, "no leak on injected read fault");
    }
}
