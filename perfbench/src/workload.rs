//! The four workloads, fixed in code. The only input a run takes is the
//! workload seed; no environment variable changes what runs.

use uot_core::{DegradePolicy, EngineConfig, ExecMode, FusionPolicy, ServiceConfig, Uot};
use uot_tpch::{all_queries, QueryId as Stmt};

/// The `concurrent_clients` mix: scan-heavy aggregation, a shallow and a
/// deep probe pipeline, a semi join and a disjunctive join.
pub const MIX: [Stmt; 5] = [Stmt::Q1, Stmt::Q3, Stmt::Q6, Stmt::Q12, Stmt::Q19];

/// Trace capacity for traced passes: large enough that no event is dropped
/// from the biggest staged query, which records every event on one thread.
pub const TRACE_CAPACITY: usize = 1 << 24;

/// Workload names and the scale factor each runs at.
pub const WORKLOADS: [(&str, f64); 4] = [
    ("tpch-staged-low", 0.02),
    ("tpch-fused-table", 0.05),
    ("service-mix", 0.02),
    ("service-spill", 0.02),
];

/// Which public API a workload drives.
#[derive(Debug, Clone)]
pub enum Front {
    /// `Engine::execute_sql_with`, one caller.
    Engine(EngineConfig),
    /// `QueryService::submit_sql_with` then `QueryHandle::wait`. The catalog
    /// is filled in when the service starts.
    Service(ServiceConfig),
}

/// One workload: data, front end, statements and callers.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// TPC-H scale factor.
    pub sf: f64,
    /// Block size of the column-store base tables.
    pub base_block_bytes: usize,
    /// Front end and its configuration.
    pub front: Front,
    /// The statements every caller walks, in order.
    pub statements: Vec<Stmt>,
    /// Closed-loop callers.
    pub clients: usize,
}

/// `tpch_spill`'s pinned reservation inside the degradation band: above the
/// non-evictable floor, below the mix's working set.
pub fn spill_reservation(sf: f64) -> usize {
    ((sf / 0.005) as usize).max(1) * (448 << 10)
}

impl Workload {
    /// The named workload at its own scale factor.
    pub fn named(name: &str) -> Option<Workload> {
        let &(_, sf) = WORKLOADS.iter().find(|(n, _)| *n == name)?;
        Workload::at_scale(name, sf)
    }

    /// The named workload at scale factor `sf` (the smoke test shrinks it).
    pub fn at_scale(name: &str, sf: f64) -> Option<Workload> {
        let (name, _) = *WORKLOADS.iter().find(|(n, _)| *n == name)?;
        let w = match name {
            "tpch-staged-low" => Workload {
                name,
                sf,
                base_block_bytes: 32 << 10,
                front: Front::Engine(
                    EngineConfig::serial()
                        .with_block_bytes(32 << 10)
                        .with_uot(Uot::Blocks(1))
                        .with_fusion(FusionPolicy::Never),
                ),
                statements: all_queries(),
                clients: 1,
            },
            "tpch-fused-table" => Workload {
                name,
                sf,
                base_block_bytes: 512 << 10,
                front: Front::Engine(
                    EngineConfig::parallel(2)
                        .with_block_bytes(512 << 10)
                        .with_uot(Uot::Table)
                        .with_fusion(FusionPolicy::Auto),
                ),
                statements: all_queries(),
                clients: 1,
            },
            "service-mix" => Workload {
                name,
                sf,
                base_block_bytes: 32 << 10,
                front: Front::Service(ServiceConfig {
                    workers: 2,
                    trace_capacity: TRACE_CAPACITY,
                    ..Default::default()
                }),
                statements: MIX.to_vec(),
                clients: 2,
            },
            "service-spill" => Workload {
                name,
                sf,
                base_block_bytes: 32 << 10,
                front: Front::Service(ServiceConfig {
                    workers: 2,
                    block_bytes: 32 << 10,
                    degrade: DegradePolicy::Spill,
                    default_reservation: spill_reservation(sf),
                    trace_capacity: TRACE_CAPACITY,
                    ..Default::default()
                }),
                statements: MIX.to_vec(),
                clients: 1,
            },
            _ => return None,
        };
        Some(w)
    }

    /// Worker threads executing work orders.
    pub fn workers(&self) -> usize {
        match &self.front {
            Front::Engine(cfg) => match cfg.mode {
                ExecMode::Serial => 1,
                ExecMode::Parallel { workers } => workers,
            },
            Front::Service(cfg) => cfg.workers,
        }
    }

    /// Block size of temporaries.
    pub fn temp_block_bytes(&self) -> usize {
        match &self.front {
            Front::Engine(cfg) => cfg.block_bytes,
            Front::Service(cfg) => cfg.block_bytes,
        }
    }

    /// Where each caller starts in the statement list: seed-derived, with
    /// callers spread evenly around the list.
    pub fn client_offset(&self, seed: u64, client: usize) -> usize {
        let n = self.statements.len();
        let stride = (n / self.clients).max(1);
        ((seed % n as u64) as usize + client * stride) % n
    }

    /// One line describing the configuration, for the run record.
    pub fn describe(&self) -> String {
        match &self.front {
            Front::Engine(cfg) => format!(
                "Engine {:?}, {:?}, UoT {}, fusion {:?}",
                cfg.mode, cfg.degrade, cfg.default_uot, cfg.fusion
            ),
            Front::Service(cfg) => format!(
                "QueryService workers {}, {:?}, UoT {}, fusion {:?}, reservation {} KiB",
                cfg.workers,
                cfg.degrade,
                cfg.default_uot,
                cfg.fusion,
                cfg.default_reservation >> 10
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_unknown_does_not() {
        for (name, sf) in WORKLOADS {
            let w = Workload::named(name).expect("known workload");
            assert_eq!(w.name, name);
            assert_eq!(w.sf, sf);
        }
        assert!(Workload::named("nope").is_none());
    }

    #[test]
    fn spill_reservation_is_the_pinned_point() {
        assert_eq!(spill_reservation(0.02), 1792 << 10);
        assert_eq!(spill_reservation(0.005), 448 << 10);
    }

    #[test]
    fn client_offsets_are_spread_and_seeded() {
        let w = Workload::named("service-mix").expect("known workload");
        assert_eq!(w.client_offset(0, 0), 0);
        assert_eq!(w.client_offset(0, 1), 2);
        assert_eq!(w.client_offset(4, 1), 1);
    }
}
