//! Per-submission execution knobs, shared by both front ends.
//!
//! [`ExecOptions`] is one struct of per-query overrides that
//! [`Engine::execute_with`](crate::engine::Engine::execute_with) and
//! [`QueryService::submit_with`](crate::service::QueryService::submit_with)
//! both accept, layered over their owner's defaults by the same
//! [`ExecOptions::apply`].
//!
//! Field semantics per front end:
//!
//! | field | `Engine` | `QueryService` |
//! |---|---|---|
//! | `reservation` | per-run memory budget | admission reservation + budget |
//! | `deadline` | overrides `EngineConfig::deadline` | per-query deadline |
//! | `uot` | uniform UoT override | uniform UoT override |
//! | `trace` | enables tracing for this run | enables tracing for this query |
//! | `faults` | deterministic fault plan | deterministic fault plan |
//! | `fusion` | overrides `EngineConfig::fusion` | overrides `ServiceConfig::fusion` |
//! | `degrade` | overrides `EngineConfig::degrade` | overrides `ServiceConfig::degrade` |
//!
//! `degrade` means the same at both: under `LowerUot`, and as `Spill`'s
//! fallback, a query that trips its budget is retried once at a degraded UoT
//! with fusion off (the service re-runs it in place, under the same id,
//! reservation and cancellation token).

use crate::engine::{DegradePolicy, EngineConfig, TraceConfig};
use crate::fault::FaultPlan;
use crate::fusion::FusionPolicy;
use crate::plan::QueryPlan;
use crate::uot::Uot;
use std::sync::Arc;
use std::time::Duration;

/// Per-submission knobs (see the module docs for per-driver semantics).
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Bytes of memory this query may hold. Under a service this is the
    /// admission reservation carved from the global budget
    /// ([`ServiceConfig::default_reservation`](crate::service::ServiceConfig::default_reservation)
    /// when `None`); standalone it overrides
    /// [`EngineConfig::memory_budget`](crate::engine::EngineConfig::memory_budget).
    /// Either way it is the query's own hard cap: outgrowing it fails this
    /// query alone.
    pub reservation: Option<usize>,
    /// Wall-clock deadline from start/admission; past it the query is
    /// cancelled.
    pub deadline: Option<Duration>,
    /// UoT override for this query's edges (the owner's default when `None`).
    pub uot: Option<Uot>,
    /// Record a structured trace for this query.
    pub trace: bool,
    /// Deterministic fault plan (test harness).
    pub faults: Option<Arc<FaultPlan>>,
    /// Fused-pipeline policy override for this query (the owner's default
    /// when `None`).
    pub fusion: Option<FusionPolicy>,
    /// Budget-degradation policy override for this query (the owner's
    /// default when `None`). [`DegradePolicy::Spill`](crate::engine::DegradePolicy::Spill)
    /// arms the disk spill tier for this query alone.
    pub degrade: Option<DegradePolicy>,
}

impl ExecOptions {
    /// Builder-style setter for the memory reservation.
    pub fn with_reservation(mut self, bytes: usize) -> Self {
        self.reservation = Some(bytes);
        self
    }

    /// Builder-style setter for the deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder-style setter for the UoT override.
    pub fn with_uot(mut self, uot: Uot) -> Self {
        self.uot = Some(uot);
        self
    }

    /// Enable structured tracing for this query.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builder-style setter for a fault plan.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Builder-style setter for the fused-pipeline policy.
    pub fn with_fusion(mut self, fusion: FusionPolicy) -> Self {
        self.fusion = Some(fusion);
        self
    }

    /// Builder-style setter for the budget-degradation policy.
    pub fn with_degrade(mut self, degrade: DegradePolicy) -> Self {
        self.degrade = Some(degrade);
        self
    }

    /// Layer these options over a front end's per-query defaults: the one
    /// place every submission of either front end resolves its knobs, so a
    /// knob behaves the same whichever method or front end set it.
    pub(crate) fn apply(
        &self,
        mut cfg: EngineConfig,
        mut plan: QueryPlan,
    ) -> (EngineConfig, QueryPlan) {
        if let Some(uot) = self.uot {
            cfg.default_uot = uot;
            plan = plan.with_uniform_uot(uot);
        }
        if let Some(deadline) = self.deadline {
            cfg.deadline = Some(deadline);
        }
        if let Some(reservation) = self.reservation {
            cfg.memory_budget = Some(reservation);
        }
        if self.trace && cfg.trace.is_none() {
            cfg.trace = Some(TraceConfig::default());
        }
        if let Some(fusion) = self.fusion {
            cfg.fusion = fusion;
        }
        if let Some(degrade) = self.degrade {
            cfg.degrade = degrade;
        }
        (cfg, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_every_knob() {
        let o = ExecOptions::default()
            .with_reservation(4096)
            .with_deadline(Duration::from_secs(2))
            .with_uot(Uot::Table)
            .traced()
            .with_faults(Arc::new(FaultPlan::empty()))
            .with_fusion(FusionPolicy::Never)
            .with_degrade(DegradePolicy::Spill);
        assert_eq!(o.reservation, Some(4096));
        assert_eq!(o.deadline, Some(Duration::from_secs(2)));
        assert_eq!(o.uot, Some(Uot::Table));
        assert!(o.trace);
        assert!(o.faults.is_some());
        assert_eq!(o.fusion, Some(FusionPolicy::Never));
        assert_eq!(o.degrade, Some(DegradePolicy::Spill));
    }
}
