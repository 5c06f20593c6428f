//! The typed request/response currency of a [`ScenarioSession`].
//!
//! Requests carry *elaborated* model inputs — a [`ModelContext`], a
//! [`ChipDesign`] or [`SweepPlan`], a [`Workload`] — not scenario
//! text. Parsing scenario files (or protocol frames) into requests is
//! the transport layer's job; keeping the service currency typed is
//! what makes "session responses equal fresh-process responses" a
//! property of plain values.
//!
//! [`ScenarioSession`]: crate::service::ScenarioSession

use crate::context::ModelContext;
use crate::design::ChipDesign;
use crate::explore::{ExploreResult, ExploreSpec};
use crate::model::LifecycleReport;
use crate::operational::Workload;
use crate::sensitivity::SensitivityEntry;
use crate::sweep::{SweepPlan, SweepResult};
use crate::EmbodiedBreakdown;
use std::sync::Arc;

/// One unit of work for a [`ScenarioSession`].
///
/// The variants mirror the three evaluating `tdc` commands. Every
/// variant carries its own [`ModelContext`] — a session serves
/// heterogeneous scenario streams, so nothing about the configuration
/// is session-global.
///
/// [`ScenarioSession`]: crate::service::ScenarioSession
#[derive(Debug, Clone)]
pub enum EvalRequest {
    /// Evaluate one design: the full life cycle when a workload is
    /// given, embodied carbon only otherwise (the `tdc run` split).
    Run {
        /// The model configuration of this request.
        context: ModelContext,
        /// The design to evaluate.
        design: ChipDesign,
        /// The mission profile; `None` asks for embodied carbon only.
        workload: Option<Workload>,
    },
    /// Evaluate a design-space plan and rank the results.
    Sweep {
        /// The model configuration of this request.
        context: ModelContext,
        /// The enumerated plan (build one via
        /// [`DesignSweep::plan`](crate::sweep::DesignSweep::plan)).
        plan: SweepPlan,
        /// The mission profile the sweep prices against.
        workload: Workload,
    },
    /// One-at-a-time sensitivity (tornado) analysis of a design.
    Sensitivity {
        /// The base model configuration to perturb.
        context: ModelContext,
        /// The design to analyse.
        design: ChipDesign,
        /// The mission profile.
        workload: Workload,
    },
    /// Carbon-aware exploration of a design-space plan: constraints,
    /// Pareto frontier, Eq. 2 baseline ranking, and (optionally)
    /// adaptive axis refinement — all on the session's warm executor.
    Explore {
        /// The model configuration of this request.
        context: ModelContext,
        /// The enumerated plan to explore.
        plan: SweepPlan,
        /// The mission profile the exploration prices against.
        workload: Workload,
        /// Objectives, constraints, baseline, and refinement.
        spec: ExploreSpec,
    },
}

/// What a [`ScenarioSession`] answered a request with.
///
/// Each variant is exactly the value the corresponding fresh-process
/// evaluation produces — byte-identical once rendered, because it is
/// structurally equal (the session property tests assert `==` on
/// these).
///
/// [`ScenarioSession`]: crate::service::ScenarioSession
#[derive(Debug, Clone, PartialEq)]
pub enum EvalResponse {
    /// Embodied-only evaluation of a [`EvalRequest::Run`] without a
    /// workload — the breakdown the session's store holds, shared.
    Embodied(Arc<EmbodiedBreakdown>),
    /// Full life-cycle evaluation of a [`EvalRequest::Run`].
    Lifecycle(LifecycleReport),
    /// Ranked result of an [`EvalRequest::Sweep`]. Boxed: its
    /// statistics dwarf the shared-artifact variants.
    Sweep(Box<SweepResult>),
    /// Sorted tornado entries of an [`EvalRequest::Sensitivity`].
    Sensitivity(Vec<SensitivityEntry>),
    /// Frontier report of an [`EvalRequest::Explore`]. Only the
    /// deterministic [`report`](ExploreResult::report) half is
    /// rendered by transports; the stats half is stderr material.
    /// Boxed: an exploration result dwarfs the other variants.
    Explore(Box<ExploreResult>),
}

impl EvalResponse {
    /// A short label of the response kind (stable; used by transport
    /// layers and stats lines).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            EvalResponse::Embodied(_) => "embodied",
            EvalResponse::Lifecycle(_) => "lifecycle",
            EvalResponse::Sweep(_) => "sweep",
            EvalResponse::Sensitivity(_) => "sensitivity",
            EvalResponse::Explore(_) => "explore",
        }
    }
}
