//! # threed-carbon
//!
//! A Rust reproduction of **3D-Carbon** (Zhao et al., DAC 2024): an
//! analytical tool that models the full life-cycle carbon footprint —
//! embodied (manufacturing) plus operational (use-phase) — of 2D
//! monolithic, 3D stacked, and 2.5D multi-die integrated circuits.
//!
//! This crate is a facade: it re-exports the whole public API of the
//! workspace so applications can depend on one crate.
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`units`] | `tdc-units` | dimensioned quantities (areas, energies, CO₂ masses, …) |
//! | [`technode`] | `tdc-technode` | process-node & foundry characterization database |
//! | [`wirelength`] | `tdc-wirelength` | Rent's-rule wiring, BEOL layers, TSV counts |
//! | [`yields`] | `tdc-yield` | die-yield models and Table 3 stacking composition |
//! | [`integration`] | `tdc-integration` | 3D/2.5D technology catalog (Table 1 / Fig. 2) |
//! | [`floorplan`] | `tdc-floorplan` | 2.5D placement, package & interposer areas |
//! | [`power`] | `tdc-power` | operational power plug-ins & bandwidth constraint |
//! | [`model`] | `tdc-core` | the 3D-Carbon model itself |
//! | [`registry`] | `tdc-registry` | model factory registry & loadable technology packs |
//! | [`baselines`] | `tdc-baselines` | ACT, ACT+, first-order, LCA references |
//! | [`workloads`] | `tdc-workloads` | DRIVE specs, AV workloads, reference designs |
//!
//! The most common types are additionally re-exported at the crate
//! root.
//!
//! # Example
//!
//! ```
//! use threed_carbon::prelude::*;
//!
//! # fn main() -> Result<(), threed_carbon::ModelError> {
//! // An Orin-class SoC split into two hybrid-bonded 7 nm tiers.
//! let dies = vec![
//!     DieSpec::builder("tier0", ProcessNode::N7).gate_count(8.5e9).build()?,
//!     DieSpec::builder("tier1", ProcessNode::N7).gate_count(8.5e9).build()?,
//! ];
//! let stack = ChipDesign::stack_3d(
//!     dies,
//!     IntegrationTechnology::HybridBonding3d,
//!     StackOrientation::FaceToFace,
//!     Some(StackingFlow::DieToWafer),
//! )?;
//!
//! let model = CarbonModel::new(ModelContext::default());
//! let breakdown = model.embodied(&stack)?;
//! println!("{breakdown}");
//! assert!(breakdown.total().kg() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Dimensioned quantity newtypes (`tdc-units`).
pub mod units {
    pub use tdc_units::*;
}

/// Technology-node and foundry characterization (`tdc-technode`).
pub mod technode {
    pub use tdc_technode::*;
}

/// Rent's-rule wire-length substrate (`tdc-wirelength`).
pub mod wirelength {
    pub use tdc_wirelength::*;
}

/// Yield models and stacking-yield composition (`tdc-yield`).
pub mod yields {
    pub use tdc_yield::*;
}

/// Integration-technology catalog (`tdc-integration`).
pub mod integration {
    pub use tdc_integration::*;
}

/// 2.5D floorplanning and package geometry (`tdc-floorplan`).
pub mod floorplan {
    pub use tdc_floorplan::*;
}

/// Operational power and bandwidth constraint (`tdc-power`).
pub mod power {
    pub use tdc_power::*;
}

/// The 3D-Carbon core model (`tdc-core`).
pub mod model {
    pub use tdc_core::*;
}

/// The staged evaluation pipeline and its typed artifacts
/// (`tdc-core::pipeline`).
pub mod pipeline {
    pub use tdc_core::pipeline::*;
}

/// The request-serving layer: long-lived sessions answering scenario
/// request streams from warm per-stage artifacts
/// (`tdc-core::service`).
pub mod service {
    pub use tdc_core::service::*;
}

/// The model factory registry — named grids, nodes, technologies,
/// yield/power models, and presets — plus the loadable technology-pack
/// format (`tdc-registry`).
pub mod registry {
    pub use tdc_registry::*;
}

/// Baseline carbon models (`tdc-baselines`).
pub mod baselines {
    pub use tdc_baselines::*;
}

/// Case-study workloads and reference designs (`tdc-workloads`).
pub mod workloads {
    pub use tdc_workloads::*;
}

pub use tdc_core::{
    CarbonModel, ChipDesign, ChoiceOutcome, DecisionMetrics, DieSpec, EmbodiedBreakdown,
    LifecycleReport, ModelContext, ModelError, OperationalReport, Workload,
};
pub use tdc_integration::{IntegrationTechnology, StackOrientation};
pub use tdc_registry::{ModelKind, Params, Registry};
pub use tdc_technode::{GridRegion, ProcessNode};
pub use tdc_yield::StackingFlow;

/// One-stop import for applications.
pub mod prelude {
    pub use tdc_core::sensitivity::{sensitivity_report, SensitivityEntry};
    pub use tdc_core::service::{
        EvalRequest, EvalResponse, Evaluated, RequestStats, ScenarioSession, SessionStats,
    };
    pub use tdc_core::sweep::{
        CacheStats, DesignSweep, EvalCache, PipelineStats, StageCounters, SweepEntry,
        SweepExecutor, SweepPlan, SweepPoint, SweepResult, SweepStats,
    };
    pub use tdc_core::{
        CarbonModel, ChipDesign, ChoiceOutcome, DecisionMetrics, DieSpec, DieYieldChoice,
        EmbodiedBreakdown, LifecycleReport, ModelContext, ModelError, OperationalReport, Workload,
    };
    pub use tdc_integration::{IntegrationFamily, IntegrationTechnology, StackOrientation};
    pub use tdc_registry::{
        EntryMeta, ModelInstance, ModelKind, PackError, PackSummary, Params, Provenance, Registry,
        RegistryError,
    };
    pub use tdc_technode::{GridRegion, ProcessNode, TechnologyDb, Wafer};
    pub use tdc_units::{
        Area, Bandwidth, CarbonIntensity, Co2Mass, Efficiency, Energy, Length, Power, Ratio,
        Throughput, TimeSpan,
    };
    pub use tdc_workloads::{
        av_workload, candidate_designs, design_preset_context, hbm_stack, resolve_design_preset,
        resolve_workload_preset, AvMissionProfile, DriveSeries, SplitStrategy,
    };
    pub use tdc_yield::{AssemblyFlow, StackingFlow};
}
