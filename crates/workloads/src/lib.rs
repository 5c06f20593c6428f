//! Case-study workloads and reference designs for the 3D-Carbon
//! reproduction.
//!
//! Everything §4–5 of the paper evaluates lives here:
//!
//! * [`DriveSeries`] — the NVIDIA DRIVE spec database (Table 4),
//! * [`av_workload`] — the autonomous-vehicle fixed-throughput mission
//!   profile (after Sudhakar et al., "Data Centers on Wheels"),
//! * [`homogeneous_split`] / [`heterogeneous_split`] /
//!   [`candidate_designs`] — the paper's two die-division strategies
//!   and the full Fig. 5 design sweep,
//! * [`epyc_7452`] / [`lakefield`] — the §4 validation targets,
//! * [`hbm_stack`] — Table 1's HBM cube (micro-bump F2B, the deep-stack
//!   reference),
//! * [`resolve_design_preset`] / [`resolve_workload_preset`] — the
//!   named-preset grammar that scenario files (the `tdc` CLI) and the
//!   model registry resolve designs and missions through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod av;
mod drive;
mod hbm;
pub mod presets;
mod split;
mod validation;

pub use av::{av_workload, AvMissionProfile};
pub use drive::{DriveSeries, DriveSpec};
pub use hbm::{hbm_base_die_area, hbm_core_die_area, hbm_stack};
pub use presets::{
    design_preset_context, resolve_design_preset, resolve_workload_preset, DESIGN_PRESET_EXAMPLES,
    WORKLOAD_PRESETS,
};
pub use split::{candidate_designs, heterogeneous_split, homogeneous_split, SplitStrategy};
pub use validation::{
    epyc_7452, epyc_7452_as_monolithic_2d, lakefield, EpycReference, LakefieldReference,
};
