//! # tdc-cli
//!
//! The library behind the `tdc` binary: scenario-file loading
//! ([`Scenario`]), the dependency-free JSON tree it parses into
//! ([`JsonValue`]), and the report renderers ([`report`]) that turn
//! model results into `table` / `json` / `csv` output.
//!
//! The binary is a thin shell over this crate — every behaviour is
//! reachable (and tested) as a plain function call:
//!
//! ```
//! use tdc_cli::report::{render_sweep, OutputFormat};
//! use tdc_cli::Scenario;
//! use tdc_core::sweep::SweepExecutor;
//! use tdc_core::CarbonModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::parse(
//!     r#"{
//!       "name": "demo",
//!       "workload": {"throughput_tops": 100, "active_hours": 10000},
//!       "sweep": {"gate_count": 10e9, "nodes_nm": [7], "workers": 2}
//!     }"#,
//! )?;
//! let model = CarbonModel::new(scenario.build_context()?);
//! let workload = scenario.build_workload()?.expect("sweep needs a workload");
//! let plan = scenario.build_sweep()?.plan()?;
//! let result = SweepExecutor::new(scenario.sweep_workers().unwrap_or(0))
//!     .execute(&model, &plan, &workload)?;
//! let report = render_sweep(&scenario.name, result.entries(), OutputFormat::Csv);
//! assert!(report.starts_with("rank,label,"));
//! # Ok(())
//! # }
//! ```
//!
//! Scenario files are documented, with one runnable example per
//! workload family, in `docs/SCENARIOS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod packs;
pub mod profile;
pub mod report;
mod scenario;
pub mod serve;
mod table;

pub use scenario::{RequestKind, Scenario, ScenarioError};
pub use tdc_registry::json::{JsonError, JsonValue};
