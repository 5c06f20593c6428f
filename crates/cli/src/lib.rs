//! # tdc-cli
//!
//! The library behind the `tdc` binary: scenario-file loading
//! ([`Scenario`]), the dependency-free JSON tree it parses into
//! ([`JsonValue`]), and the report renderers ([`report`]) that turn
//! model results into `table` / `json` / `csv` output.
//!
//! The binary is a thin shell over this crate — every behaviour is
//! reachable (and tested) as a plain function call. Every evaluating
//! command takes the same path: the scenario elaborates into a typed
//! request, a [`ScenarioSession`](tdc_core::service::ScenarioSession)
//! evaluates it, and one renderer prints the response:
//!
//! ```
//! use tdc_cli::report::{render_response, OutputFormat};
//! use tdc_cli::{RequestKind, Scenario};
//! use tdc_core::service::ScenarioSession;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::parse(
//!     r#"{
//!       "name": "demo",
//!       "workload": {"throughput_tops": 100, "active_hours": 10000},
//!       "sweep": {"gate_count": 10e9, "nodes_nm": [7]}
//!     }"#,
//! )?;
//! let request = scenario.build_request(RequestKind::Sweep)?;
//! let evaluated = ScenarioSession::default().evaluate(&request)?;
//! let report = render_response(&scenario.name, &evaluated.response, OutputFormat::Csv);
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
