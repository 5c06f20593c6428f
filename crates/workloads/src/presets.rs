//! Named scenario presets — the bridge between scenario files (the
//! `tdc` CLI) and the reference designs this crate ships.
//!
//! A preset name resolves to a ready-to-evaluate [`ChipDesign`] (and,
//! when the reference hardware demands it, a matching
//! [`ModelContext`], e.g. Lakefield's mobile package). The grammar:
//!
//! * fixed references: `epyc-7452`, `epyc-7452-2d`, `lakefield-d2w`,
//!   `lakefield-w2w`;
//! * HBM cubes: `hbm<N>-d2w` / `hbm<N>-w2w` with `N` DRAM tiers
//!   (e.g. `hbm8-d2w`);
//! * DRIVE platforms as shipped: `px2-2d`, `xavier-2d`, `orin-2d`,
//!   `thor-2d`;
//! * DRIVE splits: `<platform>-<strategy>-<tech>` with strategy
//!   `homo` (homogeneous halves) or `het` (memory/IO at 28 nm) and a
//!   technology token accepted by
//!   [`IntegrationTechnology::resolve_token`] — e.g. `orin-het-hybrid`,
//!   `thor-homo-emib`.
//!
//! Workload presets ([`resolve_workload_preset`]) cover the AV mission
//! profiles: `av-private-car` and `av-robotaxi`, parameterized by the
//! platform's required throughput.

use crate::av::AvMissionProfile;
use crate::drive::DriveSeries;
use crate::hbm::hbm_stack;
use crate::split::{heterogeneous_split, homogeneous_split};
use crate::validation::{epyc_7452, epyc_7452_as_monolithic_2d, lakefield, LakefieldReference};
use tdc_core::{ChipDesign, ModelContext, ModelError, Workload};
use tdc_integration::IntegrationTechnology;
use tdc_units::Throughput;
use tdc_yield::StackingFlow;

/// A small, representative sample of valid design-preset names (the
/// full space is a grammar, not a list — see the module docs).
pub const DESIGN_PRESET_EXAMPLES: &[&str] = &[
    "epyc-7452",
    "epyc-7452-2d",
    "lakefield-d2w",
    "lakefield-w2w",
    "hbm4-d2w",
    "hbm8-d2w",
    "hbm8-w2w",
    "px2-2d",
    "xavier-2d",
    "orin-2d",
    "thor-2d",
    "orin-homo-hybrid",
    "orin-het-hybrid",
    "orin-het-m3d",
    "orin-het-emib",
    "thor-homo-si-int",
];

/// Workload preset names accepted by [`resolve_workload_preset`].
pub const WORKLOAD_PRESETS: &[&str] = &["av-private-car", "av-robotaxi"];

/// Resolves a DRIVE platform token.
fn drive_platform(token: &str) -> Option<DriveSeries> {
    Some(match token {
        "px2" => DriveSeries::Px2,
        "xavier" => DriveSeries::Xavier,
        "orin" => DriveSeries::Orin,
        "thor" => DriveSeries::Thor,
        _ => return None,
    })
}

/// Parses `hbm<N>` into the DRAM tier count.
fn hbm_tiers(token: &str) -> Option<u32> {
    token.strip_prefix("hbm")?.parse().ok().filter(|n| *n >= 1)
}

/// Resolves a design preset name into a buildable design.
///
/// Returns `None` when the name matches no preset; `Some(Err(_))` when
/// the name parses but the design is rejected by the model (e.g. a
/// split technology outside its envelope).
///
/// ```
/// use tdc_workloads::resolve_design_preset;
/// assert!(resolve_design_preset("epyc-7452").is_some());
/// assert!(resolve_design_preset("orin-het-hybrid").is_some());
/// assert!(resolve_design_preset("warp-core").is_none());
/// ```
#[must_use]
pub fn resolve_design_preset(name: &str) -> Option<Result<ChipDesign, ModelError>> {
    let n = name.trim().to_ascii_lowercase();
    match n.as_str() {
        "epyc-7452" => return Some(epyc_7452()),
        "epyc-7452-2d" => return Some(epyc_7452_as_monolithic_2d()),
        "lakefield-d2w" => return Some(lakefield(StackingFlow::DieToWafer)),
        "lakefield-w2w" => return Some(lakefield(StackingFlow::WaferToWafer)),
        _ => {}
    }
    // hbm<N>-<flow>
    if let Some(rest) = n.strip_suffix("-d2w").and_then(hbm_tiers) {
        return Some(hbm_stack(rest, StackingFlow::DieToWafer));
    }
    if let Some(rest) = n.strip_suffix("-w2w").and_then(hbm_tiers) {
        return Some(hbm_stack(rest, StackingFlow::WaferToWafer));
    }
    // <platform>-2d | <platform>-<strategy>-<tech>
    let (platform_token, rest) = n.split_once('-')?;
    let platform = drive_platform(platform_token)?;
    let spec = platform.spec();
    if rest == "2d" {
        return Some(Ok(spec.as_2d_design()));
    }
    let (strategy, tech_token) = rest.split_once('-')?;
    let tech = IntegrationTechnology::resolve_token(tech_token)?;
    match strategy {
        "homo" => Some(homogeneous_split(&spec, tech)),
        "het" => Some(heterogeneous_split(&spec, tech)),
        _ => None,
    }
}

/// The [`ModelContext`] a design preset should be evaluated under
/// (`ModelContext::default()` for everything except the mobile-package
/// Lakefield references).
#[must_use]
pub fn design_preset_context(name: &str) -> ModelContext {
    if name.trim().to_ascii_lowercase().starts_with("lakefield") {
        LakefieldReference::context()
    } else {
        ModelContext::default()
    }
}

/// Resolves a workload preset for a platform that must sustain
/// `required` throughput.
///
/// ```
/// use tdc_units::Throughput;
/// use tdc_workloads::resolve_workload_preset;
/// let w = resolve_workload_preset("av-robotaxi", Throughput::from_tops(254.0)).unwrap();
/// assert!((w.peak_throughput().tops() - 254.0).abs() < 1e-12);
/// assert!(resolve_workload_preset("gaming", Throughput::from_tops(1.0)).is_none());
/// ```
#[must_use]
pub fn resolve_workload_preset(name: &str, required: Throughput) -> Option<Workload> {
    let profile = match name.trim().to_ascii_lowercase().as_str() {
        "av-private-car" => AvMissionProfile::private_car(),
        "av-robotaxi" => AvMissionProfile::robotaxi(),
        _ => return None,
    };
    Some(profile.workload(required))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_core::CarbonModel;
    use tdc_technode::ProcessNode;

    #[test]
    fn every_example_preset_builds_and_evaluates() {
        for name in DESIGN_PRESET_EXAMPLES {
            let design = resolve_design_preset(name)
                .unwrap_or_else(|| panic!("{name} must resolve"))
                .unwrap_or_else(|e| panic!("{name} must build: {e}"));
            let model = CarbonModel::new(design_preset_context(name));
            let breakdown = model.embodied(&design).unwrap();
            assert!(breakdown.total().kg() > 0.0, "{name}");
        }
    }

    #[test]
    fn grammar_resolves_structured_names() {
        let hbm = resolve_design_preset("hbm12-w2w").unwrap().unwrap();
        assert_eq!(hbm.dies().len(), 13);
        let het = resolve_design_preset("orin-het-m3d").unwrap().unwrap();
        assert_eq!(het.technology(), Some(IntegrationTechnology::Monolithic3d));
        assert_eq!(het.dies()[0].node(), ProcessNode::N28);
        let homo = resolve_design_preset("thor-homo-si-int").unwrap().unwrap();
        assert_eq!(
            homo.technology(),
            Some(IntegrationTechnology::SiliconInterposer)
        );
    }

    #[test]
    fn unknown_names_are_none_not_errors() {
        for bad in ["", "hbm0-d2w", "orin", "orin-het", "orin-het-warp", "epyc"] {
            assert!(resolve_design_preset(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn lakefield_gets_the_mobile_context() {
        let mobile = design_preset_context("lakefield-d2w");
        let default = design_preset_context("orin-2d");
        // Mobile package areas are smaller than server ones.
        let probe = tdc_units::Area::from_mm2(100.0);
        assert!(mobile.package().package_area(probe) < default.package().package_area(probe));
    }

    #[test]
    fn workload_presets_differ_in_duty() {
        let tops = Throughput::from_tops(254.0);
        let car = resolve_workload_preset("av-private-car", tops).unwrap();
        let taxi = resolve_workload_preset("AV-Robotaxi", tops).unwrap();
        assert!(car.mission_time() < taxi.mission_time());
    }
}
