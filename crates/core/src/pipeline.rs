//! The staged evaluation pipeline: Eq. 1 as five explicit artifacts.
//!
//! The paper's lifecycle model is naturally staged — geometry
//! (Eqs. 5–10), yield (Eq. 15 + Table 3), embodied carbon (Eqs. 3–14),
//! power characterization (Eq. 17's silicon half), and operational
//! carbon (Eq. 16) each read *disjoint slices* of the inputs. This
//! module makes each stage an explicit, typed artifact so callers (and
//! the sweep cache) can recompute only the stages whose inputs
//! actually changed:
//!
//! ```text
//!                    ┌──────────────────┐
//!  ChipDesign ──────▶│ PhysicalProfile  │ areas, TSVs, BEOL layers,
//!  ctx: tech_db,     │  (Eqs. 5, 7–10,  │ substrate geometry,
//!   beol, keep-out,  │   13–14 areas,   │ package outline
//!   catalog, package │   Eq. 12 area)   │
//!                    └───┬──────────┬───┘
//!          ctx: die_yield│          │
//!                    ┌───▼──────┐   │    ┌───────────────┐
//!                    │ Yield-   │   ├───▶│ PowerProfile  │ shares, I/O
//!                    │ Profile  │   │    │ (Eq. 17 silicon│ lanes, uplift
//!                    │ (Eq. 15, │   │    │  half)        │
//!                    │ Table 3) │   │    └───────┬───────┘
//!                    └───┬──────┘   │            │ workload, power
//!  ctx: fab grid,        │          │            │ plug-in, ctx: use
//!   wafer, BEOL knobs,   │          │            │ grid, bandwidth
//!   packaging        ┌───▼──────────▼───┐   ┌────▼─────────────┐
//!                    │ EmbodiedBreakdown│   │ OperationalReport│
//!                    │ (Eqs. 3–6,11–14) │   │ (Eqs. 16–18)     │
//!                    └──────────────────┘   └──────────────────┘
//! ```
//!
//! [`CarbonModel`](crate::CarbonModel)'s `embodied`/`operational`/
//! `lifecycle` methods and the sweep executor's per-stage
//! [`EvalCache`](crate::sweep::EvalCache) are both thin drivers over
//! these functions, so the single-shot, CLI, sensitivity, and sweep
//! paths share one evaluation code path. Every stage preserves the
//! exact floating-point operation order of the original single-pass
//! evaluator, so staged results are byte-identical to it (enforced by
//! `crates/core/tests/staged_pipeline.rs`).

use crate::context::ModelContext;
use crate::design::{ChipDesign, DieSpec};
use crate::embodied::{DieReport, EmbodiedBreakdown, SubstrateReport};
use crate::error::ModelError;
use crate::operational::{DieOperationalReport, OperationalReport, Workload};
use serde::{Deserialize, Serialize};
use tdc_floorplan::{
    package_base_area, rdl_emib_area, silicon_interposer_area, DieOutline, Floorplan,
};
use tdc_integration::{
    IntegrationCatalog, IntegrationTechnology, IoDensity, StackOrientation, SubstrateKind,
};
use tdc_power::{pitch_count, BandwidthVerdict, PowerModel};
use tdc_technode::{surveyed_efficiency, NodeParameters, ProcessNode};
use tdc_units::{Area, Bandwidth, CarbonIntensity, Co2Mass, Energy, Length, Power, Throughput};
use tdc_yield::{
    assembly_2_5d_yields, three_d_stack_yields, CompositeYieldProfile, DieYieldModel, StackingFlow,
};

pub use tdc_power::StackPowerProfile as PowerProfile;

/// One die with all geometry resolved (Eqs. 7–10) — the per-die slice
/// of a [`PhysicalProfile`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiePhysical {
    /// Die name.
    pub name: String,
    /// Process node.
    pub node: ProcessNode,
    /// Gate count (given or derived from area).
    pub gate_count: f64,
    /// Logic gate area (Eq. 8).
    pub gate_area: Area,
    /// Number of TSVs/MIVs through this die.
    pub tsv_count: f64,
    /// TSV/MIV keep-out area (Eq. 7's `A_TSV`).
    pub tsv_area: Area,
    /// Interface I/O driver area (Eq. 9).
    pub io_area: Area,
    /// Total die area (Eq. 7).
    pub area: Area,
    /// BEOL metal layers (given or Eq. 10).
    pub beol_layers: u32,
    /// The node's full metal stack (Eq. 10's ceiling).
    pub max_beol_layers: u32,
}

/// Resolved substrate geometry of a 2.5D assembly (Eqs. 13–14, area
/// only — yield and carbon are downstream stages).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubstratePhysical {
    /// Substrate kind.
    pub kind: SubstrateKind,
    /// Substrate area (Eq. 13 or 14).
    pub area: Area,
    /// Whether the substrate is diced from a wafer (drives Eq. 5-style
    /// amortization in the embodied stage).
    pub wafer_based: bool,
}

/// Stage 1 — everything geometric about a design: die areas, TSV
/// keep-outs, I/O driver areas, BEOL layer counts, substrate area, and
/// the package outline.
///
/// Reads only the design plus the context's technology database, BEOL
/// estimator, TSV keep-out, integration catalog, and package model —
/// never a grid region, wafer, yield choice, or workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhysicalProfile {
    /// Per-die resolved geometry, base die first.
    pub dies: Vec<DiePhysical>,
    /// Substrate geometry (2.5D assemblies only).
    pub substrate: Option<SubstratePhysical>,
    /// Package area (Eq. 12).
    pub package_area: Area,
}

/// Stage 2 — every survival probability of the design: per-die fab
/// yields (Eq. 15), the substrate fab yield, and the Table 3 composite
/// divisors.
///
/// Reads the [`PhysicalProfile`] plus the context's yield-model choice
/// and the defect/bonding characterization already fingerprinted with
/// the geometry inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct YieldProfile {
    /// Fab yield of each bare die (Eq. 15), base die first.
    pub die_fab_yields: Vec<f64>,
    /// Fab yield of the substrate (2.5D assemblies only).
    pub substrate_fab_yield: Option<f64>,
    /// Table 3 composite divisors for dies, bond steps, and substrate.
    pub composites: CompositeYieldProfile,
}

/// Resolves geometry for every die of the design (Eqs. 7–10) and the
/// substrate/package outlines (Eqs. 12–14). This stage is total: any
/// design that passed [`ChipDesign`] construction has a geometry.
#[must_use]
pub fn physical_profile(ctx: &ModelContext, design: &ChipDesign) -> PhysicalProfile {
    let _obs = tdc_obs::span_timed("stage.physical", &tdc_obs::metrics::STAGE_PHYSICAL_NS);
    let specs = design.dies();
    // Gate counts first (TSV cuts need the totals).
    let mut gates = Vec::with_capacity(specs.len());
    for spec in specs {
        let node = ctx.tech_db().node(spec.node());
        let g = match (spec.gate_count(), spec.area_override()) {
            (Some(g), _) => g,
            (None, Some(a)) => node.gates_for_area(a),
            (None, None) => unreachable!("DieSpecBuilder enforces gates or area"),
        };
        gates.push(g);
    }
    let mut dies = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let node = ctx.tech_db().node(spec.node());
        let (tsv_count, tsv_area, io_area, gate_area, area) =
            resolve_die_geometry(ctx, design, spec, &gates, i, node);
        let rent = spec.rent().unwrap_or_else(|| ctx.beol().rent());
        let beol_est = ctx.beol().with_rent(rent);
        let beol_layers = spec
            .beol_override()
            .map(|l| l.min(node.max_beol_layers()))
            .unwrap_or_else(|| beol_est.layers(gates[i], area, node));
        dies.push(DiePhysical {
            name: spec.name().to_owned(),
            node: spec.node(),
            gate_count: gates[i],
            gate_area,
            tsv_count,
            tsv_area,
            io_area,
            area,
            beol_layers,
            max_beol_layers: node.max_beol_layers(),
        });
    }
    let substrate = match design {
        ChipDesign::Assembly25d { tech, .. } => resolve_substrate_geometry(ctx, *tech, &dies),
        _ => None,
    };
    // Eq. 12's base area: stacks overlap (largest die), assemblies
    // spread out (total silicon, or a manufactured carrier if larger).
    let die_areas: Vec<Area> = dies.iter().map(|d| d.area).collect();
    let stacked = !matches!(design, ChipDesign::Assembly25d { .. });
    let carrier = substrate
        .as_ref()
        .filter(|s| s.kind != SubstrateKind::OrganicLaminate)
        .map(|s| s.area);
    let base_area = package_base_area(&die_areas, stacked, carrier);
    let package_area = ctx.package().package_area(base_area);
    PhysicalProfile {
        dies,
        substrate,
        package_area,
    }
}

/// Eq. 7/8/9 for one die: returns (tsv_count, tsv_area, io_area,
/// gate_area, total_area).
fn resolve_die_geometry(
    ctx: &ModelContext,
    design: &ChipDesign,
    spec: &DieSpec,
    gates: &[f64],
    index: usize,
    node: &NodeParameters,
) -> (f64, Area, Area, Area, Area) {
    // Explicit areas are final: the user measured the real die, which
    // already contains its TSVs and PHYs.
    if let Some(area) = spec.area_override() {
        return (0.0, Area::ZERO, Area::ZERO, area, area);
    }
    let gate_area = node.area_for_gates(gates[index]);
    let rent = spec.rent().unwrap_or_else(|| ctx.beol().rent());
    let (tsv_count, via_diameter, keepout) = match design {
        ChipDesign::Monolithic2d { .. } | ChipDesign::Assembly25d { .. } => {
            (0.0, Length::ZERO, 1.0)
        }
        ChipDesign::Stack3d {
            tech, orientation, ..
        } => {
            let gates_above: f64 = gates[index + 1..].iter().sum();
            match (tech, orientation) {
                // M3D: fine MIVs through the inter-tier ILD.
                (IntegrationTechnology::Monolithic3d, _) => (
                    if gates_above > 0.0 {
                        rent.cut_terminals(gates_above)
                    } else {
                        0.0
                    },
                    Length::from_um(0.6),
                    1.5,
                ),
                // F2B: inter-tier nets tunnel through every die below.
                (_, StackOrientation::FaceToBack) => (
                    if gates_above > 0.0 {
                        rent.cut_terminals(gates_above)
                    } else {
                        0.0
                    },
                    node.tsv_diameter(),
                    ctx.tsv_keepout(),
                ),
                // F2F: only external I/O needs TSVs, through the base die.
                (_, StackOrientation::FaceToFace) => (
                    if index == 0 {
                        rent.external_io_count(gates.iter().sum())
                    } else {
                        0.0
                    },
                    node.tsv_diameter(),
                    ctx.tsv_keepout(),
                ),
            }
        }
    };
    let tsv_area = if tsv_count > 0.0 {
        let cell = (via_diameter * keepout).squared();
        cell * tsv_count
    } else {
        Area::ZERO
    };
    let io_ratio = design
        .technology()
        .map_or(0.0, IntegrationCatalog::io_area_ratio);
    let io_area = gate_area * io_ratio;
    let area = gate_area + tsv_area + io_area;
    (tsv_count, tsv_area, io_area, gate_area, area)
}

/// Substrate *geometry* for a 2.5D design (Eqs. 13–14 areas; yield and
/// carbon belong to later stages).
fn resolve_substrate_geometry(
    ctx: &ModelContext,
    tech: IntegrationTechnology,
    dies: &[DiePhysical],
) -> Option<SubstratePhysical> {
    let profile = ctx.catalog().substrate(tech)?;
    let outlines: Vec<DieOutline> = dies
        .iter()
        .map(|d| DieOutline::square_from_area(d.area))
        .collect();
    let plan = Floorplan::place_row(&outlines, profile.die_gap());
    let area = match profile.kind() {
        SubstrateKind::SiliconInterposer => {
            let areas: Vec<Area> = dies.iter().map(|d| d.area).collect();
            silicon_interposer_area(&areas, profile.scale_factor())
        }
        SubstrateKind::EmibBridge => {
            rdl_emib_area(&plan, profile.scale_factor(), profile.die_gap())
        }
        // Deviation from Eq. 14, recorded in DESIGN.md: an InFO RDL is a
        // fan-out layer spanning the whole reconstituted footprint, not
        // just the inter-die strips — Eq. 14's strips cannot reproduce
        // the paper's observation that InFO *increases* embodied carbon
        // through "large substrate areas and low substrate yields".
        SubstrateKind::Rdl => plan.footprint() * profile.scale_factor(),
        SubstrateKind::OrganicLaminate => plan.footprint(),
    };
    let wafer_based = !matches!(profile.kind(), SubstrateKind::OrganicLaminate);
    Some(SubstratePhysical {
        kind: profile.kind(),
        area,
        wafer_based,
    })
}

/// Resolves every survival probability of the design: Eq. 15 per die
/// and substrate, composed into Table 3 divisors.
///
/// # Errors
///
/// Returns [`ModelError`] when a yield formula rejects its inputs or
/// the design's assembly flow is inconsistent with its technology.
pub fn yield_profile(
    ctx: &ModelContext,
    design: &ChipDesign,
    phys: &PhysicalProfile,
) -> Result<YieldProfile, ModelError> {
    let _obs = tdc_obs::span_timed("stage.yield", &tdc_obs::metrics::STAGE_YIELD_NS);
    let mut die_fab_yields = Vec::with_capacity(phys.dies.len());
    for die in &phys.dies {
        let node = ctx.tech_db().node(die.node);
        let yield_model: DieYieldModel = ctx.die_yield().model_for(node);
        die_fab_yields.push(yield_model.die_yield(die.area, node.defect_density_per_cm2())?);
    }
    let substrate_fab_yield = match &phys.substrate {
        None => None,
        Some(geom) => {
            let ChipDesign::Assembly25d { tech, .. } = design else {
                unreachable!("substrate geometry implies a 2.5D assembly");
            };
            let profile = ctx
                .catalog()
                .substrate(*tech)
                .expect("substrate geometry implies a profile");
            Some(
                DieYieldModel::NegativeBinomial {
                    alpha: profile.clustering_alpha(),
                }
                .die_yield(geom.area, profile.defect_density_per_cm2())?,
            )
        }
    };
    let composites = composite_yields(ctx, design, &die_fab_yields, substrate_fab_yield)?;
    Ok(YieldProfile {
        die_fab_yields,
        substrate_fab_yield,
        composites,
    })
}

/// Composite yield divisors per Table 3 for the whole design.
fn composite_yields(
    ctx: &ModelContext,
    design: &ChipDesign,
    fab_yields: &[f64],
    substrate_fab_yield: Option<f64>,
) -> Result<CompositeYieldProfile, ModelError> {
    match design {
        ChipDesign::Monolithic2d { .. } => Ok(CompositeYieldProfile::bare_dies(fab_yields)),
        ChipDesign::Stack3d { tech, flow, .. } => {
            let bond = ctx.catalog().bonding(*tech);
            // M3D has no pick-and-place flow; its sequential tiers share
            // fate exactly like blind W2W bonding.
            let (eff_flow, step_yield) = match flow {
                Some(f) => (*f, bond.step_yield(*f)),
                None => (
                    StackingFlow::WaferToWafer,
                    bond.step_yield(StackingFlow::WaferToWafer),
                ),
            };
            let stack = three_d_stack_yields(fab_yields, step_yield, eff_flow)?;
            Ok(CompositeYieldProfile::from(&stack))
        }
        ChipDesign::Assembly25d { tech, .. } => {
            let assembly = IntegrationCatalog::capabilities(*tech)
                .assembly()
                .ok_or_else(|| {
                    ModelError::InvalidDesign(format!("{tech} lacks an assembly flow"))
                })?;
            let substrate_yield = substrate_fab_yield.ok_or_else(|| {
                ModelError::InvalidDesign(format!("{tech} needs a substrate yield"))
            })?;
            let c4 = ctx
                .catalog()
                .bonding(*tech)
                .step_yield(StackingFlow::DieToWafer);
            let bonds = vec![c4; fab_yields.len()];
            let y = assembly_2_5d_yields(fab_yields, substrate_yield, &bonds, assembly)?;
            Ok(CompositeYieldProfile::from(&y))
        }
    }
}

/// Stage 3 — the embodied model (Eqs. 3–6 and 11–14) over resolved
/// geometry and yields.
///
/// Reads, beyond the upstream artifacts: the fab grid region, the
/// production wafer, the BEOL carbon knobs, the M3D sequential
/// fraction, bonding energies, substrate carbon intensities, and the
/// packaging characterization — never the use-phase grid or workload.
///
/// # Errors
///
/// Returns [`ModelError::DieExceedsWafer`] when a die (or wafer-based
/// substrate) does not fit the configured wafer.
pub fn embodied_breakdown(
    ctx: &ModelContext,
    design: &ChipDesign,
    phys: &PhysicalProfile,
    yld: &YieldProfile,
) -> Result<EmbodiedBreakdown, ModelError> {
    let _obs = tdc_obs::span_timed("stage.embodied", &tdc_obs::metrics::STAGE_EMBODIED_NS);
    // ---- C_die (Eqs. 4–6, 10 adjustment) ----
    let ci_fab = ctx.ci_fab();
    let wafer = ctx.wafer();
    let is_m3d = matches!(
        design,
        ChipDesign::Stack3d {
            tech: IntegrationTechnology::Monolithic3d,
            ..
        }
    );
    // M3D tiers are grown sequentially on ONE wafer: the silicon
    // consumed per stack is set by the largest tier's footprint, not by
    // each tier's own patterned area.
    let m3d_footprint = phys.dies.iter().map(|d| d.area).fold(Area::ZERO, Area::max);
    let mut die_reports = Vec::with_capacity(phys.dies.len());
    let mut die_carbon = Co2Mass::ZERO;
    for (tier, ((die, fab_yield), composite)) in phys
        .dies
        .iter()
        .zip(&yld.die_fab_yields)
        .zip(yld.composites.per_die())
        .enumerate()
    {
        let node = ctx.tech_db().node(die.node);
        let beol_factor = if ctx.beol_adjustment_enabled() {
            let usage = f64::from(die.beol_layers) / f64::from(die.max_beol_layers);
            1.0 - ctx.beol_carbon_fraction() * (1.0 - usage.min(1.0))
        } else {
            1.0
        };
        // Eq. 6 with process terms (electricity, gases) scaled by the
        // BEOL factor; the raw-material term stays (the wafer is bought
        // whole).
        let process_per_area = ci_fab * node.energy_per_area() + node.gas_per_area();
        let per_area = if is_m3d && tier > 0 {
            // Sequential M3D: upper tiers are grown on the *same* wafer
            // — no second substrate (no MPA), and a reduced low-
            // temperature process pass.
            process_per_area * (beol_factor * ctx.m3d_sequential_fraction())
        } else {
            process_per_area * beol_factor + node.material_per_area()
        };
        let wafer_carbon = per_area * wafer.area();
        let dpw_area = if is_m3d { m3d_footprint } else { die.area };
        let dpw = wafer
            .dies_per_wafer(dpw_area)
            .filter(|d| *d >= 1.0)
            .ok_or_else(|| ModelError::DieExceedsWafer {
                die: die.name.clone(),
                area_mm2: dpw_area.mm2(),
            })?;
        let carbon = wafer_carbon / dpw / *composite;
        die_carbon += carbon;
        die_reports.push(DieReport {
            name: die.name.clone(),
            node: die.node,
            gate_count: die.gate_count,
            gate_area: die.gate_area,
            tsv_area: die.tsv_area,
            io_area: die.io_area,
            area: die.area,
            tsv_count: die.tsv_count,
            beol_layers: die.beol_layers,
            beol_factor,
            wafer_carbon,
            dies_per_wafer: dpw,
            fab_yield: *fab_yield,
            composite_yield: *composite,
            carbon,
        });
    }

    // ---- C_bonding (Eq. 11) ----
    let mut bonding_carbon = Co2Mass::ZERO;
    match design {
        ChipDesign::Monolithic2d { .. } => {}
        ChipDesign::Stack3d { tech, flow, .. } => {
            let bond = ctx.catalog().bonding(*tech);
            let eff_flow = flow.unwrap_or(StackingFlow::WaferToWafer);
            let epa = bond.energy_per_area(eff_flow);
            for (step, composite) in yld.composites.per_bond_step().iter().enumerate() {
                let area = phys.dies[step].area;
                bonding_carbon += ci_fab * (epa * area) / *composite;
            }
        }
        ChipDesign::Assembly25d { tech, .. } => {
            let bond = ctx.catalog().bonding(*tech);
            let epa = bond.energy_per_area(StackingFlow::DieToWafer);
            for (die, composite) in phys.dies.iter().zip(yld.composites.per_bond_step()) {
                bonding_carbon += ci_fab * (epa * die.area) / *composite;
            }
        }
    }

    // ---- C_int (Eqs. 13–14) ----
    let substrate = match (&phys.substrate, yld.composites.substrate()) {
        (Some(geom), Some(composite)) => {
            let ChipDesign::Assembly25d { tech, .. } = design else {
                unreachable!("substrate geometry implies a 2.5D assembly");
            };
            let carbon_per_area = ctx
                .catalog()
                .substrate(*tech)
                .expect("substrate geometry implies a profile")
                .carbon_per_area(ci_fab);
            let carbon = if geom.wafer_based {
                let dpw = wafer
                    .dies_per_wafer(geom.area)
                    .filter(|d| *d >= 1.0)
                    .ok_or_else(|| ModelError::DieExceedsWafer {
                        die: format!("{} substrate", geom.kind),
                        area_mm2: geom.area.mm2(),
                    })?;
                carbon_per_area * wafer.area() / dpw / composite
            } else {
                carbon_per_area * geom.area / composite
            };
            Some(SubstrateReport {
                kind: geom.kind,
                area: geom.area,
                fab_yield: yld
                    .substrate_fab_yield
                    .expect("substrate geometry implies a fab yield"),
                composite_yield: composite,
                carbon,
            })
        }
        _ => None,
    };

    // ---- C_packaging (Eq. 12) ----
    let packaging_carbon = ctx.packaging().packaging_carbon(phys.package_area);

    Ok(EmbodiedBreakdown {
        design: design.describe(),
        dies: die_reports,
        die_carbon,
        bonding_carbon,
        packaging_carbon,
        package_area: phys.package_area,
        substrate,
    })
}

/// Resolves each die's share of the application throughput:
/// explicit shares win; otherwise gate-count-proportional. Shares are
/// normalized when explicit values don't sum to 1 exactly (unless all
/// are zero, which is rejected).
fn resolve_shares(design: &ChipDesign, phys: &PhysicalProfile) -> Result<Vec<f64>, ModelError> {
    let specs = design.dies();
    let any_explicit = specs.iter().any(|s| s.compute_share().is_some());
    let raw: Vec<f64> = if any_explicit {
        specs
            .iter()
            .map(|s| s.compute_share().unwrap_or(0.0))
            .collect()
    } else {
        phys.dies.iter().map(|d| d.gate_count).collect()
    };
    let sum: f64 = raw.iter().sum();
    if sum <= 0.0 {
        return Err(ModelError::InvalidDesign(
            "compute shares sum to zero; at least one die must do work".to_owned(),
        ));
    }
    Ok(raw.iter().map(|r| r / sum).collect())
}

/// Interface I/O lanes per die (Eq. 17's `N_pitch` / Eq. 18's `N_I/O`).
fn io_lanes(ctx: &ModelContext, design: &ChipDesign, phys: &PhysicalProfile, index: usize) -> f64 {
    let Some(tech) = design.technology() else {
        return 0.0;
    };
    let spec = ctx.catalog().interface(tech);
    let die = &phys.dies[index];
    match spec.io_density() {
        IoDensity::PerEdge { per_mm_per_layer } => {
            pitch_count(die.area.square_side(), per_mm_per_layer, die.beol_layers)
        }
        IoDensity::AreaArray { pitch } => {
            // Lanes are bounded by the overlap with the neighbouring
            // tier and by the Rent cut actually needing to cross.
            let overlap = overlap_area(phys, index);
            let capacity = if pitch.mm() > 0.0 {
                overlap.mm2() / pitch.squared().mm2()
            } else {
                0.0
            };
            let rent = design.dies()[index]
                .rent()
                .unwrap_or_else(|| ctx.beol().rent());
            let gates_above: f64 = phys.dies[index + 1..].iter().map(|d| d.gate_count).sum();
            let demand = match design {
                ChipDesign::Stack3d {
                    orientation: StackOrientation::FaceToFace,
                    ..
                } if index == 1 => rent.cut_terminals(phys.dies[0].gate_count),
                _ if gates_above > 0.0 => rent.cut_terminals(gates_above),
                _ => 0.0,
            };
            demand.min(capacity)
        }
    }
}

/// Overlap area between tier `index` and its upper neighbour (or lower
/// neighbour for the top tier).
fn overlap_area(phys: &PhysicalProfile, index: usize) -> Area {
    let this = phys.dies[index].area;
    let neighbour = if index + 1 < phys.dies.len() {
        phys.dies[index + 1].area
    } else if index > 0 {
        phys.dies[index - 1].area
    } else {
        return Area::ZERO;
    };
    this.min(neighbour)
}

/// Stage 4 — the workload-independent power characterization of the
/// design: throughput shares, provisioned I/O lanes, and the
/// interconnect-shortening uplift (Eq. 17's silicon half).
///
/// Reads only the design, the [`PhysicalProfile`], and the context's
/// interface catalog and Rent parameters.
///
/// # Errors
///
/// Returns [`ModelError::InvalidDesign`] when all explicit compute
/// shares are zero.
pub fn power_profile(
    ctx: &ModelContext,
    design: &ChipDesign,
    phys: &PhysicalProfile,
) -> Result<PowerProfile, ModelError> {
    let _obs = tdc_obs::span_timed("stage.power", &tdc_obs::metrics::STAGE_POWER_NS);
    let shares = resolve_shares(design, phys)?;
    let lanes: Vec<f64> = (0..phys.dies.len())
        .map(|i| io_lanes(ctx, design, phys, i))
        .collect();
    // Interconnect-shortening efficiency uplift (3D only; §2.2.2).
    let uplift = 1.0
        + design.technology().map_or(
            0.0,
            tdc_integration::IntegrationCatalog::interconnect_uplift,
        );
    Ok(PowerProfile::new(shares, lanes, uplift))
}

/// The per-point state of Eqs. 16–18 that [`operational_report`] and
/// [`operational_carbon`] share: the bandwidth verdict (Eq. 18), the
/// runtime stretch it implies, and the power terms (Eq. 17). Both
/// functions price the use phase through [`UsePhase::carbon_and_energy`],
/// one expression in one summation order, which is what makes the
/// report's `carbon` and the carbon-only price bit-identical.
struct UsePhase<'a> {
    ctx: &'a ModelContext,
    design: &'a ChipDesign,
    power_profile: &'a PowerProfile,
    workload: &'a Workload,
    power_model: &'a dyn PowerModel,
    peak: Throughput,
    required_bw: Bandwidth,
    verdict: Option<BandwidthVerdict>,
    achieved_bw: Option<Bandwidth>,
    stretch: f64,
}

impl<'a> UsePhase<'a> {
    /// Runs the bandwidth constraint (Eq. 18 + §3.4) for one design.
    fn new(
        ctx: &'a ModelContext,
        design: &'a ChipDesign,
        phys: &PhysicalProfile,
        power_profile: &'a PowerProfile,
        workload: &'a Workload,
        power_model: &'a dyn PowerModel,
    ) -> Self {
        let required_bw = workload.required_bandwidth();
        let peak = workload.peak_throughput();
        let (verdict, achieved_bw) = if !ctx.bandwidth_constraint_enabled() {
            (None, None)
        } else {
            match design {
                ChipDesign::Monolithic2d { .. } => (None, None),
                ChipDesign::Stack3d { .. } => {
                    // §3.4: 3D die-to-die bandwidth matches on-chip bandwidth.
                    (
                        Some(ctx.bandwidth().check(peak, peak, required_bw, required_bw)),
                        Some(required_bw),
                    )
                }
                ChipDesign::Assembly25d { tech, .. } => {
                    let spec = ctx.catalog().interface(*tech);
                    let bottleneck = (0..phys.dies.len())
                        .map(|i| spec.aggregate_bandwidth(power_profile.io_lanes()[i]))
                        .fold(Bandwidth::new(f64::INFINITY), Bandwidth::min);
                    let v = ctx.bandwidth().check(peak, peak, bottleneck, required_bw);
                    (Some(v), Some(bottleneck))
                }
            }
        };
        let stretch = verdict.map_or(1.0, |v| v.runtime_stretch(peak));
        Self {
            ctx,
            design,
            power_profile,
            workload,
            power_model,
            peak,
            required_bw,
            verdict,
            achieved_bw,
            stretch,
        }
    }

    /// Per-die interface power at a given throughput: every die's
    /// interface sees the bisection traffic (Eq. 17's P_IO, energy
    /// following traffic rather than provisioned lanes). The traffic
    /// is the *average* intensity, capped by what the interface can
    /// carry.
    fn io_power_at(&self, th: Throughput) -> Power {
        self.design.technology().map_or(Power::ZERO, |tech| {
            let demand = Bandwidth::from_gbps(
                th.tops() * 1.0e12 * self.workload.average_bytes_per_op() * 8.0 / 1.0e9,
            );
            let traffic = self.achieved_bw.map_or(demand, |a| demand.min(a));
            self.ctx.catalog().interface(tech).interface_power(traffic)
        })
    }

    /// Eq. 17's compute power of one die delivering `th_share`: its
    /// measured efficiency when given, the power plug-in otherwise.
    fn compute_power(&self, spec: &DieSpec, th_share: Throughput) -> Power {
        let uplift = self.power_profile.uplift();
        if let Some(eff) = spec.efficiency() {
            th_share / (eff * uplift)
        } else {
            self.power_model.compute_power(th_share, spec.node()) * (1.0 / uplift)
        }
    }

    /// Eq. 16 over the workload's phases, with utilization and runtime
    /// stretch: `(C_operational, use-phase energy)`.
    ///
    /// With a trace attached, the duty statistics come from its
    /// memoized prefix-sum summary — O(1) per evaluation, so
    /// trace-driven sweep points re-price as fast as scalar ones. A
    /// bitwise-constant trace returns the sample value itself (not
    /// `(u·T)/T`), keeping this path byte-identical to the scalar one.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] naming the phase when
    /// its power or its stretched duration is not finite (a huge
    /// active time times the bandwidth stretch can overflow) or is
    /// negative — the conditions [`tdc_power::AppPhase::new`] asserts —
    /// or when its energy or carbon overflows (a finite power times a
    /// finite duration can).
    fn carbon_and_energy(&self) -> Result<(Co2Mass, Energy), ModelError> {
        let workload = self.workload;
        let trace_pricing = workload.trace().map(|t| t.pricing());
        let util =
            trace_pricing.map_or_else(|| workload.average_utilization(), |p| p.mean_utilization);
        // Utilization-only traces keep the context's use-region grid;
        // an intensity column replaces it with the trace's
        // energy-weighted intensity (each kWh priced at the grid it
        // was actually drawn on).
        let ci_use = trace_pricing
            .and_then(|p| p.intensity_kg_per_kwh)
            .map_or_else(|| self.ctx.ci_use(), CarbonIntensity::from_kg_per_kwh);
        // Every die drives its own interface; the bisection traffic
        // crosses each of them.
        #[allow(clippy::cast_precision_loss)]
        let interface_count = if self.design.technology().is_some() {
            self.design.dies().len() as f64
        } else {
            0.0
        };
        let shares = self.power_profile.shares();
        // Running sums seeded with `-0.0`, the neutral element
        // `Iterator::sum` folds `f64`s from: the same totals as summing
        // a list of phases, without building one.
        let (mut carbon, mut energy) = (-0.0, -0.0);
        for phase in workload.phases() {
            let th_avg = phase.throughput * (util / self.stretch);
            let mut p = self.io_power_at(th_avg) * interface_count;
            for (spec, share) in self.design.dies().iter().zip(shares) {
                p += self.compute_power(spec, th_avg * *share);
            }
            let duration = phase.duration * self.stretch;
            if !(p.watts().is_finite() && p.watts() >= 0.0) {
                return Err(ModelError::InvalidParameter(format!(
                    "workload phase `{}` draws {} W; phase power must be finite and \
                     non-negative",
                    phase.name,
                    p.watts()
                )));
            }
            if !(duration.hours().is_finite() && duration.hours() >= 0.0) {
                return Err(ModelError::InvalidParameter(format!(
                    "workload phase `{}` runs {:e} h stretched {}x by the bandwidth limit; \
                     phase time must be finite and non-negative",
                    phase.name,
                    phase.duration.hours(),
                    self.stretch
                )));
            }
            let phase_energy = p * duration;
            carbon += (ci_use * phase_energy).kg();
            energy += phase_energy.kwh();
            if !(carbon.is_finite() && energy.is_finite()) {
                return Err(ModelError::InvalidParameter(format!(
                    "workload phase `{}` draws {:e} W for {:e} h; use-phase energy and \
                     carbon must be finite",
                    phase.name,
                    p.watts(),
                    duration.hours()
                )));
            }
        }
        Ok((Co2Mass::from_kg(carbon), Energy::from_kwh(energy)))
    }
}

/// Stage 5 — the operational model (Eqs. 16–18) for a design under a
/// workload, using the cached physical and power artifacts.
///
/// Reads, beyond the upstream artifacts: the workload, the power
/// plug-in, the use-phase grid region, and the bandwidth constraint —
/// never the fab grid, wafer, or packaging inputs.
///
/// # Errors
///
/// Propagates power-model and bandwidth-constraint failures, and
/// returns [`ModelError::InvalidParameter`] when a phase's power,
/// stretched duration, energy or carbon is not finite.
pub fn operational_report(
    ctx: &ModelContext,
    design: &ChipDesign,
    phys: &PhysicalProfile,
    power_profile: &PowerProfile,
    workload: &Workload,
    power_model: &dyn PowerModel,
) -> Result<OperationalReport, ModelError> {
    let _obs = tdc_obs::span_timed("stage.operational", &tdc_obs::metrics::STAGE_OPERATIONAL_NS);
    let terms = UsePhase::new(ctx, design, phys, power_profile, workload, power_model);
    let stretch = terms.stretch;

    // ---- Per-die report at peak throughput (Eq. 17) ----
    let shares = power_profile.shares();
    let mut die_reports = Vec::with_capacity(phys.dies.len());
    for (i, (die, spec)) in phys.dies.iter().zip(design.dies()).enumerate() {
        let efficiency = spec
            .efficiency()
            .unwrap_or_else(|| surveyed_efficiency(spec.node()));
        die_reports.push(DieOperationalReport {
            name: die.name.clone(),
            share: shares[i],
            efficiency,
            compute_power: terms.compute_power(spec, terms.peak * shares[i] / stretch),
            io_lanes: power_profile.io_lanes()[i],
            io_power: terms.io_power_at(terms.peak / stretch),
        });
    }

    let (carbon, energy) = terms.carbon_and_energy()?;
    let power = die_reports
        .iter()
        .map(|d| d.compute_power + d.io_power)
        .fold(Power::ZERO, |a, b| a + b);

    Ok(OperationalReport {
        dies: die_reports,
        power,
        verdict: terms.verdict,
        achieved_bandwidth: terms.achieved_bw,
        required_bandwidth: terms.required_bw,
        runtime_stretch: stretch,
        energy,
        mission_time: workload.mission_time(),
        carbon,
    })
}

/// Stage 5's carbon alone: the `carbon` field [`operational_report`]
/// returns for the same inputs, bit for bit — both evaluate one shared
/// Eq. 16 expression in one summation order — without building the
/// report (no per-die or per-phase allocation). The batch ranking path
/// prices re-priced points with it.
///
/// # Errors
///
/// Exactly those of [`operational_report`].
pub fn operational_carbon(
    ctx: &ModelContext,
    design: &ChipDesign,
    phys: &PhysicalProfile,
    power_profile: &PowerProfile,
    workload: &Workload,
    power_model: &dyn PowerModel,
) -> Result<Co2Mass, ModelError> {
    let _obs = tdc_obs::span_timed("stage.operational", &tdc_obs::metrics::STAGE_OPERATIONAL_NS);
    UsePhase::new(ctx, design, phys, power_profile, workload, power_model)
        .carbon_and_energy()
        .map(|(carbon, _)| carbon)
}

/// Eq. 1 over *borrowed* stage artifacts: the life-cycle total that a
/// [`LifecycleReport`](crate::LifecycleReport) assembled from these two
/// artifacts would report — same floating-point expression, so the two
/// agree bit-for-bit — without cloning either artifact into a report.
/// This is the batch sweep path's ranking key.
#[must_use]
pub fn lifecycle_total(embodied: &EmbodiedBreakdown, operational: &OperationalReport) -> Co2Mass {
    embodied.total() + operational.carbon
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DieSpec;
    use crate::model::CarbonModel;
    use tdc_technode::GridRegion;
    use tdc_units::{Efficiency, TimeSpan};

    fn die(name: &str, gates: f64) -> DieSpec {
        DieSpec::builder(name, ProcessNode::N7)
            .gate_count(gates)
            .efficiency(Efficiency::from_tops_per_watt(2.74))
            .build()
            .unwrap()
    }

    fn emib() -> ChipDesign {
        ChipDesign::assembly_25d(
            vec![die("l", 8.5e9), die("r", 8.5e9)],
            IntegrationTechnology::Emib,
        )
        .unwrap()
    }

    fn workload() -> Workload {
        Workload::fixed(
            "app",
            Throughput::from_tops(100.0),
            TimeSpan::from_hours(10_000.0),
        )
    }

    #[test]
    fn physical_profile_is_grid_region_independent() {
        // The geometry stage must not read any grid region — that is
        // what lets the staged cache reuse it across operational axes.
        let design = emib();
        let base = physical_profile(&ModelContext::default(), &design);
        let moved = physical_profile(
            &ModelContext::builder()
                .fab_region(GridRegion::CoalHeavy)
                .use_region(GridRegion::Renewable)
                .build(),
            &design,
        );
        assert_eq!(base, moved);
        assert!(base.substrate.is_some());
        assert!(base.package_area.mm2() > 0.0);
    }

    #[test]
    fn yield_profile_matches_embodied_reports() {
        let ctx = ModelContext::default();
        let design = emib();
        let phys = physical_profile(&ctx, &design);
        let yld = yield_profile(&ctx, &design, &phys).unwrap();
        let breakdown = embodied_breakdown(&ctx, &design, &phys, &yld).unwrap();
        for (die, fab) in breakdown.dies.iter().zip(&yld.die_fab_yields) {
            assert!((die.fab_yield - fab).abs() == 0.0);
        }
        assert_eq!(
            breakdown.substrate.as_ref().map(|s| s.fab_yield),
            yld.substrate_fab_yield
        );
    }

    #[test]
    fn staged_stages_reassemble_the_monolithic_result() {
        let ctx = ModelContext::default();
        let design = emib();
        let w = workload();
        let model = CarbonModel::new(ctx.clone());
        let reference = model.lifecycle(&design, &w).unwrap();

        let phys = physical_profile(&ctx, &design);
        let yld = yield_profile(&ctx, &design, &phys).unwrap();
        let embodied = embodied_breakdown(&ctx, &design, &phys, &yld).unwrap();
        let power = power_profile(&ctx, &design, &phys).unwrap();
        let operational = operational_report(
            &ctx,
            &design,
            &phys,
            &power,
            &w,
            &tdc_power::SurveyedEfficiency::new(),
        )
        .unwrap();
        assert_eq!(reference.embodied, embodied);
        assert_eq!(reference.operational, operational);
    }

    #[test]
    fn power_profile_is_workload_and_grid_independent() {
        let design = emib();
        let ctx_a = ModelContext::default();
        let ctx_b = ModelContext::builder()
            .use_region(GridRegion::France)
            .fab_region(GridRegion::Renewable)
            .build();
        let phys = physical_profile(&ctx_a, &design);
        let a = power_profile(&ctx_a, &design, &phys).unwrap();
        let b = power_profile(&ctx_b, &design, &phys).unwrap();
        assert_eq!(a, b);
        assert!((a.shares().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(a.io_lanes().iter().all(|l| *l > 0.0));
    }

    #[test]
    fn carbon_only_price_is_the_report_carbon_and_rejects_overflow() {
        let ctx = ModelContext::default();
        let pm = tdc_power::SurveyedEfficiency::new();
        let design = emib();
        let phys = physical_profile(&ctx, &design);
        let power = power_profile(&ctx, &design, &phys).unwrap();
        let w = workload();
        let report = operational_report(&ctx, &design, &phys, &power, &w, &pm).unwrap();
        let carbon = operational_carbon(&ctx, &design, &phys, &power, &w, &pm).unwrap();
        assert_eq!(report.carbon.kg().to_bits(), carbon.kg().to_bits());

        // Finite inputs whose stretched duration overflows: the
        // bandwidth limit stretches 1e308 active hours past `f64::MAX`.
        let huge = Workload::fixed(
            "w",
            Throughput::from_tops(254.0),
            TimeSpan::from_hours(1e308),
        )
        .with_bytes_per_op(1e6);
        let rejects = |r: Result<(), ModelError>| matches!(r, Err(ModelError::InvalidParameter(m)) if m.contains("phase `w`"));
        assert!(rejects(
            operational_report(&ctx, &design, &phys, &power, &huge, &pm).map(|_| ())
        ));
        assert!(rejects(
            operational_carbon(&ctx, &design, &phys, &power, &huge, &pm).map(|_| ())
        ));

        // A 2D design (no bandwidth stretch) drawing a finite power
        // for a finite time whose product overflows: the phase energy,
        // and with it the carbon, is infinite.
        let design = ChipDesign::monolithic_2d(die("d", 17.0e9));
        let phys = physical_profile(&ctx, &design);
        let power = power_profile(&ctx, &design, &phys).unwrap();
        let draining = Workload::fixed(
            "w",
            Throughput::from_tops(1e308),
            TimeSpan::from_hours(1e308),
        );
        for r in [
            operational_report(&ctx, &design, &phys, &power, &draining, &pm).map(|_| ()),
            operational_carbon(&ctx, &design, &phys, &power, &draining, &pm).map(|_| ()),
            CarbonModel::new(ctx.clone())
                .lifecycle(&design, &draining)
                .map(|_| ()),
        ] {
            assert!(rejects(r));
        }
    }

    #[test]
    fn operational_report_ignores_fab_inputs() {
        // Swapping fab-side knobs must not move the operational stage —
        // the invariant behind the embodied-artifact reuse guarantee.
        let design = emib();
        let w = workload();
        let base_ctx = ModelContext::default();
        let fab_ctx = ModelContext::builder()
            .fab_region(GridRegion::CoalHeavy)
            .beol_carbon_fraction(0.9)
            .m3d_sequential_fraction(0.9)
            .build();
        let pm = tdc_power::SurveyedEfficiency::new();
        let phys = physical_profile(&base_ctx, &design);
        let power = power_profile(&base_ctx, &design, &phys).unwrap();
        let a = operational_report(&base_ctx, &design, &phys, &power, &w, &pm).unwrap();
        let b = operational_report(&fab_ctx, &design, &phys, &power, &w, &pm).unwrap();
        assert_eq!(a, b);
    }
}
