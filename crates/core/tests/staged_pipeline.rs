//! Byte-identity of the staged pipeline against the pre-refactor
//! single-pass evaluator, plus the staged cache's reuse guarantees.
//!
//! The `legacy` module below is a **verbatim port** of the monolithic
//! `compute_embodied`/`compute_operational` pair the staged pipeline
//! replaced (errors demoted to strings since `ModelError`'s
//! constructors are crate-private). The property tests drive both
//! evaluators over randomized designs, contexts, and workloads and
//! require full structural equality — every `f64` of every report,
//! bit for bit — and that per-stage cache hits never change a single
//! report field.

use proptest::prelude::*;
use tdc_core::sweep::{DesignSweep, SweepExecutor};
use tdc_core::{CarbonModel, ChipDesign, DieSpec, DieYieldChoice, ModelContext, Workload};
use tdc_integration::{IntegrationTechnology, StackOrientation};
use tdc_technode::{GridRegion, ProcessNode, Wafer};
use tdc_units::{Efficiency, Throughput, TimeSpan};
use tdc_yield::StackingFlow;

/// The original single-pass evaluator, kept verbatim as the parity
/// reference (only its error type differs: `String` instead of the
/// crate-private `ModelError` constructors).
mod legacy {
    use tdc_core::{
        ChipDesign, DieOperationalReport, DieReport, DieSpec, EmbodiedBreakdown, LifecycleReport,
        ModelContext, OperationalReport, SubstrateReport, Workload,
    };
    use tdc_floorplan::{rdl_emib_area, silicon_interposer_area, DieOutline, Floorplan};
    use tdc_integration::{
        IntegrationCatalog, IntegrationTechnology, IoDensity, StackOrientation, SubstrateKind,
    };
    use tdc_power::{pitch_count, AppPhase, PowerModel};
    use tdc_technode::{surveyed_efficiency, NodeParameters};
    use tdc_units::{Area, Bandwidth, Co2Mass, Energy, Length, Power, Throughput};
    use tdc_yield::{assembly_2_5d_yields, three_d_stack_yields, DieYieldModel, StackingFlow};

    struct ResolvedDie {
        name: String,
        node: tdc_technode::ProcessNode,
        gates: f64,
        gate_area: Area,
        tsv_count: f64,
        tsv_area: Area,
        io_area: Area,
        area: Area,
        beol_layers: u32,
        max_beol_layers: u32,
        fab_yield: f64,
    }

    fn resolve_dies(ctx: &ModelContext, design: &ChipDesign) -> Result<Vec<ResolvedDie>, String> {
        let specs = design.dies();
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
        let mut out = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let node = ctx.tech_db().node(spec.node()).clone();
            let (tsv_count, tsv_area, io_area, gate_area, area) =
                resolve_die_geometry(ctx, design, spec, &gates, i, &node);
            let rent = spec.rent().unwrap_or_else(|| ctx.beol().rent());
            let beol_est = ctx.beol().with_rent(rent);
            let beol_layers = spec
                .beol_override()
                .map(|l| l.min(node.max_beol_layers()))
                .unwrap_or_else(|| beol_est.layers(gates[i], area, &node));
            let yield_model: DieYieldModel = ctx.die_yield().model_for(&node);
            let fab_yield = yield_model
                .die_yield(area, node.defect_density_per_cm2())
                .map_err(|e| e.to_string())?;
            out.push(ResolvedDie {
                name: spec.name().to_owned(),
                node: spec.node(),
                gates: gates[i],
                gate_area,
                tsv_count,
                tsv_area,
                io_area,
                area,
                beol_layers,
                max_beol_layers: node.max_beol_layers(),
                fab_yield,
            });
        }
        Ok(out)
    }

    fn resolve_die_geometry(
        ctx: &ModelContext,
        design: &ChipDesign,
        spec: &DieSpec,
        gates: &[f64],
        index: usize,
        node: &NodeParameters,
    ) -> (f64, Area, Area, Area, Area) {
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
                    (IntegrationTechnology::Monolithic3d, _) => (
                        if gates_above > 0.0 {
                            rent.cut_terminals(gates_above)
                        } else {
                            0.0
                        },
                        Length::from_um(0.6),
                        1.5,
                    ),
                    (_, StackOrientation::FaceToBack) => (
                        if gates_above > 0.0 {
                            rent.cut_terminals(gates_above)
                        } else {
                            0.0
                        },
                        node.tsv_diameter(),
                        ctx.tsv_keepout(),
                    ),
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

    struct CompositeYields {
        per_die: Vec<f64>,
        per_bond_step: Vec<f64>,
        substrate: Option<f64>,
    }

    fn composite_yields(
        ctx: &ModelContext,
        design: &ChipDesign,
        dies: &[ResolvedDie],
        substrate_fab_yield: Option<f64>,
    ) -> Result<CompositeYields, String> {
        let fab_yields: Vec<f64> = dies.iter().map(|d| d.fab_yield).collect();
        match design {
            ChipDesign::Monolithic2d { .. } => Ok(CompositeYields {
                per_die: fab_yields,
                per_bond_step: Vec::new(),
                substrate: None,
            }),
            ChipDesign::Stack3d { tech, flow, .. } => {
                let bond = ctx.catalog().bonding(*tech);
                let (eff_flow, step_yield) = match flow {
                    Some(f) => (*f, bond.step_yield(*f)),
                    None => (
                        StackingFlow::WaferToWafer,
                        bond.step_yield(StackingFlow::WaferToWafer),
                    ),
                };
                let stack = three_d_stack_yields(&fab_yields, step_yield, eff_flow)
                    .map_err(|e| e.to_string())?;
                Ok(CompositeYields {
                    per_die: stack.die_composites().to_vec(),
                    per_bond_step: stack.bonding_composites().to_vec(),
                    substrate: None,
                })
            }
            ChipDesign::Assembly25d { tech, .. } => {
                let assembly = IntegrationCatalog::capabilities(*tech)
                    .assembly()
                    .ok_or_else(|| format!("{tech} lacks an assembly flow"))?;
                let substrate_yield =
                    substrate_fab_yield.ok_or_else(|| format!("{tech} needs a substrate yield"))?;
                let c4 = ctx
                    .catalog()
                    .bonding(*tech)
                    .step_yield(StackingFlow::DieToWafer);
                let bonds = vec![c4; fab_yields.len()];
                let y = assembly_2_5d_yields(&fab_yields, substrate_yield, &bonds, assembly)
                    .map_err(|e| e.to_string())?;
                Ok(CompositeYields {
                    per_die: y.die_composites().to_vec(),
                    per_bond_step: y.bonding_composites().to_vec(),
                    substrate: Some(y.substrate_composite()),
                })
            }
        }
    }

    struct SubstrateGeometry {
        kind: SubstrateKind,
        area: Area,
        fab_yield: f64,
        wafer_based: bool,
        carbon_per_area: tdc_units::CarbonPerArea,
    }

    fn resolve_substrate(
        ctx: &ModelContext,
        tech: IntegrationTechnology,
        dies: &[ResolvedDie],
    ) -> Result<Option<SubstrateGeometry>, String> {
        let Some(profile) = ctx.catalog().substrate(tech) else {
            return Ok(None);
        };
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
            SubstrateKind::Rdl => plan.footprint() * profile.scale_factor(),
            SubstrateKind::OrganicLaminate => plan.footprint(),
        };
        let fab_yield = DieYieldModel::NegativeBinomial {
            alpha: profile.clustering_alpha(),
        }
        .die_yield(area, profile.defect_density_per_cm2())
        .map_err(|e| e.to_string())?;
        let wafer_based = !matches!(profile.kind(), SubstrateKind::OrganicLaminate);
        Ok(Some(SubstrateGeometry {
            kind: profile.kind(),
            area,
            fab_yield,
            wafer_based,
            carbon_per_area: profile.carbon_per_area(ctx.ci_fab()),
        }))
    }

    pub fn compute_embodied(
        ctx: &ModelContext,
        design: &ChipDesign,
    ) -> Result<EmbodiedBreakdown, String> {
        let resolved = resolve_dies(ctx, design)?;
        let substrate_geom = match design {
            ChipDesign::Assembly25d { tech, .. } => resolve_substrate(ctx, *tech, &resolved)?,
            _ => None,
        };
        let composites = composite_yields(
            ctx,
            design,
            &resolved,
            substrate_geom.as_ref().map(|s| s.fab_yield),
        )?;

        let ci_fab = ctx.ci_fab();
        let wafer = ctx.wafer();
        let is_m3d = matches!(
            design,
            ChipDesign::Stack3d {
                tech: IntegrationTechnology::Monolithic3d,
                ..
            }
        );
        let m3d_footprint = resolved.iter().map(|d| d.area).fold(Area::ZERO, Area::max);
        let mut die_reports = Vec::with_capacity(resolved.len());
        let mut die_carbon = Co2Mass::ZERO;
        for (tier, (die, composite)) in resolved.iter().zip(&composites.per_die).enumerate() {
            let node = ctx.tech_db().node(die.node);
            let beol_factor = if ctx.beol_adjustment_enabled() {
                let usage = f64::from(die.beol_layers) / f64::from(die.max_beol_layers);
                1.0 - ctx.beol_carbon_fraction() * (1.0 - usage.min(1.0))
            } else {
                1.0
            };
            let process_per_area = ci_fab * node.energy_per_area() + node.gas_per_area();
            let per_area = if is_m3d && tier > 0 {
                process_per_area * (beol_factor * ctx.m3d_sequential_fraction())
            } else {
                process_per_area * beol_factor + node.material_per_area()
            };
            let wafer_carbon = per_area * wafer.area();
            let dpw_area = if is_m3d { m3d_footprint } else { die.area };
            let dpw = wafer
                .dies_per_wafer(dpw_area)
                .filter(|d| *d >= 1.0)
                .ok_or_else(|| format!("die {} exceeds the wafer", die.name))?;
            let carbon = wafer_carbon / dpw / *composite;
            die_carbon += carbon;
            die_reports.push(DieReport {
                name: die.name.clone(),
                node: die.node,
                gate_count: die.gates,
                gate_area: die.gate_area,
                tsv_area: die.tsv_area,
                io_area: die.io_area,
                area: die.area,
                tsv_count: die.tsv_count,
                beol_layers: die.beol_layers,
                beol_factor,
                wafer_carbon,
                dies_per_wafer: dpw,
                fab_yield: die.fab_yield,
                composite_yield: *composite,
                carbon,
            });
        }

        let mut bonding_carbon = Co2Mass::ZERO;
        match design {
            ChipDesign::Monolithic2d { .. } => {}
            ChipDesign::Stack3d { tech, flow, .. } => {
                let bond = ctx.catalog().bonding(*tech);
                let eff_flow = flow.unwrap_or(StackingFlow::WaferToWafer);
                let epa = bond.energy_per_area(eff_flow);
                for (step, composite) in composites.per_bond_step.iter().enumerate() {
                    let area = resolved[step].area;
                    bonding_carbon += ci_fab * (epa * area) / *composite;
                }
            }
            ChipDesign::Assembly25d { tech, .. } => {
                let bond = ctx.catalog().bonding(*tech);
                let epa = bond.energy_per_area(StackingFlow::DieToWafer);
                for (die, composite) in resolved.iter().zip(&composites.per_bond_step) {
                    bonding_carbon += ci_fab * (epa * die.area) / *composite;
                }
            }
        }

        let substrate = match (&substrate_geom, composites.substrate) {
            (Some(geom), Some(composite)) => {
                let carbon = if geom.wafer_based {
                    let dpw = wafer
                        .dies_per_wafer(geom.area)
                        .filter(|d| *d >= 1.0)
                        .ok_or_else(|| format!("{} substrate exceeds the wafer", geom.kind))?;
                    geom.carbon_per_area * wafer.area() / dpw / composite
                } else {
                    geom.carbon_per_area * geom.area / composite
                };
                Some(SubstrateReport {
                    kind: geom.kind,
                    area: geom.area,
                    fab_yield: geom.fab_yield,
                    composite_yield: composite,
                    carbon,
                })
            }
            _ => None,
        };

        let base_area = match design {
            ChipDesign::Monolithic2d { .. } => resolved[0].area,
            ChipDesign::Stack3d { .. } => {
                resolved.iter().map(|d| d.area).fold(Area::ZERO, Area::max)
            }
            ChipDesign::Assembly25d { .. } => {
                let total: Area = resolved.iter().map(|d| d.area).sum();
                match &substrate {
                    Some(s) if s.kind != SubstrateKind::OrganicLaminate => total.max(s.area),
                    _ => total,
                }
            }
        };
        let package_area = ctx.package().package_area(base_area);
        let packaging_carbon = ctx.packaging().packaging_carbon(package_area);

        Ok(EmbodiedBreakdown {
            design: design.describe(),
            dies: die_reports,
            die_carbon,
            bonding_carbon,
            packaging_carbon,
            package_area,
            substrate,
        })
    }

    fn resolve_shares(
        design: &ChipDesign,
        breakdown: &EmbodiedBreakdown,
    ) -> Result<Vec<f64>, String> {
        let specs = design.dies();
        let any_explicit = specs.iter().any(|s| s.compute_share().is_some());
        let raw: Vec<f64> = if any_explicit {
            specs
                .iter()
                .map(|s| s.compute_share().unwrap_or(0.0))
                .collect()
        } else {
            breakdown.dies.iter().map(|d| d.gate_count).collect()
        };
        let sum: f64 = raw.iter().sum();
        if sum <= 0.0 {
            return Err("compute shares sum to zero; at least one die must do work".to_owned());
        }
        Ok(raw.iter().map(|r| r / sum).collect())
    }

    fn io_lanes(
        ctx: &ModelContext,
        design: &ChipDesign,
        breakdown: &EmbodiedBreakdown,
        index: usize,
    ) -> f64 {
        let Some(tech) = design.technology() else {
            return 0.0;
        };
        let spec = ctx.catalog().interface(tech);
        let die = &breakdown.dies[index];
        match spec.io_density() {
            IoDensity::PerEdge { per_mm_per_layer } => {
                pitch_count(die.area.square_side(), per_mm_per_layer, die.beol_layers)
            }
            IoDensity::AreaArray { pitch } => {
                let overlap = overlap_area(breakdown, index);
                let capacity = if pitch.mm() > 0.0 {
                    overlap.mm2() / pitch.squared().mm2()
                } else {
                    0.0
                };
                let rent = design.dies()[index]
                    .rent()
                    .unwrap_or_else(|| ctx.beol().rent());
                let gates_above: f64 = breakdown.dies[index + 1..]
                    .iter()
                    .map(|d| d.gate_count)
                    .sum();
                let demand = match design {
                    ChipDesign::Stack3d {
                        orientation: StackOrientation::FaceToFace,
                        ..
                    } if index == 1 => rent.cut_terminals(breakdown.dies[0].gate_count),
                    _ if gates_above > 0.0 => rent.cut_terminals(gates_above),
                    _ => 0.0,
                };
                demand.min(capacity)
            }
        }
    }

    fn overlap_area(breakdown: &EmbodiedBreakdown, index: usize) -> Area {
        let this = breakdown.dies[index].area;
        let neighbour = if index + 1 < breakdown.dies.len() {
            breakdown.dies[index + 1].area
        } else if index > 0 {
            breakdown.dies[index - 1].area
        } else {
            return Area::ZERO;
        };
        this.min(neighbour)
    }

    pub fn compute_operational(
        ctx: &ModelContext,
        design: &ChipDesign,
        breakdown: &EmbodiedBreakdown,
        workload: &Workload,
        power_model: &dyn PowerModel,
    ) -> Result<OperationalReport, String> {
        let shares = resolve_shares(design, breakdown)?;
        let required_bw = workload.required_bandwidth();
        let peak = workload.peak_throughput();

        let (verdict, achieved_bw) = if !ctx.bandwidth_constraint_enabled() {
            (None, None)
        } else {
            match design {
                ChipDesign::Monolithic2d { .. } => (None, None),
                ChipDesign::Stack3d { .. } => (
                    Some(ctx.bandwidth().check(peak, peak, required_bw, required_bw)),
                    Some(required_bw),
                ),
                ChipDesign::Assembly25d { tech, .. } => {
                    let spec = ctx.catalog().interface(*tech);
                    let bottleneck = (0..breakdown.dies.len())
                        .map(|i| spec.aggregate_bandwidth(io_lanes(ctx, design, breakdown, i)))
                        .fold(Bandwidth::new(f64::INFINITY), Bandwidth::min);
                    let v = ctx.bandwidth().check(peak, peak, bottleneck, required_bw);
                    (Some(v), Some(bottleneck))
                }
            }
        };
        let stretch = verdict.map_or(1.0, |v| v.runtime_stretch(peak));

        let uplift = 1.0
            + design.technology().map_or(
                0.0,
                tdc_integration::IntegrationCatalog::interconnect_uplift,
            );

        let traffic_at = |th: Throughput| -> Bandwidth {
            let demand = Bandwidth::from_gbps(
                th.tops() * 1.0e12 * workload.average_bytes_per_op() * 8.0 / 1.0e9,
            );
            achieved_bw.map_or(demand, |a| demand.min(a))
        };

        let io_power_at = |th: Throughput| -> Power {
            design.technology().map_or(Power::ZERO, |tech| {
                let spec = ctx.catalog().interface(tech);
                spec.interface_power(traffic_at(th))
            })
        };

        let mut die_reports = Vec::with_capacity(breakdown.dies.len());
        for (i, (die, spec)) in breakdown.dies.iter().zip(design.dies()).enumerate() {
            let efficiency = spec
                .efficiency()
                .unwrap_or_else(|| surveyed_efficiency(spec.node()));
            let lanes = io_lanes(ctx, design, breakdown, i);
            let p_io = io_power_at(peak / stretch);
            let th_share = peak * shares[i] / stretch;
            let compute = if spec.efficiency().is_some() {
                th_share / (efficiency * uplift)
            } else {
                power_model.compute_power(th_share, spec.node()) * (1.0 / uplift)
            };
            die_reports.push(DieOperationalReport {
                name: die.name.clone(),
                share: shares[i],
                efficiency,
                compute_power: compute,
                io_lanes: lanes,
                io_power: p_io,
            });
        }

        let util = workload.average_utilization();
        #[allow(clippy::cast_precision_loss)]
        let interface_count = if design.technology().is_some() {
            breakdown.dies.len() as f64
        } else {
            0.0
        };
        let mut phases = Vec::with_capacity(workload.phases().len());
        for phase in workload.phases() {
            let th_avg = phase.throughput * (util / stretch);
            let mut p = io_power_at(th_avg) * interface_count;
            for (i, spec) in design.dies().iter().enumerate() {
                let th_share = th_avg * shares[i];
                p += if let Some(eff) = spec.efficiency() {
                    th_share / (eff * uplift)
                } else {
                    power_model.compute_power(th_share, spec.node()) * (1.0 / uplift)
                };
            }
            phases.push(AppPhase::new(
                phase.name.clone(),
                p,
                phase.duration * stretch,
            ));
        }
        let carbon = tdc_power::operational_carbon(ctx.ci_use(), &phases);
        let energy: Energy = phases.iter().map(AppPhase::energy).sum();
        let power = die_reports
            .iter()
            .map(|d| d.compute_power + d.io_power)
            .fold(Power::ZERO, |a, b| a + b);

        Ok(OperationalReport {
            dies: die_reports,
            power,
            verdict,
            achieved_bandwidth: achieved_bw,
            required_bandwidth: required_bw,
            runtime_stretch: stretch,
            energy,
            mission_time: workload.mission_time(),
            carbon,
        })
    }

    /// The legacy `CarbonModel::lifecycle`: embodied, then operational
    /// over the same breakdown.
    pub fn lifecycle(
        ctx: &ModelContext,
        design: &ChipDesign,
        workload: &Workload,
        power_model: &dyn PowerModel,
    ) -> Result<LifecycleReport, String> {
        let embodied = compute_embodied(ctx, design)?;
        let operational = compute_operational(ctx, design, &embodied, workload, power_model)?;
        Ok(LifecycleReport {
            embodied: embodied.into(),
            operational: operational.into(),
        })
    }
}

const REGIONS: [GridRegion; 6] = [
    GridRegion::Taiwan,
    GridRegion::WorldAverage,
    GridRegion::France,
    GridRegion::Renewable,
    GridRegion::CoalHeavy,
    GridRegion::UnitedStates,
];

const THREE_D: [IntegrationTechnology; 3] = [
    IntegrationTechnology::Monolithic3d,
    IntegrationTechnology::HybridBonding3d,
    IntegrationTechnology::MicroBump3d,
];

const TWO_FIVE_D: [IntegrationTechnology; 5] = [
    IntegrationTechnology::Emib,
    IntegrationTechnology::SiliconInterposer,
    IntegrationTechnology::Mcm,
    IntegrationTechnology::InfoChipFirst,
    IntegrationTechnology::InfoChipLast,
];

fn die(name: String, node: ProcessNode, gates: f64, eff: Option<f64>) -> DieSpec {
    let mut b = DieSpec::builder(name, node).gate_count(gates);
    if let Some(tops_per_watt) = eff {
        b = b.efficiency(Efficiency::from_tops_per_watt(tops_per_watt));
    }
    b.build().expect("positive gate counts build")
}

/// Builds a randomized-but-valid design; `None` when the picked combo
/// is outside the catalog's envelope (those cases are simply skipped).
#[allow(clippy::too_many_arguments)]
fn build_design(
    family: usize,
    node_picks: &[usize],
    gates: &[f64],
    tech_pick: usize,
    orient_pick: usize,
    flow_pick: usize,
    die_count: usize,
    eff: Option<f64>,
) -> Option<ChipDesign> {
    let node_at = |i: usize| ProcessNode::ALL[node_picks[i % node_picks.len()]];
    let dies = |n: usize| -> Vec<DieSpec> {
        (0..n)
            .map(|i| die(format!("d{i}"), node_at(i), gates[i % gates.len()], eff))
            .collect()
    };
    match family {
        0 => Some(ChipDesign::monolithic_2d(die(
            "mono".to_owned(),
            node_at(0),
            gates[0],
            eff,
        ))),
        1 => {
            let tech = THREE_D[tech_pick % THREE_D.len()];
            let n = if tech == IntegrationTechnology::Monolithic3d {
                2
            } else {
                die_count.clamp(2, 3)
            };
            let (orientation, flow) = if tech == IntegrationTechnology::Monolithic3d {
                (StackOrientation::FaceToBack, None)
            } else if n > 2 {
                (
                    StackOrientation::FaceToBack,
                    Some(if flow_pick == 0 {
                        StackingFlow::DieToWafer
                    } else {
                        StackingFlow::WaferToWafer
                    }),
                )
            } else {
                (
                    if orient_pick == 0 {
                        StackOrientation::FaceToFace
                    } else {
                        StackOrientation::FaceToBack
                    },
                    Some(if flow_pick == 0 {
                        StackingFlow::DieToWafer
                    } else {
                        StackingFlow::WaferToWafer
                    }),
                )
            };
            ChipDesign::stack_3d(dies(n), tech, orientation, flow).ok()
        }
        _ => {
            let tech = TWO_FIVE_D[tech_pick % TWO_FIVE_D.len()];
            ChipDesign::assembly_25d(dies(die_count.clamp(2, 3)), tech).ok()
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn build_context(
    fab: usize,
    use_r: usize,
    yield_pick: usize,
    beol_frac: f64,
    beol_adj: usize,
    bandwidth: usize,
    keepout: f64,
    m3d_frac: f64,
    wafer_pick: usize,
) -> ModelContext {
    ModelContext::builder()
        .fab_region(REGIONS[fab % REGIONS.len()])
        .use_region(REGIONS[use_r % REGIONS.len()])
        .die_yield(
            [
                DieYieldChoice::PaperNegativeBinomial,
                DieYieldChoice::Poisson,
                DieYieldChoice::Murphy,
            ][yield_pick % 3],
        )
        .beol_carbon_fraction(beol_frac)
        .beol_adjustment(beol_adj == 0)
        .bandwidth_constraint(bandwidth == 0)
        .tsv_keepout(keepout)
        .m3d_sequential_fraction(m3d_frac)
        .wafer(if wafer_pick == 0 {
            Wafer::W300
        } else {
            Wafer::W200
        })
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline invariant of the refactor: for arbitrary designs,
    /// contexts, and workloads, the staged pipeline's `lifecycle` is
    /// structurally — bit for bit — equal to the pre-refactor
    /// single-pass evaluator, and the two agree on which inputs are
    /// errors.
    #[test]
    fn staged_pipeline_matches_legacy_single_pass(
        family in 0usize..3,
        node_picks in proptest::collection::vec(0usize..ProcessNode::ALL.len(), 1..4),
        gates in proptest::collection::vec(0.5e9..9.0e9f64, 1..4),
        tech_pick in 0usize..5,
        orient_pick in 0usize..2,
        flow_pick in 0usize..2,
        die_count in 2usize..4,
        with_eff in 0usize..2,
        fab in 0usize..6,
        use_r in 0usize..6,
        yield_pick in 0usize..3,
        beol_frac in 0.2..0.8f64,
        beol_adj in 0usize..2,
        bandwidth in 0usize..2,
        keepout in 1.5..3.0f64,
        m3d_frac in 0.2..0.6f64,
        wafer_pick in 0usize..2,
        tops in 20.0..400.0f64,
        hours in 1_000.0..30_000.0f64,
        utilization in 0.1..1.0f64,
    ) {
        let eff = if with_eff == 0 { Some(2.74) } else { None };
        let Some(design) = build_design(
            family, &node_picks, &gates, tech_pick, orient_pick, flow_pick, die_count, eff,
        ) else {
            return Ok(());
        };
        let ctx = build_context(
            fab, use_r, yield_pick, beol_frac, beol_adj, bandwidth, keepout, m3d_frac, wafer_pick,
        );
        let workload = Workload::fixed(
            "mission",
            Throughput::from_tops(tops),
            TimeSpan::from_hours(hours),
        )
        .with_average_utilization(utilization);
        let power_model = tdc_power::SurveyedEfficiency::new();

        let staged = CarbonModel::new(ctx.clone()).lifecycle(&design, &workload);
        let reference = legacy::lifecycle(&ctx, &design, &workload, &power_model);
        match (staged, reference) {
            (Ok(s), Ok(r)) => {
                // Full structural equality: every f64 of every report.
                prop_assert_eq!(&s.embodied, &r.embodied);
                prop_assert_eq!(&s.operational, &r.operational);
                prop_assert!(s.total().kg() == r.total().kg());
            }
            (Err(_), Err(_)) => {}
            (s, r) => {
                return Err(TestCaseError::fail(format!(
                    "evaluators disagree on validity: staged={s:?} legacy={r:?}"
                )));
            }
        }
    }

    /// Per-stage cache hits never change a report field: sweeping the
    /// same plan across operational-axis configurations on one warm
    /// executor yields entries identical to fresh, uncached
    /// evaluations of each design.
    #[test]
    fn per_stage_cache_hits_never_change_any_report_field(
        gates in 4.0e9..20.0e9f64,
        region_picks in proptest::collection::vec(0usize..REGIONS.len(), 2..4),
        hour_scale in 1.0..4.0f64,
    ) {
        let plan = DesignSweep::new(gates)
            .nodes(vec![ProcessNode::N7, ProcessNode::N5])
            .plan()
            .expect("plan builds");
        let executor = SweepExecutor::default();
        for (round, pick) in region_picks.iter().enumerate() {
            let ctx = ModelContext::builder()
                .use_region(REGIONS[*pick])
                .build();
            let model = CarbonModel::new(ctx);
            #[allow(clippy::cast_precision_loss)]
            let hours = 5_000.0 * hour_scale + 1_000.0 * round as f64;
            let workload = Workload::fixed(
                "mission",
                Throughput::from_tops(150.0),
                TimeSpan::from_hours(hours),
            );
            let swept = executor.execute(&model, &plan, &workload).expect("sweeps");
            for entry in swept.entries() {
                let fresh = model
                    .lifecycle(&entry.design, &workload)
                    .expect("plan designs evaluate");
                prop_assert_eq!(&entry.report, &fresh, "cached entry diverged");
            }
        }
    }
}

/// The acceptance criterion of the staged cache, deterministically: a
/// sweep varying only operational axes (use-phase grid × lifetime)
/// over a fixed design set computes each design's embodied artifact
/// exactly once, and re-prices only the operational stage per
/// configuration.
#[test]
fn operational_axis_sweep_computes_embodied_once_per_distinct_geometry() {
    let plan = DesignSweep::new(17.0e9)
        .nodes(vec![ProcessNode::N7])
        .plan()
        .unwrap();
    // Every point in this plan is a distinct geometry (2D + 8 distinct
    // technologies).
    assert_eq!(plan.len(), 9);
    let executor = SweepExecutor::default();
    let regions = [
        GridRegion::WorldAverage,
        GridRegion::France,
        GridRegion::CoalHeavy,
        GridRegion::Renewable,
    ];
    let lifetimes_h = [5_000.0, 10_000.0, 20_000.0];
    let mut configs = 0u64;
    for region in regions {
        for hours in lifetimes_h {
            let model = CarbonModel::new(ModelContext::builder().use_region(region).build());
            let workload = Workload::fixed(
                "mission",
                Throughput::from_tops(254.0),
                TimeSpan::from_hours(hours),
            );
            let result = executor.execute(&model, &plan, &workload).unwrap();
            assert_eq!(result.stats().evaluated, plan.len());
            configs += 1;
        }
    }
    let stages = executor.cache().stats().stages;
    let points = plan.len() as u64;
    // Embodied (and its upstream physical/yield stages) ran exactly
    // once per distinct geometry — the first configuration — and every
    // later configuration answered it from the store.
    assert_eq!(stages.embodied.misses, points);
    assert_eq!(stages.embodied.hits, points * (configs - 1));
    assert_eq!(stages.yields.misses, points);
    assert_eq!(stages.physical.misses, points);
    // The operational stage re-priced every configuration.
    assert_eq!(stages.operational.misses, points * configs);
    assert_eq!(stages.operational.hits, 0);
}
