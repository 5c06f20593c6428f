//! Design-space exploration — the "early design stage" workflow the
//! paper's conclusion motivates: enumerate every (node × integration
//! technology × tier count) implementation of a gate budget, evaluate
//! the full life cycle for each, and rank them.
//!
//! The subsystem is layered:
//!
//! * [`DesignSweep`] — builder describing *what* to explore (gate
//!   budget, node/technology/tier axes);
//! * [`SweepPlan`] — the fully-enumerated, deterministically-indexed
//!   list of [`SweepPoint`]s the builder expands into;
//! * [`SweepExecutor`] — evaluates a plan through the one fill kernel
//!   (`batch`), on the calling thread: the plan is lowered into
//!   per-stage columns that delta-evaluate across calls, and every
//!   column miss consults [`EvalCache`], which
//!   memoizes every artifact of the staged pipeline (geometry, yield,
//!   embodied, power, operational) under stage-specific keys, so
//!   points — and successive `execute` calls — that differ only in
//!   downstream axes reuse every upstream artifact;
//! * [`SweepResult`] — the ranked [`SweepEntry`] list plus
//!   [`SweepStats`] bookkeeping (whole-point and per-stage hits,
//!   column answers, dropped points). Every stage lookup is counted
//!   once, by the call that made it; [`EvalCache::stats`] sums every
//!   call's counts.
//!
//! Results are **deterministic**: entries are ranked by life-cycle
//! total with the plan index as tie-break, so exact ties keep plan
//! order.

use crate::design::{ChipDesign, DieSpec};
use crate::error::ModelError;
use crate::model::{CarbonModel, LifecycleReport};
use crate::operational::Workload;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tdc_integration::{IntegrationFamily, IntegrationTechnology, StackOrientation};
use tdc_technode::ProcessNode;
use tdc_units::Efficiency;
use tdc_yield::StackingFlow;

pub(crate) mod batch;
pub(crate) mod cache;
mod executor;
mod plan;

pub use batch::{BatchRanking, RankedPoint};
pub use cache::{CacheStats, EvalCache, PipelineStats, StageCounters};
pub use executor::{SweepExecutor, SweepResult, SweepStats};
pub use plan::{SweepPlan, SweepPoint};

/// One evaluated point of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepEntry {
    /// `"<node>/<tech>"` label, e.g. `"7 nm/Hybrid"` (suffixed with
    /// `"@<tiers>"` when the plan sweeps more than one tier count).
    pub label: String,
    /// The process node of the point.
    pub node: ProcessNode,
    /// The integration technology (`None` = monolithic 2D).
    pub technology: Option<IntegrationTechnology>,
    /// The design that was evaluated, shared with the plan point it
    /// came from.
    pub design: Arc<ChipDesign>,
    /// Its life-cycle result.
    pub report: LifecycleReport,
}

impl SweepEntry {
    /// Whether the point survives the bandwidth constraint.
    #[must_use]
    pub fn is_viable(&self) -> bool {
        self.report.operational.is_viable()
    }
}

/// Enumerates N-die implementations of a gate budget across nodes,
/// integration technologies, and tier counts.
///
/// ```
/// use tdc_core::{CarbonModel, ModelContext, Workload};
/// use tdc_core::sweep::DesignSweep;
/// use tdc_technode::ProcessNode;
/// use tdc_units::{Throughput, TimeSpan};
///
/// # fn main() -> Result<(), tdc_core::ModelError> {
/// let model = CarbonModel::new(ModelContext::default());
/// let workload = Workload::fixed(
///     "app",
///     Throughput::from_tops(100.0),
///     TimeSpan::from_hours(10_000.0),
/// );
/// let entries = DesignSweep::new(10.0e9)
///     .nodes(vec![ProcessNode::N7, ProcessNode::N5])
///     .run(&model, &workload)?;
/// assert!(!entries.is_empty());
/// // Sorted: the first entry has the lowest life-cycle carbon.
/// assert!(entries[0].report.total() <= entries[1].report.total());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DesignSweep {
    gate_count: f64,
    efficiency: Option<Efficiency>,
    nodes: Vec<ProcessNode>,
    technologies: Vec<Option<IntegrationTechnology>>,
    tier_counts: Vec<u32>,
}

impl DesignSweep {
    /// Starts a sweep for a design of `gate_count` gates, covering all
    /// nodes and all technologies (plus the 2D reference) with 2-die
    /// splits.
    ///
    /// # Panics
    ///
    /// Panics if `gate_count` is not finite and positive.
    #[must_use]
    pub fn new(gate_count: f64) -> Self {
        assert!(
            gate_count.is_finite() && gate_count > 0.0,
            "gate count must be positive"
        );
        let mut technologies: Vec<Option<IntegrationTechnology>> = vec![None];
        technologies.extend(IntegrationTechnology::ALL.into_iter().map(Some));
        Self {
            gate_count,
            efficiency: None,
            nodes: ProcessNode::ALL.to_vec(),
            technologies,
            tier_counts: vec![2],
        }
    }

    /// Restricts the swept nodes.
    #[must_use]
    pub fn nodes(mut self, nodes: Vec<ProcessNode>) -> Self {
        self.nodes = nodes;
        self
    }

    /// Restricts the swept technologies (`None` entries keep the 2D
    /// reference point).
    #[must_use]
    pub fn technologies(mut self, technologies: Vec<Option<IntegrationTechnology>>) -> Self {
        self.technologies = technologies;
        self
    }

    /// Sets the die/tier count for the split designs (≥ 2; F2F-limited
    /// technologies are automatically evaluated face-to-back when the
    /// count exceeds their envelope).
    ///
    /// # Panics
    ///
    /// Panics if `tiers < 2`.
    #[must_use]
    pub fn tiers(self, tiers: u32) -> Self {
        self.tier_counts(vec![tiers])
    }

    /// Sweeps several tier counts as an additional axis (each ≥ 2).
    /// The 2D reference point is emitted once per node, not once per
    /// tier count.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty or contains a value below 2.
    #[must_use]
    pub fn tier_counts(mut self, tiers: Vec<u32>) -> Self {
        assert!(!tiers.is_empty(), "at least one tier count is needed");
        assert!(tiers.iter().all(|t| *t >= 2), "splits need at least 2 dies");
        self.tier_counts = tiers;
        self
    }

    /// Sets a known device efficiency for the operational model.
    #[must_use]
    pub fn efficiency(mut self, efficiency: Efficiency) -> Self {
        self.efficiency = Some(efficiency);
        self
    }

    fn die(&self, name: String, node: ProcessNode, gates: f64) -> Result<DieSpec, ModelError> {
        let mut b = DieSpec::builder(name, node).gate_count(gates);
        if let Some(eff) = self.efficiency {
            b = b.efficiency(eff);
        }
        b.build()
    }

    /// Builds the design for one (node, technology, tiers) point. M3D
    /// beyond two tiers and F2F stacks beyond two dies are skipped
    /// (`Ok(None)`), as are configurations the catalog rejects.
    fn design_for(
        &self,
        node: ProcessNode,
        tech: Option<IntegrationTechnology>,
        tiers: u32,
    ) -> Result<Option<ChipDesign>, ModelError> {
        let Some(tech) = tech else {
            return Ok(Some(ChipDesign::monolithic_2d(self.die(
                "mono".to_owned(),
                node,
                self.gate_count,
            )?)));
        };
        let per_die = self.gate_count / f64::from(tiers);
        let mut dies = Vec::with_capacity(tiers as usize);
        for i in 0..tiers {
            dies.push(self.die(format!("d{i}"), node, per_die)?);
        }
        let design = match tech.family() {
            IntegrationFamily::ThreeD => {
                if tech == IntegrationTechnology::Monolithic3d {
                    if tiers > 2 {
                        return Ok(None);
                    }
                    ChipDesign::stack_3d(dies, tech, StackOrientation::FaceToBack, None)
                } else if tiers <= 2 {
                    ChipDesign::stack_3d(
                        dies,
                        tech,
                        StackOrientation::FaceToFace,
                        Some(StackingFlow::DieToWafer),
                    )
                } else {
                    ChipDesign::stack_3d(
                        dies,
                        tech,
                        StackOrientation::FaceToBack,
                        Some(StackingFlow::DieToWafer),
                    )
                }
            }
            IntegrationFamily::TwoPointFiveD => ChipDesign::assembly_25d(dies, tech),
        };
        Ok(Some(design?))
    }

    /// Expands the builder into a deterministic [`SweepPlan`]: the
    /// cartesian product of nodes × tier counts × technologies, minus
    /// the points outside a technology's envelope, with the 2D
    /// reference emitted once per node.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when a die specification is invalid
    /// (e.g. a non-positive per-die gate count).
    pub fn plan(&self) -> Result<SweepPlan, ModelError> {
        let multi_tier = self.tier_counts.len() > 1;
        let mut points = Vec::new();
        for &node in &self.nodes {
            for (tier_slot, &tiers) in self.tier_counts.iter().enumerate() {
                for &tech in &self.technologies {
                    if tech.is_none() && tier_slot > 0 {
                        // The 2D reference is tier-independent.
                        continue;
                    }
                    let Some(design) = self.design_for(node, tech, tiers)? else {
                        continue;
                    };
                    let base =
                        format!("{node}/{}", tech.map_or("2D", IntegrationTechnology::label));
                    let label = if multi_tier && tech.is_some() {
                        format!("{base}@{tiers}")
                    } else {
                        base
                    };
                    let point_tiers = if tech.is_none() { 1 } else { tiers };
                    points.push(SweepPoint::new(
                        points.len(),
                        label,
                        node,
                        tech,
                        point_tiers,
                        design,
                    ));
                }
            }
        }
        Ok(SweepPlan::new(points))
    }

    /// Runs the sweep, returning entries sorted by life-cycle
    /// total (lowest first). Points whose dies outgrow the wafer are
    /// dropped silently (they are unbuildable, not errors of the
    /// caller's making); all other model errors propagate.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for design-construction failures other
    /// than wafer overflow.
    pub fn run(
        &self,
        model: &CarbonModel,
        workload: &Workload,
    ) -> Result<Vec<SweepEntry>, ModelError> {
        Ok(SweepExecutor::default()
            .execute(model, &self.plan()?, workload)?
            .into_entries())
    }

    /// Runs the sweep and returns the best *viable* point, if any.
    ///
    /// # Errors
    ///
    /// Propagates [`DesignSweep::run`] errors.
    pub fn best(
        &self,
        model: &CarbonModel,
        workload: &Workload,
    ) -> Result<Option<SweepEntry>, ModelError> {
        Ok(self
            .run(model, workload)?
            .into_iter()
            .find(SweepEntry::is_viable))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ModelContext;
    use tdc_units::{Throughput, TimeSpan};

    fn model() -> CarbonModel {
        CarbonModel::new(ModelContext::default())
    }

    fn workload() -> Workload {
        Workload::fixed(
            "app",
            Throughput::from_tops(100.0),
            TimeSpan::from_hours(10_000.0),
        )
    }

    #[test]
    fn full_sweep_covers_nodes_times_techs() {
        let entries = DesignSweep::new(5.0e9)
            .nodes(vec![ProcessNode::N7, ProcessNode::N12])
            .run(&model(), &workload())
            .unwrap();
        // 2 nodes × (1 × 2D + 8 techs) = 18 points, none dropped at
        // this size.
        assert_eq!(entries.len(), 18);
    }

    #[test]
    fn entries_are_sorted_ascending() {
        let entries = DesignSweep::new(8.0e9)
            .nodes(vec![ProcessNode::N7])
            .run(&model(), &workload())
            .unwrap();
        for pair in entries.windows(2) {
            assert!(pair[0].report.total() <= pair[1].report.total());
        }
    }

    #[test]
    fn best_returns_a_viable_point() {
        let best = DesignSweep::new(8.0e9)
            .nodes(vec![ProcessNode::N7])
            .best(&model(), &workload())
            .unwrap()
            .expect("some viable point exists");
        assert!(best.is_viable());
    }

    #[test]
    fn four_tier_sweep_skips_m3d_and_uses_f2b() {
        let entries = DesignSweep::new(8.0e9)
            .nodes(vec![ProcessNode::N7])
            .tiers(4)
            .run(&model(), &workload())
            .unwrap();
        assert!(entries
            .iter()
            .all(|e| e.technology != Some(IntegrationTechnology::Monolithic3d)));
        // Micro/hybrid must appear (as F2B stacks).
        assert!(entries
            .iter()
            .any(|e| e.technology == Some(IntegrationTechnology::MicroBump3d)));
        for e in &entries {
            if let ChipDesign::Stack3d { orientation, .. } = &*e.design {
                assert_eq!(*orientation, StackOrientation::FaceToBack);
            }
        }
    }

    #[test]
    fn oversized_points_are_dropped_not_fatal() {
        // 60 G gates at 28 nm is far beyond a 300 mm wafer as one die.
        let entries = DesignSweep::new(60.0e9)
            .nodes(vec![ProcessNode::N28])
            .technologies(vec![None])
            .run(&model(), &workload())
            .unwrap();
        assert!(entries.is_empty());
    }

    #[test]
    fn technology_filter_is_respected() {
        let entries = DesignSweep::new(5.0e9)
            .nodes(vec![ProcessNode::N7])
            .technologies(vec![None, Some(IntegrationTechnology::Emib)])
            .run(&model(), &workload())
            .unwrap();
        assert_eq!(entries.len(), 2);
        let labels: Vec<&str> = entries.iter().map(|e| e.label.as_str()).collect();
        assert!(labels.contains(&"7 nm/2D"));
        assert!(labels.contains(&"7 nm/EMIB"));
    }

    #[test]
    fn efficiency_override_flows_into_reports() {
        let fast = DesignSweep::new(5.0e9)
            .nodes(vec![ProcessNode::N7])
            .technologies(vec![None])
            .efficiency(Efficiency::from_tops_per_watt(10.0))
            .run(&model(), &workload())
            .unwrap();
        let slow = DesignSweep::new(5.0e9)
            .nodes(vec![ProcessNode::N7])
            .technologies(vec![None])
            .efficiency(Efficiency::from_tops_per_watt(1.0))
            .run(&model(), &workload())
            .unwrap();
        assert!(fast[0].report.operational.carbon < slow[0].report.operational.carbon);
    }

    #[test]
    fn tier_axis_emits_2d_once_and_labels_tiers() {
        let plan = DesignSweep::new(8.0e9)
            .nodes(vec![ProcessNode::N7])
            .tier_counts(vec![2, 4])
            .plan()
            .unwrap();
        let labels: Vec<&str> = plan.points().iter().map(SweepPoint::label).collect();
        // One 2D reference, tier-suffixed stacks for the rest.
        assert_eq!(labels.iter().filter(|l| l.ends_with("/2D")).count(), 1);
        assert!(labels.contains(&"7 nm/Hybrid@2"));
        assert!(labels.contains(&"7 nm/Hybrid@4"));
        // M3D appears only at 2 tiers.
        assert!(labels.contains(&"7 nm/M3D@2"));
        assert!(!labels.iter().any(|l| l.starts_with("7 nm/M3D@4")));
        // Indices are dense and ordered.
        for (i, p) in plan.points().iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
