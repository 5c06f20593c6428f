//! The top-level [`CarbonModel`] API.

use crate::context::ModelContext;
use crate::decision::DecisionMetrics;
use crate::design::ChipDesign;
use crate::embodied::{compute_embodied, EmbodiedBreakdown};
use crate::error::ModelError;
use crate::operational::{OperationalReport, Workload};
use crate::pipeline;
use crate::sweep::cache::ContextTags;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use tdc_power::PowerModel;
use tdc_units::{Co2Mass, Ratio, TimeSpan};

/// The full life-cycle result for one design (Eq. 1).
///
/// Both halves are shared: a report built from the sweep cache points
/// at the very artifacts the store and the plan's stage columns hold,
/// so materializing a result clones two pointers, never a breakdown.
/// `Arc` is transparent to `Debug`, `Display` and `PartialEq`, which
/// compare and render the artifacts themselves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleReport {
    /// Embodied breakdown (Eq. 3).
    pub embodied: Arc<EmbodiedBreakdown>,
    /// Operational report (Eq. 16).
    pub operational: Arc<OperationalReport>,
}

impl LifecycleReport {
    /// `C_total = C_operational + C_emb` (Eq. 1).
    #[must_use]
    pub fn total(&self) -> Co2Mass {
        self.embodied.total() + self.operational.carbon
    }
}

impl core::fmt::Display for LifecycleReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "{}", self.embodied)?;
        writeln!(
            f,
            "  operational    {:>10.3} kg ({:.1} W avg, stretch {:.2}, {})",
            self.operational.carbon.kg(),
            self.operational.average_power().watts(),
            self.operational.runtime_stretch,
            if self.operational.is_viable() {
                "viable"
            } else {
                "INVALID (bandwidth)"
            }
        )?;
        write!(f, "  LIFECYCLE      {:>10.3} kg", self.total().kg())
    }
}

/// Result of comparing an alternative design against a 2D baseline —
/// the rows of the paper's Table 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonReport {
    /// Baseline life-cycle result.
    pub base: LifecycleReport,
    /// Alternative life-cycle result.
    pub alt: LifecycleReport,
    /// Eq. 2 metrics.
    pub metrics: DecisionMetrics,
    /// Embodied carbon save ratio (positive = alt saves).
    pub embodied_save: Ratio,
    /// Overall (lifecycle) carbon save ratio.
    pub overall_save: Ratio,
}

/// The 3D-Carbon model: a [`ModelContext`] plus an operational power
/// plug-in.
pub struct CarbonModel {
    ctx: ModelContext,
    power_model: Box<dyn PowerModel + Send + Sync>,
    /// The sweep cache's context-only stage tags, hashed on first use:
    /// neither input can change afterwards except through
    /// [`with_power_model`](Self::with_power_model), which resets it.
    tags: OnceLock<ContextTags>,
}

impl core::fmt::Debug for CarbonModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The fingerprint (not the bare name), so that two models
        // differing only in power-plug-in *parameters* print
        // differently. Sweep caches do not read this rendering: their
        // stage tags hash the context's bits and the same fingerprint.
        f.debug_struct("CarbonModel")
            .field("ctx", &self.ctx)
            .field("power_model", &self.power_model.fingerprint())
            .finish()
    }
}

impl Default for CarbonModel {
    fn default() -> Self {
        Self::new(ModelContext::default())
    }
}

impl CarbonModel {
    /// Creates a model running the power plug-in the context selects
    /// ([`ModelContext::power_model`]; the default is the surveyed
    /// efficiency trendline).
    #[must_use]
    pub fn new(ctx: ModelContext) -> Self {
        let power_model = ctx.power_model().instantiate();
        Self {
            ctx,
            power_model,
            tags: OnceLock::new(),
        }
    }

    /// Swaps in a different operational power plug-in.
    #[must_use]
    pub fn with_power_model(mut self, model: Box<dyn PowerModel + Send + Sync>) -> Self {
        self.power_model = model;
        self.tags = OnceLock::new();
        self
    }

    /// The model's configuration.
    #[must_use]
    pub fn context(&self) -> &ModelContext {
        &self.ctx
    }

    /// The operational power plug-in (for cache fingerprinting and the
    /// pipeline's operational stage).
    pub(crate) fn power_model(&self) -> &(dyn PowerModel + Send + Sync) {
        &*self.power_model
    }

    /// The sweep cache's context-only stage tags for this model.
    pub(crate) fn context_tags(&self) -> &ContextTags {
        self.tags
            .get_or_init(|| ContextTags::new(&self.ctx, &*self.power_model))
    }

    /// Evaluates the embodied model (Eq. 3) for `design`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on inconsistent designs, dies that don't
    /// fit the wafer, or yield-model failures.
    pub fn embodied(&self, design: &ChipDesign) -> Result<EmbodiedBreakdown, ModelError> {
        compute_embodied(&self.ctx, design)
    }

    /// Evaluates the operational model (Eqs. 16–18) for `design` under
    /// `workload`.
    ///
    /// The full pipeline runs (an unbuildable design still errors with
    /// [`ModelError::DieExceedsWafer`], exactly like
    /// [`CarbonModel::lifecycle`]); only the embodied artifact is
    /// discarded.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on inconsistent designs or zero compute
    /// shares.
    pub fn operational(
        &self,
        design: &ChipDesign,
        workload: &Workload,
    ) -> Result<OperationalReport, ModelError> {
        let phys = pipeline::physical_profile(&self.ctx, design);
        let yld = pipeline::yield_profile(&self.ctx, design, &phys)?;
        let _embodied = pipeline::embodied_breakdown(&self.ctx, design, &phys, &yld)?;
        let power = pipeline::power_profile(&self.ctx, design, &phys)?;
        pipeline::operational_report(
            &self.ctx,
            design,
            &phys,
            &power,
            workload,
            &*self.power_model,
        )
    }

    /// Evaluates the full life cycle (Eq. 1) by driving the staged
    /// pipeline end to end.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`CarbonModel::embodied`] and
    /// [`CarbonModel::operational`].
    pub fn lifecycle(
        &self,
        design: &ChipDesign,
        workload: &Workload,
    ) -> Result<LifecycleReport, ModelError> {
        let phys = pipeline::physical_profile(&self.ctx, design);
        let yld = pipeline::yield_profile(&self.ctx, design, &phys)?;
        let embodied = pipeline::embodied_breakdown(&self.ctx, design, &phys, &yld)?;
        let power = pipeline::power_profile(&self.ctx, design, &phys)?;
        let operational = pipeline::operational_report(
            &self.ctx,
            design,
            &phys,
            &power,
            workload,
            &*self.power_model,
        )?;
        Ok(LifecycleReport {
            embodied: Arc::new(embodied),
            operational: Arc::new(operational),
        })
    }

    /// Compares an alternative design against a 2D baseline under the
    /// same workload, producing the save ratios and Eq. 2 metrics of
    /// the paper's Table 5.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from either design.
    pub fn compare(
        &self,
        base: &ChipDesign,
        alt: &ChipDesign,
        workload: &Workload,
    ) -> Result<ComparisonReport, ModelError> {
        let base_report = self.lifecycle(base, workload)?;
        let alt_report = self.lifecycle(alt, workload)?;
        // Decision metrics run on *calendar* time when the workload
        // declares a service window (an AV drives a few hours a day but
        // T_c/T_r are quoted in years of ownership).
        let service = workload.service_time();
        let metrics = DecisionMetrics::evaluate(
            base_report.embodied.total(),
            base_report.operational.energy / service,
            alt_report.embodied.total(),
            alt_report.operational.energy / service,
            self.ctx.ci_use(),
        );
        let embodied_save = Ratio::saving(
            base_report.embodied.total().kg(),
            alt_report.embodied.total().kg(),
        )
        .unwrap_or(Ratio::ZERO);
        let overall_save =
            Ratio::saving(base_report.total().kg(), alt_report.total().kg()).unwrap_or(Ratio::ZERO);
        Ok(ComparisonReport {
            base: base_report,
            alt: alt_report,
            metrics,
            embodied_save,
            overall_save,
        })
    }

    /// Convenience: is choosing `alt` over `base` recommended for a
    /// device with the given expected lifetime?
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn recommend_choice(
        &self,
        base: &ChipDesign,
        alt: &ChipDesign,
        workload: &Workload,
        lifetime: TimeSpan,
    ) -> Result<bool, ModelError> {
        let cmp = self.compare(base, alt, workload)?;
        Ok(cmp.alt.operational.is_viable() && cmp.metrics.recommend_choosing(lifetime))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DieSpec;
    use tdc_integration::{IntegrationTechnology, StackOrientation};
    use tdc_technode::ProcessNode;
    use tdc_units::{Efficiency, Throughput};

    fn die(name: &str, gates: f64) -> DieSpec {
        DieSpec::builder(name, ProcessNode::N7)
            .gate_count(gates)
            .efficiency(Efficiency::from_tops_per_watt(2.74))
            .build()
            .unwrap()
    }

    fn orin_2d() -> ChipDesign {
        ChipDesign::monolithic_2d(die("orin", 17.0e9))
    }

    fn orin_m3d() -> ChipDesign {
        ChipDesign::stack_3d(
            vec![die("t0", 8.5e9), die("t1", 8.5e9)],
            IntegrationTechnology::Monolithic3d,
            StackOrientation::FaceToBack,
            None,
        )
        .unwrap()
    }

    fn workload() -> Workload {
        Workload::fixed(
            "drive",
            Throughput::from_tops(254.0),
            TimeSpan::from_years(10.0) * (8.0 / 24.0),
        )
    }

    #[test]
    fn lifecycle_total_is_emb_plus_op() {
        let model = CarbonModel::default();
        let r = model.lifecycle(&orin_2d(), &workload()).unwrap();
        assert!((r.total().kg() - (r.embodied.total() + r.operational.carbon).kg()).abs() < 1e-12);
        assert!(r.total().kg() > 0.0);
    }

    #[test]
    fn m3d_saves_embodied_carbon_vs_2d() {
        // Table 5's headline: M3D has the largest embodied save.
        let model = CarbonModel::default();
        let cmp = model.compare(&orin_2d(), &orin_m3d(), &workload()).unwrap();
        assert!(
            cmp.embodied_save.fraction() > 0.0,
            "M3D must save embodied carbon, got {}",
            cmp.embodied_save.percent()
        );
        assert!(cmp.alt.operational.is_viable());
    }

    #[test]
    fn comparison_save_ratios_are_consistent() {
        let model = CarbonModel::default();
        let cmp = model.compare(&orin_2d(), &orin_m3d(), &workload()).unwrap();
        let expect = (cmp.base.embodied.total().kg() - cmp.alt.embodied.total().kg())
            / cmp.base.embodied.total().kg();
        assert!((cmp.embodied_save.fraction() - expect).abs() < 1e-12);
        let expect_overall = (cmp.base.total().kg() - cmp.alt.total().kg()) / cmp.base.total().kg();
        assert!((cmp.overall_save.fraction() - expect_overall).abs() < 1e-12);
    }

    #[test]
    fn recommend_choice_respects_viability() {
        let model = CarbonModel::default();
        // MCM is bandwidth-starved for Orin → never recommended, even if
        // carbon looked good.
        let mcm = ChipDesign::assembly_25d(
            vec![die("l", 8.5e9), die("r", 8.5e9)],
            IntegrationTechnology::Mcm,
        )
        .unwrap();
        let rec = model
            .recommend_choice(&orin_2d(), &mcm, &workload(), TimeSpan::from_years(10.0))
            .unwrap();
        assert!(!rec);
    }

    #[test]
    fn display_renders() {
        let model = CarbonModel::default();
        let r = model.lifecycle(&orin_m3d(), &workload()).unwrap();
        let s = r.to_string();
        assert!(s.contains("LIFECYCLE"));
        assert!(s.contains("operational"));
        let dbg = format!("{model:?}");
        assert!(dbg.contains("surveyed-efficiency"));
    }

    #[test]
    fn power_model_swap_changes_results() {
        let base = CarbonModel::default();
        let alt =
            CarbonModel::default().with_power_model(Box::new(tdc_power::AnalyticalCmos::new()));
        // Die without explicit efficiency so the plug-in matters.
        let d = DieSpec::builder("orin", ProcessNode::N7)
            .gate_count(17.0e9)
            .build()
            .unwrap();
        let design = ChipDesign::monolithic_2d(d);
        let w = workload();
        let p1 = base.operational(&design, &w).unwrap().power;
        let p2 = alt.operational(&design, &w).unwrap().power;
        assert!(p2 > p1, "leakage-aware plug-in must report more power");
    }
}
