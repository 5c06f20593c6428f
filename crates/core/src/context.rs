//! The model's configuration surface ([`ModelContext`]).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use tdc_floorplan::{PackageModel, PackagingProfile};
use tdc_integration::IntegrationCatalog;
use tdc_power::{BandwidthConstraint, PowerModelChoice};
use tdc_technode::{GridRegion, NodeParameters, TechnologyDb, Wafer};
use tdc_units::{CarbonIntensity, Fingerprint};
use tdc_wirelength::BeolEstimator;
use tdc_yield::DieYieldModel;

/// Which die-yield formula the model uses (Eq. 15 by default; Poisson
/// and Murphy for ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DieYieldChoice {
    /// The paper's negative binomial with the *node's* clustering α.
    #[default]
    PaperNegativeBinomial,
    /// Poisson yield (no clustering).
    Poisson,
    /// Murphy's yield.
    Murphy,
}

impl DieYieldChoice {
    /// Resolves the choice into a concrete [`DieYieldModel`] for a node.
    #[must_use]
    pub fn model_for(self, node: &NodeParameters) -> DieYieldModel {
        match self {
            DieYieldChoice::PaperNegativeBinomial => DieYieldModel::NegativeBinomial {
                alpha: node.clustering_alpha(),
            },
            DieYieldChoice::Poisson => DieYieldModel::Poisson,
            DieYieldChoice::Murphy => DieYieldModel::Murphy,
        }
    }
}

/// Everything the model needs besides the design and the workload:
/// technology databases, locations, wafer, estimators, and the knobs
/// that the ablation studies turn.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelContext {
    tech_db: TechnologyDb,
    catalog: IntegrationCatalog,
    wafer: Wafer,
    fab_region: GridRegion,
    use_region: GridRegion,
    die_yield: DieYieldChoice,
    beol: BeolEstimator,
    package: PackageModel,
    packaging: PackagingProfile,
    bandwidth: BandwidthConstraint,
    beol_carbon_fraction: f64,
    tsv_keepout: f64,
    m3d_sequential_fraction: f64,
    beol_adjustment_enabled: bool,
    bandwidth_constraint_enabled: bool,
    power_model: PowerModelChoice,
}

impl Default for ModelContext {
    fn default() -> Self {
        ModelContext::builder().build()
    }
}

impl ModelContext {
    /// Starts building a context with the shipped defaults.
    #[must_use]
    pub fn builder() -> ModelContextBuilder {
        ModelContextBuilder {
            ctx: ModelContext {
                tech_db: TechnologyDb::default(),
                catalog: IntegrationCatalog::default(),
                wafer: Wafer::W300,
                fab_region: GridRegion::Taiwan,
                use_region: GridRegion::WorldAverage,
                die_yield: DieYieldChoice::default(),
                beol: BeolEstimator::default(),
                package: PackageModel::server(),
                packaging: PackagingProfile::default(),
                bandwidth: BandwidthConstraint::default(),
                beol_carbon_fraction: 0.45,
                tsv_keepout: 2.0,
                m3d_sequential_fraction: 0.35,
                beol_adjustment_enabled: true,
                bandwidth_constraint_enabled: true,
                power_model: PowerModelChoice::default(),
            },
        }
    }

    /// The technology-node database.
    #[must_use]
    pub fn tech_db(&self) -> &TechnologyDb {
        &self.tech_db
    }

    /// The integration-technology catalog.
    #[must_use]
    pub fn catalog(&self) -> &IntegrationCatalog {
        &self.catalog
    }

    /// The production wafer.
    #[must_use]
    pub fn wafer(&self) -> Wafer {
        self.wafer
    }

    /// Manufacturing grid region (sets `CI_emb`).
    #[must_use]
    pub fn fab_region(&self) -> GridRegion {
        self.fab_region
    }

    /// Use-phase grid region (sets `CI_use`).
    #[must_use]
    pub fn use_region(&self) -> GridRegion {
        self.use_region
    }

    /// Manufacturing grid carbon intensity `CI_emb`.
    #[must_use]
    pub fn ci_fab(&self) -> CarbonIntensity {
        self.fab_region.carbon_intensity()
    }

    /// Use-phase grid carbon intensity `CI_use`.
    #[must_use]
    pub fn ci_use(&self) -> CarbonIntensity {
        self.use_region.carbon_intensity()
    }

    /// The die-yield model choice.
    #[must_use]
    pub fn die_yield(&self) -> DieYieldChoice {
        self.die_yield
    }

    /// The BEOL layer estimator.
    #[must_use]
    pub fn beol(&self) -> &BeolEstimator {
        &self.beol
    }

    /// The package-area model.
    #[must_use]
    pub fn package(&self) -> PackageModel {
        self.package
    }

    /// The packaging carbon characterization.
    #[must_use]
    pub fn packaging(&self) -> PackagingProfile {
        self.packaging
    }

    /// The bandwidth/performance constraint.
    #[must_use]
    pub fn bandwidth(&self) -> BandwidthConstraint {
        self.bandwidth
    }

    /// Share of the per-area die footprint attributable to BEOL
    /// processing at the node's full metal stack (the lever behind the
    /// paper's "fewer BEOL layers → less carbon" adjustment).
    #[must_use]
    pub fn beol_carbon_fraction(&self) -> f64 {
        self.beol_carbon_fraction
    }

    /// TSV keep-out multiplier (occupied area = `(keepout · D_TSV)²`).
    #[must_use]
    pub fn tsv_keepout(&self) -> f64 {
        self.tsv_keepout
    }

    /// Cost of processing one *additional* monolithic-3D tier, as a
    /// fraction of a full wafer pass's process terms (energy + gases).
    /// M3D tiers share a single wafer — the raw-material term is paid
    /// once — which is the mechanism behind M3D's leading embodied
    /// savings in the paper's Table 5.
    #[must_use]
    pub fn m3d_sequential_fraction(&self) -> f64 {
        self.m3d_sequential_fraction
    }

    /// Whether the BEOL-dependent footprint adjustment is applied
    /// (ablation knob; the paper's comparison against ACT+ hinges on
    /// it).
    #[must_use]
    pub fn beol_adjustment_enabled(&self) -> bool {
        self.beol_adjustment_enabled
    }

    /// Whether the §3.4 bandwidth constraint is applied (ablation
    /// knob).
    #[must_use]
    pub fn bandwidth_constraint_enabled(&self) -> bool {
        self.bandwidth_constraint_enabled
    }

    /// Which operational power plug-in [`crate::CarbonModel::new`]
    /// instantiates for this context.
    #[must_use]
    pub fn power_model(&self) -> PowerModelChoice {
        self.power_model
    }

    /// Re-opens this context as a builder (for perturbation studies).
    #[must_use]
    pub fn to_builder(&self) -> ModelContextBuilder {
        ModelContextBuilder { ctx: self.clone() }
    }

    /// The bit fingerprints of the context slices the pipeline stages
    /// read, one hash per slice (see [`SliceHashes`]).
    ///
    /// Each staged-pipeline artifact is a pure function of the design
    /// plus a *slice* of this context; the sweep cache keys each stage
    /// by exactly the slices it (and its upstream stages) read. The
    /// slices are deliberately conservative — a field may appear in a
    /// broader slice than strictly necessary (over-invalidation is
    /// merely slow) — but an input a stage reads MUST appear in its
    /// slice (under-invalidation would serve stale artifacts). The
    /// context is destructured exhaustively, so a new field does not
    /// compile until it is assigned a slice.
    pub(crate) fn slice_hashes(&self) -> SliceHashes {
        let ModelContext {
            tech_db,
            catalog,
            wafer,
            fab_region,
            use_region,
            die_yield,
            beol,
            package,
            packaging,
            bandwidth,
            beol_carbon_fraction,
            tsv_keepout,
            m3d_sequential_fraction,
            beol_adjustment_enabled,
            bandwidth_constraint_enabled,
            // The operational tag hashes the instantiated plug-in's own
            // fingerprint instead, which also covers a model swapped in
            // by `CarbonModel::with_power_model`.
            power_model: _,
        } = self;
        let mut geometry = DefaultHasher::new();
        tech_db.fingerprint(&mut geometry);
        beol.fingerprint(&mut geometry);
        tsv_keepout.fingerprint(&mut geometry);
        catalog.fingerprint(&mut geometry);
        package.fingerprint(&mut geometry);
        let mut yields = DefaultHasher::new();
        die_yield.hash(&mut yields);
        let mut fab = DefaultHasher::new();
        fab_region.hash(&mut fab);
        wafer.fingerprint(&mut fab);
        beol_carbon_fraction.fingerprint(&mut fab);
        beol_adjustment_enabled.fingerprint(&mut fab);
        m3d_sequential_fraction.fingerprint(&mut fab);
        packaging.fingerprint(&mut fab);
        let mut use_phase = DefaultHasher::new();
        use_region.hash(&mut use_phase);
        bandwidth.fingerprint(&mut use_phase);
        bandwidth_constraint_enabled.fingerprint(&mut use_phase);
        SliceHashes {
            geometry: geometry.finish(),
            yields: yields.finish(),
            fab: fab.finish(),
            use_phase: use_phase.finish(),
        }
    }
}

/// One hash per context slice a pipeline stage reads (see
/// [`ModelContext::slice_hashes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SliceHashes {
    /// Inputs of the physical (geometry) stage: technology database,
    /// BEOL estimator, TSV keep-out, integration catalog, and package
    /// model. Grid regions, the wafer, yield choices, and the workload
    /// are deliberately absent.
    pub(crate) geometry: u64,
    /// Additional inputs of the yield stage beyond the geometry slice:
    /// the die-yield model choice (defect densities and bonding step
    /// yields already live in the geometry slice's database/catalog).
    pub(crate) yields: u64,
    /// Additional inputs of the embodied stage: the fab grid, the
    /// production wafer, the BEOL carbon knobs, the M3D sequential
    /// fraction, and the packaging characterization.
    pub(crate) fab: u64,
    /// Additional inputs of the operational stage: the use-phase grid
    /// and the bandwidth constraint.
    pub(crate) use_phase: u64,
}

/// Builder for [`ModelContext`].
#[derive(Debug, Clone)]
pub struct ModelContextBuilder {
    ctx: ModelContext,
}

impl ModelContextBuilder {
    /// Replaces the technology database.
    #[must_use]
    pub fn tech_db(mut self, db: TechnologyDb) -> Self {
        self.ctx.tech_db = db;
        self
    }

    /// Replaces the integration catalog.
    #[must_use]
    pub fn catalog(mut self, catalog: IntegrationCatalog) -> Self {
        self.ctx.catalog = catalog;
        self
    }

    /// Sets the production wafer.
    #[must_use]
    pub fn wafer(mut self, wafer: Wafer) -> Self {
        self.ctx.wafer = wafer;
        self
    }

    /// Sets the manufacturing grid region.
    #[must_use]
    pub fn fab_region(mut self, region: GridRegion) -> Self {
        self.ctx.fab_region = region;
        self
    }

    /// Sets the use-phase grid region.
    #[must_use]
    pub fn use_region(mut self, region: GridRegion) -> Self {
        self.ctx.use_region = region;
        self
    }

    /// Sets the die-yield model.
    #[must_use]
    pub fn die_yield(mut self, choice: DieYieldChoice) -> Self {
        self.ctx.die_yield = choice;
        self
    }

    /// Replaces the BEOL estimator.
    #[must_use]
    pub fn beol(mut self, beol: BeolEstimator) -> Self {
        self.ctx.beol = beol;
        self
    }

    /// Replaces the package-area model.
    #[must_use]
    pub fn package(mut self, package: PackageModel) -> Self {
        self.ctx.package = package;
        self
    }

    /// Replaces the packaging carbon characterization.
    #[must_use]
    pub fn packaging(mut self, packaging: PackagingProfile) -> Self {
        self.ctx.packaging = packaging;
        self
    }

    /// Replaces the bandwidth constraint.
    #[must_use]
    pub fn bandwidth(mut self, constraint: BandwidthConstraint) -> Self {
        self.ctx.bandwidth = constraint;
        self
    }

    /// Sets the BEOL carbon fraction (clamped to `[0, 1]`).
    #[must_use]
    pub fn beol_carbon_fraction(mut self, fraction: f64) -> Self {
        self.ctx.beol_carbon_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the TSV keep-out multiplier (clamped to `≥ 1`).
    #[must_use]
    pub fn tsv_keepout(mut self, keepout: f64) -> Self {
        self.ctx.tsv_keepout = keepout.max(1.0);
        self
    }

    /// Sets the M3D sequential-tier process fraction (clamped to
    /// `[0, 1]`).
    #[must_use]
    pub fn m3d_sequential_fraction(mut self, fraction: f64) -> Self {
        self.ctx.m3d_sequential_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Enables/disables the BEOL footprint adjustment.
    #[must_use]
    pub fn beol_adjustment(mut self, enabled: bool) -> Self {
        self.ctx.beol_adjustment_enabled = enabled;
        self
    }

    /// Enables/disables the bandwidth constraint.
    #[must_use]
    pub fn bandwidth_constraint(mut self, enabled: bool) -> Self {
        self.ctx.bandwidth_constraint_enabled = enabled;
        self
    }

    /// Selects the operational power plug-in.
    #[must_use]
    pub fn power_model(mut self, choice: PowerModelChoice) -> Self {
        self.ctx.power_model = choice;
        self
    }

    /// Finalizes the context.
    #[must_use]
    pub fn build(self) -> ModelContext {
        self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_technode::ProcessNode;

    #[test]
    fn defaults_are_sane() {
        let ctx = ModelContext::default();
        assert_eq!(ctx.fab_region(), GridRegion::Taiwan);
        assert_eq!(ctx.use_region(), GridRegion::WorldAverage);
        assert_eq!(ctx.wafer(), Wafer::W300);
        assert!(ctx.beol_adjustment_enabled());
        assert!(ctx.bandwidth_constraint_enabled());
        assert!((ctx.beol_carbon_fraction() - 0.45).abs() < 1e-12);
        assert_eq!(ctx.power_model(), PowerModelChoice::Surveyed { year: None });
        assert!((ctx.ci_fab().g_per_kwh() - 509.0).abs() < 1e-9);
        assert!((ctx.ci_use().g_per_kwh() - 475.0).abs() < 1e-9);
    }

    #[test]
    fn builder_overrides() {
        let ctx = ModelContext::builder()
            .fab_region(GridRegion::Renewable)
            .use_region(GridRegion::France)
            .wafer(Wafer::W200)
            .die_yield(DieYieldChoice::Poisson)
            .beol_carbon_fraction(2.0) // clamps to 1
            .tsv_keepout(0.5) // clamps to 1
            .beol_adjustment(false)
            .bandwidth_constraint(false)
            .build();
        assert_eq!(ctx.fab_region(), GridRegion::Renewable);
        assert_eq!(ctx.use_region(), GridRegion::France);
        assert_eq!(ctx.wafer(), Wafer::W200);
        assert_eq!(ctx.die_yield(), DieYieldChoice::Poisson);
        assert_eq!(ctx.beol_carbon_fraction(), 1.0);
        assert_eq!(ctx.tsv_keepout(), 1.0);
        assert!(!ctx.beol_adjustment_enabled());
        assert!(!ctx.bandwidth_constraint_enabled());
    }

    #[test]
    fn yield_choice_resolves_against_node() {
        let db = TechnologyDb::default();
        let n7 = db.node(ProcessNode::N7);
        match DieYieldChoice::PaperNegativeBinomial.model_for(n7) {
            DieYieldModel::NegativeBinomial { alpha } => {
                assert_eq!(alpha, n7.clustering_alpha());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            DieYieldChoice::Poisson.model_for(n7),
            DieYieldModel::Poisson
        );
        assert_eq!(DieYieldChoice::Murphy.model_for(n7), DieYieldModel::Murphy);
    }
}
