//! Hardware design description ([`DieSpec`], [`ChipDesign`]).

use crate::error::ModelError;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};
use tdc_integration::{
    IntegrationCatalog, IntegrationFamily, IntegrationTechnology, StackOrientation,
};
use tdc_technode::ProcessNode;
use tdc_units::{Area, Efficiency, Fingerprint, ShortFloat};
use tdc_wirelength::RentParameters;
use tdc_yield::StackingFlow;

/// Description of one die (or tier): the per-die half of the paper's
/// "hardware design" input block (Fig. 3).
///
/// Either a gate count or an explicit area must be given; everything
/// else (BEOL layer count, efficiency, wiring statistics) is optional
/// and falls back to the model's estimators/surveys, exactly as the
/// paper's Table 2 marks those inputs "optional".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DieSpec {
    name: String,
    node: ProcessNode,
    gate_count: Option<f64>,
    area_override: Option<Area>,
    beol_override: Option<u32>,
    efficiency: Option<Efficiency>,
    rent: Option<RentParameters>,
    compute_share: Option<f64>,
}

impl Fingerprint for DieSpec {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let DieSpec {
            name,
            node,
            gate_count,
            area_override,
            beol_override,
            efficiency,
            rent,
            compute_share,
        } = self;
        name.hash(state);
        node.hash(state);
        gate_count.fingerprint(state);
        area_override.fingerprint(state);
        beol_override.fingerprint(state);
        efficiency.fingerprint(state);
        rent.fingerprint(state);
        compute_share.fingerprint(state);
    }
}

impl DieSpec {
    /// Starts building a die description.
    #[must_use]
    pub fn builder(name: impl Into<String>, node: ProcessNode) -> DieSpecBuilder {
        DieSpecBuilder {
            spec: DieSpec {
                name: name.into(),
                node,
                gate_count: None,
                area_override: None,
                beol_override: None,
                efficiency: None,
                rent: None,
                compute_share: None,
            },
        }
    }

    /// The die's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The die's process node.
    #[must_use]
    pub fn node(&self) -> ProcessNode {
        self.node
    }

    /// The user-provided gate count, if any.
    #[must_use]
    pub fn gate_count(&self) -> Option<f64> {
        self.gate_count
    }

    /// The user-provided total area, if any.
    #[must_use]
    pub fn area_override(&self) -> Option<Area> {
        self.area_override
    }

    /// The user-provided BEOL layer count, if any.
    #[must_use]
    pub fn beol_override(&self) -> Option<u32> {
        self.beol_override
    }

    /// The measured energy efficiency, if any (otherwise the surveyed
    /// fallback applies).
    #[must_use]
    pub fn efficiency(&self) -> Option<Efficiency> {
        self.efficiency
    }

    /// Die-specific Rent parameters, if any.
    #[must_use]
    pub fn rent(&self) -> Option<RentParameters> {
        self.rent
    }

    /// Explicit share of the application throughput this die delivers,
    /// if any (otherwise gate-count-proportional).
    #[must_use]
    pub fn compute_share(&self) -> Option<f64> {
        self.compute_share
    }
}

/// Builder for [`DieSpec`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct DieSpecBuilder {
    spec: DieSpec,
}

impl DieSpecBuilder {
    /// Sets the logic gate count `N_g` (Eq. 8 input).
    #[must_use]
    pub fn gate_count(mut self, gates: f64) -> Self {
        self.spec.gate_count = Some(gates);
        self
    }

    /// Sets an explicit total die area (overrides Eq. 7).
    #[must_use]
    pub fn area(mut self, area: Area) -> Self {
        self.spec.area_override = Some(area);
        self
    }

    /// Sets an explicit BEOL layer count (overrides Eq. 10).
    #[must_use]
    pub fn beol_layers(mut self, layers: u32) -> Self {
        self.spec.beol_override = Some(layers);
        self
    }

    /// Sets the measured energy efficiency `Eff_die`.
    #[must_use]
    pub fn efficiency(mut self, efficiency: Efficiency) -> Self {
        self.spec.efficiency = Some(efficiency);
        self
    }

    /// Sets die-specific Rent parameters (e.g. a memory die's lower
    /// exponent).
    #[must_use]
    pub fn rent(mut self, rent: RentParameters) -> Self {
        self.spec.rent = Some(rent);
        self
    }

    /// Sets this die's share of the application throughput (0 for a
    /// pure memory/IO die).
    #[must_use]
    pub fn compute_share(mut self, share: f64) -> Self {
        self.spec.compute_share = Some(share);
        self
    }

    /// Finalizes the spec.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDesign`] when neither gate count
    /// nor area is given, or any given value is non-finite /
    /// non-positive (share may be zero).
    pub fn build(self) -> Result<DieSpec, ModelError> {
        let s = &self.spec;
        if s.gate_count.is_none() && s.area_override.is_none() {
            return Err(ModelError::InvalidDesign(format!(
                "die `{}` needs a gate count or an explicit area",
                s.name
            )));
        }
        if let Some(g) = s.gate_count {
            // Below one gate the die area can underflow to zero.
            if !(g.is_finite() && g >= 1.0) {
                return Err(ModelError::InvalidDesign(format!(
                    "die `{}`: gate count must be finite and at least 1, got {}",
                    s.name,
                    ShortFloat(g)
                )));
            }
        }
        if let Some(a) = s.area_override {
            if !(a.mm2().is_finite() && a.mm2() > 0.0) {
                return Err(ModelError::InvalidDesign(format!(
                    "die `{}`: area must be finite and positive, got {} mm²",
                    s.name,
                    ShortFloat(a.mm2())
                )));
            }
        }
        if let Some(l) = s.beol_override {
            if l == 0 {
                return Err(ModelError::InvalidDesign(format!(
                    "die `{}`: BEOL layer count must be at least 1",
                    s.name
                )));
            }
        }
        if let Some(e) = s.efficiency {
            if !(e.tops_per_watt().is_finite() && e.tops_per_watt() > 0.0) {
                return Err(ModelError::InvalidDesign(format!(
                    "die `{}`: efficiency must be finite and positive",
                    s.name
                )));
            }
        }
        if let Some(share) = s.compute_share {
            if !(share.is_finite() && share >= 0.0) {
                return Err(ModelError::InvalidDesign(format!(
                    "die `{}`: compute share must be finite and non-negative, got {}",
                    s.name,
                    ShortFloat(share)
                )));
            }
        }
        Ok(self.spec)
    }
}

/// A complete chip design: the paper's three shapes of hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChipDesign {
    /// A plain monolithic 2D IC (the baseline of every comparison).
    Monolithic2d {
        /// The single die.
        die: DieSpec,
    },
    /// A vertical 3D stack.
    Stack3d {
        /// The tiers, base die first.
        dies: Vec<DieSpec>,
        /// The 3D integration technology.
        tech: IntegrationTechnology,
        /// Face-to-face or face-to-back mating.
        orientation: StackOrientation,
        /// D2W or W2W (None for monolithic 3D, which has no bonding).
        flow: Option<StackingFlow>,
    },
    /// A planar 2.5D multi-die assembly.
    Assembly25d {
        /// The dies placed on the substrate.
        dies: Vec<DieSpec>,
        /// The 2.5D integration technology.
        tech: IntegrationTechnology,
    },
}

impl ChipDesign {
    /// Wraps a single die as a 2D design.
    #[must_use]
    pub fn monolithic_2d(die: DieSpec) -> Self {
        ChipDesign::Monolithic2d { die }
    }

    /// Builds a validated 3D stack.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDesign`] when `tech` is not a 3D
    /// technology or the (orientation, flow, tier-count) combination is
    /// outside the technology's Table 1 envelope.
    pub fn stack_3d(
        dies: Vec<DieSpec>,
        tech: IntegrationTechnology,
        orientation: StackOrientation,
        flow: Option<StackingFlow>,
    ) -> Result<Self, ModelError> {
        if tech.family() != IntegrationFamily::ThreeD {
            return Err(ModelError::InvalidDesign(format!(
                "{tech} is not a 3D integration technology"
            )));
        }
        let tiers = u32::try_from(dies.len())
            .map_err(|_| ModelError::InvalidDesign("too many tiers".to_owned()))?;
        IntegrationCatalog::capabilities(tech)
            .validate_stack(orientation, flow, tiers)
            .map_err(ModelError::InvalidDesign)?;
        Ok(ChipDesign::Stack3d {
            dies,
            tech,
            orientation,
            flow,
        })
    }

    /// Builds a validated 2.5D assembly.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidDesign`] when `tech` is not a 2.5D
    /// technology or fewer than two dies are given.
    pub fn assembly_25d(
        dies: Vec<DieSpec>,
        tech: IntegrationTechnology,
    ) -> Result<Self, ModelError> {
        if tech.family() != IntegrationFamily::TwoPointFiveD {
            return Err(ModelError::InvalidDesign(format!(
                "{tech} is not a 2.5D integration technology"
            )));
        }
        if dies.len() < 2 {
            return Err(ModelError::InvalidDesign(
                "a 2.5D assembly needs at least two dies".to_owned(),
            ));
        }
        Ok(ChipDesign::Assembly25d { dies, tech })
    }

    /// The dies of the design, base/leftmost first.
    #[must_use]
    pub fn dies(&self) -> &[DieSpec] {
        match self {
            ChipDesign::Monolithic2d { die } => core::slice::from_ref(die),
            ChipDesign::Stack3d { dies, .. } | ChipDesign::Assembly25d { dies, .. } => dies,
        }
    }

    /// The integration technology, if any (2D designs have none).
    #[must_use]
    pub fn technology(&self) -> Option<IntegrationTechnology> {
        match self {
            ChipDesign::Monolithic2d { .. } => None,
            ChipDesign::Stack3d { tech, .. } | ChipDesign::Assembly25d { tech, .. } => Some(*tech),
        }
    }

    /// A short human-readable description.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            ChipDesign::Monolithic2d { die } => {
                format!("2D monolithic ({} @ {})", die.name(), die.node())
            }
            ChipDesign::Stack3d {
                dies,
                tech,
                orientation,
                flow,
            } => {
                let flow_str = flow.map_or("sequential".to_owned(), |f| f.to_string());
                format!(
                    "{}-die {} stack ({orientation}, {flow_str})",
                    dies.len(),
                    tech.label()
                )
            }
            ChipDesign::Assembly25d { dies, tech } => {
                format!("{}-die {} assembly", dies.len(), tech.label())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die(name: &str) -> DieSpec {
        DieSpec::builder(name, ProcessNode::N7)
            .gate_count(1.0e9)
            .build()
            .unwrap()
    }

    #[test]
    fn die_spec_requires_gates_or_area() {
        let err = DieSpec::builder("x", ProcessNode::N7).build().unwrap_err();
        assert!(err.to_string().contains("gate count or an explicit area"));
        assert!(DieSpec::builder("x", ProcessNode::N7)
            .area(Area::from_mm2(100.0))
            .build()
            .is_ok());
    }

    #[test]
    fn die_spec_validates_values() {
        assert!(DieSpec::builder("x", ProcessNode::N7)
            .gate_count(-1.0)
            .build()
            .is_err());
        assert!(DieSpec::builder("x", ProcessNode::N7)
            .gate_count(1.0e9)
            .beol_layers(0)
            .build()
            .is_err());
        assert!(DieSpec::builder("x", ProcessNode::N7)
            .gate_count(1.0e9)
            .efficiency(Efficiency::ZERO)
            .build()
            .is_err());
        assert!(DieSpec::builder("x", ProcessNode::N7)
            .gate_count(1.0e9)
            .compute_share(-0.5)
            .build()
            .is_err());
        // Zero share is fine (memory/IO die).
        assert!(DieSpec::builder("x", ProcessNode::N7)
            .gate_count(1.0e9)
            .compute_share(0.0)
            .build()
            .is_ok());
    }

    #[test]
    fn stack_3d_enforces_family_and_envelope() {
        // 2.5D tech in a 3D constructor.
        let err = ChipDesign::stack_3d(
            vec![die("a"), die("b")],
            IntegrationTechnology::Emib,
            StackOrientation::FaceToFace,
            Some(StackingFlow::DieToWafer),
        )
        .unwrap_err();
        assert!(err.to_string().contains("not a 3D"));

        // F2F limited to two tiers.
        let err = ChipDesign::stack_3d(
            vec![die("a"), die("b"), die("c")],
            IntegrationTechnology::MicroBump3d,
            StackOrientation::FaceToFace,
            Some(StackingFlow::DieToWafer),
        )
        .unwrap_err();
        assert!(err.to_string().contains("at most 2"));

        // M3D takes no flow.
        assert!(ChipDesign::stack_3d(
            vec![die("a"), die("b")],
            IntegrationTechnology::Monolithic3d,
            StackOrientation::FaceToBack,
            Some(StackingFlow::DieToWafer),
        )
        .is_err());
        assert!(ChipDesign::stack_3d(
            vec![die("a"), die("b")],
            IntegrationTechnology::Monolithic3d,
            StackOrientation::FaceToBack,
            None,
        )
        .is_ok());
    }

    #[test]
    fn assembly_25d_enforces_family_and_count() {
        let err = ChipDesign::assembly_25d(
            vec![die("a"), die("b")],
            IntegrationTechnology::HybridBonding3d,
        )
        .unwrap_err();
        assert!(err.to_string().contains("not a 2.5D"));
        let err =
            ChipDesign::assembly_25d(vec![die("a")], IntegrationTechnology::Emib).unwrap_err();
        assert!(err.to_string().contains("two dies"));
        assert!(
            ChipDesign::assembly_25d(vec![die("a"), die("b")], IntegrationTechnology::Emib).is_ok()
        );
    }

    #[test]
    fn accessors_and_describe() {
        let d2 = ChipDesign::monolithic_2d(die("solo"));
        assert_eq!(d2.dies().len(), 1);
        assert_eq!(d2.technology(), None);
        assert!(d2.describe().contains("2D"));

        let d3 = ChipDesign::stack_3d(
            vec![die("a"), die("b")],
            IntegrationTechnology::HybridBonding3d,
            StackOrientation::FaceToFace,
            Some(StackingFlow::DieToWafer),
        )
        .unwrap();
        assert_eq!(d3.dies().len(), 2);
        assert_eq!(
            d3.technology(),
            Some(IntegrationTechnology::HybridBonding3d)
        );
        assert!(d3.describe().contains("Hybrid"));
        assert!(d3.describe().contains("F2F"));

        let d25 = ChipDesign::assembly_25d(
            vec![die("a"), die("b")],
            IntegrationTechnology::SiliconInterposer,
        )
        .unwrap();
        assert!(d25.describe().contains("Si_int"));
    }
}
