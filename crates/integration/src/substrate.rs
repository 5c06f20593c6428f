//! 2.5D substrate manufacturing characterization ([`SubstrateKind`],
//! [`SubstrateProfile`]) — inputs of the paper's `C^{2.5D}_{int}` model
//! (Eqs. 13–14).

use core::hash::{Hash, Hasher};
use serde::{Deserialize, Serialize};
use tdc_units::{CarbonIntensity, CarbonPerArea, EnergyPerArea, Fingerprint, Length};

/// The manufactured structure that carries 2.5D dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SubstrateKind {
    /// Organic laminate (MCM): not a fabricated wafer product; cheap,
    /// coarse, high-yield.
    OrganicLaminate,
    /// Fan-out redistribution layer (InFO).
    Rdl,
    /// Small silicon bridge embedded in the package (EMIB).
    EmibBridge,
    /// Full-size passive silicon interposer (CoWoS-S class).
    SiliconInterposer,
}

impl core::fmt::Display for SubstrateKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubstrateKind::OrganicLaminate => write!(f, "organic laminate"),
            SubstrateKind::Rdl => write!(f, "RDL"),
            SubstrateKind::EmibBridge => write!(f, "EMIB bridge"),
            SubstrateKind::SiliconInterposer => write!(f, "silicon interposer"),
        }
    }
}

/// Manufacturing characterization of one substrate kind.
///
/// Substrates are modelled "similarly to die carbon footprint"
/// (§3.2.4): a per-area energy term multiplied by the fab grid's carbon
/// intensity plus a direct per-area term, with a negative-binomial
/// yield from the substrate's defect density. The area itself comes
/// from the floorplanner via Eq. 13 (interposer: scaled total die area)
/// or Eq. 14 (RDL/EMIB: scaled adjacency strips), using the scaling
/// factor and die gap stored here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SubstrateProfile {
    kind: SubstrateKind,
    energy_per_area: EnergyPerArea,
    direct_per_area: CarbonPerArea,
    defect_density_per_cm2: f64,
    clustering_alpha: f64,
    scale_factor: f64,
    die_gap: Length,
}

impl Fingerprint for SubstrateProfile {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let SubstrateProfile {
            kind,
            energy_per_area,
            direct_per_area,
            defect_density_per_cm2,
            clustering_alpha,
            scale_factor,
            die_gap,
        } = self;
        kind.hash(state);
        energy_per_area.fingerprint(state);
        direct_per_area.fingerprint(state);
        defect_density_per_cm2.fingerprint(state);
        clustering_alpha.fingerprint(state);
        scale_factor.fingerprint(state);
        die_gap.fingerprint(state);
    }
}

impl SubstrateProfile {
    /// Shipped characterization of `kind`.
    ///
    /// Values are synthetic (no public LCA exists for interposer lines)
    /// but ordered faithfully: silicon interposers are processed like
    /// legacy-node dies (expensive per cm², defect-prone at reticle
    /// sizes — the mechanism behind the paper's finding that
    /// interposer-based 2.5D *increases* embodied carbon), RDL sits in
    /// the middle, organic laminate is cheap, and the EMIB bridge is
    /// silicon but tiny.
    #[must_use]
    pub fn shipped(kind: SubstrateKind) -> Self {
        // (EPA kWh/cm², direct kg/cm², D0 /cm², α, scale, gap mm)
        let (epa, direct, d0, alpha, scale, gap_mm) = match kind {
            SubstrateKind::OrganicLaminate => (0.02, 0.015, 0.005, 3.0, 1.0, 1.0),
            SubstrateKind::Rdl => (0.12, 0.060, 0.050, 3.0, 1.2, 0.8),
            SubstrateKind::EmibBridge => (0.30, 0.150, 0.050, 3.0, 1.0, 0.5),
            SubstrateKind::SiliconInterposer => (0.45, 0.200, 0.040, 3.0, 1.2, 0.5),
        };
        Self {
            kind,
            energy_per_area: EnergyPerArea::from_kwh_per_cm2(epa),
            direct_per_area: CarbonPerArea::from_kg_per_cm2(direct),
            defect_density_per_cm2: d0,
            clustering_alpha: alpha,
            scale_factor: scale,
            die_gap: Length::from_mm(gap_mm),
        }
    }

    /// The substrate kind.
    #[must_use]
    pub fn kind(self) -> SubstrateKind {
        self.kind
    }

    /// Process energy per unit substrate area.
    #[must_use]
    pub fn energy_per_area(self) -> EnergyPerArea {
        self.energy_per_area
    }

    /// Direct (gas + material) carbon per unit substrate area.
    #[must_use]
    pub fn direct_per_area(self) -> CarbonPerArea {
        self.direct_per_area
    }

    /// Substrate defect density (Eq. 15 input).
    #[must_use]
    pub fn defect_density_per_cm2(self) -> f64 {
        self.defect_density_per_cm2
    }

    /// Negative-binomial clustering parameter.
    #[must_use]
    pub fn clustering_alpha(self) -> f64 {
        self.clustering_alpha
    }

    /// Area scaling factor (`s_{RDL/EMIB/Si_int}` ≥ 1 of Eqs. 13–14).
    #[must_use]
    pub fn scale_factor(self) -> f64 {
        self.scale_factor
    }

    /// Gap kept between adjacent dies (`D_gap`, Table 2: 0.5–2 mm).
    #[must_use]
    pub fn die_gap(self) -> Length {
        self.die_gap
    }

    /// Returns a copy with a different scale factor.
    ///
    /// # Panics
    ///
    /// Panics if `scale < 1` (Table 2 requires `s ≥ 1`).
    #[must_use]
    pub fn with_scale_factor(mut self, scale: f64) -> Self {
        assert!(scale >= 1.0, "substrate scale factor must be ≥ 1");
        self.scale_factor = scale;
        self
    }

    /// Returns a copy with a different die gap.
    ///
    /// # Panics
    ///
    /// Panics if the gap is negative or not finite.
    #[must_use]
    pub fn with_die_gap(mut self, gap: Length) -> Self {
        assert!(
            gap.mm().is_finite() && gap.mm() >= 0.0,
            "die gap must be non-negative"
        );
        self.die_gap = gap;
        self
    }

    /// Combined manufacturing carbon per unit area under fab grid
    /// intensity `ci`: `CI · EPA + direct` (the substrate analogue of
    /// Eq. 6's integrand).
    #[must_use]
    pub fn carbon_per_area(self, ci: CarbonIntensity) -> CarbonPerArea {
        ci * self.energy_per_area + self.direct_per_area
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [SubstrateKind; 4] = [
        SubstrateKind::OrganicLaminate,
        SubstrateKind::Rdl,
        SubstrateKind::EmibBridge,
        SubstrateKind::SiliconInterposer,
    ];

    #[test]
    fn cost_ordering_laminate_cheapest_silicon_dearest() {
        let ci = CarbonIntensity::from_g_per_kwh(509.0);
        let laminate =
            SubstrateProfile::shipped(SubstrateKind::OrganicLaminate).carbon_per_area(ci);
        let rdl = SubstrateProfile::shipped(SubstrateKind::Rdl).carbon_per_area(ci);
        let si = SubstrateProfile::shipped(SubstrateKind::SiliconInterposer).carbon_per_area(ci);
        assert!(laminate < rdl);
        assert!(rdl < si);
    }

    #[test]
    fn gaps_within_table2_range() {
        for kind in ALL {
            let gap = SubstrateProfile::shipped(kind).die_gap().mm();
            assert!((0.5..=2.0).contains(&gap), "{kind}: {gap}");
        }
    }

    #[test]
    fn scale_factors_at_least_one() {
        for kind in ALL {
            assert!(SubstrateProfile::shipped(kind).scale_factor() >= 1.0);
        }
    }

    #[test]
    fn carbon_per_area_formula() {
        let p = SubstrateProfile::shipped(SubstrateKind::SiliconInterposer);
        let ci = CarbonIntensity::from_g_per_kwh(400.0);
        let expect = 0.4 * 0.45 + 0.20;
        assert!((p.carbon_per_area(ci).kg_per_cm2() - expect).abs() < 1e-12);
    }

    #[test]
    fn with_builders_validate() {
        let p = SubstrateProfile::shipped(SubstrateKind::Rdl);
        assert_eq!(p.with_scale_factor(3.0).scale_factor(), 3.0);
        assert_eq!(p.with_die_gap(Length::from_mm(2.0)).die_gap().mm(), 2.0);
        assert!(std::panic::catch_unwind(|| p.with_scale_factor(0.5)).is_err());
        assert!(std::panic::catch_unwind(|| p.with_die_gap(Length::from_mm(-1.0))).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(
            SubstrateKind::SiliconInterposer.to_string(),
            "silicon interposer"
        );
        assert_eq!(SubstrateKind::Rdl.to_string(), "RDL");
    }
}
