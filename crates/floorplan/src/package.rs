//! Package-area and packaging-carbon models ([`PackageModel`],
//! [`PackagingProfile`]) — the paper's Eq. 12.

use core::hash::Hasher;
use serde::{Deserialize, Serialize};
use tdc_units::{Area, CarbonPerArea, Co2Mass, Fingerprint};

/// Linear empirical package-area model (after Feng et al., "Chiplet
/// Actuary"): `A_package = scale · A_base + offset`, where `A_base` is
///
/// * the **largest die area** for 3D stacks (dies overlap),
/// * the **total die area** for 2.5D assemblies, and
/// * the **die area** for plain 2D parts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PackageModel {
    scale: f64,
    offset: Area,
}

impl Fingerprint for PackageModel {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let PackageModel { scale, offset } = self;
        scale.fingerprint(state);
        offset.fingerprint(state);
    }
}

impl PackageModel {
    /// Server/automotive-class packaging (generous BGA margins —
    /// calibrated so an EPYC-class 712 mm² assembly lands in the
    /// 3 000–3 500 mm² package range).
    #[must_use]
    pub fn server() -> Self {
        Self {
            scale: 4.0,
            offset: Area::from_mm2(500.0),
        }
    }

    /// Mobile-class packaging (tight PoP outlines — Lakefield's 82 mm²
    /// die in a 12 × 12 mm package).
    #[must_use]
    pub fn mobile() -> Self {
        Self {
            scale: 1.7,
            offset: Area::ZERO,
        }
    }

    /// Custom linear model.
    ///
    /// # Errors
    ///
    /// Rejects `scale < 1` (Table 2: `s_package ≥ 1`) and negative or
    /// non-finite offsets.
    pub fn new(scale: f64, offset: Area) -> Result<Self, String> {
        if !(scale.is_finite() && scale >= 1.0) {
            return Err(format!("package scale factor must be ≥ 1, got {scale}"));
        }
        if !(offset.mm2().is_finite() && offset.mm2() >= 0.0) {
            return Err(format!("package offset must be non-negative, got {offset}"));
        }
        Ok(Self { scale, offset })
    }

    /// The multiplicative scale factor `s_package`.
    #[must_use]
    pub fn scale(self) -> f64 {
        self.scale
    }

    /// The additive offset.
    #[must_use]
    pub fn offset(self) -> Area {
        self.offset
    }

    /// Package area for a base silicon area (Eq. 12's
    /// `A^{3D/2.5D}_{package}`).
    #[must_use]
    pub fn package_area(self, base: Area) -> Area {
        base * self.scale + self.offset
    }
}

impl Default for PackageModel {
    fn default() -> Self {
        Self::server()
    }
}

/// The base silicon area Eq. 12 scales into a package outline.
///
/// * `stacked` designs (3D stacks, and trivially a single 2D die)
///   overlap their dies — the package spans the **largest** die.
/// * Side-by-side (2.5D) assemblies span the **total** die area, or a
///   manufactured carrier substrate if that is larger; pass the
///   carrier's area as `carrier_substrate`. An organic MCM laminate
///   *is* the package substrate and must not be passed here — it never
///   inflates the base.
#[must_use]
pub fn package_base_area(
    die_areas: &[Area],
    stacked: bool,
    carrier_substrate: Option<Area>,
) -> Area {
    if stacked {
        die_areas.iter().copied().fold(Area::ZERO, Area::max)
    } else {
        let total: Area = die_areas.iter().copied().sum();
        match carrier_substrate {
            Some(carrier) => total.max(carrier),
            None => total,
        }
    }
}

/// Packaging carbon characterization: emissions per unit package area
/// (`CPA_packaging` of Eq. 12) and the assembly yield from the
/// economic/embodied-energy analysis the paper cites.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PackagingProfile {
    carbon_per_area: CarbonPerArea,
    packaging_yield: f64,
}

impl Default for PackagingProfile {
    fn default() -> Self {
        Self {
            carbon_per_area: CarbonPerArea::from_kg_per_cm2(0.10),
            packaging_yield: 0.99,
        }
    }
}

impl Fingerprint for PackagingProfile {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let PackagingProfile {
            carbon_per_area,
            packaging_yield,
        } = self;
        carbon_per_area.fingerprint(state);
        packaging_yield.fingerprint(state);
    }
}

impl PackagingProfile {
    /// Custom characterization.
    ///
    /// # Errors
    ///
    /// Rejects non-positive carbon-per-area and yields outside `(0, 1]`.
    pub fn new(carbon_per_area: CarbonPerArea, packaging_yield: f64) -> Result<Self, String> {
        if !(carbon_per_area.kg_per_cm2().is_finite() && carbon_per_area.kg_per_cm2() > 0.0) {
            return Err("packaging carbon per area must be positive".to_owned());
        }
        if !(packaging_yield.is_finite() && packaging_yield > 0.0 && packaging_yield <= 1.0) {
            return Err(format!(
                "packaging yield must be in (0, 1], got {packaging_yield}"
            ));
        }
        Ok(Self {
            carbon_per_area,
            packaging_yield,
        })
    }

    /// Packaging carbon per unit package area.
    #[must_use]
    pub fn carbon_per_area(self) -> CarbonPerArea {
        self.carbon_per_area
    }

    /// Packaging/assembly yield.
    #[must_use]
    pub fn packaging_yield(self) -> f64 {
        self.packaging_yield
    }

    /// Packaging carbon for a package of `area`, yield-adjusted:
    /// `CPA · A_package / Y_packaging` (Eq. 12 with the process-yield
    /// correction of §3.2.5).
    #[must_use]
    pub fn packaging_carbon(self, area: Area) -> Co2Mass {
        self.carbon_per_area * area / self.packaging_yield
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_model_evaluates() {
        let m = PackageModel::new(4.0, Area::from_mm2(500.0)).unwrap();
        let a = m.package_area(Area::from_mm2(712.0));
        assert!((a.mm2() - (4.0 * 712.0 + 500.0)).abs() < 1e-9);
        assert_eq!(m.scale(), 4.0);
        assert!((m.offset().mm2() - 500.0).abs() < 1e-12);
    }

    #[test]
    fn epyc_class_package_lands_in_range() {
        let a = PackageModel::server().package_area(Area::from_mm2(712.0));
        assert!((3_000.0..=3_600.0).contains(&a.mm2()), "got {}", a.mm2());
    }

    #[test]
    fn lakefield_class_package_lands_near_144mm2() {
        let a = PackageModel::mobile().package_area(Area::from_mm2(82.0));
        assert!((120.0..=160.0).contains(&a.mm2()), "got {}", a.mm2());
    }

    #[test]
    fn validation() {
        assert!(PackageModel::new(0.5, Area::ZERO).is_err());
        assert!(PackageModel::new(2.0, Area::from_mm2(-1.0)).is_err());
        assert!(PackagingProfile::new(CarbonPerArea::from_kg_per_cm2(0.0), 0.9).is_err());
        assert!(PackagingProfile::new(CarbonPerArea::from_kg_per_cm2(0.1), 1.5).is_err());
    }

    #[test]
    fn base_area_rules_cover_all_families() {
        let dies = [Area::from_mm2(100.0), Area::from_mm2(250.0)];
        // Stacked: largest die.
        assert!((package_base_area(&dies, true, None).mm2() - 250.0).abs() < 1e-12);
        // Side-by-side without carrier: total silicon.
        assert!((package_base_area(&dies, false, None).mm2() - 350.0).abs() < 1e-12);
        // A larger carrier substrate wins; a smaller one does not.
        let big = Some(Area::from_mm2(500.0));
        assert!((package_base_area(&dies, false, big).mm2() - 500.0).abs() < 1e-12);
        let small = Some(Area::from_mm2(10.0));
        assert!((package_base_area(&dies, false, small).mm2() - 350.0).abs() < 1e-12);
    }

    #[test]
    fn packaging_carbon_yield_adjusts() {
        let p = PackagingProfile::new(CarbonPerArea::from_kg_per_cm2(0.1), 0.5).unwrap();
        let c = p.packaging_carbon(Area::from_cm2(10.0));
        // 0.1 kg/cm² × 10 cm² / 0.5 = 2 kg
        assert!((c.kg() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn default_packaging_dominates_acts_fixed_constant() {
        // ACT+ charges a fixed 0.15 kg per package; the area-based model
        // should exceed that for a server package (the paper's §4.1
        // observation: 3.47 kg vs 0.15 kg for EPYC 7452).
        let area = PackageModel::server().package_area(Area::from_mm2(712.0));
        let c = PackagingProfile::default().packaging_carbon(area);
        assert!(c.kg() > 3.0, "got {}", c.kg());
    }
}
