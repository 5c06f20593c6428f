//! Wafer geometry ([`Wafer`]).

use serde::{Deserialize, Serialize};
use tdc_units::{Area, Fingerprint, Length};

/// A silicon wafer of a given diameter.
///
/// The paper's Table 2 bounds wafer area to 31 415.93 – 159 043.13 mm²,
/// i.e. exactly the 200 mm and 450 mm standards; 300 mm is today's
/// production default and the model's default too.
///
/// ```
/// use tdc_units::Length;
/// use tdc_technode::Wafer;
///
/// let wafer = Wafer::W300;
/// assert_eq!(wafer.diameter(), Length::from_mm(300.0));
/// assert!((wafer.area().mm2() - 70_685.8).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Wafer {
    diameter: Length,
}

impl Fingerprint for Wafer {
    fn fingerprint<H: core::hash::Hasher>(&self, state: &mut H) {
        let Wafer { diameter } = self;
        diameter.fingerprint(state);
    }
}

impl Wafer {
    /// 200 mm ("8-inch") wafer.
    pub const W200: Self = Self {
        diameter: Length::from_mm(200.0),
    };

    /// 300 mm ("12-inch") wafer — the industry workhorse and default.
    pub const W300: Self = Self {
        diameter: Length::from_mm(300.0),
    };

    /// 450 mm wafer (never mass-produced; upper bound of Table 2).
    pub const W450: Self = Self {
        diameter: Length::from_mm(450.0),
    };

    /// A wafer with a custom diameter.
    ///
    /// # Panics
    ///
    /// Panics if `diameter` is not finite and positive.
    #[must_use]
    pub fn with_diameter(diameter: Length) -> Self {
        assert!(
            diameter.mm().is_finite() && diameter.mm() > 0.0,
            "wafer diameter must be finite and positive, got {diameter}"
        );
        Self { diameter }
    }

    /// Wafer diameter.
    #[must_use]
    pub fn diameter(self) -> Length {
        self.diameter
    }

    /// Wafer surface area `π·(d/2)²` — the `A_wafer` of Eq. (5)/(6).
    #[must_use]
    pub fn area(self) -> Area {
        Area::circle_from_diameter(self.diameter)
    }

    /// Gross dies per wafer for dies of area `die_area`, using the
    /// standard edge-corrected formula the paper cites as Eq. (5):
    ///
    /// `DPW = π·(d/2)²/A_die − π·d/√(2·A_die)`
    ///
    /// The second term removes partial dies along the wafer edge. The
    /// result is clamped to ≥ 0 (a die larger than the usable wafer
    /// yields zero) and *not* rounded: downstream carbon-per-die math
    /// divides by this count, and keeping it continuous keeps the model
    /// differentiable for sweeps. Callers wanting physical counts should
    /// `floor()` it.
    ///
    /// Returns `None` when `die_area` is not finite and positive.
    #[must_use]
    pub fn dies_per_wafer(self, die_area: Area) -> Option<f64> {
        let a = die_area.mm2();
        if !a.is_finite() || a <= 0.0 {
            return None;
        }
        let d = self.diameter.mm();
        let gross = self.area().mm2() / a - core::f64::consts::PI * d / (2.0 * a).sqrt();
        Some(gross.max(0.0))
    }
}

impl Default for Wafer {
    fn default() -> Self {
        Self::W300
    }
}

impl core::fmt::Display for Wafer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.0} mm wafer", self.diameter.mm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_wafer_areas_match_table2_bounds() {
        assert!((Wafer::W200.area().mm2() - 31_415.926_5).abs() < 0.1);
        assert!((Wafer::W450.area().mm2() - 159_043.128_1).abs() < 0.1);
        assert!((Wafer::W300.area().mm2() - 70_685.834_7).abs() < 0.1);
    }

    #[test]
    fn default_is_300mm() {
        assert_eq!(Wafer::default(), Wafer::W300);
    }

    #[test]
    fn dies_per_wafer_known_value() {
        // 100 mm² dies on a 300 mm wafer:
        // 70685.83/100 − π·300/√200 = 706.858 − 66.643 = 640.215
        let dpw = Wafer::W300.dies_per_wafer(Area::from_mm2(100.0)).unwrap();
        assert!((dpw - 640.215).abs() < 0.01, "got {dpw}");
    }

    #[test]
    fn dies_per_wafer_monotonically_decreases_with_area() {
        let wafer = Wafer::W300;
        let mut prev = f64::INFINITY;
        for mm2 in [10.0, 25.0, 74.0, 100.0, 400.0, 800.0] {
            let dpw = wafer.dies_per_wafer(Area::from_mm2(mm2)).unwrap();
            assert!(dpw < prev, "DPW must shrink as dies grow");
            prev = dpw;
        }
    }

    #[test]
    fn dies_per_wafer_clamps_to_zero_for_huge_dies() {
        let dpw = Wafer::W200
            .dies_per_wafer(Area::from_mm2(40_000.0))
            .unwrap();
        assert_eq!(dpw, 0.0);
    }

    #[test]
    fn dies_per_wafer_rejects_nonpositive_areas() {
        assert!(Wafer::W300.dies_per_wafer(Area::ZERO).is_none());
        assert!(Wafer::W300.dies_per_wafer(Area::from_mm2(-5.0)).is_none());
        assert!(Wafer::W300
            .dies_per_wafer(Area::from_mm2(f64::NAN))
            .is_none());
    }

    #[test]
    fn bigger_wafers_hold_more_dies() {
        let die = Area::from_mm2(74.0);
        let d200 = Wafer::W200.dies_per_wafer(die).unwrap();
        let d300 = Wafer::W300.dies_per_wafer(die).unwrap();
        let d450 = Wafer::W450.dies_per_wafer(die).unwrap();
        assert!(d200 < d300 && d300 < d450);
    }

    #[test]
    #[should_panic(expected = "wafer diameter")]
    fn custom_wafer_rejects_nonpositive_diameter() {
        let _ = Wafer::with_diameter(Length::from_mm(0.0));
    }

    #[test]
    fn display() {
        assert_eq!(Wafer::W300.to_string(), "300 mm wafer");
    }
}
