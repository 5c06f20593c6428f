//! Electrical-grid carbon intensities by region ([`GridRegion`]).

use serde::{Deserialize, Serialize};
use tdc_units::CarbonIntensity;

/// A manufacturing or use location with a known grid carbon intensity.
///
/// The paper's Table 2 bounds `CI_emb`/`CI_use` to 30–700 g CO₂/kWh;
/// this registry spans that range with representative 2022-era grid
/// averages (fab locations from semiconductor-industry geography, use
/// locations for deployment studies) plus the two synthetic extremes.
///
/// ```
/// use tdc_technode::GridRegion;
/// let tw = GridRegion::Taiwan.carbon_intensity();
/// assert!((tw.g_per_kwh() - 509.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum GridRegion {
    /// Taiwan — hosts the bulk of advanced-node capacity (TSMC).
    Taiwan,
    /// South Korea — Samsung/SK hynix fabs.
    SouthKorea,
    /// Japan — legacy-node and packaging capacity.
    Japan,
    /// Mainland China — OSAT and mature-node capacity.
    China,
    /// Singapore — GlobalFoundries and UMC fabs.
    Singapore,
    /// United States, national average.
    UnitedStates,
    /// Arizona, USA — new leading-edge fab cluster.
    Arizona,
    /// Texas, USA — Samsung Austin/Taylor.
    Texas,
    /// Germany — European fab cluster (Dresden).
    Germany,
    /// Ireland — Intel Leixlip.
    Ireland,
    /// France — nuclear-heavy grid, near the clean end.
    France,
    /// Sweden — hydro/nuclear grid at the paper's 30 g floor.
    Sweden,
    /// World average generation mix.
    WorldAverage,
    /// Synthetic coal-dominated grid at the paper's 700 g ceiling.
    CoalHeavy,
    /// Synthetic fully-renewable grid at the paper's 30 g floor.
    Renewable,
}

impl GridRegion {
    /// All registry entries.
    pub const ALL: [GridRegion; 15] = [
        GridRegion::Taiwan,
        GridRegion::SouthKorea,
        GridRegion::Japan,
        GridRegion::China,
        GridRegion::Singapore,
        GridRegion::UnitedStates,
        GridRegion::Arizona,
        GridRegion::Texas,
        GridRegion::Germany,
        GridRegion::Ireland,
        GridRegion::France,
        GridRegion::Sweden,
        GridRegion::WorldAverage,
        GridRegion::CoalHeavy,
        GridRegion::Renewable,
    ];

    /// The region's average grid carbon intensity.
    #[must_use]
    pub fn carbon_intensity(self) -> CarbonIntensity {
        let g_per_kwh = match self {
            GridRegion::Taiwan => 509.0,
            GridRegion::SouthKorea => 436.0,
            GridRegion::Japan => 474.0,
            GridRegion::China => 581.0,
            GridRegion::Singapore => 408.0,
            GridRegion::UnitedStates => 380.0,
            GridRegion::Arizona => 390.0,
            GridRegion::Texas => 410.0,
            GridRegion::Germany => 366.0,
            GridRegion::Ireland => 346.0,
            GridRegion::France => 56.0,
            GridRegion::Sweden => 30.0,
            GridRegion::WorldAverage => 475.0,
            GridRegion::CoalHeavy => 700.0,
            GridRegion::Renewable => 30.0,
        };
        CarbonIntensity::from_g_per_kwh(g_per_kwh)
    }

    /// The scenario-file/CLI token table: `(canonical, aliases,
    /// region)`. The canonical token is what listings print; the
    /// aliases are accepted interchangeably by [`Self::resolve_token`]
    /// (and registered alongside the canonical name by the model
    /// registry).
    pub const TOKENS: &'static [(&'static str, &'static [&'static str], GridRegion)] = &[
        ("taiwan", &["tw"], GridRegion::Taiwan),
        ("south-korea", &["korea", "kr"], GridRegion::SouthKorea),
        ("japan", &["jp"], GridRegion::Japan),
        ("china", &["cn"], GridRegion::China),
        ("singapore", &["sg"], GridRegion::Singapore),
        ("united-states", &["us", "usa"], GridRegion::UnitedStates),
        ("arizona", &[], GridRegion::Arizona),
        ("texas", &[], GridRegion::Texas),
        ("germany", &["de"], GridRegion::Germany),
        ("ireland", &["ie"], GridRegion::Ireland),
        ("france", &["fr"], GridRegion::France),
        ("sweden", &["se"], GridRegion::Sweden),
        (
            "world",
            &["world-average", "global"],
            GridRegion::WorldAverage,
        ),
        ("coal", &["coal-heavy"], GridRegion::CoalHeavy),
        ("renewable", &["green"], GridRegion::Renewable),
    ];

    /// Parses a scenario-file/CLI token into a region
    /// (case-insensitive; hyphens, underscores, and spaces are
    /// interchangeable). Accepts every canonical token and alias in
    /// [`Self::TOKENS`].
    ///
    /// ```
    /// use tdc_technode::GridRegion;
    /// assert_eq!(GridRegion::resolve_token("taiwan"), Some(GridRegion::Taiwan));
    /// assert_eq!(GridRegion::resolve_token("world"), Some(GridRegion::WorldAverage));
    /// assert_eq!(GridRegion::resolve_token("mars"), None);
    /// ```
    #[must_use]
    pub fn resolve_token(token: &str) -> Option<Self> {
        let t = token.trim().to_ascii_lowercase().replace(['_', ' '], "-");
        Self::TOKENS
            .iter()
            .find(|(canonical, aliases, _)| *canonical == t || aliases.contains(&t.as_str()))
            .map(|(_, _, region)| *region)
    }

    /// A short human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GridRegion::Taiwan => "Taiwan",
            GridRegion::SouthKorea => "South Korea",
            GridRegion::Japan => "Japan",
            GridRegion::China => "China",
            GridRegion::Singapore => "Singapore",
            GridRegion::UnitedStates => "United States",
            GridRegion::Arizona => "Arizona (US)",
            GridRegion::Texas => "Texas (US)",
            GridRegion::Germany => "Germany",
            GridRegion::Ireland => "Ireland",
            GridRegion::France => "France",
            GridRegion::Sweden => "Sweden",
            GridRegion::WorldAverage => "world average",
            GridRegion::CoalHeavy => "coal-heavy (synthetic)",
            GridRegion::Renewable => "renewable (synthetic)",
        }
    }
}

impl core::fmt::Display for GridRegion {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} ({:.0} g CO₂e/kWh)",
            self.name(),
            self.carbon_intensity().g_per_kwh()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_regions_within_table2_range() {
        for region in GridRegion::ALL {
            let g = region.carbon_intensity().g_per_kwh();
            assert!((29.999..=700.001).contains(&g), "{region}: {g}");
        }
    }

    #[test]
    fn extremes_hit_table2_bounds() {
        let lo = GridRegion::Renewable.carbon_intensity().g_per_kwh();
        let hi = GridRegion::CoalHeavy.carbon_intensity().g_per_kwh();
        assert!((lo - 30.0).abs() < 1e-9);
        assert!((hi - 700.0).abs() < 1e-9);
    }

    #[test]
    fn fab_heavy_regions_are_dirtier_than_france() {
        let france = GridRegion::France.carbon_intensity();
        for region in [
            GridRegion::Taiwan,
            GridRegion::SouthKorea,
            GridRegion::China,
        ] {
            assert!(region.carbon_intensity() > france);
        }
    }

    #[test]
    fn display_and_name() {
        let s = GridRegion::Taiwan.to_string();
        assert!(s.contains("Taiwan") && s.contains("509"));
        assert_eq!(GridRegion::WorldAverage.name(), "world average");
    }

    #[test]
    fn token_table_covers_every_region_and_shims_agree() {
        let mut seen = std::collections::HashSet::new();
        for (canonical, aliases, region) in GridRegion::TOKENS {
            assert!(seen.insert(*region), "duplicate token row for {region:?}");
            assert_eq!(GridRegion::resolve_token(canonical), Some(*region));
            for alias in *aliases {
                assert_eq!(GridRegion::resolve_token(alias), Some(*region), "{alias}");
            }
        }
        assert_eq!(seen.len(), GridRegion::ALL.len());
        assert_eq!(
            GridRegion::resolve_token(" World_Average "),
            Some(GridRegion::WorldAverage)
        );
    }

    #[test]
    fn all_covers_every_variant_once() {
        let mut seen = std::collections::HashSet::new();
        for r in GridRegion::ALL {
            assert!(seen.insert(r), "duplicate {r:?}");
        }
        assert_eq!(seen.len(), GridRegion::ALL.len());
    }
}
