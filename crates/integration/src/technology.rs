//! Integration technology identifiers ([`IntegrationTechnology`],
//! [`IntegrationFamily`], [`StackOrientation`]).

use serde::{Deserialize, Serialize};

/// One of the commercial 3D/2.5D integration options studied by the
/// paper (Table 1 / Fig. 2).
///
/// The two InFO variants reflect the paper's case study, which
/// distinguishes chip-first (`InFO_1`) and chip-last (`InFO_2`)
/// assembly of the same fan-out technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IntegrationTechnology {
    /// 3D stacking with micron-scale solder micro-bumps (TSMC SoIC-P,
    /// Intel Foveros; e.g. Lakefield, HBM).
    MicroBump3d,
    /// 3D stacking with direct Cu–Cu hybrid bond pads (TSMC SoIC-X,
    /// Intel Foveros Direct; e.g. AMD 3D V-Cache).
    HybridBonding3d,
    /// Monolithic 3D: sequential upper-tier processing with
    /// fine-pitched monolithic inter-tier vias (block-level
    /// partitioning).
    Monolithic3d,
    /// Multi-chip module on an organic laminate (AMD Infinity Fabric;
    /// e.g. EPYC 7000).
    Mcm,
    /// Integrated fan-out with RDL substrate, chip-first assembly
    /// ("InFO_1" in the paper's Fig. 5).
    InfoChipFirst,
    /// Integrated fan-out with RDL substrate, chip-last assembly
    /// ("InFO_2"; e.g. CoWoS-L/R-class flows, AMD Navi 31).
    InfoChipLast,
    /// Intel's Embedded Multi-die Interconnect Bridge (e.g. Stratix 10).
    Emib,
    /// Passive silicon interposer (TSMC CoWoS-S; e.g. NVIDIA P100).
    SiliconInterposer,
}

impl IntegrationTechnology {
    /// All technologies, 3D first, in the paper's presentation order.
    pub const ALL: [IntegrationTechnology; 8] = [
        IntegrationTechnology::MicroBump3d,
        IntegrationTechnology::HybridBonding3d,
        IntegrationTechnology::Monolithic3d,
        IntegrationTechnology::Mcm,
        IntegrationTechnology::InfoChipFirst,
        IntegrationTechnology::InfoChipLast,
        IntegrationTechnology::Emib,
        IntegrationTechnology::SiliconInterposer,
    ];

    /// Whether this is a vertical (3D) or planar multi-die (2.5D)
    /// technology.
    #[must_use]
    pub fn family(self) -> IntegrationFamily {
        match self {
            IntegrationTechnology::MicroBump3d
            | IntegrationTechnology::HybridBonding3d
            | IntegrationTechnology::Monolithic3d => IntegrationFamily::ThreeD,
            IntegrationTechnology::Mcm
            | IntegrationTechnology::InfoChipFirst
            | IntegrationTechnology::InfoChipLast
            | IntegrationTechnology::Emib
            | IntegrationTechnology::SiliconInterposer => IntegrationFamily::TwoPointFiveD,
        }
    }

    /// `true` for the 2.5D technologies that need a manufactured
    /// substrate (RDL / bridge / interposer) beyond the organic package
    /// laminate.
    #[must_use]
    pub fn has_dedicated_substrate(self) -> bool {
        matches!(
            self,
            IntegrationTechnology::InfoChipFirst
                | IntegrationTechnology::InfoChipLast
                | IntegrationTechnology::Emib
                | IntegrationTechnology::SiliconInterposer
        )
    }

    /// Short label used in tables and figures (matches the paper's
    /// Fig. 5 axis labels).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IntegrationTechnology::MicroBump3d => "Micro",
            IntegrationTechnology::HybridBonding3d => "Hybrid",
            IntegrationTechnology::Monolithic3d => "M3D",
            IntegrationTechnology::Mcm => "MCM",
            IntegrationTechnology::InfoChipFirst => "InFO_1",
            IntegrationTechnology::InfoChipLast => "InFO_2",
            IntegrationTechnology::Emib => "EMIB",
            IntegrationTechnology::SiliconInterposer => "Si_int",
        }
    }

    /// Full descriptive name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IntegrationTechnology::MicroBump3d => "micro-bumping 3D",
            IntegrationTechnology::HybridBonding3d => "hybrid bonding 3D",
            IntegrationTechnology::Monolithic3d => "monolithic 3D",
            IntegrationTechnology::Mcm => "multi-chip module (2.5D)",
            IntegrationTechnology::InfoChipFirst => "integrated fan-out, chip-first (2.5D)",
            IntegrationTechnology::InfoChipLast => "integrated fan-out, chip-last (2.5D)",
            IntegrationTechnology::Emib => "embedded multi-die interconnect bridge (2.5D)",
            IntegrationTechnology::SiliconInterposer => "silicon interposer (2.5D)",
        }
    }

    /// The scenario-file/CLI token table: `(aliases, technology)`.
    /// Every alias resolves via [`Self::resolve_token`]; the Fig. 5
    /// label ([`Self::label`]) resolves too (it normalizes to one of
    /// these aliases) and is the canonical listing name used by the
    /// model registry.
    pub const TOKENS: &'static [(&'static [&'static str], IntegrationTechnology)] = &[
        (
            &[
                "micro",
                "micro-3d",
                "micro-bump",
                "micro-bump-3d",
                "microbump3d",
            ],
            IntegrationTechnology::MicroBump3d,
        ),
        (
            &[
                "hybrid",
                "hybrid-3d",
                "hybrid-bonding",
                "hybrid-bonding-3d",
                "hybridbonding3d",
            ],
            IntegrationTechnology::HybridBonding3d,
        ),
        (
            &["m3d", "monolithic-3d", "monolithic3d"],
            IntegrationTechnology::Monolithic3d,
        ),
        (&["mcm"], IntegrationTechnology::Mcm),
        (
            &["info-1", "info1", "info-chip-first", "infochipfirst"],
            IntegrationTechnology::InfoChipFirst,
        ),
        (
            &["info-2", "info2", "info-chip-last", "infochiplast"],
            IntegrationTechnology::InfoChipLast,
        ),
        (&["emib"], IntegrationTechnology::Emib),
        (
            &[
                "si-int",
                "si-interposer",
                "interposer",
                "silicon-interposer",
                "siliconinterposer",
            ],
            IntegrationTechnology::SiliconInterposer,
        ),
    ];

    /// Parses a scenario-file/CLI token into a technology, accepting
    /// the Fig. 5 label (case-insensitive), the enum name, and the
    /// aliases in [`Self::TOKENS`].
    ///
    /// ```
    /// use tdc_integration::IntegrationTechnology;
    /// assert_eq!(
    ///     IntegrationTechnology::resolve_token("hybrid-3d"),
    ///     Some(IntegrationTechnology::HybridBonding3d)
    /// );
    /// assert_eq!(
    ///     IntegrationTechnology::resolve_token("Si_int"),
    ///     Some(IntegrationTechnology::SiliconInterposer)
    /// );
    /// assert_eq!(IntegrationTechnology::resolve_token("2d"), None);
    /// ```
    #[must_use]
    pub fn resolve_token(token: &str) -> Option<Self> {
        let t = token.trim().to_ascii_lowercase().replace(['_', ' '], "-");
        Self::TOKENS
            .iter()
            .find(|(aliases, _)| aliases.contains(&t.as_str()))
            .map(|(_, tech)| *tech)
    }

    /// Representative manufacturers/technologies and shipped products,
    /// as listed in Table 1.
    #[must_use]
    pub fn representative(self) -> (&'static str, &'static str) {
        match self {
            IntegrationTechnology::MicroBump3d => (
                "TSMC SoIC-P / Intel Foveros",
                "Intel Lakefield i5-L16G7, HBM",
            ),
            IntegrationTechnology::HybridBonding3d => (
                "TSMC SoIC-X / Intel Foveros Direct",
                "AMD 3D V-Cache, Ryzen 7 5800X3D",
            ),
            IntegrationTechnology::Monolithic3d => ("research prototypes", "RISC-V core"),
            IntegrationTechnology::Mcm => ("AMD Infinity Fabric", "AMD EPYC 7000 series"),
            IntegrationTechnology::InfoChipFirst => ("TSMC InFO-2.5D", "AMD Navi 31"),
            IntegrationTechnology::InfoChipLast => ("TSMC CoWoS-L/R", "AMD Navi 31"),
            IntegrationTechnology::Emib => ("Intel EMIB", "Intel Stratix 10"),
            IntegrationTechnology::SiliconInterposer => ("TSMC CoWoS-S", "NVIDIA GPU P100"),
        }
    }
}

impl core::fmt::Display for IntegrationTechnology {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Vertical (3D) vs planar multi-die (2.5D) integration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IntegrationFamily {
    /// Dies stacked vertically.
    ThreeD,
    /// Dies placed side by side on a shared substrate.
    TwoPointFiveD,
}

impl core::fmt::Display for IntegrationFamily {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IntegrationFamily::ThreeD => write!(f, "3D"),
            IntegrationFamily::TwoPointFiveD => write!(f, "2.5D"),
        }
    }
}

/// Which faces of the stacked dies meet (Table 1, "F2F or F2B
/// stacking").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StackOrientation {
    /// Face-to-face: both dies' metal stacks meet directly; only the
    /// external I/O needs TSVs, and the stack is limited to two dies.
    FaceToFace,
    /// Face-to-back: the upper die's connections tunnel through the
    /// lower die's thinned substrate via TSVs; stacks of ≥ 2 dies.
    FaceToBack,
}

impl core::fmt::Display for StackOrientation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StackOrientation::FaceToFace => write!(f, "F2F"),
            StackOrientation::FaceToBack => write!(f, "F2B"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_partition_correctly() {
        let three_d: Vec<_> = IntegrationTechnology::ALL
            .into_iter()
            .filter(|t| t.family() == IntegrationFamily::ThreeD)
            .collect();
        let two_five_d: Vec<_> = IntegrationTechnology::ALL
            .into_iter()
            .filter(|t| t.family() == IntegrationFamily::TwoPointFiveD)
            .collect();
        assert_eq!(three_d.len(), 3, "paper studies three 3D options");
        assert_eq!(two_five_d.len(), 5, "four 2.5D options, InFO twice");
    }

    #[test]
    fn dedicated_substrates_only_for_interposer_class() {
        assert!(!IntegrationTechnology::Mcm.has_dedicated_substrate());
        assert!(!IntegrationTechnology::HybridBonding3d.has_dedicated_substrate());
        assert!(IntegrationTechnology::Emib.has_dedicated_substrate());
        assert!(IntegrationTechnology::SiliconInterposer.has_dedicated_substrate());
        assert!(IntegrationTechnology::InfoChipFirst.has_dedicated_substrate());
    }

    #[test]
    fn token_table_covers_every_technology_and_shims_agree() {
        let mut seen = std::collections::HashSet::new();
        for (aliases, tech) in IntegrationTechnology::TOKENS {
            assert!(seen.insert(*tech), "duplicate token row for {tech:?}");
            for alias in *aliases {
                assert_eq!(
                    IntegrationTechnology::resolve_token(alias),
                    Some(*tech),
                    "{alias}"
                );
            }
            // The Fig. 5 label always resolves back to its technology.
            assert_eq!(
                IntegrationTechnology::resolve_token(tech.label()),
                Some(*tech)
            );
        }
        assert_eq!(seen.len(), IntegrationTechnology::ALL.len());
    }

    #[test]
    fn labels_match_figure5_axis() {
        let labels: Vec<_> = IntegrationTechnology::ALL
            .into_iter()
            .map(IntegrationTechnology::label)
            .collect();
        assert_eq!(
            labels,
            ["Micro", "Hybrid", "M3D", "MCM", "InFO_1", "InFO_2", "EMIB", "Si_int"]
        );
    }

    #[test]
    fn all_has_no_duplicates() {
        let mut seen = std::collections::HashSet::new();
        for t in IntegrationTechnology::ALL {
            assert!(seen.insert(t));
        }
    }

    #[test]
    fn display_strings_are_descriptive() {
        assert!(IntegrationTechnology::Emib.to_string().contains("bridge"));
        assert_eq!(IntegrationFamily::ThreeD.to_string(), "3D");
        assert_eq!(IntegrationFamily::TwoPointFiveD.to_string(), "2.5D");
        assert_eq!(StackOrientation::FaceToFace.to_string(), "F2F");
        assert_eq!(StackOrientation::FaceToBack.to_string(), "F2B");
    }

    #[test]
    fn representatives_are_nonempty() {
        for t in IntegrationTechnology::ALL {
            let (mfg, product) = t.representative();
            assert!(!mfg.is_empty() && !product.is_empty());
        }
    }
}
