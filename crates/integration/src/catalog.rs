//! The [`IntegrationCatalog`]: one-stop registry tying every
//! [`IntegrationTechnology`] to its interface electricals, bonding
//! process, substrate profile, capability envelope, and I/O driver
//! area ratio.

use crate::bonding::{BondingMethod, BondingProcess};
use crate::electrical::{InterfaceSpec, IoDensity};
use crate::substrate::{SubstrateKind, SubstrateProfile};
use crate::technology::{IntegrationTechnology, StackOrientation};
use core::hash::{Hash, Hasher};
use serde::{Deserialize, Serialize};
use tdc_units::{Bandwidth, EnergyPerBit, Fingerprint, Length};
use tdc_yield::{AssemblyFlow, StackingFlow};

/// What a technology can physically do (Table 1's capability columns).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechnologyCapabilities {
    orientations: Vec<StackOrientation>,
    flows: Vec<StackingFlow>,
    assembly: Option<AssemblyFlow>,
    max_tiers_f2f: Option<u32>,
    max_tiers_f2b: Option<u32>,
}

impl TechnologyCapabilities {
    /// Supported stack orientations (empty for 2.5D).
    #[must_use]
    pub fn orientations(&self) -> &[StackOrientation] {
        &self.orientations
    }

    /// Supported bonding flows (empty for M3D and 2.5D).
    #[must_use]
    pub fn flows(&self) -> &[StackingFlow] {
        &self.flows
    }

    /// 2.5D assembly flow, if this is a 2.5D technology.
    #[must_use]
    pub fn assembly(&self) -> Option<AssemblyFlow> {
        self.assembly
    }

    /// Maximum stackable tiers under `orientation` (`None` =
    /// unbounded, per Table 1's "≥2").
    #[must_use]
    pub fn max_tiers(&self, orientation: StackOrientation) -> Option<u32> {
        match orientation {
            StackOrientation::FaceToFace => self.max_tiers_f2f,
            StackOrientation::FaceToBack => self.max_tiers_f2b,
        }
    }

    /// Checks that a requested 3D stack configuration is within this
    /// technology's envelope.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the orientation, flow, or
    /// tier count is unsupported.
    pub fn validate_stack(
        &self,
        orientation: StackOrientation,
        flow: Option<StackingFlow>,
        tiers: u32,
    ) -> Result<(), String> {
        if !self.orientations.contains(&orientation) {
            return Err(format!("{orientation} stacking not supported"));
        }
        match flow {
            Some(f) if !self.flows.contains(&f) => {
                return Err(format!("{f} flow not supported"));
            }
            None if !self.flows.is_empty() => {
                return Err("a bonding flow (D2W/W2W) must be chosen".to_owned());
            }
            _ => {}
        }
        if tiers < 2 {
            return Err(format!("a 3D stack needs at least 2 tiers, got {tiers}"));
        }
        if let Some(max) = self.max_tiers(orientation) {
            if tiers > max {
                return Err(format!(
                    "{orientation} stacking supports at most {max} tiers, got {tiers}"
                ));
            }
        }
        Ok(())
    }
}

/// Registry of per-technology characterization data.
///
/// `Default` ships the paper-faithful catalog; individual entries can
/// be replaced for sensitivity studies via the `set_*` methods.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntegrationCatalog {
    interfaces: Vec<(IntegrationTechnology, InterfaceSpec)>,
    bonding_overrides: Vec<(IntegrationTechnology, BondingProcess)>,
    substrate_overrides: Vec<(SubstrateKind, SubstrateProfile)>,
}

impl Default for IntegrationCatalog {
    fn default() -> Self {
        let interfaces = IntegrationTechnology::ALL
            .into_iter()
            .map(|t| (t, Self::shipped_interface(t)))
            .collect();
        Self {
            interfaces,
            bonding_overrides: Vec::new(),
            substrate_overrides: Vec::new(),
        }
    }
}

impl Fingerprint for IntegrationCatalog {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let IntegrationCatalog {
            interfaces,
            bonding_overrides,
            substrate_overrides,
        } = self;
        state.write_usize(interfaces.len());
        for (tech, spec) in interfaces {
            tech.hash(state);
            spec.fingerprint(state);
        }
        state.write_usize(bonding_overrides.len());
        for (tech, process) in bonding_overrides {
            tech.hash(state);
            process.fingerprint(state);
        }
        state.write_usize(substrate_overrides.len());
        for (kind, profile) in substrate_overrides {
            kind.hash(state);
            profile.fingerprint(state);
        }
    }
}

impl IntegrationCatalog {
    /// The Fig. 2 interface annotation for `tech`, as shipped.
    ///
    /// | tech | rate | density | energy/bit | counted |
    /// |------|------|---------|------------|---------|
    /// | Micro 3D | 6 Gb/s | 25 µm pitch array | 140 fJ | yes |
    /// | Hybrid 3D | 5 Gb/s | 3 µm pitch array | 200 fJ | no |
    /// | M3D | 15 Gb/s | 0.6 µm MIV array | 5 fJ | no |
    /// | MCM | 4 Gb/s | 50 IO/mm/layer | 2 000 fJ | yes |
    /// | InFO (both) | 4 Gb/s | 100 IO/mm/layer | 250 fJ | yes |
    /// | EMIB | 3.4 Gb/s | 350 IO/mm/layer | 150 fJ | yes |
    /// | Si interposer | 6.4 Gb/s | 500 IO/mm/layer | 120 fJ | yes |
    #[must_use]
    pub fn shipped_interface(tech: IntegrationTechnology) -> InterfaceSpec {
        match tech {
            IntegrationTechnology::MicroBump3d => InterfaceSpec::new(
                Bandwidth::from_gbps(6.0),
                EnergyPerBit::from_fj_per_bit(140.0),
                IoDensity::AreaArray {
                    pitch: Length::from_um(25.0),
                },
                true,
            ),
            IntegrationTechnology::HybridBonding3d => InterfaceSpec::new(
                Bandwidth::from_gbps(5.0),
                EnergyPerBit::from_fj_per_bit(200.0),
                IoDensity::AreaArray {
                    pitch: Length::from_um(3.0),
                },
                false,
            ),
            IntegrationTechnology::Monolithic3d => InterfaceSpec::new(
                Bandwidth::from_gbps(15.0),
                EnergyPerBit::from_fj_per_bit(5.0),
                IoDensity::AreaArray {
                    pitch: Length::from_um(0.6),
                },
                false,
            ),
            IntegrationTechnology::Mcm => InterfaceSpec::new(
                Bandwidth::from_gbps(4.0),
                // Fig. 2 prints "500–2000 pJ/bit" for the MCM SerDes; taken
                // literally that is two orders above any shipping
                // package-level link (Infinity Fabric ≈ 2 pJ/bit). We read
                // the range as 500–2000 fJ/bit and ship the top end —
                // still >10× every finer-pitch option, preserving Fig. 2's
                // ordering. Recorded in DESIGN.md.
                EnergyPerBit::from_fj_per_bit(2_000.0),
                IoDensity::PerEdge {
                    per_mm_per_layer: 50.0,
                },
                true,
            ),
            IntegrationTechnology::InfoChipFirst | IntegrationTechnology::InfoChipLast => {
                InterfaceSpec::new(
                    Bandwidth::from_gbps(4.0),
                    EnergyPerBit::from_fj_per_bit(250.0),
                    IoDensity::PerEdge {
                        per_mm_per_layer: 100.0,
                    },
                    true,
                )
            }
            IntegrationTechnology::Emib => InterfaceSpec::new(
                Bandwidth::from_gbps(3.4),
                EnergyPerBit::from_fj_per_bit(150.0),
                IoDensity::PerEdge {
                    per_mm_per_layer: 350.0,
                },
                true,
            ),
            IntegrationTechnology::SiliconInterposer => InterfaceSpec::new(
                Bandwidth::from_gbps(6.4),
                EnergyPerBit::from_fj_per_bit(120.0),
                IoDensity::PerEdge {
                    per_mm_per_layer: 500.0,
                },
                true,
            ),
        }
    }

    /// The interface spec for `tech`: the per-lane data rate, energy
    /// per bit, and I/O density that drive Eq. 17's `P_IO` and
    /// Eq. 18's achievable bandwidth. Returns the shipped Fig. 2
    /// characterization unless [`set_interface`] replaced it.
    ///
    /// [`set_interface`]: IntegrationCatalog::set_interface
    #[must_use]
    pub fn interface(&self, tech: IntegrationTechnology) -> InterfaceSpec {
        self.interfaces
            .iter()
            .find(|(t, _)| *t == tech)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| Self::shipped_interface(tech))
    }

    /// Replaces the interface spec for `tech` — the hook sensitivity
    /// studies use to ask "what if hybrid bonding shipped at half the
    /// energy per bit?" without rebuilding the catalog. The override
    /// applies to this catalog instance only; [`shipped_interface`]
    /// always returns the paper-faithful values.
    ///
    /// [`shipped_interface`]: IntegrationCatalog::shipped_interface
    pub fn set_interface(&mut self, tech: IntegrationTechnology, spec: InterfaceSpec) {
        if let Some(slot) = self.interfaces.iter_mut().find(|(t, _)| *t == tech) {
            slot.1 = spec;
        } else {
            self.interfaces.push((tech, spec));
        }
    }

    /// The bonding method used by `tech`.
    #[must_use]
    pub fn bonding_method(tech: IntegrationTechnology) -> BondingMethod {
        match tech {
            IntegrationTechnology::MicroBump3d => BondingMethod::MicroBump,
            IntegrationTechnology::HybridBonding3d => BondingMethod::HybridBonding,
            IntegrationTechnology::Monolithic3d => BondingMethod::SequentialProcessing,
            // Every 2.5D option mates dies with C4-class attach.
            _ => BondingMethod::C4,
        }
    }

    /// The bonding process characterization for `tech`: per-step yield
    /// and per-area bonding energy for each stacking flow, feeding
    /// Eq. 11's `C_bonding` and Table 3's composite yields. Shipped
    /// values unless [`set_bonding`] replaced them.
    ///
    /// [`set_bonding`]: IntegrationCatalog::set_bonding
    #[must_use]
    pub fn bonding(&self, tech: IntegrationTechnology) -> BondingProcess {
        self.bonding_overrides
            .iter()
            .find(|(t, _)| *t == tech)
            .map(|(_, p)| *p)
            .unwrap_or_else(|| BondingProcess::shipped(Self::bonding_method(tech)))
    }

    /// Overrides the bonding process for `tech` (e.g. to model a
    /// maturing line whose per-step yield has climbed above the
    /// shipped survey value). Instance-local, like
    /// [`set_interface`](IntegrationCatalog::set_interface).
    pub fn set_bonding(&mut self, tech: IntegrationTechnology, process: BondingProcess) {
        if let Some(slot) = self.bonding_overrides.iter_mut().find(|(t, _)| *t == tech) {
            slot.1 = process;
        } else {
            self.bonding_overrides.push((tech, process));
        }
    }

    /// The substrate kind `tech` rests on (`None` for 3D stacks, which
    /// sit directly on the package laminate).
    #[must_use]
    pub fn substrate_kind(tech: IntegrationTechnology) -> Option<SubstrateKind> {
        match tech {
            IntegrationTechnology::Mcm => Some(SubstrateKind::OrganicLaminate),
            IntegrationTechnology::InfoChipFirst | IntegrationTechnology::InfoChipLast => {
                Some(SubstrateKind::Rdl)
            }
            IntegrationTechnology::Emib => Some(SubstrateKind::EmibBridge),
            IntegrationTechnology::SiliconInterposer => Some(SubstrateKind::SiliconInterposer),
            _ => None,
        }
    }

    /// The substrate profile for `tech` (shipped unless overridden).
    #[must_use]
    pub fn substrate(&self, tech: IntegrationTechnology) -> Option<SubstrateProfile> {
        let kind = Self::substrate_kind(tech)?;
        Some(
            self.substrate_overrides
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, p)| *p)
                .unwrap_or_else(|| SubstrateProfile::shipped(kind)),
        )
    }

    /// Overrides the profile of a substrate kind (keyed by
    /// [`SubstrateProfile::kind`], so one override covers every
    /// technology resting on that substrate — replacing the silicon
    /// interposer profile affects CoWoS-S-class assemblies only, while
    /// an RDL override reaches both InFO variants).
    pub fn set_substrate(&mut self, profile: SubstrateProfile) {
        let kind = profile.kind();
        if let Some(slot) = self
            .substrate_overrides
            .iter_mut()
            .find(|(k, _)| *k == kind)
        {
            slot.1 = profile;
        } else {
            self.substrate_overrides.push((kind, profile));
        }
    }

    /// Interface I/O driver area ratio `γ_IO` (Eq. 9): the extra die
    /// area, as a fraction of gate area, spent on drivers for
    /// large-pitch connections. Zero for hybrid bonding and M3D, whose
    /// links are on-chip-grade.
    #[must_use]
    pub fn io_area_ratio(tech: IntegrationTechnology) -> f64 {
        match tech {
            IntegrationTechnology::MicroBump3d => 0.03,
            IntegrationTechnology::HybridBonding3d | IntegrationTechnology::Monolithic3d => 0.0,
            IntegrationTechnology::Mcm => 0.10,
            IntegrationTechnology::InfoChipFirst | IntegrationTechnology::InfoChipLast => 0.07,
            IntegrationTechnology::Emib => 0.05,
            IntegrationTechnology::SiliconInterposer => 0.04,
        }
    }

    /// Operational efficiency uplift from shorter interconnects
    /// (§2.2.2: 3D/2.5D "operational carbon benefits from shorter
    /// interconnect lengths"). Vertical stacking replaces long global
    /// wires with µm-scale hops; the effect is strongest for M3D's
    /// MIVs and absent for planar 2.5D (whose links are *longer* than
    /// on-chip wires — their cost shows up as I/O power instead).
    #[must_use]
    pub fn interconnect_uplift(tech: IntegrationTechnology) -> f64 {
        match tech {
            IntegrationTechnology::Monolithic3d => 0.08,
            IntegrationTechnology::HybridBonding3d => 0.05,
            IntegrationTechnology::MicroBump3d => 0.02,
            _ => 0.0,
        }
    }

    /// The Table 1 capability envelope of `tech`.
    #[must_use]
    pub fn capabilities(tech: IntegrationTechnology) -> TechnologyCapabilities {
        use StackOrientation::{FaceToBack, FaceToFace};
        use StackingFlow::{DieToWafer, WaferToWafer};
        match tech {
            IntegrationTechnology::MicroBump3d | IntegrationTechnology::HybridBonding3d => {
                TechnologyCapabilities {
                    orientations: vec![FaceToFace, FaceToBack],
                    flows: vec![DieToWafer, WaferToWafer],
                    assembly: None,
                    max_tiers_f2f: Some(2),
                    max_tiers_f2b: None,
                }
            }
            IntegrationTechnology::Monolithic3d => TechnologyCapabilities {
                orientations: vec![FaceToBack],
                flows: vec![],
                assembly: None,
                max_tiers_f2f: None,
                max_tiers_f2b: Some(2),
            },
            IntegrationTechnology::Mcm => TechnologyCapabilities {
                orientations: vec![],
                flows: vec![],
                assembly: Some(AssemblyFlow::ChipLast),
                max_tiers_f2f: None,
                max_tiers_f2b: None,
            },
            IntegrationTechnology::InfoChipFirst => TechnologyCapabilities {
                orientations: vec![],
                flows: vec![],
                assembly: Some(AssemblyFlow::ChipFirst),
                max_tiers_f2f: None,
                max_tiers_f2b: None,
            },
            IntegrationTechnology::InfoChipLast
            | IntegrationTechnology::Emib
            | IntegrationTechnology::SiliconInterposer => TechnologyCapabilities {
                orientations: vec![],
                flows: vec![],
                assembly: Some(AssemblyFlow::ChipLast),
                max_tiers_f2f: None,
                max_tiers_f2b: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interface_energy_ordering_matches_fig2() {
        let c = IntegrationCatalog::default();
        let e = |t| c.interface(t).energy_per_bit().fj_per_bit();
        // Fine-pitch on-package links are orders cheaper than MCM SerDes.
        assert!(e(IntegrationTechnology::SiliconInterposer) < e(IntegrationTechnology::Emib));
        assert!(e(IntegrationTechnology::Emib) < e(IntegrationTechnology::InfoChipFirst));
        assert!(e(IntegrationTechnology::InfoChipFirst) < e(IntegrationTechnology::Mcm));
        assert!(e(IntegrationTechnology::Mcm) >= 500.0); // ≥500 fJ/bit
        assert!(e(IntegrationTechnology::Monolithic3d) <= 5.01);
    }

    #[test]
    fn io_power_counting_rule() {
        let c = IntegrationCatalog::default();
        assert!(c
            .interface(IntegrationTechnology::MicroBump3d)
            .io_power_counted());
        assert!(!c
            .interface(IntegrationTechnology::HybridBonding3d)
            .io_power_counted());
        assert!(!c
            .interface(IntegrationTechnology::Monolithic3d)
            .io_power_counted());
        for t in [
            IntegrationTechnology::Mcm,
            IntegrationTechnology::InfoChipFirst,
            IntegrationTechnology::InfoChipLast,
            IntegrationTechnology::Emib,
            IntegrationTechnology::SiliconInterposer,
        ] {
            assert!(c.interface(t).io_power_counted(), "{t}");
        }
    }

    #[test]
    fn io_density_ordering_matches_fig2() {
        let c = IntegrationCatalog::default();
        let per_edge = |t| match c.interface(t).io_density() {
            IoDensity::PerEdge { per_mm_per_layer } => per_mm_per_layer,
            IoDensity::AreaArray { .. } => panic!("expected edge density for {t:?}"),
        };
        assert!(
            per_edge(IntegrationTechnology::Mcm) < per_edge(IntegrationTechnology::InfoChipFirst)
        );
        assert!(
            per_edge(IntegrationTechnology::InfoChipFirst) < per_edge(IntegrationTechnology::Emib)
        );
        assert!(
            per_edge(IntegrationTechnology::Emib)
                <= per_edge(IntegrationTechnology::SiliconInterposer)
        );
    }

    #[test]
    fn bonding_method_assignment() {
        assert_eq!(
            IntegrationCatalog::bonding_method(IntegrationTechnology::MicroBump3d),
            BondingMethod::MicroBump
        );
        assert_eq!(
            IntegrationCatalog::bonding_method(IntegrationTechnology::Monolithic3d),
            BondingMethod::SequentialProcessing
        );
        assert_eq!(
            IntegrationCatalog::bonding_method(IntegrationTechnology::Emib),
            BondingMethod::C4
        );
    }

    #[test]
    fn substrates_match_technologies() {
        assert_eq!(
            IntegrationCatalog::substrate_kind(IntegrationTechnology::SiliconInterposer),
            Some(SubstrateKind::SiliconInterposer)
        );
        assert_eq!(
            IntegrationCatalog::substrate_kind(IntegrationTechnology::HybridBonding3d),
            None
        );
        let c = IntegrationCatalog::default();
        assert!(c.substrate(IntegrationTechnology::Mcm).is_some());
        assert!(c.substrate(IntegrationTechnology::Monolithic3d).is_none());
    }

    #[test]
    fn capability_envelopes_follow_table1() {
        let micro = IntegrationCatalog::capabilities(IntegrationTechnology::MicroBump3d);
        assert!(micro
            .validate_stack(
                StackOrientation::FaceToFace,
                Some(StackingFlow::DieToWafer),
                2
            )
            .is_ok());
        // F2F is limited to two tiers.
        assert!(micro
            .validate_stack(
                StackOrientation::FaceToFace,
                Some(StackingFlow::DieToWafer),
                3
            )
            .is_err());
        // F2B goes beyond two.
        assert!(micro
            .validate_stack(
                StackOrientation::FaceToBack,
                Some(StackingFlow::WaferToWafer),
                4
            )
            .is_ok());
        // Flow is mandatory where supported.
        assert!(micro
            .validate_stack(StackOrientation::FaceToBack, None, 2)
            .is_err());

        let m3d = IntegrationCatalog::capabilities(IntegrationTechnology::Monolithic3d);
        assert!(m3d
            .validate_stack(StackOrientation::FaceToBack, None, 2)
            .is_ok());
        assert!(m3d
            .validate_stack(StackOrientation::FaceToBack, None, 3)
            .is_err());
        assert!(m3d
            .validate_stack(StackOrientation::FaceToFace, None, 2)
            .is_err());
        assert!(m3d
            .validate_stack(StackOrientation::FaceToBack, None, 1)
            .is_err());

        let info1 = IntegrationCatalog::capabilities(IntegrationTechnology::InfoChipFirst);
        assert_eq!(info1.assembly(), Some(AssemblyFlow::ChipFirst));
        let info2 = IntegrationCatalog::capabilities(IntegrationTechnology::InfoChipLast);
        assert_eq!(info2.assembly(), Some(AssemblyFlow::ChipLast));
    }

    #[test]
    fn io_area_ratios_within_table2_range() {
        for t in IntegrationTechnology::ALL {
            let g = IntegrationCatalog::io_area_ratio(t);
            assert!((0.0..=1.0).contains(&g), "{t}: {g}");
        }
        assert_eq!(
            IntegrationCatalog::io_area_ratio(IntegrationTechnology::HybridBonding3d),
            0.0
        );
        assert!(
            IntegrationCatalog::io_area_ratio(IntegrationTechnology::Mcm)
                > IntegrationCatalog::io_area_ratio(IntegrationTechnology::SiliconInterposer)
        );
    }

    #[test]
    fn interconnect_uplift_ordering() {
        let u = IntegrationCatalog::interconnect_uplift;
        assert!(u(IntegrationTechnology::Monolithic3d) > u(IntegrationTechnology::HybridBonding3d));
        assert!(u(IntegrationTechnology::HybridBonding3d) > u(IntegrationTechnology::MicroBump3d));
        assert!(u(IntegrationTechnology::MicroBump3d) > 0.0);
        for t in [
            IntegrationTechnology::Mcm,
            IntegrationTechnology::InfoChipFirst,
            IntegrationTechnology::InfoChipLast,
            IntegrationTechnology::Emib,
            IntegrationTechnology::SiliconInterposer,
        ] {
            assert_eq!(u(t), 0.0, "{t}");
        }
    }

    #[test]
    fn overrides_stick() {
        let mut c = IntegrationCatalog::default();
        let custom = InterfaceSpec::new(
            Bandwidth::from_gbps(10.0),
            EnergyPerBit::from_fj_per_bit(99.0),
            IoDensity::PerEdge {
                per_mm_per_layer: 1_000.0,
            },
            true,
        );
        c.set_interface(IntegrationTechnology::Emib, custom);
        assert_eq!(c.interface(IntegrationTechnology::Emib), custom);

        let bond = BondingProcess::shipped(BondingMethod::HybridBonding);
        c.set_bonding(IntegrationTechnology::Emib, bond);
        assert_eq!(c.bonding(IntegrationTechnology::Emib), bond);

        let sub = SubstrateProfile::shipped(SubstrateKind::EmibBridge).with_scale_factor(4.0);
        c.set_substrate(sub);
        assert_eq!(c.substrate(IntegrationTechnology::Emib), Some(sub));
    }
}
