//! Die-to-die interface electrical parameters ([`InterfaceSpec`]) —
//! the Fig. 2 annotations.

use core::hash::Hasher;
use serde::{Deserialize, Serialize};
use tdc_units::{Area, Bandwidth, EnergyPerBit, Fingerprint, Length};

/// How interface I/Os are provisioned on a die.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IoDensity {
    /// Edge (shoreline) I/O: `per_mm_per_layer` signals per millimetre
    /// of die edge per routing layer — the 2.5D style quoted in Fig. 2
    /// (50 IO/mm/layer for MCM up to 500 for silicon interposers).
    PerEdge {
        /// Signals per mm of die edge per BEOL/RDL routing layer.
        per_mm_per_layer: f64,
    },
    /// Area-array I/O: one connection per `pitch × pitch` cell over the
    /// overlap area — the 3D style (micro-bumps at 10–50 µm pitch,
    /// hybrid-bond pads at 1–5 µm, MIVs below 0.6 µm).
    AreaArray {
        /// Connection pitch.
        pitch: Length,
    },
}

impl Fingerprint for IoDensity {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        match self {
            IoDensity::PerEdge { per_mm_per_layer } => {
                state.write_u8(0);
                per_mm_per_layer.fingerprint(state);
            }
            IoDensity::AreaArray { pitch } => {
                state.write_u8(1);
                pitch.fingerprint(state);
            }
        }
    }
}

impl IoDensity {
    /// Number of I/O sites available given a die edge length, a usable
    /// layer count (edge style), or an overlap area (array style).
    ///
    /// * `PerEdge`: `edge_mm × per_mm_per_layer × layers`
    /// * `AreaArray`: `overlap / pitch²`
    #[must_use]
    pub fn io_sites(self, edge: Length, layers: u32, overlap: Area) -> f64 {
        match self {
            IoDensity::PerEdge { per_mm_per_layer } => {
                per_mm_per_layer * edge.mm() * f64::from(layers)
            }
            IoDensity::AreaArray { pitch } => {
                let cell = pitch.squared();
                if cell.mm2() <= 0.0 {
                    0.0
                } else {
                    overlap.mm2() / cell.mm2()
                }
            }
        }
    }
}

/// Electrical characterization of one integration technology's
/// die-to-die interface (Fig. 2: data rate, I/O density, energy per
/// bit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterfaceSpec {
    data_rate: Bandwidth,
    energy_per_bit: EnergyPerBit,
    io_density: IoDensity,
    io_power_counted: bool,
}

impl Fingerprint for InterfaceSpec {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let InterfaceSpec {
            data_rate,
            energy_per_bit,
            io_density,
            io_power_counted,
        } = self;
        data_rate.fingerprint(state);
        energy_per_bit.fingerprint(state);
        io_density.fingerprint(state);
        io_power_counted.fingerprint(state);
    }
}

impl InterfaceSpec {
    /// Creates a spec.
    ///
    /// `io_power_counted` mirrors the paper's §3.3 rule: interface I/O
    /// driver power enters the operational model only for 2.5D and
    /// micro-bump 3D interfaces; hybrid bonding and MIVs are treated as
    /// on-chip-grade wires.
    ///
    /// # Panics
    ///
    /// Panics when the data rate or energy per bit is not finite and
    /// positive.
    #[must_use]
    pub fn new(
        data_rate: Bandwidth,
        energy_per_bit: EnergyPerBit,
        io_density: IoDensity,
        io_power_counted: bool,
    ) -> Self {
        assert!(
            data_rate.gbps().is_finite() && data_rate.gbps() > 0.0,
            "data rate must be positive"
        );
        assert!(
            energy_per_bit.joules_per_bit().is_finite() && energy_per_bit.joules_per_bit() > 0.0,
            "energy per bit must be positive"
        );
        Self {
            data_rate,
            energy_per_bit,
            io_density,
            io_power_counted,
        }
    }

    /// Per-lane signalling rate (`BW_per_I/O` of Eq. 18).
    #[must_use]
    pub fn data_rate(self) -> Bandwidth {
        self.data_rate
    }

    /// Energy to move one bit across the interface.
    #[must_use]
    pub fn energy_per_bit(self) -> EnergyPerBit {
        self.energy_per_bit
    }

    /// I/O provisioning style and density.
    #[must_use]
    pub fn io_density(self) -> IoDensity {
        self.io_density
    }

    /// Whether interface I/O power is charged to the operational model
    /// (2.5D and micro-bump 3D: yes; hybrid bonding and M3D: no).
    #[must_use]
    pub fn io_power_counted(self) -> bool {
        self.io_power_counted
    }

    /// Aggregate one-directional bandwidth of `n_ios` lanes (Eq. 18:
    /// `BW = N_I/O · BW_per_I/O`).
    #[must_use]
    pub fn aggregate_bandwidth(self, n_ios: f64) -> Bandwidth {
        self.data_rate * n_ios.max(0.0)
    }

    /// Power drawn moving `bandwidth` of traffic across this interface
    /// (`energy/bit × bit rate`), or zero when I/O power is not counted.
    #[must_use]
    pub fn interface_power(self, bandwidth: Bandwidth) -> tdc_units::Power {
        if self.io_power_counted {
            self.energy_per_bit * bandwidth
        } else {
            tdc_units::Power::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_density_counts_shoreline_ios() {
        let d = IoDensity::PerEdge {
            per_mm_per_layer: 500.0,
        };
        // 20 mm of edge, 4 usable layers → 40 000 I/Os.
        let sites = d.io_sites(Length::from_mm(20.0), 4, Area::ZERO);
        assert!((sites - 40_000.0).abs() < 1e-9);
    }

    #[test]
    fn array_density_counts_overlap_ios() {
        let d = IoDensity::AreaArray {
            pitch: Length::from_um(25.0),
        };
        // 100 mm² overlap at 25 µm pitch → 100 mm² / 625 µm² = 160 000.
        let sites = d.io_sites(Length::ZERO, 0, Area::from_mm2(100.0));
        assert!((sites - 160_000.0).abs() < 1e-6);
        // Degenerate pitch.
        let broken = IoDensity::AreaArray {
            pitch: Length::ZERO,
        };
        assert_eq!(broken.io_sites(Length::ZERO, 0, Area::from_mm2(1.0)), 0.0);
    }

    #[test]
    fn aggregate_bandwidth_is_lanes_times_rate() {
        let spec = InterfaceSpec::new(
            Bandwidth::from_gbps(3.4),
            EnergyPerBit::from_fj_per_bit(150.0),
            IoDensity::PerEdge {
                per_mm_per_layer: 350.0,
            },
            true,
        );
        let bw = spec.aggregate_bandwidth(10_000.0);
        assert!((bw.gbps() - 34_000.0).abs() < 1e-6);
        assert_eq!(spec.aggregate_bandwidth(-5.0), Bandwidth::ZERO);
    }

    #[test]
    fn interface_power_respects_counting_rule() {
        let counted = InterfaceSpec::new(
            Bandwidth::from_gbps(6.0),
            EnergyPerBit::from_pj_per_bit(1.0),
            IoDensity::AreaArray {
                pitch: Length::from_um(25.0),
            },
            true,
        );
        let p = counted.interface_power(Bandwidth::from_tbps(1.0));
        assert!((p.watts() - 1.0).abs() < 1e-9);

        let uncounted = InterfaceSpec::new(
            Bandwidth::from_gbps(15.0),
            EnergyPerBit::from_fj_per_bit(5.0),
            IoDensity::AreaArray {
                pitch: Length::from_um(0.6),
            },
            false,
        );
        assert_eq!(
            uncounted.interface_power(Bandwidth::from_tbps(10.0)),
            tdc_units::Power::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "data rate")]
    fn rejects_zero_data_rate() {
        let _ = InterfaceSpec::new(
            Bandwidth::ZERO,
            EnergyPerBit::from_fj_per_bit(100.0),
            IoDensity::PerEdge {
                per_mm_per_layer: 100.0,
            },
            true,
        );
    }
}
