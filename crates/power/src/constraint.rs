//! The I/O bandwidth constraint — §3.4 of the paper.

use serde::{Deserialize, Serialize};
use tdc_units::{Bandwidth, Fingerprint, Ratio, Throughput};

/// Outcome of checking a design against the bandwidth constraint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BandwidthVerdict {
    /// The interface carries the reference (on-chip) traffic with no
    /// throughput loss.
    Valid {
        /// Deliverable application throughput.
        achieved: Throughput,
    },
    /// The interface is under-provisioned; throughput degrades but the
    /// application requirement is still met.
    Degraded {
        /// Deliverable application throughput after degradation.
        achieved: Throughput,
        /// Fractional throughput loss relative to the 2D design.
        degradation: Ratio,
    },
    /// The degraded throughput misses the application requirement —
    /// the paper's "invalid" category (Fig. 5's red ✗).
    Invalid {
        /// Deliverable application throughput after degradation.
        achieved: Throughput,
        /// Fractional throughput loss relative to the 2D design.
        degradation: Ratio,
    },
}

impl BandwidthVerdict {
    /// The deliverable throughput, whatever the verdict.
    #[must_use]
    pub fn achieved(self) -> Throughput {
        match self {
            BandwidthVerdict::Valid { achieved }
            | BandwidthVerdict::Degraded { achieved, .. }
            | BandwidthVerdict::Invalid { achieved, .. } => achieved,
        }
    }

    /// `true` unless the verdict is [`BandwidthVerdict::Invalid`].
    #[must_use]
    pub fn is_viable(self) -> bool {
        !matches!(self, BandwidthVerdict::Invalid { .. })
    }

    /// Runtime stretch for a fixed workload: how much longer the
    /// application takes on the degraded design (≥ 1). Feeds the
    /// operational model — degraded 2.5D designs burn energy longer,
    /// which is why the paper's Fig. 5 shows higher operational carbon
    /// for bandwidth-starved 2.5D options.
    #[must_use]
    pub fn runtime_stretch(self, required: Throughput) -> f64 {
        let achieved = self.achieved();
        if achieved.tops() <= 0.0 {
            return f64::INFINITY;
        }
        (required.tops() / achieved.tops()).max(1.0)
    }
}

/// The MCM-GPU-calibrated bandwidth/performance rule.
///
/// The paper adopts the observation of Arunkumar et al. (ISCA'17) that
/// halving the die-to-die bandwidth relative to the 2D on-chip
/// bandwidth costs more than 20 % throughput. We model degradation as
/// piecewise-linear in the bandwidth ratio `r = BW_achieved / BW_ref`:
///
/// * `r ≥ 1` — no loss;
/// * `0.5 ≤ r < 1` — linear from 0 % to `degradation_at_half`
///   (default 20 %);
/// * `r < 0.5` — linear continuation from `degradation_at_half` at
///   `r = 0.5` up to 100 % loss at `r = 0` (starvation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthConstraint {
    degradation_at_half: f64,
}

impl Default for BandwidthConstraint {
    fn default() -> Self {
        Self {
            degradation_at_half: 0.20,
        }
    }
}

impl Fingerprint for BandwidthConstraint {
    fn fingerprint<H: core::hash::Hasher>(&self, state: &mut H) {
        let BandwidthConstraint {
            degradation_at_half,
        } = self;
        degradation_at_half.fingerprint(state);
    }
}

impl BandwidthConstraint {
    /// Custom calibration point.
    ///
    /// # Errors
    ///
    /// Rejects degradations outside `(0, 1)`.
    pub fn new(degradation_at_half: f64) -> Result<Self, String> {
        if !(degradation_at_half > 0.0 && degradation_at_half < 1.0) {
            return Err(format!(
                "degradation at half bandwidth must be in (0, 1), got {degradation_at_half}"
            ));
        }
        Ok(Self {
            degradation_at_half,
        })
    }

    /// Fractional throughput loss at bandwidth ratio `r` (clamped to
    /// `[0, 1]`).
    #[must_use]
    pub fn degradation(&self, ratio: f64) -> Ratio {
        let r = ratio.clamp(0.0, f64::MAX);
        let d = if r >= 1.0 {
            0.0
        } else if r >= 0.5 {
            // 0 at r=1 → d_half at r=0.5.
            self.degradation_at_half * (1.0 - r) / 0.5
        } else {
            // d_half at r=0.5 → 1.0 at r=0.
            self.degradation_at_half + (1.0 - self.degradation_at_half) * (0.5 - r) / 0.5
        };
        Ratio::from_fraction(d.clamp(0.0, 1.0))
    }

    /// Applies the constraint.
    ///
    /// * `peak` — the design's nominal throughput (what the silicon
    ///   could deliver with on-chip-grade connectivity).
    /// * `required` — the application's throughput requirement.
    /// * `achieved_bw` / `reference_bw` — interface vs 2D on-chip
    ///   bandwidth (Eq. 18 vs the monolithic reference).
    #[must_use]
    pub fn check(
        &self,
        peak: Throughput,
        required: Throughput,
        achieved_bw: Bandwidth,
        reference_bw: Bandwidth,
    ) -> BandwidthVerdict {
        let ratio = if reference_bw.gbps() <= 0.0 {
            1.0
        } else {
            achieved_bw.gbps() / reference_bw.gbps()
        };
        let degradation = self.degradation(ratio);
        let achieved = peak * degradation.complement().fraction();
        if degradation.fraction() == 0.0 {
            BandwidthVerdict::Valid { achieved }
        } else if achieved.tops() + 1.0e-12 >= required.tops() {
            BandwidthVerdict::Degraded {
                achieved,
                degradation,
            }
        } else {
            BandwidthVerdict::Invalid {
                achieved,
                degradation,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_point_matches_mcm_gpu() {
        let c = BandwidthConstraint::default();
        assert!((c.degradation(0.5).fraction() - 0.20).abs() < 1e-12);
        assert_eq!(c.degradation(1.0).fraction(), 0.0);
        assert_eq!(c.degradation(1.5).fraction(), 0.0);
        assert!((c.degradation(0.0).fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degradation_is_monotone_in_ratio() {
        let c = BandwidthConstraint::default();
        let mut prev = 1.1;
        for r in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 2.0] {
            let d = c.degradation(r).fraction();
            assert!(d <= prev, "degradation must fall as bandwidth rises");
            assert!((0.0..=1.0).contains(&d));
            prev = d;
        }
    }

    #[test]
    fn piecewise_is_continuous_at_half() {
        let c = BandwidthConstraint::default();
        let below = c.degradation(0.5 - 1e-9).fraction();
        let above = c.degradation(0.5 + 1e-9).fraction();
        assert!((below - above).abs() < 1e-6);
    }

    #[test]
    fn full_bandwidth_is_valid() {
        let c = BandwidthConstraint::default();
        let v = c.check(
            Throughput::from_tops(254.0),
            Throughput::from_tops(254.0),
            Bandwidth::from_tbps(10.0),
            Bandwidth::from_tbps(10.0),
        );
        assert!(matches!(v, BandwidthVerdict::Valid { .. }));
        assert!((v.achieved().tops() - 254.0).abs() < 1e-9);
        assert!(v.is_viable());
        assert_eq!(v.runtime_stretch(Throughput::from_tops(254.0)), 1.0);
    }

    #[test]
    fn margin_absorbs_mild_degradation() {
        let c = BandwidthConstraint::default();
        // Peak 300, requirement 200: a 20 % hit (→240) still meets it.
        let v = c.check(
            Throughput::from_tops(300.0),
            Throughput::from_tops(200.0),
            Bandwidth::from_tbps(5.0),
            Bandwidth::from_tbps(10.0),
        );
        match v {
            BandwidthVerdict::Degraded {
                achieved,
                degradation,
            } => {
                assert!((achieved.tops() - 240.0).abs() < 1e-9);
                assert!((degradation.fraction() - 0.2).abs() < 1e-12);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert!(v.is_viable());
        // Fixed workload runs 200/240 → no stretch needed (achieved > required).
        assert_eq!(v.runtime_stretch(Throughput::from_tops(200.0)), 1.0);
    }

    #[test]
    fn starved_interface_is_invalid() {
        let c = BandwidthConstraint::default();
        let v = c.check(
            Throughput::from_tops(254.0),
            Throughput::from_tops(254.0),
            Bandwidth::from_tbps(2.0),
            Bandwidth::from_tbps(10.0),
        );
        assert!(matches!(v, BandwidthVerdict::Invalid { .. }));
        assert!(!v.is_viable());
        let stretch = v.runtime_stretch(Throughput::from_tops(254.0));
        assert!(stretch > 1.0);
        // ratio 0.2 → deg = 0.2 + 0.8·0.6 = 0.68 → achieved = 0.32·254.
        assert!((v.achieved().tops() - 0.32 * 254.0).abs() < 1e-9);
        assert!((stretch - 1.0 / 0.32).abs() < 1e-9);
    }

    #[test]
    fn zero_reference_bandwidth_means_no_constraint() {
        let c = BandwidthConstraint::default();
        let v = c.check(
            Throughput::from_tops(10.0),
            Throughput::from_tops(10.0),
            Bandwidth::ZERO,
            Bandwidth::ZERO,
        );
        assert!(matches!(v, BandwidthVerdict::Valid { .. }));
    }

    #[test]
    fn zero_achieved_throughput_stretch_is_infinite() {
        let c = BandwidthConstraint::default();
        let v = c.check(
            Throughput::from_tops(10.0),
            Throughput::from_tops(10.0),
            Bandwidth::ZERO,
            Bandwidth::from_tbps(1.0),
        );
        assert!(v.runtime_stretch(Throughput::from_tops(10.0)).is_infinite());
    }

    #[test]
    fn constructor_validates() {
        assert!(BandwidthConstraint::new(0.0).is_err());
        assert!(BandwidthConstraint::new(1.0).is_err());
        assert!(BandwidthConstraint::new(0.3).is_ok());
    }
}
