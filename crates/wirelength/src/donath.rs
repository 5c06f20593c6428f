//! Average-wirelength estimation ([`donath_average_wirelength`],
//! [`WirelengthModel`]).

use core::hash::Hasher;
use serde::{Deserialize, Serialize};
use tdc_units::Fingerprint;

/// Donath's hierarchical estimate of the average interconnect length of
/// an `n_gates` random-logic block with Rent exponent `p`, in units of
/// *gate pitches*.
///
/// This is the classical closed form (Donath 1979, as popularized by
/// Davis & Meindl's interconnect-prediction literature and used by the
/// cost model of Stow et al. that the paper cites):
///
/// ```text
///          2    7·(N^(p−0.5) − 1)/(4^(p−0.5) − 1)  −  (1 − N^(p−1.5))/(1 − 4^(p−1.5))
/// L̄(N) = ─── · ─────────────────────────────────────────────────────────────────────
///          9                      (1 − N^(p−1)) / (1 − 4^(p−1))
/// ```
///
/// The form has removable singularities at `p = 0.5` (and the other
/// exponent zeros); we evaluate at a nudged `p` when within `1e-9` of
/// one, which is numerically indistinguishable from the limit.
///
/// Typical magnitudes: ~9 gate pitches for a 50 k-gate block at
/// `p = 0.6`, tens of pitches for 10⁹-gate dice at `p = 0.75` —
/// matching published fits.
///
/// Returns 1.0 (nearest-neighbour wiring) for blocks of ≤ 4 gates, and
/// `None` when `p` ∉ (0, 1) or `n_gates` is not finite.
#[must_use]
pub fn donath_average_wirelength(n_gates: f64, p: f64) -> Option<f64> {
    if p <= 0.0 || p >= 1.0 || !n_gates.is_finite() {
        return None;
    }
    if n_gates <= 4.0 {
        return Some(1.0);
    }
    // Nudge p off the removable singular points of the closed form.
    let mut p = p;
    for singular in [0.5] {
        if (p - singular).abs() < 1e-9 {
            p = singular + 1e-9;
        }
    }
    let n = n_gates;
    let pow = |base: f64, e: f64| base.powf(e);
    let term1 = 7.0 * (pow(n, p - 0.5) - 1.0) / (pow(4.0, p - 0.5) - 1.0);
    let term2 = (1.0 - pow(n, p - 1.5)) / (1.0 - pow(4.0, p - 1.5));
    let denom = (1.0 - pow(n, p - 1.0)) / (1.0 - pow(4.0, p - 1.0));
    let l = (2.0 / 9.0) * (term1 - term2) / denom;
    Some(l.max(1.0))
}

/// Strategy for estimating a die's average interconnect length.
///
/// The BEOL-layer model (Eq. 10) is linear in `L̄`, so the choice of
/// wirelength model is a first-order design decision; all three
/// published styles are available and benchmarked against each other in
/// the ablation suite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WirelengthModel {
    /// Donath's estimate applied hierarchically: the die is treated as a
    /// sea of place-and-route blocks of `block_gates` gates (modern SoCs
    /// are partitioned; wiring statistics are set by the block scale,
    /// with the few global nets handled by the BEOL estimator's global
    /// correction). `L̄ = donath(min(N, block_gates), p)`.
    BlockDonath {
        /// Gates per place-and-route block (default 2 M).
        block_gates: f64,
    },
    /// Donath's estimate on the flat netlist: `L̄ = donath(N, p)`.
    /// Pessimistic for giant dice but exact for single-block designs.
    FlatDonath,
    /// A plain power law `L̄ = k · N^(p−0.5)` — the asymptotic shape of
    /// Donath's form, for analytical studies.
    PowerLaw {
        /// Prefactor `k` in gate pitches.
        k: f64,
    },
    /// A fixed average length in gate pitches, for calibration against
    /// extracted post-route data.
    Fixed {
        /// Average length in gate pitches.
        pitches: f64,
    },
}

impl Default for WirelengthModel {
    /// One-million-gate blocks: calibrated so a 7 nm logic die lands at
    /// 13–14 of its 15 available metal layers (see `BeolEstimator`).
    fn default() -> Self {
        WirelengthModel::BlockDonath { block_gates: 1.0e6 }
    }
}

impl Fingerprint for WirelengthModel {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        match self {
            WirelengthModel::BlockDonath { block_gates } => {
                state.write_u8(0);
                block_gates.fingerprint(state);
            }
            WirelengthModel::FlatDonath => state.write_u8(1),
            WirelengthModel::PowerLaw { k } => {
                state.write_u8(2);
                k.fingerprint(state);
            }
            WirelengthModel::Fixed { pitches } => {
                state.write_u8(3);
                pitches.fingerprint(state);
            }
        }
    }
}

impl WirelengthModel {
    /// Average interconnect length, in gate pitches, of an
    /// `n_gates` die with Rent exponent `p`.
    ///
    /// Returns `None` on non-finite inputs or `p` ∉ (0, 1) (where the
    /// underlying estimates are undefined).
    #[must_use]
    pub fn average_pitches(self, n_gates: f64, p: f64) -> Option<f64> {
        if !n_gates.is_finite() || n_gates < 0.0 {
            return None;
        }
        match self {
            WirelengthModel::BlockDonath { block_gates } => {
                donath_average_wirelength(n_gates.min(block_gates), p)
            }
            WirelengthModel::FlatDonath => donath_average_wirelength(n_gates, p),
            WirelengthModel::PowerLaw { k } => {
                if !(p > 0.0 && p < 1.0) || k <= 0.0 {
                    None
                } else {
                    Some((k * n_gates.powf(p - 0.5)).max(1.0))
                }
            }
            WirelengthModel::Fixed { pitches } => {
                if pitches > 0.0 && pitches.is_finite() {
                    Some(pitches)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn donath_matches_hand_computed_value() {
        // N = 1e6, p = 0.75 → ≈ 34.7 gate pitches (hand-evaluated from
        // the closed form).
        let l = donath_average_wirelength(1.0e6, 0.75).unwrap();
        assert!((l - 34.7).abs() < 0.5, "got {l}");
    }

    #[test]
    fn donath_small_block_value() {
        // N = 50e3, p = 0.6 → ≈ 8.7 gate pitches.
        let l = donath_average_wirelength(5.0e4, 0.6).unwrap();
        assert!((l - 8.7).abs() < 0.3, "got {l}");
    }

    #[test]
    fn donath_grows_with_n_and_p() {
        let mut prev = 0.0;
        for n in [1.0e3, 1.0e4, 1.0e5, 1.0e6, 1.0e8] {
            let l = donath_average_wirelength(n, 0.7).unwrap();
            assert!(l > prev, "L̄ must grow with N (p > 0.5)");
            prev = l;
        }
        let lo = donath_average_wirelength(1.0e6, 0.6).unwrap();
        let hi = donath_average_wirelength(1.0e6, 0.8).unwrap();
        assert!(hi > lo, "L̄ must grow with p");
    }

    #[test]
    fn donath_handles_singular_p_half() {
        let just_below = donath_average_wirelength(1.0e6, 0.5 - 1e-12).unwrap();
        let at = donath_average_wirelength(1.0e6, 0.5).unwrap();
        let just_above = donath_average_wirelength(1.0e6, 0.5 + 1e-12).unwrap();
        assert!((at - just_below).abs() / at < 1e-3);
        assert!((at - just_above).abs() / at < 1e-3);
        assert!(at.is_finite() && at > 1.0);
    }

    #[test]
    fn donath_degenerate_and_invalid_inputs() {
        assert_eq!(donath_average_wirelength(4.0, 0.7), Some(1.0));
        assert_eq!(donath_average_wirelength(0.0, 0.7), Some(1.0));
        assert!(donath_average_wirelength(1.0e6, 0.0).is_none());
        assert!(donath_average_wirelength(1.0e6, 1.0).is_none());
        assert!(donath_average_wirelength(f64::NAN, 0.7).is_none());
    }

    #[test]
    fn block_donath_saturates_at_block_size() {
        let model = WirelengthModel::BlockDonath { block_gates: 1.0e6 };
        let small = model.average_pitches(1.0e5, 0.7).unwrap();
        let at_block = model.average_pitches(1.0e6, 0.7).unwrap();
        let beyond = model.average_pitches(1.0e9, 0.7).unwrap();
        assert!(small < at_block);
        assert!((at_block - beyond).abs() < 1e-12, "saturated beyond block");
    }

    #[test]
    fn flat_donath_keeps_growing() {
        let model = WirelengthModel::FlatDonath;
        let a = model.average_pitches(1.0e6, 0.7).unwrap();
        let b = model.average_pitches(1.0e9, 0.7).unwrap();
        assert!(b > a);
    }

    #[test]
    fn power_law_matches_its_formula() {
        let model = WirelengthModel::PowerLaw { k: 0.9 };
        let l = model.average_pitches(1.0e6, 0.75).unwrap();
        assert!((l - 0.9 * 1.0e6_f64.powf(0.25)).abs() < 1e-9);
        assert!(WirelengthModel::PowerLaw { k: -1.0 }
            .average_pitches(1.0e6, 0.75)
            .is_none());
    }

    #[test]
    fn fixed_model_is_constant() {
        let model = WirelengthModel::Fixed { pitches: 12.0 };
        assert_eq!(model.average_pitches(1.0, 0.7), Some(12.0));
        assert_eq!(model.average_pitches(1.0e12, 0.2), Some(12.0));
        assert!(WirelengthModel::Fixed { pitches: 0.0 }
            .average_pitches(1.0e6, 0.7)
            .is_none());
    }

    #[test]
    fn default_model_is_block_donath_1m() {
        match WirelengthModel::default() {
            WirelengthModel::BlockDonath { block_gates } => {
                assert_eq!(block_gates, 1.0e6);
            }
            other => panic!("unexpected default {other:?}"),
        }
    }
}
