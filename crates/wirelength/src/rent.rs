//! Rent's rule ([`RentParameters`]).

use core::hash::Hasher;
use serde::{Deserialize, Serialize};
use tdc_units::Fingerprint;

/// Parameters of Rent's rule `T = t_g · N^p` and the associated wiring
/// statistics.
///
/// * `exponent` — the Rent exponent `p` (paper Table 2: 0.6–0.8 for the
///   internal wiring region; default 0.66, a typical logic value).
/// * `terminals_per_gate` — the Rent coefficient `t_g` (average
///   terminals of a single gate; default 3.0 for 2-input gates plus
///   output).
/// * `fanout` — average net fanout `N_fan` used by the BEOL demand
///   model (paper Table 2: 1–5; default 3).
/// * `external_exponent` — Rent "region II" exponent governing how the
///   *package-level* I/O count flattens for very large N (default
///   0.25). Real chips expose thousands, not millions, of external
///   signals; the region-II exponent captures that saturation.
///
/// ```
/// use tdc_wirelength::RentParameters;
/// let rent = RentParameters::default();
/// // A 1M-gate block exposes ~t_g · N^p terminals on its boundary.
/// let cut = rent.cut_terminals(1.0e6);
/// assert!(cut > 1.0e3 && cut < 1.0e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RentParameters {
    exponent: f64,
    terminals_per_gate: f64,
    fanout: f64,
    external_exponent: f64,
}

impl Default for RentParameters {
    fn default() -> Self {
        Self {
            exponent: 0.66,
            terminals_per_gate: 3.0,
            fanout: 3.0,
            external_exponent: 0.25,
        }
    }
}

impl Fingerprint for RentParameters {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let RentParameters {
            exponent,
            terminals_per_gate,
            fanout,
            external_exponent,
        } = self;
        exponent.fingerprint(state);
        terminals_per_gate.fingerprint(state);
        fanout.fingerprint(state);
        external_exponent.fingerprint(state);
    }
}

impl RentParameters {
    /// Creates Rent parameters, validating physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error string when `exponent` ∉ (0, 1),
    /// `terminals_per_gate` ≤ 0, `fanout` ≤ 0, or
    /// `external_exponent` ∉ (0, 1).
    pub fn new(
        exponent: f64,
        terminals_per_gate: f64,
        fanout: f64,
        external_exponent: f64,
    ) -> Result<Self, String> {
        if !(0.0..1.0).contains(&exponent) || exponent == 0.0 {
            return Err(format!("Rent exponent must be in (0, 1), got {exponent}"));
        }
        if !(terminals_per_gate > 0.0 && terminals_per_gate.is_finite()) {
            return Err(format!(
                "terminals per gate must be positive, got {terminals_per_gate}"
            ));
        }
        if !(fanout > 0.0 && fanout.is_finite()) {
            return Err(format!("fanout must be positive, got {fanout}"));
        }
        if !(0.0..1.0).contains(&external_exponent) || external_exponent == 0.0 {
            return Err(format!(
                "external Rent exponent must be in (0, 1), got {external_exponent}"
            ));
        }
        Ok(Self {
            exponent,
            terminals_per_gate,
            fanout,
            external_exponent,
        })
    }

    /// The Rent exponent `p`.
    #[must_use]
    pub fn exponent(self) -> f64 {
        self.exponent
    }

    /// The Rent coefficient `t_g`.
    #[must_use]
    pub fn terminals_per_gate(self) -> f64 {
        self.terminals_per_gate
    }

    /// The average net fanout `N_fan`.
    #[must_use]
    pub fn fanout(self) -> f64 {
        self.fanout
    }

    /// The region-II (external I/O) Rent exponent.
    #[must_use]
    pub fn external_exponent(self) -> f64 {
        self.external_exponent
    }

    /// Returns a copy with a different internal exponent.
    ///
    /// # Panics
    ///
    /// Panics if `p` ∉ (0, 1).
    #[must_use]
    pub fn with_exponent(self, p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "Rent exponent must be in (0,1)");
        Self {
            exponent: p,
            ..self
        }
    }

    /// Returns a copy with a different fanout.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is not positive and finite.
    #[must_use]
    pub fn with_fanout(self, fanout: f64) -> Self {
        assert!(
            fanout > 0.0 && fanout.is_finite(),
            "fanout must be positive"
        );
        Self { fanout, ..self }
    }

    /// Rent terminal count `T = t_g · N^p` of an `n_gates` block.
    ///
    /// Returns 0 for non-positive gate counts.
    #[must_use]
    pub fn terminals(self, n_gates: f64) -> f64 {
        if n_gates <= 0.0 {
            return 0.0;
        }
        self.terminals_per_gate * n_gates.powf(self.exponent)
    }

    /// Signals crossing the boundary of a partition holding `n_gates`
    /// gates — the F2B inter-tier TSV count of the paper (§3.2.1,
    /// after Stow et al.): a block-level 3D partition cuts exactly the
    /// nets that Rent's rule predicts would leave a block of that size.
    #[must_use]
    pub fn cut_terminals(self, n_gates: f64) -> f64 {
        self.terminals(n_gates)
    }

    /// Signals crossing the *bisection* of an `n_gates` die — the cut
    /// between the two halves, `t_g · (N/2)^p`. Feeds the on-chip
    /// bandwidth estimate.
    #[must_use]
    pub fn bisection_cut(self, n_gates: f64) -> f64 {
        self.terminals(n_gates / 2.0)
    }

    /// External (package-level) I/O count, using the flattened
    /// region-II exponent: `t_g · N^p_ext`. This is the paper's "IO
    /// number" that sets the F2F TSV count.
    #[must_use]
    pub fn external_io_count(self, n_gates: f64) -> f64 {
        if n_gates <= 0.0 {
            return 0.0;
        }
        self.terminals_per_gate * n_gates.powf(self.external_exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parameters_are_in_paper_ranges() {
        let rent = RentParameters::default();
        assert!((0.6..=0.8).contains(&rent.exponent()));
        assert!((1.0..=5.0).contains(&rent.fanout()));
    }

    #[test]
    fn validation_rejects_nonphysical_values() {
        assert!(RentParameters::new(0.0, 3.0, 3.0, 0.25).is_err());
        assert!(RentParameters::new(1.0, 3.0, 3.0, 0.25).is_err());
        assert!(RentParameters::new(0.7, -3.0, 3.0, 0.25).is_err());
        assert!(RentParameters::new(0.7, 3.0, 0.0, 0.25).is_err());
        assert!(RentParameters::new(0.7, 3.0, 3.0, 1.5).is_err());
        assert!(RentParameters::new(0.7, 3.0, 3.0, 0.25).is_ok());
    }

    #[test]
    fn terminals_follow_power_law() {
        let rent = RentParameters::new(0.5, 2.0, 3.0, 0.25).unwrap();
        assert!((rent.terminals(1.0e6) - 2.0e3).abs() < 1e-9);
        assert_eq!(rent.terminals(0.0), 0.0);
        assert_eq!(rent.terminals(-5.0), 0.0);
    }

    #[test]
    fn cut_grows_sublinearly() {
        let rent = RentParameters::default();
        let small = rent.cut_terminals(1.0e6);
        let large = rent.cut_terminals(4.0e6);
        // 4× the gates should give < 4× the cut (p < 1).
        assert!(large / small < 4.0);
        assert!(large / small > 1.0);
        // Specifically 4^p.
        assert!((large / small - 4.0_f64.powf(0.66)).abs() < 1e-9);
    }

    #[test]
    fn bisection_cut_is_half_block_terminals() {
        let rent = RentParameters::default();
        assert!((rent.bisection_cut(2.0e6) - rent.terminals(1.0e6)).abs() < 1e-9);
    }

    #[test]
    fn external_io_count_is_realistic_for_big_socs() {
        let rent = RentParameters::default();
        // 17 G gates (Orin-class) should expose thousands, not millions,
        // of external signals.
        let ios = rent.external_io_count(17.0e9);
        assert!((1.0e3..1.0e5).contains(&ios), "got {ios}");
        assert!(ios < rent.cut_terminals(17.0e9));
        assert_eq!(rent.external_io_count(0.0), 0.0);
    }

    #[test]
    fn with_builders_panic_on_bad_input() {
        let rent = RentParameters::default();
        assert_eq!(rent.with_exponent(0.7).exponent(), 0.7);
        assert_eq!(rent.with_fanout(4.0).fanout(), 4.0);
        let r = std::panic::catch_unwind(|| rent.with_exponent(1.2));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| rent.with_fanout(-1.0));
        assert!(r.is_err());
    }
}
