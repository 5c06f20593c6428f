//! BEOL metal-layer estimation ([`BeolEstimator`]) — the paper's Eq. 10.

use crate::donath::WirelengthModel;
use crate::rent::RentParameters;
use serde::{Deserialize, Serialize};
use tdc_technode::NodeParameters;
use tdc_units::{Area, Fingerprint, Length};

/// Estimator for the number of BEOL metal layers a die requires:
///
/// `N_BEOL = ⌈ N_fan · ω · (N_g · L̄_local + N_global · L̄_global) / (η · A_die) ⌉`
///
/// which is the paper's Eq. 10 with an explicit global-net correction:
/// `L̄` from a [`WirelengthModel`] covers the block-local wiring, while
/// a small fraction of nets (`global_net_fraction`) span the die at
/// half-perimeter length. The global term is what makes the estimate
/// *die-size dependent*, so that splitting a die across 3D tiers
/// genuinely saves metal layers — one of the embodied-carbon savings
/// the paper attributes to 3D integration.
///
/// The estimate is clamped to `[1, max_beol_layers]` of the node; the
/// raw demand is exposed through [`RoutingDemand`] (C-INTERMEDIATE).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BeolEstimator {
    rent: RentParameters,
    wirelength: WirelengthModel,
    router_efficiency: f64,
    global_net_fraction: f64,
}

impl Default for BeolEstimator {
    /// Defaults calibrated so a 7 nm logic die (Rent p = 0.66) lands at
    /// ~13–14 of its 15 available layers and a memory-dominated die
    /// (p ≈ 0.45) at 4–6, matching production BEOL stacks.
    fn default() -> Self {
        Self {
            rent: RentParameters::default(),
            wirelength: WirelengthModel::default(),
            router_efficiency: 0.66,
            global_net_fraction: 3.0e-6,
        }
    }
}

/// Intermediate results of a BEOL estimation (see
/// [`BeolEstimator::estimate`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoutingDemand {
    /// Average local interconnect length (physical).
    pub average_wire: Length,
    /// Total local wiring length demanded by all nets.
    pub local_wire_total: Length,
    /// Total global wiring length demanded by the die-spanning nets.
    pub global_wire_total: Length,
    /// Total routing area demand (all layers together).
    pub demand: Area,
    /// Routable area supplied by one metal layer (`η · A_die`).
    pub supply_per_layer: Area,
    /// The unclamped, fractional layer count.
    pub raw_layers: f64,
    /// The final clamped integer layer count.
    pub layers: u32,
}

impl Fingerprint for BeolEstimator {
    fn fingerprint<H: core::hash::Hasher>(&self, state: &mut H) {
        let BeolEstimator {
            rent,
            wirelength,
            router_efficiency,
            global_net_fraction,
        } = self;
        rent.fingerprint(state);
        wirelength.fingerprint(state);
        router_efficiency.fingerprint(state);
        global_net_fraction.fingerprint(state);
    }
}

impl BeolEstimator {
    /// Creates an estimator with explicit sub-models.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error when `router_efficiency` ∉ (0, 1] or
    /// `global_net_fraction` ∉ [0, 1).
    pub fn new(
        rent: RentParameters,
        wirelength: WirelengthModel,
        router_efficiency: f64,
        global_net_fraction: f64,
    ) -> Result<Self, String> {
        if !(router_efficiency > 0.0 && router_efficiency <= 1.0) {
            return Err(format!(
                "router efficiency must be in (0, 1], got {router_efficiency}"
            ));
        }
        if !(0.0..1.0).contains(&global_net_fraction) {
            return Err(format!(
                "global net fraction must be in [0, 1), got {global_net_fraction}"
            ));
        }
        Ok(Self {
            rent,
            wirelength,
            router_efficiency,
            global_net_fraction,
        })
    }

    /// The Rent parameters in use.
    #[must_use]
    pub fn rent(&self) -> RentParameters {
        self.rent
    }

    /// The wirelength model in use.
    #[must_use]
    pub fn wirelength_model(&self) -> WirelengthModel {
        self.wirelength
    }

    /// Returns a copy using different Rent parameters (e.g. a
    /// memory-dominated die with a lower exponent).
    #[must_use]
    pub fn with_rent(mut self, rent: RentParameters) -> Self {
        self.rent = rent;
        self
    }

    /// Returns a copy using a different wirelength model.
    #[must_use]
    pub fn with_wirelength_model(mut self, model: WirelengthModel) -> Self {
        self.wirelength = model;
        self
    }

    /// Full estimation with intermediates.
    ///
    /// Returns `None` when the inputs are non-finite/non-positive or
    /// the wirelength model rejects the Rent exponent.
    #[must_use]
    pub fn estimate(
        &self,
        n_gates: f64,
        die_area: Area,
        node: &NodeParameters,
    ) -> Option<RoutingDemand> {
        if !(n_gates.is_finite() && n_gates > 0.0) {
            return None;
        }
        if !(die_area.mm2().is_finite() && die_area.mm2() > 0.0) {
            return None;
        }
        let pitches = self
            .wirelength
            .average_pitches(n_gates, self.rent.exponent())?;
        let average_wire = node.gate_pitch() * pitches;
        let local_wire_total = average_wire * n_gates;
        // Global nets: a small fraction of all nets, each spanning half
        // the die perimeter (= 2 × edge for a square die).
        let n_global = self.global_net_fraction * n_gates;
        let global_each = die_area.square_side() * 2.0;
        let global_wire_total = global_each * n_global;
        let wire_total = local_wire_total + global_wire_total;
        let demand = Area::from_mm2(self.rent.fanout() * node.wire_pitch().mm() * wire_total.mm());
        let supply_per_layer = die_area * self.router_efficiency;
        let raw_layers = demand.mm2() / supply_per_layer.mm2();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let layers = (raw_layers.ceil().max(1.0) as u32).min(node.max_beol_layers());
        Some(RoutingDemand {
            average_wire,
            local_wire_total,
            global_wire_total,
            demand,
            supply_per_layer,
            raw_layers,
            layers,
        })
    }

    /// Convenience: just the clamped layer count. Degenerate inputs
    /// (zero gates / area) report a single layer.
    #[must_use]
    pub fn layers(&self, n_gates: f64, die_area: Area, node: &NodeParameters) -> u32 {
        self.estimate(n_gates, die_area, node)
            .map_or(1, |d| d.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_technode::{ProcessNode, TechnologyDb};

    fn n7() -> NodeParameters {
        TechnologyDb::shipped_defaults(ProcessNode::N7)
    }

    #[test]
    fn logic_die_lands_near_but_below_node_max() {
        let est = BeolEstimator::default();
        let node = n7();
        // Half-Orin: 8.5 G gates on ~230 mm².
        let area = node.area_for_gates(8.5e9);
        let d = est.estimate(8.5e9, area, &node).unwrap();
        assert!(
            (10..=15).contains(&d.layers),
            "expected 10..=15 layers, got {} (raw {})",
            d.layers,
            d.raw_layers
        );
        assert!(d.layers <= node.max_beol_layers());
    }

    #[test]
    fn memory_die_needs_far_fewer_layers() {
        let node = n7();
        let logic = BeolEstimator::default();
        let memory =
            BeolEstimator::default().with_rent(RentParameters::new(0.45, 3.0, 3.0, 0.25).unwrap());
        let area = node.area_for_gates(4.0e9);
        let l = logic.layers(4.0e9, area, &node);
        let m = memory.layers(4.0e9, area, &node);
        assert!(
            m + 4 <= l,
            "memory ({m}) should need several fewer layers than logic ({l})"
        );
    }

    #[test]
    fn splitting_a_die_saves_layers_via_global_term() {
        let node = n7();
        let est = BeolEstimator::default();
        let full_gates = 17.0e9;
        let full = est
            .estimate(full_gates, node.area_for_gates(full_gates), &node)
            .unwrap();
        let half = est
            .estimate(
                full_gates / 2.0,
                node.area_for_gates(full_gates / 2.0),
                &node,
            )
            .unwrap();
        assert!(
            half.raw_layers < full.raw_layers,
            "half {} !< full {}",
            half.raw_layers,
            full.raw_layers
        );
    }

    #[test]
    fn demand_scales_linearly_with_fanout() {
        let node = n7();
        let base = BeolEstimator::default();
        let doubled = BeolEstimator::new(
            base.rent().with_fanout(base.rent().fanout() * 2.0),
            base.wirelength_model(),
            0.66,
            3.0e-6,
        )
        .unwrap();
        let area = node.area_for_gates(1.0e9);
        let d1 = base.estimate(1.0e9, area, &node).unwrap();
        let d2 = doubled.estimate(1.0e9, area, &node).unwrap();
        assert!((d2.demand.mm2() / d1.demand.mm2() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_exposes_consistent_intermediates() {
        let node = n7();
        let est = BeolEstimator::default();
        let area = node.area_for_gates(1.0e9);
        let d = est.estimate(1.0e9, area, &node).unwrap();
        // demand = fanout · ω · total wire
        let expect = est.rent().fanout()
            * node.wire_pitch().mm()
            * (d.local_wire_total.mm() + d.global_wire_total.mm());
        assert!((d.demand.mm2() - expect).abs() / expect < 1e-12);
        // supply = η · A
        assert!((d.supply_per_layer.mm2() - area.mm2() * 0.66).abs() < 1e-9);
        assert!((d.raw_layers - d.demand.mm2() / d.supply_per_layer.mm2()).abs() < 1e-12);
    }

    #[test]
    fn clamps_to_node_max() {
        // 28 nm has a scale-free demand above its 10-layer stack; the
        // estimate must clamp rather than report an unbuildable stack.
        let node = TechnologyDb::shipped_defaults(ProcessNode::N28);
        let est = BeolEstimator::default();
        let area = node.area_for_gates(2.0e9);
        let layers = est.layers(2.0e9, area, &node);
        assert_eq!(layers, node.max_beol_layers());
    }

    #[test]
    fn degenerate_inputs_are_rejected_gracefully() {
        let node = n7();
        let est = BeolEstimator::default();
        assert!(est.estimate(0.0, Area::from_mm2(100.0), &node).is_none());
        assert!(est.estimate(1.0e9, Area::ZERO, &node).is_none());
        assert!(est
            .estimate(f64::NAN, Area::from_mm2(100.0), &node)
            .is_none());
        assert_eq!(est.layers(0.0, Area::from_mm2(100.0), &node), 1);
    }

    #[test]
    fn constructor_validates() {
        let rent = RentParameters::default();
        let wl = WirelengthModel::default();
        assert!(BeolEstimator::new(rent, wl, 0.0, 0.0).is_err());
        assert!(BeolEstimator::new(rent, wl, 1.5, 0.0).is_err());
        assert!(BeolEstimator::new(rent, wl, 0.5, 1.0).is_err());
        assert!(BeolEstimator::new(rent, wl, 0.5, 0.0).is_ok());
    }
}
