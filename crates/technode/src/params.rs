//! Per-node foundry parameters ([`NodeParameters`]) and the
//! [`TechnologyDb`] registry of shipped defaults.

use crate::node::ProcessNode;
use core::hash::{Hash, Hasher};
use serde::{Deserialize, Serialize};
use tdc_units::{Area, CarbonPerArea, EnergyPerArea, Fingerprint, Length, ShortFloat};

/// Physical and environmental parameters of one process node.
///
/// These are the "foundry related parameters" of the paper's Table 2:
/// feature size λ, layout-density factor β (so that one gate occupies
/// `β·λ²`), the fab's energy / gas / raw-material footprints per unit
/// processed area (EPA / GPA / MPA), the negative-binomial yield inputs
/// (defect density `D0`, clustering parameter `α`), the TSV diameter
/// available at this node, and the maximum number of BEOL metal layers
/// the node's stack supports.
///
/// Values are immutable once built; use [`NodeParameters::builder`] (or
/// [`NodeParameters::to_builder`]) to derive variants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeParameters {
    node: ProcessNode,
    feature_size: Length,
    beta: f64,
    max_beol_layers: u32,
    energy_per_area: EnergyPerArea,
    gas_per_area: CarbonPerArea,
    material_per_area: CarbonPerArea,
    defect_density_per_cm2: f64,
    clustering_alpha: f64,
    tsv_diameter: Length,
}

impl NodeParameters {
    /// Starts building parameters for `node`.
    #[must_use]
    pub fn builder(node: ProcessNode) -> NodeParametersBuilder {
        NodeParametersBuilder::new(node)
    }

    /// Re-opens these parameters as a builder for modification.
    #[must_use]
    pub fn to_builder(&self) -> NodeParametersBuilder {
        NodeParametersBuilder {
            node: self.node,
            feature_size: Some(self.feature_size),
            beta: self.beta,
            max_beol_layers: self.max_beol_layers,
            energy_per_area: self.energy_per_area,
            gas_per_area: self.gas_per_area,
            material_per_area: self.material_per_area,
            defect_density_per_cm2: self.defect_density_per_cm2,
            clustering_alpha: self.clustering_alpha,
            tsv_diameter: self.tsv_diameter,
        }
    }

    /// The node these parameters describe.
    #[must_use]
    pub fn node(&self) -> ProcessNode {
        self.node
    }

    /// Feature size λ.
    #[must_use]
    pub fn feature_size(&self) -> Length {
        self.feature_size
    }

    /// Layout-density factor β (dimensionless; one gate ≈ `β·λ²`).
    ///
    /// The paper's Table 2 lists β ∈ 450–850; calibrated here so that
    /// NVIDIA Orin (17 G gates at 7 nm) lands near its real ≈455 mm² die.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Maximum BEOL metal layer count supported by this node's stack.
    #[must_use]
    pub fn max_beol_layers(&self) -> u32 {
        self.max_beol_layers
    }

    /// Fab energy per unit processed area (`EPA`, Eq. 6).
    #[must_use]
    pub fn energy_per_area(&self) -> EnergyPerArea {
        self.energy_per_area
    }

    /// Fab direct gas emissions per unit processed area (`GPA`, Eq. 6).
    #[must_use]
    pub fn gas_per_area(&self) -> CarbonPerArea {
        self.gas_per_area
    }

    /// Raw-material footprint per unit processed area (`MPA`, Eq. 6).
    #[must_use]
    pub fn material_per_area(&self) -> CarbonPerArea {
        self.material_per_area
    }

    /// Defect density `D0` in defects per cm² (Eq. 15).
    #[must_use]
    pub fn defect_density_per_cm2(&self) -> f64 {
        self.defect_density_per_cm2
    }

    /// Negative-binomial clustering parameter `α` (Eq. 15).
    #[must_use]
    pub fn clustering_alpha(&self) -> f64 {
        self.clustering_alpha
    }

    /// Through-silicon-via diameter `D_TSV` available at this node.
    #[must_use]
    pub fn tsv_diameter(&self) -> Length {
        self.tsv_diameter
    }

    /// Area of a single logic gate: `β · λ²` (the per-gate form of the
    /// paper's Eq. 8).
    #[must_use]
    pub fn gate_area(&self) -> Area {
        self.feature_size.squared() * self.beta
    }

    /// Gate density in gates per mm².
    #[must_use]
    pub fn gate_density_per_mm2(&self) -> f64 {
        1.0 / self.gate_area().mm2()
    }

    /// Total gate area for `gates` logic gates (Eq. 8:
    /// `A_gate = N_g · β · λ²`).
    #[must_use]
    pub fn area_for_gates(&self, gates: f64) -> Area {
        self.gate_area() * gates
    }

    /// Inverse of [`NodeParameters::area_for_gates`]: how many gates fit
    /// in `area`.
    #[must_use]
    pub fn gates_for_area(&self, area: Area) -> f64 {
        area.mm2() / self.gate_area().mm2()
    }

    /// BEOL wire pitch ω = 3.6 λ (Table 2, after Stow et al.).
    #[must_use]
    pub fn wire_pitch(&self) -> Length {
        self.feature_size * 3.6
    }

    /// Average gate pitch √(β)·λ — the side of the square occupied by
    /// one gate; converts wirelength expressed in gate pitches into a
    /// physical length.
    #[must_use]
    pub fn gate_pitch(&self) -> Length {
        self.feature_size * self.beta.sqrt()
    }

    /// Silicon area consumed by a single TSV, modelled as a square
    /// keep-out of side `keepout × D_TSV` (landing pad + exclusion
    /// zone). `keepout` is typically 1.5–3; the model default is 2.
    #[must_use]
    pub fn tsv_occupied_area(&self, keepout: f64) -> Area {
        (self.tsv_diameter * keepout).squared()
    }

    /// Checks every field against the ranges published in the paper's
    /// Table 2, returning a human-readable violation per out-of-range
    /// field. An empty vector means fully range-faithful.
    #[must_use]
    pub fn paper_range_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let nm = self.feature_size.nm();
        if !(3.0..=28.0).contains(&nm) {
            violations.push(format!("feature size {nm} nm outside 3–28 nm"));
        }
        if !(450.0..=850.0).contains(&self.beta) {
            violations.push(format!("beta {} outside 450–850", self.beta));
        }
        let epa = self.energy_per_area.kwh_per_cm2();
        if !(0.4..=1.0).contains(&epa) {
            violations.push(format!("EPA {epa} kWh/cm² outside 0.4–1.0"));
        }
        let gpa = self.gas_per_area.kg_per_cm2();
        if !(0.1..=0.5).contains(&gpa) {
            violations.push(format!("GPA {gpa} kg/cm² outside 0.1–0.5"));
        }
        let mpa = self.material_per_area.kg_per_cm2();
        if !(0.1..=0.5).contains(&mpa) {
            violations.push(format!("MPA {mpa} kg/cm² outside 0.1–0.5"));
        }
        let tsv = self.tsv_diameter.um();
        if !(0.3..=25.0).contains(&tsv) {
            violations.push(format!("TSV diameter {tsv} µm outside 0.3–25 µm"));
        }
        violations
    }
}

impl Fingerprint for NodeParameters {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let NodeParameters {
            node,
            feature_size,
            beta,
            max_beol_layers,
            energy_per_area,
            gas_per_area,
            material_per_area,
            defect_density_per_cm2,
            clustering_alpha,
            tsv_diameter,
        } = self;
        node.hash(state);
        feature_size.fingerprint(state);
        beta.fingerprint(state);
        max_beol_layers.fingerprint(state);
        energy_per_area.fingerprint(state);
        gas_per_area.fingerprint(state);
        material_per_area.fingerprint(state);
        defect_density_per_cm2.fingerprint(state);
        clustering_alpha.fingerprint(state);
        tsv_diameter.fingerprint(state);
    }
}

/// Builder for [`NodeParameters`] (C-BUILDER).
///
/// Starts from the shipped defaults of the chosen node so that callers
/// only need to override what they study:
///
/// ```
/// use tdc_technode::{NodeParameters, ProcessNode};
///
/// let params = NodeParameters::builder(ProcessNode::N7)
///     .defect_density_per_cm2(0.2)
///     .build()
///     .expect("valid parameters");
/// assert_eq!(params.defect_density_per_cm2(), 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct NodeParametersBuilder {
    node: ProcessNode,
    feature_size: Option<Length>,
    beta: f64,
    max_beol_layers: u32,
    energy_per_area: EnergyPerArea,
    gas_per_area: CarbonPerArea,
    material_per_area: CarbonPerArea,
    defect_density_per_cm2: f64,
    clustering_alpha: f64,
    tsv_diameter: Length,
}

/// Error returned when [`NodeParametersBuilder::build`] is handed
/// non-physical values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidNodeParameters {
    problems: Vec<String>,
}

impl InvalidNodeParameters {
    /// The list of detected problems.
    #[must_use]
    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}

impl core::fmt::Display for InvalidNodeParameters {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid node parameters: {}", self.problems.join("; "))
    }
}

impl std::error::Error for InvalidNodeParameters {}

impl NodeParametersBuilder {
    fn new(node: ProcessNode) -> Self {
        TechnologyDb::shipped_defaults(node).to_builder()
    }

    /// Overrides the feature size λ (defaults to the node's marketing
    /// nanometre figure).
    #[must_use]
    pub fn feature_size(mut self, length: Length) -> Self {
        self.feature_size = Some(length);
        self
    }

    /// Overrides the layout-density factor β.
    #[must_use]
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Overrides the maximum BEOL layer count.
    #[must_use]
    pub fn max_beol_layers(mut self, layers: u32) -> Self {
        self.max_beol_layers = layers;
        self
    }

    /// Overrides the fab energy per area (EPA).
    #[must_use]
    pub fn energy_per_area(mut self, epa: EnergyPerArea) -> Self {
        self.energy_per_area = epa;
        self
    }

    /// Overrides the fab gas emissions per area (GPA).
    #[must_use]
    pub fn gas_per_area(mut self, gpa: CarbonPerArea) -> Self {
        self.gas_per_area = gpa;
        self
    }

    /// Overrides the raw-material footprint per area (MPA).
    #[must_use]
    pub fn material_per_area(mut self, mpa: CarbonPerArea) -> Self {
        self.material_per_area = mpa;
        self
    }

    /// Overrides the defect density `D0` (defects per cm²).
    #[must_use]
    pub fn defect_density_per_cm2(mut self, d0: f64) -> Self {
        self.defect_density_per_cm2 = d0;
        self
    }

    /// Overrides the clustering parameter `α`.
    #[must_use]
    pub fn clustering_alpha(mut self, alpha: f64) -> Self {
        self.clustering_alpha = alpha;
        self
    }

    /// Overrides the TSV diameter.
    #[must_use]
    pub fn tsv_diameter(mut self, diameter: Length) -> Self {
        self.tsv_diameter = diameter;
        self
    }

    /// Finalizes the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidNodeParameters`] when any field is non-finite or
    /// non-positive (zero BEOL layers included): such values would make
    /// the downstream closed forms meaningless rather than merely
    /// unusual.
    pub fn build(self) -> Result<NodeParameters, InvalidNodeParameters> {
        let feature_size = self
            .feature_size
            .unwrap_or_else(|| Length::from_nm(f64::from(self.node.nanometers())));
        let mut problems = Vec::new();
        let mut check = |name: &str, v: f64| {
            if !v.is_finite() || v <= 0.0 {
                problems.push(format!(
                    "{name} must be finite and positive, got {}",
                    ShortFloat(v)
                ));
            }
        };
        check("feature size (mm)", feature_size.mm());
        check("beta", self.beta);
        check("EPA (kWh/cm²)", self.energy_per_area.kwh_per_cm2());
        check("GPA (kg/cm²)", self.gas_per_area.kg_per_cm2());
        check("MPA (kg/cm²)", self.material_per_area.kg_per_cm2());
        check("defect density (1/cm²)", self.defect_density_per_cm2);
        check("clustering alpha", self.clustering_alpha);
        check("TSV diameter (mm)", self.tsv_diameter.mm());
        if self.max_beol_layers == 0 {
            problems.push("max BEOL layers must be at least 1".to_owned());
        }
        if !problems.is_empty() {
            return Err(InvalidNodeParameters { problems });
        }
        Ok(NodeParameters {
            node: self.node,
            feature_size,
            beta: self.beta,
            max_beol_layers: self.max_beol_layers,
            energy_per_area: self.energy_per_area,
            gas_per_area: self.gas_per_area,
            material_per_area: self.material_per_area,
            defect_density_per_cm2: self.defect_density_per_cm2,
            clustering_alpha: self.clustering_alpha,
            tsv_diameter: self.tsv_diameter,
        })
    }
}

/// Registry of [`NodeParameters`] for every [`ProcessNode`].
///
/// `TechnologyDb::default()` ships the calibrated defaults; individual
/// nodes can be overridden with [`TechnologyDb::insert`] for
/// sensitivity studies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechnologyDb {
    nodes: Vec<NodeParameters>,
}

impl Default for TechnologyDb {
    fn default() -> Self {
        Self {
            nodes: ProcessNode::ALL
                .into_iter()
                .map(Self::shipped_defaults)
                .collect(),
        }
    }
}

impl Fingerprint for TechnologyDb {
    fn fingerprint<H: Hasher>(&self, state: &mut H) {
        let TechnologyDb { nodes } = self;
        nodes.fingerprint(state);
    }
}

impl TechnologyDb {
    /// Parameters for `node` (shipped defaults unless overridden).
    ///
    /// # Panics
    ///
    /// Never panics: every known node is present by construction.
    #[must_use]
    pub fn node(&self, node: ProcessNode) -> &NodeParameters {
        self.nodes
            .iter()
            .find(|p| p.node() == node)
            .expect("every ProcessNode has an entry")
    }

    /// Replaces the entry for `params.node()`, returning the previous
    /// parameters.
    pub fn insert(&mut self, params: NodeParameters) -> NodeParameters {
        let slot = self
            .nodes
            .iter_mut()
            .find(|p| p.node() == params.node())
            .expect("every ProcessNode has an entry");
        core::mem::replace(slot, params)
    }

    /// Iterates over all entries, finest node first.
    pub fn iter(&self) -> impl Iterator<Item = &NodeParameters> {
        self.nodes.iter()
    }

    /// Parameters for an arbitrary feature size in the supported
    /// 3–28 nm span, linearly interpolated (in nm) between the two
    /// neighbouring known nodes of this database. Exact known sizes
    /// return the stored entry; the node identity snaps to the nearest
    /// known node.
    ///
    /// Returns `None` outside the supported span.
    ///
    /// ```
    /// use tdc_technode::TechnologyDb;
    /// let db = TechnologyDb::default();
    /// let n6 = db.interpolated(6.0).unwrap();
    /// let n5 = db.node(tdc_technode::ProcessNode::N5);
    /// let n7 = db.node(tdc_technode::ProcessNode::N7);
    /// let epa = n6.energy_per_area().kwh_per_cm2();
    /// assert!(epa < n5.energy_per_area().kwh_per_cm2());
    /// assert!(epa > n7.energy_per_area().kwh_per_cm2());
    /// ```
    #[must_use]
    pub fn interpolated(&self, nm: f64) -> Option<NodeParameters> {
        if !(3.0..=28.0).contains(&nm) || !nm.is_finite() {
            return None;
        }
        // Bracketing known nodes: finest node at/below nm and coarsest
        // node at/above nm (ALL is finest-first).
        let below = ProcessNode::ALL
            .into_iter()
            .filter(|n| f64::from(n.nanometers()) <= nm)
            .max_by_key(|n| n.nanometers());
        let above = ProcessNode::ALL
            .into_iter()
            .filter(|n| f64::from(n.nanometers()) >= nm)
            .min_by_key(|n| n.nanometers());
        let (a, b) = match (below, above) {
            (Some(a), Some(b)) => (a, b),
            _ => return None,
        };
        let pa = self.node(a);
        if a == b {
            return Some(pa.clone());
        }
        let pb = self.node(b);
        let na = f64::from(a.nanometers());
        let nb = f64::from(b.nanometers());
        let t = (nm - na) / (nb - na);
        let lerp = |x: f64, y: f64| x + (y - x) * t;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let beol = lerp(
            f64::from(pa.max_beol_layers()),
            f64::from(pb.max_beol_layers()),
        )
        .round() as u32;
        NodeParameters::builder(ProcessNode::nearest(nm.round() as u32))
            .feature_size(Length::from_nm(nm))
            .beta(lerp(pa.beta(), pb.beta()))
            .max_beol_layers(beol.max(1))
            .energy_per_area(EnergyPerArea::from_kwh_per_cm2(lerp(
                pa.energy_per_area().kwh_per_cm2(),
                pb.energy_per_area().kwh_per_cm2(),
            )))
            .gas_per_area(CarbonPerArea::from_kg_per_cm2(lerp(
                pa.gas_per_area().kg_per_cm2(),
                pb.gas_per_area().kg_per_cm2(),
            )))
            .material_per_area(CarbonPerArea::from_kg_per_cm2(lerp(
                pa.material_per_area().kg_per_cm2(),
                pb.material_per_area().kg_per_cm2(),
            )))
            .defect_density_per_cm2(lerp(
                pa.defect_density_per_cm2(),
                pb.defect_density_per_cm2(),
            ))
            .clustering_alpha(lerp(pa.clustering_alpha(), pb.clustering_alpha()))
            .tsv_diameter(Length::from_um(lerp(
                pa.tsv_diameter().um(),
                pb.tsv_diameter().um(),
            )))
            .build()
            .ok()
    }

    /// The shipped default parameters of `node`.
    ///
    /// The table is synthetic but range-faithful to the paper's Table 2
    /// (see crate docs): EPA grows 0.4 → 1.0 kWh/cm² from 28 nm to 3 nm,
    /// GPA 0.10 → 0.27 and MPA 0.20 → 0.42 kg CO₂e/cm², defect density
    /// 0.07 → 0.20 /cm², TSVs shrink 5 µm → 1 µm.
    #[must_use]
    pub fn shipped_defaults(node: ProcessNode) -> NodeParameters {
        // (β, max BEOL, EPA kWh/cm², GPA kg/cm², MPA kg/cm², D0 /cm², α, TSV µm)
        let (beta, beol, epa, gpa, mpa, d0, alpha, tsv_um) = match node {
            ProcessNode::N3 => (700.0, 18, 1.00, 0.270, 0.420, 0.20, 2.0, 1.0),
            ProcessNode::N5 => (600.0, 16, 0.90, 0.230, 0.360, 0.15, 2.2, 1.5),
            ProcessNode::N7 => (550.0, 15, 0.80, 0.200, 0.320, 0.13, 2.5, 2.0),
            ProcessNode::N8 => (545.0, 14, 0.72, 0.180, 0.300, 0.12, 2.6, 2.2),
            ProcessNode::N10 => (535.0, 14, 0.65, 0.165, 0.280, 0.11, 2.8, 2.5),
            ProcessNode::N12 => (520.0, 13, 0.60, 0.150, 0.265, 0.10, 3.0, 3.0),
            ProcessNode::N14 => (500.0, 13, 0.55, 0.135, 0.250, 0.09, 3.0, 3.5),
            ProcessNode::N16 => (480.0, 12, 0.50, 0.125, 0.235, 0.09, 3.0, 4.0),
            ProcessNode::N20 => (465.0, 11, 0.46, 0.115, 0.222, 0.08, 3.0, 4.2),
            ProcessNode::N22 => (460.0, 11, 0.44, 0.110, 0.215, 0.075, 3.0, 4.5),
            ProcessNode::N28 => (450.0, 10, 0.40, 0.100, 0.200, 0.07, 3.0, 5.0),
        };
        NodeParameters {
            node,
            feature_size: Length::from_nm(f64::from(node.nanometers())),
            beta,
            max_beol_layers: beol,
            energy_per_area: EnergyPerArea::from_kwh_per_cm2(epa),
            gas_per_area: CarbonPerArea::from_kg_per_cm2(gpa),
            material_per_area: CarbonPerArea::from_kg_per_cm2(mpa),
            defect_density_per_cm2: d0,
            clustering_alpha: alpha,
            tsv_diameter: Length::from_um(tsv_um),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_node_has_defaults_within_paper_ranges() {
        let db = TechnologyDb::default();
        for params in db.iter() {
            assert!(
                params.paper_range_violations().is_empty(),
                "{:?}: {:?}",
                params.node(),
                params.paper_range_violations()
            );
        }
    }

    #[test]
    fn environmental_footprints_grow_toward_advanced_nodes() {
        let db = TechnologyDb::default();
        // ALL is finest-first, so footprints must be non-increasing along it.
        let mut prev_epa = f64::INFINITY;
        let mut prev_gpa = f64::INFINITY;
        let mut prev_mpa = f64::INFINITY;
        let mut prev_d0 = f64::INFINITY;
        for params in db.iter() {
            let epa = params.energy_per_area().kwh_per_cm2();
            let gpa = params.gas_per_area().kg_per_cm2();
            let mpa = params.material_per_area().kg_per_cm2();
            assert!(epa <= prev_epa, "{:?}", params.node());
            assert!(gpa <= prev_gpa, "{:?}", params.node());
            assert!(mpa <= prev_mpa, "{:?}", params.node());
            assert!(params.defect_density_per_cm2() <= prev_d0);
            prev_epa = epa;
            prev_gpa = gpa;
            prev_mpa = mpa;
            prev_d0 = params.defect_density_per_cm2();
        }
    }

    #[test]
    fn tsvs_shrink_and_beol_grows_with_scaling() {
        let db = TechnologyDb::default();
        let n3 = db.node(ProcessNode::N3);
        let n28 = db.node(ProcessNode::N28);
        assert!(n3.tsv_diameter() < n28.tsv_diameter());
        assert!(n3.max_beol_layers() > n28.max_beol_layers());
    }

    #[test]
    fn orin_gate_area_calibration() {
        // NVIDIA Orin: 17e9 gates at 7 nm should land near its real
        // ~455 mm² die (within 15 %).
        let db = TechnologyDb::default();
        let n7 = db.node(ProcessNode::N7);
        let area = n7.area_for_gates(17.0e9);
        assert!(
            (area.mm2() - 455.0).abs() / 455.0 < 0.15,
            "got {} mm²",
            area.mm2()
        );
    }

    #[test]
    fn gates_for_area_inverts_area_for_gates() {
        let n7 = TechnologyDb::shipped_defaults(ProcessNode::N7);
        let gates = 1.0e9;
        let area = n7.area_for_gates(gates);
        assert!((n7.gates_for_area(area) - gates).abs() / gates < 1e-12);
    }

    #[test]
    fn wire_and_gate_pitch() {
        let n7 = TechnologyDb::shipped_defaults(ProcessNode::N7);
        assert!((n7.wire_pitch().nm() - 25.2).abs() < 1e-9);
        // gate pitch = sqrt(550)*7nm ≈ 164.2 nm
        assert!((n7.gate_pitch().nm() - 550.0f64.sqrt() * 7.0).abs() < 1e-9);
        assert!(n7.gate_density_per_mm2() > 1.0e7);
    }

    #[test]
    fn tsv_occupied_area_scales_with_keepout() {
        let n7 = TechnologyDb::shipped_defaults(ProcessNode::N7);
        let a1 = n7.tsv_occupied_area(1.0);
        let a2 = n7.tsv_occupied_area(2.0);
        assert!((a2.um2() / a1.um2() - 4.0).abs() < 1e-9);
        assert!((a1.um2() - 4.0).abs() < 1e-9); // 2 µm TSV → 4 µm²
    }

    #[test]
    fn builder_overrides_and_validates() {
        let ok = NodeParameters::builder(ProcessNode::N5)
            .beta(620.0)
            .max_beol_layers(17)
            .defect_density_per_cm2(0.18)
            .build()
            .unwrap();
        assert_eq!(ok.beta(), 620.0);
        assert_eq!(ok.max_beol_layers(), 17);

        let err = NodeParameters::builder(ProcessNode::N5)
            .beta(-1.0)
            .defect_density_per_cm2(f64::NAN)
            .build()
            .unwrap_err();
        assert_eq!(err.problems().len(), 2);
        assert!(err.to_string().contains("beta"));

        let err = NodeParameters::builder(ProcessNode::N5)
            .max_beol_layers(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("BEOL"));
    }

    #[test]
    fn insert_overrides_and_returns_previous() {
        let mut db = TechnologyDb::default();
        let custom = NodeParameters::builder(ProcessNode::N7)
            .defect_density_per_cm2(0.5)
            .build()
            .unwrap();
        let prev = db.insert(custom.clone());
        assert_eq!(prev.defect_density_per_cm2(), 0.13);
        assert_eq!(db.node(ProcessNode::N7), &custom);
    }

    #[test]
    fn interpolation_brackets_and_snaps() {
        let db = TechnologyDb::default();
        // Exact sizes return the stored entry.
        let exact = db.interpolated(7.0).unwrap();
        assert_eq!(&exact, db.node(ProcessNode::N7));
        // 6 nm sits strictly between 5 nm and 7 nm on every field.
        let n6 = db.interpolated(6.0).unwrap();
        let (n5, n7) = (db.node(ProcessNode::N5), db.node(ProcessNode::N7));
        assert!((n6.feature_size().nm() - 6.0).abs() < 1e-9);
        for (lo, mid, hi) in [
            (
                n7.energy_per_area().kwh_per_cm2(),
                n6.energy_per_area().kwh_per_cm2(),
                n5.energy_per_area().kwh_per_cm2(),
            ),
            (n7.beta(), n6.beta(), n5.beta()),
            (
                n7.defect_density_per_cm2(),
                n6.defect_density_per_cm2(),
                n5.defect_density_per_cm2(),
            ),
        ] {
            assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
        }
        // Midpoint is the exact average.
        assert!((n6.beta() - (n5.beta() + n7.beta()) / 2.0).abs() < 1e-9);
        // TSVs shrink toward finer nodes.
        assert!(n6.tsv_diameter() < n7.tsv_diameter());
        assert!(n6.tsv_diameter() > n5.tsv_diameter());
    }

    #[test]
    fn interpolation_rejects_out_of_span() {
        let db = TechnologyDb::default();
        assert!(db.interpolated(2.0).is_none());
        assert!(db.interpolated(40.0).is_none());
        assert!(db.interpolated(f64::NAN).is_none());
        assert!(db.interpolated(3.0).is_some());
        assert!(db.interpolated(28.0).is_some());
    }

    #[test]
    fn interpolation_respects_overrides() {
        let mut db = TechnologyDb::default();
        db.insert(
            NodeParameters::builder(ProcessNode::N7)
                .beta(800.0)
                .build()
                .unwrap(),
        );
        let n6 = db.interpolated(6.0).unwrap();
        // β(6) interpolates the *overridden* 7 nm entry toward 5 nm.
        assert!((n6.beta() - (800.0 + 600.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_range_violations_detects_outliers() {
        let bad = NodeParameters::builder(ProcessNode::N28)
            .beta(2_000.0)
            .energy_per_area(EnergyPerArea::from_kwh_per_cm2(3.0))
            .tsv_diameter(Length::from_um(30.0))
            .build()
            .unwrap();
        let violations = bad.paper_range_violations();
        assert_eq!(violations.len(), 3);
    }
}
