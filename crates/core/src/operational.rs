//! The operational-carbon report types and [`Workload`] (Eqs. 16–18).
//!
//! The computation itself lives in [`crate::pipeline`]: the
//! workload-independent silicon half is the cached
//! [`PowerProfile`](crate::pipeline::PowerProfile) artifact, and
//! [`operational_report`](crate::pipeline::operational_report) folds a
//! workload over it.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tdc_power::BandwidthVerdict;
use tdc_traces::TraceProfile;
use tdc_units::{Bandwidth, Co2Mass, Efficiency, Energy, Power, Throughput, TimeSpan};

/// One phase of the application mix (Eq. 16's index `k`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPhase {
    /// Phase label.
    pub name: String,
    /// Fixed throughput demanded while the phase runs (`Th_app_k`).
    pub throughput: Throughput,
    /// Total active time in this phase over the device life
    /// (`T_app_k`).
    pub duration: TimeSpan,
}

/// The application workload: the fixed-throughput mission profile plus
/// its data-movement intensity, average utilization, and the calendar
/// window the mission is spread over.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    phases: Vec<WorkloadPhase>,
    bytes_per_op: f64,
    average_bytes_per_op: Option<f64>,
    average_utilization: f64,
    calendar_lifetime: Option<TimeSpan>,
    /// Measured duty/grid trace standing in for the scalar
    /// utilization (and, when it has an intensity column, for the use
    /// region's constant grid). `Arc`: the profile can hold millions
    /// of compacted samples and every sweep point shares it. Its
    /// compact `Debug`/`PartialEq` (content fingerprint) keep the
    /// derived impls here cheap — the operational stage tag hashes
    /// this type's `Debug` rendering on every sweep call.
    trace: Option<Arc<TraceProfile>>,
}

/// Default interface-traffic intensity for DNN inference: bytes moved
/// across a die bisection per operation, with on-chip reuse.
const DEFAULT_BYTES_PER_OP: f64 = 0.1;

impl Workload {
    /// A single-phase fixed-throughput workload (the AV pattern:
    /// `throughput` sustained for `active_time` total).
    #[must_use]
    pub fn fixed(name: impl Into<String>, throughput: Throughput, active_time: TimeSpan) -> Self {
        Self::new(vec![WorkloadPhase {
            name: name.into(),
            throughput,
            duration: active_time,
        }])
    }

    /// A multi-phase workload.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    #[must_use]
    pub fn new(phases: Vec<WorkloadPhase>) -> Self {
        assert!(!phases.is_empty(), "a workload needs at least one phase");
        Self {
            phases,
            bytes_per_op: DEFAULT_BYTES_PER_OP,
            average_bytes_per_op: None,
            average_utilization: 1.0,
            calendar_lifetime: None,
            trace: None,
        }
    }

    /// Overrides the interface-traffic intensity (bytes per op).
    ///
    /// # Panics
    ///
    /// Panics if non-finite or negative.
    #[must_use]
    pub fn with_bytes_per_op(mut self, bytes_per_op: f64) -> Self {
        assert!(
            bytes_per_op.is_finite() && bytes_per_op >= 0.0,
            "bytes per op must be non-negative"
        );
        self.bytes_per_op = bytes_per_op;
        self
    }

    /// Sets the average fraction of the phase throughput actually
    /// exercised while active. The design is *sized* (and its
    /// bandwidth validated) at the phase throughput; *energy* follows
    /// the average. Default 1.0 (always at peak).
    ///
    /// # Panics
    ///
    /// Panics if outside `(0, 1]`.
    #[must_use]
    pub fn with_average_utilization(mut self, utilization: f64) -> Self {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "average utilization must be in (0, 1], got {utilization}"
        );
        self.average_utilization = utilization;
        self
    }

    /// Sets the calendar window the mission is spread over (e.g. a
    /// 10-year vehicle life for a few-hundred-hour active mission).
    /// Decision metrics (`T_c`/`T_r`) are reported against calendar
    /// time when this is set.
    ///
    /// # Panics
    ///
    /// Panics when the span is not finite and positive.
    #[must_use]
    pub fn with_calendar_lifetime(mut self, lifetime: TimeSpan) -> Self {
        assert!(
            lifetime.hours().is_finite() && lifetime.hours() > 0.0,
            "calendar lifetime must be finite and positive"
        );
        self.calendar_lifetime = Some(lifetime);
        self
    }

    /// The phases.
    #[must_use]
    pub fn phases(&self) -> &[WorkloadPhase] {
        &self.phases
    }

    /// Data-movement intensity in bytes per operation — the
    /// *worst-case* provisioning figure that sets the Eq. 18 bandwidth
    /// requirement.
    #[must_use]
    pub fn bytes_per_op(&self) -> f64 {
        self.bytes_per_op
    }

    /// Sets the *average* cross-die traffic intensity used for I/O
    /// energy (on-chip reuse makes steady-state traffic far below the
    /// worst-case provisioning).
    ///
    /// # Panics
    ///
    /// Panics if non-finite or negative.
    #[must_use]
    pub fn with_average_bytes_per_op(mut self, bytes_per_op: f64) -> Self {
        assert!(
            bytes_per_op.is_finite() && bytes_per_op >= 0.0,
            "average bytes per op must be non-negative"
        );
        self.average_bytes_per_op = Some(bytes_per_op);
        self
    }

    /// Average cross-die traffic intensity (bytes per op) for I/O
    /// energy. Defaults to 5 % of the worst-case [`bytes_per_op`]
    /// (typical DNN reuse keeps mean bisection traffic an order or
    /// more below the provisioning point).
    ///
    /// [`bytes_per_op`]: Workload::bytes_per_op
    #[must_use]
    pub fn average_bytes_per_op(&self) -> f64 {
        self.average_bytes_per_op
            .unwrap_or(self.bytes_per_op * 0.05)
    }

    /// Average utilization of the phase throughput while active.
    #[must_use]
    pub fn average_utilization(&self) -> f64 {
        self.average_utilization
    }

    /// Attaches a measured trace: operational pricing then uses the
    /// trace's time-weighted mean utilization instead of
    /// [`average_utilization`](Workload::average_utilization), and —
    /// when the trace carries a grid-intensity column — its
    /// energy-weighted intensity instead of the context's constant
    /// use-region grid. The trace is a *representative duty cycle*:
    /// its statistics price the whole mission; phase durations and
    /// the calendar window are unchanged. A trace whose samples are
    /// all bitwise-identical prices byte-identically to the scalar
    /// path.
    #[must_use]
    pub fn with_trace(mut self, trace: Arc<TraceProfile>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The attached trace, if any.
    #[must_use]
    pub fn trace(&self) -> Option<&Arc<TraceProfile>> {
        self.trace.as_ref()
    }

    /// The calendar window, if set.
    #[must_use]
    pub fn calendar_lifetime(&self) -> Option<TimeSpan> {
        self.calendar_lifetime
    }

    /// The highest phase throughput — the design's sizing requirement.
    #[must_use]
    pub fn peak_throughput(&self) -> Throughput {
        self.phases
            .iter()
            .map(|p| p.throughput)
            .fold(Throughput::ZERO, Throughput::max)
    }

    /// Die-to-die bandwidth the workload requires (Eq. 18's demand
    /// side): `peak ops/s × bytes/op`, in bits.
    #[must_use]
    pub fn required_bandwidth(&self) -> Bandwidth {
        let ops_per_s = self.peak_throughput().tops() * 1.0e12;
        Bandwidth::from_gbps(ops_per_s * self.bytes_per_op * 8.0 / 1.0e9)
    }

    /// Total active mission time.
    #[must_use]
    pub fn mission_time(&self) -> TimeSpan {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// The Eq. 2 service time: the calendar window when one is
    /// declared (an AV drives a few hours a day but `T_c`/`T_r` are
    /// quoted in years of ownership), the active mission time
    /// otherwise. The single home of the convention shared by
    /// [`CarbonModel::compare`](crate::CarbonModel::compare) and the
    /// exploration engine's decision ranking and lifetime axis.
    #[must_use]
    pub fn service_time(&self) -> TimeSpan {
        self.calendar_lifetime
            .unwrap_or_else(|| self.mission_time())
    }

    /// The same workload with every phase duration — and the calendar
    /// window, when set — scaled by `factor`. Throughputs, data
    /// intensities, and utilization are untouched, so the duty profile
    /// is preserved; only the service lifetime moves. This is the
    /// lever behind the exploration engine's lifetime refinement axis
    /// ([`crate::explore::RefineAxis::LifetimeYears`]).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "lifetime scale factor must be finite and positive, got {factor}"
        );
        let mut scaled = self.clone();
        for phase in &mut scaled.phases {
            phase.duration = phase.duration * factor;
        }
        scaled.calendar_lifetime = scaled.calendar_lifetime.map(|t| t * factor);
        scaled
    }
}

/// Per-die slice of the operational report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DieOperationalReport {
    /// Die name.
    pub name: String,
    /// Share of the application throughput this die delivers.
    pub share: f64,
    /// Energy efficiency used (measured or surveyed).
    pub efficiency: Efficiency,
    /// Compute power at peak throughput.
    pub compute_power: Power,
    /// Interface I/O lanes provisioned (Eq. 17's `N_pitch`).
    pub io_lanes: f64,
    /// Interface I/O driver power (Eq. 17's `P_IO`).
    pub io_power: Power,
}

/// The operational-carbon report (Eqs. 16–18).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperationalReport {
    /// Per-die details.
    pub dies: Vec<DieOperationalReport>,
    /// Steady-state power at peak throughput (Eq. 17, after any
    /// bandwidth degradation).
    pub power: Power,
    /// Bandwidth verdict (None for 2D designs or when the constraint
    /// is disabled).
    pub verdict: Option<BandwidthVerdict>,
    /// Achieved die-to-die bandwidth (None for 2D).
    pub achieved_bandwidth: Option<Bandwidth>,
    /// Workload-required bandwidth.
    pub required_bandwidth: Bandwidth,
    /// Runtime stretch applied to the mission (≥ 1).
    pub runtime_stretch: f64,
    /// Total use-phase energy.
    pub energy: Energy,
    /// Unstretched mission time.
    pub mission_time: TimeSpan,
    /// `C_operational` (Eq. 16).
    pub carbon: Co2Mass,
}

impl OperationalReport {
    /// `true` unless the bandwidth constraint ruled the design invalid.
    #[must_use]
    pub fn is_viable(&self) -> bool {
        self.verdict.is_none_or(BandwidthVerdict::is_viable)
    }

    /// Mission-averaged power (energy over unstretched mission time) —
    /// the `P_app` that enters the Eq. 2 decision metrics.
    #[must_use]
    pub fn average_power(&self) -> Power {
        if self.mission_time.hours() <= 0.0 {
            Power::ZERO
        } else {
            self.energy / self.mission_time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ModelContext;
    use crate::design::{ChipDesign, DieSpec};
    use crate::model::CarbonModel;
    use tdc_integration::StackOrientation;
    use tdc_technode::ProcessNode;
    use tdc_yield::StackingFlow;

    fn ctx() -> ModelContext {
        ModelContext::default()
    }

    fn workload() -> Workload {
        Workload::fixed(
            "inference",
            Throughput::from_tops(254.0),
            TimeSpan::from_years(10.0) * (8.0 / 24.0),
        )
    }

    fn die_n7(name: &str, gates: f64) -> DieSpec {
        DieSpec::builder(name, ProcessNode::N7)
            .gate_count(gates)
            .efficiency(Efficiency::from_tops_per_watt(2.74))
            .build()
            .unwrap()
    }

    fn eval(design: &ChipDesign) -> OperationalReport {
        CarbonModel::new(ctx())
            .operational(design, &workload())
            .unwrap()
    }

    #[test]
    fn monolithic_power_matches_eq17() {
        let design = ChipDesign::monolithic_2d(die_n7("orin", 17.0e9));
        let r = eval(&design);
        assert!(r.verdict.is_none());
        assert_eq!(r.runtime_stretch, 1.0);
        assert!((r.power.watts() - 254.0 / 2.74).abs() < 1e-6);
        // C_op = CI·P·T
        let expect_kwh = r.power.watts() * r.mission_time.hours() / 1.0e3;
        assert!((r.energy.kwh() - expect_kwh).abs() / expect_kwh < 1e-9);
        assert!((r.carbon.kg() - 0.475 * r.energy.kwh()).abs() < 1e-6);
        assert!(r.is_viable());
    }

    #[test]
    fn hybrid_3d_has_no_io_power_and_stays_valid() {
        let design = ChipDesign::stack_3d(
            vec![die_n7("t0", 8.5e9), die_n7("t1", 8.5e9)],
            tdc_integration::IntegrationTechnology::HybridBonding3d,
            StackOrientation::FaceToFace,
            Some(StackingFlow::DieToWafer),
        )
        .unwrap();
        let r = eval(&design);
        assert!(r.is_viable());
        assert_eq!(r.runtime_stretch, 1.0);
        for d in &r.dies {
            assert_eq!(d.io_power, Power::ZERO);
            assert!((d.share - 0.5).abs() < 1e-12);
        }
        // Total compute power is the 2D value divided by the hybrid
        // bond's interconnect-shortening uplift (§2.2.2).
        assert!((r.power.watts() - 254.0 / 2.74 / 1.05).abs() < 1e-6);
    }

    #[test]
    fn emib_orin_is_valid_but_mcm_is_not() {
        let mk = |tech| {
            ChipDesign::assembly_25d(vec![die_n7("l", 8.5e9), die_n7("r", 8.5e9)], tech).unwrap()
        };
        let emib = eval(&mk(tdc_integration::IntegrationTechnology::Emib));
        assert!(
            emib.is_viable(),
            "EMIB must carry Orin-class traffic: {:?} vs required {:?}",
            emib.achieved_bandwidth,
            emib.required_bandwidth
        );
        let mcm = eval(&mk(tdc_integration::IntegrationTechnology::Mcm));
        assert!(!mcm.is_viable(), "MCM must starve Orin-class traffic");
        assert!(mcm.runtime_stretch > 1.0);
        // Degraded designs burn more operational carbon (longer runtime
        // + SerDes I/O power).
        assert!(mcm.carbon > emib.carbon);
    }

    #[test]
    fn io_power_counted_for_25d() {
        let design = ChipDesign::assembly_25d(
            vec![die_n7("l", 8.5e9), die_n7("r", 8.5e9)],
            tdc_integration::IntegrationTechnology::SiliconInterposer,
        )
        .unwrap();
        let r = eval(&design);
        let io: f64 = r.dies.iter().map(|d| d.io_power.watts()).sum();
        assert!(io > 0.0);
        assert!(r.power.watts() > 254.0 / 2.74);
    }

    #[test]
    fn explicit_zero_share_die_draws_no_compute_power() {
        let logic = DieSpec::builder("logic", ProcessNode::N7)
            .gate_count(15.0e9)
            .efficiency(Efficiency::from_tops_per_watt(2.74))
            .compute_share(1.0)
            .build()
            .unwrap();
        let memio = DieSpec::builder("memio", ProcessNode::N28)
            .gate_count(2.0e9)
            .compute_share(0.0)
            .build()
            .unwrap();
        let design = ChipDesign::stack_3d(
            vec![memio, logic],
            tdc_integration::IntegrationTechnology::HybridBonding3d,
            StackOrientation::FaceToFace,
            Some(StackingFlow::DieToWafer),
        )
        .unwrap();
        let r = eval(&design);
        assert_eq!(r.dies[0].share, 0.0);
        assert_eq!(r.dies[0].compute_power, Power::ZERO);
        assert_eq!(r.dies[1].share, 1.0);
    }

    #[test]
    fn all_zero_shares_is_an_error() {
        let c = ctx();
        let dies = vec![
            DieSpec::builder("a", ProcessNode::N7)
                .gate_count(1.0e9)
                .compute_share(0.0)
                .build()
                .unwrap(),
            DieSpec::builder("b", ProcessNode::N7)
                .gate_count(1.0e9)
                .compute_share(0.0)
                .build()
                .unwrap(),
        ];
        let design =
            ChipDesign::assembly_25d(dies, tdc_integration::IntegrationTechnology::Emib).unwrap();
        let err = CarbonModel::new(c)
            .operational(&design, &workload())
            .unwrap_err();
        assert!(err.to_string().contains("shares"));
    }

    #[test]
    fn disabling_the_constraint_marks_everything_valid() {
        let c = ModelContext::builder().bandwidth_constraint(false).build();
        let design = ChipDesign::assembly_25d(
            vec![die_n7("l", 8.5e9), die_n7("r", 8.5e9)],
            tdc_integration::IntegrationTechnology::Mcm,
        )
        .unwrap();
        let r = CarbonModel::new(c)
            .operational(&design, &workload())
            .unwrap();
        assert!(r.verdict.is_none());
        assert_eq!(r.runtime_stretch, 1.0);
    }

    #[test]
    fn average_power_is_energy_over_mission() {
        let design = ChipDesign::monolithic_2d(die_n7("orin", 17.0e9));
        let r = eval(&design);
        let avg = r.average_power();
        assert!((avg.watts() - r.power.watts()).abs() < 1e-6);
    }

    #[test]
    fn workload_helpers() {
        let w = workload();
        assert!((w.peak_throughput().tops() - 254.0).abs() < 1e-12);
        // 254 TOPS × 0.1 B/op × 8 b/B = 203.2 Tb/s.
        assert!((w.required_bandwidth().tbps() - 203.2).abs() < 1e-6);
        assert!(w.mission_time().hours() > 0.0);
        let w2 = w.clone().with_bytes_per_op(0.2);
        assert!((w2.required_bandwidth().tbps() - 406.4).abs() < 1e-6);
    }

    #[test]
    fn surveyed_fallback_used_without_explicit_efficiency() {
        let die = DieSpec::builder("orin", ProcessNode::N7)
            .gate_count(17.0e9)
            .build()
            .unwrap();
        let design = ChipDesign::monolithic_2d(die);
        let r = eval(&design);
        // Survey pins 7 nm at 2.74 TOPS/W, so power matches Table 4.
        assert!((r.power.watts() - 254.0 / 2.74).abs() < 1e-6);
    }
}
