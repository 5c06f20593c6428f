//! Adaptive refinement of one continuous model axis
//! ([`RefineSpec`]/[`RefineAxis`]).
//!
//! Frontier membership — and in particular *which* design wins the
//! primary objective — changes at discrete crossing points as a
//! continuous input (service lifetime, TSV keep-out, …) moves. The
//! refinement loop samples the axis uniformly, then repeatedly bisects
//! every interval whose two endpoints crown different winners, until
//! the interval is narrower than the tolerance or the evaluation
//! budget is spent. Each sample re-executes the plan through the
//! shared [`SweepExecutor`](crate::sweep::SweepExecutor): on
//! operational-only axes (lifetime) every upstream per-stage artifact
//! is answered from the [`EvalCache`](crate::sweep::EvalCache), so
//! refinement rounds are mostly cache hits — the warm hit rate is
//! reported in [`ExploreStats`](crate::explore::ExploreStats) and
//! floored in CI.

use crate::context::ModelContext;
use crate::error::ModelError;
use crate::operational::Workload;
use tdc_units::ShortFloat;

/// The continuous axis a refinement loop walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineAxis {
    /// Service lifetime in calendar years (scales the workload's phase
    /// durations and calendar window; an operational-only axis, so
    /// every geometry/yield/embodied/power artifact is reused across
    /// samples).
    LifetimeYears,
    /// TSV keep-out multiplier (geometry axis: every stage recomputes
    /// per sample).
    TsvKeepout,
    /// M3D sequential-tier process-cost fraction (fab axis).
    M3dSequentialFraction,
    /// BEOL carbon fraction (fab axis).
    BeolCarbonFraction,
}

impl RefineAxis {
    /// Every axis, in presentation order.
    pub const ALL: [RefineAxis; 4] = [
        RefineAxis::LifetimeYears,
        RefineAxis::TsvKeepout,
        RefineAxis::M3dSequentialFraction,
        RefineAxis::BeolCarbonFraction,
    ];

    /// Parses a scenario-file token.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Self> {
        Some(match token.trim().to_ascii_lowercase().as_str() {
            "lifetime_years" | "lifetime" => RefineAxis::LifetimeYears,
            "tsv_keepout" => RefineAxis::TsvKeepout,
            "m3d_sequential_fraction" => RefineAxis::M3dSequentialFraction,
            "beol_carbon_fraction" => RefineAxis::BeolCarbonFraction,
            _ => return None,
        })
    }

    /// Stable label (the scenario-file token).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RefineAxis::LifetimeYears => "lifetime_years",
            RefineAxis::TsvKeepout => "tsv_keepout",
            RefineAxis::M3dSequentialFraction => "m3d_sequential_fraction",
            RefineAxis::BeolCarbonFraction => "beol_carbon_fraction",
        }
    }

    /// The physically meaningful value range of the axis (inclusive).
    #[must_use]
    pub fn domain(self) -> (f64, f64) {
        match self {
            RefineAxis::LifetimeYears => (1.0e-3, 1.0e3),
            RefineAxis::TsvKeepout => (1.0, 100.0),
            RefineAxis::M3dSequentialFraction | RefineAxis::BeolCarbonFraction => (0.0, 1.0),
        }
    }

    /// The (context, workload) configuration at `value` on this axis,
    /// derived from the base configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when the lifetime axis
    /// cannot reach `value` from the workload's service time: a
    /// service time so short that the scale factor is not finite.
    pub(crate) fn configure(
        self,
        value: f64,
        context: &ModelContext,
        workload: &Workload,
    ) -> Result<(ModelContext, Workload), ModelError> {
        Ok(match self {
            RefineAxis::LifetimeYears => {
                let base_years = workload.service_time().years();
                let factor = value / base_years;
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(ModelError::InvalidParameter(format!(
                        "lifetime axis: cannot scale a {}-year service time to {} years",
                        ShortFloat(base_years),
                        ShortFloat(value)
                    )));
                }
                (context.clone(), workload.scaled(factor))
            }
            RefineAxis::TsvKeepout => (
                context.to_builder().tsv_keepout(value).build(),
                workload.clone(),
            ),
            RefineAxis::M3dSequentialFraction => (
                context.to_builder().m3d_sequential_fraction(value).build(),
                workload.clone(),
            ),
            RefineAxis::BeolCarbonFraction => (
                context.to_builder().beol_carbon_fraction(value).build(),
                workload.clone(),
            ),
        })
    }
}

/// What to refine and how hard: the axis, its value range, the
/// initial uniform sampling, and the bisection budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineSpec {
    /// The axis to walk.
    pub axis: RefineAxis,
    /// Lower end of the swept range.
    pub min: f64,
    /// Upper end of the swept range (must exceed `min`).
    pub max: f64,
    /// Uniformly spaced initial samples (≥ 2; both ends included).
    pub samples: usize,
    /// Maximum *additional* plan evaluations the bisection rounds may
    /// spend after the initial sampling.
    pub budget: usize,
    /// Stop bisecting an interval once it is at most this wide.
    pub tolerance: f64,
}

impl RefineSpec {
    /// A spec with the default sampling (5 initial samples, a
    /// 16-evaluation bisection budget, tolerance `(max − min) / 256`).
    #[must_use]
    pub fn new(axis: RefineAxis, min: f64, max: f64) -> Self {
        Self {
            axis,
            min,
            max,
            samples: 5,
            budget: 16,
            tolerance: (max - min) / 256.0,
        }
    }

    /// Validates ranges and sampling parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.min.is_finite() && self.max.is_finite() && self.min < self.max) {
            return Err(format!(
                "refine range must be finite with min < max, got [{}, {}]",
                ShortFloat(self.min),
                ShortFloat(self.max)
            ));
        }
        let (lo, hi) = self.axis.domain();
        if self.min < lo || self.max > hi {
            return Err(format!(
                "refine range [{}, {}] is outside the `{}` domain [{lo}, {hi}]",
                ShortFloat(self.min),
                ShortFloat(self.max),
                self.axis.label()
            ));
        }
        if !(2..=65).contains(&self.samples) {
            return Err(format!(
                "refine samples must be in 2..=65, got {}",
                self.samples
            ));
        }
        if self.budget > 1024 {
            return Err(format!(
                "refine budget must be at most 1024, got {}",
                self.budget
            ));
        }
        if !(self.tolerance.is_finite() && self.tolerance > 0.0) {
            return Err(format!(
                "refine tolerance must be positive, got {}",
                ShortFloat(self.tolerance)
            ));
        }
        Ok(())
    }
}

/// One evaluated axis value and the design that won the primary
/// objective there (`None` when no point satisfied the constraints).
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSample {
    /// The axis value.
    pub value: f64,
    /// Label of the winning (feasible, frontier-leading) design.
    pub winner: Option<String>,
}

/// A located winner change: somewhere inside `(lower, upper)` the
/// leading design flips from `below` to `above`. The interval is at
/// most the tolerance wide unless the budget ran out first.
#[derive(Debug, Clone, PartialEq)]
pub struct Crossing {
    /// Highest evaluated value still won by `below`.
    pub lower: f64,
    /// Lowest evaluated value won by `above`.
    pub upper: f64,
    /// Winner at and below `lower`.
    pub below: Option<String>,
    /// Winner at and above `upper`.
    pub above: Option<String>,
}

/// The deterministic outcome of a refinement loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineReport {
    /// The refined axis.
    pub axis: RefineAxis,
    /// Every evaluated sample, sorted by axis value.
    pub samples: Vec<AxisSample>,
    /// The located winner changes, in ascending axis order.
    pub crossings: Vec<Crossing>,
    /// Bisection rounds run (1 = the initial uniform sampling only).
    pub rounds: usize,
    /// Plan evaluations performed (initial samples + bisections).
    pub evaluations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_units::{Throughput, TimeSpan};

    #[test]
    fn tokens_round_trip() {
        for axis in RefineAxis::ALL {
            assert_eq!(RefineAxis::from_token(axis.label()), Some(axis));
        }
        assert_eq!(
            RefineAxis::from_token("Lifetime"),
            Some(RefineAxis::LifetimeYears)
        );
        assert_eq!(RefineAxis::from_token("warp"), None);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let ok = RefineSpec::new(RefineAxis::LifetimeYears, 1.0, 10.0);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.max = bad.min;
        assert!(bad.validate().unwrap_err().contains("min < max"));
        let mut bad = ok.clone();
        bad.samples = 1;
        assert!(bad.validate().unwrap_err().contains("samples"));
        let mut bad = ok.clone();
        bad.tolerance = 0.0;
        assert!(bad.validate().unwrap_err().contains("tolerance"));
        let mut bad = ok.clone();
        bad.budget = 2048;
        assert!(bad.validate().unwrap_err().contains("budget"));
        let bad = RefineSpec::new(RefineAxis::BeolCarbonFraction, 0.2, 1.5);
        assert!(bad.validate().unwrap_err().contains("domain"));
    }

    #[test]
    fn lifetime_axis_scales_workload_only() {
        let ctx = ModelContext::default();
        let workload = Workload::fixed(
            "app",
            Throughput::from_tops(100.0),
            TimeSpan::from_years(1.0),
        )
        .with_calendar_lifetime(TimeSpan::from_years(5.0));
        let (ctx2, w2) = RefineAxis::LifetimeYears
            .configure(10.0, &ctx, &workload)
            .unwrap();
        // The calendar window lands exactly on the axis value; active
        // time scales with it.
        assert!((w2.calendar_lifetime().unwrap().years() - 10.0).abs() < 1e-9);
        assert!((w2.mission_time().years() - 2.0).abs() < 1e-9);
        assert!((w2.peak_throughput().tops() - 100.0).abs() < 1e-12);
        assert_eq!(ctx2.tsv_keepout(), ctx.tsv_keepout());
    }

    #[test]
    fn context_axes_rebuild_the_context() {
        let ctx = ModelContext::default();
        let workload = Workload::fixed(
            "app",
            Throughput::from_tops(100.0),
            TimeSpan::from_years(1.0),
        );
        let (ctx2, w2) = RefineAxis::TsvKeepout
            .configure(3.5, &ctx, &workload)
            .unwrap();
        assert!((ctx2.tsv_keepout() - 3.5).abs() < 1e-12);
        assert_eq!(w2, workload);
        let (ctx3, _) = RefineAxis::BeolCarbonFraction
            .configure(0.25, &ctx, &workload)
            .unwrap();
        assert!((ctx3.beol_carbon_fraction() - 0.25).abs() < 1e-12);
        let (ctx4, _) = RefineAxis::M3dSequentialFraction
            .configure(0.5, &ctx, &workload)
            .unwrap();
        assert!((ctx4.m3d_sequential_fraction() - 0.5).abs() < 1e-12);
    }
}
