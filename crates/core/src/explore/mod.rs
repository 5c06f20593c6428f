//! Carbon-aware design-space exploration: from ranked sweeps to
//! *decisions*.
//!
//! The sweep subsystem ([`crate::sweep`]) enumerates and prices a
//! design space; this module answers the question the paper's case
//! studies actually ask — *which designs should I build?* An
//! exploration takes a [`SweepPlan`] plus an [`ExploreSpec`] and
//! produces:
//!
//! * the exact **Pareto frontier** over 1–3 typed [`Objective`]s
//!   (life-cycle carbon, embodied carbon, carbon-delay,
//!   carbon-per-operation, package area), with dominated and
//!   constraint-infeasible points counted, never silently dropped;
//! * hard **[`Constraint`]s** (package-area and embodied ceilings,
//!   bandwidth viability, node/technology allowlists) applied before
//!   dominance;
//! * **Eq. 2 decision ranking**: every frontier design is compared
//!   against a named baseline design from the same plan (typically
//!   the 2D planar equivalent) and reported with its
//!   [`DecisionMetrics`] — indifference point `T_c`, breakeven `T_r`,
//!   and [`ChoiceOutcome`](crate::ChoiceOutcome);
//! * an optional **adaptive refinement** loop ([`RefineSpec`]) that
//!   bisects a continuous axis (service lifetime, TSV keep-out, …)
//!   around the values where the winning design changes, reusing
//!   per-stage artifacts through the executor's
//!   [`EvalCache`](crate::sweep::EvalCache) so refinement rounds are
//!   mostly cache hits.
//!
//! Results split into a deterministic [`ExploreReport`] — identical
//! whether the executor's store is cold or warm, which is what lets
//! `tdc explore` render byte-identical output — and [`ExploreStats`]
//! cache bookkeeping (reported on stderr, like every other `tdc`
//! surface).
//!
//! ```
//! use tdc_core::explore::{self, ExploreSpec, Objective};
//! use tdc_core::sweep::{DesignSweep, SweepExecutor};
//! use tdc_core::{ModelContext, Workload};
//! use tdc_technode::ProcessNode;
//! use tdc_units::{Throughput, TimeSpan};
//!
//! # fn main() -> Result<(), tdc_core::ModelError> {
//! let plan = DesignSweep::new(10.0e9)
//!     .nodes(vec![ProcessNode::N7])
//!     .plan()?;
//! let workload = Workload::fixed(
//!     "app",
//!     Throughput::from_tops(100.0),
//!     TimeSpan::from_hours(10_000.0),
//! );
//! let spec = ExploreSpec {
//!     objectives: vec![Objective::Lifecycle, Objective::Embodied],
//!     baseline: Some("7 nm/2D".to_owned()),
//!     ..ExploreSpec::default()
//! };
//! let result = explore::run(
//!     &SweepExecutor::default(),
//!     &ModelContext::default(),
//!     &plan,
//!     &workload,
//!     &spec,
//! )?;
//! assert!(!result.report().frontier.is_empty());
//! // Every non-baseline frontier design carries Eq. 2 metrics.
//! assert!(result
//!     .report()
//!     .frontier
//!     .iter()
//!     .all(|f| f.decision.is_some() || f.entry.label == "7 nm/2D"));
//! # Ok(())
//! # }
//! ```

mod objective;
mod pareto;
mod refine;

pub use objective::{Constraint, Objective};
pub use pareto::{dominates, frontier_indices};
pub use refine::{AxisSample, Crossing, RefineAxis, RefineReport, RefineSpec};

use crate::context::ModelContext;
use crate::decision::DecisionMetrics;
use crate::error::ModelError;
use crate::model::CarbonModel;
use crate::operational::Workload;
use crate::sweep::{PipelineStats, SweepEntry, SweepExecutor, SweepPlan};

/// What to explore: objectives (minimized, 1–3 of them), hard
/// constraints, an optional Eq. 2 baseline (a label from the plan,
/// e.g. `"7 nm/2D"`), and an optional refinement axis.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSpec {
    /// The minimized objectives (1–3; order fixes the report columns
    /// and the frontier's presentation order).
    pub objectives: Vec<Objective>,
    /// Hard feasibility constraints (may be empty).
    pub constraints: Vec<Constraint>,
    /// Label of the plan point every frontier design is ranked
    /// against via Eq. 2 (`None` skips decision ranking).
    pub baseline: Option<String>,
    /// Optional adaptive refinement of one continuous axis.
    pub refine: Option<RefineSpec>,
}

impl Default for ExploreSpec {
    /// Life-cycle + embodied objectives, no constraints, no baseline,
    /// no refinement.
    fn default() -> Self {
        Self {
            objectives: vec![Objective::Lifecycle, Objective::Embodied],
            constraints: Vec::new(),
            baseline: None,
            refine: None,
        }
    }
}

impl ExploreSpec {
    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field:
    /// empty or oversized objective lists, duplicate objectives, and
    /// invalid refinement parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.objectives.is_empty() {
            return Err("at least one objective is needed".to_owned());
        }
        if self.objectives.len() > 3 {
            return Err(format!(
                "at most 3 objectives are supported, got {}",
                self.objectives.len()
            ));
        }
        for (i, objective) in self.objectives.iter().enumerate() {
            if self.objectives[..i].contains(objective) {
                return Err(format!("duplicate objective `{}`", objective.label()));
            }
        }
        if let Some(refine) = &self.refine {
            refine.validate()?;
        }
        Ok(())
    }
}

/// One Pareto-optimal design of an exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierEntry {
    /// The evaluated sweep point.
    pub entry: SweepEntry,
    /// The objective values, aligned with
    /// [`ExploreReport::objectives`].
    pub objectives: Vec<f64>,
    /// Eq. 2 metrics against the baseline (`None` when no baseline
    /// was named, or for the baseline's own entry).
    pub decision: Option<DecisionSummary>,
}

/// The Eq. 2 comparison of one frontier design against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionSummary {
    /// The baseline's label.
    pub baseline: String,
    /// Indifference point, breakeven time, and choice window.
    pub metrics: DecisionMetrics,
}

/// The baseline design's own evaluation, for side-by-side reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSummary {
    /// The baseline's label.
    pub label: String,
    /// Its objective values, aligned with
    /// [`ExploreReport::objectives`].
    pub objectives: Vec<f64>,
    /// Whether the baseline itself sits on the frontier.
    pub on_frontier: bool,
}

/// The deterministic half of an exploration result: everything `tdc
/// explore` renders to stdout. Identical whether the store was cold or
/// warm.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// The objectives, in report-column order.
    pub objectives: Vec<Objective>,
    /// The Pareto frontier, sorted by (objective vector, rank order).
    pub frontier: Vec<FrontierEntry>,
    /// Feasible points dominated by some frontier member.
    pub dominated: usize,
    /// Points rejected by the constraints.
    pub infeasible: usize,
    /// The baseline evaluation, when one was named.
    pub baseline: Option<BaselineSummary>,
    /// The refinement outcome, when refinement was requested.
    pub refine: Option<RefineReport>,
}

/// Cache bookkeeping of one exploration (stderr material: the
/// per-stage counters depend on the store's warmth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Points in the explored plan.
    pub points: usize,
    /// Points that produced a ranked entry in the base sweep.
    pub evaluated: usize,
    /// Points dropped as unbuildable (dies outgrow the wafer).
    pub dropped: usize,
    /// Per-stage cache counters of the whole exploration (base sweep +
    /// refinement).
    pub stages: PipelineStats,
    /// Per-stage counters of the refinement evaluations only — the
    /// reuse the refinement loop exists to exploit.
    pub refine_stages: PipelineStats,
}

/// An exploration outcome: the deterministic report plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreResult {
    report: ExploreReport,
    stats: ExploreStats,
}

impl ExploreResult {
    /// The deterministic report (independent of the store's warmth).
    #[must_use]
    pub fn report(&self) -> &ExploreReport {
        &self.report
    }

    /// Consumes the result, yielding the report.
    #[must_use]
    pub fn into_report(self) -> ExploreReport {
        self.report
    }

    /// Execution statistics.
    #[must_use]
    pub fn stats(&self) -> ExploreStats {
        self.stats
    }
}

/// Objective vectors of the `indices`-selected entries under
/// `workload` (by reference — no entry is cloned to be scored).
fn objective_values(
    objectives: &[Objective],
    entries: &[SweepEntry],
    indices: &[usize],
    workload: &Workload,
) -> Vec<Vec<f64>> {
    indices
        .iter()
        .map(|&i| {
            objectives
                .iter()
                .map(|o| o.value(&entries[i], workload))
                .collect()
        })
        .collect()
}

/// Indices (into `entries`) of the feasible subset, plus the
/// infeasible count.
fn feasible_indices(constraints: &[Constraint], entries: &[SweepEntry]) -> (Vec<usize>, usize) {
    let feasible: Vec<usize> = (0..entries.len())
        .filter(|&i| constraints.iter().all(|c| c.admits(&entries[i])))
        .collect();
    let infeasible = entries.len() - feasible.len();
    (feasible, infeasible)
}

/// The label of the feasible frontier leader (minimum objective
/// vector) of `entries`, or `None` when nothing is feasible.
fn winner_label(spec: &ExploreSpec, entries: &[SweepEntry], workload: &Workload) -> Option<String> {
    let (feasible, _) = feasible_indices(&spec.constraints, entries);
    let values = objective_values(&spec.objectives, entries, &feasible, workload);
    frontier_indices(&values)
        .first()
        .map(|&i| entries[feasible[i]].label.clone())
}

/// Runs the refinement loop on the shared executor, returning the
/// deterministic report and the refinement-only stage counters.
fn run_refinement(
    executor: &SweepExecutor,
    context: &ModelContext,
    plan: &SweepPlan,
    workload: &Workload,
    spec: &ExploreSpec,
    refine: &RefineSpec,
) -> Result<(RefineReport, PipelineStats), ModelError> {
    let mut stages = PipelineStats::default();
    let mut evaluations = 0usize;
    let mut eval = |value: f64| -> Result<Option<String>, ModelError> {
        let (ctx, w) = refine.axis.configure(value, context, workload)?;
        let model = CarbonModel::new(ctx);
        let result = executor.execute(&model, plan, &w)?;
        stages = stages.merged(&result.stats().stages);
        evaluations += 1;
        Ok(winner_label(spec, result.entries(), &w))
    };

    // Round 1: uniform sampling, both ends included.
    let mut samples: Vec<AxisSample> = Vec::with_capacity(refine.samples);
    #[allow(clippy::cast_precision_loss)]
    let step = (refine.max - refine.min) / (refine.samples - 1) as f64;
    for i in 0..refine.samples {
        #[allow(clippy::cast_precision_loss)]
        let value = if i + 1 == refine.samples {
            refine.max
        } else {
            refine.min + step * i as f64
        };
        let winner = eval(value)?;
        samples.push(AxisSample { value, winner });
    }
    let mut rounds = 1usize;
    let mut budget = refine.budget;

    // Bisection rounds: split every interval whose endpoints disagree
    // and is still wider than the tolerance, until convergence or the
    // budget runs out. Evaluation order is ascending per round, so the
    // loop is deterministic.
    loop {
        let midpoints: Vec<f64> = samples
            .windows(2)
            .filter(|pair| {
                pair[0].winner != pair[1].winner && pair[1].value - pair[0].value > refine.tolerance
            })
            .map(|pair| (pair[0].value + pair[1].value) / 2.0)
            .collect();
        if midpoints.is_empty() || budget == 0 {
            break;
        }
        rounds += 1;
        for value in midpoints {
            if budget == 0 {
                break;
            }
            budget -= 1;
            let winner = eval(value)?;
            let at = samples.partition_point(|s| s.value < value);
            samples.insert(at, AxisSample { value, winner });
        }
    }

    let crossings = samples
        .windows(2)
        .filter(|pair| pair[0].winner != pair[1].winner)
        .map(|pair| Crossing {
            lower: pair[0].value,
            upper: pair[1].value,
            below: pair[0].winner.clone(),
            above: pair[1].winner.clone(),
        })
        .collect();

    Ok((
        RefineReport {
            axis: refine.axis,
            samples,
            crossings,
            rounds,
            evaluations,
        },
        stages,
    ))
}

/// Runs an exploration: base sweep, constraint filtering, Pareto
/// extraction, Eq. 2 baseline ranking, and (optionally) adaptive
/// refinement — all through one [`SweepExecutor`], so repeated and
/// refined evaluations answer from its per-stage artifact store.
///
/// # Errors
///
/// Returns [`ModelError::InvalidParameter`] for an invalid spec or a
/// baseline label that is not in the evaluated plan, and propagates
/// model errors from the underlying sweeps.
pub fn run(
    executor: &SweepExecutor,
    context: &ModelContext,
    plan: &SweepPlan,
    workload: &Workload,
    spec: &ExploreSpec,
) -> Result<ExploreResult, ModelError> {
    spec.validate()
        .map_err(|m| ModelError::InvalidParameter(format!("explore spec: {m}")))?;
    let model = CarbonModel::new(context.clone());
    let base = executor.execute(&model, plan, workload)?;
    let base_stats = base.stats();
    let entries = base.entries();

    // Feasibility, objective values, and the frontier. Only frontier
    // members are ever cloned out of the sweep result; scoring works
    // on indices.
    let (feasible, infeasible) = feasible_indices(&spec.constraints, entries);
    let values = objective_values(&spec.objectives, entries, &feasible, workload);
    let frontier_ix = frontier_indices(&values);
    let dominated = feasible.len() - frontier_ix.len();

    // Eq. 2 baseline ranking. The baseline is looked up among *all*
    // evaluated entries — it does not have to be feasible itself (a 2D
    // reference may violate an area ceiling and still anchor the
    // comparison).
    let baseline = match &spec.baseline {
        None => None,
        Some(label) => {
            let base_entry = entries.iter().find(|e| &e.label == label).ok_or_else(|| {
                ModelError::InvalidParameter(format!(
                    "explore baseline `{label}` is not in the evaluated plan \
                     (unknown label, or the point is unbuildable)"
                ))
            })?;
            let on_frontier = frontier_ix
                .iter()
                .any(|&i| entries[feasible[i]].label == *label);
            Some((
                base_entry.clone(),
                BaselineSummary {
                    label: label.clone(),
                    objectives: spec
                        .objectives
                        .iter()
                        .map(|o| o.value(base_entry, workload))
                        .collect(),
                    on_frontier,
                },
            ))
        }
    };

    let service = workload.service_time();
    let frontier: Vec<FrontierEntry> = frontier_ix
        .iter()
        .map(|&i| {
            let entry = entries[feasible[i]].clone();
            let decision = baseline.as_ref().and_then(|(base_entry, summary)| {
                if entry.label == summary.label {
                    return None;
                }
                Some(DecisionSummary {
                    baseline: summary.label.clone(),
                    metrics: DecisionMetrics::evaluate(
                        base_entry.report.embodied.total(),
                        base_entry.report.operational.energy / service,
                        entry.report.embodied.total(),
                        entry.report.operational.energy / service,
                        model.context().ci_use(),
                    ),
                })
            });
            FrontierEntry {
                objectives: values[i].clone(),
                entry,
                decision,
            }
        })
        .collect();

    // Adaptive refinement on the same executor: every sample that
    // shares upstream pipeline slices with the base sweep (or earlier
    // samples) answers those stages from the store.
    let (refine, refine_stages) = match &spec.refine {
        None => (None, PipelineStats::default()),
        Some(r) => {
            let (report, stages) = run_refinement(executor, context, plan, workload, spec, r)?;
            (Some(report), stages)
        }
    };

    Ok(ExploreResult {
        report: ExploreReport {
            objectives: spec.objectives.clone(),
            frontier,
            dominated,
            infeasible,
            baseline: baseline.map(|(_, summary)| summary),
            refine,
        },
        stats: ExploreStats {
            points: base_stats.points,
            evaluated: base_stats.evaluated,
            dropped: base_stats.dropped,
            stages: base_stats.stages.merged(&refine_stages),
            refine_stages,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::DesignSweep;
    use tdc_technode::ProcessNode;
    use tdc_units::{Throughput, TimeSpan};

    fn plan() -> SweepPlan {
        DesignSweep::new(8.0e9)
            .nodes(vec![ProcessNode::N7])
            .plan()
            .unwrap()
    }

    fn workload() -> Workload {
        Workload::fixed(
            "app",
            Throughput::from_tops(100.0),
            TimeSpan::from_hours(10_000.0),
        )
    }

    fn spec() -> ExploreSpec {
        ExploreSpec {
            baseline: Some("7 nm/2D".to_owned()),
            ..ExploreSpec::default()
        }
    }

    #[test]
    fn frontier_accounts_for_every_feasible_point() {
        let result = run(
            &SweepExecutor::default(),
            &ModelContext::default(),
            &plan(),
            &workload(),
            &spec(),
        )
        .unwrap();
        let report = result.report();
        let stats = result.stats();
        assert_eq!(
            report.frontier.len() + report.dominated + report.infeasible,
            stats.evaluated,
            "every ranked point is frontier, dominated, or infeasible"
        );
        assert!(!report.frontier.is_empty());
        // The frontier order is lexicographic in the objective vector.
        for pair in report.frontier.windows(2) {
            assert!(pair[0].objectives <= pair[1].objectives);
        }
    }

    #[test]
    fn frontier_members_are_mutually_non_dominated() {
        let result = run(
            &SweepExecutor::default(),
            &ModelContext::default(),
            &plan(),
            &workload(),
            &spec(),
        )
        .unwrap();
        let frontier = &result.report().frontier;
        for a in frontier {
            for b in frontier {
                assert!(!dominates(&a.objectives, &b.objectives));
            }
        }
    }

    #[test]
    fn baseline_ranking_attaches_decisions() {
        let result = run(
            &SweepExecutor::default(),
            &ModelContext::default(),
            &plan(),
            &workload(),
            &spec(),
        )
        .unwrap();
        let report = result.report();
        let baseline = report.baseline.as_ref().expect("baseline resolves");
        assert_eq!(baseline.label, "7 nm/2D");
        assert_eq!(baseline.objectives.len(), report.objectives.len());
        for f in &report.frontier {
            if f.entry.label == "7 nm/2D" {
                assert!(f.decision.is_none(), "the baseline is not ranked vs itself");
            } else {
                let d = f.decision.as_ref().expect("non-baseline entries rank");
                assert_eq!(d.baseline, "7 nm/2D");
            }
        }
    }

    #[test]
    fn unknown_baseline_is_a_parameter_error() {
        let bad = ExploreSpec {
            baseline: Some("fantasy/9D".to_owned()),
            ..ExploreSpec::default()
        };
        let err = run(
            &SweepExecutor::default(),
            &ModelContext::default(),
            &plan(),
            &workload(),
            &bad,
        )
        .unwrap_err();
        assert!(err.to_string().contains("fantasy/9D"), "{err}");
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut bad = ExploreSpec::default();
        bad.objectives.clear();
        assert!(run(
            &SweepExecutor::default(),
            &ModelContext::default(),
            &plan(),
            &workload(),
            &bad,
        )
        .is_err());
        let dup = ExploreSpec {
            objectives: vec![Objective::Lifecycle, Objective::Lifecycle],
            ..ExploreSpec::default()
        };
        assert!(dup.validate().unwrap_err().contains("duplicate"));
        let four = ExploreSpec {
            objectives: vec![
                Objective::Lifecycle,
                Objective::Embodied,
                Objective::CarbonDelay,
                Objective::PackageArea,
            ],
            ..ExploreSpec::default()
        };
        assert!(four.validate().unwrap_err().contains("at most 3"));
    }

    #[test]
    fn constraints_shrink_the_feasible_set() {
        let open = run(
            &SweepExecutor::default(),
            &ModelContext::default(),
            &plan(),
            &workload(),
            &ExploreSpec::default(),
        )
        .unwrap();
        let constrained = ExploreSpec {
            constraints: vec![Constraint::Technologies(vec![None])],
            ..ExploreSpec::default()
        };
        let closed = run(
            &SweepExecutor::default(),
            &ModelContext::default(),
            &plan(),
            &workload(),
            &constrained,
        )
        .unwrap();
        assert_eq!(closed.report().infeasible, open.stats().evaluated - 1);
        assert_eq!(closed.report().frontier.len(), 1);
        assert_eq!(closed.report().frontier[0].entry.label, "7 nm/2D");
    }

    #[test]
    fn refinement_reuses_upstream_artifacts_on_the_lifetime_axis() {
        let refined = ExploreSpec {
            refine: Some(RefineSpec::new(RefineAxis::LifetimeYears, 1.0, 10.0)),
            ..spec()
        };
        let executor = SweepExecutor::default();
        let result = run(
            &executor,
            &ModelContext::default(),
            &plan(),
            &workload(),
            &refined,
        )
        .unwrap();
        let report = result.report();
        let refine = report.refine.as_ref().expect("refinement ran");
        assert_eq!(refine.samples.len(), refine.evaluations);
        assert_eq!(refine.evaluations, 5);
        // Lifetime only moves the operational stage: each of the 5
        // samples re-prices the 9-point plan from the base sweep's
        // physical, embodied and power columns (yield is never consulted
        // once embodied answers), so 3 of the 4 lookups per point hit
        // and only the operational stage runs.
        let stages = result.stats().refine_stages;
        assert_eq!(stages.embodied.misses, 0, "embodied fully reused");
        assert_eq!(stages.operational.misses, 45, "{stages:?}");
        assert_eq!(stages.hits(), 135, "{stages:?}");
        assert_eq!(stages.hits() + stages.misses(), 180, "{stages:?}");
        // Samples stay sorted and within range.
        for pair in refine.samples.windows(2) {
            assert!(pair[0].value < pair[1].value);
        }
        assert!(refine.samples.first().unwrap().value >= 1.0);
        assert!(refine.samples.last().unwrap().value <= 10.0);
    }

    #[test]
    fn refinement_converges_crossings_to_tolerance() {
        // A wide lifetime range flips the leader when a low-embodied /
        // higher-power design loses to the 2D reference at long
        // service lives. Whether or not a crossing exists, every
        // reported crossing interval must be at most tolerance wide
        // (the budget is ample).
        let refined = ExploreSpec {
            refine: Some(RefineSpec {
                budget: 64,
                ..RefineSpec::new(RefineAxis::LifetimeYears, 0.5, 50.0)
            }),
            ..spec()
        };
        let executor = SweepExecutor::default();
        let result = run(
            &executor,
            &ModelContext::default(),
            &plan(),
            &workload(),
            &refined,
        )
        .unwrap();
        let refine = result.report().refine.as_ref().unwrap();
        let tolerance = (50.0 - 0.5) / 256.0;
        for crossing in &refine.crossings {
            assert!(
                crossing.upper - crossing.lower <= tolerance * 1.0001,
                "unconverged crossing {crossing:?}"
            );
            assert_ne!(crossing.below, crossing.above);
        }
    }

    #[test]
    fn reports_are_identical_across_worker_counts() {
        let refined = ExploreSpec {
            refine: Some(RefineSpec::new(RefineAxis::LifetimeYears, 1.0, 10.0)),
            ..spec()
        };
        let (ctx, p, w) = (ModelContext::default(), plan(), workload());
        // One executor, run cold and then warm: the report is the same.
        let executor = SweepExecutor::default();
        let cold = run(&executor, &ctx, &p, &w, &refined).unwrap();
        let warm = run(&executor, &ctx, &p, &w, &refined).unwrap();
        assert_eq!(cold.report(), warm.report());
    }
}
