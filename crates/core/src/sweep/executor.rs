//! Evaluation of a [`SweepPlan`] ([`SweepExecutor`]).
//!
//! Every call runs the one fill kernel in [`super::batch`]: the plan
//! is lowered into stage columns that persist on the executor, so a
//! re-execution — or one that changes only downstream axes —
//! delta-evaluates exactly the stages whose context slice changed.
//! Column misses consult the per-stage [`EvalCache`], so plans (and
//! successive calls) that share upstream pipeline artifacts never
//! recompute them. A fill that computes embodied artifacts for at
//! least the parallel threshold of points splits the plan into chunks
//! that scoped workers steal from a queue. Totals are ranked by
//! (life-cycle total, plan index), so the output is **byte-identical
//! for any worker count**, including the serial fast path.

use super::batch::{self, BatchEngine, BatchRanking};
use super::cache::{EvalCache, PipelineStats};
use super::plan::SweepPlan;
use super::SweepEntry;
use crate::error::ModelError;
use crate::model::CarbonModel;
use crate::operational::Workload;

/// Plans smaller than this default take the serial fast path no matter
/// how many workers are configured: below a few hundred points the
/// per-point cost is small enough that thread spawn + steal
/// synchronization dominates (the recorded Table 2 numbers show a warm
/// 99-point sweep at 8 workers losing ~2x to serial).
/// [`SweepExecutor::parallel_threshold`] overrides it.
const SMALL_PLAN_THRESHOLD: usize = 256;

/// Bookkeeping of one [`SweepExecutor::execute`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Points in the executed plan.
    pub points: usize,
    /// Points that produced a ranked entry.
    pub evaluated: usize,
    /// Points dropped because their dies outgrow the wafer.
    pub dropped: usize,
    /// Points whose every consulted pipeline stage was answered from
    /// the plan's stage columns or the keyed cache.
    pub cache_hits: usize,
    /// Points that had to run at least one pipeline stage.
    pub cache_misses: usize,
    /// Worker threads actually used (1 = serial fast path).
    pub workers: usize,
    /// Stage recomputations *and* keyed cache lookups skipped because
    /// the stage was answered structurally from the plan's columns.
    pub delta_skips: u64,
    /// Per-stage hit/miss counters of exactly this call's lookups,
    /// column hits included (counted by the call's own fill workers,
    /// so the numbers stay correct even when concurrent calls share
    /// one executor).
    pub stages: PipelineStats,
}

/// The outcome of executing a plan: ranked entries plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    entries: Vec<SweepEntry>,
    stats: SweepStats,
}

impl SweepResult {
    /// Entries ranked by life-cycle total, lowest first (plan index
    /// breaks ties deterministically).
    #[must_use]
    pub fn entries(&self) -> &[SweepEntry] {
        &self.entries
    }

    /// Consumes the result, yielding the ranked entries.
    #[must_use]
    pub fn into_entries(self) -> Vec<SweepEntry> {
        self.entries
    }

    /// Execution statistics.
    #[must_use]
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// The best-ranked *viable* entry, if any.
    #[must_use]
    pub fn best(&self) -> Option<&SweepEntry> {
        self.entries.iter().find(|e| e.is_viable())
    }
}

/// Evaluates [`SweepPlan`]s over a worker pool with memoization.
///
/// ```
/// use tdc_core::{CarbonModel, ModelContext, Workload};
/// use tdc_core::sweep::{DesignSweep, SweepExecutor};
/// use tdc_technode::ProcessNode;
/// use tdc_units::{Throughput, TimeSpan};
///
/// # fn main() -> Result<(), tdc_core::ModelError> {
/// let model = CarbonModel::new(ModelContext::default());
/// let workload = Workload::fixed(
///     "app",
///     Throughput::from_tops(100.0),
///     TimeSpan::from_hours(10_000.0),
/// );
/// let plan = DesignSweep::new(10.0e9)
///     .nodes(vec![ProcessNode::N7])
///     .plan()?;
/// let executor = SweepExecutor::new(4);
/// let result = executor.execute(&model, &plan, &workload)?;
/// assert_eq!(result.stats().points, plan.len());
/// // Re-executing the same plan is answered from the cache.
/// let again = executor.execute(&model, &plan, &workload)?;
/// assert_eq!(again.stats().cache_hits, plan.len());
/// assert_eq!(result.entries(), again.entries());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SweepExecutor {
    workers: usize,
    small_plan_threshold: usize,
    cache: EvalCache,
    engine: BatchEngine,
}

impl Default for SweepExecutor {
    fn default() -> Self {
        Self::new(0)
    }
}

impl SweepExecutor {
    /// Creates an executor with `workers` threads (`0` = one per
    /// available core). Plans smaller than the small-plan threshold
    /// (default 256 points) run serially regardless — see
    /// [`parallel_threshold`](Self::parallel_threshold).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            small_plan_threshold: SMALL_PLAN_THRESHOLD,
            cache: EvalCache::new(),
            engine: BatchEngine::default(),
        }
    }

    /// A single-threaded executor (no threads are spawned at all).
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Overrides the minimum plan size (in points) at which the
    /// configured worker count engages; smaller plans take the serial
    /// fast path because thread-pool overhead exceeds the work. `0`
    /// disables the clamp entirely (every multi-point plan may go
    /// parallel), which is mainly useful for tests and benchmarks.
    #[must_use]
    pub fn parallel_threshold(mut self, points: usize) -> Self {
        self.small_plan_threshold = points;
        self
    }

    /// Replaces the executor's cache with one capped at `cap` artifacts
    /// per stage (see [`EvalCache::with_artifact_cap`]); the per-plan
    /// stage columns obey the same cap. Intended at construction time
    /// — any already-cached artifacts are dropped.
    #[must_use]
    pub fn artifact_cap(mut self, cap: usize) -> Self {
        self.cache = EvalCache::with_artifact_cap(cap);
        self.engine = BatchEngine::default();
        self
    }

    /// The configured worker count (`0` = auto).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The executor's memoization cache (for statistics inspection or
    /// explicit [`EvalCache::clear`]).
    #[must_use]
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// The batch engine holding the current plan's stage columns.
    pub(crate) fn engine(&self) -> &BatchEngine {
        &self.engine
    }

    /// Resolves the thread count for a plan of `points` points. Plans
    /// below the small-plan threshold always run serially — per-point
    /// costs there are too small to amortize thread spawn + stealing.
    pub(crate) fn resolve_workers(&self, points: usize) -> usize {
        if points < self.small_plan_threshold {
            return 1;
        }
        let configured = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.workers
        };
        configured.clamp(1, points.max(1))
    }

    /// Evaluates every point of `plan` under (`model`, `workload`)
    /// and returns the ranked result. The plan is lowered into stage
    /// columns that persist on this executor, so a re-execution (or
    /// an execution that changes only downstream axes) recomputes
    /// exactly the stages whose context slice changed — no per-point
    /// keyed cache lookups on the warm path.
    ///
    /// Stage columns belong to one plan at a time (the most recent);
    /// switching plans falls back to the shared [`EvalCache`], which
    /// persists across calls and configurations.
    ///
    /// # Errors
    ///
    /// Returns the [`ModelError`] of the lowest-indexed failing point
    /// (deterministic regardless of worker count). Oversized-die
    /// points are dropped, not errors.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (model evaluation itself never
    /// panics for plan-constructed designs).
    pub fn execute(
        &self,
        model: &CarbonModel,
        plan: &SweepPlan,
        workload: &Workload,
    ) -> Result<SweepResult, ModelError> {
        let mut ranking = BatchRanking::default();
        let mut entries = Vec::with_capacity(plan.len());
        batch::run(
            self,
            model,
            plan,
            workload,
            &mut ranking,
            Some(&mut entries),
        )?;
        Ok(SweepResult {
            entries,
            stats: ranking.stats(),
        })
    }

    /// The same call as [`execute`](Self::execute), kept under its
    /// former name for existing callers.
    ///
    /// # Errors
    ///
    /// Exactly as [`execute`](Self::execute).
    pub fn execute_batched(
        &self,
        model: &CarbonModel,
        plan: &SweepPlan,
        workload: &Workload,
    ) -> Result<SweepResult, ModelError> {
        self.execute(model, plan, workload)
    }

    /// The non-materializing batch path: ranks `plan`'s points by
    /// life-cycle total into the caller-owned `out` buffer without
    /// building [`SweepEntry`] values at all. The ranking order
    /// (total, then plan index) is identical to
    /// [`execute`](Self::execute)'s entry order, and every total is
    /// bit-identical to its entry's.
    ///
    /// A ranking call computes operational **carbon only**
    /// ([`pipeline::operational_carbon`](crate::pipeline::operational_carbon)):
    /// it reads the keyed operational store (a report
    /// [`execute`](Self::execute) stored answers it) but never grows
    /// it, and it leaves the op columns alone. On a
    /// warm plan (embodied and totals columns filled) this performs
    /// **zero heap allocations per point**, and a call that only
    /// re-prices (new grid, lifetime or utilization over resident
    /// embodied artifacts) allocates nothing per point either — reuse
    /// one [`BatchRanking`] across calls to keep its buffers warm.
    ///
    /// The statistics differ from `execute`'s in one way: since no
    /// operational price is stored, a re-priced point can only hit a
    /// report a materializing call stored, so each duplicate design in
    /// `plan` counts as an operational miss where `execute` hits the
    /// report its first occurrence stored.
    ///
    /// # Errors
    ///
    /// Returns the [`ModelError`] of the lowest-indexed failing point,
    /// exactly like [`execute`](Self::execute).
    pub fn execute_batched_ranking(
        &self,
        model: &CarbonModel,
        plan: &SweepPlan,
        workload: &Workload,
        out: &mut BatchRanking,
    ) -> Result<(), ModelError> {
        batch::run(self, model, plan, workload, out, None)
    }
}

/// The contiguous index range one chunk covers: small enough that 8
/// workers rebalance a skewed plan (~8 steals each), large enough that
/// synchronization is paid once per dozens of points, capped so huge
/// plans still rebalance.
pub(crate) fn chunk_size(points: usize, workers: usize) -> usize {
    (points / (workers * 8).max(1)).clamp(16, 4096)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ModelContext;
    use crate::sweep::DesignSweep;
    use tdc_technode::ProcessNode;
    use tdc_units::{Throughput, TimeSpan};

    fn model() -> CarbonModel {
        CarbonModel::new(ModelContext::default())
    }

    fn workload() -> Workload {
        Workload::fixed(
            "app",
            Throughput::from_tops(100.0),
            TimeSpan::from_hours(10_000.0),
        )
    }

    #[test]
    fn serial_and_parallel_agree() {
        let sweep = DesignSweep::new(8.0e9).nodes(vec![ProcessNode::N7, ProcessNode::N5]);
        let plan = sweep.plan().unwrap();
        let (m, w) = (model(), workload());
        let serial = SweepExecutor::serial().execute(&m, &plan, &w).unwrap();
        for workers in [2, 3, 8] {
            let parallel = SweepExecutor::new(workers)
                .parallel_threshold(0)
                .execute(&m, &plan, &w)
                .unwrap();
            assert_eq!(serial.entries(), parallel.entries(), "{workers} workers");
        }
    }

    #[test]
    fn small_plans_take_the_serial_fast_path() {
        // The warm-parallel regression fix: a plan below the threshold
        // never spawns workers (the recorded 99-point Table 2 sweep
        // ran 304 µs at 8 workers vs 167 µs serial), and the output is
        // unchanged by the clamp.
        let sweep = DesignSweep::new(8.0e9).nodes(vec![ProcessNode::N7, ProcessNode::N5]);
        let plan = sweep.plan().unwrap();
        let (m, w) = (model(), workload());
        let clamped = SweepExecutor::new(8).execute(&m, &plan, &w).unwrap();
        assert_eq!(
            clamped.stats().workers,
            1,
            "below-threshold plan runs serial"
        );
        let forced = SweepExecutor::new(8)
            .parallel_threshold(0)
            .execute(&m, &plan, &w)
            .unwrap();
        assert_eq!(forced.stats().workers, 8, "threshold 0 disables the clamp");
        assert_eq!(clamped.entries(), forced.entries());
    }

    #[test]
    fn stats_account_for_every_point() {
        let sweep = DesignSweep::new(8.0e9).nodes(vec![ProcessNode::N7]);
        let plan = sweep.plan().unwrap();
        let result = SweepExecutor::new(4)
            .execute(&model(), &plan, &workload())
            .unwrap();
        let s = result.stats();
        assert_eq!(s.points, plan.len());
        assert_eq!(s.evaluated + s.dropped, s.points);
        assert_eq!(s.cache_hits + s.cache_misses, s.points);
        assert_eq!(s.cache_hits, 0, "fresh executor has a cold cache");
        assert!(s.workers >= 1);
        // A cold run computes every stage once per point and hits
        // nothing.
        assert_eq!(s.stages.hits(), 0);
        assert_eq!(s.stages.embodied.misses as usize, s.points);
        assert_eq!(s.stages.operational.misses as usize, s.points);
    }

    #[test]
    fn reexecution_is_fully_cached() {
        let sweep = DesignSweep::new(8.0e9).nodes(vec![ProcessNode::N7]);
        let plan = sweep.plan().unwrap();
        let executor = SweepExecutor::new(2);
        let (m, w) = (model(), workload());
        let first = executor.execute(&m, &plan, &w).unwrap();
        let second = executor.execute(&m, &plan, &w).unwrap();
        assert_eq!(second.stats().cache_hits, plan.len());
        assert_eq!(second.stats().cache_misses, 0);
        assert_eq!(first.entries(), second.entries());
    }

    #[test]
    fn workload_change_reprices_operations_but_reuses_embodied() {
        let sweep = DesignSweep::new(8.0e9).nodes(vec![ProcessNode::N7]);
        let plan = sweep.plan().unwrap();
        let executor = SweepExecutor::serial();
        let m = model();
        executor.execute(&m, &plan, &workload()).unwrap();
        let other = Workload::fixed(
            "app",
            Throughput::from_tops(10.0),
            TimeSpan::from_hours(10_000.0),
        );
        let result = executor.execute(&m, &plan, &other).unwrap();
        // No point is *fully* cached — the workload changed — but every
        // embodied artifact (and the geometry/power under the new
        // operational stage) is reused; only operations recompute.
        let s = result.stats();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.stages.embodied.hits as usize, plan.len());
        assert_eq!(s.stages.embodied.misses, 0);
        assert_eq!(s.stages.operational.misses as usize, plan.len());
        assert_eq!(s.stages.physical.hits as usize, plan.len());
        // And the results match a fresh, uncached executor exactly.
        let fresh = SweepExecutor::serial().execute(&m, &plan, &other).unwrap();
        assert_eq!(result.entries(), fresh.entries());
    }

    #[test]
    fn auto_worker_count_is_clamped_to_plan_size() {
        let sweep = DesignSweep::new(8.0e9)
            .nodes(vec![ProcessNode::N7])
            .technologies(vec![None]);
        let plan = sweep.plan().unwrap();
        assert_eq!(plan.len(), 1);
        let result = SweepExecutor::new(64)
            .parallel_threshold(0)
            .execute(&model(), &plan, &workload())
            .unwrap();
        assert_eq!(result.stats().workers, 1);
    }

    #[test]
    fn best_respects_viability() {
        let sweep = DesignSweep::new(8.0e9).nodes(vec![ProcessNode::N7]);
        let plan = sweep.plan().unwrap();
        let result = SweepExecutor::serial()
            .execute(&model(), &plan, &workload())
            .unwrap();
        let best = result.best().expect("a viable point exists");
        assert!(best.is_viable());
    }

    #[test]
    fn exact_ties_rank_by_plan_index_in_serial_and_parallel() {
        use super::super::plan::SweepPoint;
        use crate::design::DieSpec;
        // Three points wrapping the *same* design produce bit-identical
        // life-cycle totals — an exact tie. The ranking must fall back
        // to the plan index (in the serial path too), never to label
        // order or worker arrival order.
        let design = crate::design::ChipDesign::monolithic_2d(
            DieSpec::builder("d", ProcessNode::N7)
                .gate_count(8.0e9)
                .build()
                .unwrap(),
        );
        let mk = |i: usize, label: &str| {
            SweepPoint::new(
                i,
                label.to_owned(),
                ProcessNode::N7,
                None,
                1,
                design.clone(),
            )
        };
        let plan = super::super::plan::SweepPlan::new(vec![
            mk(0, "z-first"),
            mk(1, "a-second"),
            mk(2, "m-third"),
        ]);
        let (m, w) = (model(), workload());
        let serial = SweepExecutor::serial().execute(&m, &plan, &w).unwrap();
        let labels: Vec<&str> = serial.entries().iter().map(|e| e.label.as_str()).collect();
        assert_eq!(
            labels,
            ["z-first", "a-second", "m-third"],
            "tied entries must keep plan order"
        );
        for workers in [2, 3, 8] {
            let parallel = SweepExecutor::new(workers)
                .parallel_threshold(0)
                .execute(&m, &plan, &w)
                .unwrap();
            assert_eq!(serial.entries(), parallel.entries(), "{workers} workers");
        }
    }

    #[test]
    fn empty_plan_executes_cleanly() {
        let plan = DesignSweep::new(8.0e9).nodes(Vec::new()).plan().unwrap();
        let result = SweepExecutor::new(4)
            .execute(&model(), &plan, &workload())
            .unwrap();
        assert!(result.entries().is_empty());
        assert_eq!(result.stats().points, 0);
    }
}
