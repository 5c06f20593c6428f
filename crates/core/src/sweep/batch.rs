//! The sweep evaluation kernel: a [`SweepPlan`] lowered into
//! structure-of-arrays form ([`PlanState`]), evaluated by one fill
//! kernel ([`eval_slots`]) that is the only code in the crate that
//! prices a design.
//!
//! The kernel keeps the plan's artifacts in *stage columns*: one slot
//! vector per pipeline stage, aligned with the plan's point indices,
//! tagged with the stage's input-slice fingerprint. A re-execution
//! compares five tags (computed once per call, not per point) and
//! then **delta-evaluates**: stages whose context slice is
//! structurally unchanged are answered by indexed column loads — no
//! key building, no hashing, no locks — and only the stages whose tag
//! changed walk their points again.
//!
//! Two layers compose:
//!
//! * **columns** are the within-plan structural layer — the fast path
//!   for re-ranking the plan under new downstream axes;
//! * the shared [`EvalCache`] is the cross-plan warmth layer — on a
//!   materializing call ([`SweepExecutor::execute`]) every column miss
//!   consults *and populates* the keyed store, so switching plans (or
//!   mixing `run`/`sweep` requests in a session) reuses artifacts
//!   across plan shapes.
//!
//! Columns, store and results hold the same artifacts: a materializing
//! call's [`SweepEntry`] shares its plan point's design and its
//! columns' embodied and operational artifacts through `Arc` clones,
//! so building an entry allocates only its label.
//!
//! A single design (a session's `run` request) goes through the same
//! kernel as a one-point plan whose one-slot columns are never stored
//! ([`evaluate_one`]): it takes no engine lock, evicts no resident
//! plan, and without a workload stops after the embodied head.
//!
//! **Counting.** Every stage lookup — a column hit or a keyed lookup —
//! is counted once, in the call's plain [`PipelineStats`], and every
//! call adds its counts (failed calls included) to the running sum
//! [`EvalCache::stats`] reports.
//!
//! Ranking calls ([`SweepExecutor::execute_batched_ranking`]) read
//! only totals, so they price the operational stage as a bare carbon
//! figure ([`pipeline::operational_carbon`]) written straight into
//! the totals column. They still look the keyed operational store up
//! on every totals miss (so a report a materializing call stored
//! answers them), but they never build an [`OperationalReport`], never
//! insert one into the keyed store, and never take or store an op
//! column — ranking traffic cannot push out a materializing call's op
//! columns. The price of that: nothing a ranking call prices is stored
//! for a later point to hit, so each duplicate design in a plan counts
//! as an operational miss where a materializing call would hit the
//! report its first occurrence stored.
//!
//! A fill borrows resident artifacts instead of cloning them, so a
//! point whose upstream slots are resident costs no heap allocation: a
//! fully warm call (the embodied and totals columns, plus on a
//! materializing call the op column, resident for the current
//! configuration) answers every point with column loads, and a ranking
//! call that only re-prices (every embodied slot resident) is one pass
//! over the embodied, physical and power columns into the totals
//! column. Both fills make **zero heap allocations per point**
//! (enforced by `crates/core/tests/batch_alloc.rs`). Every fill runs
//! on the calling thread: a cold point's five stages cost a few
//! microseconds, too little to pay for spawning threads, and the keyed
//! store stays thread-safe for the concurrent calls of a shared
//! session.
//!
//! Totals are computed by one floating-point expression
//! ([`pipeline::lifecycle_total`], whose operational term
//! [`pipeline::operational_carbon`] reproduces bit for bit) and ranked
//! by (total, plan index).

use super::cache::{EmbodiedOutcome, EvalCache, PipelineStats, StageCounters, StageTags, Stamp};
use super::executor::{SweepExecutor, SweepStats};
use super::plan::{SweepPlan, SweepPoint};
use super::SweepEntry;
use crate::design::ChipDesign;
use crate::error::ModelError;
use crate::model::{CarbonModel, LifecycleReport};
use crate::operational::{OperationalReport, Workload};
use crate::pipeline::{self, PhysicalProfile, PowerProfile};
use std::sync::{Arc, Mutex};

/// One ranked point of a batch evaluation: the plan index and the
/// life-cycle total it was ranked by. Materialize the full entry via
/// the plan (`plan.points()[index]`) when needed — the ranking itself
/// stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedPoint {
    /// The point's index in its plan.
    pub index: usize,
    /// Life-cycle total (kg CO₂e) — the ranking key.
    pub total_kg: f64,
}

/// Reusable output buffer of
/// [`SweepExecutor::execute_batched_ranking`]: ranked points plus the
/// run's statistics. Reuse one value across calls — a warm or
/// re-price-only call then performs no per-point allocations at all.
///
/// The statistics follow the ranking contract: operational prices are
/// never stored, so each duplicate design in a plan counts as an
/// operational miss (see [`SweepExecutor::execute_batched_ranking`]).
#[derive(Debug, Default)]
pub struct BatchRanking {
    pub(crate) ranked: Vec<RankedPoint>,
    pub(crate) stats: SweepStats,
}

impl BatchRanking {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Points ranked by life-cycle total, lowest first (plan index
    /// breaks exact ties) — the same order
    /// [`SweepResult::entries`](super::SweepResult::entries) uses.
    #[must_use]
    pub fn ranked(&self) -> &[RankedPoint] {
        &self.ranked
    }

    /// Statistics of the call that last filled this buffer.
    #[must_use]
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

/// The executor-resident batch state: the stage columns of the most
/// recently executed plan, behind one lock (sweep calls on a shared
/// executor serialize; one-point evaluations never take it).
#[derive(Debug, Default)]
pub(crate) struct BatchEngine {
    plan: Mutex<Option<PlanState>>,
}

/// Structure-of-arrays form of one plan: per-stage slot columns
/// aligned with point indices.
#[derive(Debug)]
struct PlanState {
    /// The plan's key column ([`SweepPlan::keys`]): identifies the
    /// resident plan by its design sequence (labels are deliberately
    /// excluded — artifacts depend only on designs, and materialization
    /// reads labels from the plan being executed).
    keys: Arc<[u128]>,
    phys: StageColumns<Arc<PhysicalProfile>>,
    emb: StageColumns<EmbodiedOutcome>,
    power: StageColumns<Arc<PowerProfile>>,
    op: StageColumns<Arc<OperationalReport>>,
    totals: StageColumns<f64>,
}

impl PlanState {
    fn new(keys: Arc<[u128]>) -> Self {
        Self {
            keys,
            phys: StageColumns::default(),
            emb: StageColumns::default(),
            power: StageColumns::default(),
            op: StageColumns::default(),
            totals: StageColumns::default(),
        }
    }
}

/// One stage's columns, most recently used first. The list is capped
/// so a stage never retains more than the cache's artifact cap worth
/// of slots (`cap / plan_len` columns).
#[derive(Debug)]
struct StageColumns<T> {
    columns: Vec<Column<T>>,
}

// Manual impl: `derive(Default)` would needlessly require `T: Default`.
impl<T> Default for StageColumns<T> {
    fn default() -> Self {
        Self {
            columns: Vec::new(),
        }
    }
}

/// One configuration's slot vector for one stage: `slots[i]` is the
/// stage artifact of plan point `i`, `tag` is the stage's input-slice
/// fingerprint, and `stamp` the (request epoch, client) its values were
/// last written under (for cross-request and cross-client
/// attribution).
#[derive(Debug)]
struct Column<T> {
    tag: u64,
    stamp: Stamp,
    slots: Vec<Option<T>>,
}

impl<T> StageColumns<T> {
    /// Removes the column tagged `tag` (the caller stores it back
    /// after use, which moves it to the most-recent position), or
    /// builds a fresh empty one.
    fn take(&mut self, tag: u64, len: usize) -> Column<T> {
        if let Some(i) = self
            .columns
            .iter()
            .position(|c| c.tag == tag && c.slots.len() == len)
        {
            self.columns.remove(i)
        } else {
            let mut slots = Vec::with_capacity(len);
            slots.resize_with(len, || None);
            Column {
                tag,
                stamp: Stamp::default(),
                slots,
            }
        }
    }

    /// Returns a column to the front of the list, evicting
    /// least-recently-used columns beyond `limit`.
    fn store(&mut self, column: Column<T>, limit: usize) {
        self.columns.insert(0, column);
        self.columns.truncate(limit);
    }
}

/// How many columns one stage may retain for a plan of `len` points —
/// the same artifact budget as the keyed cache's per-stage cap.
fn columns_limit(cap: usize, len: usize) -> usize {
    (cap / len.max(1)).max(1)
}

/// Everything a fill reads.
struct FillCtx<'a> {
    cache: &'a EvalCache,
    tags: &'a StageTags,
    /// The plan's key column: point `i`'s store key is `keys[i]`.
    keys: &'a [u128],
    model: &'a CarbonModel,
    /// `None` prices the embodied head only.
    workload: Option<&'a Workload>,
    /// The (epoch, client) this fill runs under.
    stamp: Stamp,
    cap: usize,
    /// Each stage column's last-written stamp, for attributing column
    /// hits exactly like keyed-cache hits. `op_col` is the op column's
    /// on materializing calls and the totals column's on ranking
    /// calls, which keep their operational prices there.
    phys_col: Stamp,
    emb_col: Stamp,
    power_col: Stamp,
    op_col: Stamp,
}

/// Counts one column hit on the stage `stage` picks, attributed like a
/// keyed-store hit: the column was last written under `col`, the
/// reader runs under `now`.
fn count_col_hit(
    out: &mut FillOut,
    stage: impl FnOnce(&mut PipelineStats) -> &mut StageCounters,
    col: Stamp,
    now: Stamp,
) {
    out.delta_skips += 1;
    stage(&mut out.stats).count_hits(1, col, now);
}

/// One fill's bookkeeping.
#[derive(Default)]
struct FillOut {
    /// Every stage lookup this fill made, column hits and keyed
    /// lookups alike.
    stats: PipelineStats,
    /// The subset of `stats`' hits answered by a stage column.
    delta_skips: u64,
    evaluated: usize,
    dropped: usize,
    point_hits: usize,
    point_misses: usize,
    wrote_phys: bool,
    wrote_emb: bool,
    wrote_power: bool,
    wrote_op: bool,
    wrote_totals: bool,
    /// The lowest-indexed genuine model error.
    error: Option<ModelError>,
}

/// Mutable views of every column a fill writes, aligned with the plan's
/// points. `op` is `None` on ranking calls, which keep no op column.
struct Slots<'a> {
    phys: &'a mut [Option<Arc<PhysicalProfile>>],
    emb: &'a mut [Option<EmbodiedOutcome>],
    power: &'a mut [Option<Arc<PowerProfile>>],
    op: Option<&'a mut [Option<Arc<OperationalReport>>]>,
    totals: &'a mut [Option<f64>],
}

/// Resolves the physical profile of one (key, design) point, counting
/// at most one lookup per point: the plan column (a structural hit),
/// else the keyed cache (which computes on miss). `fetched` remembers
/// that this point already resolved it, so both artifact heads share
/// one lookup.
fn resolve_phys<'s>(
    ctx: &FillCtx<'_>,
    (key, design): (u128, &ChipDesign),
    fetched: &mut bool,
    slot: &'s mut Option<Arc<PhysicalProfile>>,
    out: &mut FillOut,
) -> Result<&'s PhysicalProfile, ModelError> {
    if slot.is_none() {
        let phys = ctx.cache.physical.get_or_insert_with(
            ctx.tags.physical,
            key,
            ctx.stamp,
            ctx.cap,
            &mut out.stats.physical,
            || Ok(pipeline::physical_profile(ctx.model.context(), design).into()),
        )?;
        *slot = Some(phys);
        out.wrote_phys = true;
    } else if !*fetched {
        count_col_hit(out, |s| &mut s.physical, ctx.phys_col, ctx.stamp);
    }
    *fetched = true;
    Ok(slot.as_deref().expect("physical slot filled above"))
}

/// Resolves the power profile of one (key, design) point: the plan
/// column, else the keyed cache (which computes on miss).
fn resolve_power<'s>(
    ctx: &FillCtx<'_>,
    (key, design): (u128, &ChipDesign),
    phys: &PhysicalProfile,
    slot: &'s mut Option<Arc<PowerProfile>>,
    out: &mut FillOut,
) -> Result<&'s PowerProfile, ModelError> {
    if slot.is_some() {
        count_col_hit(out, |s| &mut s.power, ctx.power_col, ctx.stamp);
    } else {
        let power = ctx.cache.power.get_or_insert_with(
            ctx.tags.power,
            key,
            ctx.stamp,
            ctx.cap,
            &mut out.stats.power,
            || pipeline::power_profile(ctx.model.context(), design, phys).map(Arc::new),
        )?;
        *slot = Some(power);
        out.wrote_power = true;
    }
    Ok(slot.as_deref().expect("power slot filled above"))
}

/// Fills point `at`'s missing slots (column → cache → compute per
/// artifact head) and writes its life-cycle total. Resident artifacts
/// are borrowed, never cloned, so a re-price that finds every upstream
/// slot filled allocates nothing. Without a workload only the embodied
/// head runs. Returns the every-stage-hit flag and whether the point
/// ranked (false = oversized drop).
fn eval_slots(
    ctx: &FillCtx<'_>,
    at: usize,
    design: &ChipDesign,
    slots: &mut Slots<'_>,
    out: &mut FillOut,
) -> Result<(bool, bool), ModelError> {
    let (cache, tags, stamp) = (ctx.cache, ctx.tags, ctx.stamp);
    let key = ctx.keys[at];
    let point = (key, design);
    let mut all_hit = true;
    let mut phys_fetched = false;

    // ---- Embodied head (physical → yield → embodied) ----
    if slots.emb[at].is_some() {
        count_col_hit(out, |s| &mut s.embodied, ctx.emb_col, stamp);
    } else {
        let outcome =
            match cache
                .embodied
                .lookup(tags.embodied, key, stamp, &mut out.stats.embodied)
            {
                Some(o) => o,
                None => {
                    all_hit = false;
                    let phys =
                        resolve_phys(ctx, point, &mut phys_fetched, &mut slots.phys[at], out)?;
                    let yld = cache.yields.get_or_insert_with(
                        tags.yields,
                        key,
                        stamp,
                        ctx.cap,
                        &mut out.stats.yields,
                        || pipeline::yield_profile(ctx.model.context(), design, phys).map(Arc::new),
                    )?;
                    match pipeline::embodied_breakdown(ctx.model.context(), design, phys, &yld) {
                        Ok(b) => {
                            let o = EmbodiedOutcome::Report(Arc::new(b));
                            cache
                                .embodied
                                .insert(tags.embodied, key, stamp, o.clone(), ctx.cap);
                            o
                        }
                        Err(ModelError::DieExceedsWafer { .. }) => {
                            cache.embodied.insert(
                                tags.embodied,
                                key,
                                stamp,
                                EmbodiedOutcome::Oversized,
                                ctx.cap,
                            );
                            EmbodiedOutcome::Oversized
                        }
                        Err(e) => return Err(e),
                    }
                }
            };
        out.wrote_emb = true;
        slots.emb[at] = Some(outcome);
    }
    let emb = match slots.emb[at].as_ref().expect("embodied slot filled above") {
        EmbodiedOutcome::Report(r) => &**r,
        EmbodiedOutcome::Oversized => {
            slots.totals[at] = None;
            return Ok((all_hit, false));
        }
    };
    let Some(workload) = ctx.workload else {
        return Ok((all_hit, true));
    };

    // ---- Operational head (physical → power → operational) ----
    let total = if let Some(op) = slots.op.as_deref_mut() {
        // Materializing call: the full report, kept in the op column
        // and the keyed store for the entries built from it.
        if op[at].is_some() {
            count_col_hit(out, |s| &mut s.operational, ctx.op_col, stamp);
        } else {
            let report = match cache.operational.lookup(
                tags.operational,
                key,
                stamp,
                &mut out.stats.operational,
            ) {
                Some(r) => r,
                None => {
                    all_hit = false;
                    let phys =
                        resolve_phys(ctx, point, &mut phys_fetched, &mut slots.phys[at], out)?;
                    let power = resolve_power(ctx, point, phys, &mut slots.power[at], out)?;
                    let r = Arc::new(pipeline::operational_report(
                        ctx.model.context(),
                        design,
                        phys,
                        power,
                        workload,
                        ctx.model.power_model(),
                    )?);
                    cache
                        .operational
                        .insert(tags.operational, key, stamp, Arc::clone(&r), ctx.cap);
                    r
                }
            };
            out.wrote_op = true;
            op[at] = Some(report);
        }
        let op = op[at].as_ref().expect("operational slot filled above");
        pipeline::lifecycle_total(emb, op)
    } else if slots.totals[at].is_some() {
        // Ranking call: a resident total already carries this
        // configuration's operational price.
        count_col_hit(out, |s| &mut s.operational, ctx.op_col, stamp);
        return Ok((all_hit, true));
    } else {
        // Ranking call: only the carbon figure is needed. A report
        // stored by a materializing call answers it; otherwise it is
        // priced without building (or storing) a report.
        let carbon =
            match cache
                .operational
                .lookup(tags.operational, key, stamp, &mut out.stats.operational)
            {
                Some(r) => r.carbon,
                None => {
                    all_hit = false;
                    let phys =
                        resolve_phys(ctx, point, &mut phys_fetched, &mut slots.phys[at], out)?;
                    let power = resolve_power(ctx, point, phys, &mut slots.power[at], out)?;
                    pipeline::operational_carbon(
                        ctx.model.context(),
                        design,
                        phys,
                        power,
                        workload,
                        ctx.model.power_model(),
                    )?
                }
            };
        out.wrote_totals = true;
        // `lifecycle_total`'s expression, with the bare carbon figure.
        emb.total() + carbon
    };
    slots.totals[at] = Some(total.kg());
    Ok((all_hit, true))
}

/// Fills every missing slot, on the calling thread. Every point is
/// evaluated even when one fails; the reported error is the
/// lowest-indexed one.
fn fill(ctx: &FillCtx<'_>, points: &[SweepPoint], mut slots: Slots<'_>) -> FillOut {
    let mut out = FillOut::default();
    for (at, point) in points.iter().enumerate() {
        match eval_slots(ctx, at, point.design(), &mut slots, &mut out) {
            Ok((all_hit, ranked)) => {
                if all_hit {
                    out.point_hits += 1;
                } else {
                    out.point_misses += 1;
                }
                if ranked {
                    out.evaluated += 1;
                } else {
                    out.dropped += 1;
                }
            }
            Err(e) => {
                out.point_misses += 1;
                if out.error.is_none() {
                    out.error = Some(e);
                }
            }
        }
    }
    out
}

/// The execution core shared by [`SweepExecutor::execute`] (which
/// passes `entries`) and [`SweepExecutor::execute_batched_ranking`]
/// (which does not).
pub(crate) fn run(
    exec: &SweepExecutor,
    model: &CarbonModel,
    plan: &SweepPlan,
    workload: &Workload,
    out: &mut BatchRanking,
    entries: Option<&mut Vec<SweepEntry>>,
) -> Result<(), ModelError> {
    let _obs = tdc_obs::span("sweep.execute");
    let cache = exec.cache();
    let stamp = cache.current_stamp();
    let cap = cache.artifact_cap();
    let n = plan.len();
    let keys = plan.keys();
    let limit = columns_limit(cap, n);
    let tags = EvalCache::stage_tags(model, Some(workload));

    let mut guard = exec
        .engine()
        .plan
        .lock()
        .expect("batch engine lock poisoned");
    if guard.as_ref().is_none_or(|s| *s.keys != **keys) {
        // A different plan owns the columns: drop them and start
        // fresh. The keyed cache still answers warm artifacts, so a
        // plan switch recomputes nothing it already stored.
        *guard = Some(PlanState::new(Arc::clone(keys)));
    }
    let state = guard.as_mut().expect("batch state present");

    let totals_tag = tags.embodied ^ tags.operational.rotate_left(17);
    let mut emb_col = state.emb.take(tags.embodied, n);
    // Ranking calls price the operational stage straight into the
    // totals column and keep no op column, so they never push one of
    // a materializing call's op columns out.
    let mut op_col = entries
        .is_some()
        .then(|| state.op.take(tags.operational, n));
    let mut totals_col = state.totals.take(totals_tag, n);
    // Operational column hits are attributed by the stamp of the
    // column the operational prices live in.
    let op_stamp = op_col.as_ref().map_or(totals_col.stamp, |c| c.stamp);

    // Compute exactly the missing slots (delta-eval), consulting the
    // keyed cache at every column miss.
    let mut phys_col = state.phys.take(tags.physical, n);
    let mut power_col = state.power.take(tags.power, n);
    let ctx = FillCtx {
        cache,
        tags: &tags,
        keys,
        model,
        workload: Some(workload),
        stamp,
        cap,
        phys_col: phys_col.stamp,
        emb_col: emb_col.stamp,
        power_col: power_col.stamp,
        op_col: op_stamp,
    };
    let slots = Slots {
        phys: &mut phys_col.slots,
        emb: &mut emb_col.slots,
        power: &mut power_col.slots,
        op: op_col.as_mut().map(|c| c.slots.as_mut_slice()),
        totals: &mut totals_col.slots,
    };
    let merged = fill(&ctx, plan.points(), slots);
    if merged.wrote_phys {
        phys_col.stamp = stamp;
    }
    if merged.wrote_emb {
        emb_col.stamp = stamp;
    }
    if merged.wrote_power {
        power_col.stamp = stamp;
    }
    if let Some(op_col) = op_col.as_mut() {
        if merged.wrote_op {
            op_col.stamp = stamp;
        }
        // The totals were priced from the op column.
        totals_col.stamp = op_col.stamp;
    } else if merged.wrote_totals {
        totals_col.stamp = stamp;
    }
    let stats = SweepStats {
        points: n,
        evaluated: merged.evaluated,
        dropped: merged.dropped,
        workers: 1,
        cache_hits: merged.point_hits,
        cache_misses: merged.point_misses,
        delta_skips: merged.delta_skips,
        stages: merged.stats,
    };
    state.phys.store(phys_col, limit);
    state.power.store(power_col, limit);
    let result = merged.error.map_or(Ok(()), Err);

    cache.record(&stats.stages);
    if tdc_obs::enabled() {
        use tdc_obs::metrics as m;
        m::SWEEP_EXECUTE_CALLS.inc();
        m::SWEEP_POINTS.add(n as u64);
        m::SWEEP_DELTA_SKIPS.add(stats.delta_skips);
        m::SWEEP_COLUMN_HITS.add(stats.cache_hits as u64);
    }

    if result.is_ok() {
        out.ranked.clear();
        out.ranked.reserve(n);
        for (index, slot) in totals_col.slots.iter().enumerate() {
            if let Some(total_kg) = *slot {
                out.ranked.push(RankedPoint { index, total_kg });
            }
        }
        // Unstable sort: allocation-free, and deterministic anyway —
        // the plan-index tie-break makes the key a total order.
        out.ranked.sort_unstable_by(|a, b| {
            a.total_kg
                .total_cmp(&b.total_kg)
                .then(a.index.cmp(&b.index))
        });
        out.stats = stats;
        if let Some(entries) = entries {
            for ranked in &out.ranked {
                let point = &plan.points()[ranked.index];
                let Some(EmbodiedOutcome::Report(emb)) = emb_col.slots[ranked.index].as_ref()
                else {
                    unreachable!("ranked point has an embodied artifact")
                };
                let op = op_col
                    .as_ref()
                    .and_then(|c| c.slots[ranked.index].as_ref())
                    .expect("ranked point has an operational artifact");
                entries.push(SweepEntry {
                    label: point.label().to_owned(),
                    node: point.node(),
                    technology: point.technology(),
                    design: Arc::clone(point.shared_design()),
                    report: LifecycleReport {
                        embodied: Arc::clone(emb),
                        operational: Arc::clone(op),
                    },
                });
            }
        }
    }

    // Columns are stored back even when the fill failed: the partial
    // progress is real, and the next call recomputes only the holes.
    state.emb.store(emb_col, limit);
    if let Some(op_col) = op_col {
        state.op.store(op_col, limit);
    }
    state.totals.store(totals_col, limit);

    result
}

/// What [`evaluate_one`] left behind for its design.
pub(crate) struct OnePoint {
    /// The embodied outcome (`Oversized` when the dies outgrow the
    /// wafer).
    pub(crate) embodied: EmbodiedOutcome,
    /// The operational report; `None` without a workload or for an
    /// oversized design.
    pub(crate) operational: Option<Arc<OperationalReport>>,
    /// Every stage lookup the evaluation made.
    pub(crate) stats: PipelineStats,
}

/// Evaluates one design through the fill kernel, as a one-point plan
/// whose one-slot columns are never stored: it takes no engine lock
/// and evicts no resident plan, while every column miss consults and
/// populates the keyed store like a sweep's. Without a `workload` it
/// stops after the embodied head. The lookups are added to the
/// cache's running stats even when the evaluation fails.
pub(crate) fn evaluate_one(
    cache: &EvalCache,
    model: &CarbonModel,
    design: &ChipDesign,
    workload: Option<&Workload>,
) -> Result<OnePoint, ModelError> {
    let tags = EvalCache::stage_tags(model, workload);
    let ctx = FillCtx {
        cache,
        tags: &tags,
        keys: &[EvalCache::key_for(design)],
        model,
        workload,
        stamp: cache.current_stamp(),
        cap: cache.artifact_cap(),
        // Empty columns are never hit, so their stamps are never read.
        phys_col: Stamp::default(),
        emb_col: Stamp::default(),
        power_col: Stamp::default(),
        op_col: Stamp::default(),
    };
    let (mut phys, mut emb, mut power, mut op, mut totals) =
        ([None], [None], [None], [None], [None]);
    let mut out = FillOut::default();
    let outcome = eval_slots(
        &ctx,
        0,
        design,
        &mut Slots {
            phys: &mut phys,
            emb: &mut emb,
            power: &mut power,
            op: Some(&mut op),
            totals: &mut totals,
        },
        &mut out,
    );
    cache.record(&out.stats);
    outcome?;
    let [embodied] = emb;
    let [operational] = op;
    Ok(OnePoint {
        embodied: embodied.expect("the embodied head always fills its slot"),
        operational,
        stats: out.stats,
    })
}
