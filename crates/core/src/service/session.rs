//! The long-lived request evaluator ([`ScenarioSession`]).

use super::request::{EvalRequest, EvalResponse};
use crate::error::ModelError;
use crate::model::{CarbonModel, LifecycleReport};
use crate::sensitivity::sensitivity_report;
use crate::sweep::batch;
use crate::sweep::cache::{EmbodiedOutcome, PipelineStats};
use crate::sweep::SweepExecutor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Reuse accounting of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestStats {
    /// 1-based position of the request in the session's stream.
    pub index: u64,
    /// Per-stage lookup counters of exactly this request. The
    /// `cross_hits` fields count lookups answered by artifacts earlier
    /// requests computed — the cross-request warmth this layer exists
    /// for.
    pub stages: PipelineStats,
}

/// Cumulative accounting of a whole session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Requests evaluated so far (including failed ones).
    pub requests: u64,
    /// Clients registered so far (see
    /// [`ScenarioSession::register_client`]). Zero for single-client
    /// owners that only ever call [`ScenarioSession::evaluate`].
    pub clients: u64,
    /// Every stage lookup the session's cache counted — the sum of
    /// every request's per-stage counters, including the lookups of
    /// requests that failed mid-evaluation.
    pub stages: PipelineStats,
    /// Artifacts currently stored across all cache stages.
    pub entries: usize,
}

/// A successful evaluation: the response plus this request's reuse
/// accounting.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The report, structurally equal to a fresh-process evaluation.
    pub response: EvalResponse,
    /// What this request looked up, hit, and recomputed.
    pub stats: RequestStats,
}

/// A long-lived evaluator: one [`SweepExecutor`] (and therefore one
/// staged [`EvalCache`](crate::sweep::EvalCache)) serving a stream of
/// [`EvalRequest`]s.
///
/// Each request starts a new cache *epoch*, so the per-request
/// counters distinguish warmth inherited from earlier requests
/// ([`cross_hits`](crate::sweep::StageCounters::cross_hits)) from
/// sharing within the request itself. Responses never depend on the
/// cache state: a warm session answers with values structurally equal
/// to a cold process (property-tested in
/// `crates/core/tests/service_session.rs`), so warmth is purely a
/// latency/throughput effect.
///
/// Sessions are `Sync` — `evaluate` takes `&self`, and the underlying
/// cache is thread-safe — so a server can evaluate several requests
/// concurrently against one shared session. Sweep and explore
/// requests serialize on the executor's plan columns; `run` requests
/// evaluate as one-point plans that never touch them.
///
/// ```
/// use tdc_core::service::{EvalRequest, EvalResponse, ScenarioSession};
/// use tdc_core::{ChipDesign, DieSpec, ModelContext, Workload};
/// use tdc_technode::{GridRegion, ProcessNode};
/// use tdc_units::{Throughput, TimeSpan};
///
/// # fn main() -> Result<(), tdc_core::ModelError> {
/// let session = ScenarioSession::default();
/// let design = ChipDesign::monolithic_2d(
///     DieSpec::builder("d", ProcessNode::N7).gate_count(8.0e9).build()?,
/// );
/// let workload = Workload::fixed(
///     "app",
///     Throughput::from_tops(100.0),
///     TimeSpan::from_hours(10_000.0),
/// );
/// let request = |region| EvalRequest::Run {
///     context: ModelContext::builder().use_region(region).build(),
///     design: design.clone(),
///     workload: Some(workload.clone()),
/// };
/// session.evaluate(&request(GridRegion::WorldAverage))?;
/// // Same geometry, different use grid: the embodied chain is
/// // answered entirely from the first request's artifacts.
/// let warm = session.evaluate(&request(GridRegion::France))?;
/// assert_eq!(warm.stats.stages.embodied.misses, 0);
/// assert!(warm.stats.stages.cross_hits() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ScenarioSession {
    executor: SweepExecutor,
    requests: AtomicU64,
    clients: AtomicU64,
}

impl ScenarioSession {
    /// The same session as [`default`](Self::default): the worker
    /// count is ignored. Kept only because perfbench still calls it.
    #[must_use]
    pub fn new(_workers: usize) -> Self {
        Self::default()
    }

    /// The same session as [`default`](Self::default). Kept only
    /// because perfbench still calls it.
    #[must_use]
    pub fn serial() -> Self {
        Self::default()
    }

    /// Creates a session whose cache keeps at most `cap` artifacts per
    /// pipeline stage (instead of
    /// [`DEFAULT_ARTIFACT_CAP`](crate::sweep::EvalCache) — the cap
    /// bounds memory, never results: byte-identity under tiny caps is
    /// tested in `crates/core/tests/batch_sweep.rs`).
    #[must_use]
    pub fn with_artifact_cap(cap: usize) -> Self {
        Self {
            executor: SweepExecutor::default().artifact_cap(cap),
            requests: AtomicU64::new(0),
            clients: AtomicU64::new(0),
        }
    }

    /// Allocates the next client id of a multi-client owner (ids start
    /// at 1; id 0 is the anonymous client [`evaluate`](Self::evaluate)
    /// runs as). The TCP frontend registers one id per accepted
    /// connection and evaluates its frames via
    /// [`evaluate_as`](Self::evaluate_as), which is what lets the
    /// per-stage counters attribute warmth *between* clients
    /// ([`client_hits`](crate::sweep::StageCounters::client_hits)).
    #[must_use = "the id must be passed to evaluate_as"]
    pub fn register_client(&self) -> u64 {
        self.clients.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The session's executor (for cache inspection or an explicit
    /// [`EvalCache::clear`](crate::sweep::EvalCache::clear)).
    #[must_use]
    pub fn executor(&self) -> &SweepExecutor {
        &self.executor
    }

    /// Evaluates one request against the warm store.
    ///
    /// # Errors
    ///
    /// Returns the same [`ModelError`] a fresh-process evaluation of
    /// the request would produce (including for designs whose dies
    /// outgrow the wafer on `run`/`sensitivity` — only sweeps *drop*
    /// such points). A failed request still counts toward
    /// [`SessionStats::requests`] and leaves the store intact.
    pub fn evaluate(&self, request: &EvalRequest) -> Result<Evaluated, ModelError> {
        self.evaluate_as(0, request)
    }

    /// Evaluates one request *on behalf of a registered client* (see
    /// [`register_client`](Self::register_client)). Identical to
    /// [`evaluate`](Self::evaluate) except that hits on artifacts other
    /// clients computed are additionally attributed as cross-client
    /// reuse. Client identity is ambient per-request state on the
    /// shared cache: overlapping requests from different clients can
    /// skew the *attribution* slightly, never the responses.
    ///
    /// # Errors
    ///
    /// Exactly as [`evaluate`](Self::evaluate).
    pub fn evaluate_as(&self, client: u64, request: &EvalRequest) -> Result<Evaluated, ModelError> {
        let index = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let cache = self.executor.cache();
        cache.begin_request(client);
        let (response, stages) = match request {
            EvalRequest::Run {
                context,
                design,
                workload,
            } => {
                let model = CarbonModel::new(context.clone());
                let one = batch::evaluate_one(cache, &model, design, workload.as_ref())?;
                let response = match (&one.embodied, &one.operational, workload) {
                    (EmbodiedOutcome::Report(embodied), Some(operational), Some(_)) => {
                        EvalResponse::Lifecycle(LifecycleReport {
                            embodied: (**embodied).clone(),
                            operational: (**operational).clone(),
                        })
                    }
                    (EmbodiedOutcome::Report(embodied), _, None) => {
                        EvalResponse::Embodied((**embodied).clone())
                    }
                    // Oversized: a sweep would drop the point, but
                    // `run` must surface exactly the error a fresh
                    // process reports.
                    (_, _, Some(workload)) => {
                        EvalResponse::Lifecycle(model.lifecycle(design, workload)?)
                    }
                    (_, _, None) => EvalResponse::Embodied(model.embodied(design)?),
                };
                (response, one.stats)
            }
            EvalRequest::Sweep {
                context,
                plan,
                workload,
            } => {
                let model = CarbonModel::new(context.clone());
                // Repeat sweeps of a resident plan shape delta-eval
                // from stage columns, while column misses consult the
                // shared keyed cache.
                let result = self.executor.execute(&model, plan, workload)?;
                let stages = result.stats().stages;
                (EvalResponse::Sweep(result), stages)
            }
            EvalRequest::Sensitivity {
                context,
                design,
                workload,
            } => {
                // Sensitivity perturbs the context per knob, so it
                // deliberately bypasses the store (a perturbed context
                // would namespace every artifact anyway).
                let entries = sensitivity_report(context, design, workload)?;
                (EvalResponse::Sensitivity(entries), PipelineStats::default())
            }
            EvalRequest::Explore {
                context,
                plan,
                workload,
                spec,
            } => {
                let result = crate::explore::run(&self.executor, context, plan, workload, spec)?;
                let stages = result.stats().stages;
                (EvalResponse::Explore(Box::new(result)), stages)
            }
        };
        Ok(Evaluated {
            response,
            stats: RequestStats { index, stages },
        })
    }

    /// Cumulative session accounting.
    ///
    /// `stages` and `entries` are the cache's own
    /// [`stats`](crate::sweep::EvalCache::stats): the running sum of
    /// every evaluation's per-stage counts, and the store's current
    /// size.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        let cache = self.executor.cache().stats();
        SessionStats {
            requests: self.requests.load(Ordering::Relaxed),
            clients: self.clients.load(Ordering::Relaxed),
            stages: cache.stages,
            entries: cache.entries,
        }
    }
}
