//! Per-stage artifact store for pipeline evaluations ([`EvalCache`]).
//!
//! The cache memoizes every artifact of the staged pipeline
//! ([`crate::pipeline`]) independently — physical geometry, yields,
//! embodied breakdowns, power characterizations, and operational
//! reports — each under a key composed of the canonical design form
//! plus a fingerprint of *only the inputs that stage reads*. Two sweep
//! points that differ only in downstream axes therefore share every
//! upstream artifact: a grid-region × lifetime sweep over a fixed
//! design set computes each design's embodied breakdown **once**, and
//! re-prices only the operational stage per scenario. The old
//! whole-design cache could not do this — any (model, workload) change
//! invalidated everything.
//!
//! Stage keys compose upstream slices, so an artifact is always a pure
//! function of its key:
//!
//! | artifact | context slice in the key |
//! |----------|--------------------------|
//! | [`PhysicalProfile`] | geometry (tech db, BEOL estimator, TSV keep-out, catalog, package model) |
//! | [`YieldProfile`] | geometry + yield-model choice |
//! | [`EmbodiedBreakdown`](crate::EmbodiedBreakdown) | geometry + yield + fab (grid, wafer, BEOL knobs, packaging) |
//! | [`PowerProfile`] | geometry |
//! | [`OperationalReport`](crate::OperationalReport) | geometry + use grid + bandwidth + power plug-in + workload |
//!
//! The design half of every key is a 128-bit hash of the *canonical
//! form of the design* ([`EvalCache::key_for`]) — every die's
//! [`DieSpec`](crate::DieSpec) (name, process node, gate count / area /
//! overrides) plus the integration technology, orientation, and bonding
//! flow — so any two points that would produce the same artifact are
//! computed once. A [`SweepPlan`](crate::sweep::SweepPlan) computes its
//! points' keys once and carries them, so executing a plan never
//! re-hashes its designs.
//!
//! # Shards and eviction
//!
//! Each stage's store is split into [`SHARD_COUNT`] shards, routed by
//! a mix of the configuration tag, each behind its own `RwLock` — warm
//! lookups take a shared read lock (readers never contend with each
//! other), and only genuine inserts take a shard's write lock. A
//! multi-client server hammering the warm path therefore scales reads,
//! and writers for different configurations rarely touch the same
//! shard.
//!
//! Entries persist across configuration changes (that persistence *is*
//! the reuse); memory stays bounded by per-shard LRU eviction: every
//! entry carries a last-used stamp from a store-wide access clock, and
//! when a shard reaches its share of the per-stage artifact cap, the
//! least-recently-used quarter of that shard is evicted (recomputing
//! is always safe, so eviction can never change results — only
//! recompute costs). The store keeps no hit/miss counters of its own:
//! every lookup counts into the calling fill's plain
//! [`PipelineStats`], and [`EvalCache::stats`] reports the running sum
//! of every call's counts, which **survives eviction** (and
//! [`EvalCache::clear`]), so a long-running session's stats line never
//! goes backwards mid-stream.
//! Only non-fatal outcomes are stored: a design whose dies outgrow the
//! wafer is remembered as `Oversized`, while genuine model errors
//! always propagate and are re-raised on every attempt.
//!
//! # Requests and clients
//!
//! Long-lived owners bracket each request with
//! [`EvalCache::begin_request`], which advances the *epoch* and
//! records the requesting *client*. Every artifact remembers the
//! (epoch, client) it was inserted under, so a hit can tell
//! within-request reuse from cross-request reuse
//! ([`StageCounters::cross_hits`]) and sharing *between clients* of a
//! multi-client server ([`StageCounters::client_hits`]).

use crate::context::ModelContext;
use crate::design::ChipDesign;
use crate::error::ModelError;
use crate::model::CarbonModel;
use crate::operational::{OperationalReport, Workload};
use crate::pipeline::{self, PhysicalProfile, PowerProfile, YieldProfile};
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use tdc_power::PowerModel;

/// What a finished embodied evaluation left behind. Only the two
/// *non-fatal* outcomes are cached.
#[derive(Debug, Clone)]
pub(crate) enum EmbodiedOutcome {
    /// The design evaluated cleanly.
    Report(Arc<crate::embodied::EmbodiedBreakdown>),
    /// The design cannot be built on the configured wafer
    /// ([`ModelError::DieExceedsWafer`]) — a stable property of the
    /// design under this configuration, so remembering it is safe.
    Oversized,
}

/// Hit/miss counters of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCounters {
    /// Lookups answered from a plan's stage column or from the keyed
    /// store.
    pub hits: u64,
    /// The subset of [`hits`](Self::hits) answered by an artifact
    /// inserted during an *earlier epoch* — i.e. by a previous request
    /// of a long-lived session (epochs advance via
    /// [`EvalCache::begin_request`] /
    /// [`EvalCache::advance_epoch`]). When nothing ever advances the
    /// epoch this stays zero and `hits` counts pure within-request
    /// reuse.
    pub cross_hits: u64,
    /// The subset of [`hits`](Self::hits) answered by an artifact a
    /// *different client* inserted — the cross-client warmth a shared
    /// multi-connection server exists for. Single-client owners (the
    /// CLI one-shot commands, stdin `tdc serve`) never see this move.
    pub client_hits: u64,
    /// Lookups that had to run the stage.
    pub misses: u64,
}

impl StageCounters {
    /// Counts `n` hits on artifacts stored under `stored`, read under
    /// `now`: a hit is cross-request when the artifact's epoch is older
    /// than the reader's, and cross-client when another client stored
    /// it. Keyed-store and stage-column hits alike count through here.
    pub(crate) fn count_hits(&mut self, n: u64, stored: Stamp, now: Stamp) {
        self.hits += n;
        if stored.epoch < now.epoch {
            self.cross_hits += n;
        }
        if stored.client != now.client {
            self.client_hits += n;
        }
    }

    /// Hit fraction in `[0, 1]` (0 when the stage was never consulted).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

/// Per-stage hit/miss counters of the whole pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Physical (geometry) stage.
    pub physical: StageCounters,
    /// Yield stage.
    pub yields: StageCounters,
    /// Embodied stage.
    pub embodied: StageCounters,
    /// Power-characterization stage.
    pub power: StageCounters,
    /// Operational stage.
    pub operational: StageCounters,
}

impl PipelineStats {
    fn as_array(&self) -> [StageCounters; 5] {
        [
            self.physical,
            self.yields,
            self.embodied,
            self.power,
            self.operational,
        ]
    }

    /// Lookups answered from the store, summed over all stages.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.as_array().iter().map(|s| s.hits).sum()
    }

    /// Stage executions, summed over all stages.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.as_array().iter().map(|s| s.misses).sum()
    }

    /// Cross-epoch hits (artifacts computed by an earlier request of a
    /// long-lived session), summed over all stages.
    #[must_use]
    pub fn cross_hits(&self) -> u64 {
        self.as_array().iter().map(|s| s.cross_hits).sum()
    }

    /// Cross-client hits (artifacts another client of a shared session
    /// computed), summed over all stages.
    #[must_use]
    pub fn client_hits(&self) -> u64 {
        self.as_array().iter().map(|s| s.client_hits).sum()
    }

    /// The fraction of all stage lookups answered by artifacts from an
    /// earlier epoch, in `[0, 1]` (0 when nothing was ever looked up).
    #[must_use]
    pub fn cross_hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.cross_hits() as f64 / total as f64
            }
        }
    }

    /// The fraction of all stage lookups answered by artifacts a
    /// *different client* inserted, in `[0, 1]`.
    #[must_use]
    pub fn client_hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.client_hits() as f64 / total as f64
            }
        }
    }

    /// Element-wise sum of two snapshots (used to accumulate per-call
    /// stats).
    #[must_use]
    pub fn merged(&self, other: &PipelineStats) -> PipelineStats {
        let add = |a: StageCounters, b: StageCounters| StageCounters {
            hits: a.hits + b.hits,
            cross_hits: a.cross_hits + b.cross_hits,
            client_hits: a.client_hits + b.client_hits,
            misses: a.misses + b.misses,
        };
        PipelineStats {
            physical: add(self.physical, other.physical),
            yields: add(self.yields, other.yields),
            embodied: add(self.embodied, other.embodied),
            power: add(self.power, other.power),
            operational: add(self.operational, other.operational),
        }
    }

    /// Aggregate hit fraction across every stage lookup in `[0, 1]`.
    #[must_use]
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits() as f64 / total as f64
            }
        }
    }

    /// The counter deltas accumulated since `earlier` (a snapshot taken
    /// from the same cache).
    #[must_use]
    pub fn since(&self, earlier: &PipelineStats) -> PipelineStats {
        let diff = |now: StageCounters, then: StageCounters| StageCounters {
            hits: now.hits.saturating_sub(then.hits),
            cross_hits: now.cross_hits.saturating_sub(then.cross_hits),
            client_hits: now.client_hits.saturating_sub(then.client_hits),
            misses: now.misses.saturating_sub(then.misses),
        };
        PipelineStats {
            physical: diff(self.physical, earlier.physical),
            yields: diff(self.yields, earlier.yields),
            embodied: diff(self.embodied, earlier.embodied),
            power: diff(self.power, earlier.power),
            operational: diff(self.operational, earlier.operational),
        }
    }
}

/// Cumulative counters and size of an [`EvalCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// The sum of every evaluation call's per-stage stats since
    /// construction, failed calls included: column hits and keyed
    /// lookups alike. Counters survive eviction and
    /// [`EvalCache::clear`] — a long-running session's stats never go
    /// backwards mid-stream.
    pub stages: PipelineStats,
    /// Artifacts currently stored, across all stages.
    pub entries: usize,
    /// Artifacts evicted by the per-shard LRU policy since
    /// construction, summed over every stage's shards.
    pub evictions: u64,
}

impl CacheStats {
    /// Aggregate hit fraction across every stage lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.stages.warm_hit_rate()
    }
}

/// Default upper bound on the artifacts one stage retains. Retention
/// across configurations is the point of the store, but operational
/// artifacts in particular accumulate one entry per (configuration,
/// design) pair forever; the cap is divided across the stage's shards,
/// and a shard reaching its share evicts its least-recently-used
/// quarter (always safe — misses just recompute) so memory stays
/// bounded no matter how many scenarios a long-lived executor sees.
/// The default is far above any scenario space in this repository (the
/// grid-region bench peaks at 99 × 8 = 792 operational artifacts);
/// [`EvalCache::with_artifact_cap`] overrides it.
pub(crate) const DEFAULT_ARTIFACT_CAP: usize = 1 << 16;

/// Occupancy and cumulative evictions of one cache shard, summed
/// across the five stage cells (see [`EvalCache::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Artifacts currently stored in this shard.
    pub entries: usize,
    /// Artifacts this shard's LRU policy has evicted since
    /// construction.
    pub evictions: u64,
}

/// How many shards each stage's store splits into. Shard routing
/// mixes the configuration tag, so different configurations spread
/// across shards while one configuration's entries stay together
/// (per-shard LRU then evicts whole-configuration working sets in
/// recency order rather than scattering holes everywhere).
pub const SHARD_COUNT: usize = 8;

/// The (epoch, client) identity a lookup or insert runs under —
/// captured once per evaluation from [`EvalCache::current_stamp`].
/// Entries remember the stamp they were inserted with; comparing it
/// against the reader's stamp is what attributes cross-request and
/// cross-client reuse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Stamp {
    pub(crate) epoch: u64,
    pub(crate) client: u64,
}

/// One stored artifact plus its bookkeeping: the (epoch, client) it
/// was inserted under and its last-used stamp from the store-wide
/// access clock (atomic, so warm lookups bump recency under the
/// shard's *read* lock).
#[derive(Debug)]
struct Entry<T> {
    value: T,
    stamp: Stamp,
    last_used: AtomicU64,
}

/// One shard of a stage's store: artifacts keyed by (configuration
/// tag, design key).
#[derive(Debug)]
struct Shard<T> {
    entries: HashMap<(u64, u128), Entry<T>>,
    /// Entries this shard has evicted since construction (maintained
    /// under the write lock; feeds [`EvalCache::shard_stats`]).
    evictions: u64,
}

// Manual impl: `derive(Default)` would needlessly require `T: Default`.
impl<T> Default for Shard<T> {
    fn default() -> Self {
        Self {
            entries: HashMap::new(),
            evictions: 0,
        }
    }
}

/// Routes a configuration tag to its shard: a multiply-mix so
/// sequential or low-entropy tags still spread, taking the top bits
/// (the best-mixed ones) as the index.
fn shard_of(tag: u64) -> usize {
    debug_assert!(SHARD_COUNT.is_power_of_two());
    #[allow(clippy::cast_possible_truncation)]
    {
        (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARD_COUNT.trailing_zeros())) as usize
    }
}

/// One shard's share of the per-stage artifact cap (at least 1, so a
/// pathologically tiny cap still caches the hot artifact).
fn per_shard_cap(cap: usize) -> usize {
    cap.div_ceil(SHARD_COUNT).max(1)
}

/// Evicts the least-recently-used quarter (at least one entry) of a
/// full shard, adding the dropped entries to the shard's eviction
/// count. Access-clock stamps are unique, so the quantile threshold
/// evicts an exact count, and selecting it takes linear time under the
/// write lock.
fn evict_lru<T>(shard: &mut Shard<T>) {
    let mut stamps: Vec<u64> = shard
        .entries
        .values()
        .map(|e| e.last_used.load(Ordering::Relaxed))
        .collect();
    if stamps.is_empty() {
        return;
    }
    let drop_n = (stamps.len() / 4).max(1);
    let threshold = *stamps.select_nth_unstable(drop_n - 1).1;
    let before = shard.entries.len();
    shard
        .entries
        .retain(|_, e| e.last_used.load(Ordering::Relaxed) > threshold);
    shard.evictions += (before - shard.entries.len()) as u64;
}

/// One stage's sharded store. It keeps no hit/miss counters: each
/// lookup counts into the caller's [`StageCounters`], and evictions
/// are counted inside the shard that evicted.
#[derive(Debug)]
pub(crate) struct StageCell<T> {
    shards: [RwLock<Shard<T>>; SHARD_COUNT],
    /// The store-wide access clock LRU stamps come from.
    clock: AtomicU64,
}

// Manual impl: `derive(Default)` would needlessly require `T: Default`.
impl<T> Default for StageCell<T> {
    fn default() -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(Shard::default())),
            clock: AtomicU64::new(0),
        }
    }
}

impl<T: Clone> StageCell<T> {
    /// Looks (`tag`, `key`) up under the shard's *read* lock, counting
    /// the outcome on `counters` ([`StageCounters::count_hits`]
    /// attributes a hit). Hits bump the entry's LRU stamp.
    pub(crate) fn lookup(
        &self,
        tag: u64,
        key: u128,
        stamp: Stamp,
        counters: &mut StageCounters,
    ) -> Option<T> {
        let shard = self.shards[shard_of(tag)]
            .read()
            .expect("cache shard poisoned");
        let Some(entry) = shard.entries.get(&(tag, key)) else {
            counters.misses += 1;
            return None;
        };
        entry.last_used.store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        counters.count_hits(1, entry.stamp, stamp);
        Some(entry.value.clone())
    }

    /// Inserts under the shard's write lock, evicting the shard's LRU
    /// quarter first when it is at its share of `cap`.
    pub(crate) fn insert(&self, tag: u64, key: u128, stamp: Stamp, value: T, cap: usize) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shards[shard_of(tag)]
            .write()
            .expect("cache shard poisoned");
        let exists = shard.entries.contains_key(&(tag, key));
        if !exists && shard.entries.len() >= per_shard_cap(cap) {
            evict_lru(&mut shard);
        }
        let entry = Entry {
            value,
            stamp,
            last_used: AtomicU64::new(now),
        };
        shard.entries.insert((tag, key), entry);
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// Folds this cell's per-shard occupancy and eviction counts into
    /// `out` (indexed by shard).
    fn fold_shard_stats(&self, out: &mut [ShardStats; SHARD_COUNT]) {
        for (shard, slot) in self.shards.iter().zip(out.iter_mut()) {
            let shard = shard.read().expect("cache shard poisoned");
            slot.entries += shard.entries.len();
            slot.evictions += shard.evictions;
        }
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("cache shard poisoned").entries.clear();
        }
    }
}

/// The per-stage namespace tags of one (model, workload) configuration:
/// a hash of each stage's input-slice fingerprint, prefixed onto every
/// key so entries from one configuration can never answer another's
/// lookups — even when concurrent `execute` calls race on a shared
/// executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StageTags {
    pub(crate) physical: u64,
    pub(crate) yields: u64,
    pub(crate) embodied: u64,
    pub(crate) power: u64,
    pub(crate) operational: u64,
}

fn hash_str(s: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    s.hash(&mut hasher);
    hasher.finish()
}

/// The context-only part of a model's [`StageTags`], derived once per
/// [`CarbonModel`] (see [`CarbonModel::context_tags`]): every tag but
/// the operational one, which also hashes the workload, plus that
/// tag's hasher already fed with its context prefix. Resolving a
/// call's tags therefore renders the workload and nothing else.
#[derive(Debug)]
pub(crate) struct ContextTags {
    physical: u64,
    yields: u64,
    embodied: u64,
    power: u64,
    operational: DefaultHasher,
}

impl ContextTags {
    /// Hashes, for each stage, the union of the context slices that
    /// stage and its upstream stages read — nothing more, which is
    /// exactly what lets downstream-only changes keep upstream tags
    /// (and therefore artifacts) stable.
    pub(crate) fn new(ctx: &ModelContext, power_model: &dyn PowerModel) -> Self {
        let geometry = ctx.fingerprint_geometry();
        let yields = format!("{geometry}\u{1f}{}", ctx.fingerprint_yield());
        let embodied = format!("{yields}\u{1f}{}", ctx.fingerprint_fab());
        let mut operational = DefaultHasher::new();
        operational.write(
            format!(
                "op\u{1f}{geometry}\u{1f}{}\u{1f}{}\u{1f}",
                ctx.fingerprint_use(),
                power_model.fingerprint(),
            )
            .as_bytes(),
        );
        Self {
            physical: hash_str(&format!("phys\u{1f}{geometry}")),
            yields: hash_str(&format!("yield\u{1f}{yields}")),
            embodied: hash_str(&format!("emb\u{1f}{embodied}")),
            power: hash_str(&format!("power\u{1f}{geometry}")),
            operational,
        }
    }

    /// The tags of one evaluation. `workload` is `None` for
    /// embodied-only evaluations — the operational stage is never
    /// consulted there, and the embodied chain's tags do not depend on
    /// the workload, so embodied-only and lifecycle requests share
    /// every upstream artifact.
    fn resolve(&self, workload: Option<&Workload>) -> StageTags {
        let operational = match workload {
            Some(workload) => {
                // SipHash reads its input as one byte stream, so
                // streaming the rendering after the primed prefix and
                // ending with `str::hash`'s 0xff terminator gives
                // exactly `hash_str` of the whole tag string.
                let mut hasher = self.operational.clone();
                let _ = write!(HashWriter(&mut hasher), "{workload:?}");
                hasher.write_u8(0xff);
                hasher.finish()
            }
            // Embodied-only: a sentinel no real workload tag can equal
            // (real tags always embed the use-grid fingerprint).
            None => hash_str("op\u{1f}\u{1f}embodied-only"),
        };
        StageTags {
            physical: self.physical,
            yields: self.yields,
            embodied: self.embodied,
            power: self.power,
            operational,
        }
    }
}

/// Feeds formatted text straight into a hasher, so a rendering is
/// hashed without being collected into a `String`.
struct HashWriter<'a>(&'a mut DefaultHasher);

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// The two SipHash passes behind a design key, fed in blocks: the
/// canonical encoding is dozens of small fields, each `write` to a
/// SipHasher costs a call, and SipHash reads its input as one byte
/// stream, so buffering changes the cost but never the hash.
struct KeyStream {
    lanes: [DefaultHasher; 2],
    buf: [u8; 256],
    len: usize,
}

impl KeyStream {
    /// The hash of everything written so far under lane `i`'s key.
    fn lane(&self, i: usize) -> u64 {
        let mut lane = self.lanes[i].clone();
        lane.write(&self.buf[..self.len]);
        lane.finish()
    }
}

impl Hasher for KeyStream {
    fn finish(&self) -> u64 {
        self.lane(0)
    }

    fn write(&mut self, bytes: &[u8]) {
        if self.len + bytes.len() > self.buf.len() {
            for lane in &mut self.lanes {
                lane.write(&self.buf[..self.len]);
            }
            self.len = 0;
        }
        if bytes.len() > self.buf.len() {
            for lane in &mut self.lanes {
                lane.write(bytes);
            }
        } else {
            self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
            self.len += bytes.len();
        }
    }
}

/// Hashes an optional numeric field by presence and raw bit pattern,
/// so distinct values (`+0.0` and `-0.0` included) feed distinct bytes.
fn hash_bits<H: Hasher>(h: &mut H, value: Option<f64>) {
    match value {
        None => h.write_u8(0),
        Some(v) => {
            h.write_u8(1);
            h.write_u64(v.to_bits());
        }
    }
}

/// Feeds the canonical form of a design into `h`: its shape and
/// integration choices, its die count, and every die spec. Each field
/// is written with a self-delimiting encoding (strings end in a byte
/// UTF-8 never uses, options carry a presence byte), so distinct
/// designs always feed distinct byte streams.
fn hash_design<H: Hasher>(design: &ChipDesign, h: &mut H) {
    match design {
        ChipDesign::Monolithic2d { .. } => h.write_u8(1),
        ChipDesign::Stack3d {
            tech,
            orientation,
            flow,
            ..
        } => {
            h.write_u8(2);
            tech.hash(h);
            orientation.hash(h);
            flow.hash(h);
        }
        ChipDesign::Assembly25d { tech, .. } => {
            h.write_u8(3);
            tech.hash(h);
        }
    }
    h.write_usize(design.dies().len());
    for die in design.dies() {
        die.name().hash(h);
        die.node().hash(h);
        hash_bits(h, die.gate_count());
        hash_bits(h, die.area_override().map(|a| a.mm2()));
        hash_bits(h, die.beol_override().map(f64::from));
        hash_bits(h, die.efficiency().map(|e| e.tops_per_watt()));
        hash_bits(h, die.compute_share());
        match die.rent() {
            None => h.write_u8(0),
            Some(r) => {
                h.write_u8(1);
                hash_bits(h, Some(r.exponent()));
                hash_bits(h, Some(r.terminals_per_gate()));
                hash_bits(h, Some(r.fanout()));
                hash_bits(h, Some(r.external_exponent()));
            }
        }
    }
}

/// A thread-safe, sharded, per-stage artifact store for pipeline
/// evaluations.
///
/// The cache belongs to a
/// [`SweepExecutor`](crate::sweep::SweepExecutor) — and, through a
/// [`ScenarioSession`](crate::service::ScenarioSession), is shared by
/// every client of a multi-connection server — and survives across
/// `execute` calls *and configuration changes*: repeated sweeps over
/// overlapping design spaces skip already-computed points entirely,
/// and sweeps that vary only downstream axes (a new use-phase grid, a
/// new lifetime) skip every upstream stage.
#[derive(Debug)]
pub struct EvalCache {
    pub(crate) physical: StageCell<Arc<PhysicalProfile>>,
    pub(crate) yields: StageCell<Arc<YieldProfile>>,
    pub(crate) embodied: StageCell<EmbodiedOutcome>,
    pub(crate) power: StageCell<Arc<PowerProfile>>,
    pub(crate) operational: StageCell<Arc<OperationalReport>>,
    /// The current request epoch. Artifacts remember the epoch they
    /// were inserted in; a hit on an artifact from an earlier epoch is
    /// *cross-request* reuse (see [`StageCounters::cross_hits`]).
    epoch: AtomicU64,
    /// The client of the most recent [`begin_request`]
    /// (see [`StageCounters::client_hits`]). Like the epoch, this is
    /// ambient per-request state: concurrent requests from different
    /// clients can skew attribution slightly, never correctness.
    ///
    /// [`begin_request`]: EvalCache::begin_request
    client: AtomicU64,
    /// Per-stage artifact cap (see [`DEFAULT_ARTIFACT_CAP`]).
    artifact_cap: usize,
    /// The running sum of every evaluation call's stage counts (see
    /// [`CacheStats::stages`]).
    totals: Mutex<PipelineStats>,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::with_artifact_cap(DEFAULT_ARTIFACT_CAP)
    }
}

impl EvalCache {
    /// Creates an empty cache with the default per-stage artifact cap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache whose per-stage stores retain at most
    /// about `cap` artifacts each (a cap of 0 is treated as 1). The
    /// cap is divided across the 8 lock shards; a shard reaching
    /// its share evicts its least-recently-used quarter — recomputing
    /// is always safe — so a tiny cap trades recomputation for memory
    /// without ever changing results.
    #[must_use]
    pub fn with_artifact_cap(cap: usize) -> Self {
        Self {
            physical: StageCell::default(),
            yields: StageCell::default(),
            embodied: StageCell::default(),
            power: StageCell::default(),
            operational: StageCell::default(),
            epoch: AtomicU64::new(0),
            client: AtomicU64::new(0),
            artifact_cap: cap.max(1),
            totals: Mutex::new(PipelineStats::default()),
        }
    }

    /// The per-stage artifact cap this cache was built with.
    #[must_use]
    pub fn artifact_cap(&self) -> usize {
        self.artifact_cap
    }

    /// Starts a new request epoch and returns it. Long-lived owners
    /// (a [`ScenarioSession`](crate::service::ScenarioSession), the
    /// `tdc sweep --repeat` loop) call this at every request boundary
    /// so hit counters can attribute reuse to *earlier requests*
    /// rather than to sharing within one evaluation. Evaluations never
    /// advance the epoch themselves.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Starts a new request epoch *on behalf of `client`* and returns
    /// the epoch. Multi-client owners (the `tdc serve --listen`
    /// frontend) pass each connection's id so hits on another
    /// connection's artifacts are attributed as cross-client reuse;
    /// single-client owners are simply always client 0 (equivalent to
    /// [`advance_epoch`](Self::advance_epoch)).
    pub fn begin_request(&self, client: u64) -> u64 {
        self.client.store(client, Ordering::Relaxed);
        self.advance_epoch()
    }

    /// The ambient (epoch, client) stamp evaluations run under,
    /// captured once per evaluation at the same point the epoch used
    /// to be read.
    pub(crate) fn current_stamp(&self) -> Stamp {
        Stamp {
            epoch: self.epoch.load(Ordering::Relaxed),
            client: self.client.load(Ordering::Relaxed),
        }
    }

    /// The key of a design in every stage store: a 128-bit hash of its
    /// canonical form — every die spec (name, node, and the raw bit
    /// pattern of each numeric field, so distinct values get distinct
    /// keys), the die count, and the integration technology,
    /// orientation, and flow. Its halves are two passes of std's
    /// SipHash over that encoding, under two keys drawn at random once
    /// per process: keys are stable for the life of every store they
    /// index, while a serve client cannot craft two designs whose keys
    /// collide.
    #[must_use]
    pub fn key_for(design: &ChipDesign) -> u128 {
        static SEEDS: OnceLock<[RandomState; 2]> = OnceLock::new();
        let [first, second] = SEEDS.get_or_init(|| [RandomState::new(), RandomState::new()]);
        let mut stream = KeyStream {
            lanes: [first.build_hasher(), second.build_hasher()],
            buf: [0; 256],
            len: 0,
        };
        hash_design(design, &mut stream);
        (u128::from(stream.lane(0)) << 64) | u128::from(stream.lane(1))
    }

    /// The per-stage namespace tags for a (model, workload)
    /// configuration (see [`ContextTags`]); `workload` is `None` for
    /// embodied-only evaluations. Only the workload is rendered per
    /// call — the context's fingerprints are hashed once per model.
    pub(crate) fn stage_tags(model: &CarbonModel, workload: Option<&Workload>) -> StageTags {
        model.context_tags().resolve(workload)
    }

    /// Adds one evaluation call's stage counts to the running sum
    /// [`stats`](Self::stats) reports.
    pub(crate) fn record(&self, stages: &PipelineStats) {
        let mut totals = self.totals.lock().expect("cache totals lock poisoned");
        *totals = totals.merged(stages);
    }

    /// Current counters and size.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            stages: *self.totals.lock().expect("cache totals lock poisoned"),
            entries: self.physical.len()
                + self.yields.len()
                + self.embodied.len()
                + self.power.len()
                + self.operational.len(),
            evictions: self.shard_stats().iter().map(|s| s.evictions).sum(),
        }
    }

    /// Per-shard occupancy and eviction counts, summed across the five
    /// stage cells (shard `i` of every stage shares index `i`).
    /// Occupancy reflects the current contents; evictions are
    /// cumulative since construction (maintained inside each shard, so
    /// they attribute LRU pressure to the shard that felt it).
    #[must_use]
    pub fn shard_stats(&self) -> [ShardStats; SHARD_COUNT] {
        let mut out = [ShardStats::default(); SHARD_COUNT];
        self.physical.fold_shard_stats(&mut out);
        self.yields.fold_shard_stats(&mut out);
        self.embodied.fold_shard_stats(&mut out);
        self.power.fold_shard_stats(&mut out);
        self.operational.fold_shard_stats(&mut out);
        out
    }

    /// Publishes this cache's cumulative counters and per-shard
    /// occupancy/evictions into the global obs gauges
    /// (`cache.*` in `tdc_obs::metrics::CATALOG`). Called by the
    /// metric sinks (profile writer, serve metrics frame, exposition
    /// scrape) right before they snapshot, so the published levels
    /// always describe the cache actually serving traffic.
    pub fn publish_obs(&self) {
        use tdc_obs::metrics as m;
        const {
            assert!(
                SHARD_COUNT == m::CACHE_SHARDS,
                "obs per-shard gauge arrays must match the cache shard count"
            );
        }
        let stats = self.stats();
        let to_i64 = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        m::CACHE_HITS.set(to_i64(stats.stages.hits()));
        m::CACHE_CROSS_HITS.set(to_i64(stats.stages.cross_hits()));
        m::CACHE_CLIENT_HITS.set(to_i64(stats.stages.client_hits()));
        m::CACHE_MISSES.set(to_i64(stats.stages.misses()));
        m::CACHE_EVICTIONS.set(to_i64(stats.evictions));
        m::CACHE_ENTRIES.set(to_i64(stats.entries as u64));
        for (i, shard) in self.shard_stats().iter().enumerate() {
            m::CACHE_SHARD_ENTRIES[i].set(to_i64(shard.entries as u64));
            m::CACHE_SHARD_EVICTIONS[i].set(to_i64(shard.evictions));
        }
    }

    /// Drops every stored artifact in every stage (counters are kept).
    pub fn clear(&self) {
        self.physical.clear();
        self.yields.clear();
        self.embodied.clear();
        self.power.clear();
        self.operational.clear();
    }

    /// The physical profile of `point`: the keyed store, else
    /// computed and inserted. The lookup counts on `counters`.
    pub(crate) fn physical_or_eval(
        &self,
        point: &PointLookup<'_>,
        counters: &mut StageCounters,
    ) -> Arc<PhysicalProfile> {
        let (tag, key) = (point.tags.physical, point.design_key);
        if let Some(p) = self.physical.lookup(tag, key, point.stamp, counters) {
            return p;
        }
        let p = Arc::new(pipeline::physical_profile(
            point.model.context(),
            point.design,
        ));
        self.physical
            .insert(tag, key, point.stamp, Arc::clone(&p), self.artifact_cap);
        p
    }

    /// The yield profile of `point`: the keyed store, else computed
    /// from `phys` and inserted.
    pub(crate) fn yield_or_eval(
        &self,
        point: &PointLookup<'_>,
        phys: &PhysicalProfile,
        counters: &mut StageCounters,
    ) -> Result<Arc<YieldProfile>, ModelError> {
        let (tag, key) = (point.tags.yields, point.design_key);
        if let Some(y) = self.yields.lookup(tag, key, point.stamp, counters) {
            return Ok(y);
        }
        let y = Arc::new(pipeline::yield_profile(
            point.model.context(),
            point.design,
            phys,
        )?);
        self.yields
            .insert(tag, key, point.stamp, Arc::clone(&y), self.artifact_cap);
        Ok(y)
    }

    /// The power profile of `point`: the keyed store, else computed
    /// from `phys` and inserted.
    pub(crate) fn power_or_eval(
        &self,
        point: &PointLookup<'_>,
        phys: &PhysicalProfile,
        counters: &mut StageCounters,
    ) -> Result<Arc<PowerProfile>, ModelError> {
        let (tag, key) = (point.tags.power, point.design_key);
        if let Some(p) = self.power.lookup(tag, key, point.stamp, counters) {
            return Ok(p);
        }
        let p = Arc::new(pipeline::power_profile(
            point.model.context(),
            point.design,
            phys,
        )?);
        self.power
            .insert(tag, key, point.stamp, Arc::clone(&p), self.artifact_cap);
        Ok(p)
    }
}

/// Everything a single point lookup needs, bundled so the per-stage
/// helpers stay readable.
pub(crate) struct PointLookup<'a> {
    pub(crate) tags: &'a StageTags,
    pub(crate) model: &'a CarbonModel,
    pub(crate) design: &'a ChipDesign,
    pub(crate) design_key: u128,
    pub(crate) stamp: Stamp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ModelContext;
    use crate::design::DieSpec;
    use crate::model::LifecycleReport;
    use crate::sweep::batch::evaluate_one;
    use tdc_technode::{GridRegion, ProcessNode};
    use tdc_units::{Throughput, TimeSpan};

    fn model() -> CarbonModel {
        CarbonModel::new(ModelContext::default())
    }

    fn workload() -> Workload {
        Workload::fixed(
            "app",
            Throughput::from_tops(50.0),
            TimeSpan::from_hours(1_000.0),
        )
    }

    fn sc(hits: u64, misses: u64) -> StageCounters {
        StageCounters {
            hits,
            cross_hits: 0,
            client_hits: 0,
            misses,
        }
    }

    fn mono(gates: f64) -> ChipDesign {
        ChipDesign::monolithic_2d(
            DieSpec::builder("d", ProcessNode::N7)
                .gate_count(gates)
                .build()
                .unwrap(),
        )
    }

    /// The zero stamp every single-request test runs under.
    const S0: Stamp = Stamp {
        epoch: 0,
        client: 0,
    };

    /// One design through the kernel's one-slot entry: the lifecycle
    /// report (`None` when oversized), the every-stage-hit flag, and
    /// exactly this call's stage counts.
    fn life(
        cache: &EvalCache,
        m: &CarbonModel,
        d: &ChipDesign,
        w: &Workload,
    ) -> (Option<LifecycleReport>, bool, PipelineStats) {
        let one = evaluate_one(cache, m, d, Some(w)).unwrap();
        let report = match (one.embodied, one.operational) {
            (EmbodiedOutcome::Report(e), Some(op)) => Some(LifecycleReport {
                embodied: (*e).clone(),
                operational: (*op).clone(),
            }),
            _ => None,
        };
        (report, one.stats.misses() == 0, one.stats)
    }

    /// Evictions of one cell, summed over its shards.
    fn evictions<T: Clone>(cell: &StageCell<T>) -> u64 {
        let mut shards = [ShardStats::default(); SHARD_COUNT];
        cell.fold_shard_stats(&mut shards);
        shards.iter().map(|s| s.evictions).sum()
    }

    #[test]
    fn second_lookup_hits_every_stage() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = mono(5.0e9);
        let (first, hit1, _) = life(&cache, &m, &d, &w);
        let (second, hit2, _) = life(&cache, &m, &d, &w);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first, second);
        let stats = cache.stats();
        // Cold pass: one miss per stage. Warm pass: only the two
        // artifact heads (embodied, operational) are consulted — the
        // intermediate stages are not even looked up.
        assert_eq!(stats.stages.embodied, sc(1, 1));
        assert_eq!(stats.stages.operational, sc(1, 1));
        assert_eq!(stats.stages.physical, sc(0, 1));
        assert_eq!(stats.stages.yields, sc(0, 1));
        assert_eq!(stats.stages.power, sc(0, 1));
        assert_eq!(stats.entries, 5);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn operational_axis_change_keeps_embodied_artifacts() {
        // The whole point of the per-stage store: a use-grid change
        // reuses geometry, yield, embodied, and power artifacts, and
        // recomputes only the operational stage.
        let cache = EvalCache::new();
        let d = mono(5.0e9);
        let w = workload();
        let base = model();
        let tags = EvalCache::stage_tags(&base, Some(&w));
        life(&cache, &base, &d, &w);

        let moved = CarbonModel::new(
            ModelContext::builder()
                .use_region(GridRegion::France)
                .build(),
        );
        let moved_tags = EvalCache::stage_tags(&moved, Some(&w));
        assert_eq!(tags.embodied, moved_tags.embodied);
        assert_ne!(tags.operational, moved_tags.operational);
        let (report, hit, _) = life(&cache, &moved, &d, &w);
        assert!(!hit, "the operational stage must recompute");
        let stats = cache.stats();
        assert_eq!(
            stats.stages.embodied,
            sc(1, 1),
            "embodied artifact answered from the store"
        );
        assert_eq!(
            stats.stages.physical,
            sc(1, 1),
            "geometry reused for the new operational stage"
        );
        assert_eq!(stats.stages.power, sc(1, 1));
        assert_eq!(stats.stages.operational, sc(0, 2));
        // And the re-priced report matches an uncached evaluation.
        let fresh = moved.lifecycle(&d, &w).unwrap();
        assert_eq!(report.unwrap(), fresh);
    }

    #[test]
    fn fab_axis_change_keeps_operational_artifacts() {
        let cache = EvalCache::new();
        let d = mono(5.0e9);
        let w = workload();
        let base = model();
        let tags = EvalCache::stage_tags(&base, Some(&w));
        life(&cache, &base, &d, &w);

        let moved = CarbonModel::new(
            ModelContext::builder()
                .fab_region(GridRegion::Renewable)
                .build(),
        );
        let moved_tags = EvalCache::stage_tags(&moved, Some(&w));
        assert_eq!(tags.operational, moved_tags.operational);
        assert_ne!(tags.embodied, moved_tags.embodied);
        let (report, _, _) = life(&cache, &moved, &d, &w);
        let stats = cache.stats();
        assert_eq!(
            stats.stages.operational,
            sc(1, 1),
            "operational artifact answered from the store"
        );
        assert_eq!(stats.stages.embodied, sc(0, 2));
        assert_eq!(report.unwrap(), moved.lifecycle(&d, &w).unwrap());
    }

    #[test]
    fn oversized_outcome_is_remembered() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = ChipDesign::monolithic_2d(
            DieSpec::builder("huge", ProcessNode::N28)
                .gate_count(60.0e9) // far beyond a 300 mm wafer at 28 nm
                .build()
                .unwrap(),
        );
        let (r1, hit1, _) = life(&cache, &m, &d, &w);
        let (r2, hit2, _) = life(&cache, &m, &d, &w);
        assert!(r1.is_none() && r2.is_none());
        assert!(!hit1);
        assert!(hit2);
        // The upstream physical/yield artifacts stay cached — a wafer
        // change could reuse them even though this wafer can't build
        // the design.
        assert_eq!(cache.stats().stages.embodied.misses, 1);
    }

    #[test]
    fn workload_change_namespaces_operational_only() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = mono(5.0e9);
        let tags = EvalCache::stage_tags(&m, Some(&w));
        life(&cache, &m, &d, &w);
        let longer = Workload::fixed(
            "app",
            Throughput::from_tops(50.0),
            TimeSpan::from_hours(2_000.0),
        );
        let longer_tags = EvalCache::stage_tags(&m, Some(&longer));
        assert_eq!(tags.embodied, longer_tags.embodied);
        assert_ne!(tags.operational, longer_tags.operational);
        let (_, hit, _) = life(&cache, &m, &d, &longer);
        assert!(!hit, "a different workload must re-price operations");
        assert_eq!(cache.stats().stages.embodied.hits, 1);
    }

    #[test]
    fn memoized_tags_hash_the_whole_tag_strings() {
        // The model memo streams the workload after a primed prefix;
        // the result must equal hashing each whole tag string, so the
        // stores (and their shard routing) keep the same namespaces.
        let m = model();
        let ctx = m.context();
        let geometry = ctx.fingerprint_geometry();
        for w in [workload(), workload().with_average_utilization(0.25)] {
            let tags = EvalCache::stage_tags(&m, Some(&w));
            assert_eq!(tags.physical, hash_str(&format!("phys\u{1f}{geometry}")));
            assert_eq!(
                tags.operational,
                hash_str(&format!(
                    "op\u{1f}{geometry}\u{1f}{}\u{1f}{}\u{1f}{w:?}",
                    ctx.fingerprint_use(),
                    m.power_model().fingerprint(),
                ))
            );
        }
        assert_eq!(
            EvalCache::stage_tags(&m, None).operational,
            hash_str("op\u{1f}\u{1f}embodied-only")
        );
    }

    #[test]
    fn clear_drops_entries() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        life(&cache, &m, &mono(5.0e9), &w);
        assert_eq!(cache.stats().entries, 5);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn eviction_is_lru_within_a_shard() {
        // One tag → one shard. With a cap of 32 the shard's share is
        // 32 / SHARD_COUNT = 4: filling it and inserting a fifth entry
        // must evict exactly the least-recently-used quarter (one
        // entry) — and a lookup decides recency, so touching the
        // oldest entry redirects eviction to the next-oldest.
        let cell: StageCell<u8> = StageCell::default();
        const CAP: usize = 4 * SHARD_COUNT;
        let mut counters = StageCounters::default();
        for i in 0..4u8 {
            cell.insert(7, u128::from(i), S0, i, CAP);
        }
        assert_eq!(cell.len(), 4);
        // Touch key 0: key 1 becomes the LRU entry.
        assert_eq!(cell.lookup(7, 0, S0, &mut counters), Some(0));
        cell.insert(7, 4, S0, 4, CAP);
        assert_eq!(cell.len(), 4, "one in, one out");
        assert_eq!(
            cell.lookup(7, 1, S0, &mut counters),
            None,
            "LRU entry evicted"
        );
        assert_eq!(
            cell.lookup(7, 0, S0, &mut counters),
            Some(0),
            "touched entry kept"
        );
        assert_eq!(
            cell.lookup(7, 4, S0, &mut counters),
            Some(4),
            "new entry stored"
        );
        assert_eq!(evictions(&cell), 1);
    }

    #[test]
    fn counters_survive_eviction() {
        // The cap-and-drop regression: overflowing a stage store must
        // never reset its cumulative hit/miss accounting mid-stream.
        let cell: StageCell<u8> = StageCell::default();
        const CAP: usize = SHARD_COUNT; // one entry per shard
        let mut counters = StageCounters::default();
        cell.insert(3, 0xa, S0, 1, CAP);
        assert_eq!(cell.lookup(3, 0xa, S0, &mut counters), Some(1));
        assert_eq!(cell.lookup(3, 0xdead, S0, &mut counters), None);
        let before = counters;
        assert_eq!(before, sc(1, 1));
        // Same tag → same shard → every insert beyond the first evicts.
        for i in 0..8u8 {
            cell.insert(3, 0x100 + u128::from(i), S0, i, CAP);
        }
        assert!(evictions(&cell) > 0, "the shard must have overflowed");
        assert_eq!(
            counters, before,
            "inserts and evictions never touch the hit/miss counters"
        );
        // And the store keeps answering: the most recent entry is warm.
        assert_eq!(cell.lookup(3, 0x107, S0, &mut counters), Some(7));
        assert_eq!(counters.hits, before.hits + 1);
    }

    #[test]
    fn cache_stats_survive_eviction_end_to_end() {
        // The same regression at the EvalCache level: a cap-1 cache
        // evicts on nearly every evaluation, yet stats().stages only
        // ever grows and entries reflects what actually survived.
        let cache = EvalCache::with_artifact_cap(1);
        let (m, w) = (model(), workload());
        life(&cache, &m, &mono(5.0e9), &w);
        let before = cache.stats();
        assert_eq!(before.stages.misses(), 5);
        life(&cache, &m, &mono(6.0e9), &w);
        let after = cache.stats();
        assert_eq!(
            after.stages.misses(),
            10,
            "counters accumulate across evictions"
        );
        assert!(after.stages.hits() >= before.stages.hits());
        assert!(after.entries <= 5 * SHARD_COUNT);
    }

    #[test]
    fn tiny_caps_never_change_results() {
        // Eviction costs recomputation, never correctness: a cap-1
        // cache answers byte-identically to an uncapped one.
        let roomy = EvalCache::new();
        let tight = EvalCache::with_artifact_cap(1);
        let (m, w) = (model(), workload());
        for gates in [5.0e9, 6.0e9, 5.0e9, 7.0e9, 6.0e9] {
            let d = mono(gates);
            let (a, _, _) = life(&roomy, &m, &d, &w);
            let (b, _, _) = life(&tight, &m, &d, &w);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sharded_reads_and_writes_interleave_safely() {
        // A seeded thread-stress loop over the sharded read/write
        // path: every stored value is a pure function of its (tag,
        // key), so any lookup that returns a value for the wrong key —
        // under any interleaving of reads, writes, and LRU evictions —
        // fails the assertion. Counters must account for every lookup.
        let cell: StageCell<u64> = StageCell::default();
        const CAP: usize = 8 * SHARD_COUNT;
        let total_lookups = std::sync::atomic::AtomicU64::new(0);
        let summed = std::sync::Mutex::new(StageCounters::default());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (cell, total_lookups, summed) = (&cell, &total_lookups, &summed);
                scope.spawn(move || {
                    let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
                    let mut counters = StageCounters::default();
                    let mut lookups = 0u64;
                    for i in 0..2_000u64 {
                        seed = seed
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let tag = seed >> 60; // 16 tags spread over shards
                        let k = (seed >> 32) & 31; // 32 keys per tag
                        let key = u128::from(k);
                        let stamp = Stamp {
                            epoch: i / 500,
                            client: t,
                        };
                        lookups += 1;
                        match cell.lookup(tag, key, stamp, &mut counters) {
                            Some(v) => assert_eq!(v, tag ^ k, "value belongs to another key"),
                            None => cell.insert(tag, key, stamp, tag ^ k, CAP),
                        }
                    }
                    assert_eq!(counters.hits + counters.misses, lookups);
                    total_lookups.fetch_add(lookups, Ordering::Relaxed);
                    let mut sum = summed.lock().unwrap();
                    sum.hits += counters.hits;
                    sum.misses += counters.misses;
                });
            }
        });
        let c = *summed.lock().unwrap();
        assert_eq!(
            c.hits + c.misses,
            total_lookups.load(Ordering::Relaxed),
            "cumulative counters account for every lookup"
        );
        assert!(c.hits > 0 && c.misses > 0);
        assert!(
            cell.len() <= per_shard_cap(CAP) * SHARD_COUNT,
            "shards stay within their cap share"
        );
    }

    #[test]
    fn shard_routing_spreads_tags() {
        // Even low-entropy sequential tags must not pile onto one
        // shard (the routing mixes before taking the top bits).
        let mut seen = [false; SHARD_COUNT];
        for tag in 0..64u64 {
            seen[shard_of(tag)] = true;
        }
        assert!(seen.iter().filter(|s| **s).count() >= SHARD_COUNT / 2);
        assert!((0..1024u64).all(|t| shard_of(t) < SHARD_COUNT));
    }

    #[test]
    fn cross_epoch_hits_are_attributed_to_earlier_requests() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = mono(5.0e9);
        // Request 1: cold.
        cache.advance_epoch();
        let (_, _, s1) = life(&cache, &m, &d, &w);
        assert_eq!(s1.cross_hits(), 0);
        // Request 2: both artifact heads come from request 1.
        cache.advance_epoch();
        let (_, _, s2) = life(&cache, &m, &d, &w);
        assert_eq!(s2.hits(), 2);
        assert_eq!(s2.cross_hits(), 2, "warmth came from the earlier epoch");
        assert!((s2.cross_hit_rate() - 1.0).abs() < 1e-12);
        // A re-evaluation *within* request 2 hits, but not cross-epoch.
        let moved = CarbonModel::new(
            ModelContext::builder()
                .use_region(GridRegion::France)
                .build(),
        );
        let (_, _, s3) = life(&cache, &moved, &d, &w);
        // Embodied head: cross hit (inserted in request 1). The
        // physical/power artifacts under the recomputed operational
        // stage are cross hits too.
        assert_eq!(s3.embodied.cross_hits, 1);
        assert_eq!(s3.operational.misses, 1);
        // Cumulative counters carry the same attribution.
        assert_eq!(
            cache.stats().stages.cross_hits(),
            s2.cross_hits() + s3.cross_hits()
        );
    }

    #[test]
    fn cross_client_hits_are_attributed_to_other_clients() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = mono(5.0e9);
        // Client 1 computes everything.
        cache.begin_request(1);
        let (_, _, s1) = life(&cache, &m, &d, &w);
        assert_eq!(s1.client_hits(), 0);
        // Client 2 answers both heads from client 1's artifacts.
        cache.begin_request(2);
        let (_, _, s2) = life(&cache, &m, &d, &w);
        assert_eq!(s2.hits(), 2);
        assert_eq!(s2.client_hits(), 2, "warmth came from another client");
        assert_eq!(s2.cross_hits(), 2, "and from an earlier request");
        assert!((s2.client_hit_rate() - 1.0).abs() < 1e-12);
        // Client 1 returning sees plain cross-request hits, not
        // cross-client ones — it computed these artifacts itself.
        cache.begin_request(1);
        let (_, _, s3) = life(&cache, &m, &d, &w);
        assert_eq!(s3.client_hits(), 0);
        assert_eq!(s3.cross_hits(), 2);
        assert_eq!(cache.stats().stages.client_hits(), 2);
    }

    #[test]
    fn embodied_only_requests_share_upstream_artifacts_with_lifecycle() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let d = mono(5.0e9);
        // Embodied-only request warms the embodied chain...
        cache.advance_epoch();
        let only = evaluate_one(&cache, &m, &d, None).unwrap();
        assert!(matches!(only.embodied, EmbodiedOutcome::Report(_)));
        assert!(
            only.operational.is_none(),
            "no workload, no operational head"
        );
        assert_eq!(only.stats.embodied.misses, 1);
        // ...and a later lifecycle request answers embodied from it.
        cache.advance_epoch();
        let (report, _, s2) = life(&cache, &m, &d, &w);
        let fresh = m.lifecycle(&d, &w).unwrap();
        assert_eq!(report.unwrap(), fresh);
        assert_eq!(
            s2.embodied,
            StageCounters {
                hits: 1,
                cross_hits: 1,
                client_hits: 0,
                misses: 0
            }
        );
        // The physical artifact under the operational stage is shared
        // too; only power + operational actually ran.
        assert_eq!(s2.physical.cross_hits, 1);
        assert_eq!(s2.operational.misses, 1);
    }

    #[test]
    fn stats_deltas_compose() {
        let cache = EvalCache::new();
        let (m, w) = (model(), workload());
        let before = cache.stats().stages;
        life(&cache, &m, &mono(5.0e9), &w);
        let mid = cache.stats().stages;
        life(&cache, &m, &mono(5.0e9), &w);
        let after = cache.stats().stages;
        let cold = mid.since(&before);
        let warm = after.since(&mid);
        assert_eq!(cold.misses(), 5);
        assert_eq!(cold.hits(), 0);
        assert_eq!(warm.misses(), 0);
        assert_eq!(warm.hits(), 2, "both artifact heads answered");
        assert!((warm.warm_hit_rate() - 1.0).abs() < 1e-12);
    }
}
