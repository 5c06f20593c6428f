//! The metrics registry: named atomic counters, gauges, and
//! fixed-bucket log2 latency histograms.
//!
//! Registration is a **compile-time catalog** ([`CATALOG`]): every
//! named metric is a static atomic listed in one table, so there is no
//! registration lock, no insertion-order nondeterminism, and — the
//! property the hot paths rely on — **recording never allocates**.
//! Percentiles are derived from the log2 buckets with integer
//! arithmetic only, so no float touches the record path either.
//!
//! The primitive types ([`Counter`], [`Gauge`], [`Histogram`]) are
//! also usable un-registered as plain instance fields; only statics
//! listed in [`CATALOG`] appear in snapshots. The artifact cache keeps
//! its cumulative counts as plain sums of per-call `PipelineStats`
//! (tdc-core) and copies them into the `cache.*` gauges at snapshot
//! time.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter (usable in statics and as a struct field).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and [`reset`]).
    pub fn clear(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A value that can go up and down (occupancy, level).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Replaces the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current level.
    #[inline]
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket count of a [`Histogram`]: bucket `i` holds samples whose
/// value needs `i` significant bits (`0`, `1`, `2–3`, `4–7`, …), with
/// everything at or above `2^62` clamped into the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log2 histogram of `u64` samples (latencies in
/// nanoseconds, sizes in bytes — anything whose distribution spans
/// orders of magnitude).
///
/// Recording is two relaxed atomic adds and an atomic max — no floats,
/// no allocation, no lock — so it is safe inside the zero-allocation
/// warm ranking loop. Quantiles come out as bucket upper bounds
/// ([`HistogramSnapshot::p50`] etc.), which is the right fidelity for
/// "did the p99 move an order of magnitude" dashboards.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One histogram read out at a point in time, with integer-derived
/// quantile upper bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
    /// Upper bound of the bucket holding the 50th percentile.
    pub p50: u64,
    /// Upper bound of the bucket holding the 90th percentile.
    pub p90: u64,
    /// Upper bound of the bucket holding the 99th percentile.
    pub p99: u64,
}

impl Histogram {
    /// An empty histogram (usable in statics).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index of a sample: its significant-bit count,
    /// clamped into the table.
    #[inline]
    fn bucket_of(value: u64) -> usize {
        ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The inclusive upper bound of bucket `i` (`0`, `1`, `3`, `7`, …).
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// The upper bound of the bucket containing the `q`-th percentile
    /// (integer arithmetic only; `q` in `1..=100`).
    #[must_use]
    pub fn percentile(&self, q: u64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // rank = ceil(total * q / 100), the 1-based sample index the
        // percentile falls on.
        let rank = (total * q).div_ceil(100).max(1);
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    /// Reads the histogram out as a snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: self.percentile(50),
            p90: self.percentile(90),
            p99: self.percentile(99),
        }
    }

    /// Resets every bucket (tests and [`reset`]).
    pub fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// The catalog: every named metric in the workspace.
// ---------------------------------------------------------------------

/// Per-stage pipeline compute timings (nanoseconds per stage
/// evaluation; recorded only on cache misses — warm lookups never
/// reach the stage functions).
pub static STAGE_PHYSICAL_NS: Histogram = Histogram::new();
/// See [`STAGE_PHYSICAL_NS`].
pub static STAGE_YIELD_NS: Histogram = Histogram::new();
/// See [`STAGE_PHYSICAL_NS`].
pub static STAGE_EMBODIED_NS: Histogram = Histogram::new();
/// See [`STAGE_PHYSICAL_NS`].
pub static STAGE_POWER_NS: Histogram = Histogram::new();
/// See [`STAGE_PHYSICAL_NS`].
pub static STAGE_OPERATIONAL_NS: Histogram = Histogram::new();

/// `SweepExecutor` calls (`execute` and ranking calls alike).
pub static SWEEP_EXECUTE_CALLS: Counter = Counter::new();
/// Plan points processed across all sweep calls.
pub static SWEEP_POINTS: Counter = Counter::new();
/// Stage recomputations + keyed lookups skipped by plan-aligned
/// columns (the fill kernel's delta-eval).
pub static SWEEP_DELTA_SKIPS: Counter = Counter::new();
/// Warm plan points: points whose every consulted stage was answered
/// without running it, from a batch column or the keyed store (the
/// sum of `SweepStats::cache_hits`). Stage lookups answered by columns
/// are [`SWEEP_DELTA_SKIPS`].
pub static SWEEP_COLUMN_HITS: Counter = Counter::new();

/// Cumulative stage-lookup traffic — column hits and keyed lookups
/// alike — published from the live `EvalCache` (tdc-core) at
/// snapshot time.
pub static CACHE_HITS: Gauge = Gauge::new();
/// See [`CACHE_HITS`].
pub static CACHE_CROSS_HITS: Gauge = Gauge::new();
/// See [`CACHE_HITS`].
pub static CACHE_CLIENT_HITS: Gauge = Gauge::new();
/// See [`CACHE_HITS`].
pub static CACHE_MISSES: Gauge = Gauge::new();
/// See [`CACHE_HITS`].
pub static CACHE_EVICTIONS: Gauge = Gauge::new();
/// Artifacts currently stored across all cache stages.
pub static CACHE_ENTRIES: Gauge = Gauge::new();

/// JSONL frames handled by `tdc serve` (both transports).
pub static SERVE_FRAMES: Counter = Counter::new();
/// Frames rejected as malformed or unknown.
pub static SERVE_FRAME_ERRORS: Counter = Counter::new();
/// TCP connections accepted by `tdc serve --listen`.
pub static SERVE_CONNECTIONS: Counter = Counter::new();
/// Server-side per-frame handling time (read-to-reply, nanoseconds).
pub static SERVE_FRAME_NS: Histogram = Histogram::new();

/// Trace samples parsed by streaming CSV ingest.
pub static TRACES_INGEST_SAMPLES: Counter = Counter::new();
/// Whole-file ingest wall time (nanoseconds per call).
pub static TRACES_INGEST_NS: Histogram = Histogram::new();

/// Technology packs loaded into the model registry.
pub static REGISTRY_PACK_LOADS: Counter = Counter::new();

/// A reference to one registered metric.
#[derive(Debug, Clone, Copy)]
pub enum MetricRef {
    /// A [`Counter`].
    Counter(&'static Counter),
    /// A [`Gauge`].
    Gauge(&'static Gauge),
    /// A [`Histogram`].
    Histogram(&'static Histogram),
}

/// One catalog row: the metric's dotted name and its static storage.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Dotted metric name (`layer.thing.unit`), see
    /// `docs/OBSERVABILITY.md`.
    pub name: &'static str,
    /// The storage behind the name.
    pub metric: MetricRef,
}

macro_rules! row {
    ($name:literal, counter $metric:expr) => {
        MetricDef {
            name: $name,
            metric: MetricRef::Counter(&$metric),
        }
    };
    ($name:literal, gauge $metric:expr) => {
        MetricDef {
            name: $name,
            metric: MetricRef::Gauge(&$metric),
        }
    };
    ($name:literal, histogram $metric:expr) => {
        MetricDef {
            name: $name,
            metric: MetricRef::Histogram(&$metric),
        }
    };
}

/// Every named metric, in the fixed order snapshots and expositions
/// render them. Compile-time only — nothing registers at runtime.
pub static CATALOG: &[MetricDef] = &[
    row!("stage.physical.ns", histogram STAGE_PHYSICAL_NS),
    row!("stage.yield.ns", histogram STAGE_YIELD_NS),
    row!("stage.embodied.ns", histogram STAGE_EMBODIED_NS),
    row!("stage.power.ns", histogram STAGE_POWER_NS),
    row!("stage.operational.ns", histogram STAGE_OPERATIONAL_NS),
    row!("sweep.execute.calls", counter SWEEP_EXECUTE_CALLS),
    row!("sweep.points", counter SWEEP_POINTS),
    row!("sweep.delta_skips", counter SWEEP_DELTA_SKIPS),
    row!("sweep.column_hits", counter SWEEP_COLUMN_HITS),
    row!("cache.hits", gauge CACHE_HITS),
    row!("cache.cross_hits", gauge CACHE_CROSS_HITS),
    row!("cache.client_hits", gauge CACHE_CLIENT_HITS),
    row!("cache.misses", gauge CACHE_MISSES),
    row!("cache.evictions", gauge CACHE_EVICTIONS),
    row!("cache.entries", gauge CACHE_ENTRIES),
    row!("serve.frames", counter SERVE_FRAMES),
    row!("serve.frame_errors", counter SERVE_FRAME_ERRORS),
    row!("serve.connections", counter SERVE_CONNECTIONS),
    row!("serve.frame.ns", histogram SERVE_FRAME_NS),
    row!("traces.ingest.samples", counter TRACES_INGEST_SAMPLES),
    row!("traces.ingest.ns", histogram TRACES_INGEST_NS),
    row!("registry.pack_loads", counter REGISTRY_PACK_LOADS),
];

/// One metric's value at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge level.
    Gauge(i64),
    /// A histogram readout.
    Histogram(HistogramSnapshot),
}

/// Reads every catalog metric, in catalog order (deterministic — the
/// basis of the pinned `--profile` golden test).
#[must_use]
pub fn snapshot() -> Vec<(&'static str, MetricValue)> {
    CATALOG
        .iter()
        .map(|def| {
            let value = match def.metric {
                MetricRef::Counter(c) => MetricValue::Counter(c.get()),
                MetricRef::Gauge(g) => MetricValue::Gauge(g.get()),
                MetricRef::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            };
            (def.name, value)
        })
        .collect()
}

/// Zeroes every catalog metric.
pub fn reset() {
    for def in CATALOG {
        match def.metric {
            MetricRef::Counter(c) => c.clear(),
            MetricRef::Gauge(g) => g.set(0),
            MetricRef::Histogram(h) => h.clear(),
        }
    }
}

/// Renders the catalog as Prometheus-style text exposition: one
/// `name value` line per series, names prefixed `tdc_` with dots
/// mapped to underscores; histograms expand to `_count`, `_sum`,
/// `_max`, `_p50`, `_p90`, `_p99` series.
#[must_use]
pub fn render_exposition() -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(CATALOG.len() * 32);
    for (name, value) in snapshot() {
        let flat = format!("tdc_{}", name.replace('.', "_"));
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{flat} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{flat} {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "{flat}_count {}", h.count);
                let _ = writeln!(out, "{flat}_sum {}", h.sum);
                let _ = writeln!(out, "{flat}_max {}", h.max);
                let _ = writeln!(out, "{flat}_p50 {}", h.p50);
                let _ = writeln!(out, "{flat}_p90 {}", h.p90);
                let _ = writeln!(out, "{flat}_p99 {}", h.p99);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.clear();
        assert_eq!(c.get(), 0);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_by_magnitude() {
        let h = Histogram::new();
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.max, 1000);
        // p50 falls on the 2nd sample (value 2, bucket 2, upper 3).
        assert_eq!(s.p50, 3);
        // p99 falls on the last sample (1000, bucket 10, upper 1023).
        assert_eq!(s.p99, 1023);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn catalog_names_are_unique_and_snapshot_is_ordered() {
        let mut names: Vec<&str> = CATALOG.iter().map(|d| d.name).collect();
        let snap = snapshot();
        assert_eq!(
            snap.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            names,
            "snapshot preserves catalog order"
        );
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOG.len(), "metric names are unique");
    }

    #[test]
    fn exposition_lines_are_flat_name_value_pairs() {
        let text = render_exposition();
        for line in text.lines() {
            let mut parts = line.split(' ');
            let name = parts.next().expect("name");
            let value = parts.next().expect("value");
            assert!(parts.next().is_none(), "exactly two fields: {line}");
            assert!(name.starts_with("tdc_"), "prefixed: {line}");
            assert!(!name.contains('.'), "flattened: {line}");
            assert!(value.parse::<i64>().is_ok(), "numeric: {line}");
        }
        assert!(text.contains("tdc_stage_physical_ns_count "));
        assert!(text.contains("tdc_cache_evictions "));
    }
}
