//! The columnar [`TraceProfile`] and its prefix-sum query surface.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Builds a [`TraceProfile`] sample by sample, merging consecutive
/// samples with bitwise-identical values into constant segments as it
/// goes — the streaming [`TraceReader`](crate::TraceReader) and the
/// [`synth`](crate::synth) generators both feed this, so every ingest
/// path compacts identically.
///
/// Sample `i`'s values hold over `[t_i, t_{i+1})`; the final pushed
/// sample only terminates the trace (its value columns are ignored).
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    with_intensity: bool,
    samples: usize,
    /// The pending sample: its interval closes when the next arrives.
    /// Intensity is stored in kg/kWh (NaN when the trace has none).
    prev: Option<(f64, f64, f64)>,
    start_hours: f64,
    seg_start: Vec<f64>,
    seg_util: Vec<f64>,
    seg_intensity: Vec<f64>,
}

impl TraceBuilder {
    /// A builder for a trace with or without a grid-intensity column.
    #[must_use]
    pub fn new(with_intensity: bool) -> Self {
        Self {
            with_intensity,
            samples: 0,
            prev: None,
            start_hours: 0.0,
            seg_start: Vec::new(),
            seg_util: Vec::new(),
            seg_intensity: Vec::new(),
        }
    }

    /// Whether this trace carries a grid-intensity column.
    #[must_use]
    pub fn with_intensity(&self) -> bool {
        self.with_intensity
    }

    /// Samples pushed so far.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Appends one sample. Intensity is given in g CO₂/kWh (the unit
    /// logs use) and stored in the model's canonical kg/kWh with the
    /// same expression `CarbonIntensity::from_g_per_kwh` uses, so a
    /// trace holding a region's published g/kWh figure prices
    /// bit-identically to that region.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or non-increasing timestamp, a
    /// utilization outside `[0, 1]`, a negative or non-finite
    /// intensity, or an intensity presence that contradicts
    /// [`TraceBuilder::new`].
    pub fn push(&mut self, t_hours: f64, utilization: f64, intensity_g_per_kwh: Option<f64>) {
        assert!(t_hours.is_finite(), "trace timestamp must be finite");
        assert!(
            (0.0..=1.0).contains(&utilization),
            "trace utilization must be in [0, 1], got {utilization}"
        );
        assert_eq!(
            intensity_g_per_kwh.is_some(),
            self.with_intensity,
            "every sample must match the trace's column count"
        );
        let intensity_kg = intensity_g_per_kwh.map_or(f64::NAN, |g| {
            assert!(
                g.is_finite() && g >= 0.0,
                "trace intensity must be non-negative, got {g}"
            );
            g * 1.0e-3
        });
        if let Some((pt, pu, pg)) = self.prev {
            assert!(
                t_hours > pt,
                "trace timestamps must be strictly increasing ({t_hours} after {pt})"
            );
            // Close the pending interval [pt, t): extend the open
            // segment when the values are bitwise identical, else
            // start a new one at pt.
            let merges = self.seg_util.last().is_some_and(|lu| {
                lu.to_bits() == pu.to_bits()
                    && (!self.with_intensity
                        || self
                            .seg_intensity
                            .last()
                            .is_some_and(|lg| lg.to_bits() == pg.to_bits()))
            });
            if !merges {
                self.seg_start.push(pt);
                self.seg_util.push(pu);
                if self.with_intensity {
                    self.seg_intensity.push(pg);
                }
            }
        } else {
            self.start_hours = t_hours;
        }
        self.prev = Some((t_hours, utilization, intensity_kg));
        self.samples += 1;
    }

    /// Finishes the profile: computes the prefix-sum integrals, the
    /// uniform-value short-circuits, and the content fingerprint.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two samples (a trace needs at least one
    /// interval).
    #[must_use]
    pub fn build(self) -> TraceProfile {
        self.build_with_peak(0)
    }

    pub(crate) fn build_with_peak(self, peak_buffer_bytes: usize) -> TraceProfile {
        assert!(
            self.samples >= 2,
            "a trace needs at least two samples (one interval), got {}",
            self.samples
        );
        let end_hours = self.prev.expect("samples >= 2").0;
        let n = self.seg_start.len();
        let mut cum_dt = Vec::with_capacity(n + 1);
        let mut cum_util_dt = Vec::with_capacity(n + 1);
        let (mut cum_g_dt, mut cum_util_g_dt) = if self.with_intensity {
            (Vec::with_capacity(n + 1), Vec::with_capacity(n + 1))
        } else {
            (Vec::new(), Vec::new())
        };
        cum_dt.push(0.0);
        cum_util_dt.push(0.0);
        if self.with_intensity {
            cum_g_dt.push(0.0);
            cum_util_g_dt.push(0.0);
        }
        for k in 0..n {
            let next = if k + 1 < n {
                self.seg_start[k + 1]
            } else {
                end_hours
            };
            let dt = next - self.seg_start[k];
            cum_dt.push(cum_dt[k] + dt);
            cum_util_dt.push(cum_util_dt[k] + self.seg_util[k] * dt);
            if self.with_intensity {
                cum_g_dt.push(cum_g_dt[k] + self.seg_intensity[k] * dt);
                cum_util_g_dt
                    .push(cum_util_g_dt[k] + self.seg_util[k] * self.seg_intensity[k] * dt);
            }
        }
        let uniform = |values: &[f64]| -> Option<f64> {
            let first = *values.first()?;
            values
                .iter()
                .all(|v| v.to_bits() == first.to_bits())
                .then_some(first)
        };
        let uniform_util = uniform(&self.seg_util);
        let uniform_intensity = uniform(&self.seg_intensity);
        let fingerprint = fingerprint_columns(
            self.samples,
            self.with_intensity,
            self.start_hours,
            end_hours,
            &self.seg_start,
            &self.seg_util,
            &self.seg_intensity,
        );
        TraceProfile {
            samples: self.samples,
            with_intensity: self.with_intensity,
            start_hours: self.start_hours,
            end_hours,
            seg_start: self.seg_start,
            seg_util: self.seg_util,
            seg_intensity: self.seg_intensity,
            cum_dt,
            cum_util_dt,
            cum_g_dt,
            cum_util_g_dt,
            uniform_util,
            uniform_intensity,
            fingerprint,
            peak_buffer_bytes,
            pricing: OnceLock::new(),
            pricing_hits: AtomicU64::new(0),
        }
    }
}

/// One FNV-1a-64 step.
fn fnv_step(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Two independently-seeded 64-bit FNV-1a streams over the segment
/// columns, combined into one 128-bit content fingerprint.
fn fingerprint_columns(
    samples: usize,
    with_intensity: bool,
    start: f64,
    end: f64,
    seg_start: &[f64],
    seg_util: &[f64],
    seg_intensity: &[f64],
) -> u128 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const SALT: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h1 = OFFSET;
    let mut h2 = OFFSET ^ SALT;
    let mut feed = |w: u64| {
        h1 = fnv_step(h1, w);
        h2 = fnv_step(h2, w ^ SALT);
    };
    feed(samples as u64);
    feed(u64::from(with_intensity));
    feed(start.to_bits());
    feed(end.to_bits());
    for k in 0..seg_start.len() {
        feed(seg_start[k].to_bits());
        feed(seg_util[k].to_bits());
        if with_intensity {
            feed(seg_intensity[k].to_bits());
        }
    }
    (u128::from(h1) << 64) | u128::from(h2)
}

/// The O(1) operational-pricing summary of a whole trace (what
/// [`operational_report`](../tdc_core/pipeline/fn.operational_report.html)-style
/// consumers read per evaluation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePricing {
    /// Time-weighted mean utilization, `Σ util·dt / Σ dt` — or the
    /// exact sample value when the trace's utilization is uniform, so
    /// a constant trace reproduces the scalar path bit-for-bit.
    pub mean_utilization: f64,
    /// Energy-weighted grid intensity in kg CO₂/kWh,
    /// `Σ util·intensity·dt / Σ util·dt` (time-weighted when the trace
    /// never draws power) — `None` for utilization-only traces, which
    /// keep the model context's grid region.
    pub intensity_kg_per_kwh: Option<f64>,
}

/// Windowed prefix-sum integrals over a trace (hours-based).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceIntegrals {
    /// Σ dt over the window, in hours.
    pub dt_hours: f64,
    /// Σ util·dt, in hours.
    pub util_dt: f64,
    /// Σ intensity·dt in (kg/kWh)·h, when the trace has intensity.
    pub intensity_dt: Option<f64>,
    /// Σ util·intensity·dt in (kg/kWh)·h, when the trace has intensity.
    pub util_intensity_dt: Option<f64>,
}

impl TraceIntegrals {
    /// Time-weighted mean utilization over the window (0 for an empty
    /// window).
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.dt_hours > 0.0 {
            self.util_dt / self.dt_hours
        } else {
            0.0
        }
    }

    /// Time-weighted mean grid intensity over the window (kg/kWh).
    #[must_use]
    pub fn mean_intensity_kg_per_kwh(&self) -> Option<f64> {
        let g = self.intensity_dt?;
        (self.dt_hours > 0.0).then(|| g / self.dt_hours)
    }

    /// Energy-weighted grid intensity over the window (kg/kWh): the
    /// intensity seen by each unit of drawn energy. Falls back to the
    /// time-weighted mean when the window draws no power.
    #[must_use]
    pub fn energy_weighted_intensity_kg_per_kwh(&self) -> Option<f64> {
        let ug = self.util_intensity_dt?;
        if self.util_dt > 0.0 {
            Some(ug / self.util_dt)
        } else {
            self.mean_intensity_kg_per_kwh()
        }
    }
}

/// A compacted, immutable trace: merged constant segments in columnar
/// form with precomputed prefix-sum integrals, a content fingerprint
/// (what stage tags and workload equality key on), and a memoized
/// [`TracePricing`] summary whose warm lookups are counted
/// ([`TraceProfile::pricing_hits`], the `trace_hits=` stat).
pub struct TraceProfile {
    samples: usize,
    with_intensity: bool,
    start_hours: f64,
    end_hours: f64,
    /// Segment start times (hours); segment `k` ends at `seg_start[k+1]`
    /// (or `end_hours` for the last).
    seg_start: Vec<f64>,
    seg_util: Vec<f64>,
    /// kg/kWh per segment; empty for utilization-only traces.
    seg_intensity: Vec<f64>,
    /// Prefix sums, length `segments + 1`: `cum_*[k]` integrates
    /// segments `[0, k)`.
    cum_dt: Vec<f64>,
    cum_util_dt: Vec<f64>,
    cum_g_dt: Vec<f64>,
    cum_util_g_dt: Vec<f64>,
    /// The exact sample value when every segment agrees bitwise — the
    /// short-circuit that makes constant traces price byte-identically
    /// to the scalar path (`(u·T)/T` is not ulp-exact; returning `u`
    /// is).
    uniform_util: Option<f64>,
    uniform_intensity: Option<f64>,
    fingerprint: u128,
    peak_buffer_bytes: usize,
    pricing: OnceLock<TracePricing>,
    pricing_hits: AtomicU64,
}

impl TraceProfile {
    /// Samples ingested (lines, before segment merging).
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Merged constant segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.seg_start.len()
    }

    /// Whether the trace carries a grid-intensity column.
    #[must_use]
    pub fn has_intensity(&self) -> bool {
        self.with_intensity
    }

    /// First timestamp (hours).
    #[must_use]
    pub fn start_hours(&self) -> f64 {
        self.start_hours
    }

    /// Last timestamp (hours).
    #[must_use]
    pub fn end_hours(&self) -> f64 {
        self.end_hours
    }

    /// Trace span in hours.
    #[must_use]
    pub fn duration_hours(&self) -> f64 {
        self.end_hours - self.start_hours
    }

    /// The 128-bit content fingerprint (over the merged segment
    /// columns). Two ingests of the same log always agree; this is
    /// what flows into stage tags (via `Debug`) and into `PartialEq`,
    /// keeping both O(1) for trace-backed workloads.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// The exact utilization when every interval agrees bitwise.
    #[must_use]
    pub fn uniform_utilization(&self) -> Option<f64> {
        self.uniform_util
    }

    /// The exact intensity (kg/kWh) when every interval agrees bitwise.
    #[must_use]
    pub fn uniform_intensity_kg_per_kwh(&self) -> Option<f64> {
        self.uniform_intensity
    }

    /// Peak resident input buffering during the streaming ingest that
    /// produced this profile (chunk buffer + carry buffer, bytes).
    /// Zero for builder-made profiles. Bounded by a small multiple of
    /// the reader's chunk size — never by the file size.
    #[must_use]
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buffer_bytes
    }

    /// The memoized whole-trace pricing summary. The first call
    /// integrates (O(1) off the precomputed prefix sums); every later
    /// call returns the memo and counts a warm hit
    /// ([`TraceProfile::pricing_hits`]).
    #[must_use]
    pub fn pricing(&self) -> TracePricing {
        if let Some(p) = self.pricing.get() {
            self.pricing_hits.fetch_add(1, Ordering::Relaxed);
            return *p;
        }
        *self.pricing.get_or_init(|| self.compute_pricing())
    }

    /// Warm [`TraceProfile::pricing`] lookups served from the memo so
    /// far (the `trace_hits=` stderr stat).
    #[must_use]
    pub fn pricing_hits(&self) -> u64 {
        self.pricing_hits.load(Ordering::Relaxed)
    }

    fn compute_pricing(&self) -> TracePricing {
        let full = self.integrals();
        let mean_utilization = self.uniform_util.unwrap_or_else(|| full.mean_utilization());
        let intensity_kg_per_kwh = if self.with_intensity {
            Some(
                self.uniform_intensity
                    .or_else(|| full.energy_weighted_intensity_kg_per_kwh())
                    .expect("intensity column present"),
            )
        } else {
            None
        };
        TracePricing {
            mean_utilization,
            intensity_kg_per_kwh,
        }
    }

    /// Full-span integrals: one prefix-sum read, O(1).
    #[must_use]
    pub fn integrals(&self) -> TraceIntegrals {
        let last = self.segments();
        TraceIntegrals {
            dt_hours: self.cum_dt[last],
            util_dt: self.cum_util_dt[last],
            intensity_dt: self.with_intensity.then(|| self.cum_g_dt[last]),
            util_intensity_dt: self.with_intensity.then(|| self.cum_util_g_dt[last]),
        }
    }

    /// Integrals over `[from_hours, to_hours]` (clamped to the trace
    /// span): two binary searches plus prefix subtractions — O(log
    /// segments), no per-sample work.
    #[must_use]
    pub fn window(&self, from_hours: f64, to_hours: f64) -> TraceIntegrals {
        let from = from_hours.max(self.start_hours).min(self.end_hours);
        let to = to_hours.max(self.start_hours).min(self.end_hours);
        if to <= from {
            return TraceIntegrals {
                dt_hours: 0.0,
                util_dt: 0.0,
                intensity_dt: self.with_intensity.then_some(0.0),
                util_intensity_dt: self.with_intensity.then_some(0.0),
            };
        }
        let (a_dt, a_u, a_g, a_ug) = self.prefix_at(from);
        let (b_dt, b_u, b_g, b_ug) = self.prefix_at(to);
        TraceIntegrals {
            dt_hours: b_dt - a_dt,
            util_dt: b_u - a_u,
            intensity_dt: self.with_intensity.then_some(b_g - a_g),
            util_intensity_dt: self.with_intensity.then_some(b_ug - a_ug),
        }
    }

    /// Integrals over `[start, t]`: the prefix through the segment
    /// containing `t` plus the partial (constant-valued) remainder.
    fn prefix_at(&self, t: f64) -> (f64, f64, f64, f64) {
        let k = self.seg_start.partition_point(|s| *s <= t).max(1) - 1;
        let into = t - self.seg_start[k];
        let u = self.seg_util[k];
        let g = if self.with_intensity {
            self.seg_intensity[k]
        } else {
            0.0
        };
        (
            self.cum_dt[k] + into,
            self.cum_util_dt[k] + u * into,
            if self.with_intensity {
                self.cum_g_dt[k] + g * into
            } else {
                0.0
            },
            if self.with_intensity {
                self.cum_util_g_dt[k] + u * g * into
            } else {
                0.0
            },
        )
    }
}

/// Compact and deterministic: this rendering is embedded (via
/// `Workload`'s derived `Debug`) in the operational stage tag, so it
/// must identify the trace content without dumping the columns.
impl fmt::Debug for TraceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TraceProfile {{ samples: {}, segments: {}, span_h: {:?}, intensity: {}, fp: {:032x} }}",
            self.samples,
            self.segments(),
            self.duration_hours(),
            self.with_intensity,
            self.fingerprint,
        )
    }
}

/// O(1): content fingerprints stand in for the columns, so workload
/// equality stays cheap with traces attached.
impl PartialEq for TraceProfile {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint
            && self.samples == other.samples
            && self.segments() == other.segments()
    }
}

impl Clone for TraceProfile {
    fn clone(&self) -> Self {
        Self {
            samples: self.samples,
            with_intensity: self.with_intensity,
            start_hours: self.start_hours,
            end_hours: self.end_hours,
            seg_start: self.seg_start.clone(),
            seg_util: self.seg_util.clone(),
            seg_intensity: self.seg_intensity.clone(),
            cum_dt: self.cum_dt.clone(),
            cum_util_dt: self.cum_util_dt.clone(),
            cum_g_dt: self.cum_g_dt.clone(),
            cum_util_g_dt: self.cum_util_g_dt.clone(),
            uniform_util: self.uniform_util,
            uniform_intensity: self.uniform_intensity,
            fingerprint: self.fingerprint,
            peak_buffer_bytes: self.peak_buffer_bytes,
            // The memo is recomputable state; a clone starts cold so
            // its hit counter tracks its own consumers.
            pricing: OnceLock::new(),
            pricing_hits: AtomicU64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal_builder() -> TraceBuilder {
        let mut b = TraceBuilder::new(true);
        // 0–8 h idle on a clean grid, 8–16 h busy on a dirty grid,
        // 16–24 h half-load back on the clean grid.
        b.push(0.0, 0.1, Some(100.0));
        b.push(4.0, 0.1, Some(100.0)); // merges with the previous interval
        b.push(8.0, 0.9, Some(500.0));
        b.push(16.0, 0.5, Some(100.0));
        b.push(24.0, 0.0, Some(0.0)); // terminator: values ignored
        b
    }

    #[test]
    fn consecutive_identical_samples_merge_into_segments() {
        let p = diurnal_builder().build();
        assert_eq!(p.samples(), 5);
        assert_eq!(p.segments(), 3);
        assert_eq!(p.duration_hours(), 24.0);
        assert!(p.has_intensity());
        assert!(p.uniform_utilization().is_none());
    }

    #[test]
    fn full_span_integrals_match_hand_computation() {
        let p = diurnal_builder().build();
        let i = p.integrals();
        assert!((i.dt_hours - 24.0).abs() < 1e-12);
        // 0.1·8 + 0.9·8 + 0.5·8 = 12.
        assert!((i.util_dt - 12.0).abs() < 1e-12);
        // kg/kWh: (0.1·8 + 0.5·8 + 0.1·8) ...
        let g = i.intensity_dt.unwrap();
        assert!((g - (0.1 * 8.0 + 0.5 * 8.0 + 0.1 * 8.0)).abs() < 1e-12);
        let ug = i.util_intensity_dt.unwrap();
        assert!((ug - (0.1 * 0.1 * 8.0 + 0.9 * 0.5 * 8.0 + 0.5 * 0.1 * 8.0)).abs() < 1e-12);
    }

    #[test]
    fn windowed_integrals_split_partial_segments() {
        let p = diurnal_builder().build();
        // [6, 10]: 2 h at 0.1 + 2 h at 0.9.
        let w = p.window(6.0, 10.0);
        assert!((w.dt_hours - 4.0).abs() < 1e-12);
        assert!((w.util_dt - (0.1 * 2.0 + 0.9 * 2.0)).abs() < 1e-12);
        // Windows clamp to the span; inverted windows are empty.
        let all = p.window(-5.0, 100.0);
        assert!((all.util_dt - p.integrals().util_dt).abs() < 1e-15);
        assert_eq!(p.window(10.0, 6.0).dt_hours, 0.0);
        // Sum of adjacent windows = full span (associativity of the
        // prefix representation).
        let a = p.window(0.0, 13.3);
        let b = p.window(13.3, 24.0);
        let full = p.integrals();
        assert!((a.util_dt + b.util_dt - full.util_dt).abs() < 1e-12);
        assert!(
            (a.util_intensity_dt.unwrap() + b.util_intensity_dt.unwrap()
                - full.util_intensity_dt.unwrap())
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn uniform_trace_short_circuits_to_the_exact_sample_value() {
        let mut b = TraceBuilder::new(false);
        // 0.3 has no exact binary representation: (0.3·T)/T would not
        // be bitwise 0.3 for every T, the short-circuit is.
        b.push(0.0, 0.3, None);
        b.push(7.0, 0.3, None);
        b.push(31.0, 0.3, None);
        let p = b.build();
        assert_eq!(p.segments(), 1);
        assert_eq!(p.uniform_utilization(), Some(0.3));
        assert_eq!(p.pricing().mean_utilization.to_bits(), 0.3f64.to_bits());
        assert_eq!(p.pricing().intensity_kg_per_kwh, None);
    }

    #[test]
    fn uniform_intensity_matches_from_g_per_kwh_bitwise() {
        let mut b = TraceBuilder::new(true);
        b.push(0.0, 0.5, Some(475.0));
        b.push(10.0, 0.5, Some(475.0));
        let p = b.build();
        // Same expression as CarbonIntensity::from_g_per_kwh(475.0).
        assert_eq!(
            p.pricing().intensity_kg_per_kwh.unwrap().to_bits(),
            (475.0f64 * 1.0e-3).to_bits()
        );
    }

    #[test]
    fn pricing_memoizes_and_counts_warm_hits() {
        let p = diurnal_builder().build();
        assert_eq!(p.pricing_hits(), 0);
        let first = p.pricing();
        assert_eq!(p.pricing_hits(), 0, "the integrating call is a miss");
        for _ in 0..5 {
            assert_eq!(p.pricing(), first);
        }
        assert_eq!(p.pricing_hits(), 5);
        // Energy-weighted intensity favours the dirty busy block over
        // the clean idle blocks.
        let g = first.intensity_kg_per_kwh.unwrap();
        assert!(g > p.integrals().mean_intensity_kg_per_kwh().unwrap());
    }

    #[test]
    fn zero_utilization_trace_prices_time_weighted_intensity() {
        let mut b = TraceBuilder::new(true);
        b.push(0.0, 0.0, Some(100.0));
        b.push(1.0, 0.0, Some(300.0));
        b.push(2.0, 0.0, Some(300.0));
        let p = b.build();
        let g = p.pricing().intensity_kg_per_kwh.unwrap();
        assert!((g - 0.2).abs() < 1e-12, "time-weighted mean of 0.1/0.3");
        assert_eq!(p.pricing().mean_utilization, 0.0);
    }

    #[test]
    fn fingerprint_distinguishes_content_and_equality_is_cheap() {
        let a = diurnal_builder().build();
        let b = diurnal_builder().build();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = TraceBuilder::new(true);
        c.push(0.0, 0.1, Some(100.0));
        c.push(4.0, 0.1, Some(100.0));
        c.push(8.0, 0.9, Some(501.0)); // one value differs
        c.push(16.0, 0.5, Some(100.0));
        c.push(24.0, 0.0, Some(0.0));
        let c = c.build();
        assert_ne!(a, c);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Debug (the stage-tag ingredient) differs too.
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_timestamps_panic() {
        let mut b = TraceBuilder::new(false);
        b.push(1.0, 0.5, None);
        b.push(1.0, 0.5, None);
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn single_sample_trace_panics() {
        let mut b = TraceBuilder::new(false);
        b.push(0.0, 0.5, None);
        let _ = b.build();
    }
}
