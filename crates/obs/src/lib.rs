//! # tdc-obs
//!
//! Workspace-wide observability for the sweep/serve stack: structured
//! spans, an allocation-free metrics registry, and injectable clocks —
//! with **zero external dependencies**, consistent with the
//! workspace's vendored-stand-in policy.
//!
//! Three design rules govern everything here (see
//! `docs/OBSERVABILITY.md` for the naming scheme and sink formats):
//!
//! 1. **Disabled means free.** Instrumentation is off by default; the
//!    disabled path of every [`span`] / gated metric update is a single
//!    relaxed atomic load and a branch. Enabling is explicit — the
//!    `--profile` / `--metrics-addr` CLI flags or `TDC_OBS=1` make the
//!    `tdc` binary call [`set_enabled`].
//! 2. **No heap allocation after registration.** The metric catalog is
//!    a compile-time table of static atomics ([`metrics::CATALOG`]),
//!    so recording a counter, gauge, or histogram sample never
//!    allocates — cheap enough for the zero-allocation warm ranking
//!    loop (enforced by `crates/core/tests/batch_alloc.rs`).
//! 3. **Deterministic under test.** Wall-time comes from a [`Clock`]
//!    trait; installing a [`MockClock`] makes span durations (and the
//!    whole `--profile` JSON document) byte-reproducible.
//!
//! ```
//! use tdc_obs::metrics;
//!
//! tdc_obs::set_enabled(true);
//! {
//!     let _guard = tdc_obs::span("stage.physical");
//!     metrics::SWEEP_POINTS.add(99);
//! }
//! let spans = tdc_obs::take_spans();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].name, "stage.physical");
//! tdc_obs::set_enabled(false);
//! tdc_obs::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
pub mod metrics;
mod span;

pub use clock::{now_ns, reset_clock, set_clock, Clock, MockClock, MonotonicClock};
pub use span::{
    dropped_spans, span, span_timed, spans, take_spans, SpanGuard, SpanRecord, MAX_SPANS,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// The global on/off switch. Relaxed is sufficient: observers tolerate
/// a stale read for one operation around the flip.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation is currently recording. This is the hot-path
/// gate: one relaxed load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off. Enabling pre-reserves span-recorder
/// capacity so steady-state recording does not allocate.
pub fn set_enabled(on: bool) {
    if on {
        span::reserve();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clears every recorded span and zeroes every catalog metric (the
/// enabled flag and installed clock are left as-is). Intended for
/// tests and for the start of a `--profile` run.
pub fn reset() {
    span::clear();
    metrics::reset();
}
