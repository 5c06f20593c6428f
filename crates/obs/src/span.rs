//! Structured spans: RAII guards with static names, parent links, and
//! a thread-local span stack.
//!
//! When recording is enabled ([`crate::enabled`]), [`span`] pushes a
//! [`SpanRecord`] onto the process-global recorder and its index onto
//! the calling thread's span stack, so nested guards form a proper
//! tree *per thread* (parents always enclose their children — the
//! well-nesting property is tested under the parallel executor in
//! `crates/core/tests/obs_spans.rs`). When disabled, [`span`] is one
//! relaxed load and returns an inert guard.

use crate::clock::now_ns;
use crate::metrics::Histogram;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hard cap on recorded spans: past it the recorder stops recording
/// instead of growing without bound. A cold sweep records five stage
/// spans per point, so one of more than about 13 k points reaches the
/// cap. Every span refused at the cap is counted ([`dropped_spans`]),
/// and the `--profile` document reports a non-zero count as its
/// `"dropped_spans"` member, so a truncated profile says so.
pub const MAX_SPANS: usize = 65_536;

/// Capacity reserved when recording is enabled, so steady-state span
/// recording does not allocate.
const RESERVE_SPANS: usize = 4_096;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's static name (`layer.thing`, see
    /// `docs/OBSERVABILITY.md`).
    pub name: &'static str,
    /// Index of the enclosing span in the recorder's order, if any.
    /// Parents are always on the same thread.
    pub parent: Option<usize>,
    /// Small per-process index of the recording thread (0 = first
    /// thread that ever recorded a span).
    pub thread: u64,
    /// Start timestamp from the installed [`Clock`](crate::Clock).
    pub start_ns: u64,
    /// End timestamp; `0` while the span is still open.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall time between start and end (`0` for open spans).
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
/// Spans refused at [`MAX_SPANS`] since the recorder was last drained
/// or cleared; changed only under the `SPANS` lock.
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Indices of this thread's currently open spans, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// This thread's recorder index, assigned on first span.
    static THREAD_INDEX: Cell<Option<u64>> = const { Cell::new(None) };
}

fn thread_index() -> u64 {
    THREAD_INDEX.with(|slot| match slot.get() {
        Some(i) => i,
        None => {
            let i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            slot.set(Some(i));
            i
        }
    })
}

/// Pre-reserves recorder capacity (called by
/// [`set_enabled`](crate::set_enabled)).
pub(crate) fn reserve() {
    let mut spans = SPANS.lock().expect("obs span recorder poisoned");
    let len = spans.len();
    spans.reserve(RESERVE_SPANS.saturating_sub(len));
}

/// Clears the recorder (open guards on other threads finish as
/// no-ops: their indices no longer resolve and are ignored on drop).
pub(crate) fn clear() {
    let mut spans = SPANS.lock().expect("obs span recorder poisoned");
    spans.clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// An RAII span guard: records its end timestamp (and optionally a
/// duration histogram sample) when dropped. Inert when recording was
/// disabled at construction.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    /// Recorder index, or `usize::MAX` when inert (disabled or at the
    /// span cap).
    index: usize,
    start_ns: u64,
    timing: Option<&'static Histogram>,
}

const INERT: usize = usize::MAX;

/// Opens a span named `name` on the calling thread. The returned
/// guard closes it when dropped. Disabled-path cost: one relaxed
/// atomic load.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, None)
}

/// Opens a span that additionally records its duration (nanoseconds)
/// into `histogram` when it closes.
#[inline]
pub fn span_timed(name: &'static str, histogram: &'static Histogram) -> SpanGuard {
    span_with(name, Some(histogram))
}

fn span_with(name: &'static str, timing: Option<&'static Histogram>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            index: INERT,
            start_ns: 0,
            timing: None,
        };
    }
    let start_ns = now_ns();
    let parent = STACK.with_borrow(|stack| stack.last().copied());
    let thread = thread_index();
    let index = {
        let mut spans = SPANS.lock().expect("obs span recorder poisoned");
        if spans.len() >= MAX_SPANS {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            INERT
        } else {
            spans.push(SpanRecord {
                name,
                parent,
                thread,
                start_ns,
                end_ns: 0,
            });
            spans.len() - 1
        }
    };
    if index != INERT {
        STACK.with_borrow_mut(|stack| stack.push(index));
    }
    SpanGuard {
        index,
        start_ns,
        timing,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.index == INERT {
            return;
        }
        let end_ns = now_ns();
        STACK.with_borrow_mut(|stack| {
            // Pop through to this span: guards drop innermost-first,
            // but a cleared recorder can leave stale indices behind.
            while let Some(top) = stack.pop() {
                if top == self.index {
                    break;
                }
            }
        });
        let mut spans = SPANS.lock().expect("obs span recorder poisoned");
        if let Some(record) = spans.get_mut(self.index) {
            // Only close the span this guard actually opened — after a
            // mid-flight `reset()` the index may point at a newer span.
            if record.end_ns == 0 && record.start_ns == self.start_ns {
                record.end_ns = end_ns;
            }
        }
        drop(spans);
        if let Some(h) = self.timing {
            h.record(end_ns.saturating_sub(self.start_ns));
        }
    }
}

/// A copy of every recorded span, in recording order.
#[must_use]
pub fn spans() -> Vec<SpanRecord> {
    SPANS.lock().expect("obs span recorder poisoned").clone()
}

/// Takes every recorded span out of the recorder, leaving it empty
/// (capacity is retained) and its [`dropped_spans`] count at zero.
#[must_use]
pub fn take_spans() -> Vec<SpanRecord> {
    let mut spans = SPANS.lock().expect("obs span recorder poisoned");
    let mut out = Vec::with_capacity(spans.len());
    out.append(&mut spans);
    DROPPED.store(0, Ordering::Relaxed);
    out
}

/// How many spans the recorder refused at [`MAX_SPANS`] since it was
/// last drained ([`take_spans`]) or cleared.
#[must_use]
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Serializes tests that touch the global recorder.
    static GLOBAL: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _lock = GLOBAL.lock().unwrap();
        crate::set_enabled(false);
        let before = spans().len();
        {
            let _g = span("test.disabled");
        }
        assert_eq!(spans().len(), before);
    }

    #[test]
    fn nested_spans_link_parents_on_one_thread() {
        let _lock = GLOBAL.lock().unwrap();
        crate::set_enabled(true);
        let _ = take_spans();
        {
            let _outer = span("test.outer");
            let _inner = span("test.inner");
        }
        let recorded = take_spans();
        crate::set_enabled(false);
        assert_eq!(recorded.len(), 2);
        let outer = recorded
            .iter()
            .position(|s| s.name == "test.outer")
            .unwrap();
        let inner = &recorded[recorded
            .iter()
            .position(|s| s.name == "test.inner")
            .unwrap()];
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(inner.thread, recorded[outer].thread);
        assert!(recorded[outer].end_ns >= inner.end_ns);
        assert!(recorded[outer].start_ns <= inner.start_ns);
    }

    #[test]
    fn spans_past_the_cap_are_counted_until_taken() {
        let _lock = GLOBAL.lock().unwrap();
        crate::set_enabled(true);
        let _ = take_spans();
        for _ in 0..MAX_SPANS + 3 {
            let _g = span("test.flood");
        }
        assert_eq!(dropped_spans(), 3);
        let recorded = take_spans();
        crate::set_enabled(false);
        assert_eq!(recorded.len(), MAX_SPANS);
        assert_eq!(dropped_spans(), 0, "taking the spans resets the count");
    }

    #[test]
    fn timed_span_records_into_its_histogram() {
        let _lock = GLOBAL.lock().unwrap();
        static H: Histogram = Histogram::new();
        crate::set_enabled(true);
        let before = H.count();
        {
            let _g = span_timed("test.timed", &H);
        }
        crate::set_enabled(false);
        let _ = take_spans();
        assert_eq!(H.count(), before + 1);
    }
}
