//! The `--profile <file>` sink: turns the obs recorder's span tree and
//! the global metric catalog into one JSON document.
//!
//! The schema is documented in `docs/OBSERVABILITY.md` and pinned
//! byte-for-byte by `crates/cli/tests/profile_golden.rs`:
//!
//! ```text
//! {
//!   "version": 1,
//!   "spans":   [ { name, thread, start_ns, end_ns, duration_ns,
//!                  children: [...] }, ... ],    // roots, in record order
//!   "dropped_spans": N,                         // only when N > 0
//!   "metrics": { "<catalog name>": <counter/gauge value or
//!                 histogram {count,sum,max,p50,p90,p99}>, ... }
//! }
//! ```
//!
//! `dropped_spans` counts the spans the recorder refused at
//! [`tdc_obs::MAX_SPANS`]; it is present exactly when the span tree is
//! truncated.
//!
//! Every metric in [`tdc_obs::metrics::CATALOG`] appears, in catalog
//! order, whether or not it moved — a consumer can rely on the key set
//! without sniffing.

use tdc_core::sweep::EvalCache;
use tdc_obs::metrics::{snapshot, MetricValue};
use tdc_obs::SpanRecord;
use tdc_registry::json::JsonValue;

/// Allow-list of u64 → f64 casts: span timestamps and counter values
/// in any real profile are far below 2^53, where the cast is exact.
#[allow(clippy::cast_precision_loss)]
fn num_u64(v: u64) -> JsonValue {
    JsonValue::Number(v as f64)
}

#[allow(clippy::cast_precision_loss)]
fn num_i64(v: i64) -> JsonValue {
    JsonValue::Number(v as f64)
}

fn span_node(spans: &[SpanRecord], children: &[Vec<usize>], index: usize) -> JsonValue {
    let span = &spans[index];
    JsonValue::Object(vec![
        ("name".to_owned(), JsonValue::String(span.name.to_owned())),
        ("thread".to_owned(), num_u64(span.thread)),
        ("start_ns".to_owned(), num_u64(span.start_ns)),
        ("end_ns".to_owned(), num_u64(span.end_ns)),
        ("duration_ns".to_owned(), num_u64(span.duration_ns())),
        (
            "children".to_owned(),
            JsonValue::Array(
                children[index]
                    .iter()
                    .map(|&child| span_node(spans, children, child))
                    .collect(),
            ),
        ),
    ])
}

fn metric_value(value: &MetricValue) -> JsonValue {
    match value {
        MetricValue::Counter(v) => num_u64(*v),
        MetricValue::Gauge(v) => num_i64(*v),
        MetricValue::Histogram(h) => JsonValue::Object(vec![
            ("count".to_owned(), num_u64(h.count)),
            ("sum".to_owned(), num_u64(h.sum)),
            ("max".to_owned(), num_u64(h.max)),
            ("p50".to_owned(), num_u64(h.p50)),
            ("p90".to_owned(), num_u64(h.p90)),
            ("p99".to_owned(), num_u64(h.p99)),
        ]),
    }
}

/// The current global metric snapshot as one JSON object, keyed by
/// catalog name in catalog order — the `metrics` member of the profile
/// document and the body of the serve `{"op": "metrics"}` response.
#[must_use]
pub fn metrics_json() -> JsonValue {
    JsonValue::Object(
        snapshot()
            .iter()
            .map(|(name, value)| ((*name).to_owned(), metric_value(value)))
            .collect(),
    )
}

/// Builds the profile document from an explicit span list, the number
/// of spans the recorder dropped at [`tdc_obs::MAX_SPANS`]
/// ([`tdc_obs::dropped_spans`]), and the current global metric
/// snapshot. Spans whose parent index does not resolve (their parent
/// was dropped) become roots, and a non-zero `dropped_spans` is
/// reported as a top-level member of that name.
#[must_use]
pub fn document(spans: &[SpanRecord], dropped_spans: u64) -> JsonValue {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (index, span) in spans.iter().enumerate() {
        match span.parent {
            Some(parent) if parent < index => children[parent].push(index),
            _ => roots.push(index),
        }
    }
    let span_values = roots
        .iter()
        .map(|&root| span_node(spans, &children, root))
        .collect();
    let mut members = vec![
        ("version".to_owned(), JsonValue::Number(1.0)),
        ("spans".to_owned(), JsonValue::Array(span_values)),
    ];
    if dropped_spans > 0 {
        members.push(("dropped_spans".to_owned(), num_u64(dropped_spans)));
    }
    members.push(("metrics".to_owned(), metrics_json()));
    JsonValue::Object(members)
}

/// Drains the span recorder, publishes `cache`'s counters into the
/// `cache.*` gauges, and writes the rendered document to `path`.
///
/// # Errors
///
/// A message naming the path when the write fails.
pub fn write_profile(path: &str, cache: Option<&EvalCache>) -> Result<(), String> {
    if let Some(cache) = cache {
        cache.publish_obs();
    }
    // Taking the spans resets the dropped count, so read it first.
    let dropped = tdc_obs::dropped_spans();
    let spans = tdc_obs::take_spans();
    let text = document(&spans, dropped).render();
    std::fs::write(path, text).map_err(|e| format!("cannot write profile `{path}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_spans_member_appears_exactly_when_spans_were_dropped() {
        let keys = |doc: &JsonValue| match doc {
            JsonValue::Object(members) => {
                members.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()
            }
            other => panic!("profile document is not an object: {other:?}"),
        };
        let complete = document(&[], 0);
        assert_eq!(keys(&complete), ["version", "spans", "metrics"]);
        assert_eq!(complete.get("dropped_spans"), None);
        let truncated = document(&[], 3);
        assert_eq!(
            keys(&truncated),
            ["version", "spans", "dropped_spans", "metrics"]
        );
        assert_eq!(
            truncated.get("dropped_spans"),
            Some(&JsonValue::Number(3.0))
        );
    }
}
