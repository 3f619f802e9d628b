//! Hand-rolled JSON rendering for registry snapshots, and the helpers
//! the health report and telemetry exports share with it.
//!
//! The workspace deliberately has no `serde_json`; the exporter emits a
//! small, fixed schema, so rendering by hand keeps the crate
//! dependency-free and the output deterministic (metrics are sorted by
//! id in the snapshot).

use crate::metric::HistogramSnapshot;
use crate::registry::{Event, MetricId, RegistrySnapshot};

/// Renders a snapshot as a JSON document:
///
/// ```json
/// {
///   "counters":   [{"name": "...", "labels": {...}, "value": 1}],
///   "gauges":     [{"name": "...", "labels": {...}, "value": -1}],
///   "histograms": [{"name": "...", "labels": {...}, "count": 3,
///                   "sum": 9, "mean": 3.0, "min": 1, "max": 5,
///                   "p50": 3, "p95": 5, "p99": 5}],
///   "events":     [{"t_ns": 0, "name": "...", "fields": {...}}]
/// }
/// ```
pub fn render(snap: &RegistrySnapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n  \"counters\": [");
    join(&mut out, &snap.counters, |out, (id, v)| {
        metric_head(out, id);
        out.push_str(&format!("\"value\": {v}}}"));
    });
    out.push_str("],\n  \"gauges\": [");
    join(&mut out, &snap.gauges, |out, (id, v)| {
        metric_head(out, id);
        out.push_str(&format!("\"value\": {v}}}"));
    });
    out.push_str("],\n  \"histograms\": [");
    join(&mut out, &snap.histograms, |out, (id, h)| {
        metric_head(out, id);
        out.push_str(&histogram_body(h));
    });
    out.push_str("],\n  \"events\": [");
    join(&mut out, &snap.events, |out, ev| {
        out.push_str(&event_body(ev));
    });
    out.push_str("]\n}");
    out
}

/// Writes `items` as the body of a JSON array, one per indented line.
pub(crate) fn join<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut f: impl FnMut(&mut String, I::Item),
) {
    let mut any = false;
    for item in items {
        if any {
            out.push(',');
        }
        any = true;
        out.push_str("\n    ");
        f(out, item);
    }
    if any {
        out.push_str("\n  ");
    }
}

fn metric_head(out: &mut String, id: &MetricId) {
    out.push_str("{\"name\": ");
    out.push_str(&escape(&id.name));
    out.push_str(", \"labels\": ");
    push_map(out, &id.labels);
    out.push_str(", ");
}

fn histogram_body(h: &HistogramSnapshot) -> String {
    format!(
        "\"count\": {}, \"sum\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \
         \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
        h.count,
        h.sum,
        fmt_f64(h.mean),
        h.min,
        h.max,
        h.p50,
        h.p95,
        h.p99
    )
}

fn event_body(ev: &Event) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\"t_ns\": {}, \"name\": ", ev.t_ns));
    out.push_str(&escape(&ev.name));
    out.push_str(", \"fields\": ");
    push_map(&mut out, &ev.fields);
    out.push('}');
    out
}

fn push_map(out: &mut String, pairs: &[(String, String)]) {
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&escape(k));
        out.push_str(": ");
        out.push_str(&escape(v));
    }
    out.push('}');
}

/// Formats an `f64` as a JSON number (never NaN/Inf in practice — means
/// of empty histograms are 0.0 — but guard anyway).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` renders integral floats without a decimal point; keep the
        // value unambiguously a float.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// JSON string literal with escaping for quotes, backslashes, and
/// control characters.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;

    #[test]
    fn renders_all_sections() {
        let r = Registry::new();
        r.counter("ops", &[("op", "put"), ("project", "alice")]).add(3);
        r.gauge("depth", &[]).set(-2);
        let h = r.histogram("lat_ns", &[]);
        for v in [1u64, 10, 100] {
            h.record(v);
        }
        r.event_at(42, "tape_mount", &[("drive", "d0")]);
        let json = r.to_json();
        assert!(json.contains("\"name\": \"ops\""), "{json}");
        assert!(json.contains("\"op\": \"put\""), "{json}");
        assert!(json.contains("\"value\": 3"), "{json}");
        assert!(json.contains("\"value\": -2"), "{json}");
        assert!(json.contains("\"p99\": "), "{json}");
        assert!(json.contains("\"mean\": 37.0"), "{json}");
        assert!(json.contains("\"t_ns\": 42"), "{json}");
        // Deterministic: same recorded state renders identically.
        assert_eq!(json, r.to_json());
    }

    #[test]
    fn escapes_special_characters() {
        let r = Registry::new();
        r.counter("weird\"name", &[("k\\", "v\n")]).inc();
        let json = r.to_json();
        assert!(json.contains("weird\\\"name"), "{json}");
        assert!(json.contains("k\\\\"), "{json}");
        assert!(json.contains("v\\n"), "{json}");
    }

    #[test]
    fn empty_registry_is_valid() {
        let r = Registry::new();
        assert_eq!(
            r.to_json(),
            "{\n  \"counters\": [],\n  \"gauges\": [],\n  \"histograms\": [],\n  \"events\": []\n}"
        );
    }
}
