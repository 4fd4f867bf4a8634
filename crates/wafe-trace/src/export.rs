//! Ops-plane exporters: Prometheus text exposition and Chrome
//! trace-event JSON, both hand-rolled (the workspace is zero-dep).

use crate::span::SpanRecord;
use crate::{Kind, Metric, Telemetry};

/// Flattens a telemetry store to key-sorted `(key, value)` pairs: every
/// nonzero counter and gauge by name, recorded histograms as
/// `.count/.p50Ns/.p90Ns/.p99Ns`, plus journal and span occupancy under
/// `trace.journal.*` / `trace.spans.*`. This is the store-level subset of
/// the Tcl-visible `telemetry snapshot` (which adds the interpreter's
/// cache sizes and the toolkit's memory totals, read live).
pub fn telemetry_pairs(tel: &Telemetry) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = Vec::new();
    for &m in Metric::ALL {
        match m.kind() {
            Kind::Counter | Kind::Gauge => match tel.value(m) {
                0 => {}
                v => pairs.push((m.name().to_string(), v.to_string())),
            },
            Kind::Histogram => {
                if let Some(h) = tel.histogram(m) {
                    let k = m.name();
                    pairs.push((format!("{k}.count"), h.count.to_string()));
                    pairs.push((format!("{k}.p50Ns"), h.p50_ns.to_string()));
                    pairs.push((format!("{k}.p90Ns"), h.p90_ns.to_string()));
                    pairs.push((format!("{k}.p99Ns"), h.p99_ns.to_string()));
                }
            }
            Kind::Live => {}
        }
    }
    let (retained, total, dropped, capacity) = tel.journal_stats();
    let spans = tel.span_stats();
    for (m, v) in [
        (Metric::TraceJournalRetained, retained as u64),
        (Metric::TraceJournalTotal, total),
        (Metric::TraceJournalDropped, dropped),
        (Metric::TraceJournalCapacity, capacity as u64),
        (Metric::TraceSpansRetained, spans.retained as u64),
        (Metric::TraceSpansTotal, spans.total),
        (Metric::TraceSpansDropped, spans.dropped),
        (Metric::TraceSpansCapacity, spans.capacity as u64),
    ] {
        pairs.push((m.name().to_string(), v.to_string()));
    }
    pairs.sort();
    pairs
}

/// Renders key-sorted pairs as Prometheus text exposition. Keys become
/// `wafe_`-prefixed metric names with every non-alphanumeric mapped to
/// `_`; the histogram percentile keys (`*.p50Ns` etc.) collapse to one
/// metric per histogram with a `quantile` label, and `*.count` keeps
/// its suffix, so `serve.dispatch.p90Ns` exports as
/// `wafe_serve_dispatch_ns{quantile="0.9"}`.
pub fn prometheus_text(pairs: &[(String, String)]) -> String {
    let mut out = String::new();
    for (key, value) in pairs {
        let (name, label) = match key
            .strip_suffix(".p50Ns")
            .map(|b| (b, "0.5"))
            .or_else(|| key.strip_suffix(".p90Ns").map(|b| (b, "0.9")))
            .or_else(|| key.strip_suffix(".p99Ns").map(|b| (b, "0.99")))
        {
            Some((base, q)) => (format!("{}_ns", metric_name(base)), Some(q)),
            None => (metric_name(key), None),
        };
        out.push_str("wafe_");
        out.push_str(&name);
        if let Some(q) = label {
            out.push_str("{quantile=\"");
            out.push_str(q);
            out.push_str("\"}");
        }
        out.push(' ');
        out.push_str(value);
        out.push('\n');
    }
    out
}

fn metric_name(key: &str) -> String {
    key.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Serializes finished spans as a Chrome trace-event JSON document
/// (complete `"ph":"X"` events with virtual-tick timestamps), loadable
/// directly in `chrome://tracing` / Perfetto as a flamegraph.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"wafe\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":1,\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\
             \"detail\":{}}}}}",
            json_string(s.kind),
            s.begin_tick,
            s.end_tick.saturating_sub(s.begin_tick),
            json_string(&s.trace.to_string()),
            s.id,
            s.parent,
            json_string(&s.detail),
        ));
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string encoder (quotes, backslashes, control chars).
pub fn json_string(s: &str) -> String {
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
    use super::*;
    use crate::span::TraceId;

    #[test]
    fn prometheus_names_and_quantiles() {
        let pairs = vec![
            ("serve.dispatch.count".to_string(), "7".to_string()),
            ("serve.dispatch.p50Ns".to_string(), "120".to_string()),
            ("serve.dispatch.p90Ns".to_string(), "400".to_string()),
            ("serve.dispatch.p99Ns".to_string(), "900".to_string()),
            ("tcl.evals".to_string(), "42".to_string()),
        ];
        let text = prometheus_text(&pairs);
        assert_eq!(
            text,
            "wafe_serve_dispatch_count 7\n\
             wafe_serve_dispatch_ns{quantile=\"0.5\"} 120\n\
             wafe_serve_dispatch_ns{quantile=\"0.9\"} 400\n\
             wafe_serve_dispatch_ns{quantile=\"0.99\"} 900\n\
             wafe_tcl_evals 42\n"
        );
    }

    #[test]
    fn telemetry_pairs_are_sorted_and_complete() {
        let tel = Telemetry::new();
        tel.count(Metric::XtWidgetCreates);
        tel.count(Metric::DisplayAttach);
        tel.set_gauge(Metric::ServeQueueDepth, 5);
        let pairs = telemetry_pairs(&tel);
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "pairs must come out key-sorted");
        assert!(keys.contains(&"display.attach"));
        assert!(keys.contains(&"serve.queue.depth"));
        assert!(keys.contains(&"trace.journal.dropped"));
        assert!(keys.contains(&"trace.spans.capacity"));
    }

    #[test]
    fn chrome_trace_shape_and_escaping() {
        let spans = vec![SpanRecord {
            id: 1,
            parent: 0,
            trace: TraceId {
                generation: 1,
                serial: 1,
            },
            kind: "tcl.eval",
            detail: "say \"hi\"\n".to_string(),
            begin_tick: 1,
            end_tick: 4,
        }];
        let json = chrome_trace(&spans);
        assert_eq!(
            json,
            "{\"traceEvents\":[{\"name\":\"tcl.eval\",\"cat\":\"wafe\",\"ph\":\"X\",\
             \"ts\":1,\"dur\":3,\"pid\":1,\"tid\":1,\"args\":{\"trace\":\"1:1\",\
             \"span\":1,\"parent\":0,\"detail\":\"say \\\"hi\\\"\\n\"}}]}"
        );
    }

    #[test]
    fn chrome_trace_empty() {
        assert_eq!(chrome_trace(&[]), "{\"traceEvents\":[]}");
    }
}
