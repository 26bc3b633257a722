//! OpenMetrics / Prometheus text exposition for the metrics registry.
//!
//! Rendering works from a [`RegistrySnapshot`], so it can serve the live
//! global registry (`RESHAPE_METRICS=sched.prom` writes one at [`crate::flush`])
//! or any snapshot deserialized from a JSONL report. Registry keys may carry
//! an inline label block — `reshape_sim_utilization{window="3"}` — produced
//! by [`crate::gauge_labeled`]; the renderer groups such keys into one metric
//! family and passes the (already escaped) labels through.
//!
//! Formatting choices, pinned by the golden-file test:
//!
//! * names are sanitized to `[a-zA-Z_:][a-zA-Z0-9_:]*` (bad chars become `_`);
//! * every family gets exactly one `# TYPE` line, families in sorted order;
//! * histograms emit cumulative `_bucket{le="..."}` lines for **occupied**
//!   buckets only (plus the mandatory `+Inf`), then `_sum` and `_count`,
//!   then a companion `<name>_quantile` gauge family with the p50/p95/p99
//!   estimates the text report shows;
//! * the output ends with `# EOF` per the OpenMetrics ABNF.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::{bucket_upper_bound, HistogramSnapshot};
use crate::metrics::RegistrySnapshot;

/// Escape a label value for the exposition format: backslash, double quote,
/// and newline must be backslash-escaped.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Encode a label set as the `{k="v",...}` block appended to registry keys.
/// Values are escaped here, so the renderer can pass blocks through verbatim.
pub fn encode_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", sanitize_name(k), escape_label_value(v));
    }
    out.push('}');
    out
}

/// Sanitize a metric or label name to the allowed character set.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Split a registry key into (sanitized family name, label block).
/// `"a.b{x=\"1\"}"` → `("a_b", "{x=\"1\"}")`; `"a.b"` → `("a_b", "")`.
fn split_key(key: &str) -> (String, &str) {
    match key.find('{') {
        Some(i) => (sanitize_name(&key[..i]), &key[i..]),
        None => (sanitize_name(key), ""),
    }
}

/// Format a float the way Prometheus expects (`+Inf`/`-Inf`/`NaN` spelled
/// out; otherwise Rust's shortest round-trip representation).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// Inject an extra label (e.g. `le`) into an existing label block.
fn with_label(block: &str, key: &str, value: &str) -> String {
    if block.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        // "{a=\"1\"}" → "{a=\"1\",le=\"...\"}"
        format!("{},{key}=\"{value}\"}}", &block[..block.len() - 1])
    }
}

fn group_families<'a, V>(
    metrics: impl Iterator<Item = (&'a String, V)>,
) -> BTreeMap<String, Vec<(String, V)>> {
    let mut fams: BTreeMap<String, Vec<(String, V)>> = BTreeMap::new();
    for (key, v) in metrics {
        let (family, labels) = split_key(key);
        fams.entry(family)
            .or_default()
            .push((labels.to_string(), v));
    }
    fams
}

fn render_histogram(out: &mut String, family: &str, labels: &str, h: &HistogramSnapshot) {
    let mut cum = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        let le = if i + 1 >= h.buckets.len() {
            "+Inf".to_string()
        } else {
            fmt_f64(bucket_upper_bound(i))
        };
        let _ = writeln!(
            out,
            "{family}_bucket{} {cum}",
            with_label(labels, "le", &le)
        );
    }
    // The +Inf bucket line is mandatory even when the overflow bucket is
    // empty (and for empty histograms): it carries the total count.
    if h.buckets.last().copied().unwrap_or(0) == 0 {
        let _ = writeln!(
            out,
            "{family}_bucket{} {}",
            with_label(labels, "le", "+Inf"),
            h.count
        );
    }
    let _ = writeln!(out, "{family}_sum{labels} {}", fmt_f64(h.sum));
    let _ = writeln!(out, "{family}_count{labels} {}", h.count);
}

/// Render a registry snapshot in the OpenMetrics text exposition format.
pub fn render_openmetrics(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();

    for (family, series) in group_families(snap.counters.iter()) {
        let _ = writeln!(out, "# TYPE {family} counter");
        for (labels, v) in series {
            let _ = writeln!(out, "{family}{labels} {v}");
        }
    }

    for (family, series) in group_families(snap.gauges.iter()) {
        let _ = writeln!(out, "# TYPE {family} gauge");
        for (labels, v) in series {
            let _ = writeln!(out, "{family}{labels} {}", fmt_f64(*v));
        }
    }

    for (family, series) in group_families(snap.histograms.iter()) {
        let _ = writeln!(out, "# TYPE {family} histogram");
        for (labels, h) in &series {
            render_histogram(&mut out, &family, labels, h);
        }
        // Companion gauge family with the quantile estimates the human
        // report prints, so dashboards get p50/p95/p99 without recomputing
        // from buckets.
        let _ = writeln!(out, "# TYPE {family}_quantile gauge");
        for (labels, h) in &series {
            for q in ["0.5", "0.95", "0.99"] {
                let _ = writeln!(
                    out,
                    "{family}_quantile{} {}",
                    with_label(labels, "quantile", q),
                    fmt_f64(h.quantile(q.parse().expect("static quantile")))
                );
            }
        }
    }

    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("redist.bytes-sent"), "redist_bytes_sent");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:sub"), "ok_name:sub");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label_value(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
    }

    #[test]
    fn encodes_label_blocks() {
        assert_eq!(encode_labels(&[]), "");
        assert_eq!(encode_labels(&[("window", "3")]), "{window=\"3\"}");
        assert_eq!(
            encode_labels(&[("job", "lu-8k"), ("node", "c0-1")]),
            "{job=\"lu-8k\",node=\"c0-1\"}"
        );
    }

    #[test]
    fn injects_le_into_existing_block() {
        assert_eq!(with_label("", "le", "+Inf"), "{le=\"+Inf\"}");
        assert_eq!(with_label("{w=\"1\"}", "le", "0.5"), "{w=\"1\",le=\"0.5\"}");
    }

    #[test]
    fn fmt_handles_specials() {
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(0.25), "0.25");
    }
}
