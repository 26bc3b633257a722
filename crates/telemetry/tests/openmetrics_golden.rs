//! Golden-file test for the OpenMetrics exposition format.
//!
//! The golden file pins the exact bytes: family grouping, `# TYPE` lines,
//! label pass-through, histogram bucket cumulation, quantile gauges, and
//! the trailing `# EOF`. Regenerate deliberately with
//! `BLESS=1 cargo test -p reshape-telemetry --test openmetrics_golden`
//! and review the diff like any other behavior change.

use reshape_telemetry::{encode_labels, render_openmetrics, Registry};

fn build_snapshot() -> reshape_telemetry::RegistrySnapshot {
    let r = Registry::default();
    // Dots in names must sanitize to underscores.
    r.counter("redist.msgs_total").add(7);
    r.counter("jobs_finished_total").add(3);
    // Labeled series share one family with the bare series.
    r.counter(&format!(
        "jobs_finished_total{}",
        encode_labels(&[("queue", "batch")])
    ))
    .add(2);
    r.gauge("sched_procs_free").set(12.0);
    r.gauge(&format!(
        "reshape_sim_utilization{}",
        encode_labels(&[("window", "0")])
    ))
    .set(0.5);
    r.gauge(&format!(
        "reshape_sim_utilization{}",
        encode_labels(&[("window", "1")])
    ))
    .set(0.75);
    // A label value that needs escaping: quote, backslash, newline.
    r.gauge(&format!(
        "app_info{}",
        encode_labels(&[("name", "lu \"8k\"\\demo\nline2")])
    ))
    .set(1.0);
    // Histogram: three observations, two buckets apart, exercising
    // cumulative le lines, sum/count, and quantile gauges.
    let h = r.histogram("redist_seconds");
    h.record(0.25);
    h.record(0.25);
    h.record(4.0);
    r.snapshot()
}

#[test]
fn rendering_matches_golden_file() {
    let got = render_openmetrics(&build_snapshot());
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/openmetrics.prom");
    if std::env::var("BLESS").is_ok() {
        std::fs::write(golden_path, &got).expect("write golden");
        return;
    }
    let want =
        std::fs::read_to_string(golden_path).expect("golden file exists — run with BLESS=1 once");
    assert_eq!(
        got, want,
        "OpenMetrics output drifted from tests/golden/openmetrics.prom — \
         if intentional, re-bless with BLESS=1"
    );
}

#[test]
fn rendering_has_structural_invariants() {
    let out = render_openmetrics(&build_snapshot());
    // One TYPE line per family, families never repeat.
    let mut seen = std::collections::BTreeSet::new();
    for line in out.lines().filter(|l| l.starts_with("# TYPE ")) {
        let fam = line.split_whitespace().nth(2).unwrap();
        assert!(seen.insert(fam.to_string()), "family {fam} declared twice");
    }
    // Escaped label value survives intact on one line.
    assert!(
        out.contains(r#"app_info{name="lu \"8k\"\\demo\nline2"} 1"#),
        "escaped label line missing:\n{out}"
    );
    // Histogram invariant: the +Inf bucket equals the count.
    assert!(out.contains(r#"redist_seconds_bucket{le="+Inf"} 3"#));
    assert!(out.contains("redist_seconds_count 3"));
    assert!(out.contains("redist_seconds_sum 4.5"));
    // Quantile companions exist for p50/p95/p99.
    for q in ["0.5", "0.95", "0.99"] {
        assert!(
            out.contains(&format!("redist_seconds_quantile{{quantile=\"{q}\"}}")),
            "missing quantile {q}:\n{out}"
        );
    }
    assert!(out.ends_with("# EOF\n"));
}
