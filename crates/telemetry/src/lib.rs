//! # reshape-telemetry — metrics, span timers, and a structured journal
//!
//! The paper's Performance Profiler and Remap Scheduler (§3.1) decide from
//! measured iteration times and redistribution costs; this crate makes
//! those measurements observable at runtime across the whole stack. It
//! provides:
//!
//! - a process-wide [`Registry`] of named [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s with quantile summaries,
//! - RAII [`Span`] timers for wall-clock latencies,
//! - a bounded structured [`Event`] journal (resize decisions with their
//!   policy inputs, redistributions with per-phase timings, per-job
//!   turnaround summaries) exportable as JSONL.
//!
//! Everything is controlled by three environment variables:
//!
//! - `RESHAPE_TELEMETRY` — `off` (default), `text`, `json`, or `metrics`;
//! - `RESHAPE_TELEMETRY_PATH` — where [`flush`] writes its report
//!   (stderr when unset);
//! - `RESHAPE_METRICS` — a path (conventionally `*.prom`); when set,
//!   [`flush`] additionally writes the registry in the OpenMetrics text
//!   exposition format (see [`render_openmetrics`]). Setting it alone
//!   implies `metrics` mode, so recording turns on.
//!
//! With telemetry off, every recording call is a single relaxed atomic
//! load and a branch — cheap enough to leave in the mpisim send path.

pub mod critpath;
mod histogram;
mod journal;
mod metrics;
pub mod openmetrics;
mod span;
pub mod trace;

pub use histogram::{
    bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, MergeError, BUCKETS, MIN_BOUND,
};
pub use journal::{
    drain as drain_journal, dropped as journal_dropped, record,
    set_capacity as set_journal_capacity, snapshot_events, Event, DEFAULT_CAPACITY,
};
pub use metrics::{Counter, Gauge, Registry, RegistrySnapshot};
pub use openmetrics::{encode_labels, escape_label_value, render_openmetrics, sanitize_name};
pub use span::Span;
pub use trace::{SpanRecord, TraceCtx};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;

/// Telemetry output mode, from `RESHAPE_TELEMETRY`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No recording, no output (the default).
    Off,
    /// Record everything; [`flush`] emits a human-readable report.
    Text,
    /// Record everything; [`flush`] emits JSONL.
    Json,
    /// Record everything; [`flush`] emits only the OpenMetrics file named
    /// by `RESHAPE_METRICS` (no text/JSONL body). Implied when
    /// `RESHAPE_METRICS` is set without `RESHAPE_TELEMETRY`.
    Metrics,
}

static MODE: AtomicU8 = AtomicU8::new(0);
static MODE_INIT: Once = Once::new();

fn init_mode_from_env() {
    MODE_INIT.call_once(|| {
        let m = match std::env::var("RESHAPE_TELEMETRY").ok().as_deref() {
            Some("text") => 1,
            Some("json") => 2,
            Some("metrics") => 3,
            // A metrics sink path alone is enough to opt in to recording.
            _ if metrics_path().is_some() => 3,
            _ => 0,
        };
        MODE.store(m, Ordering::Relaxed);
    });
}

/// Current mode; reads `RESHAPE_TELEMETRY` once on first call.
pub fn mode() -> Mode {
    init_mode_from_env();
    match MODE.load(Ordering::Relaxed) {
        1 => Mode::Text,
        2 => Mode::Json,
        3 => Mode::Metrics,
        _ => Mode::Off,
    }
}

/// Override the mode programmatically (tests, benches, embedders).
pub fn set_mode(m: Mode) {
    init_mode_from_env();
    let v = match m {
        Mode::Off => 0,
        Mode::Text => 1,
        Mode::Json => 2,
        Mode::Metrics => 3,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// Whether anything should be recorded. Inlined fast path for hot sites.
#[inline]
pub fn enabled() -> bool {
    mode() != Mode::Off
}

/// Handle to a named counter in the global registry (not gated — useful
/// for caching handles or for always-on bookkeeping).
pub fn counter(name: &str) -> std::sync::Arc<Counter> {
    Registry::global().counter(name)
}

/// Add to a named counter when telemetry is enabled.
pub fn incr(name: &str, n: u64) {
    if enabled() {
        Registry::global().counter(name).add(n);
    }
}

/// Set a named gauge when telemetry is enabled.
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        Registry::global().gauge(name).set(v);
    }
}

/// Set a labeled gauge when telemetry is enabled. The label set is encoded
/// into the registry key (`name{k="v",...}`, values escaped), which the
/// OpenMetrics renderer decodes back into one metric family per `name`.
pub fn gauge_labeled(name: &str, labels: &[(&str, &str)], v: f64) {
    if enabled() {
        let key = format!("{name}{}", encode_labels(labels));
        Registry::global().gauge(&key).set(v);
    }
}

/// Add to a labeled counter when telemetry is enabled. Label encoding as
/// in [`gauge_labeled`].
pub fn incr_labeled(name: &str, labels: &[(&str, &str)], n: u64) {
    if enabled() {
        let key = format!("{name}{}", encode_labels(labels));
        Registry::global().counter(&key).add(n);
    }
}

/// Record into a named histogram when telemetry is enabled.
pub fn observe(name: &str, v: f64) {
    if enabled() {
        Registry::global().histogram(name).record(v);
    }
}

/// Record into a labeled histogram when telemetry is enabled. Label
/// encoding as in [`gauge_labeled`].
pub fn observe_labeled(name: &str, labels: &[(&str, &str)], v: f64) {
    if enabled() {
        let key = format!("{name}{}", encode_labels(labels));
        Registry::global().histogram(&key).record(v);
    }
}

/// Start a wall-clock span recording into histogram `name` when stopped.
pub fn span(name: &'static str) -> Span {
    Span::new(name)
}

/// Render journal + metrics as JSONL: one tagged object per journal event,
/// then a final `{"type":"metrics",...}` line with the registry snapshot.
pub fn json_lines() -> String {
    let mut out = String::new();
    for ev in snapshot_events() {
        out.push_str(&serde_json::to_string(&ev).expect("telemetry events serialize"));
        out.push('\n');
    }
    let tail = serde_json::json!({
        "type": "metrics",
        "journal_dropped": journal_dropped(),
        "metrics": Registry::global().snapshot(),
    });
    out.push_str(&tail.to_string());
    out.push('\n');
    out
}

/// Render a human-readable report of every instrument and journal tallies.
pub fn text_report() -> String {
    use std::fmt::Write as _;
    let snap = Registry::global().snapshot();
    let mut s = String::from("== reshape telemetry ==\n");
    if !snap.counters.is_empty() {
        s.push_str("-- counters --\n");
        for (k, v) in &snap.counters {
            let _ = writeln!(s, "{k:<44} {v}");
        }
    }
    if !snap.gauges.is_empty() {
        s.push_str("-- gauges --\n");
        for (k, v) in &snap.gauges {
            let _ = writeln!(s, "{k:<44} {v}");
        }
    }
    if !snap.histograms.is_empty() {
        s.push_str("-- histograms --\n");
        for (k, v) in &snap.histograms {
            let _ = writeln!(s, "{k:<44} {}", v.summary());
        }
    }
    let events = snapshot_events();
    let mut tally: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    for ev in &events {
        *tally.entry(ev.kind()).or_insert(0) += 1;
    }
    let _ = writeln!(
        s,
        "-- journal -- ({} events retained, {} dropped)",
        events.len(),
        journal_dropped()
    );
    for (k, v) in &tally {
        let _ = writeln!(s, "{k:<44} {v}");
    }
    s
}

/// Write the report for the current [`mode`] to `RESHAPE_TELEMETRY_PATH`
/// (truncating), or to stderr when the variable is unset. No-op when off.
/// Non-destructive: the journal and registry are left intact. Also drains
/// and exports collected trace spans when `RESHAPE_TRACE` is set (that
/// part runs regardless of the telemetry mode), and warns when the
/// bounded journal silently evicted events.
pub fn flush() {
    trace::flush();
    if mode() == Mode::Off {
        return;
    }
    flush_openmetrics();
    let body = match mode() {
        Mode::Off | Mode::Metrics => return,
        Mode::Json => json_lines(),
        Mode::Text => text_report(),
    };
    let dropped = journal_dropped();
    if dropped > 0 {
        eprintln!(
            "reshape-telemetry: warning: {dropped} journal events were dropped by the \
             bounded buffer (journal_dropped_total) — raise the cap with \
             set_journal_capacity to keep them"
        );
    }
    match std::env::var("RESHAPE_TELEMETRY_PATH")
        .ok()
        .filter(|p| !p.is_empty())
    {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("reshape-telemetry: cannot write {path}: {e}");
            }
        }
        None => eprint!("{body}"),
    }
}

fn metrics_path() -> Option<String> {
    std::env::var("RESHAPE_METRICS")
        .ok()
        .filter(|p| !p.is_empty())
}

/// Write the registry in OpenMetrics text format to `RESHAPE_METRICS`, if
/// that variable names a path. Called from [`flush`]; also callable
/// directly by embedders that manage their own flush cadence.
pub fn flush_openmetrics() {
    let Some(path) = metrics_path() else {
        return;
    };
    let body = render_openmetrics(&Registry::global().snapshot());
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("reshape-telemetry: cannot write {path}: {e}");
    }
}
