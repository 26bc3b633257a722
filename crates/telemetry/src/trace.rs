//! Causal tracing: trace/span IDs, per-thread span buffers, and
//! Chrome-trace-event export (Perfetto-loadable).
//!
//! A *trace* is the causal history of one job, identified by the job id
//! minted at submission (trace 0 is scheduler infrastructure: WAL appends,
//! recovery rounds). A *span* is one timed operation inside a trace —
//! queue wait, a §3.1 remap decision, a spawn + expansion verdict, a
//! redistribution phase, an iteration of compute — with an explicit
//! `parent` edge to the span that caused it. Together the spans of a trace
//! form a DAG rooted at the job's submission:
//!
//! ```text
//! job ─┬─ queue_wait
//!      ├─ iter ── decision:expand ── spawn ── redist ─┬─ redist_pack
//!      │                                              ├─ redist_transfer
//!      │                                              └─ redist_unpack
//!      └─ ... resumed compute parented under the redistribution ...
//! ```
//!
//! Timestamps are whatever clock the recording site lives on: the
//! deterministic simulation clock in `clustersim` paths, the mpisim
//! virtual clock in driver/rank paths — never wall-clock in either.
//!
//! Recording is off unless `RESHAPE_TRACE` is set (its value is the export
//! path) or [`set_enabled`] is called. Each thread appends to a private
//! buffer without taking a lock; buffers migrate to the global sink when
//! they fill and when the thread exits, and [`drain_spans`] merges
//! everything. [`chrome_trace_json`] renders the merged spans as a Chrome
//! trace-event file: open it at <https://ui.perfetto.dev> to see every
//! job as a process row with its resize chains laid out causally.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// How many spans a thread buffers before migrating them to the sink.
const LOCAL_BUF: usize = 128;

/// A causal reference carried through control-plane messages: which trace
/// (job) the sender is acting for and which span caused the message.
/// `parent == 0` means "no specific cause" (the receiver parents to the
/// trace head instead).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCtx {
    pub trace: u64,
    pub parent: u64,
}

/// One completed span. `parent == 0` marks a root.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: String,
    /// Category used by the critical-path analyzer (`compute`,
    /// `queue_wait`, `spawn`, `redist*`, `recovery`/`replay`, ...).
    pub cat: String,
    /// Display track (Perfetto thread): `scheduler`, `sim`, `rank3`, ...
    pub track: String,
    pub start: f64,
    pub end: f64,
}

struct OpenSpan {
    trace: u64,
    parent: u64,
    name: String,
    cat: String,
    track: String,
    start: f64,
}

/// High bit tagging a federation *lease* trace: `LEASE_TRACE_BIT | lease_id`.
///
/// Job traces use the raw job id (small integers) and trace 0 is scheduler
/// infrastructure, so the two federation schemes claim disjoint high bits:
/// leases bit 62, shard control planes bit 61. `trace_check` keys its
/// federation validations off these tags without needing the federation
/// crate.
pub const LEASE_TRACE_BIT: u64 = 1 << 62;

/// High bit tagging a federation *shard control-plane* trace:
/// `SHARD_TRACE_BIT | shard_id`.
pub const SHARD_TRACE_BIT: u64 = 1 << 61;

/// The trace id of federation lease `lease_id`.
pub fn lease_trace(lease_id: u64) -> u64 {
    LEASE_TRACE_BIT | lease_id
}

/// The trace id of federation shard `shard_id`'s control plane.
pub fn shard_trace(shard_id: usize) -> u64 {
    SHARD_TRACE_BIT | shard_id as u64
}

/// Whether `trace` is a federation lease trace; see [`lease_trace`].
pub fn is_lease_trace(trace: u64) -> bool {
    trace & LEASE_TRACE_BIT != 0
}

/// Whether `trace` is a federation shard trace; see [`shard_trace`].
pub fn is_shard_trace(trace: u64) -> bool {
    trace & SHARD_TRACE_BIT != 0 && !is_lease_trace(trace)
}

/// The lease id behind a [`lease_trace`] id.
pub fn lease_of(trace: u64) -> u64 {
    trace & !LEASE_TRACE_BIT
}

/// The shard id behind a [`shard_trace`] id.
pub fn shard_of(trace: u64) -> usize {
    (trace & !SHARD_TRACE_BIT) as usize
}

// 0 = uninitialized, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn sink() -> &'static Mutex<Vec<SpanRecord>> {
    static SINK: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

fn open_table() -> &'static Mutex<HashMap<u64, OpenSpan>> {
    static OPEN: OnceLock<Mutex<HashMap<u64, OpenSpan>>> = OnceLock::new();
    OPEN.get_or_init(|| Mutex::new(HashMap::new()))
}

fn heads() -> &'static Mutex<HashMap<u64, u64>> {
    static HEADS: OnceLock<Mutex<HashMap<u64, u64>>> = OnceLock::new();
    HEADS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Per-thread span buffer: lock-free appends, migrated to the sink when
/// full and on thread exit (the `Drop` impl).
struct LocalBuf(Vec<SpanRecord>);

impl Drop for LocalBuf {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            sink().lock().append(&mut self.0);
        }
    }
}

thread_local! {
    static BUF: RefCell<LocalBuf> = const { RefCell::new(LocalBuf(Vec::new())) };
    static CURRENT: Cell<TraceCtx> = const { Cell::new(TraceCtx { trace: 0, parent: 0 }) };
}

/// Whether spans are being recorded. Reads `RESHAPE_TRACE` once.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = std::env::var("RESHAPE_TRACE")
                .map(|v| !v.is_empty())
                .unwrap_or(false);
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Programmatic override of [`enabled`] (tests, embedders).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Clear all collected state (sink, open spans, heads, this thread's
/// buffer). Test isolation helper.
pub fn reset() {
    sink().lock().clear();
    open_table().lock().clear();
    heads().lock().clear();
    BUF.with(|b| b.borrow_mut().0.clear());
    CURRENT.with(|c| c.set(TraceCtx::default()));
}

fn push(rec: SpanRecord) {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.0.push(rec);
        if b.0.len() >= LOCAL_BUF {
            sink().lock().append(&mut b.0);
        }
    });
}

/// Record a completed span; returns its id (0 when tracing is off).
pub fn complete(
    trace: u64,
    parent: u64,
    name: impl Into<String>,
    cat: &str,
    track: &str,
    start: f64,
    end: f64,
) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(SpanRecord {
        trace,
        id,
        parent,
        name: name.into(),
        cat: cat.to_string(),
        track: track.to_string(),
        start,
        end: end.max(start),
    });
    id
}

/// Open a span whose end is not yet known; close it with [`end`]. Spans
/// still open at [`drain_spans`] are closed at the latest time observed.
pub fn begin(
    trace: u64,
    parent: u64,
    name: impl Into<String>,
    cat: &str,
    track: &str,
    start: f64,
) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    open_table().lock().insert(
        id,
        OpenSpan {
            trace,
            parent,
            name: name.into(),
            cat: cat.to_string(),
            track: track.to_string(),
            start,
        },
    );
    id
}

/// Close a span opened by [`begin`]. No-op for id 0 or an already-closed
/// span (ending is idempotent).
pub fn end(id: u64, t: f64) {
    if id == 0 {
        return;
    }
    let Some(o) = open_table().lock().remove(&id) else {
        return;
    };
    push(SpanRecord {
        trace: o.trace,
        id,
        parent: o.parent,
        name: o.name,
        cat: o.cat,
        track: o.track,
        start: o.start,
        end: t.max(o.start),
    });
}

/// Remember the most recent span of a trace — the implicit parent for the
/// next operation when no explicit [`TraceCtx`] travelled with a message.
pub fn set_head(trace: u64, span: u64) {
    if enabled() && span != 0 {
        heads().lock().insert(trace, span);
    }
}

/// The trace's most recent span (0 when unknown).
pub fn head(trace: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    heads().lock().get(&trace).copied().unwrap_or(0)
}

/// This thread's ambient causal context (what a control-plane message
/// sent right now should carry).
pub fn current() -> TraceCtx {
    CURRENT.with(|c| c.get())
}

/// Set this thread's ambient causal context.
pub fn set_current(ctx: TraceCtx) {
    CURRENT.with(|c| c.set(ctx));
}

/// RAII scope for [`set_current`]: restores the previous context on drop.
pub struct CtxGuard(TraceCtx);

impl Drop for CtxGuard {
    fn drop(&mut self) {
        set_current(self.0);
    }
}

/// Set the ambient context for a lexical scope.
pub fn ctx_guard(ctx: TraceCtx) -> CtxGuard {
    let prev = current();
    set_current(ctx);
    CtxGuard(prev)
}

/// Merge every buffer and drain all collected spans, deterministically
/// ordered by `(start, id)`. Spans still open are closed at the latest
/// end/start time observed anywhere. Threads that recorded spans must
/// have exited (their buffers migrate on exit) — true for mpisim ranks,
/// which are joined before any flush.
pub fn drain_spans() -> Vec<SpanRecord> {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        if !b.0.is_empty() {
            sink().lock().append(&mut b.0);
        }
    });
    let mut spans: Vec<SpanRecord> = std::mem::take(&mut *sink().lock());
    let t_max = spans
        .iter()
        .map(|s| s.end)
        .chain(open_table().lock().values().map(|o| o.start))
        .fold(0.0f64, f64::max);
    for (id, o) in open_table().lock().drain() {
        spans.push(SpanRecord {
            trace: o.trace,
            id,
            parent: o.parent,
            name: o.name,
            cat: o.cat,
            track: o.track,
            start: o.start,
            end: t_max.max(o.start),
        });
    }
    heads().lock().clear();
    spans.sort_by(|a, b| {
        a.start
            .partial_cmp(&b.start)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
    spans
}

/// Render spans as a Chrome trace-event JSON document (Perfetto-loadable).
///
/// Each trace becomes a process (`pid` = trace id, named after its root
/// span), each distinct `track` within it a thread. Complete (`ph:"X"`)
/// events carry `ts`/`dur` in microseconds of the recording clock, and
/// `args` preserves the causal ids (`trace`, `span`, `parent`) so the
/// DAG round-trips through [`parse_chrome_trace`].
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    use serde_json::json;
    let mut proc_names: BTreeMap<u64, String> = BTreeMap::new();
    proc_names.insert(0, "scheduler".to_string());
    for s in spans {
        if s.parent == 0 && s.cat == "job" {
            proc_names.insert(s.trace, format!("job {} [{}]", s.trace, s.name));
        } else if is_lease_trace(s.trace) {
            proc_names
                .entry(s.trace)
                .or_insert_with(|| format!("lease {}", lease_of(s.trace)));
        } else if is_shard_trace(s.trace) {
            proc_names
                .entry(s.trace)
                .or_insert_with(|| format!("shard {} control", shard_of(s.trace)));
        } else {
            proc_names
                .entry(s.trace)
                .or_insert_with(|| format!("trace {}", s.trace));
        }
    }
    let mut tids: BTreeMap<(u64, String), u64> = BTreeMap::new();
    for s in spans {
        let next = tids.iter().filter(|((t, _), _)| *t == s.trace).count() as u64 + 1;
        tids.entry((s.trace, s.track.clone())).or_insert(next);
    }
    let mut events = Vec::new();
    for (pid, name) in &proc_names {
        events.push(json!({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0u64,
            "args": json!({"name": name}),
        }));
    }
    for ((pid, track), tid) in &tids {
        events.push(json!({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": json!({"name": track}),
        }));
    }
    for s in spans {
        let tid = tids[&(s.trace, s.track.clone())];
        events.push(json!({
            "name": s.name,
            "cat": s.cat,
            "ph": "X",
            "ts": s.start * 1e6,
            "dur": (s.end - s.start).max(0.0) * 1e6,
            "pid": s.trace,
            "tid": tid,
            "args": json!({
                "trace": s.trace, "span": s.id, "parent": s.parent, "track": s.track,
            }),
        }));
    }
    serde_json::to_string_pretty(&json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }))
    .expect("trace events serialize")
}

/// Re-parse a document produced by [`chrome_trace_json`] back into span
/// records (metadata events are skipped). Used by the round-trip test and
/// the `trace_check` CI bin.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<SpanRecord>, String> {
    let doc: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;
    let mut out = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        if ph == "M" {
            continue;
        }
        if ph != "X" {
            return Err(format!("event {i}: unexpected phase {ph:?}"));
        }
        let get_f = |k: &str| {
            ev.get(k)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("event {i}: missing numeric {k}"))
        };
        let args = ev
            .get("args")
            .ok_or_else(|| format!("event {i}: missing args"))?;
        let get_id = |k: &str| {
            args.get(k)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("event {i}: missing args.{k}"))
        };
        let ts = get_f("ts")?;
        let dur = get_f("dur")?;
        if dur < 0.0 {
            return Err(format!("event {i}: negative duration {dur}"));
        }
        out.push(SpanRecord {
            trace: get_id("trace")?,
            id: get_id("span")?,
            parent: get_id("parent")?,
            name: ev
                .get("name")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
            cat: ev
                .get("cat")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
            track: args
                .get("track")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
            start: ts / 1e6,
            end: (ts + dur) / 1e6,
        });
    }
    Ok(out)
}

/// Structural validation: unique non-zero span ids, every parent edge
/// resolves (or is 0), no span ends before it starts, and traces with a
/// root have their spans inside a single connected DAG. Returns a list of
/// violations (empty = valid).
pub fn validate(spans: &[SpanRecord]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut ids = std::collections::HashSet::new();
    for s in spans {
        if s.id == 0 {
            problems.push(format!("span {:?} has id 0", s.name));
        }
        if !ids.insert(s.id) {
            problems.push(format!("duplicate span id {}", s.id));
        }
        if s.end < s.start {
            problems.push(format!(
                "span {} ({}) ends before it starts: {} < {}",
                s.id, s.name, s.end, s.start
            ));
        }
    }
    for s in spans {
        if s.parent != 0 && !ids.contains(&s.parent) {
            problems.push(format!(
                "span {} ({}) has unknown parent {}",
                s.id, s.name, s.parent
            ));
        }
    }
    problems
}

/// Write the Chrome trace (and a `<path>.critpath.json` sidecar with the
/// per-job critical-path attribution) to the `RESHAPE_TRACE` path. No-op
/// when the variable is unset/empty or there is nothing to write.
pub fn write_trace_files(spans: &[SpanRecord]) {
    if spans.is_empty() {
        return;
    }
    let Some(path) = std::env::var("RESHAPE_TRACE")
        .ok()
        .filter(|p| !p.is_empty())
    else {
        return;
    };
    if let Err(e) = std::fs::write(&path, chrome_trace_json(spans)) {
        eprintln!("reshape-trace: cannot write {path}: {e}");
        return;
    }
    let crit = crate::critpath::analyze(spans);
    let sidecar = format!("{path}.critpath.json");
    let body = serde_json::to_string_pretty(&crit).expect("critpath serializes");
    if let Err(e) = std::fs::write(&sidecar, body) {
        eprintln!("reshape-trace: cannot write {sidecar}: {e}");
    }
}

/// Drain all spans and export them per [`write_trace_files`]. Called by
/// [`crate::flush`]; safe to call repeatedly (later calls see no spans).
pub fn flush() {
    if !enabled() {
        return;
    }
    let spans = drain_spans();
    write_trace_files(&spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global collector is shared across the test binary's threads;
    // serialize the tests that use it.
    fn lock() -> parking_lot::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn federation_trace_id_scheme_is_disjoint_and_invertible() {
        for lease in [0u64, 1, 42, u32::MAX as u64] {
            let t = lease_trace(lease);
            assert!(is_lease_trace(t));
            assert!(!is_shard_trace(t));
            assert_eq!(lease_of(t), lease);
        }
        for shard in [0usize, 1, 7, 4095] {
            let t = shard_trace(shard);
            assert!(is_shard_trace(t));
            assert!(!is_lease_trace(t));
            assert_eq!(shard_of(t), shard);
        }
        // Job traces (small ids) and trace 0 match neither scheme.
        for job in [0u64, 1, 99, 1 << 32] {
            assert!(!is_lease_trace(job));
            assert!(!is_shard_trace(job));
        }
    }

    #[test]
    fn disabled_recording_is_free_and_silent() {
        let _g = lock();
        set_enabled(false);
        reset();
        assert_eq!(complete(1, 0, "x", "compute", "t", 0.0, 1.0), 0);
        assert_eq!(begin(1, 0, "x", "compute", "t", 0.0), 0);
        end(0, 1.0);
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn begin_end_and_complete_collect_in_order() {
        let _g = lock();
        set_enabled(true);
        reset();
        let root = begin(7, 0, "job", "job", "scheduler", 1.0);
        let child = complete(7, root, "iter", "compute", "sim", 2.0, 3.0);
        end(root, 5.0);
        end(root, 9.0); // idempotent: already closed
        set_enabled(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, root);
        assert_eq!(spans[0].end, 5.0);
        assert_eq!(spans[1].id, child);
        assert_eq!(spans[1].parent, root);
        assert!(validate(&spans).is_empty());
    }

    #[test]
    fn unclosed_spans_are_closed_at_latest_time() {
        let _g = lock();
        set_enabled(true);
        reset();
        let a = begin(1, 0, "job", "job", "scheduler", 0.0);
        complete(1, a, "iter", "compute", "sim", 1.0, 42.0);
        set_enabled(false);
        let spans = drain_spans();
        let root = spans.iter().find(|s| s.id == a).unwrap();
        assert_eq!(root.end, 42.0);
    }

    #[test]
    fn heads_and_ambient_ctx_propagate() {
        let _g = lock();
        set_enabled(true);
        reset();
        set_head(3, 17);
        assert_eq!(head(3), 17);
        assert_eq!(head(4), 0);
        assert_eq!(current(), TraceCtx::default());
        {
            let _c = ctx_guard(TraceCtx {
                trace: 3,
                parent: 17,
            });
            assert_eq!(current().parent, 17);
        }
        assert_eq!(current(), TraceCtx::default());
        set_enabled(false);
        reset();
    }

    #[test]
    fn chrome_export_round_trips() {
        let spans = vec![
            SpanRecord {
                trace: 2,
                id: 10,
                parent: 0,
                name: "LU".into(),
                cat: "job".into(),
                track: "scheduler".into(),
                start: 0.0,
                end: 10.0,
            },
            SpanRecord {
                trace: 2,
                id: 11,
                parent: 10,
                name: "iter".into(),
                cat: "compute".into(),
                track: "sim".into(),
                start: 1.0,
                end: 4.0,
            },
        ];
        let doc = chrome_trace_json(&spans);
        let back = parse_chrome_trace(&doc).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].id, 10);
        assert_eq!(back[1].parent, 10);
        assert!((back[1].start - 1.0).abs() < 1e-9);
        assert!((back[1].end - 4.0).abs() < 1e-9);
        assert!(validate(&back).is_empty());
    }

    #[test]
    fn validate_flags_broken_edges_and_time_travel() {
        let mut spans = vec![SpanRecord {
            trace: 1,
            id: 5,
            parent: 99,
            name: "orphan".into(),
            cat: "compute".into(),
            track: "t".into(),
            start: 2.0,
            end: 1.0,
        }];
        let problems = validate(&spans);
        assert_eq!(problems.len(), 2, "{problems:?}");
        spans[0].parent = 0;
        spans[0].end = 3.0;
        assert!(validate(&spans).is_empty());
    }
}
