//! `trace_check` — validate an exported Chrome/Perfetto trace file.
//!
//! ```text
//! cargo run -p reshape-bench --bin trace_check -- trace.json
//! ```
//!
//! Parses the trace-event JSON produced by `RESHAPE_TRACE` exports and
//! checks the causal invariants the rest of the tooling relies on: every
//! event is well-formed (`ph:"X"`, microsecond timestamps, non-negative
//! durations), span ids are unique, every non-zero parent edge points at a
//! span in the same file, and no span ends before it starts. When the
//! export's `<trace>.critpath.json` sidecar is present it is validated
//! too: it must parse as the critical-path schema, every bucket must be
//! non-negative, the buckets must sum to the job's makespan, and the rows
//! must agree with an attribution recomputed from the trace itself.
//!
//! Federation exports (lease / shard-control traces, recognized by the
//! trace-id bits of `reshape_telemetry::trace`) get three more checks:
//! every parent chain closes transitively at a root span even where it
//! crosses traces (lease → shard control and back); every lease span
//! recorded on a shard's track nests inside that shard's control-root
//! lifetime; and every fence span is parented to an epoch-bump span it
//! never precedes. Exits 0 and prints a summary when everything is sound;
//! prints every violation and exits 1 otherwise — CI runs this against a
//! fixed-seed `simulate` export and against the `fedtop` federation
//! trace-smoke scenario.

use reshape_telemetry::trace;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: trace_check <trace.json>");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("trace_check: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let spans = match trace::parse_chrome_trace(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace_check: {path}: malformed trace: {e}");
            std::process::exit(1);
        }
    };
    if spans.is_empty() {
        eprintln!("trace_check: {path}: no spans (was RESHAPE_TRACE set during the run?)");
        std::process::exit(1);
    }
    let problems = trace::validate(&spans);
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("trace_check: {path}: {p}");
        }
        std::process::exit(1);
    }
    let problems = check_federation(&spans);
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("trace_check: {path}: {p}");
        }
        std::process::exit(1);
    }
    let traces: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.trace).collect();
    let parented = spans.iter().filter(|s| s.parent != 0).count();
    let t_max = spans.iter().map(|s| s.end).fold(0.0f64, f64::max);
    println!(
        "trace_check: {path}: OK — {} spans, {} traces, {parented} parent edges, t_max {t_max:.1}s",
        spans.len(),
        traces.len()
    );
    let leases = traces.iter().filter(|&&t| trace::is_lease_trace(t)).count();
    let shards = traces.iter().filter(|&&t| trace::is_shard_trace(t)).count();
    if leases + shards > 0 {
        let fences = spans.iter().filter(|s| s.cat == "fence").count();
        println!(
            "trace_check: {path}: federation OK — {leases} lease traces, {shards} shard \
             control traces, {fences} fences (parent closure, shard nesting, fence-after-bump)"
        );
    }
    let paths = reshape_telemetry::critpath::analyze(&spans);
    if !paths.is_empty() {
        print!("{}", reshape_telemetry::critpath::render_table(&paths));
    }

    let sidecar = format!("{path}.critpath.json");
    if std::path::Path::new(&sidecar).exists() {
        let problems = check_sidecar(&sidecar, &paths);
        if !problems.is_empty() {
            for p in &problems {
                eprintln!("trace_check: {sidecar}: {p}");
            }
            std::process::exit(1);
        }
        println!(
            "trace_check: {sidecar}: OK — {} jobs, buckets sum to makespan",
            paths.len()
        );
    }
}

/// Federation-specific causal checks on lease / shard-control traces.
/// No-op (empty) for exports with no federation spans.
fn check_federation(spans: &[trace::SpanRecord]) -> Vec<String> {
    use std::collections::BTreeMap;

    let mut problems = Vec::new();
    let by_id: BTreeMap<u64, &trace::SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let fed =
        |s: &trace::SpanRecord| trace::is_lease_trace(s.trace) || trace::is_shard_trace(s.trace);
    if !spans.iter().any(&fed) {
        return problems;
    }

    // 1. Cross-shard parent-edge closure: every federation span's parent
    //    chain terminates at a root (parent 0), even where the edges
    //    cross traces (lease → shard control and back).
    for s in spans.iter().filter(|s| fed(s)) {
        let mut cur = s;
        let mut hops = 0usize;
        while cur.parent != 0 {
            match by_id.get(&cur.parent) {
                Some(p) => cur = p,
                None => {
                    problems.push(format!(
                        "span {} ({}) parent chain breaks at missing span {}",
                        s.id, s.name, cur.parent
                    ));
                    break;
                }
            }
            hops += 1;
            if hops > spans.len() {
                problems.push(format!("span {} ({}) parent chain cycles", s.id, s.name));
                break;
            }
        }
    }

    // 2. Lease spans nest inside the lifetime of the shard they were
    //    recorded on (the span's track names the acting shard; the shard
    //    control trace's root span is that shard's lifetime).
    let mut shard_roots: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| trace::is_shard_trace(s.trace) && s.parent == 0)
    {
        shard_roots.insert(
            format!("shard {}", trace::shard_of(s.trace)),
            (s.start, s.end),
        );
    }
    for s in spans.iter().filter(|s| trace::is_lease_trace(s.trace)) {
        let Some(&(lo, hi)) = shard_roots.get(&s.track) else {
            continue; // track is not a shard lifetime (e.g. the lease root)
        };
        if s.start < lo || s.end > hi {
            problems.push(format!(
                "lease span {} ({}) [{:.6}, {:.6}] outside its {} lifetime [{lo:.6}, {hi:.6}]",
                s.id, s.name, s.start, s.end, s.track
            ));
        }
    }

    // 3. A fence span is always caused by — and never precedes — the
    //    epoch bump that fenced it.
    for s in spans.iter().filter(|s| s.cat == "fence") {
        let Some(bump) = by_id.get(&s.parent) else {
            problems.push(format!(
                "fence span {} ({}) has no epoch-bump parent (parent {})",
                s.id, s.name, s.parent
            ));
            continue;
        };
        if bump.cat != "epoch" {
            problems.push(format!(
                "fence span {} ({}) parented to {:?} (cat {:?}), not an epoch bump",
                s.id, s.name, bump.name, bump.cat
            ));
        }
        if s.start < bump.start {
            problems.push(format!(
                "fence span {} ({}) at {:.6} precedes its epoch bump at {:.6}",
                s.id, s.name, s.start, bump.start
            ));
        }
    }
    problems
}

/// Validate the `.critpath.json` sidecar against the schema and against the
/// attribution recomputed from the trace. Returns all violations found.
fn check_sidecar(
    sidecar: &str,
    recomputed: &[reshape_telemetry::critpath::JobCritPath],
) -> Vec<String> {
    use reshape_telemetry::critpath::JobCritPath;

    let text = match std::fs::read_to_string(sidecar) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read sidecar: {e}")],
    };
    let rows: Vec<JobCritPath> = match serde_json::from_str(&text) {
        Ok(r) => r,
        Err(e) => {
            return vec![format!(
                "not a critical-path sidecar (schema violation): {e}"
            )]
        }
    };
    let mut problems = Vec::new();
    for r in &rows {
        let buckets = [
            ("makespan", r.makespan),
            ("compute", r.compute),
            ("queue_wait", r.queue_wait),
            ("spawn", r.spawn),
            ("redistribution", r.redistribution),
            ("rollback_replay", r.rollback_replay),
            ("other", r.other),
        ];
        for (name, v) in buckets {
            if !v.is_finite() || v < 0.0 {
                problems.push(format!(
                    "trace {} ({}): {name} = {v} is not a duration",
                    r.trace, r.name
                ));
            }
        }
        // The buckets partition the root interval, so their sum must equal
        // the makespan (float-tolerant, scaled to the magnitude involved).
        let tol = 1e-6 * (1.0 + r.makespan.abs());
        if (r.total() - r.makespan).abs() > tol {
            problems.push(format!(
                "trace {} ({}): buckets sum to {} but makespan is {}",
                r.trace,
                r.name,
                r.total(),
                r.makespan
            ));
        }
    }
    if rows.len() != recomputed.len() {
        problems.push(format!(
            "sidecar has {} jobs but the trace yields {}",
            rows.len(),
            recomputed.len()
        ));
    }
    for (got, want) in rows.iter().zip(recomputed) {
        if got.trace != want.trace {
            problems.push(format!(
                "job order mismatch: sidecar trace {} vs trace {}",
                got.trace, want.trace
            ));
            continue;
        }
        let tol = 1e-6 * (1.0 + want.makespan.abs());
        if (got.total() - want.total()).abs() > tol || (got.makespan - want.makespan).abs() > tol {
            problems.push(format!(
                "trace {} ({}): sidecar attribution diverges from the trace (makespan {} vs {})",
                got.trace, got.name, got.makespan, want.makespan
            ));
        }
    }
    problems
}
