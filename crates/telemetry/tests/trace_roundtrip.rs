//! Trace-export round trip: spans emitted through the public API, exported
//! as Chrome-trace-event JSON, re-parsed, and checked for the invariants
//! downstream tooling relies on — every span's parent ID exists in the
//! file, and no span ends before it starts.

use reshape_telemetry::trace;

/// Emit a realistic little span forest: two job traces with the
/// decision → spawn → redist(+phases) → compute chain, plus infra spans
/// on trace 0, some via the begin/end API and one left open on purpose.
fn emit() -> Vec<trace::SpanRecord> {
    trace::reset();
    trace::set_enabled(true);

    for (job, base) in [(1u64, 0.0f64), (2, 100.0)] {
        let root = trace::begin(job, 0, format!("job {job}"), "job", "scheduler", base);
        let qw = trace::complete(
            job,
            root,
            "queue_wait",
            "queue_wait",
            "scheduler",
            base,
            base + 2.0,
        );
        let it0 = trace::complete(job, qw, "iter 0", "compute", "sim", base + 2.0, base + 10.0);
        let dec = trace::complete(
            job,
            it0,
            "decision:expand",
            "decision",
            "scheduler",
            base + 10.0,
            base + 10.0,
        );
        let sp = trace::complete(
            job,
            dec,
            "spawn 1x2->2x2",
            "spawn",
            "sim",
            base + 10.0,
            base + 10.0,
        );
        let rd = trace::complete(
            job,
            sp,
            "redist 1x2->2x2",
            "redist",
            "sim",
            base + 10.0,
            base + 13.0,
        );
        trace::complete(
            job,
            rd,
            "pack",
            "redist_pack",
            "sim",
            base + 10.0,
            base + 11.0,
        );
        trace::complete(
            job,
            rd,
            "transfer",
            "redist_transfer",
            "sim",
            base + 11.0,
            base + 12.5,
        );
        trace::complete(
            job,
            rd,
            "unpack",
            "redist_unpack",
            "sim",
            base + 12.5,
            base + 13.0,
        );
        trace::complete(
            job,
            rd,
            "iter 1",
            "compute",
            "sim",
            base + 13.0,
            base + 20.0,
        );
        trace::end(root, base + 20.0);
    }
    trace::complete(0, 0, "wal_append", "wal", "scheduler", 5.0, 5.0);
    // Deliberately left open: drain must close it at the latest time seen.
    trace::begin(0, 0, "wal_recovery", "recovery", "scheduler", 50.0);

    let spans = trace::drain_spans();
    trace::set_enabled(false);
    spans
}

#[test]
fn export_reparses_with_parent_closure_and_ordered_timestamps() {
    let spans = emit();
    assert_eq!(spans.len(), 22, "2 jobs x 10 spans + 2 infra spans");

    let json = trace::chrome_trace_json(&spans);
    let back = trace::parse_chrome_trace(&json).expect("exported JSON parses");
    assert_eq!(back.len(), spans.len(), "no events lost in the round trip");

    // Every span's parent ID exists in the re-parsed file (0 = no parent).
    let ids: std::collections::BTreeSet<u64> = back.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), back.len(), "span ids are unique");
    for s in &back {
        assert!(
            s.parent == 0 || ids.contains(&s.parent),
            "span {} ({}) has dangling parent {}",
            s.id,
            s.name,
            s.parent
        );
    }

    // No span ends before it starts — including the one left open, which
    // drain closed at the run's t_max (120.0 > its 50.0 start).
    for s in &back {
        assert!(
            s.end >= s.start,
            "span {} ({}) ends before it starts",
            s.id,
            s.name
        );
    }
    let open = back
        .iter()
        .find(|s| s.name == "wal_recovery")
        .expect("open span exported");
    assert!(
        (open.end - 120.0).abs() < 1e-6,
        "open span closed at t_max, got {}",
        open.end
    );

    // The validator agrees, and the same checks hold for the file
    // write_trace_files would produce (it serializes this same JSON).
    assert!(
        trace::validate(&back).is_empty(),
        "{:?}",
        trace::validate(&back)
    );

    // Round-tripped timestamps survive the microsecond encoding.
    for (a, b) in spans.iter().zip(&back) {
        assert_eq!((a.trace, a.id, a.parent), (b.trace, b.id, b.parent));
        assert_eq!((&a.name, &a.cat, &a.track), (&b.name, &b.cat, &b.track));
        assert!((a.start - b.start).abs() < 2e-6 && (a.end - b.end).abs() < 2e-6);
    }
}
