//! Federation causal-trace tests.
//!
//! These tests enable the process-global trace sink, so they live alone in
//! their own integration-test binary. Beside them, any federation running on
//! another thread records spans under the same trace ids — lease ids and
//! shard ids both start from the same small numbers in every federation —
//! and writes the shared per-trace heads. A chain assertion then follows a
//! parent link into a stranger's span. (A telemetry handle owned by the
//! federation, instead of a global, is the real fix.) The two tests still
//! share this binary, so they keep their gate.

use std::collections::BTreeMap;

use reshape_core::{JobSpec, ProcessorConfig, TopologyPref};
use reshape_federation::{Federation, FederationConfig, Notice, TenantConfig};
use reshape_telemetry::trace;

fn spec(name: &str, procs: usize, iters: usize) -> JobSpec {
    JobSpec::new(
        name,
        TopologyPref::AnyCount {
            min: 1,
            max: 64,
            step: 1,
        },
        ProcessorConfig::linear(procs),
        iters,
    )
}

/// Process timers strictly before `horizon`, collecting notices.
fn drain_until(fed: &mut Federation, horizon: f64) -> Vec<Notice> {
    let mut out = Vec::new();
    while fed.next_timer().is_some_and(|t| t < horizon) {
        let t = fed.next_timer().unwrap();
        out.extend(fed.run_timers(t));
    }
    out
}

/// Serializes tests that toggle the process-global trace sink.
fn trace_gate() -> &'static std::sync::Mutex<()> {
    static GATE: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    GATE.get_or_init(|| std::sync::Mutex::new(()))
}

#[test]
fn fenced_lease_trace_chain_is_parent_connected() {
    let _g = trace_gate().lock().unwrap_or_else(|p| p.into_inner());
    trace::reset();
    trace::set_enabled(true);
    // Same scenario as the suspicion-fences test: grant → partition →
    // suspect → epoch bump → fence → heal repair → evict → reclaim.
    let mut cfg = FederationConfig::new(vec![4, 4], vec![TenantConfig::new(64, 1.0, 32)]);
    cfg.lease.min_spare = 0;
    cfg.lease.term = 60.0;
    cfg.lease.grace = 10.0;
    cfg.lease.suspicion = 5.0;
    let mut fed = Federation::new(cfg);
    fed.submit(0, 0, spec("fill", 2, 100), 0.0);
    fed.submit(0, 1, spec("big", 6, 100), 1.0);
    let lease = fed.leases().next().expect("lease granted").id;
    let (lender, borrower) = {
        let l = fed.lease(lease).unwrap();
        (l.lender, l.borrower)
    };
    fed.inject_partition(vec![vec![lender], vec![borrower]], 5.0, 25.0);
    drain_until(&mut fed, 40.0);
    fed.run_timers(40.0);
    assert!(fed.lease(lease).unwrap().resolved());
    trace::set_enabled(false);
    let spans = trace::drain_spans();
    trace::reset();

    let by_id: BTreeMap<u64, &trace::SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let find = |cat: &str, trace_id: u64| {
        spans
            .iter()
            .find(|s| s.cat == cat && s.trace == trace_id)
            .unwrap_or_else(|| panic!("no {cat} span on trace {trace_id:#x}"))
    };
    let ltrace = trace::lease_trace(lease);
    let heal = find("heal", ltrace);
    let fence = find("fence", ltrace);
    let bump = find("epoch", trace::shard_trace(lender));
    let suspect = find("suspect", ltrace);
    let severed = find("partition", ltrace);
    let grant = spans
        .iter()
        .find(|s| s.trace == ltrace && s.name.starts_with("grant "))
        .expect("grant span");
    // The acceptance chain, edge by edge (fence→bump crosses from the
    // lease trace into the lender's shard trace and back).
    assert_eq!(heal.parent, fence.id, "heal repair caused by the fence");
    assert_eq!(fence.parent, bump.id, "fence caused by the epoch bump");
    assert!(fence.start >= bump.start, "fence never precedes its bump");
    assert_eq!(
        bump.parent, suspect.id,
        "bump caused by the suspicion timeout"
    );
    assert_eq!(suspect.parent, severed.id, "suspicion armed by the cut");
    assert_eq!(severed.parent, grant.id, "cut severed the granted lease");
    // The whole chain closes transitively at a root span (parent 0).
    let mut cur = heal.id;
    let mut hops = 0;
    while by_id[&cur].parent != 0 {
        cur = by_id[&cur].parent;
        hops += 1;
        assert!(hops < 64, "parent chain must terminate");
    }
    // Every lease span recorded on a shard track sits inside that
    // shard's root span lifetime.
    for i in 0..2 {
        let root = spans
            .iter()
            .find(|s| s.trace == trace::shard_trace(i) && s.parent == 0 && s.cat == "shard")
            .expect("shard root span");
        for sp in spans
            .iter()
            .filter(|s| trace::is_lease_trace(s.trace) && s.track == format!("shard {i}"))
        {
            assert!(
                sp.start >= root.start && sp.end <= root.end,
                "lease span {} outside shard {i} lifetime",
                sp.name
            );
        }
    }
    // In-band bus delivery spans exist for grant, ack and release.
    for kind in ["bus:grant", "bus:ack", "bus:release"] {
        assert!(
            spans
                .iter()
                .any(|s| s.trace == ltrace && s.name.starts_with(kind)),
            "missing {kind} delivery span"
        );
    }
}

#[test]
fn tracing_does_not_change_scheduling_or_notices() {
    let _g = trace_gate().lock().unwrap_or_else(|p| p.into_inner());
    let run = || {
        let mut cfg = FederationConfig::new(vec![4, 4], vec![TenantConfig::new(64, 1.0, 32)]);
        cfg.lease.min_spare = 0;
        cfg.lease.suspicion = 5.0;
        let mut fed = Federation::new(cfg);
        let mut notices = Vec::new();
        notices.extend(fed.submit(0, 0, spec("fill", 2, 100), 0.0));
        notices.extend(fed.submit(0, 1, spec("big", 6, 100), 1.0));
        fed.inject_partition(vec![vec![0], vec![1]], 5.0, 25.0);
        notices.extend(drain_until(&mut fed, 40.0));
        notices.extend(fed.run_timers(40.0));
        (
            format!("{notices:?}"),
            fed.transitions(),
            fed.heal_repairs(),
        )
    };
    trace::reset();
    trace::set_enabled(false);
    let off = run();
    trace::set_enabled(true);
    let on = run();
    trace::set_enabled(false);
    trace::reset();
    assert_eq!(off, on, "tracing must be invisible to the control plane");
}
