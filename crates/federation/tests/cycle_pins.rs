//! Recorded end states of the lease protocol's two full cycles.
//!
//! A wide job forcing one lend (grant → bus → attach → expiry eviction →
//! release → reclaim) and a split-brain cycle (grant → partition →
//! suspicion fence → heal → journaled repair → reclaim) each end at a
//! virtual time fixed bit for bit by the protocol, with exact grant, fence
//! and repair counts. One traced lease cycle records a fixed number of
//! spans. A change that moves any of these changed what the protocol does.
//!
//! The span count reads the process-global trace sink, which every
//! federation on any thread writes while tracing is on, so these tests live
//! in their own binary and each holds the gate below while its federation
//! runs.

use reshape_core::{JobSpec, ProcessorConfig, TopologyPref};
use reshape_federation::{Federation, FederationConfig, TenantConfig};
use reshape_telemetry::trace;

/// Serializes the tests of this binary around the global trace sink.
fn trace_gate() -> &'static std::sync::Mutex<()> {
    static GATE: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    GATE.get_or_init(|| std::sync::Mutex::new(()))
}

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

/// A 6-processor job fits no 4-wide shard, so admitting it takes one lend.
/// Pumps timers to quiescence and returns `(virtual end time, leases
/// granted)`.
fn lease_cycle() -> (f64, usize) {
    let mut cfg = FederationConfig::new(vec![4, 4, 4], vec![TenantConfig::new(64, 1.0, 16)]);
    cfg.lease.min_spare = 1;
    let mut fed = Federation::new(cfg);
    fed.submit(0, 0, spec("wide", 6, 4), 0.0);
    let mut t = 0.0;
    for _ in 0..256 {
        let Some(next) = fed.next_timer() else { break };
        t = next.max(t);
        fed.run_timers(t);
        if fed.quiesced() {
            break;
        }
    }
    assert_eq!(fed.live_leases(), 0, "the cycle must resolve every lease");
    (fed.now(), fed.leases().count())
}

/// Two shards, one lease across them, a partition from t=5 to t=25.
/// Returns `(virtual end time, fences, heal repairs)` at post-heal
/// quiescence.
fn split_brain_cycle() -> (f64, u64, u64) {
    let mut cfg = FederationConfig::new(vec![4, 4], vec![TenantConfig::new(64, 1.0, 16)]);
    cfg.lease.min_spare = 0;
    cfg.lease.term = 60.0;
    cfg.lease.grace = 10.0;
    cfg.lease.suspicion = 5.0;
    cfg.lease.retry_backoff = 1000.0; // exactly one lease per cycle
    let mut fed = Federation::new(cfg);
    fed.inject_partition(vec![vec![0], vec![1]], 5.0, 25.0);
    // `big` borrows 2 procs across the soon-to-be-severed pair.
    fed.submit(0, 0, spec("fill", 2, 100), 0.0);
    fed.submit(0, 1, spec("big", 6, 100), 1.0);
    let mut t = 0.0;
    for _ in 0..512 {
        let Some(next) = fed.next_timer() else { break };
        t = next.max(t);
        fed.run_timers(t);
        if t >= 25.0 && fed.quiesced() {
            break;
        }
    }
    assert_eq!(fed.live_leases(), 0, "the cycle must resolve every lease");
    (fed.now(), fed.fences(), fed.heal_repairs())
}

#[test]
fn lease_cycle_is_pinned() {
    let _g = trace_gate().lock().unwrap_or_else(|p| p.into_inner());
    let (end, granted) = lease_cycle();
    assert_eq!(granted, 1);
    assert_eq!(end.to_bits(), 60.099999999999994_f64.to_bits(), "end {end}");
}

#[test]
fn split_brain_cycle_is_pinned() {
    let _g = trace_gate().lock().unwrap_or_else(|p| p.into_inner());
    let (end, fences, repairs) = split_brain_cycle();
    assert_eq!((fences, repairs), (1, 1));
    assert_eq!(end.to_bits(), 25.150000000000002_f64.to_bits(), "end {end}");
}

#[test]
fn traced_lease_cycle_records_pinned_span_count() {
    let _g = trace_gate().lock().unwrap_or_else(|p| p.into_inner());
    trace::reset();
    trace::set_enabled(true);
    lease_cycle();
    trace::set_enabled(false);
    let spans = trace::drain_spans().len();
    trace::reset();
    assert_eq!(spans, 19);
}
