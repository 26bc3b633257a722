//! Recorded digests of whole federation runs.
//!
//! Each run is rendered the way `trace_determinism.rs` fingerprints one —
//! the `FedReport`'s `Debug` (with the SLO series recorded through the
//! run's hook), every shard's final WAL text, and the flight-recorder
//! JSONL — and hashed with FNV-1a. The digests
//! are committed at `tests/snapshots/federation_runs.txt`, so a change to the
//! federation or its driver that moves one notice, one WAL record, one SLO
//! sample or one bit of a virtual time fails here.
//!
//! The runs:
//!
//! * seeds 0..256 of `generate_federation` and of `generate_partition`;
//! * the `fed-steady` benchmark's tiny shape (16 shards of 32, 2 000 jobs,
//!   1 % wide jobs), at bus latency 0 as the benchmark runs it and at the
//!   default 0.05 s, where a wide job can collect more than one lease (24
//!   grants at latency 0, 27 at 0.05 s, on seed 31337) — this pins today's
//!   over-grant, so a change to lending cannot move it silently;
//! * the same stream on 256 and on 1 024 shards at bus latency 0, so the
//!   routing and lending picks are pinned where a federation has many
//!   shards;
//! * the `fed-recover` benchmark's tiny shape (4 shards of 32, 2 000 jobs, no
//!   wide jobs, bus latency 0, 8 evenly spaced shard kills of 10 s and 2
//!   half/half partitions of 40 s): every kill and recovery, with the
//!   flight recorder's `snapshot_match=true` lines, is in the digest;
//! * a hand-built job list given out of arrival order, whose duplicate
//!   integer arrival times coincide with check-ins and with a shard's
//!   recovery: it pins the order of simultaneous events (a submission
//!   before a check-in or recovery at the same instant, equal arrivals in
//!   list order).
//!
//! To re-record after an *intentional* behaviour change:
//!
//! ```text
//! RESHAPE_BLESS=1 cargo test -p reshape-testkit --test federation_pins
//! ```
//!
//! and commit the rewritten snapshot file (the bless run fails the test on
//! purpose so a stale green is impossible).

use std::collections::BTreeMap;

use reshape_core::{JobSpec, ProcessorConfig, TopologyPref};
use reshape_federation::sim::{
    run_with_fed, FedJob, FedReport, FedSimConfig, KillPlan, PartitionPlan, SloSamples,
};
use reshape_federation::TenantConfig;
use reshape_testkit::{generate_federation, generate_partition, SplitMix64};

const SNAPSHOT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/snapshots/federation_runs.txt"
);

/// FNV-1a over one run's rendering.
fn fnv1a(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Run `cfg` and digest everything observable about it: the full report,
/// with the SLO series its hook recorded, every shard's final WAL text, and
/// the flight-recorder dump.
fn digest(cfg: FedSimConfig) -> (FedReport, String) {
    let mut samples = SloSamples::default();
    let (mut report, fed) = run_with_fed(cfg, |fed, t| samples.record(fed, t));
    report.slo.samples = samples;
    let mut out = format!("{report:?}\n");
    for sh in fed.shards() {
        let wal = sh
            .core()
            .and_then(|c| c.wal())
            .map(|w| w.encode())
            .unwrap_or_default();
        out.push_str(&wal);
        out.push('\n');
    }
    out.push_str(&fed.flightrec().dump_jsonl());
    (report, fnv1a(&out))
}

fn any_count(name: String, procs: usize, iterations: usize) -> JobSpec {
    JobSpec::new(
        name,
        TopologyPref::AnyCount {
            min: 1,
            max: 64,
            step: 1,
        },
        ProcessorConfig::linear(procs),
        iterations,
    )
}

const TINY_SHARD_PROCS: usize = 32;
const TINY_JOBS: usize = 2_000;

/// Mean arrival gap of the tiny streams: 0.7 load of the federation's
/// cpu-seconds, narrow jobs averaging 2.5 processors x 3 iterations x 60 s
/// and wide ones 34 processors x 4.5 x 60 s.
fn tiny_mean_gap(shards: usize, wide_permille: u64) -> f64 {
    let total = (shards * TINY_SHARD_PROCS) as f64;
    let wide = wide_permille as f64 / 1000.0;
    let wide_procs = (TINY_SHARD_PROCS + 2) as f64;
    let cpu_s = (1.0 - wide) * 2.5 * 3.0 * 60.0 + wide * wide_procs * 4.5 * 60.0;
    cpu_s / (0.7 * total)
}

/// The benchmark's federation stream at its tiny size: `shards` shards of
/// 32 processors, 8 tenants whose quotas and router queues never bind,
/// 2 000 Poisson arrivals at 0.7 load of 1-4-processor jobs (10 %
/// resizable) and `wide_permille` static 34-processor jobs per thousand that
/// fit no shard and must borrow.
fn tiny_stream(shards: usize, wide_permille: u64, seed: u64) -> FedSimConfig {
    const TENANTS: u64 = 8;
    let wide_procs = TINY_SHARD_PROCS + 2;
    let mean_gap = tiny_mean_gap(shards, wide_permille);

    let mut rng = SplitMix64::new(seed);
    let mut arrival = 0.0;
    let jobs = (0..TINY_JOBS)
        .map(|i| {
            let is_wide = rng.next_u64() % 1000 < wide_permille;
            let tenant = (rng.next_u64() % TENANTS) as u32;
            let resizable = rng.next_u64() % 100 < 10;
            let (procs, iterations) = if is_wide {
                (wide_procs, 4 + (rng.next_u64() % 2) as usize)
            } else {
                (
                    1 + (rng.next_u64() % 4) as usize,
                    1 + (rng.next_u64() % 5) as usize,
                )
            };
            let iter_time = rng.f64_range(20.0, 100.0);
            let spec = any_count(format!("j{i}"), procs, iterations);
            let job = FedJob {
                tenant,
                spec: if resizable && !is_wide {
                    spec
                } else {
                    spec.static_job()
                },
                arrival,
                work: iter_time * procs as f64,
                fail_at: None,
                cancel_at: None,
            };
            arrival += -mean_gap * rng.f64_range(0.0, 1.0).max(1e-12).ln();
            job
        })
        .collect();
    let tenant = TenantConfig::new(shards * TINY_SHARD_PROCS, 1.0, 1 << 20);
    FedSimConfig::new(
        vec![TINY_SHARD_PROCS; shards],
        vec![tenant; TENANTS as usize],
        jobs,
    )
}

/// The `fed-steady` benchmark's tiny shape, 1 % wide jobs, on `shards`
/// shards (the benchmark's is 16).
fn steady_tiny(shards: usize, seed: u64, bus_latency: Option<f64>) -> FedSimConfig {
    let mut cfg = tiny_stream(shards, 10, seed);
    if let Some(latency) = bus_latency {
        cfg.bus.latency = latency;
    }
    cfg
}

/// The `fed-recover` benchmark's tiny shape: 4 shards, no wide jobs, bus
/// latency 0, 8 shard kills of 10 s evenly spaced in transition count (a
/// job makes about four transitions) and 2 half/half partitions of 40 s
/// evenly spaced over the expected makespan.
fn recover_tiny(seed: u64) -> FedSimConfig {
    const SHARDS: usize = 4;
    const KILLS: u64 = 8;
    const PARTITIONS: usize = 2;
    let mut cfg = tiny_stream(SHARDS, 0, seed);
    cfg.bus.latency = 0.0;
    let transitions = 4 * TINY_JOBS as u64;
    cfg.kills = (0..KILLS)
        .map(|k| KillPlan {
            at_transition: (k + 1) * transitions / (KILLS + 1),
            shard: k as usize % SHARDS,
            down_for: 10.0,
        })
        .collect();
    let makespan = TINY_JOBS as f64 * tiny_mean_gap(SHARDS, 0);
    let half = SHARDS / 2;
    cfg.partitions = (0..PARTITIONS)
        .map(|p| {
            let t_start = (p as f64 + 0.5) * makespan / PARTITIONS as f64;
            PartitionPlan {
                groups: vec![(0..half).collect(), (half..SHARDS).collect()],
                t_start,
                t_heal: t_start + 40.0,
            }
        })
        .collect();
    cfg
}

/// Simultaneous events, by construction: static jobs whose iterations take
/// whole seconds arrive at whole seconds, listed out of arrival order with
/// several sharing an instant, so check-ins land on arrival times; a shard
/// killed early comes back at a whole second on which jobs also arrive.
fn tie_order() -> FedSimConfig {
    // (arrival, tenant, procs, iterations, seconds per iteration)
    let plan: [(f64, u32, usize, usize, f64); 16] = [
        (4.0, 0, 2, 3, 2.0),
        (0.0, 1, 2, 3, 2.0),
        (2.0, 0, 1, 2, 2.0),
        (0.0, 0, 4, 2, 2.0),
        (2.0, 1, 3, 3, 2.0),
        (4.0, 1, 2, 2, 1.0),
        (1.0, 0, 6, 2, 2.0),
        (6.0, 1, 1, 1, 2.0),
        (4.0, 0, 1, 3, 1.0),
        (8.0, 1, 2, 2, 2.0),
        (6.0, 0, 2, 2, 2.0),
        (2.0, 1, 1, 3, 1.0),
        (8.0, 0, 3, 2, 2.0),
        (0.0, 1, 1, 4, 2.0),
        (6.0, 1, 4, 1, 2.0),
        (10.0, 0, 2, 2, 2.0),
    ];
    let jobs = plan
        .iter()
        .enumerate()
        .map(|(i, &(arrival, tenant, procs, iterations, secs))| FedJob {
            tenant,
            spec: any_count(format!("t{i}"), procs, iterations).static_job(),
            arrival,
            work: secs * procs as f64,
            fail_at: (i == 10).then_some(1),
            cancel_at: (i == 11).then_some(2),
        })
        .collect();
    let tenants = vec![TenantConfig::new(12, 1.0, 8), TenantConfig::new(12, 2.0, 8)];
    let mut cfg = FedSimConfig::new(vec![4, 4, 4], tenants, jobs);
    cfg.kills = vec![KillPlan {
        at_transition: 6,
        shard: 1,
        down_for: 4.0,
    }];
    cfg
}

fn runs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for seed in 0..256u64 {
        out.push((
            format!("fed-seed-{seed}"),
            digest(generate_federation(seed)).1,
        ));
    }
    for seed in 0..256u64 {
        out.push((
            format!("part-seed-{seed}"),
            digest(generate_partition(seed)).1,
        ));
    }
    let (steady, d) = digest(steady_tiny(16, 31337, Some(0.0)));
    assert!(
        steady.leases_granted > 0,
        "the tiny steady shape must lend: {} leases",
        steady.leases_granted
    );
    out.push(("steady-tiny-bus-0".to_string(), d));
    out.push((
        "steady-tiny-bus-default".to_string(),
        digest(steady_tiny(16, 31337, None)).1,
    ));
    for shards in [256, 1024] {
        let (wide, d) = digest(steady_tiny(shards, 31337, Some(0.0)));
        assert_eq!(
            wide.finished, TINY_JOBS as u64,
            "every job of the {shards}-shard steady shape must finish"
        );
        assert!(
            wide.leases_granted > 0,
            "the {shards}-shard steady shape must lend"
        );
        out.push((format!("steady-tiny-{shards}-bus-0"), d));
    }
    let (recover, d) = digest(recover_tiny(31337));
    assert_eq!(
        recover.shard_recoveries, 8,
        "every scripted kill must recover"
    );
    assert!(
        recover.recoveries_matched,
        "every recovery must replay to the crash image"
    );
    out.push(("recover-tiny-bus-0".to_string(), d));
    let (ties, d) = digest(tie_order());
    assert_eq!(ties.submitted, 16);
    assert_eq!(ties.shard_kills, 1, "the scripted kill must fire");
    out.push(("tie-order".to_string(), d));
    out
}

fn recorded() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(SNAPSHOT_PATH)
        .unwrap_or_else(|e| panic!("cannot read {SNAPSHOT_PATH}: {e}"));
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, hash) = l.rsplit_once(' ').expect("snapshot line: <label> <digest>");
            (label.to_string(), hash.to_string())
        })
        .collect()
}

#[test]
fn federation_runs_match_recorded_digests() {
    let runs = runs();
    if std::env::var("RESHAPE_BLESS").is_ok() {
        let mut out = String::from(
            "# FNV-1a digests of each federation run's FedReport, shard WALs and flight\n\
             # recorder; re-record with\n\
             # RESHAPE_BLESS=1 cargo test -p reshape-testkit --test federation_pins\n",
        );
        for (label, d) in &runs {
            out.push_str(&format!("{label} {d}\n"));
        }
        std::fs::write(SNAPSHOT_PATH, out).expect("write snapshot file");
        panic!("snapshots re-recorded at {SNAPSHOT_PATH}; inspect the diff and commit");
    }
    let want = recorded();
    assert_eq!(want.len(), runs.len(), "snapshot count mismatch");
    let diverged: Vec<String> = runs
        .iter()
        .filter(|(label, got)| want.get(label) != Some(got))
        .map(|(label, got)| format!("{label}: recorded {:?}, got {got}", want.get(label)))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} runs diverged from recorded digests:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

/// The federation prunes every shard it touches, so once the steady stream
/// drains, each shard core holds records and profiles for its queued and
/// running jobs only, not for its history; and every recovery of the
/// `fed-recover` shape still replays to its crash image.
#[test]
fn shards_hold_only_live_jobs() {
    let (steady, fed) = run_with_fed(steady_tiny(16, 31337, Some(0.0)), |_, _| {});
    assert_eq!(steady.finished, TINY_JOBS as u64);
    for sh in fed.shards() {
        let core = sh.core().expect("the steady shape kills no shard");
        let live = core.jobs().filter(|(_, r)| r.state.is_active()).count();
        let records = core.jobs().count();
        let profiles = core.profiler().profiles().count();
        assert!(
            records <= live && profiles <= live,
            "shard {}: {records} records and {profiles} profiles for {live} queued or \
             running jobs",
            sh.id()
        );
    }

    let (recover, fed) = run_with_fed(recover_tiny(31337), |_, _| {});
    let matched = fed
        .flightrec()
        .dump_jsonl()
        .matches("snapshot_match=true")
        .count();
    assert_eq!((recover.shard_recoveries, matched), (8, 8));
}
