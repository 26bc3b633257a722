//! Federation runs whose shards compact their WALs, pinned.
//!
//! The shapes are the benchmark's tiny federation streams grown until the
//! shards append past the compaction floor: `fed-steady`'s on 16 shards of
//! 32 with 12 000 jobs (1 % wide jobs, so leases are live across
//! compactions; on 4 shards wide queue heads wedge the federation), and
//! `fed-recover`'s on 4 shards with 8 000 jobs and 8 shard kills, so
//! recoveries replay compacted WALs. Each run is digested
//! as `federation_pins.rs` digests one — the `FedReport`'s `Debug`, every
//! shard's final WAL text, the flight-recorder JSONL — into
//! `tests/snapshots/compaction_runs.txt`.
//!
//! The final shard WALs of both runs that were compacted, each a genesis
//! line, a checkpoint and a suffix, are then recovered damaged: `recover_salvage` must agree
//! with `decode_salvage` + `recover` on every form, damage to the
//! checkpoint line must be refused, and damage to the suffix must salvage
//! to the records before it.
//!
//! To re-record after an *intentional* behaviour change:
//!
//! ```text
//! RESHAPE_BLESS=1 cargo test -p reshape-testkit --test compaction_pins
//! ```

use std::collections::BTreeMap;

use reshape_core::{JobSpec, ProcessorConfig, SchedulerCore, TopologyPref, Wal, WalSalvage};
use reshape_federation::sim::{
    run_with_fed, FedJob, FedReport, FedSimConfig, KillPlan, SloSamples,
};
use reshape_federation::{Federation, TenantConfig};
use reshape_testkit::SplitMix64;

const SNAPSHOT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/snapshots/compaction_runs.txt"
);

const SHARD_PROCS: usize = 32;

fn fnv1a(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The benchmark's federation stream on `shards` shards of 32 processors: 8
/// tenants whose quotas and router queues never bind, `jobs` Poisson
/// arrivals at 0.7 load of 1-4-processor jobs (10 % resizable) and
/// `wide_permille` static 34-processor jobs per thousand, which fit no
/// shard and must borrow. Bus latency 0, as the benchmark runs it.
fn stream(shards: usize, jobs: usize, wide_permille: u64, seed: u64) -> FedSimConfig {
    const TENANTS: u64 = 8;
    let wide_procs = SHARD_PROCS + 2;
    let wide = wide_permille as f64 / 1000.0;
    let cpu_s = (1.0 - wide) * 2.5 * 3.0 * 60.0 + wide * wide_procs as f64 * 4.5 * 60.0;
    let mean_gap = cpu_s / (0.7 * (shards * SHARD_PROCS) as f64);

    let mut rng = SplitMix64::new(seed);
    let mut arrival = 0.0;
    let jobs = (0..jobs)
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
            let spec = JobSpec::new(
                format!("j{i}"),
                TopologyPref::AnyCount {
                    min: 1,
                    max: 64,
                    step: 1,
                },
                ProcessorConfig::linear(procs),
                iterations,
            );
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
    let tenant = TenantConfig::new(shards * SHARD_PROCS, 1.0, 1 << 20);
    let mut cfg = FedSimConfig::new(
        vec![SHARD_PROCS; shards],
        vec![tenant; TENANTS as usize],
        jobs,
    );
    cfg.bus.latency = 0.0;
    cfg
}

/// `fed-recover`'s shape grown to 8 000 jobs: 4 shards, no wide jobs, 8
/// shard kills of 10 s evenly spaced in transition count.
fn recovering(seed: u64) -> FedSimConfig {
    const SHARDS: usize = 4;
    const JOBS: u64 = 8_000;
    const KILLS: u64 = 8;
    let mut cfg = stream(SHARDS, JOBS as usize, 0, seed);
    let transitions = 4 * JOBS;
    cfg.kills = (0..KILLS)
        .map(|k| KillPlan {
            at_transition: (k + 1) * transitions / (KILLS + 1),
            shard: k as usize % SHARDS,
            down_for: 10.0,
        })
        .collect();
    cfg
}

/// Whether `text`'s second line is a checkpoint.
fn compacted(text: &str) -> bool {
    text.lines()
        .nth(1)
        .is_some_and(|l| l.get(9..).is_some_and(|p| p.starts_with("ckpt ")))
}

/// Run `cfg`; its report (with the SLO series its hook recorded),
/// federation, digest, and how many shard kills left a compacted WAL to
/// replay.
fn run(cfg: FedSimConfig) -> (FedReport, Federation, String, usize) {
    let mut down = vec![false; cfg.shard_procs.len()];
    let mut compacted_kills = 0;
    let mut samples = SloSamples::default();
    let (mut report, fed) = run_with_fed(cfg, |fed, t| {
        samples.record(fed, t);
        for (sh, was_down) in fed.shards().iter().zip(down.iter_mut()) {
            if let (Some(text), false) = (sh.down_wal(), *was_down) {
                compacted_kills += usize::from(compacted(text));
            }
            *was_down = !sh.is_live();
        }
    });
    report.slo.samples = samples;
    let mut out = format!("{report:?}\n");
    for wal in final_wals(&fed) {
        out.push_str(&wal);
        out.push('\n');
    }
    out.push_str(&fed.flightrec().dump_jsonl());
    let digest = fnv1a(&out);
    (report, fed, digest, compacted_kills)
}

fn final_wals(fed: &Federation) -> Vec<String> {
    fed.shards()
        .iter()
        .map(|sh| {
            sh.core()
                .and_then(|c| c.wal())
                .map(|w| w.encode())
                .unwrap_or_else(|| sh.down_wal().unwrap_or_default().to_string())
        })
        .collect()
}

/// The digests, and the final shard WALs that were compacted.
fn runs() -> (Vec<(String, String)>, Vec<String>) {
    let (steady, fed, d, _) = run(stream(16, 12_000, 10, 31337));
    assert_eq!(
        steady.finished, 12_000,
        "steady: {} finished",
        steady.finished
    );
    assert!(steady.leases_granted > 0, "the steady shape must lend");
    let mut wals = final_wals(&fed);
    let mut out = vec![("steady-16x32-12000".to_string(), d)];

    let (recover, fed, d, compacted_kills) = run(recovering(31337));
    // Three jobs are evict-failed at lease expiry here with or without
    // compaction: the over-grant of ROADMAP's standing defect 1.
    assert_eq!(
        (recover.finished, recover.evict_failed),
        (7_997, 3),
        "recover: every job accounted for"
    );
    assert_eq!(
        recover.shard_recoveries, 8,
        "every scripted kill must recover"
    );
    assert!(
        recover.recoveries_matched,
        "every recovery must replay to the crash image"
    );
    assert!(compacted_kills > 0, "no recovery replayed a compacted WAL");
    wals.extend(final_wals(&fed));
    out.push(("recover-4x32-8000".to_string(), d));

    wals.retain(|w| compacted(w));
    assert!(wals.len() >= 8, "only {} shards end compacted", wals.len());
    (out, wals)
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

type Outcome = Result<(String, String, Option<WalSalvage>), String>;

fn rendered(core: SchedulerCore, salvage: Option<WalSalvage>) -> Outcome {
    let wal = core.wal().expect("recovery keeps the WAL").encode();
    Ok((format!("{:?}", core.snapshot()), wal, salvage))
}

fn two_step(text: &str) -> Outcome {
    let (wal, salvage) = Wal::decode_salvage(text);
    let core = SchedulerCore::recover(wal).map_err(|e| e.to_string())?;
    rendered(core, salvage)
}

fn one_pass(text: &str) -> Outcome {
    let (core, salvage) = SchedulerCore::recover_salvage(text).map_err(|e| e.to_string())?;
    rendered(core, salvage)
}

fn flipped(text: &str, pos: usize) -> String {
    let mut b = text.as_bytes().to_vec();
    b[pos] ^= 0x01;
    String::from_utf8_lossy(&b).into_owned()
}

#[test]
fn compacting_runs_match_recorded_digests() {
    let (runs, wals) = runs();
    if std::env::var("RESHAPE_BLESS").is_ok() {
        let mut out = String::from(
            "# FNV-1a digests of federation runs whose shards compact their WALs;\n\
             # re-record with\n\
             # RESHAPE_BLESS=1 cargo test -p reshape-testkit --test compaction_pins\n",
        );
        for (label, d) in &runs {
            out.push_str(&format!("{label} {d}\n"));
        }
        std::fs::write(SNAPSHOT_PATH, out).expect("write snapshot file");
        panic!("snapshots re-recorded at {SNAPSHOT_PATH}; inspect the diff and commit");
    }
    assert_eq!(recorded(), runs.into_iter().collect(), "digests moved");

    let (mut refused, mut salvaged) = (0, 0);
    for (i, text) in wals.iter().enumerate() {
        let genesis = text.find('\n').expect("a genesis line") + 1;
        let ckpt_end = genesis + text[genesis..].find('\n').expect("a checkpoint line") + 1;
        // Inside the checkpoint: past its checksum and tag, and at its end.
        let in_ckpt = [genesis + 15, (genesis + ckpt_end) / 2, ckpt_end - 2];
        let mut forms: Vec<(String, bool)> = Vec::new();
        for pos in in_ckpt {
            forms.push((flipped(text, pos), true));
            forms.push((text[..pos].to_string(), true));
        }
        for k in 1..=8 {
            let pos = ckpt_end + (text.len() - ckpt_end) * k / 9;
            forms.push((flipped(text, pos), false));
            forms.push((text[..pos].to_string(), false));
        }
        forms.push((text.clone(), false));
        for (form, in_checkpoint) in forms {
            let want = two_step(&form);
            assert!(
                one_pass(&form) == want,
                "WAL {i}: one-pass recovery differs on {} bytes",
                form.len()
            );
            match &want {
                Err(e) => {
                    assert!(in_checkpoint, "WAL {i}: suffix damage refused: {e}");
                    refused += 1;
                }
                Ok((_, wal, salvage)) => {
                    assert!(!in_checkpoint, "WAL {i}: a damaged checkpoint recovered");
                    assert!(compacted(wal), "WAL {i}: the checkpoint was salvaged away");
                    salvaged += usize::from(salvage.is_some());
                }
            }
        }
    }
    assert!(
        refused > 0 && salvaged > 0,
        "{refused} refused, {salvaged} salvaged"
    );
}
