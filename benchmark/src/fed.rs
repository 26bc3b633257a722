//! `fed-steady` and `fed-recover`: `federation::sim::run` over a job stream
//! from the benchmark's own generator.
//!
//! Two parameters differ from the federation's defaults so that every job
//! finishes (the accepting contract asks for workloads on which no
//! operation fails):
//!
//! * Bus latency is 0. At the default 0.05 s a second transition inside the
//!   delivery window re-triggers `maybe_lend`, a wide job is granted two or
//!   three leases, narrow jobs land on the surplus processors and fail at
//!   lease expiry (66 of 200 000 on seed 31337).
//! * `fed-recover` has no wide jobs. With leases in flight, partitions
//!   re-grant dropped leases (jobs on the duplicate fail at expiry) and on
//!   16 shards one seed in twelve wedged behind wide queue heads with no
//!   eligible lender. Its partitions therefore exercise the partition
//!   timers and the digest exchange over empty ledgers only.
//!
//! Wide jobs run 4-5 iterations (>= 80 s), longer than the 60 s lease term,
//! so each holds its borrowed processors until it is force-shrunk off them
//! at expiry and no other job ever runs on borrowed processors alone.

use std::hint::black_box;

use reshape_core::{JobSpec, ProcessorConfig, SchedulerCore, TopologyPref, Wal, WalRecord};
use reshape_federation::sim::{
    run, run_with_fed, FedJob, FedReport, FedSimConfig, KillPlan, PartitionPlan,
};
use reshape_federation::{Federation, FederationConfig, TenantConfig};

use crate::harness::{measure, repo_trace_tax, time, Checks, Identities, Opts, Outcome, Rep};
use crate::metrics::Ledger;
use crate::rng::SplitMix64;
use crate::spans::{Tracer, ROOT};
use crate::stats;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Steady,
    Recover,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Steady => "fed-steady",
            Kind::Recover => "fed-recover",
        }
    }
}

/// Offered load the arrival gaps are paced to.
const LOAD: f64 = 0.7;
/// Virtual seconds a killed shard stays down.
const DOWN_FOR: f64 = 10.0;
/// Virtual seconds a partition lasts.
const PARTITION_FOR: f64 = 40.0;

#[derive(Clone, Copy)]
struct Shape {
    shards: usize,
    shard_procs: usize,
    tenants: u32,
    jobs: usize,
    /// Wide jobs per thousand: `shard_procs + 2` processors, fit no shard.
    wide_permille: u64,
    kills: usize,
    partitions: usize,
}

impl Shape {
    fn of(kind: Kind, tiny: bool) -> Shape {
        match (kind, tiny) {
            (Kind::Steady, false) => Shape {
                shards: 64,
                shard_procs: 32,
                tenants: 8,
                jobs: 200_000,
                wide_permille: 10,
                kills: 0,
                partitions: 0,
            },
            // Sixteen shards, not four: behind a few wide queue heads a
            // small federation finds no eligible lender and wedges.
            (Kind::Steady, true) => Shape {
                shards: 16,
                jobs: 2_000,
                ..Shape::of(Kind::Steady, false)
            },
            (Kind::Recover, false) => Shape {
                shards: 16,
                shard_procs: 32,
                tenants: 8,
                jobs: 50_000,
                wide_permille: 0,
                kills: 100,
                partitions: 10,
            },
            (Kind::Recover, true) => Shape {
                shards: 4,
                jobs: 2_000,
                kills: 8,
                partitions: 2,
                ..Shape::of(Kind::Recover, false)
            },
        }
    }

    /// The first tenth of the stream, with a tenth of the faults: warm-up
    /// and tracing-tax size.
    fn tenth(&self) -> Shape {
        Shape {
            jobs: self.jobs / 10,
            kills: self.kills / 10,
            partitions: self.partitions / 10,
            ..*self
        }
    }

    fn total_procs(&self) -> usize {
        self.shards * self.shard_procs
    }

    fn wide_procs(&self) -> usize {
        self.shard_procs + 2
    }

    /// Mean arrival gap that offers [`LOAD`] of the federation's
    /// cpu-seconds: narrow jobs average 2.5 procs x 3 iterations x 60 s,
    /// wide ones `wide_procs` x 4.5 x 60 s.
    fn mean_gap(&self) -> f64 {
        let wide = self.wide_permille as f64 / 1000.0;
        let cpu_s = (1.0 - wide) * 2.5 * 3.0 * 60.0 + wide * self.wide_procs() as f64 * 4.5 * 60.0;
        cpu_s / (LOAD * self.total_procs() as f64)
    }
}

/// The seeded Poisson job stream: narrow jobs of 1-4 processors and 1-5
/// iterations of 20-100 s (10 % resizable, as in `run_scale`), and
/// `wide_permille` static wide jobs of 4-5 iterations.
fn job_stream(shape: &Shape, seed: u64) -> Vec<FedJob> {
    let mut rng = SplitMix64::new(seed);
    let mean_gap = shape.mean_gap();
    let mut arrival = 0.0;
    (0..shape.jobs)
        .map(|i| {
            let wide = rng.below(1000) < shape.wide_permille;
            let tenant = rng.below(shape.tenants as u64) as u32;
            let resizable = rng.below(100) < 10;
            let (procs, iterations) = if wide {
                (shape.wide_procs(), 4 + rng.below(2) as usize)
            } else {
                (1 + rng.below(4) as usize, 1 + rng.below(5) as usize)
            };
            let iter_time = rng.range_f64(20.0, 100.0);
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
                spec: if resizable && !wide {
                    spec
                } else {
                    spec.static_job()
                },
                arrival,
                work: iter_time * procs as f64,
                fail_at: None,
                cancel_at: None,
            };
            arrival += -mean_gap * rng.next_f64().max(1e-12).ln();
            job
        })
        .collect()
}

fn sim_config(shape: &Shape, jobs: Vec<FedJob>, faults: bool) -> FedSimConfig {
    // Quotas and router queues never bind: every submission is admitted.
    let tenant = TenantConfig::new(shape.total_procs(), 1.0, 1 << 20);
    let tenants = vec![tenant; shape.tenants as usize];
    let mut cfg = FedSimConfig::new(vec![shape.shard_procs; shape.shards], tenants, jobs);
    cfg.bus.latency = 0.0;
    if faults {
        // Kills evenly spaced in transition count (a job makes about four:
        // one submit and a mean of three check-ins), partitions evenly
        // spaced over the expected makespan.
        let transitions = 4 * shape.jobs as u64;
        cfg.kills = (0..shape.kills)
            .map(|k| KillPlan {
                at_transition: (k as u64 + 1) * transitions / (shape.kills as u64 + 1),
                shard: k % shape.shards,
                down_for: DOWN_FOR,
            })
            .collect();
        let makespan = shape.jobs as f64 * shape.mean_gap();
        let half = shape.shards / 2;
        cfg.partitions = (0..shape.partitions)
            .map(|p| {
                let t_start = (p as f64 + 0.5) * makespan / shape.partitions as f64;
                PartitionPlan {
                    groups: vec![(0..half).collect(), (half..shape.shards).collect()],
                    t_start,
                    t_heal: t_start + PARTITION_FOR,
                }
            })
            .collect();
    }
    cfg
}

fn verify(kind: Kind, shape: &Shape, r: &FedReport, checks: &mut Checks) {
    checks.add(
        "every job submitted",
        r.submitted == shape.jobs as u64,
        format!("{} of {}", r.submitted, shape.jobs),
    );
    let accounted = r.finished + r.failed + r.cancelled + r.evict_failed + r.shed;
    checks.add(
        "every job accounted for",
        accounted == r.submitted,
        format!(
            "{} finished + {} evict-failed + {} shed + {} failed + {} cancelled of {}",
            r.finished, r.evict_failed, r.shed, r.failed, r.cancelled, r.submitted
        ),
    );
    checks.add(
        "recoveries replay to the crash snapshot",
        r.recoveries_matched && r.shard_recoveries == shape.kills as u64,
        format!("{} recoveries of {} kills", r.shard_recoveries, shape.kills),
    );
    match kind {
        Kind::Steady => checks.add(
            "wide jobs force leases",
            r.leases_granted > 0 && r.leases_granted == r.leases_reclaimed,
            format!(
                "{} granted, {} reclaimed",
                r.leases_granted, r.leases_reclaimed
            ),
        ),
        Kind::Recover => checks.add(
            "partitions heal",
            r.partitions_healed == shape.partitions as u64,
            format!("{} of {}", r.partitions_healed, shape.partitions),
        ),
    }
}

pub fn run_workload(kind: Kind, opts: &Opts) -> Outcome {
    let shape = Shape::of(kind, opts.tiny);
    let faults = kind == Kind::Recover;
    Outcome::of(
        kind.name(),
        shape.jobs as u64,
        opts,
        |tr, checks| traced(kind, &shape, opts, tr, checks),
        |checks| {
            measure(
                opts,
                checks,
                || {
                    // Set-up: generate the stream, warm up on its first tenth.
                    let jobs = job_stream(&shape, opts.seed);
                    let warm = shape.tenth();
                    black_box(run(sim_config(&warm, jobs[..warm.jobs].to_vec(), faults)));
                    sim_config(&shape, jobs, faults)
                },
                |cfg, checks| {
                    let input = cfg.clone();
                    let (wall_s, r) = time(|| run(input));
                    verify(kind, &shape, &r, checks);
                    Rep {
                        wall_s,
                        submitted: r.submitted,
                        finished: r.finished,
                        virtual_s: r.makespan,
                        virtual_tolerance: 0.0,
                        signature: vec![r.transitions, r.leases_granted, r.shard_recoveries],
                    }
                },
            )
        },
    )
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

fn traced(
    kind: Kind,
    shape: &Shape,
    opts: &Opts,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (Ledger, Identities) {
    let mut l = Ledger::new();
    let faults = kind == Kind::Recover;
    let jobs = job_stream(shape, opts.seed);
    let cfg = sim_config(shape, jobs.clone(), faults);

    // Warm up on the stream's first tenth, then the untraced reference.
    let small = sim_config(&shape.tenth(), jobs[..shape.jobs / 10].to_vec(), false);
    black_box(run(small.clone()));
    let input = cfg.clone();
    let (wall_u, mut r) = time(|| run(input));
    verify(kind, shape, &r, checks);
    // The SLO series is hundreds of MiB: keep its sizes, not its samples,
    // so the traced run does not page against the untraced run's output.
    l.set("fed.slo_samples", r.slo.samples.len() as f64);
    let waits: Vec<f64> = r.slo.admits.iter().map(|&(_, _, w)| w).collect();
    l.set(
        "router.admit_wait_virtual_p99_s",
        stats::percentile(&waits, 0.99),
    );
    drop(waits);
    r.slo = Default::default();

    // Traced: the per-event hook stamps the wall gap between consecutive
    // simulation events, and notes how much WAL each kill leaves to replay.
    let event = tr.name("fed.event");
    let mut last_ns = tr.now_ns();
    let mut down = vec![false; shape.shards];
    let mut replayed_bytes = 0usize;
    let input = cfg.clone();
    let (wall_t, (rt, fed)) = time(|| {
        run_with_fed(input, |fed, _| {
            for (s, was_down) in fed.shards().iter().zip(down.iter_mut()) {
                if let (Some(text), false) = (s.down_wal(), *was_down) {
                    replayed_bytes += text.len();
                }
                *was_down = !s.is_live();
            }
            let now_ns = tr.now_ns();
            tr.record(event, ROOT, last_ns, now_ns);
            last_ns = now_ns;
        })
    });
    checks.add(
        "traced run repeats the untraced one",
        rt.makespan.to_bits() == r.makespan.to_bits() && rt.transitions == r.transitions,
        format!("makespan {} vs {}", rt.makespan, r.makespan),
    );

    l.set("fed.transitions", r.transitions as f64);
    l.set("fed.us_per_transition", wall_u * 1e6 / r.transitions as f64);
    l.set("fed.event_p50_us", tr.percentile_ns(event, 0.50) / 1e3);
    l.set("fed.event_p99_us", tr.percentile_ns(event, 0.99) / 1e3);
    l.set("router.queued", r.router_queued as f64);
    l.set("router.shed", r.shed as f64);
    l.set("lease.granted", r.leases_granted as f64);
    l.set("lease.reclaimed", r.leases_reclaimed as f64);
    l.set("lease.fenced", r.leases_fenced as f64);
    l.set("bus.partition_drops", fed.partition_drops() as f64);
    l.set("heal.repairs", r.heal_repairs as f64);
    l.set("recover.count", r.shard_recoveries as f64);
    l.set("trace.overhead_ratio", wall_t / wall_u);

    // core::wal, on shard 0's complete WAL.
    let wal_text = fed.shards()[0]
        .core()
        .and_then(SchedulerCore::wal)
        .map(Wal::encode)
        .expect("shard 0 ends the run live and journaling");
    drop(fed);
    let (decode_s, wal) = time(|| Wal::decode(&wal_text).expect("a live shard's WAL decodes"));
    let records = wal.len();
    let owned: Vec<WalRecord> = wal.records().to_vec();
    let (append_s, appended) = time(|| {
        let mut w = Wal::in_memory();
        for rec in owned {
            w.append(rec);
        }
        w
    });
    drop(appended);
    let (replay_s, core) =
        time(|| SchedulerCore::recover(wal).expect("a live shard's WAL replays"));
    // A kill also encodes the WAL and snapshots the core; the recovery
    // clones that snapshot and takes another to compare it with.
    let (encode_s, encoded) = time(|| core.wal().map(Wal::encode));
    let (snapshot_s, snapshot) = time(|| {
        let crash = core.snapshot();
        let same = crash.clone() == core.snapshot();
        (crash, same)
    });
    checks.add(
        "replayed WAL re-encodes to the same text",
        encoded.as_deref() == Some(wal_text.as_str()),
        format!("{records} records"),
    );
    drop((snapshot, core));
    let per_record = |secs: f64| secs * 1e9 / records as f64;
    l.set("wal.records", records as f64);
    l.set(
        "wal.bytes_per_record",
        wal_text.len() as f64 / records as f64,
    );
    l.set("wal.append_ns", per_record(append_s));
    l.set("wal.decode_ns_per_record", per_record(decode_s));
    l.set("wal.replay_ns_per_record", per_record(replay_s));
    l.set("wal.encode_ns_per_record", per_record(encode_s));
    l.set("recover.snapshot_ms", snapshot_s * 1e3);

    l.set("router.admit_ns", probe_router_admit(shape, &jobs));
    l.set("lease.cycle_us", probe_lease_cycle(shape));

    // Repo tracing tax on the fault-free first tenth of the stream.
    repo_trace_tax(&mut l, || {
        black_box(run(small.clone()));
    });

    // The same stream without faults prices one recovery; the WAL probes
    // predict that price from the bytes each kill left to replay.
    let mut identities = Vec::new();
    if faults && r.shard_recoveries > 0 {
        let input = sim_config(shape, jobs, false);
        let (wall_nf, _) = time(|| run(input));
        let each_ms = (wall_u - wall_nf) * 1e3 / r.shard_recoveries as f64;
        l.set("recover.differential_ms_each", each_ms);
        // Everything a kill and its recovery do grows with the history
        // replayed: scale the full-history probes by the bytes each kill
        // left behind.
        let replayed_records = replayed_bytes as f64 / l.get("wal.bytes_per_record");
        let wal_ns = l.get("wal.encode_ns_per_record")
            + l.get("wal.decode_ns_per_record")
            + l.get("wal.replay_ns_per_record");
        let snapshots_ms =
            l.get("recover.snapshot_ms") * replayed_bytes as f64 / wal_text.len() as f64;
        identities.push((
            "recover.count x differential_ms_each = records replayed x (encode + decode + replay) + snapshot work"
                .to_string(),
            (wall_u - wall_nf) * 1e3,
            replayed_records * wal_ns / 1e6 + snapshots_ms,
        ));
    }

    (l, identities)
}

/// `Federation::submit`, ns per call, over 20 000 submissions of the
/// stream. Nothing finishes inside the probe, so each fresh federation
/// takes only as many jobs as fill it to the workload's load: the admits
/// measured are the ones `fed-steady` makes (idle processors, empty
/// queues), not admits into a saturated federation.
fn probe_router_admit(shape: &Shape, jobs: &[FedJob]) -> f64 {
    let chunk = ((LOAD * shape.total_procs() as f64 / 2.5) as usize).max(1);
    let total = 20_000.min(jobs.len());
    let cfg = sim_config(shape, Vec::new(), false);
    let mut secs = 0.0;
    for batch in jobs[..total].chunks(chunk) {
        let mut fcfg = FederationConfig::new(cfg.shard_procs.clone(), cfg.tenants.clone());
        fcfg.bus = cfg.bus;
        let mut fed = Federation::new(fcfg);
        let owned: Vec<(u32, JobSpec, f64)> = batch
            .iter()
            .map(|j| (j.tenant, j.spec.clone(), j.arrival))
            .collect();
        secs += time(|| {
            for (tag, (tenant, spec, arrival)) in owned.into_iter().enumerate() {
                black_box(fed.submit(tenant, tag as u64, spec, arrival));
            }
        })
        .0;
    }
    secs * 1e9 / total as f64
}

/// One full lease cycle, us: a wide job on three shards forces a lend
/// (escrowed grant, bus delivery, attach, expiry eviction, release,
/// reclaim); timers are pumped to quiescence.
fn probe_lease_cycle(shape: &Shape) -> f64 {
    const CYCLES: usize = 200;
    let wide = JobSpec::new(
        "wide",
        TopologyPref::AnyCount {
            min: 1,
            max: 64,
            step: 1,
        },
        ProcessorConfig::linear(shape.wide_procs()),
        4,
    );
    let mut feds: Vec<Federation> = (0..CYCLES)
        .map(|_| {
            let tenants = vec![TenantConfig::new(4 * shape.shard_procs, 1.0, 16)];
            let mut fcfg = FederationConfig::new(vec![shape.shard_procs; 3], tenants);
            fcfg.bus.latency = 0.0;
            Federation::new(fcfg)
        })
        .collect();
    let (secs, _) = time(|| {
        for fed in &mut feds {
            fed.submit(0, 0, wide.clone(), 0.0);
            while let Some(t) = fed.next_timer() {
                fed.run_timers(t);
                if fed.quiesced() {
                    break;
                }
            }
            assert_eq!(fed.live_leases(), 0, "the cycle resolves its lease");
        }
    });
    assert!(feds.iter().all(|f| f.leases().count() >= 1));
    secs * 1e6 / CYCLES as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over every generated field: the stream's identity for the
    /// determinism test.
    fn stream_hash(jobs: &[FedJob]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for j in jobs {
            eat(j.tenant as u64);
            eat(j.spec.initial.procs() as u64);
            eat(j.spec.iterations as u64);
            eat(j.spec.resizable as u64);
            eat(j.arrival.to_bits());
            eat(j.work.to_bits());
        }
        h
    }

    #[test]
    fn same_seed_gives_the_same_stream() {
        for kind in [Kind::Steady, Kind::Recover] {
            let shape = Shape::of(kind, true);
            let a = stream_hash(&job_stream(&shape, 31337));
            assert_eq!(a, stream_hash(&job_stream(&shape, 31337)));
            assert_ne!(a, stream_hash(&job_stream(&shape, 424242)));
        }
    }

    #[test]
    fn stream_is_paced_and_wide_jobs_outlast_the_lease() {
        let shape = Shape::of(Kind::Steady, false);
        let jobs = job_stream(&shape, 7);
        assert_eq!(jobs.len(), shape.jobs);
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let wide: Vec<&FedJob> = jobs
            .iter()
            .filter(|j| j.spec.initial.procs() > shape.shard_procs)
            .collect();
        assert!(wide.len() > shape.jobs / 200 && wide.len() < shape.jobs / 50);
        let term = reshape_federation::LeaseConfig::default().term;
        for j in wide {
            let duration = j.spec.iterations as f64 * j.work / j.spec.initial.procs() as f64;
            assert!(duration > term && !j.spec.resizable);
        }
    }
}
