//! Federation chaos drills: seeded multi-shard, multi-tenant workloads
//! with shard kills, lease expiries and wire chaos, checked after every
//! transition by a *global ledger oracle*.
//!
//! The ledger invariant the sweep enforces, at every instant of every run:
//!
//! * every federation-global processor is owned by **exactly one**
//!   authority — its native shard (if not lent away), or the borrower that
//!   attached it under a live lease — or it sits in escrow under exactly
//!   one unreclaimed lease (granted but not attached, released but not yet
//!   reclaimed, or held by a doomed down borrower);
//! * no processor is ever claimed by two shards, where a shard's claim is
//!   judged from its *authoritative* state: the live core if it is up, the
//!   dead core frozen at its crash if it is down (a down borrower whose
//!   lease has expired is doomed — the recovery fixup evicts before its
//!   core can run again — so its claim does not count);
//! * every lease a live shard holds appears in the right write-ahead logs:
//!   the lender journaled `lend_grant`, the borrower `borrow_attach`, and
//!   — crucially — a lease attached by a borrower that the *lender* never
//!   journaled is a forged grant
//!   ([`reshape_federation::Federation::chaos_plant_double_grant`] plants
//!   exactly this, and [`run_planted_double_grant`] proves the oracle
//!   catches it);
//! * no lease is honored across an **epoch fence**: a lender's fencing
//!   epoch never regresses below a lease it minted, the borrower journals
//!   the mint epoch with its attachment, and an attachment created at or
//!   after the lender fenced the lease is a violation (the partition
//!   drills in [`crate::partition`] plant exactly that).
//!
//! On failure with `TESTKIT_FAULT_DIR` set, the generated scenario (the
//! full fault schedule) and every shard's WAL are dumped under
//! `$TESTKIT_FAULT_DIR/fed-seed-<seed>*` for offline replay.

use std::collections::{BTreeMap, BTreeSet};

use reshape_core::ctrl::ChaosConfig;
use reshape_core::{JobSpec, ProcessorConfig, QueuePolicy, SchedulerCore, TopologyPref, Wal};
use reshape_federation::sim::{run_with_fed, FedJob, FedReport, FedSimConfig, KillPlan};
use reshape_federation::{
    BrownoutConfig, BusConfig, Federation, FederationConfig, LeaseConfig, Shard, TenantConfig,
};

use crate::crashrestart::write_wal_artifact;
use crate::oracle;
use crate::rng::SplitMix64;

// ----------------------------------------------------------------------
// Scenario generation
// ----------------------------------------------------------------------

/// Generate a seeded federation scenario: 2–5 shards, 2–6 tenants with
/// quotas/weights/queue bounds, tens of jobs with fail/cancel faults, a
/// lease protocol tuned so expiries actually fire, scripted shard kills,
/// and (on half the seeds) a chaotic wire.
///
/// Every artifact derives from independent [`SplitMix64`] streams split
/// off the one seed, so adding a draw to one stream never perturbs the
/// others.
pub fn generate_federation(seed: u64) -> FedSimConfig {
    let mut topo = SplitMix64::new(seed ^ 0xFED0_0001);
    let mut ten = SplitMix64::new(seed ^ 0xFED0_0002);
    let mut jobs_rng = SplitMix64::new(seed ^ 0xFED0_0003);
    let mut fault = SplitMix64::new(seed ^ 0xFED0_0004);
    let mut wire = SplitMix64::new(seed ^ 0xFED0_0005);

    let n_shards = topo.usize_range(2, 5);
    let shard_procs: Vec<usize> = (0..n_shards).map(|_| topo.usize_range(3, 8)).collect();
    let min_shard = *shard_procs.iter().min().unwrap();
    // A job must fit some shard natively or it can starve forever; cap
    // needs at the smallest native pool (lending covers busy pools, not
    // undersized ones).
    let max_need = min_shard.min(4);

    let n_tenants = ten.usize_range(2, 6);
    let tenants: Vec<TenantConfig> = (0..n_tenants)
        .map(|_| {
            TenantConfig::new(
                ten.usize_range(6, 24),
                *ten.pick(&[0.5, 1.0, 1.0, 2.0, 4.0]),
                ten.usize_range(2, 10),
            )
        })
        .collect();

    let n_jobs = jobs_rng.usize_range(20, 60);
    let mut arrival = 0.0;
    let jobs: Vec<FedJob> = (0..n_jobs)
        .map(|i| {
            arrival += jobs_rng.f64_range(0.0, 1.2);
            let iters = jobs_rng.usize_range(1, 5);
            FedJob {
                tenant: jobs_rng.usize_range(0, n_tenants - 1) as u32,
                spec: JobSpec::new(
                    format!("fed-{seed}-{i}"),
                    TopologyPref::AnyCount {
                        min: 1,
                        max: 64,
                        step: 1,
                    },
                    ProcessorConfig::linear(jobs_rng.usize_range(1, max_need)),
                    iters,
                ),
                arrival,
                work: jobs_rng.f64_range(2.0, 8.0),
                fail_at: if jobs_rng.chance(1, 10) {
                    Some(jobs_rng.range(1, iters as u64) as u32)
                } else {
                    None
                },
                cancel_at: if jobs_rng.chance(1, 12) {
                    Some(jobs_rng.range(1, iters as u64) as u32)
                } else {
                    None
                },
            }
        })
        .collect();

    let mut cfg = FedSimConfig::new(shard_procs, tenants, jobs);
    if topo.chance(1, 3) {
        cfg.queue_policy = QueuePolicy::Backfill;
    }
    // Short terms relative to job durations so the expiry/reclaim arm
    // fires on real seeds, not only in unit tests.
    cfg.lease = LeaseConfig {
        term: fault.f64_range(6.0, 25.0),
        grace: fault.f64_range(2.0, 6.0),
        retry_backoff: fault.f64_range(1.0, 4.0),
        min_spare: fault.usize_range(0, 1),
        // Partition-free scenarios never hit the suspicion arm; the
        // partition sweep (`crate::partition`) randomizes it from its own
        // stream so these seeds stay bitwise stable.
        suspicion: 20.0,
    };
    let queue_high = fault.usize_range(4, 10);
    cfg.brownout = BrownoutConfig {
        queue_high,
        queue_low: fault.usize_range(0, queue_high.saturating_sub(2).min(3)),
        heartbeat_lag: fault.f64_range(5.0, 20.0),
    };
    cfg.bus = BusConfig {
        latency: wire.f64_range(0.01, 0.2),
        rto: wire.f64_range(0.5, 2.0),
        chaos: if wire.chance(1, 2) {
            Some(ChaosConfig {
                loss: wire.f64_range(0.0, 0.2),
                dup: wire.f64_range(0.0, 0.15),
                reorder: wire.f64_range(0.0, 0.2),
                seed: wire.next_u64(),
            })
        } else {
            None
        },
        // The partition sweep turns exponential retransmit pacing on from
        // its own stream; these seeds keep the fixed-rto wire.
        retx_backoff: None,
    };
    // Scripted kills: up to three, at seeded transition depths; down_for
    // straddles heartbeat_lag and the lease term so both the lag-brownout
    // and the expired-while-down fixups get exercised across the sweep.
    let n_kills = fault.usize_range(0, 3);
    cfg.kills = (0..n_kills)
        .map(|_| KillPlan {
            at_transition: fault.range(5, 150),
            shard: fault.usize_range(0, n_shards - 1),
            down_for: fault.f64_range(2.0, 28.0),
        })
        .collect();
    cfg
}

// ----------------------------------------------------------------------
// The global ledger oracle
// ----------------------------------------------------------------------

/// A shard's authoritative state: the live core, or the dead one frozen at
/// its crash.
fn authority(sh: &Shard) -> &SchedulerCore {
    sh.core()
        .or_else(|| sh.crash_core())
        .expect("a down shard keeps its crash image")
}

/// Check the federation-wide ownership ledger: exactly-one-owner for every
/// global processor (or exactly one unreclaimed lease in escrow), lease
/// records consistent between the shards' authoritative state and the
/// federation's lease table, and every live-held lease present in the
/// WALs that must know about it.
pub fn check_ledger(fed: &Federation) -> Result<(), String> {
    check_ledger_with(fed, &mut Journals::default())
}

/// [`check_ledger`], reading the WALs through `journals`, which a caller
/// that checks after every event keeps from one check to the next.
pub(crate) fn check_ledger_with(fed: &Federation, journals: &mut Journals) -> Result<(), String> {
    let now = fed.now();
    let total = fed.total_procs();

    // Per-shard structural invariants on every live core (double
    // allocation, pool accounting — lease-aware via owned_procs), plus
    // the brownout hysteresis edges: at or above the high-water mark the
    // latch must be on, at or below the low-water mark it must be off,
    // and the latch must mirror the core's expansion pause exactly.
    let bo = fed.brownout_config();
    for sh in fed.shards() {
        if let Some(core) = sh.core() {
            oracle::check_invariants(core).map_err(|e| format!("shard {}: {e}", sh.id()))?;
            let depth = core.queue_len();
            if sh.brownout() != core.expand_paused() {
                return Err(format!(
                    "shard {}: brownout latch {} but core expand_paused {}",
                    sh.id(),
                    sh.brownout(),
                    core.expand_paused()
                ));
            }
            if depth >= bo.queue_high && !sh.brownout() {
                return Err(format!(
                    "shard {}: queue depth {depth} >= high water {} but brownout is off",
                    sh.id(),
                    bo.queue_high
                ));
            }
            if depth <= bo.queue_low && sh.brownout() {
                return Err(format!(
                    "shard {}: queue depth {depth} <= low water {} but brownout is on",
                    sh.id(),
                    bo.queue_low
                ));
            }
        }
    }

    // Ownership pass. A shard's claim is judged from its authoritative
    // lease state.
    let mut owners: Vec<Vec<usize>> = vec![Vec::new(); total];
    for sh in fed.shards() {
        let core = authority(sh);
        let (lent, borrowed) = (core.lent_leases(), core.borrowed_leases());

        let mut lent_slots: BTreeSet<usize> = BTreeSet::new();
        for (id, slots) in lent {
            let Some(l) = fed.lease(*id) else {
                return Err(format!(
                    "shard {} escrows lease {id} unknown to the federation",
                    sh.id()
                ));
            };
            if l.lender != sh.id() {
                return Err(format!(
                    "lease {id} escrowed on shard {} but its lender is {}",
                    sh.id(),
                    l.lender
                ));
            }
            if l.reclaimed {
                return Err(format!(
                    "lease {id} marked reclaimed but still escrowed in lender {}",
                    sh.id()
                ));
            }
            let globals: BTreeSet<usize> = slots.iter().map(|&s| sh.base() + s).collect();
            if globals != l.global.iter().copied().collect() {
                return Err(format!(
                    "lease {id}: lender {} escrows slots {globals:?} but the grant says {:?}",
                    sh.id(),
                    l.global
                ));
            }
            for &s in slots {
                if s >= sh.native() {
                    return Err(format!(
                        "lease {id}: shard {} lends slot {s} outside its native 0..{}",
                        sh.id(),
                        sh.native()
                    ));
                }
                if !lent_slots.insert(s) {
                    return Err(format!(
                        "shard {}: native slot {s} lent under two leases",
                        sh.id()
                    ));
                }
            }
        }
        // Native claim: everything in the native range not lent away.
        for l in 0..sh.native() {
            if !lent_slots.contains(&l) {
                owners[sh.base() + l].push(sh.id());
            }
        }

        for (id, bl) in borrowed {
            let Some(l) = fed.lease(*id) else {
                return Err(format!(
                    "shard {} attaches lease {id} unknown to the federation",
                    sh.id()
                ));
            };
            if l.borrower != sh.id() {
                return Err(format!(
                    "lease {id} attached on shard {} but its borrower is {}",
                    sh.id(),
                    l.borrower
                ));
            }
            // A down borrower whose lease has expired — or been fenced by
            // its lender — is doomed: the recovery fixup evicts before its
            // frozen core can schedule anything, so the lender's timed
            // reclaim at expires + grace (or its post-fence repair) does
            // not create double ownership — and its frozen attach is
            // allowed to lag the federation's lease table.
            let doomed = sh.core().is_none() && (now >= l.expires || l.fenced());
            // The fencing rule, checked first because it is the strongest
            // claim: once the lender fences a lease, no attachment created
            // at or after the fence may live. An attach that predates the
            // fence is tolerated until the heal repair (or the
            // doomed-borrower fixup) evicts it.
            if !doomed {
                if let (Some(f), Some(a)) = (l.fenced_at, l.attached_at) {
                    if a >= f {
                        return Err(format!(
                            "lease {id}: attached on shard {} at t={a:.3}, at or after its \
                             epoch fence at t={f:.3} — a lease must never be honored across \
                             an epoch fence",
                            sh.id()
                        ));
                    }
                }
            }
            if l.borrower_done && !doomed {
                return Err(format!(
                    "lease {id} is borrower-done but still attached on shard {}",
                    sh.id()
                ));
            }
            if l.reclaimed && !doomed {
                return Err(format!(
                    "lease {id} attached on shard {} but its lender already reclaimed it",
                    sh.id()
                ));
            }
            let globals: BTreeSet<usize> = bl.global.iter().copied().collect();
            if globals != l.global.iter().copied().collect() {
                return Err(format!(
                    "lease {id}: borrower {} attached {globals:?} but the grant says {:?}",
                    sh.id(),
                    l.global
                ));
            }
            if bl.lender_epoch != l.lender_epoch {
                return Err(format!(
                    "lease {id}: borrower {} journaled lender epoch {} but the grant was \
                     minted under {}",
                    sh.id(),
                    bl.lender_epoch,
                    l.lender_epoch
                ));
            }
            if !doomed {
                for &g in &bl.global {
                    if g >= total {
                        return Err(format!(
                            "lease {id}: global processor {g} out of range 0..{total}"
                        ));
                    }
                    owners[g].push(sh.id());
                }
            }
        }
    }

    // Epoch pass: a lender's current fencing epoch (in its authoritative
    // state) must never regress below any lease it minted, and a fenced
    // lease proves the lender actually advanced past the mint epoch.
    for l in fed.leases() {
        let cur = authority(&fed.shards()[l.lender]).epoch();
        if cur < l.lender_epoch {
            return Err(format!(
                "lease {}: minted under epoch {} but lender {} is at epoch {cur} — \
                 epochs must be monotonic",
                l.id, l.lender_epoch, l.lender
            ));
        }
        if l.fenced() && cur <= l.lender_epoch {
            return Err(format!(
                "lease {}: fenced, but lender {} epoch {cur} never advanced past the \
                 mint epoch {}",
                l.id, l.lender, l.lender_epoch
            ));
        }
    }

    for (g, who) in owners.iter().enumerate() {
        if who.len() > 1 {
            return Err(format!("processor {g} double-owned by shards {who:?}"));
        }
        if who.is_empty() {
            let escrows: Vec<u64> = fed
                .leases()
                .filter(|l| !l.reclaimed && l.global.contains(&g))
                .map(|l| l.id)
                .collect();
            match escrows.len() {
                1 => {}
                0 => {
                    return Err(format!(
                        "processor {g} leaked: no owner and no unreclaimed lease covers it"
                    ))
                }
                _ => {
                    return Err(format!(
                        "processor {g} escrowed under multiple leases {escrows:?}"
                    ))
                }
            }
        }
    }

    // WAL containment: leases held by live shards must be journaled. A
    // lease attached by a borrower that the lender never journaled is a
    // forged grant (the planted double-grant takes exactly this shape).
    for sh in fed.shards() {
        let Some(core) = sh.core() else {
            journals.0.remove(&sh.id());
            continue;
        };
        for id in core.lent_leases().keys() {
            if journals.has(sh, Tag::Grant, *id)? != Some(true) {
                return Err(format!(
                    "lease {id}: escrowed on shard {} but absent from its WAL",
                    sh.id()
                ));
            }
        }
        for id in core.borrowed_leases().keys() {
            if journals.has(sh, Tag::Attach, *id)? != Some(true) {
                return Err(format!(
                    "lease {id}: attached on shard {} but absent from its WAL",
                    sh.id()
                ));
            }
            let lender = fed.lease(*id).expect("checked above").lender;
            let lender_shard = fed.shards().iter().find(|s| s.id() == lender);
            if let Some(lender_shard) = lender_shard {
                if journals.has(lender_shard, Tag::Grant, *id)? == Some(false) {
                    return Err(format!(
                        "lease {id}: attached by shard {} but never journaled by lender \
                         {lender} — forged grant",
                        sh.id()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The lease records the containment check looks for.
#[derive(Clone, Copy)]
enum Tag {
    /// `LendGrant`, written by the lender.
    Grant,
    /// `BorrowAttach`, written by the borrower.
    Attach,
}

/// The leases each live shard's WAL journals, as far as the oracle has
/// read it. A shard's WAL is read only when the oracle must find a lease
/// in it and the WAL has changed since it was last read: after every event
/// that is the shards that hold a lease and journaled something, not every
/// shard's whole history. Any append or compaction changes the WAL's
/// [`Wal::appended_bytes`], and a compaction can drop the lines of leases
/// that ended, so nothing read before a change is trusted after it. A
/// shard seen down is forgotten, because its recovery may salvage a
/// shorter stream.
#[derive(Default)]
pub(crate) struct Journals(BTreeMap<usize, Journal>);

/// One shard's journaled leases, read when its WAL had `appended` bytes
/// appended.
#[derive(Default)]
struct Journal {
    appended: u64,
    grants: BTreeSet<u64>,
    attaches: BTreeSet<u64>,
}

impl Journal {
    /// Read the whole WAL text. A record has one spelling, so a line
    /// `{crc} lg {lease} …` is a `LendGrant` of that lease, `{crc} ba
    /// {lease} …` a `BorrowAttach`, and no other line starts that way. A
    /// checkpoint journals every lease of its lease tables.
    fn read(shard: &Shard, wal: &Wal) -> Result<Journal, String> {
        let mut j = Journal {
            appended: wal.appended_bytes(),
            ..Journal::default()
        };
        let unreadable = |line: &str| format!("shard {}: unreadable WAL line `{line}`", shard.id());
        let text = wal.encode();
        let genesis = text.lines().next().unwrap_or_default();
        for line in text.lines() {
            let Some(payload) = line.get(9..) else {
                continue;
            };
            if payload.starts_with("ckpt ") {
                // The checkpoint's lease tables, read through the core it
                // restores.
                let core = Wal::decode(&format!("{genesis}\n{line}\n"))
                    .and_then(SchedulerCore::recover)
                    .map_err(|_| unreadable(line))?;
                j.grants.extend(core.lent_leases().keys());
                j.attaches.extend(core.borrowed_leases().keys());
                continue;
            }
            let (leases, rest) = if let Some(rest) = payload.strip_prefix("lg ") {
                (&mut j.grants, rest)
            } else if let Some(rest) = payload.strip_prefix("ba ") {
                (&mut j.attaches, rest)
            } else {
                continue;
            };
            let lease = rest.split(' ').next().and_then(|t| t.parse().ok());
            let Some(lease) = lease else {
                return Err(unreadable(line));
            };
            leases.insert(lease);
        }
        Ok(j)
    }

    fn leases(&self, tag: Tag) -> &BTreeSet<u64> {
        match tag {
            Tag::Grant => &self.grants,
            Tag::Attach => &self.attaches,
        }
    }
}

impl Journals {
    /// Whether `shard`'s WAL journals `lease` as `tag`; `None` while the
    /// shard is down or keeps no WAL.
    fn has(&mut self, shard: &Shard, tag: Tag, lease: u64) -> Result<Option<bool>, String> {
        let Some(wal) = shard.core().and_then(|c| c.wal()) else {
            self.0.remove(&shard.id());
            return Ok(None);
        };
        let j = self.0.entry(shard.id()).or_default();
        if wal.appended_bytes() != j.appended {
            *j = Journal::read(shard, wal)?;
        }
        Ok(Some(j.leases(tag).contains(&lease)))
    }
}

// ----------------------------------------------------------------------
// The chaos drill
// ----------------------------------------------------------------------

/// What one seeded federation chaos run proved.
#[derive(Clone, Debug)]
pub struct FedChaosReport {
    pub report: FedReport,
    /// Ledger oracle evaluations (one per discrete event).
    pub ledger_checks: u64,
    /// The federation drained fully: leases resolved, bus quiet, router
    /// queues empty, every shard live again.
    pub quiesced: bool,
}

/// Run one seeded federation chaos drill: generate the scenario, drive it
/// through the discrete-event federation simulator, and evaluate the
/// global ledger oracle after **every** event. The error string carries
/// the seed; with `TESTKIT_FAULT_DIR` set, the fault schedule and every
/// shard's WAL are also dumped to disk.
pub fn run_federation_chaos(seed: u64) -> Result<FedChaosReport, String> {
    run_chaos(seed, generate_federation(seed), "fed")
}

/// The chaos drill behind [`run_federation_chaos`] and
/// [`crate::partition::run_partition_chaos`]: run `cfg` with the ledger
/// oracle after every event, then the end-of-run acceptance. A failing run
/// dumps its artifacts under `<prefix>-seed-<seed>`.
pub(crate) fn run_chaos(
    seed: u64,
    cfg: FedSimConfig,
    prefix: &str,
) -> Result<FedChaosReport, String> {
    let schedule = format!("{cfg:#?}");

    let mut first_err: Option<String> = None;
    let mut wal_dump: Vec<(usize, String)> = Vec::new();
    let mut checks = 0u64;
    let mut quiesced = false;
    let mut journals = Journals::default();
    let (report, fed) = run_with_fed(cfg, |fed, t| {
        checks += 1;
        quiesced = fed.quiesced();
        if first_err.is_some() {
            return; // keep the first violation; the run stays deterministic
        }
        if let Err(e) = check_ledger_with(fed, &mut journals) {
            first_err = Some(format!("t={t:.3} {e}"));
            for sh in fed.shards() {
                let text = match sh.core().and_then(|c| c.wal()) {
                    Some(w) => w.encode(),
                    None => sh.down_wal().unwrap_or_default().to_string(),
                };
                wal_dump.push((sh.id(), text));
            }
        }
    });
    let failure = first_err
        .map(|e| format!("ledger violation: {e}"))
        .or_else(|| acceptance(&report, quiesced).err());
    if let Some(e) = failure {
        dump_artifacts(
            &format!("{prefix}-seed-{seed}"),
            &schedule,
            &wal_dump,
            &fed.flightrec().dump_jsonl(),
        );
        return Err(format!("seed {seed}: {e}"));
    }
    Ok(FedChaosReport {
        report,
        ledger_checks: checks,
        quiesced,
    })
}

/// End-of-run acceptance: full terminal accounting, every recovery
/// replayed to snapshot equality, every lease round-tripped home, every
/// partition healed, and full quiescence after the last fault.
fn acceptance(report: &FedReport, quiesced: bool) -> Result<(), String> {
    if !report.recoveries_matched {
        return Err("a WAL replay diverged from its crash image".into());
    }
    let terminal =
        report.finished + report.failed + report.cancelled + report.evict_failed + report.shed;
    if terminal != report.submitted {
        return Err(format!(
            "accounting leak: {terminal} terminal of {} submitted ({report:?})",
            report.submitted
        ));
    }
    if report.leases_granted != report.leases_reclaimed {
        return Err(format!(
            "{} leases granted but {} reclaimed",
            report.leases_granted, report.leases_reclaimed
        ));
    }
    if report.partitions_started != report.partitions_healed {
        return Err(format!(
            "{} partitions started but {} healed",
            report.partitions_started, report.partitions_healed
        ));
    }
    let per_kind = report.heal_repairs_recovery_fixup
        + report.heal_repairs_evict_stale_borrow
        + report.heal_repairs_return_escrow;
    if per_kind != report.heal_repairs {
        return Err(format!(
            "heal-repair kinds sum to {per_kind} but {} repairs were journaled",
            report.heal_repairs
        ));
    }
    if !quiesced {
        return Err("federation did not quiesce".into());
    }
    Ok(())
}

/// When `TESTKIT_FAULT_DIR` is set, persist the failing run's fault
/// schedule, WAL streams, and flight-recorder dump for offline replay,
/// each named `<stem>...`.
fn dump_artifacts(stem: &str, schedule: &str, wals: &[(usize, String)], flightrec: &str) {
    let Ok(dir) = std::env::var("TESTKIT_FAULT_DIR") else {
        return;
    };
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(format!("{dir}/{stem}.schedule.txt"), schedule);
    for (shard, text) in wals {
        let _ = write_wal_artifact(&format!("{dir}/{stem}-shard-{shard}"), text);
    }
    let _ = std::fs::write(format!("{dir}/{stem}.flightrec.jsonl"), flightrec);
}

// ----------------------------------------------------------------------
// Oracle sensitivity: the planted double grant
// ----------------------------------------------------------------------

/// Drive a three-shard federation into a lend with the double-grant
/// backdoor armed: the lender wires the *same* processors to a second
/// borrower under a rogue lease it never journals. Returns the violation
/// message the ledger oracle raised, or `Err` if it never noticed — the
/// sensitivity proof that the sweep's green is meaningful.
pub fn run_planted_double_grant() -> Result<String, String> {
    run_planted_double_grant_with_fed().map(|(msg, _)| msg)
}

/// [`run_planted_double_grant`], also returning the federation so callers
/// can inspect the flight recorder of the failing run (the planted-failure
/// dump must be parseable — `crates/testkit/tests/flightrec.rs`).
pub fn run_planted_double_grant_with_fed() -> Result<(String, Federation), String> {
    let tenants = vec![TenantConfig::new(64, 1.0, 16)];
    let mut fcfg = FederationConfig::new(vec![4, 4, 4], tenants);
    fcfg.lease.min_spare = 1;
    let mut fed = Federation::new(fcfg);
    fed.chaos_plant_double_grant();

    let spec = JobSpec::new(
        "wide",
        TopologyPref::AnyCount {
            min: 1,
            max: 64,
            step: 1,
        },
        ProcessorConfig::linear(6),
        4,
    );
    // A 6-processor job fits no 4-wide shard: it queues, the lender
    // escrows a real lease — and the armed backdoor wires the rogue
    // duplicate to the third shard.
    fed.submit(0, 0, spec, 0.0);
    if let Err(e) = check_ledger(&fed) {
        return Ok((e, fed));
    }
    // Pump the bus until both grants land and attach.
    let mut t = 0.0;
    for _ in 0..64 {
        let Some(next) = fed.next_timer() else { break };
        t = next.max(t);
        fed.run_timers(t);
        if let Err(e) = check_ledger(&fed) {
            return Ok((e, fed));
        }
    }
    Err("ledger oracle never flagged the planted double grant".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = format!("{:?}", generate_federation(9));
        let b = format!("{:?}", generate_federation(9));
        assert_eq!(a, b);
        let c = format!("{:?}", generate_federation(10));
        assert_ne!(a, c);
    }

    #[test]
    fn healthy_federation_passes_the_ledger() {
        let tenants = vec![TenantConfig::new(32, 1.0, 8)];
        let fed = Federation::new(FederationConfig::new(vec![3, 5], tenants));
        check_ledger(&fed).unwrap();
    }

    #[test]
    fn planted_double_grant_is_caught() {
        let msg = run_planted_double_grant().expect("oracle must catch the rogue lease");
        assert!(
            msg.contains("double-owned") || msg.contains("forged") || msg.contains("reclaimed"),
            "unexpected violation message: {msg}"
        );
    }

    /// `generate_federation(seed)`'s job stream played `repeats` times back
    /// to back, so every shard appends far past the compaction floor.
    fn stretched(seed: u64, repeats: usize) -> FedSimConfig {
        let mut cfg = generate_federation(seed);
        let span = cfg.jobs.last().map_or(0.0, |j| j.arrival) + 30.0;
        let once = std::mem::take(&mut cfg.jobs);
        cfg.jobs = (0..repeats)
            .flat_map(|r| {
                once.iter().map(move |j| FedJob {
                    arrival: j.arrival + r as f64 * span,
                    ..j.clone()
                })
            })
            .collect();
        cfg
    }

    /// The ledger, read through one `Journals` after every event, holds
    /// while shards compact their WALs with leases live: a checkpoint's
    /// lease tables count as journaled, and a compaction drops what was
    /// read before it. Each stretched run also kills and recovers shards,
    /// and must pass the chaos drill's end-of-run acceptance.
    #[test]
    fn ledger_holds_while_shards_compact_under_live_leases() {
        let mut compacted_leased = 0;
        for seed in 0..4u64 {
            let mut journals = Journals::default();
            let mut records: BTreeMap<usize, usize> = BTreeMap::new();
            let mut violation = None;
            let (report, fed) = run_with_fed(stretched(seed, 80), |fed, t| {
                for sh in fed.shards() {
                    let Some(core) = sh.core() else {
                        records.remove(&sh.id());
                        continue;
                    };
                    let len = core.wal().map_or(0, Wal::len);
                    let leased =
                        !core.lent_leases().is_empty() || !core.borrowed_leases().is_empty();
                    let shrank = records.insert(sh.id(), len).is_some_and(|was| len < was);
                    compacted_leased += usize::from(shrank && leased);
                }
                if violation.is_none() {
                    violation = check_ledger_with(fed, &mut journals)
                        .err()
                        .map(|e| format!("seed {seed} t={t:.3} {e}"));
                }
            });
            assert_eq!(violation, None);
            acceptance(&report, fed.quiesced()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        assert!(
            compacted_leased > 0,
            "no shard compacted while holding a lease"
        );
    }

    #[test]
    fn one_chaos_seed_end_to_end() {
        let rep = run_federation_chaos(7).unwrap_or_else(|e| panic!("TESTKIT FAILURE [{e}]"));
        assert!(rep.ledger_checks > 0);
        assert!(rep.quiesced);
    }
}
