//! Discrete-event driver for a whole federation: thousands of jobs across
//! tens of tenants, with scripted shard kills. This is the scale harness —
//! the chaos sweeps in `reshape-testkit` drive the same [`Federation`]
//! API with seeded faults and a ledger oracle after every transition.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::{fmt, mem};

use reshape_clustersim::EventQueue;
use reshape_core::{Directive, JobSpec, QueuePolicy};
use reshape_telemetry as telemetry;

use crate::bus::BusConfig;
use crate::fed::{BrownoutConfig, Federation, FederationConfig, HealRepairKind, IdMap, Notice};
use crate::flightrec::DEFAULT_CAP;
use crate::lease::LeaseConfig;
use crate::tenant::TenantConfig;

/// One job of the driven workload.
#[derive(Clone, Debug)]
pub struct FedJob {
    pub tenant: u32,
    pub spec: JobSpec,
    pub arrival: f64,
    /// Ideal processor-seconds per iteration; an iteration on `p`
    /// processors takes `work / p` virtual seconds.
    pub work: f64,
    /// Inject a failure at this checkin ordinal.
    pub fail_at: Option<u32>,
    /// Cancel the job at this checkin ordinal.
    pub cancel_at: Option<u32>,
}

/// Scripted shard crash: kill `shard` once the federation's transition
/// counter reaches `at_transition`, restart it `down_for` later.
#[derive(Clone, Copy, Debug)]
pub struct KillPlan {
    pub at_transition: u64,
    pub shard: usize,
    pub down_for: f64,
}

/// Scripted network partition: the named groups stop hearing each other
/// between `t_start` and `t_heal` (shards in no group form one implicit
/// remainder group). Injected before the run starts, exactly like kills.
#[derive(Clone, Debug)]
pub struct PartitionPlan {
    pub groups: Vec<Vec<usize>>,
    pub t_start: f64,
    pub t_heal: f64,
}

#[derive(Clone, Debug)]
pub struct FedSimConfig {
    pub shard_procs: Vec<usize>,
    pub queue_policy: QueuePolicy,
    pub tenants: Vec<TenantConfig>,
    pub jobs: Vec<FedJob>,
    pub lease: LeaseConfig,
    pub brownout: BrownoutConfig,
    pub bus: BusConfig,
    pub kills: Vec<KillPlan>,
    pub partitions: Vec<PartitionPlan>,
    /// Flight-recorder ring capacity (see [`crate::flightrec`]).
    pub flightrec_cap: usize,
}

impl FedSimConfig {
    pub fn new(shard_procs: Vec<usize>, tenants: Vec<TenantConfig>, jobs: Vec<FedJob>) -> Self {
        FedSimConfig {
            shard_procs,
            queue_policy: QueuePolicy::Fcfs,
            tenants,
            jobs,
            lease: LeaseConfig::default(),
            brownout: BrownoutConfig::default(),
            bus: BusConfig::default(),
            kills: Vec::new(),
            partitions: Vec::new(),
            flightrec_cap: DEFAULT_CAP,
        }
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantReport {
    pub submitted: u64,
    pub admitted: u64,
    pub shed: u64,
    pub finished: u64,
}

/// Per-tenant SLO samples of a run, for windowed series. Everything is
/// keyed on virtual time, so two identical runs produce identical series.
/// A run collects `admits` and `sheds` itself; `samples` is opt-in.
#[derive(Clone, Debug, Default)]
pub struct SloSeries {
    /// `(t, tenant, wait)` per admission — the router queueing latency
    /// (0 for immediate admits).
    pub admits: Vec<(f64, u32, f64)>,
    /// `(t, tenant)` per shed submission.
    pub sheds: Vec<(f64, u32)>,
    /// `(t, tenant, router queue depth, quota utilization)` after every
    /// simulation event. A run leaves it empty: a caller that wants it
    /// records it through [`run_with_fed`]'s hook with
    /// [`SloSamples::record`] and puts it here before
    /// [`FedReport::publish_metrics`].
    pub samples: SloSamples,
}

/// The per-tenant samples of a run: `(t, tenant, router queue depth, quota
/// utilization)` for every tenant after every simulation event, ordered by
/// event, then tenant id.
///
/// Stored losslessly as change points: each event's time once, plus a
/// tenant's pair only at the events where it differs, bit for bit, from
/// that tenant's pair at the previous event. Most events move one tenant
/// at most, so the series grows with the changes, not with events ×
/// tenants. [`SloSamples::iter`] expands every sample back, and `Debug`
/// prints the same list a `Vec` of the tuples would.
#[derive(Clone, Default)]
pub struct SloSamples {
    /// Tenant ids, ascending: the order of the samples within an event.
    tenants: Vec<u32>,
    /// Virtual time of each event.
    times: Vec<f64>,
    /// Every change, ordered by event, then tenant.
    changes: Vec<Change>,
    /// Each tenant's latest `(depth, util bits)`, to detect the next change.
    last: Vec<(usize, u64)>,
}

/// Tenant `tenant` (an index into [`SloSamples::tenants`]) holds `(depth,
/// util)` from event `event` until its next change.
#[derive(Clone, Copy)]
struct Change {
    event: usize,
    tenant: usize,
    depth: usize,
    util: f64,
}

impl SloSamples {
    /// Record every tenant's `(router queue depth, quota utilization)` in
    /// `fed` as one event at `t`. Call it from the hook of
    /// [`run_with_fed`], which runs after every event; the first call takes
    /// the tenant ids from `fed`.
    pub fn record(&mut self, fed: &Federation, t: f64) {
        let event = self.times.len();
        if event == 0 {
            self.tenants = fed.tenant_ids();
            self.last = vec![(0, 0); self.tenants.len()];
        }
        self.times.push(t);
        for (k, (depth, util)) in fed.tenant_slo().enumerate() {
            let key = (depth, util.to_bits());
            if event == 0 || self.last[k] != key {
                self.last[k] = key;
                self.changes.push(Change {
                    event,
                    tenant: k,
                    depth,
                    util,
                });
            }
        }
    }

    /// Samples recorded: events × tenants.
    pub fn len(&self) -> usize {
        self.times.len() * self.tenants.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every sample, in order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u32, usize, f64)> + '_ {
        Samples {
            series: self,
            event: 0,
            tenant: 0,
            next: 0,
            current: vec![(0, 0.0); self.tenants.len()],
        }
    }
}

impl fmt::Debug for SloSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Expands [`SloSamples`]: `current` holds every tenant's pair as of
/// `event`, advanced through `changes[next..]` at each event's first
/// tenant.
struct Samples<'a> {
    series: &'a SloSamples,
    event: usize,
    tenant: usize,
    next: usize,
    current: Vec<(usize, f64)>,
}

impl Iterator for Samples<'_> {
    type Item = (f64, u32, usize, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let s = self.series;
        if s.tenants.is_empty() {
            return None;
        }
        let &t = s.times.get(self.event)?;
        if self.tenant == 0 {
            while let Some(c) = s.changes.get(self.next).filter(|c| c.event == self.event) {
                self.current[c.tenant] = (c.depth, c.util);
                self.next += 1;
            }
        }
        let k = self.tenant;
        let (depth, util) = self.current[k];
        self.tenant += 1;
        if self.tenant == s.tenants.len() {
            self.tenant = 0;
            self.event += 1;
        }
        Some((t, s.tenants[k], depth, util))
    }
}

/// What a federation run did.
#[derive(Clone, Debug, Default)]
pub struct FedReport {
    pub submitted: u64,
    pub admitted: u64,
    pub router_queued: u64,
    pub shed: u64,
    pub finished: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub evict_failed: u64,
    pub leases_granted: u64,
    pub leases_reclaimed: u64,
    pub evict_shrinks: u64,
    pub brownout_engaged: u64,
    pub brownout_released: u64,
    pub shard_kills: u64,
    pub shard_recoveries: u64,
    pub partitions_started: u64,
    pub partitions_healed: u64,
    pub leases_fenced: u64,
    pub heal_repairs: u64,
    /// Heal repairs journaled by the recovery fixup path (fenced borrows
    /// evicted at restart). The three kinds sum to `heal_repairs`.
    pub heal_repairs_recovery_fixup: u64,
    /// Heal repairs journaled by the digest evict-stale-borrow path.
    pub heal_repairs_evict_stale_borrow: u64,
    /// Heal repairs journaled by the digest return-escrow path.
    pub heal_repairs_return_escrow: u64,
    /// Every recovery replayed its WAL to the crash image's exact state.
    pub recoveries_matched: bool,
    pub makespan: f64,
    pub transitions: u64,
    pub per_tenant: BTreeMap<u32, TenantReport>,
    /// Raw per-tenant SLO series (see [`FedReport::publish_metrics`]):
    /// admits and sheds from the run, and `samples` only where the caller
    /// recorded them and put them here.
    pub slo: SloSeries,
}

impl FedReport {
    /// Publish the per-tenant SLO series through the telemetry registry:
    /// the admit-latency histogram (whole run) plus `windows` equal time
    /// bins over the makespan of queue depth, quota utilization and shed
    /// rate, labeled `{tenant,window}`. No-op when telemetry is off.
    pub fn publish_metrics(&self, windows: usize) {
        if !telemetry::enabled() || windows == 0 {
            return;
        }
        for &(_, tenant, wait) in &self.slo.admits {
            telemetry::observe_labeled(
                "fed.tenant_admit_latency",
                &[("tenant", &tenant.to_string())],
                wait,
            );
        }
        let span = if self.makespan > 0.0 {
            self.makespan
        } else {
            1.0
        };
        let width = span / windows as f64;
        // Right-inclusive last window so the makespan sample lands. The
        // windows tile [0, span], so at most one holds any `t`, and it is
        // within one of the arithmetic guess (rounding moves `t / width`
        // by far less than a window); a `t` past the last edge has none.
        let in_win = |w: usize, t: f64| {
            let (lo, hi) = (w as f64 * width, (w + 1) as f64 * width);
            t >= lo && (t < hi || (w == windows - 1 && t <= hi))
        };
        let window_of = |t: f64| {
            let guess = ((t / width) as usize).min(windows - 1);
            [guess.saturating_sub(1), guess, guess + 1]
                .into_iter()
                .find(|&w| w < windows && in_win(w, t))
        };
        let s = &self.slo.samples;
        let tenants: BTreeSet<u32> = s
            .tenants
            .iter()
            .filter(|_| !s.times.is_empty())
            .copied()
            .chain(self.slo.sheds.iter().map(|&(_, t)| t))
            .chain(self.slo.admits.iter().map(|&(_, t, _)| t))
            .collect();
        let mut acc: BTreeMap<u32, Vec<WindowAcc>> = tenants
            .into_iter()
            .map(|t| (t, vec![WindowAcc::default(); windows]))
            .collect();

        // One visit per change segment: a tenant's pair holds from its
        // change to its next one, and each event of the segment adds it to
        // the event's window — in event order, as a scan of every sample
        // would.
        let mut open: Vec<Option<Change>> = vec![None; s.tenants.len()];
        let mut fold = |seg: Change, end: usize| {
            let wins = acc.get_mut(&s.tenants[seg.tenant]).expect("sampled tenant");
            for &t in &s.times[seg.event..end] {
                if let Some(w) = window_of(t) {
                    wins[w].n += 1;
                    wins[w].depth += seg.depth as f64;
                    wins[w].util += seg.util;
                }
            }
        };
        for &c in &s.changes {
            if let Some(seg) = open[c.tenant].replace(c) {
                fold(seg, c.event);
            }
        }
        for seg in open.into_iter().flatten() {
            fold(seg, s.times.len());
        }
        for &(t, tenant) in &self.slo.sheds {
            if let Some(w) = window_of(t) {
                acc.get_mut(&tenant).expect("shedding tenant")[w].sheds += 1;
            }
        }
        for &(t, tenant, wait) in &self.slo.admits {
            if let Some(w) = window_of(t) {
                acc.get_mut(&tenant).expect("admitted tenant")[w]
                    .waits
                    .push(wait);
            }
        }

        for (tenant, wins) in acc {
            let t_label = tenant.to_string();
            for (w, win) in wins.into_iter().enumerate() {
                let w_label = w.to_string();
                let labels = [("tenant", t_label.as_str()), ("window", w_label.as_str())];
                if win.n > 0 {
                    telemetry::gauge_labeled(
                        "fed.tenant_queue_depth_mean",
                        &labels,
                        win.depth / win.n as f64,
                    );
                    telemetry::gauge_labeled(
                        "fed.tenant_quota_utilization_mean",
                        &labels,
                        win.util / win.n as f64,
                    );
                }
                telemetry::gauge_labeled("fed.tenant_shed_rate", &labels, win.sheds as f64 / width);
                if !win.waits.is_empty() {
                    telemetry::gauge_labeled(
                        "fed.tenant_admit_latency_mean",
                        &labels,
                        win.waits.iter().sum::<f64>() / win.waits.len() as f64,
                    );
                }
            }
        }
    }
}

/// One `{tenant, window}` cell of [`FedReport::publish_metrics`].
#[derive(Clone, Default)]
struct WindowAcc {
    n: u64,
    depth: f64,
    util: f64,
    sheds: usize,
    waits: Vec<f64>,
}

/// What the event queue holds; arrivals stream from the job list instead.
enum Ev {
    Checkin { shard: usize, job: u64 },
    Recover { shard: usize },
}

struct LiveJob {
    idx: usize,
    procs: usize,
    checkins: u32,
}

/// Run the workload to completion (all terminal, leases resolved, bus
/// drained).
pub fn run(cfg: FedSimConfig) -> FedReport {
    run_with(cfg, |_, _| {})
}

/// Like [`run`], invoking `hook(&federation, now)` after every event —
/// the testkit hangs its ledger oracle here, and [`SloSamples::record`]
/// records the per-tenant SLO samples here.
pub fn run_with(cfg: FedSimConfig, hook: impl FnMut(&Federation, f64)) -> FedReport {
    run_with_fed(cfg, hook).0
}

/// Like [`run_with`], also returning the drained [`Federation`] so callers
/// can inspect end-of-run state — the testkit dumps its flight recorder
/// when an end-of-run oracle fails.
///
/// The hook runs after each event's notices and scripted kills, and not
/// for a check-in of a job that already left. The report's
/// `slo.samples` stays empty; to get the series, record it through the
/// hook:
///
/// ```
/// # use reshape_federation::sim::{run_with_fed, FedSimConfig, SloSamples};
/// # use reshape_federation::TenantConfig;
/// # let cfg = FedSimConfig::new(vec![4], vec![TenantConfig::new(4, 1.0, 4)], vec![]);
/// let mut samples = SloSamples::default();
/// let (mut report, _fed) = run_with_fed(cfg, |fed, t| samples.record(fed, t));
/// report.slo.samples = samples;
/// ```
pub fn run_with_fed(
    mut cfg: FedSimConfig,
    mut hook: impl FnMut(&Federation, f64),
) -> (FedReport, Federation) {
    let mut fcfg = FederationConfig::new(cfg.shard_procs, cfg.tenants);
    fcfg.queue_policy = cfg.queue_policy;
    fcfg.lease = cfg.lease;
    fcfg.brownout = cfg.brownout;
    fcfg.bus = cfg.bus;
    fcfg.flightrec_cap = cfg.flightrec_cap;
    let mut fed = Federation::new(fcfg);
    for p in &cfg.partitions {
        fed.inject_partition(p.groups.clone(), p.t_start, p.t_heal);
    }

    // Arrivals in time order; a stable sort keeps equal arrivals in list
    // order.
    for j in &cfg.jobs {
        assert!(
            j.arrival.is_finite(),
            "arrival time must be finite, got {}",
            j.arrival
        );
    }
    let mut arrivals: Vec<usize> = (0..cfg.jobs.len()).collect();
    arrivals.sort_by(|&a, &b| {
        let (ta, tb) = (cfg.jobs[a].arrival, cfg.jobs[b].arrival);
        ta.partial_cmp(&tb).expect("arrival times are finite")
    });
    let mut arrivals = arrivals.into_iter().peekable();
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut kills = cfg.kills.clone();
    kills.sort_by_key(|k| k.at_transition);
    let mut kill_idx = 0;

    let mut live: IdMap<(usize, u64), LiveJob> = IdMap::default();
    let mut report = FedReport {
        recoveries_matched: true,
        ..FedReport::default()
    };
    for j in &cfg.jobs {
        report.per_tenant.entry(j.tenant).or_default();
    }

    loop {
        // An arrival wins a tie: it comes before any check-in or recovery
        // at the same instant.
        let arrival =
            arrivals.next_if(|&i| q.peek_time().is_none_or(|tq| cfg.jobs[i].arrival <= tq));
        let (t, notices) = if let Some(i) = arrival {
            let j = &mut cfg.jobs[i];
            let t = j.arrival;
            report.submitted += 1;
            report.per_tenant.entry(j.tenant).or_default().submitted += 1;
            // The name moves to the shard; check-ins read only the rest.
            let name = mem::take(&mut j.spec.name);
            let spec = JobSpec {
                name,
                ..j.spec.clone()
            };
            (t, fed.submit(j.tenant, i as u64, spec, t))
        } else if let Some((t, ev)) = q.pop() {
            let notices = match ev {
                Ev::Checkin { shard, job } => {
                    let Entry::Occupied(mut e) = live.entry((shard, job)) else {
                        continue; // job left the system (evicted, failed)
                    };
                    let lj = e.get_mut();
                    lj.checkins += 1;
                    let (idx, n, procs) = (lj.idx, lj.checkins, lj.procs);
                    let fj = &cfg.jobs[idx];
                    let jid = reshape_core::JobId(job);
                    if fj.cancel_at == Some(n) {
                        e.remove();
                        report.cancelled += 1;
                        fed.cancel(shard, jid, t)
                    } else if fj.fail_at == Some(n) {
                        e.remove();
                        report.failed += 1;
                        fed.failed(shard, jid, "injected fault".into(), t)
                    } else if n as usize >= fj.spec.iterations {
                        e.remove();
                        report.finished += 1;
                        report.per_tenant.entry(fj.tenant).or_default().finished += 1;
                        fed.finished(shard, jid, t)
                    } else {
                        fed.checkin(shard, jid, fj.work / procs.max(1) as f64, 0.0, t)
                    }
                }
                Ev::Recover { shard } => {
                    let (rep, notices) = fed.recover_shard(shard, t);
                    if let Some(r) = rep {
                        report.shard_recoveries += 1;
                        report.recoveries_matched &= r.snapshot_match;
                    }
                    notices
                }
            };
            (t, notices)
        } else if let Some(t) = fed.next_timer() {
            // Workload done; drain lease expiries, reclaims, bus traffic.
            (t, fed.run_timers(t))
        } else {
            break;
        };

        report.makespan = report.makespan.max(t);
        for n in &notices {
            match n {
                Notice::Admitted { tenant, tag, .. } => {
                    report.admitted += 1;
                    report.per_tenant.entry(*tenant).or_default().admitted += 1;
                    // Router queueing latency: submissions queue at their
                    // arrival, so admit-time minus arrival is the wait.
                    let wait = cfg
                        .jobs
                        .get(*tag as usize)
                        .map_or(0.0, |j| (t - j.arrival).max(0.0));
                    report.slo.admits.push((t, *tenant, wait));
                }
                Notice::RouterQueued { .. } => report.router_queued += 1,
                Notice::Shed { tenant, .. } => {
                    report.shed += 1;
                    report.per_tenant.entry(*tenant).or_default().shed += 1;
                    report.slo.sheds.push((t, *tenant));
                }
                Notice::Started {
                    shard,
                    job,
                    tag,
                    procs,
                    ..
                } => {
                    let idx = *tag as usize;
                    let e = live.entry((*shard, job.0)).or_insert(LiveJob {
                        idx,
                        procs: *procs,
                        checkins: 0,
                    });
                    e.procs = *procs;
                    // First start schedules the checkin loop.
                    if e.checkins == 0 {
                        let work = cfg.jobs[idx].work;
                        q.push(
                            t + work / (*procs).max(1) as f64,
                            Ev::Checkin {
                                shard: *shard,
                                job: job.0,
                            },
                        );
                    }
                }
                Notice::Directive {
                    shard,
                    job,
                    directive,
                } => {
                    if let Entry::Occupied(mut e) = live.entry((*shard, job.0)) {
                        match directive {
                            Directive::Terminate => {
                                e.remove();
                            }
                            d => {
                                let lj = e.get_mut();
                                if let Directive::Expand { to, .. } | Directive::Shrink { to } = d {
                                    lj.procs = to.procs();
                                }
                                let work = cfg.jobs[lj.idx].work;
                                q.push(
                                    t + work / lj.procs.max(1) as f64,
                                    Ev::Checkin {
                                        shard: *shard,
                                        job: job.0,
                                    },
                                );
                            }
                        }
                    }
                }
                Notice::Evicted { shard, job, to, .. } => {
                    if let Some(lj) = live.get_mut(&(*shard, job.0)) {
                        lj.procs = to.procs();
                    }
                }
                Notice::EvictFailed { shard, job, .. }
                    if live.remove(&(*shard, job.0)).is_some() =>
                {
                    report.evict_failed += 1;
                }
                Notice::LeaseGranted { .. } => report.leases_granted += 1,
                Notice::LeaseReclaimed { .. } => report.leases_reclaimed += 1,
                Notice::BrownoutEngaged { .. } => report.brownout_engaged += 1,
                Notice::BrownoutReleased { .. } => report.brownout_released += 1,
                Notice::PartitionStarted { .. } => report.partitions_started += 1,
                Notice::PartitionHealed { .. } => report.partitions_healed += 1,
                Notice::LeaseFenced { .. } => report.leases_fenced += 1,
                Notice::HealRepaired { kind, .. } => {
                    report.heal_repairs += 1;
                    match kind {
                        HealRepairKind::RecoveryFixup => report.heal_repairs_recovery_fixup += 1,
                        HealRepairKind::EvictStaleBorrow => {
                            report.heal_repairs_evict_stale_borrow += 1
                        }
                        HealRepairKind::ReturnEscrow => report.heal_repairs_return_escrow += 1,
                    }
                }
                Notice::ShardKilled { .. } => {}
                _ => {}
            }
            if let Notice::Evicted { .. } = n {
                report.evict_shrinks += 1;
            }
        }

        // Scripted kills keyed off the transition counter.
        while kill_idx < kills.len() && fed.transitions() >= kills[kill_idx].at_transition {
            let k = kills[kill_idx];
            kill_idx += 1;
            if fed.shards()[k.shard].is_live() {
                let (was_live, _) = fed.kill_shard(k.shard, t);
                if was_live {
                    report.shard_kills += 1;
                    q.push(t + k.down_for, Ev::Recover { shard: k.shard });
                }
            }
        }

        hook(&fed, t);
    }

    report.transitions = fed.transitions();
    (report, fed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshape_core::{ProcessorConfig, TopologyPref};

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

    fn small_workload(n: usize, tenants: u32) -> Vec<FedJob> {
        (0..n)
            .map(|i| FedJob {
                tenant: i as u32 % tenants,
                spec: spec(&format!("j{i}"), 1 + i % 4, 2 + i % 3),
                arrival: i as f64 * 0.7,
                work: 4.0,
                fail_at: None,
                cancel_at: None,
            })
            .collect()
    }

    #[test]
    fn multi_tenant_run_completes_and_quiesces() {
        let tenants = vec![
            TenantConfig::new(16, 1.0, 8),
            TenantConfig::new(16, 2.0, 8),
            TenantConfig::new(8, 1.0, 4),
        ];
        let cfg = FedSimConfig::new(vec![6, 6, 4], tenants, small_workload(30, 3));
        let mut quiesced = false;
        let report = run_with(cfg, |fed, _| quiesced = fed.quiesced());
        assert_eq!(report.submitted, 30);
        assert_eq!(report.finished + report.shed, 30);
        assert_eq!(report.admitted, report.finished);
        assert!(quiesced, "federation should drain to quiescence");
        assert_eq!(report.leases_granted, report.leases_reclaimed);
    }

    #[test]
    fn kills_recover_to_equal_snapshots_and_work_completes() {
        let tenants = vec![
            TenantConfig::new(32, 1.0, 16),
            TenantConfig::new(32, 1.0, 16),
        ];
        let mut cfg = FedSimConfig::new(vec![4, 4, 4], tenants, small_workload(24, 2));
        cfg.kills = vec![
            KillPlan {
                at_transition: 10,
                shard: 0,
                down_for: 5.0,
            },
            KillPlan {
                at_transition: 30,
                shard: 2,
                down_for: 9.0,
            },
        ];
        let report = run(cfg);
        assert_eq!(report.shard_kills, report.shard_recoveries);
        assert!(report.shard_kills >= 1, "kill plan should fire");
        assert!(
            report.recoveries_matched,
            "WAL replay must equal the crash image"
        );
        assert_eq!(
            report.finished + report.failed + report.cancelled + report.evict_failed + report.shed,
            report.submitted
        );
        assert_eq!(report.leases_granted, report.leases_reclaimed);
    }

    #[test]
    fn partition_fences_heals_and_work_still_completes() {
        let tenants = vec![TenantConfig::new(32, 1.0, 16)];
        let mk = |name: &str, procs, iters, arrival, work| FedJob {
            tenant: 0,
            spec: spec(name, procs, iters),
            arrival,
            work,
            fail_at: None,
            cancel_at: None,
        };
        // `big` borrows 2 procs from `fill`'s shard, then the pair is
        // severed long enough for suspicion to fence the lease.
        let jobs = vec![mk("fill", 2, 30, 0.0, 4.0), mk("big", 6, 30, 1.0, 6.0)];
        let mut cfg = FedSimConfig::new(vec![4, 4], tenants, jobs);
        cfg.lease.min_spare = 0;
        cfg.lease.term = 60.0;
        cfg.lease.grace = 10.0;
        cfg.lease.suspicion = 5.0;
        cfg.partitions = vec![PartitionPlan {
            groups: vec![vec![0], vec![1]],
            t_start: 5.0,
            t_heal: 25.0,
        }];
        let mut quiesced = false;
        let report = run_with(cfg, |fed, _| quiesced = fed.quiesced());
        assert_eq!(report.partitions_started, 1);
        assert_eq!(report.partitions_healed, 1);
        assert!(
            report.leases_fenced >= 1,
            "suspicion must fence: {report:?}"
        );
        assert!(report.heal_repairs >= 1, "heal must repair: {report:?}");
        assert_eq!(report.finished, report.submitted);
        assert_eq!(report.leases_granted, report.leases_reclaimed);
        assert!(quiesced, "federation must drain after the heal");
    }

    #[test]
    fn quota_sheds_excess_load() {
        // One tenant with a tiny queue bound and a quota of 2: the burst
        // overflows the router queue and sheds.
        let tenants = vec![TenantConfig::new(2, 1.0, 2)];
        let jobs: Vec<FedJob> = (0..8)
            .map(|i| FedJob {
                tenant: 0,
                spec: spec(&format!("b{i}"), 2, 20),
                arrival: 0.1,
                work: 50.0,
                fail_at: None,
                cancel_at: None,
            })
            .collect();
        let cfg = FedSimConfig::new(vec![4], tenants, jobs);
        let report = run(cfg);
        assert!(report.shed > 0, "router queue bound must shed");
        assert_eq!(report.finished + report.shed, report.submitted);
    }
}
