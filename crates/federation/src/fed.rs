//! The federation: N scheduler shards behind a multi-tenant router, glued
//! by the lease bus and a shared virtual-time timer wheel.
//!
//! Every public mutator first pumps due timers (so bus deliveries, lease
//! expiries and reclaims happen in timestamp order no matter how the
//! caller interleaves its calls), applies the transition, then runs the
//! reactive pipeline: brownout hysteresis → router drain → lending. All
//! externally visible effects come back as [`Notice`]s.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;

use reshape_clustersim::EventQueue;
use reshape_core::{
    Directive, HealAction, IdHasher, JobId, JobSpec, ProcessorConfig, QueuePolicy, SchedulerCore,
    StartAction, Wal,
};
use reshape_telemetry as telemetry;
use reshape_telemetry::trace;
use reshape_telemetry::TraceCtx;

use crate::bus::{Bus, BusConfig, BusEvent, PartitionSchedule};
use crate::flightrec::{FlightRecorder, DEFAULT_CAP};
use crate::lease::{digest_hash, DigestEntry, Lease, LeaseConfig, LeaseMsg, TracedMsg};
use crate::shard::{Deferred, RecoverReport, Shard, ShardState, WalMark};
use crate::tenant::{QueuedJob, TenantConfig, TenantState};

mod shard_index;
use shard_index::ShardIndex;

/// Overload-control thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BrownoutConfig {
    /// A shard whose scheduler queue reaches this depth enters brownout:
    /// its core stops granting expansions (shrinks and completions
    /// proceed).
    pub queue_high: usize,
    /// Brownout releases only once the queue drains back to this depth
    /// (hysteresis; must be `< queue_high`).
    pub queue_low: usize,
    /// A shard recovering from an outage longer than this re-enters
    /// service in brownout (it works through its backlog before grabbing
    /// processors for expansions).
    pub heartbeat_lag: f64,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            queue_high: 8,
            queue_low: 2,
            heartbeat_lag: 30.0,
        }
    }
}

/// Why a shard entered brownout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrownoutReason {
    QueueDepth,
    HeartbeatLag,
}

/// Federation construction parameters.
#[derive(Clone, Debug)]
pub struct FederationConfig {
    /// Native pool size per shard; shard `i` owns global processors
    /// `[sum(prev), sum(prev) + shard_procs[i])`.
    pub shard_procs: Vec<usize>,
    pub queue_policy: QueuePolicy,
    /// Tenant id → admission policy.
    pub tenants: BTreeMap<u32, TenantConfig>,
    pub lease: LeaseConfig,
    pub brownout: BrownoutConfig,
    pub bus: BusConfig,
    /// Flight-recorder ring capacity (newest-N retention); see
    /// [`crate::flightrec`].
    pub flightrec_cap: usize,
}

impl FederationConfig {
    /// Tenants get ids `0..n` in order.
    pub fn new(shard_procs: Vec<usize>, tenants: Vec<TenantConfig>) -> Self {
        FederationConfig {
            shard_procs,
            queue_policy: QueuePolicy::Fcfs,
            tenants: tenants
                .into_iter()
                .enumerate()
                .map(|(i, t)| (i as u32, t))
                .collect(),
            lease: LeaseConfig::default(),
            brownout: BrownoutConfig::default(),
            bus: BusConfig::default(),
            flightrec_cap: DEFAULT_CAP,
        }
    }
}

/// Which reconciliation path journaled a heal repair. The chaos sweeps
/// assert exact per-kind counts, so every call site must stay labeled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealRepairKind {
    /// Recovery fixup: a fenced, unexpired borrow evicted when its
    /// borrower restarted.
    RecoveryFixup = 0,
    /// Anti-entropy digest, borrower side: a stale (fenced) attachment
    /// evicted.
    EvictStaleBorrow = 1,
    /// Anti-entropy digest, lender side: escrow of a never-attached fenced
    /// lease returned early.
    ReturnEscrow = 2,
}

impl HealRepairKind {
    /// Stable label used in `fed.heal_repairs{kind=...}` and trace spans.
    pub fn label(self) -> &'static str {
        match self {
            HealRepairKind::RecoveryFixup => "recovery_fixup",
            HealRepairKind::EvictStaleBorrow => "evict_stale_borrow",
            HealRepairKind::ReturnEscrow => "return_escrow",
        }
    }
}

/// Record a tenant's admission latency. The label string is built only when
/// telemetry is on: admission is on every job's path.
fn observe_admit_latency(tenant: u32, seconds: f64) {
    if telemetry::enabled() {
        telemetry::observe_labeled(
            "fed.tenant_admit_latency",
            &[("tenant", &tenant.to_string())],
            seconds,
        );
    }
}

/// Short span label for a bus delivery of `msg`.
fn msg_name(msg: &LeaseMsg) -> &'static str {
    match msg {
        LeaseMsg::Grant { .. } => "grant",
        LeaseMsg::Ack { .. } => "ack",
        LeaseMsg::Release { .. } => "release",
        LeaseMsg::Digest { .. } => "digest",
    }
}

/// Externally visible effect of a federation transition.
#[derive(Clone, Debug, PartialEq)]
pub enum Notice {
    /// A submission was assigned to a shard.
    Admitted {
        shard: usize,
        job: JobId,
        tenant: u32,
        tag: u64,
    },
    /// A submission is waiting at the router (quota exhausted or no live
    /// shard).
    RouterQueued {
        tenant: u32,
        tag: u64,
    },
    /// A submission was dropped: the tenant's router queue is full.
    Shed {
        tenant: u32,
        tag: u64,
    },
    /// A job began (or re-began) executing on a shard.
    Started {
        shard: usize,
        job: JobId,
        tenant: u32,
        tag: u64,
        procs: usize,
    },
    /// A resize-point answer for a live job.
    Directive {
        shard: usize,
        job: JobId,
        directive: Directive,
    },
    /// A job was force-shrunk off a lease's processors at eviction.
    Evicted {
        shard: usize,
        job: JobId,
        from: ProcessorConfig,
        to: ProcessorConfig,
    },
    /// A job failed at lease eviction because every one of its processors
    /// was borrowed.
    EvictFailed {
        shard: usize,
        job: JobId,
        tag: u64,
    },
    LeaseGranted {
        lease: u64,
        lender: usize,
        borrower: usize,
        procs: usize,
        expires: f64,
    },
    /// The borrower acked (attached) the lease.
    LeaseActivated {
        lease: u64,
    },
    /// The borrower is done with the lease (evicted, refused, or idle).
    LeaseReleased {
        lease: u64,
    },
    /// The lender reattached the lease's processors.
    LeaseReclaimed {
        lease: u64,
    },
    BrownoutEngaged {
        shard: usize,
        queue_depth: usize,
        reason: BrownoutReason,
    },
    BrownoutReleased {
        shard: usize,
    },
    ShardKilled {
        shard: usize,
    },
    ShardRecovered {
        shard: usize,
        snapshot_match: bool,
        wal_records: usize,
    },
    /// A scripted partition began severing cross-group traffic.
    PartitionStarted {
        id: usize,
    },
    /// A scripted partition healed; formerly-severed live pairs exchange
    /// anti-entropy digests.
    PartitionHealed {
        id: usize,
    },
    /// The lender's suspicion timeout fired: it bumped its epoch to
    /// `epoch` and fenced this lease (never honored or extended again).
    LeaseFenced {
        lease: u64,
        lender: usize,
        epoch: u64,
    },
    /// An anti-entropy reconciliation journaled a repair on `shard`.
    HealRepaired {
        shard: usize,
        lease: u64,
        action: HealAction,
        kind: HealRepairKind,
    },
}

/// A map keyed by ids the federation or its driver minted (shard index,
/// job id), looked up and never iterated, so its order does not matter.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[derive(Clone, Copy, Debug)]
struct JobMeta {
    tenant: u32,
    tag: u64,
    procs: usize,
}

/// What routing and lending read of one shard, so neither has to visit
/// every core on every transition. A down shard reads as all zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ShardSummary {
    live: bool,
    queue_len: usize,
    idle: usize,
    /// Lending deficit: queue-head need minus idle processors (0 when the
    /// queue is empty or its head can start).
    deficit: usize,
    /// Donor spare: idle processors above `min_spare` when the queue is
    /// empty and nothing is borrowed, else 0 — a shard can lend a
    /// `deficit` exactly when its spare covers it.
    spare: usize,
}

impl ShardSummary {
    fn of(shard: &Shard, min_spare: usize) -> Self {
        let Some(core) = shard.core() else {
            return ShardSummary::default();
        };
        let (queue_len, idle) = (core.queue_len(), core.idle_procs());
        ShardSummary {
            live: true,
            queue_len,
            idle,
            deficit: core
                .queue_head_need()
                .map_or(0, |need| need.saturating_sub(idle)),
            spare: if queue_len == 0 && core.borrowed_procs() == 0 {
                idle.saturating_sub(min_spare)
            } else {
                0
            },
        }
    }
}

#[derive(Clone, Debug)]
enum Timer {
    Bus(BusEvent),
    LeaseExpire(u64),
    LeaseReclaim(u64),
    /// A scripted partition crosses `t_start`.
    PartitionStart(usize),
    /// A scripted partition crosses `t_heal`.
    PartitionHeal(usize),
    /// Suspicion deadline for one lease: if the lender still cannot reach
    /// the borrower, it bumps its epoch and fences.
    Suspect(u64),
}

/// Span ids of one lease trace's landmarks. Inert metadata: span ids are
/// 0 when tracing is off and never feed control flow, so the table has no
/// effect on scheduling.
#[derive(Clone, Copy, Debug, Default)]
struct LeaseTraceState {
    /// The open root span `lease N` (grant → reclaim).
    root: u64,
    /// The instantaneous `grant` span — the head of the causal chain.
    grant: u64,
    /// The `partition:severed` marker, when a cut severed this lease.
    severed: u64,
    /// The `fenced` span, once the suspicion timeout fired.
    fence: u64,
}

/// Span ids of one shard's control-plane trace landmarks.
#[derive(Clone, Copy, Debug, Default)]
struct ShardTraceState {
    /// The open root span `shard N` covering the whole run.
    root: u64,
    /// The open `down` span while the shard is crashed (0 while live).
    down: u64,
    /// The open `brownout` span while the latch is engaged (0 otherwise).
    brownout: u64,
}

pub struct Federation {
    lease_cfg: LeaseConfig,
    brownout_cfg: BrownoutConfig,
    shards: Vec<Shard>,
    tenants: BTreeMap<u32, TenantState>,
    bus: Bus,
    timers: EventQueue<Timer>,
    leases: BTreeMap<u64, Lease>,
    next_lease: u64,
    /// `(shard, job id) → admission metadata`; an entry exists exactly
    /// while the job is in flight.
    job_meta: IdMap<(usize, u64), JobMeta>,
    /// One [`ShardSummary`] per shard. Every core mutation goes through
    /// [`Federation::core_mut`], which lists the shard in `stale`; stale
    /// entries are recomputed before `route` or `maybe_lend` reads any.
    view: Vec<ShardSummary>,
    stale: Vec<usize>,
    /// The route, starved and donor indexes over `view`, re-keyed exactly
    /// where `view` changes.
    index: ShardIndex,
    /// Last lend attempt per `(lender, borrower)` pair, for backoff.
    lend_attempts: BTreeMap<(usize, usize), f64>,
    now_hwm: f64,
    transitions: u64,
    /// Leases fenced by suspicion timeouts.
    fences: u64,
    /// Anti-entropy repairs journaled at heal or recovery.
    heal_repairs: u64,
    /// Per-kind split of `heal_repairs`, indexed by [`HealRepairKind`]
    /// discriminant; the components always sum to `heal_repairs`.
    heal_repair_kinds: [u64; 3],
    /// Bounded ring of structured control-plane events; dumped as JSONL
    /// when the testkit ledger oracle fails.
    flightrec: FlightRecorder,
    /// Span bookkeeping for per-lease traces (inert; see
    /// [`LeaseTraceState`]).
    lease_traces: BTreeMap<u64, LeaseTraceState>,
    /// Span bookkeeping for per-shard control-plane traces.
    shard_traces: Vec<ShardTraceState>,
    /// Testing backdoor: the next lend also wires a *rogue* duplicate
    /// grant of the same processors to a second borrower, without the
    /// lender journaling it — a planted double-ownership the ledger
    /// oracle must catch. Never enabled outside tests.
    plant_double_grant: bool,
    /// Testing backdoor: the next Grant delivery for a *fenced* lease
    /// skips the fence refusal and attaches anyway — a planted stale-epoch
    /// attach (split-brain) the partition oracle must catch. Never enabled
    /// outside tests.
    plant_stale_attach: bool,
}

impl Federation {
    pub fn new(cfg: FederationConfig) -> Self {
        assert!(!cfg.shard_procs.is_empty(), "need at least one shard");
        assert!(
            cfg.brownout.queue_low < cfg.brownout.queue_high,
            "brownout hysteresis requires queue_low < queue_high"
        );
        let mut shards = Vec::new();
        let mut base = 0;
        for (i, &n) in cfg.shard_procs.iter().enumerate() {
            assert!(n > 0, "shard {i} has no processors");
            let core = SchedulerCore::new(n, cfg.queue_policy).with_wal(Wal::in_memory());
            shards.push(Shard::new(i, base, core));
            base += n;
        }
        // Each shard's control-plane trace opens with a root span covering
        // the whole run (closed by `drain_spans` at export time), so every
        // lease span recorded on a shard track nests inside the shard's
        // lifetime by construction.
        let shard_traces: Vec<ShardTraceState> = (0..shards.len())
            .map(|i| ShardTraceState {
                root: trace::begin(
                    trace::shard_trace(i),
                    0,
                    format!("shard {i}"),
                    "shard",
                    "control",
                    0.0,
                ),
                ..Default::default()
            })
            .collect();
        let view: Vec<ShardSummary> = shards
            .iter()
            .map(|s| ShardSummary::of(s, cfg.lease.min_spare))
            .collect();
        let index = ShardIndex::build(&view);
        Federation {
            lease_cfg: cfg.lease,
            brownout_cfg: cfg.brownout,
            shards,
            tenants: cfg
                .tenants
                .into_iter()
                .map(|(id, t)| (id, TenantState::new(t)))
                .collect(),
            bus: Bus::new(cfg.bus),
            timers: EventQueue::new(),
            leases: BTreeMap::new(),
            next_lease: 1,
            job_meta: IdMap::default(),
            view,
            stale: Vec::new(),
            index,
            lend_attempts: BTreeMap::new(),
            now_hwm: 0.0,
            transitions: 0,
            fences: 0,
            heal_repairs: 0,
            heal_repair_kinds: [0; 3],
            flightrec: FlightRecorder::new(cfg.flightrec_cap),
            lease_traces: BTreeMap::new(),
            shard_traces,
            plant_double_grant: false,
            plant_stale_attach: false,
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    pub fn total_procs(&self) -> usize {
        self.shards.iter().map(|s| s.native).sum()
    }

    pub fn leases(&self) -> impl Iterator<Item = &Lease> {
        self.leases.values()
    }

    pub fn lease(&self, id: u64) -> Option<&Lease> {
        self.leases.get(&id)
    }

    /// Leases not yet fully resolved (either side still holds something).
    pub fn live_leases(&self) -> usize {
        self.leases.values().filter(|l| !l.resolved()).count()
    }

    /// Unacked frames on the lease bus.
    pub fn bus_pending(&self) -> usize {
        self.bus.pending()
    }

    /// Public mutator calls so far (the fault injectors key shard kills
    /// off this counter).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Latest virtual time observed.
    pub fn now(&self) -> f64 {
        self.now_hwm
    }

    /// Earliest pending timer (bus traffic, lease expiry/reclaim).
    pub fn next_timer(&self) -> Option<f64> {
        self.timers.peek_time()
    }

    pub fn tenant_in_flight(&self, tenant: u32) -> usize {
        self.tenants.get(&tenant).map_or(0, |t| t.in_flight_procs)
    }

    pub fn tenant_queue_len(&self, tenant: u32) -> usize {
        self.tenants.get(&tenant).map_or(0, |t| t.queued.len())
    }

    pub fn tenant_shed(&self, tenant: u32) -> u64 {
        self.tenants.get(&tenant).map_or(0, |t| t.shed)
    }

    pub fn tenant_admitted(&self, tenant: u32) -> u64 {
        self.tenants.get(&tenant).map_or(0, |t| t.admitted)
    }

    /// Fully drained: every lease resolved, bus quiet, no router queue,
    /// every shard live.
    pub fn quiesced(&self) -> bool {
        self.live_leases() == 0
            && self.bus.pending() == 0
            && self.tenants.values().all(|t| t.queued.is_empty())
            && self.shards.iter().all(|s| s.is_live())
    }

    pub fn brownout_config(&self) -> &BrownoutConfig {
        &self.brownout_cfg
    }

    /// Leases fenced by suspicion timeouts so far.
    pub fn fences(&self) -> u64 {
        self.fences
    }

    /// Anti-entropy repairs journaled so far (heal digests + recovery
    /// fixups of fenced leases).
    pub fn heal_repairs(&self) -> u64 {
        self.heal_repairs
    }

    /// Heal repairs journaled by one reconciliation path; the three kinds
    /// always sum to [`Self::heal_repairs`].
    pub fn heal_repairs_of(&self, kind: HealRepairKind) -> u64 {
        self.heal_repair_kinds[kind as usize]
    }

    /// The control-plane flight recorder (bounded ring of structured
    /// events; dump with [`crate::flightrec::FlightRecorder::dump_jsonl`]).
    pub fn flightrec(&self) -> &FlightRecorder {
        &self.flightrec
    }

    /// Tenant ids known to the router, ascending.
    pub fn tenant_ids(&self) -> Vec<u32> {
        self.tenants.keys().copied().collect()
    }

    /// Every tenant's `(router queue depth, quota utilization)`, in the
    /// order of [`Self::tenant_ids`]: one pass for the SLO sampler.
    pub(crate) fn tenant_slo(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.tenants.values().map(|t| {
            (
                t.queued.len(),
                t.in_flight_procs as f64 / t.cfg.quota_procs.max(1) as f64,
            )
        })
    }

    /// A tenant's processor quota (0 for unknown tenants).
    pub fn tenant_quota(&self, tenant: u32) -> usize {
        self.tenants.get(&tenant).map_or(0, |t| t.cfg.quota_procs)
    }

    /// Frames and acks the bus dropped at partition boundaries.
    pub fn partition_drops(&self) -> u64 {
        self.bus.partition_drops()
    }

    /// Whether a live partition currently severs the (lender, borrower)
    /// pair of `a` and `b`.
    pub fn severed(&self, now: f64, a: usize, b: usize) -> bool {
        self.bus.severed(now, a, b)
    }

    #[doc(hidden)]
    pub fn chaos_plant_double_grant(&mut self) {
        self.plant_double_grant = true;
    }

    /// Plant a stale-epoch attach: the next Grant delivery for a fenced
    /// lease bypasses the fence refusal and attaches anyway — split-brain
    /// by construction, which the partition ledger oracle must catch.
    /// Never enabled outside tests.
    #[doc(hidden)]
    pub fn chaos_plant_stale_epoch_attach(&mut self) {
        self.plant_stale_attach = true;
    }

    /// Flip one byte in a down shard's WAL text (interior corruption), so
    /// recovery exercises the salvage/quarantine path. Returns false if
    /// the shard is live or `pos` is out of range. Never used outside
    /// tests.
    #[doc(hidden)]
    pub fn chaos_corrupt_down_wal(&mut self, shard: usize, pos: usize) -> bool {
        match &mut self.shards[shard].state {
            ShardState::Down { wal_text, .. } => {
                let mut bytes = wal_text.clone().into_bytes();
                if pos >= bytes.len() {
                    return false;
                }
                bytes[pos] ^= 0x20;
                *wal_text = String::from_utf8_lossy(&bytes).into_owned();
                true
            }
            ShardState::Live(_) => false,
        }
    }

    /// Script a partition: between `t_start` and `t_heal` the bus silently
    /// drops every frame and ack crossing the group boundaries (shards not
    /// listed form one implicit group). Returns the partition id. The
    /// federation arms suspicion timers at `t_start` and anti-entropy
    /// digests at `t_heal`.
    pub fn inject_partition(
        &mut self,
        groups: Vec<Vec<usize>>,
        t_start: f64,
        t_heal: f64,
    ) -> usize {
        let id = self.bus.inject_partition(PartitionSchedule {
            groups,
            t_start,
            t_heal,
        });
        self.timers.push(t_start, Timer::PartitionStart(id));
        self.timers.push(t_heal, Timer::PartitionHeal(id));
        telemetry::incr("fed.partitions_injected", 1);
        id
    }

    // ------------------------------------------------------------------
    // Public transitions
    // ------------------------------------------------------------------

    /// Submit a job for `tenant`. `tag` is an opaque caller token echoed
    /// in every notice about this submission.
    pub fn submit(&mut self, tenant: u32, tag: u64, spec: JobSpec, now: f64) -> Vec<Notice> {
        let mut out = self.begin(now);
        let need = spec.initial.procs();
        {
            let ts = self.tenants.get_mut(&tenant).expect("unknown tenant");
            ts.submitted += 1;
        }
        let under_quota = {
            let ts = &self.tenants[&tenant];
            ts.in_flight_procs + need <= ts.cfg.quota_procs
        };
        if under_quota {
            if let Some(shard) = self.route() {
                self.assign(shard, tenant, tag, spec, now, &mut out);
                // Immediate admission: zero queueing latency.
                observe_admit_latency(tenant, 0.0);
                self.maybe_lend(now, &mut out);
                return out;
            }
        }
        let ts = self.tenants.get_mut(&tenant).expect("unknown tenant");
        if ts.queued.len() < ts.cfg.max_queue {
            ts.queued.push_back(QueuedJob {
                tag,
                spec,
                queued_at: now,
            });
            telemetry::incr("fed.router_queued", 1);
            out.push(Notice::RouterQueued { tenant, tag });
        } else {
            ts.shed += 1;
            telemetry::incr("fed.shed", 1);
            if telemetry::enabled() {
                telemetry::incr_labeled("fed.tenant_shed", &[("tenant", &tenant.to_string())], 1);
            }
            out.push(Notice::Shed { tenant, tag });
        }
        self.tenant_gauges(tenant);
        out
    }

    /// A job hit its resize point. Down shards defer the checkin; it
    /// replays (and re-answers) at recovery.
    pub fn checkin(
        &mut self,
        shard: usize,
        job: JobId,
        iter_time: f64,
        redist_time: f64,
        now: f64,
    ) -> Vec<Notice> {
        let mut out = self.begin(now);
        if !self.shards[shard].is_live() {
            self.shards[shard].deferred.push_back(Deferred::Checkin {
                job,
                iter_time,
                redist_time,
            });
            return out;
        }
        self.apply_checkin(shard, job, iter_time, redist_time, now, &mut out);
        self.maybe_lend(now, &mut out);
        out
    }

    pub fn finished(&mut self, shard: usize, job: JobId, now: f64) -> Vec<Notice> {
        let mut out = self.begin(now);
        if !self.shards[shard].is_live() {
            self.shards[shard]
                .deferred
                .push_back(Deferred::Finished { job });
            return out;
        }
        self.apply_finished(shard, job, now, &mut out);
        self.maybe_lend(now, &mut out);
        out
    }

    pub fn failed(&mut self, shard: usize, job: JobId, reason: String, now: f64) -> Vec<Notice> {
        let mut out = self.begin(now);
        if !self.shards[shard].is_live() {
            self.shards[shard]
                .deferred
                .push_back(Deferred::Failed { job, reason });
            return out;
        }
        self.apply_failed(shard, job, reason, now, &mut out);
        self.maybe_lend(now, &mut out);
        out
    }

    pub fn cancel(&mut self, shard: usize, job: JobId, now: f64) -> Vec<Notice> {
        let mut out = self.begin(now);
        if !self.shards[shard].is_live() {
            self.shards[shard]
                .deferred
                .push_back(Deferred::Cancel { job });
            return out;
        }
        self.apply_cancel(shard, job, now, &mut out);
        self.maybe_lend(now, &mut out);
        out
    }

    /// Crash a shard. Its core dies on the spot; only the WAL text (a copy
    /// of the bytes the WAL already holds) and the dead core, frozen as the
    /// crash image, survive. Leases it holds keep running on federation
    /// timers; traffic addressed to it is buffered.
    pub fn kill_shard(&mut self, shard: usize, now: f64) -> (bool, Vec<Notice>) {
        let mut out = self.begin(now);
        self.mark(shard);
        let sh = &mut self.shards[shard];
        let ShardState::Live(core) = &mut sh.state else {
            return (false, out);
        };
        let wal_text = core
            .take_wal()
            .expect("federation shards always journal to a WAL")
            .encode();
        // The dead core moves whole into the crash image, holding only its
        // live jobs and no event trace. The empty core left in its place for
        // that move owns no allocation.
        core.prune_terminal();
        drop(core.drain_events());
        let crash = Box::new(std::mem::replace(
            core,
            SchedulerCore::new(0, QueuePolicy::Fcfs),
        ));
        sh.state = ShardState::Down { wal_text, crash };
        sh.kills += 1;
        telemetry::incr("fed.shard_kills", 1);
        self.shard_traces[shard].down = trace::begin(
            trace::shard_trace(shard),
            self.shard_traces[shard].root,
            "down",
            "outage",
            "control",
            now,
        );
        self.flightrec
            .record(now, "shard_kill", Some(shard), None, "");
        out.push(Notice::ShardKilled { shard });
        (true, out)
    }

    /// Restart a down shard: replay its WAL text, verify the replay
    /// reproduces the dead core's state, fix up expired leases, then replay
    /// everything that was addressed to the shard while it was down.
    pub fn recover_shard(
        &mut self,
        shard: usize,
        now: f64,
    ) -> (Option<RecoverReport>, Vec<Notice>) {
        let mut out = self.begin(now);
        let sh = &mut self.shards[shard];
        let ShardState::Down {
            wal_text: down_text,
            crash,
        } = &mut sh.state
        else {
            return (None, out);
        };
        let outage = now - sh.last_seen;
        // The text moves into the report and the dead core is compared
        // where it lies. The text is the last checkpoint and what was
        // appended since; the dead core holds only live jobs.
        let wal_text = std::mem::take(down_text);

        // One pass over the text: each line is checked, parsed and
        // replayed in turn. Interior WAL corruption recovers to the
        // last-good prefix; the damaged remainder is quarantined into the
        // report instead of poisoning the replay. A salvaged replay cannot
        // match the dead core (records are missing) — the mismatch is the
        // signal.
        let (mut core, quarantined) = match SchedulerCore::recover_salvage(&wal_text) {
            Ok((core, salvage)) => (core, salvage.map(|s| s.quarantined)),
            // Nothing replayable (the genesis line itself is damaged), or a
            // checksummed record that replays differently from how it was
            // logged: the shard stays down with its WAL text and crash
            // image intact and its deferred traffic buffered, for an
            // operator or a later retry — bad durable input is an error,
            // not a panic.
            Err(e) => {
                *down_text = wal_text;
                telemetry::incr("fed.shard_recover_failures", 1);
                self.flightrec.record(
                    now,
                    "shard_recover_failed",
                    Some(shard),
                    None,
                    e.to_string(),
                );
                return (None, out);
            }
        };
        let wal_records = core.wal().map_or(0, Wal::len);
        if let Some(q) = &quarantined {
            telemetry::incr("fed.wal_quarantines", 1);
            self.flightrec.record(
                now,
                "wal_quarantine",
                Some(shard),
                None,
                format!("quarantined={}B", q.len()),
            );
        }
        // Replay retires every job the WAL ended and rebuilds the event
        // trace of the records since the checkpoint; the crash image holds
        // neither, so both are compared on their live jobs with an empty
        // trace. The replayed trace is dropped with its buffer, which is
        // sized to the replay, not to one transition. The restarted WAL
        // counts toward its next compaction from its start.
        drop(core.drain_events());
        sh.wal_mark = WalMark::default();
        sh.wal_mark.tidy(&mut core);
        let snapshot_match = core.same_state(crash);
        // The dead core is dropped here, once the recovered one is live.
        sh.state = ShardState::Live(core);
        sh.last_seen = now;
        self.mark(shard);
        telemetry::incr("fed.shard_recoveries", 1);
        let down = self.shard_traces[shard].down;
        trace::end(down, now);
        self.shard_traces[shard].down = 0;
        trace::complete(
            trace::shard_trace(shard),
            if down != 0 {
                down
            } else {
                self.shard_traces[shard].root
            },
            format!("wal:recover {wal_records} records"),
            "recovery",
            "control",
            now,
            now,
        );
        self.flightrec.record(
            now,
            "shard_recover",
            Some(shard),
            None,
            format!(
                "records={wal_records} snapshot_match={snapshot_match} quarantined={}",
                quarantined.is_some()
            ),
        );

        // Fixup 1: borrowed leases that expired — or were fenced by their
        // lender — during the outage are evicted before the shard
        // schedules anything on them. The fenced case is a heal repair and
        // is journaled as one.
        let borrowed: Vec<u64> = self.shards[shard]
            .core()
            .unwrap()
            .borrowed_leases()
            .keys()
            .copied()
            .collect();
        for id in borrowed {
            let (due, fenced) = {
                let l = &self.leases[&id];
                (
                    !l.borrower_done && (now >= l.expires || l.fenced()),
                    !l.borrower_done && l.fenced() && now < l.expires,
                )
            };
            if due {
                let mut cause = 0;
                if fenced {
                    cause = self.note_heal_repair(
                        shard,
                        id,
                        HealAction::EvictStaleBorrow,
                        HealRepairKind::RecoveryFixup,
                        now,
                        &mut out,
                    );
                }
                self.evict_lease(shard, id, now, cause, &mut out);
            }
        }
        // Fixup 2: lent leases whose grace ran out during the outage are
        // reclaimed (the borrower is long gone from them).
        let lent: Vec<u64> = self.shards[shard]
            .core()
            .unwrap()
            .lent_leases()
            .keys()
            .copied()
            .collect();
        for id in lent {
            let due = {
                let l = &self.leases[&id];
                !l.reclaimed && now >= l.expires + self.lease_cfg.grace
            };
            if due {
                self.reclaim_lease(shard, id, now, 0, &mut out);
            }
        }
        // Replay buffered traffic in arrival order.
        while let Some(d) = self.shards[shard].deferred.pop_front() {
            match d {
                Deferred::Checkin {
                    job,
                    iter_time,
                    redist_time,
                } => self.apply_checkin(shard, job, iter_time, redist_time, now, &mut out),
                Deferred::Finished { job } => self.apply_finished(shard, job, now, &mut out),
                Deferred::Failed { job, reason } => {
                    self.apply_failed(shard, job, reason, now, &mut out)
                }
                Deferred::Cancel { job } => self.apply_cancel(shard, job, now, &mut out),
                Deferred::Msg { from, msg, ctx } => {
                    self.apply_msg(now, from, shard, msg, ctx, &mut out)
                }
            }
        }
        // A long outage re-enters service browned out (if the backlog
        // doesn't immediately clear the hysteresis low-water mark).
        if outage >= self.brownout_cfg.heartbeat_lag
            && !self.shards[shard].brownout
            && self.shards[shard].queue_len() > self.brownout_cfg.queue_low
        {
            self.engage_brownout(shard, now, BrownoutReason::HeartbeatLag, &mut out);
        }
        self.update_brownout(shard, now, &mut out);
        self.drain_router(now, &mut out);
        self.maybe_lend(now, &mut out);
        out.push(Notice::ShardRecovered {
            shard,
            snapshot_match,
            wal_records,
        });
        (
            Some(RecoverReport {
                snapshot_match,
                wal_records,
                wal_text,
                quarantined,
            }),
            out,
        )
    }

    /// Run every timer due at or before `now` (bus traffic, lease
    /// expiries, reclaims), then react. Public mutators do this
    /// implicitly; call it directly to drain the federation at the end of
    /// a run.
    pub fn run_timers(&mut self, now: f64) -> Vec<Notice> {
        let mut out = self.begin(now);
        self.maybe_lend(now, &mut out);
        out
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Every transition starts here: advance the clock, count it, pump
    /// due timers so effects happen in timestamp order.
    fn begin(&mut self, now: f64) -> Vec<Notice> {
        self.now_hwm = self.now_hwm.max(now);
        self.transitions += 1;
        let mut out = Vec::new();
        while let Some(t) = self.timers.peek_time() {
            if t > now {
                break;
            }
            let (t, timer) = self.timers.pop().unwrap();
            self.on_timer(t, timer, &mut out);
        }
        out
    }

    /// The only way to a shard's core for writing: it marks the shard's
    /// summary stale, so no mutation can leave [`Self::view`] behind.
    fn core_mut(&mut self, shard: usize) -> Option<&mut SchedulerCore> {
        self.mark(shard);
        match &mut self.shards[shard].state {
            ShardState::Live(c) => Some(c),
            ShardState::Down { .. } => None,
        }
    }

    fn mark(&mut self, shard: usize) {
        if !self.stale.contains(&shard) {
            self.stale.push(shard);
        }
    }

    /// Recompute the summaries of shards changed since the last read, and
    /// tidy the cores those changes touched, so a live core holds only
    /// live jobs, no event trace, and a WAL compacted when due.
    fn refresh_view(&mut self) {
        while let Some(shard) = self.stale.pop() {
            let sh = &mut self.shards[shard];
            if let ShardState::Live(core) = &mut sh.state {
                sh.wal_mark.tidy(core);
            }
            let fresh = ShardSummary::of(&self.shards[shard], self.lease_cfg.min_spare);
            if fresh != self.view[shard] {
                self.view[shard] = fresh;
                self.index.update(shard, &fresh);
            }
        }
        debug_assert!(
            self.shards
                .iter()
                .zip(&self.view)
                .all(|(s, v)| *v == ShardSummary::of(s, self.lease_cfg.min_spare))
                && self.index == ShardIndex::build(&self.view),
            "a shard summary or index went stale without a mark"
        );
    }

    fn sched_bus(&mut self, evs: Vec<(f64, BusEvent)>) {
        for (t, ev) in evs {
            self.timers.push(t, Timer::Bus(ev));
        }
    }

    /// The most causally specific recorded span of a lease trace: fence,
    /// else grant, else root (0 when none — e.g. planted rogue leases).
    fn lease_head_span(&self, id: u64) -> u64 {
        let t = self.lease_traces.get(&id).copied().unwrap_or_default();
        if t.fence != 0 {
            t.fence
        } else if t.grant != 0 {
            t.grant
        } else {
            t.root
        }
    }

    /// Journal + count + trace + record one heal repair. Returns the span
    /// id of the repair (parent for the eviction/reclaim it causes).
    fn note_heal_repair(
        &mut self,
        shard: usize,
        lease: u64,
        action: HealAction,
        kind: HealRepairKind,
        now: f64,
        out: &mut Vec<Notice>,
    ) -> u64 {
        if let Some(core) = self.core_mut(shard) {
            core.journal_heal_repair(lease, action, now);
        }
        self.heal_repairs += 1;
        self.heal_repair_kinds[kind as usize] += 1;
        telemetry::incr("fed.heal_repairs", 1);
        telemetry::incr_labeled("fed.heal_repairs_kind", &[("kind", kind.label())], 1);
        let span = trace::complete(
            trace::lease_trace(lease),
            self.lease_head_span(lease),
            format!("heal:{}", kind.label()),
            "heal",
            &format!("shard {shard}"),
            now,
            now,
        );
        self.flightrec
            .record(now, "heal_repair", Some(shard), Some(lease), kind.label());
        out.push(Notice::HealRepaired {
            shard,
            lease,
            action,
            kind,
        });
        span
    }

    fn on_timer(&mut self, now: f64, timer: Timer, out: &mut Vec<Notice>) {
        match timer {
            Timer::Bus(BusEvent::Deliver { from, to, frame }) => {
                let (msgs, evs) = self.bus.on_deliver(now, from, to, frame);
                self.sched_bus(evs);
                for tm in msgs {
                    let TracedMsg { ctx, msg } = tm;
                    // Make the frame's in-band causal edge visible: one
                    // delivery span per message, parented to whatever span
                    // the sender stamped on the frame.
                    let delivered = if ctx.trace != 0 {
                        trace::complete(
                            ctx.trace,
                            ctx.parent,
                            format!("bus:{} {from}→{to}", msg_name(&msg)),
                            "bus",
                            &format!("shard {to}"),
                            now,
                            now,
                        )
                    } else {
                        0
                    };
                    let ctx = TraceCtx {
                        trace: ctx.trace,
                        parent: if delivered != 0 {
                            delivered
                        } else {
                            ctx.parent
                        },
                    };
                    if self.shards[to].is_live() {
                        self.apply_msg(now, from, to, msg, ctx, out);
                    } else {
                        self.shards[to]
                            .deferred
                            .push_back(Deferred::Msg { from, msg, ctx });
                    }
                }
            }
            Timer::Bus(BusEvent::AckDeliver { from, to, cum }) => {
                self.bus.on_ack(now, from, to, cum)
            }
            Timer::Bus(BusEvent::Retransmit { from, to }) => {
                let evs = self.bus.on_retransmit(now, from, to);
                self.sched_bus(evs);
            }
            Timer::LeaseExpire(id) => {
                let due = {
                    let l = &self.leases[&id];
                    !l.borrower_done && self.shards[l.borrower].is_live()
                };
                // A down borrower is handled by its recovery fixup; its
                // frozen core cannot schedule anything in the meantime.
                if due {
                    let b = self.leases[&id].borrower;
                    self.evict_lease(b, id, now, 0, out);
                    self.drain_router(now, out);
                }
            }
            Timer::LeaseReclaim(id) => {
                let l = &self.leases[&id];
                if l.reclaimed {
                    return;
                }
                let lender = l.lender;
                if self.shards[lender].is_live() {
                    self.reclaim_lease(lender, id, now, 0, out);
                } else {
                    // Lender down: back off and retry; its recovery fixup
                    // may beat this timer, which is fine (reclaim is
                    // guarded).
                    self.timers
                        .push(now + self.lease_cfg.grace, Timer::LeaseReclaim(id));
                }
            }
            Timer::PartitionStart(id) => {
                telemetry::incr("fed.partitions_started", 1);
                self.flightrec
                    .record(now, "partition_start", None, None, format!("id={id}"));
                out.push(Notice::PartitionStarted { id });
                // Arm a suspicion deadline for every outstanding lease the
                // cut severs; leases granted *into* a live partition arm
                // theirs at grant time.
                let schedule = self.bus.partitions().schedules()[id].clone();
                let suspects: Vec<u64> = self
                    .leases
                    .values()
                    .filter(|l| !l.resolved() && !l.fenced() && schedule.cuts(l.lender, l.borrower))
                    .map(|l| l.id)
                    .collect();
                for lease in suspects {
                    let grant = self.lease_traces.get(&lease).map_or(0, |t| t.grant);
                    let severed = trace::complete(
                        trace::lease_trace(lease),
                        grant,
                        "partition:severed",
                        "partition",
                        "federation",
                        now,
                        now,
                    );
                    if let Some(t) = self.lease_traces.get_mut(&lease) {
                        t.severed = severed;
                    }
                    self.flightrec.record(
                        now,
                        "suspect_armed",
                        None,
                        Some(lease),
                        format!("deadline={}", now + self.lease_cfg.suspicion),
                    );
                    self.timers
                        .push(now + self.lease_cfg.suspicion, Timer::Suspect(lease));
                }
            }
            Timer::PartitionHeal(id) => {
                telemetry::incr("fed.partitions_healed", 1);
                self.flightrec
                    .record(now, "partition_heal", None, None, format!("id={id}"));
                out.push(Notice::PartitionHealed { id });
                // Anti-entropy: every formerly-severed ordered pair of live
                // shards exchanges a ledger digest over the (now open) bus.
                let schedule = self.bus.partitions().schedules()[id].clone();
                for a in 0..self.shards.len() {
                    for b in 0..self.shards.len() {
                        if !schedule.cuts(a, b) || !self.shards[a].is_live() {
                            continue;
                        }
                        let (from_epoch, hash, entries) = self.build_digest(a, b);
                        let sent = trace::complete(
                            trace::shard_trace(a),
                            self.shard_traces[a].root,
                            format!("digest:send →{b}"),
                            "digest",
                            "control",
                            now,
                            now,
                        );
                        self.flightrec.record(
                            now,
                            "digest_send",
                            Some(a),
                            None,
                            format!("to={b} entries={} epoch={from_epoch}", entries.len()),
                        );
                        let evs = self.bus.send(
                            now,
                            a,
                            b,
                            TracedMsg::new(
                                TraceCtx {
                                    trace: trace::shard_trace(a),
                                    parent: sent,
                                },
                                LeaseMsg::Digest {
                                    from_epoch,
                                    hash,
                                    entries,
                                },
                            ),
                        );
                        self.sched_bus(evs);
                    }
                }
            }
            Timer::Suspect(id) => {
                let fence_due = {
                    let l = &self.leases[&id];
                    !l.resolved()
                        && !l.fenced()
                        && self.bus.severed(now, l.lender, l.borrower)
                        && self.shards[l.lender].is_live()
                };
                // If the partition healed in time, the lease resolved, or
                // the lender itself is down (the time-based expires+grace
                // safety covers a dead lender), nothing to fence.
                if fence_due {
                    let lender = self.leases[&id].lender;
                    // Suspicion fires on the suspect lease's trace, caused
                    // by its severed marker (or its grant when the lease
                    // was minted straight into a live partition).
                    let cause = {
                        let t = self.lease_traces.get(&id).copied().unwrap_or_default();
                        if t.severed != 0 {
                            t.severed
                        } else {
                            t.grant
                        }
                    };
                    let suspect = trace::complete(
                        trace::lease_trace(id),
                        cause,
                        "suspect:timeout",
                        "suspect",
                        "federation",
                        now,
                        now,
                    );
                    self.flightrec
                        .record(now, "suspect_timeout", Some(lender), Some(id), "");
                    let epoch = self.core_mut(lender).unwrap().bump_epoch(now);
                    self.shards[lender].last_seen = now;
                    // The epoch bump lives on the lender's control-plane
                    // trace but is *caused by* the suspicion timeout — a
                    // cross-trace parent edge.
                    let bump = trace::complete(
                        trace::shard_trace(lender),
                        if suspect != 0 {
                            suspect
                        } else {
                            self.shard_traces[lender].root
                        },
                        format!("epoch:bump →{epoch}"),
                        "epoch",
                        "control",
                        now,
                        now,
                    );
                    self.flightrec.record(
                        now,
                        "epoch_bump",
                        Some(lender),
                        None,
                        format!("epoch={epoch}"),
                    );
                    // The bump fences every unresolved lease this lender
                    // minted under an older epoch whose borrower is still
                    // unreachable — not just the suspect.
                    let fenced: Vec<u64> = self
                        .leases
                        .values()
                        .filter(|l| {
                            l.lender == lender
                                && !l.resolved()
                                && !l.fenced()
                                && l.lender_epoch < epoch
                                && self.bus.severed(now, lender, l.borrower)
                        })
                        .map(|l| l.id)
                        .collect();
                    for lease in fenced {
                        self.leases.get_mut(&lease).unwrap().fenced_at = Some(now);
                        self.fences += 1;
                        telemetry::incr("fed.leases_fenced", 1);
                        // Fence-after-bump, by parent edge and timestamp.
                        let fence = trace::complete(
                            trace::lease_trace(lease),
                            bump,
                            format!("fenced @epoch {epoch}"),
                            "fence",
                            "federation",
                            now,
                            now,
                        );
                        if let Some(t) = self.lease_traces.get_mut(&lease) {
                            t.fence = fence;
                        }
                        self.flightrec.record(
                            now,
                            "lease_fenced",
                            Some(lender),
                            Some(lease),
                            format!("epoch={epoch}"),
                        );
                        out.push(Notice::LeaseFenced {
                            lease,
                            lender,
                            epoch,
                        });
                    }
                }
            }
        }
    }

    /// Deliver one in-order lease message to a live shard. `ctx` is the
    /// causal context the frame carried (already advanced past the
    /// delivery span); it parents the spans this application records.
    fn apply_msg(
        &mut self,
        now: f64,
        from: usize,
        to: usize,
        msg: LeaseMsg,
        ctx: TraceCtx,
        out: &mut Vec<Notice>,
    ) {
        match msg {
            LeaseMsg::Grant {
                lease,
                global,
                expires,
                lender_epoch,
            } => {
                let (stale, mut refuse) = {
                    let l = &self.leases[&lease];
                    // A fenced lease is never honored: the grant was minted
                    // under an epoch the lender has bumped past.
                    (
                        l.fenced() && now < expires,
                        l.borrower_done || now >= expires || l.fenced(),
                    )
                };
                if stale && self.plant_stale_attach {
                    // Planted split-brain: attach the stale-epoch grant
                    // anyway; the partition oracle must flag it.
                    self.plant_stale_attach = false;
                    refuse = false;
                }
                let parent = if ctx.parent != 0 {
                    ctx.parent
                } else {
                    self.lease_head_span(lease)
                };
                if refuse {
                    let transitioned = {
                        let l = self.leases.get_mut(&lease).unwrap();
                        let t = !l.borrower_done;
                        l.borrower_done = true;
                        t
                    };
                    if transitioned {
                        if stale {
                            telemetry::incr("fed.stale_grants_refused", 1);
                        }
                        out.push(Notice::LeaseReleased { lease });
                    }
                    let refused = trace::complete(
                        trace::lease_trace(lease),
                        parent,
                        if stale {
                            "grant:refused (fenced)"
                        } else {
                            "grant:refused"
                        },
                        "lease",
                        &format!("shard {to}"),
                        now,
                        now,
                    );
                    self.flightrec.record(
                        now,
                        "grant_refused",
                        Some(to),
                        Some(lease),
                        if stale {
                            "stale epoch"
                        } else {
                            "expired or done"
                        },
                    );
                    let evs = self.bus.send(
                        now,
                        to,
                        from,
                        TracedMsg::new(
                            TraceCtx {
                                trace: trace::lease_trace(lease),
                                parent: refused,
                            },
                            LeaseMsg::Release { lease },
                        ),
                    );
                    self.sched_bus(evs);
                    return;
                }
                self.shards[to].last_seen = now;
                let starts =
                    self.core_mut(to)
                        .unwrap()
                        .borrow_attach(lease, &global, lender_epoch, now);
                {
                    let l = self.leases.get_mut(&lease).unwrap();
                    if l.attached_at.is_none() {
                        l.attached_at = Some(now);
                    }
                }
                telemetry::incr("fed.lease_attaches", 1);
                let attached = trace::complete(
                    trace::lease_trace(lease),
                    parent,
                    "attach",
                    "lease",
                    &format!("shard {to}"),
                    now,
                    now,
                );
                self.flightrec
                    .record(now, "lease_attach", Some(to), Some(lease), "");
                self.start_notices(to, &starts, out);
                let evs = self.bus.send(
                    now,
                    to,
                    from,
                    TracedMsg::new(
                        TraceCtx {
                            trace: trace::lease_trace(lease),
                            parent: attached,
                        },
                        LeaseMsg::Ack { lease },
                    ),
                );
                self.sched_bus(evs);
                self.update_brownout(to, now, out);
            }
            LeaseMsg::Ack { lease } => {
                let first = {
                    let l = self.leases.get_mut(&lease).unwrap();
                    let f = !l.acked;
                    l.acked = true;
                    f
                };
                if first {
                    trace::complete(
                        trace::lease_trace(lease),
                        if ctx.parent != 0 {
                            ctx.parent
                        } else {
                            self.lease_head_span(lease)
                        },
                        "activated",
                        "lease",
                        &format!("shard {to}"),
                        now,
                        now,
                    );
                    self.flightrec
                        .record(now, "lease_ack", Some(to), Some(lease), "");
                    out.push(Notice::LeaseActivated { lease });
                }
            }
            LeaseMsg::Release { lease } => {
                // Arrives at the lender (`to`).
                self.leases.get_mut(&lease).unwrap().borrower_done = true;
                if !self.leases[&lease].reclaimed {
                    self.reclaim_lease(to, lease, now, ctx.parent, out);
                    self.drain_router(now, out);
                }
            }
            LeaseMsg::Digest {
                from_epoch,
                hash,
                entries,
            } => {
                self.apply_digest(now, from, to, from_epoch, hash, entries, ctx, out);
            }
        }
    }

    /// Build shard `a`'s anti-entropy digest of every lease it shares with
    /// peer `b`: its current epoch, the entries (ordered by lease id), and
    /// their FNV-1a hash.
    fn build_digest(&self, a: usize, b: usize) -> (u64, u64, Vec<DigestEntry>) {
        let core = self.shards[a].core().expect("digest needs a live shard");
        let mut entries = Vec::new();
        for l in self.leases.values() {
            if l.resolved() {
                continue;
            }
            if l.lender == a && l.borrower == b {
                entries.push(DigestEntry {
                    lease: l.id,
                    lent: true,
                    lender_epoch: l.lender_epoch,
                    attached: core.lent_leases().contains_key(&l.id),
                    global: l.global.clone(),
                });
            } else if l.borrower == a && l.lender == b {
                entries.push(DigestEntry {
                    lease: l.id,
                    lent: false,
                    lender_epoch: l.lender_epoch,
                    attached: core.borrowed_leases().contains_key(&l.id),
                    global: l.global.clone(),
                });
            }
        }
        (core.epoch(), digest_hash(&entries), entries)
    }

    /// Deterministic reconciliation against a peer's digest, at the
    /// receiver `to`. Every repair is journaled as an explicit
    /// [`reshape_core::WalRecord::HealRepair`] before the repairing
    /// transition — no silent state mutation.
    #[allow(clippy::too_many_arguments)]
    fn apply_digest(
        &mut self,
        now: f64,
        from: usize,
        to: usize,
        _from_epoch: u64,
        hash: u64,
        entries: Vec<DigestEntry>,
        ctx: TraceCtx,
        out: &mut Vec<Notice>,
    ) {
        if digest_hash(&entries) != hash {
            // A mangled digest is ignored, never acted on; retransmission
            // or the time-based expiry path converges instead.
            telemetry::incr("fed.digests_rejected", 1);
            self.flightrec
                .record(now, "digest_reject", Some(to), None, format!("from={from}"));
            return;
        }
        if !self.shards[to].is_live() {
            return;
        }
        // The application lives on the receiver's control-plane trace,
        // caused by the sender's `digest:send` (cross-trace edge carried
        // in-band on the frame).
        trace::complete(
            trace::shard_trace(to),
            if ctx.parent != 0 {
                ctx.parent
            } else {
                self.shard_traces[to].root
            },
            format!("digest:apply ←{from}"),
            "digest",
            "control",
            now,
            now,
        );
        self.flightrec.record(
            now,
            "digest_apply",
            Some(to),
            None,
            format!("from={from} entries={}", entries.len()),
        );
        // Repair 1 — receiver as borrower: evict any attachment whose
        // lease the lender (`from`) has fenced.
        let stale_borrows: Vec<u64> = self.shards[to]
            .core()
            .unwrap()
            .borrowed_leases()
            .keys()
            .copied()
            .filter(|id| {
                let l = &self.leases[id];
                l.lender == from && l.fenced() && !l.borrower_done
            })
            .collect();
        for id in stale_borrows {
            let repaired = self.note_heal_repair(
                to,
                id,
                HealAction::EvictStaleBorrow,
                HealRepairKind::EvictStaleBorrow,
                now,
                out,
            );
            self.evict_lease(to, id, now, repaired, out);
        }
        // Repair 2 — receiver as lender: a fenced lease whose borrower
        // (`from`) proves it holds no attachment can return its escrow
        // immediately — the fence refusal guarantees no attachment can be
        // created later, so waiting out expires+grace buys nothing.
        let returnable: Vec<u64> = self.shards[to]
            .core()
            .unwrap()
            .lent_leases()
            .keys()
            .copied()
            .filter(|id| {
                let l = &self.leases[id];
                l.lender == to
                    && l.borrower == from
                    && l.fenced()
                    && !l.reclaimed
                    && !entries
                        .iter()
                        .any(|e| e.lease == *id && !e.lent && e.attached)
            })
            .collect();
        for id in returnable {
            let transitioned = {
                let l = self.leases.get_mut(&id).unwrap();
                let t = !l.borrower_done;
                l.borrower_done = true;
                t
            };
            if transitioned {
                out.push(Notice::LeaseReleased { lease: id });
            }
            let repaired = self.note_heal_repair(
                to,
                id,
                HealAction::ReturnEscrow,
                HealRepairKind::ReturnEscrow,
                now,
                out,
            );
            self.reclaim_lease(to, id, now, repaired, out);
        }
        self.drain_router(now, out);
    }

    /// Borrower-side eviction: force every job off the lease's slots,
    /// detach them, tell the lender. `cause` is the span that forced the
    /// eviction (0 → parent to the lease trace's head).
    fn evict_lease(
        &mut self,
        borrower: usize,
        id: u64,
        now: f64,
        cause: u64,
        out: &mut Vec<Notice>,
    ) {
        let outcome = self
            .core_mut(borrower)
            .expect("evict_lease needs a live borrower")
            .borrow_evict(id, now);
        self.shards[borrower].last_seen = now;
        self.leases.get_mut(&id).unwrap().borrower_done = true;
        telemetry::incr("fed.lease_evictions", 1);
        let evicted = trace::complete(
            trace::lease_trace(id),
            if cause != 0 {
                cause
            } else {
                self.lease_head_span(id)
            },
            "evict",
            "lease",
            &format!("shard {borrower}"),
            now,
            now,
        );
        self.flightrec
            .record(now, "lease_evict", Some(borrower), Some(id), "");
        for (job, from, to) in outcome.shrunk {
            telemetry::incr("fed.evict_shrinks", 1);
            out.push(Notice::Evicted {
                shard: borrower,
                job,
                from,
                to,
            });
        }
        for job in outcome.failed {
            let meta = self.job_terminal(borrower, job);
            telemetry::incr("fed.evict_failures", 1);
            out.push(Notice::EvictFailed {
                shard: borrower,
                job,
                tag: meta.map(|m| m.tag).unwrap_or(u64::MAX),
            });
        }
        out.push(Notice::LeaseReleased { lease: id });
        let lender = self.leases[&id].lender;
        let evs = self.bus.send(
            now,
            borrower,
            lender,
            TracedMsg::new(
                TraceCtx {
                    trace: trace::lease_trace(id),
                    parent: evicted,
                },
                LeaseMsg::Release { lease: id },
            ),
        );
        self.sched_bus(evs);
        self.update_brownout(borrower, now, out);
    }

    /// Lender-side reclaim: reattach the slots, restart queued work.
    /// `cause` is the span that triggered the reclaim (0 → lease head).
    fn reclaim_lease(
        &mut self,
        lender: usize,
        id: u64,
        now: f64,
        cause: u64,
        out: &mut Vec<Notice>,
    ) {
        let starts = self
            .core_mut(lender)
            .expect("reclaim_lease needs a live lender")
            .lend_reclaim(id, now);
        self.shards[lender].last_seen = now;
        {
            let l = self.leases.get_mut(&id).unwrap();
            l.reclaimed = true;
        }
        telemetry::incr("fed.leases_reclaimed", 1);
        trace::complete(
            trace::lease_trace(id),
            if cause != 0 {
                cause
            } else {
                self.lease_head_span(id)
            },
            "reclaim",
            "lease",
            &format!("shard {lender}"),
            now,
            now,
        );
        // The lease lifecycle is over: close the root span opened at grant.
        if let Some(t) = self.lease_traces.get(&id) {
            trace::end(t.root, now);
        }
        self.flightrec
            .record(now, "lease_reclaim", Some(lender), Some(id), "");
        out.push(Notice::LeaseReclaimed { lease: id });
        self.start_notices(lender, &starts, out);
        self.update_brownout(lender, now, out);
    }

    fn apply_checkin(
        &mut self,
        shard: usize,
        job: JobId,
        iter_time: f64,
        redist_time: f64,
        now: f64,
        out: &mut Vec<Notice>,
    ) {
        self.shards[shard].last_seen = now;
        let (directive, starts) =
            self.core_mut(shard)
                .unwrap()
                .resize_point(job, iter_time, redist_time, now);
        out.push(Notice::Directive {
            shard,
            job,
            directive,
        });
        self.start_notices(shard, &starts, out);
        self.update_brownout(shard, now, out);
        self.maybe_release(shard, now, out);
    }

    fn apply_finished(&mut self, shard: usize, job: JobId, now: f64, out: &mut Vec<Notice>) {
        self.shards[shard].last_seen = now;
        let starts = self.core_mut(shard).unwrap().on_finished(job, now);
        if let Some(meta) = self.job_terminal(shard, job) {
            let ts = self.tenants.get_mut(&meta.tenant).unwrap();
            ts.finished += 1;
        }
        telemetry::incr("fed.finished", 1);
        self.start_notices(shard, &starts, out);
        self.update_brownout(shard, now, out);
        self.drain_router(now, out);
        self.maybe_release(shard, now, out);
    }

    fn apply_failed(
        &mut self,
        shard: usize,
        job: JobId,
        reason: String,
        now: f64,
        out: &mut Vec<Notice>,
    ) {
        self.shards[shard].last_seen = now;
        let starts = self.core_mut(shard).unwrap().on_failed(job, reason, now);
        self.job_terminal(shard, job);
        telemetry::incr("fed.failed", 1);
        self.start_notices(shard, &starts, out);
        self.update_brownout(shard, now, out);
        self.drain_router(now, out);
        self.maybe_release(shard, now, out);
    }

    fn apply_cancel(&mut self, shard: usize, job: JobId, now: f64, out: &mut Vec<Notice>) {
        self.shards[shard].last_seen = now;
        let starts = self.core_mut(shard).unwrap().cancel(job, now);
        self.job_terminal(shard, job);
        telemetry::incr("fed.cancelled", 1);
        self.start_notices(shard, &starts, out);
        self.update_brownout(shard, now, out);
        self.drain_router(now, out);
        self.maybe_release(shard, now, out);
    }

    /// Remove a job's admission record and return its quota.
    fn job_terminal(&mut self, shard: usize, job: JobId) -> Option<JobMeta> {
        let meta = self.job_meta.remove(&(shard, job.0))?;
        let ts = self.tenants.get_mut(&meta.tenant).unwrap();
        ts.in_flight_procs = ts.in_flight_procs.saturating_sub(meta.procs);
        self.tenant_gauges(meta.tenant);
        Some(meta)
    }

    /// Publish a tenant's labeled gauges (router queue depth and quota
    /// utilization). No-op when telemetry is off.
    fn tenant_gauges(&self, tenant: u32) {
        if !telemetry::enabled() {
            return;
        }
        let Some(ts) = self.tenants.get(&tenant) else {
            return;
        };
        let t = tenant.to_string();
        telemetry::gauge_labeled(
            "fed.tenant_queue_depth",
            &[("tenant", &t)],
            ts.queued.len() as f64,
        );
        telemetry::gauge_labeled(
            "fed.tenant_quota_utilization",
            &[("tenant", &t)],
            ts.in_flight_procs as f64 / ts.cfg.quota_procs.max(1) as f64,
        );
    }

    fn start_notices(&mut self, shard: usize, starts: &[StartAction], out: &mut Vec<Notice>) {
        for s in starts {
            let meta = self.job_meta.get(&(shard, s.job.0));
            let (tenant, tag) = meta
                .map(|m| (m.tenant, m.tag))
                .unwrap_or((u32::MAX, u64::MAX));
            out.push(Notice::Started {
                shard,
                job: s.job,
                tenant,
                tag,
                procs: s.config.procs(),
            });
        }
    }

    /// Pick a live shard for a job: shortest queue first, then most idle
    /// processors — the smallest lending deficit if it comes to that —
    /// then lowest id. A shard that can start the job at once (empty
    /// queue, enough idle) is always this pick: the most idle shard with
    /// an empty queue, if any can start it, can. So the answer does not
    /// depend on the job.
    fn route(&mut self) -> Option<usize> {
        self.refresh_view();
        self.index.route()
    }

    fn assign(
        &mut self,
        shard: usize,
        tenant: u32,
        tag: u64,
        spec: JobSpec,
        now: f64,
        out: &mut Vec<Notice>,
    ) {
        let need = spec.initial.procs();
        self.shards[shard].last_seen = now;
        let (job, starts) = self.core_mut(shard).unwrap().submit(spec, now);
        self.job_meta.insert(
            (shard, job.0),
            JobMeta {
                tenant,
                tag,
                procs: need,
            },
        );
        {
            let ts = self.tenants.get_mut(&tenant).unwrap();
            ts.in_flight_procs += need;
            ts.admitted += 1;
        }
        telemetry::incr("fed.admitted", 1);
        if telemetry::enabled() {
            telemetry::incr_labeled("fed.tenant_admitted", &[("tenant", &tenant.to_string())], 1);
            telemetry::incr_labeled("fed.shard_admitted", &[("shard", &shard.to_string())], 1);
        }
        self.tenant_gauges(tenant);
        out.push(Notice::Admitted {
            shard,
            job,
            tenant,
            tag,
        });
        self.start_notices(shard, &starts, out);
        self.update_brownout(shard, now, out);
    }

    /// Admit from the router queue while quota and a live shard allow,
    /// draining the tenant with the lowest `in_flight / weight` first.
    fn drain_router(&mut self, now: f64, out: &mut Vec<Notice>) {
        loop {
            let mut order: Vec<(u64, u32)> = self
                .tenants
                .iter()
                .filter(|(_, t)| !t.queued.is_empty())
                .map(|(&id, t)| (t.share().to_bits(), id))
                .collect();
            order.sort();
            let mut admitted = false;
            for (_, tenant) in order {
                let ok = {
                    let ts = &self.tenants[&tenant];
                    let need = ts.queued.front().unwrap().spec.initial.procs();
                    ts.in_flight_procs + need <= ts.cfg.quota_procs
                };
                if !ok {
                    continue;
                }
                let Some(shard) = self.route() else { continue };
                let qj = self
                    .tenants
                    .get_mut(&tenant)
                    .unwrap()
                    .queued
                    .pop_front()
                    .unwrap();
                telemetry::observe("fed.router_wait", now - qj.queued_at);
                observe_admit_latency(tenant, now - qj.queued_at);
                self.assign(shard, tenant, qj.tag, qj.spec, now, out);
                admitted = true;
                break;
            }
            if !admitted {
                break;
            }
        }
    }

    /// Brownout hysteresis on scheduler queue depth. Runs after every
    /// transition that can change a live shard's queue.
    fn update_brownout(&mut self, shard: usize, now: f64, out: &mut Vec<Notice>) {
        let Some(core) = self.shards[shard].core() else {
            return;
        };
        let depth = core.queue_len();
        if telemetry::enabled() {
            telemetry::gauge_labeled(
                "fed.shard_queue_depth",
                &[("shard", &shard.to_string())],
                depth as f64,
            );
        }
        if !self.shards[shard].brownout && depth >= self.brownout_cfg.queue_high {
            self.engage_brownout(shard, now, BrownoutReason::QueueDepth, out);
        } else if self.shards[shard].brownout && depth <= self.brownout_cfg.queue_low {
            self.shards[shard].brownout = false;
            self.core_mut(shard).unwrap().set_expand_paused(false, now);
            telemetry::incr("fed.brownout_released", 1);
            trace::end(self.shard_traces[shard].brownout, now);
            self.shard_traces[shard].brownout = 0;
            self.flightrec.record(
                now,
                "brownout_release",
                Some(shard),
                None,
                format!("depth={depth}"),
            );
            out.push(Notice::BrownoutReleased { shard });
        }
    }

    fn engage_brownout(
        &mut self,
        shard: usize,
        now: f64,
        reason: BrownoutReason,
        out: &mut Vec<Notice>,
    ) {
        let depth = self.shards[shard].queue_len();
        self.shards[shard].brownout = true;
        self.core_mut(shard).unwrap().set_expand_paused(true, now);
        telemetry::incr("fed.brownout_engaged", 1);
        self.shard_traces[shard].brownout = trace::begin(
            trace::shard_trace(shard),
            self.shard_traces[shard].root,
            "brownout",
            "brownout",
            "control",
            now,
        );
        self.flightrec.record(
            now,
            "brownout_engage",
            Some(shard),
            None,
            format!("depth={depth} reason={reason:?}"),
        );
        out.push(Notice::BrownoutEngaged {
            shard,
            queue_depth: depth,
            reason,
        });
    }

    /// Borrower-side early release: once a shard's queue is empty and no
    /// running job touches a borrowed lease, give it back rather than
    /// sitting on it until expiry.
    fn maybe_release(&mut self, shard: usize, now: f64, out: &mut Vec<Notice>) {
        let ids: Vec<u64> = {
            let Some(core) = self.shards[shard].core() else {
                return;
            };
            if core.queue_len() > 0 {
                return;
            }
            core.borrowed_leases()
                .iter()
                .filter(|(_, bl)| {
                    !core.live_jobs().any(|(_, rec)| {
                        rec.state.is_active() && rec.slots.iter().any(|s| bl.local.contains(s))
                    })
                })
                .map(|(&id, _)| id)
                .collect()
        };
        for id in ids {
            if !self.leases[&id].borrower_done {
                self.evict_lease(shard, id, now, 0, out);
            }
        }
    }

    /// Lend idle processors to starved shards: for each live shard whose
    /// queue head cannot start, in id order, find a donor with enough
    /// spare, escrow the slots in the donor's WAL, and put a grant on the
    /// bus.
    ///
    /// The shard indexes answer without visiting a core: the starved set
    /// lists the borrowers, and the donor tree finds, in id order, the
    /// other shards whose spare covers a deficit. A shard's
    /// spare covers a deficit exactly when it may lend that many: its
    /// queue is empty, it holds no borrowed processors (no sublease
    /// chains), and its idle processors above `min_spare` suffice.
    fn maybe_lend(&mut self, now: f64, out: &mut Vec<Notice>) {
        self.refresh_view();
        let mut next = self.index.starved_from(0);
        while let Some(b) = next {
            let deficit = self.view[b].deficit;
            let mut donor = self.index.donor_from(0, deficit, b);
            while let Some(d) = donor {
                let backoff = self
                    .lend_attempts
                    .get(&(d, b))
                    .is_some_and(|&last| now - last < self.lease_cfg.retry_backoff);
                if !backoff && self.grant_lease(d, b, deficit, now, out) {
                    // The lender escrowed processors: its spare shrank.
                    self.refresh_view();
                    break;
                }
                donor = self.index.donor_from(d + 1, deficit, b);
            }
            next = self.index.starved_from(b + 1);
        }
    }

    fn grant_lease(
        &mut self,
        lender: usize,
        borrower: usize,
        n: usize,
        now: f64,
        out: &mut Vec<Notice>,
    ) -> bool {
        let id = self.next_lease;
        // Escrow first: the lender journals `lend_grant` before anything
        // touches the wire, so a lender crash after this point still
        // reclaims the slots deterministically from its own WAL.
        let Some(slots) = self.core_mut(lender).unwrap().lend_grant(id, n, now) else {
            return false;
        };
        self.next_lease += 1;
        self.shards[lender].last_seen = now;
        let base = self.shards[lender].base;
        let epoch = self.shards[lender].core().unwrap().epoch();
        let global: Vec<usize> = slots.iter().map(|&s| base + s).collect();
        let expires = now + self.lease_cfg.term;
        self.leases.insert(
            id,
            Lease {
                id,
                lender,
                borrower,
                global: global.clone(),
                granted_at: now,
                expires,
                acked: false,
                borrower_done: false,
                reclaimed: false,
                lender_epoch: epoch,
                attached_at: None,
                fenced_at: None,
            },
        );
        self.lend_attempts.insert((lender, borrower), now);
        telemetry::incr("fed.leases_granted", 1);
        if telemetry::enabled() {
            let lender_s = lender.to_string();
            let borrower_s = borrower.to_string();
            telemetry::incr_labeled(
                "fed.shard_leases_granted",
                &[("lender", &lender_s), ("borrower", &borrower_s)],
                1,
            );
        }
        // Open the lease trace: a root span spanning grant → reclaim plus
        // the instantaneous `grant` marker every later span descends from.
        let ltrace = trace::lease_trace(id);
        let root = trace::begin(ltrace, 0, format!("lease {id}"), "lease", "federation", now);
        let grant = trace::complete(
            ltrace,
            root,
            format!("grant {lender}→{borrower} ×{n}"),
            "lease",
            &format!("shard {lender}"),
            now,
            now,
        );
        self.lease_traces.insert(
            id,
            LeaseTraceState {
                root,
                grant,
                ..Default::default()
            },
        );
        self.flightrec.record(
            now,
            "lease_grant",
            Some(lender),
            Some(id),
            format!("to={borrower} procs={} expires={expires}", global.len()),
        );
        let evs = self.bus.send(
            now,
            lender,
            borrower,
            TracedMsg::new(
                TraceCtx {
                    trace: ltrace,
                    parent: grant,
                },
                LeaseMsg::Grant {
                    lease: id,
                    global: global.clone(),
                    expires,
                    lender_epoch: epoch,
                },
            ),
        );
        self.sched_bus(evs);
        self.timers.push(expires, Timer::LeaseExpire(id));
        self.timers
            .push(expires + self.lease_cfg.grace, Timer::LeaseReclaim(id));
        // A grant into a live partition starts its suspicion clock
        // immediately (grants made before the cut arm theirs at
        // `PartitionStart`).
        if self.bus.severed(now, lender, borrower) {
            self.timers
                .push(now + self.lease_cfg.suspicion, Timer::Suspect(id));
        }
        out.push(Notice::LeaseGranted {
            lease: id,
            lender,
            borrower,
            procs: global.len(),
            expires,
        });

        if self.plant_double_grant {
            // Planted fault: wire the SAME processors to a second
            // borrower under a rogue lease the lender never journaled.
            self.plant_double_grant = false;
            if let Some(rogue_to) = (0..self.shards.len())
                .find(|&s| s != borrower && s != lender && self.shards[s].is_live())
            {
                let rogue = self.next_lease;
                self.next_lease += 1;
                self.leases.insert(
                    rogue,
                    Lease {
                        id: rogue,
                        lender,
                        borrower: rogue_to,
                        global: global.clone(),
                        granted_at: now,
                        expires,
                        acked: false,
                        borrower_done: false,
                        reclaimed: true, // lender will never reclaim it
                        lender_epoch: epoch,
                        attached_at: None,
                        fenced_at: None,
                    },
                );
                let evs = self.bus.send(
                    now,
                    lender,
                    rogue_to,
                    // The rogue grant carries no causal context — the
                    // lender never journaled it, so nothing caused it as
                    // far as the trace model is concerned.
                    TracedMsg::from(LeaseMsg::Grant {
                        lease: rogue,
                        global,
                        expires,
                        lender_epoch: epoch,
                    }),
                );
                self.sched_bus(evs);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshape_core::TopologyPref;

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

    fn two_shard_fed() -> Federation {
        let mut cfg = FederationConfig::new(vec![4, 4], vec![TenantConfig::new(64, 1.0, 32)]);
        cfg.lease.min_spare = 0;
        cfg.lease.term = 30.0;
        cfg.lease.grace = 10.0;
        Federation::new(cfg)
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

    #[test]
    fn lend_tops_up_a_starved_shard_and_reclaims_after_release() {
        let mut fed = two_shard_fed();
        // Occupy half of shard 0, then submit a 6-proc job: no shard can
        // start it alone (4+4 pools, shard 0 half busy), so it queues on
        // the idlest shard and lending covers the deficit.
        let n0 = fed.submit(0, 0, spec("fill", 2, 4), 0.0);
        assert_eq!(
            n0.iter()
                .filter(|n| matches!(n, Notice::Started { .. }))
                .count(),
            1
        );
        let n1 = fed.submit(0, 1, spec("big", 6, 1), 1.0);
        assert!(
            n1.iter().any(|n| matches!(n, Notice::LeaseGranted { .. })),
            "starved shard should trigger a lease: {n1:?}"
        );
        // Let the grant cross the bus and the job start.
        let drained = drain_until(&mut fed, 3.0);
        assert!(
            drained.iter().any(|n| matches!(
                n,
                Notice::Started {
                    tag: 1,
                    procs: 6,
                    ..
                }
            )),
            "big job should start on native+borrowed procs: {drained:?}"
        );
        // The big job finishes; the idle borrower releases the lease
        // early and the lender reclaims on Release receipt.
        let shard = fed
            .leases()
            .next()
            .map(|l| l.borrower)
            .expect("one lease exists");
        let job = fed.shards()[shard]
            .core()
            .unwrap()
            .jobs()
            .find(|(_, r)| r.spec.name == "big")
            .map(|(&id, _)| id)
            .unwrap();
        let n2 = fed.finished(shard, job, 5.0);
        assert!(
            n2.iter().any(|n| matches!(n, Notice::LeaseReleased { .. })),
            "idle borrower should release early: {n2:?}"
        );
        let n3 = drain_until(&mut fed, 7.0);
        assert!(
            n2.iter()
                .chain(n3.iter())
                .any(|n| matches!(n, Notice::LeaseReclaimed { .. })),
            "lender should reclaim: {n3:?}"
        );
        assert_eq!(fed.live_leases(), 0);
        for s in fed.shards() {
            let c = s.core().unwrap();
            assert_eq!(c.owned_procs(), s.native());
            assert_eq!(c.lent_procs(), 0);
            assert_eq!(c.borrowed_procs(), 0);
        }
    }

    #[test]
    fn expired_lease_evicts_borrower_then_lender_reclaims() {
        let mut cfg = FederationConfig::new(vec![4, 4], vec![TenantConfig::new(64, 1.0, 32)]);
        cfg.lease.min_spare = 0;
        cfg.lease.term = 10.0;
        cfg.lease.grace = 5.0;
        let mut fed = Federation::new(cfg);
        // Long-running jobs: the lease is still in use at expiry, so the
        // borrower is force-evicted (shrunk back to native processors).
        fed.submit(0, 0, spec("fill", 2, 40), 0.0);
        fed.submit(0, 1, spec("big", 6, 40), 1.0);
        let lease = fed.leases().next().expect("lease granted").id;
        let expires = fed.lease(lease).unwrap().expires;
        drain_until(&mut fed, expires);
        assert!(
            fed.lease(lease).unwrap().acked,
            "borrower should have acked"
        );
        // Expiry evicts the borrower's jobs off the borrowed slots.
        let n = fed.run_timers(expires);
        assert!(
            n.iter().any(|x| matches!(x, Notice::Evicted { .. })),
            "expiry must shrink the job off borrowed slots: {n:?}"
        );
        assert!(
            n.iter().any(|x| matches!(x, Notice::LeaseReleased { .. })),
            "expiry must release the lease: {n:?}"
        );
        let borrower = fed.lease(lease).unwrap().borrower;
        assert_eq!(fed.shards()[borrower].core().unwrap().borrowed_procs(), 0);
        // Reclaim happens by Release receipt or at the grace deadline.
        let n2 = drain_until(&mut fed, expires + 6.0);
        assert!(
            n.iter()
                .chain(n2.iter())
                .any(|x| matches!(x, Notice::LeaseReclaimed { .. })),
            "lender must reclaim: {n2:?}"
        );
        assert!(fed.lease(lease).unwrap().resolved());
    }

    #[test]
    fn brownout_engages_at_high_water_and_releases_at_low_water() {
        let mut cfg = FederationConfig::new(vec![2], vec![TenantConfig::new(64, 1.0, 32)]);
        cfg.brownout.queue_high = 3;
        cfg.brownout.queue_low = 1;
        let mut fed = Federation::new(cfg);
        // One running job, then queue up to the threshold.
        fed.submit(0, 0, spec("run", 2, 100), 0.0);
        let mut engaged_at = None;
        for i in 1..=3u64 {
            let n = fed.submit(0, i, spec(&format!("q{i}"), 2, 1), i as f64);
            if n.iter()
                .any(|x| matches!(x, Notice::BrownoutEngaged { .. }))
            {
                engaged_at = Some(i);
            }
        }
        assert_eq!(
            engaged_at,
            Some(3),
            "brownout must engage exactly when depth hits queue_high"
        );
        assert!(fed.shards()[0].core().unwrap().expand_paused());
        // Drain: finishing the runner starts queued jobs one at a time
        // (each is 2 procs on a 2-proc shard).
        let job = |fed: &Federation, name: &str| {
            fed.shards()[0]
                .core()
                .unwrap()
                .jobs()
                .find(|(_, r)| r.spec.name == name && !r.state.is_terminal())
                .map(|(&id, _)| id)
        };
        let mut released = false;
        let mut t = 10.0;
        for name in ["run", "q1", "q2", "q3"] {
            if let Some(id) = job(&fed, name) {
                let n = fed.finished(0, id, t);
                t += 1.0;
                let depth = fed.shards()[0].core().unwrap().queue_len();
                if n.iter()
                    .any(|x| matches!(x, Notice::BrownoutReleased { .. }))
                {
                    released = true;
                    assert!(
                        depth <= 1,
                        "release only at or below queue_low, depth={depth}"
                    );
                }
                // Hysteresis edges hold after every transition.
                let s = &fed.shards()[0];
                if depth >= 3 {
                    assert!(s.brownout());
                }
                if depth <= 1 {
                    assert!(!s.brownout());
                }
            }
        }
        assert!(released, "brownout must release once the queue drains");
        assert!(!fed.shards()[0].core().unwrap().expand_paused());
    }

    #[test]
    fn killed_borrower_recovers_evicts_overdue_lease_and_ledger_heals() {
        let mut cfg = FederationConfig::new(vec![4, 4], vec![TenantConfig::new(64, 1.0, 32)]);
        cfg.lease.min_spare = 0;
        cfg.lease.term = 10.0;
        cfg.lease.grace = 5.0;
        let mut fed = Federation::new(cfg);
        fed.submit(0, 0, spec("fill", 2, 40), 0.0);
        fed.submit(0, 1, spec("big", 6, 40), 1.0);
        let lease = fed.leases().next().expect("lease granted").id;
        // Deliver the grant, then crash the borrower mid-lease.
        drain_until(&mut fed, 3.0);
        let borrower = fed.lease(lease).unwrap().borrower;
        assert!(fed.shards()[borrower].core().unwrap().borrowed_procs() > 0);
        let (was_live, _) = fed.kill_shard(borrower, 3.0);
        assert!(was_live);
        // The lease expires and the grace deadline passes while the
        // borrower is down: the lender reclaims unilaterally.
        let n = fed.run_timers(16.0);
        assert!(
            n.iter().any(|x| matches!(x, Notice::LeaseReclaimed { .. })),
            "lender reclaims at expires+grace with borrower down: {n:?}"
        );
        let lender = fed.lease(lease).unwrap().lender;
        assert_eq!(fed.shards()[lender].core().unwrap().lent_procs(), 0);
        // Recovery replays the WAL to the exact crash state, then the
        // fixup evicts the overdue lease before anything can schedule.
        let (report, notices) = fed.recover_shard(borrower, 20.0);
        let report = report.expect("shard was down");
        assert!(
            report.snapshot_match,
            "WAL replay must equal the crash image"
        );
        assert!(
            report.quarantined.is_none(),
            "clean WAL quarantines nothing"
        );
        assert!(
            notices
                .iter()
                .any(|x| matches!(x, Notice::LeaseReleased { .. })),
            "recovery fixup must evict the overdue lease: {notices:?}"
        );
        assert_eq!(fed.shards()[borrower].core().unwrap().borrowed_procs(), 0);
        assert!(fed.lease(lease).unwrap().resolved());
        drain_until(&mut fed, 30.0);
        for s in fed.shards() {
            let c = s.core().unwrap();
            assert_eq!(c.owned_procs(), s.native(), "shard {}", s.id());
        }
    }

    #[test]
    fn deferred_traffic_replays_in_order_at_recovery() {
        let mut fed = Federation::new(FederationConfig::new(
            vec![2, 2],
            vec![TenantConfig::new(64, 1.0, 32)],
        ));
        let n = fed.submit(0, 0, spec("a", 2, 10), 0.0);
        let job = n
            .iter()
            .find_map(|x| match x {
                Notice::Started { job, .. } => Some(*job),
                _ => None,
            })
            .unwrap();
        fed.kill_shard(0, 1.0);
        // Checkin and finish arrive while the shard is down.
        let n1 = fed.checkin(0, job, 0.5, 0.0, 2.0);
        assert!(
            !n1.iter().any(|x| matches!(x, Notice::Directive { .. })),
            "down shard cannot answer a checkin"
        );
        let n2 = fed.finished(0, job, 3.0);
        assert!(n2.is_empty());
        // Survivor keeps working through the outage.
        let n3 = fed.submit(0, 7, spec("b", 2, 10), 3.5);
        assert!(
            n3.iter()
                .any(|x| matches!(x, Notice::Started { shard: 1, .. })),
            "survivor must keep admitting: {n3:?}"
        );
        let (report, notices) = fed.recover_shard(0, 4.0);
        assert!(report.unwrap().snapshot_match);
        // Replay answered the checkin, then applied the finish.
        assert!(
            notices
                .iter()
                .any(|x| matches!(x, Notice::Directive { .. })),
            "deferred checkin must replay: {notices:?}"
        );
        let core = fed.shards()[0].core().unwrap();
        // Finished, retired, and pruned with the shard's next refresh.
        assert!(core.job(job).is_none());
        assert_eq!(core.idle_procs(), 2);
    }

    #[test]
    fn duplicated_and_reordered_expiry_events_evict_exactly_once() {
        use reshape_core::ctrl::ChaosConfig;
        let mut cfg = FederationConfig::new(vec![4, 4], vec![TenantConfig::new(64, 1.0, 32)]);
        cfg.lease.min_spare = 0;
        cfg.lease.term = 10.0;
        cfg.lease.grace = 5.0;
        // Chaotic wire: the Release/Ack traffic around the expiry is
        // duplicated and reordered under the federation.
        cfg.bus.chaos = Some(ChaosConfig {
            loss: 0.0,
            dup: 0.5,
            reorder: 0.5,
            seed: 0xD0_5E,
        });
        let mut fed = Federation::new(cfg);
        fed.submit(0, 0, spec("fill", 2, 40), 0.0);
        fed.submit(0, 1, spec("big", 6, 40), 1.0);
        let lease = fed.leases().next().expect("lease granted").id;
        let expires = fed.lease(lease).unwrap().expires;
        drain_until(&mut fed, expires);
        // Plant duplicated and reordered copies of the expiry and reclaim
        // deadlines — a crash-recovery re-arm or a timer-wheel bug looks
        // exactly like this.
        fed.timers.push(expires, Timer::LeaseExpire(lease));
        fed.timers.push(expires + 0.25, Timer::LeaseExpire(lease));
        fed.timers.push(expires + 5.0, Timer::LeaseReclaim(lease));
        fed.timers.push(expires + 5.5, Timer::LeaseReclaim(lease));
        fed.timers.push(expires + 6.0, Timer::LeaseExpire(lease));
        let mut all = drain_until(&mut fed, expires + 20.0);
        all.extend(fed.run_timers(expires + 20.0));
        let released = all
            .iter()
            .filter(|x| matches!(x, Notice::LeaseReleased { lease: l } if *l == lease))
            .count();
        let reclaimed = all
            .iter()
            .filter(|x| matches!(x, Notice::LeaseReclaimed { lease: l } if *l == lease))
            .count();
        let evicted = all
            .iter()
            .filter(|x| matches!(x, Notice::Evicted { .. }))
            .count();
        assert_eq!(
            evicted, 1,
            "one eviction despite duplicate expiries: {all:?}"
        );
        assert_eq!(
            released, 1,
            "one release despite duplicate expiries: {all:?}"
        );
        assert_eq!(
            reclaimed, 1,
            "one reclaim despite duplicate deadlines: {all:?}"
        );
        assert!(fed.lease(lease).unwrap().resolved());
        for s in fed.shards() {
            let c = s.core().unwrap();
            assert_eq!(c.owned_procs(), s.native());
            assert_eq!(c.lent_procs(), 0);
            assert_eq!(c.borrowed_procs(), 0);
        }
    }

    #[test]
    fn suspicion_fences_severed_lease_and_heal_evicts_the_stale_borrow() {
        let mut cfg = FederationConfig::new(vec![4, 4], vec![TenantConfig::new(64, 1.0, 32)]);
        cfg.lease.min_spare = 0;
        cfg.lease.term = 60.0;
        cfg.lease.grace = 10.0;
        cfg.lease.suspicion = 5.0;
        let mut fed = Federation::new(cfg);
        fed.submit(0, 0, spec("fill", 2, 100), 0.0);
        fed.submit(0, 1, spec("big", 6, 100), 1.0);
        let lease = fed.leases().next().expect("lease granted").id;
        drain_until(&mut fed, 3.0);
        let (lender, borrower) = {
            let l = fed.lease(lease).unwrap();
            (l.lender, l.borrower)
        };
        assert!(fed.shards()[borrower].core().unwrap().borrowed_procs() > 0);
        // Sever the pair at t=5; the suspicion timeout fires at t=10, long
        // before the lease term.
        fed.inject_partition(vec![vec![lender], vec![borrower]], 5.0, 25.0);
        let n = drain_until(&mut fed, 24.0);
        assert!(n
            .iter()
            .any(|x| matches!(x, Notice::PartitionStarted { .. })));
        assert!(
            n.iter().any(
                |x| matches!(x, Notice::LeaseFenced { lease: l, epoch: 1, .. } if *l == lease)
            ),
            "suspicion must fence the severed lease: {n:?}"
        );
        assert_eq!(fed.shards()[lender].core().unwrap().epoch(), 1);
        assert!(fed.lease(lease).unwrap().fenced());
        assert_eq!(fed.fences(), 1);
        // While fenced the borrower still holds the slots (it cannot know
        // yet); the heal digest is what evicts it, as a journaled repair.
        let mut all = drain_until(&mut fed, 40.0);
        all.extend(fed.run_timers(40.0));
        assert!(all
            .iter()
            .any(|x| matches!(x, Notice::PartitionHealed { .. })));
        assert!(
            all.iter().any(|x| matches!(
                x,
                Notice::HealRepaired { lease: l, action: HealAction::EvictStaleBorrow, .. }
                if *l == lease
            )),
            "heal must evict the stale borrow: {all:?}"
        );
        assert!(
            all.iter()
                .any(|x| matches!(x, Notice::LeaseReclaimed { lease: l } if *l == lease)),
            "the eviction's release lets the fenced lender reclaim: {all:?}"
        );
        assert_eq!(fed.heal_repairs(), 1);
        assert_eq!(fed.heal_repairs_of(HealRepairKind::EvictStaleBorrow), 1);
        assert_eq!(fed.heal_repairs_of(HealRepairKind::RecoveryFixup), 0);
        assert_eq!(fed.heal_repairs_of(HealRepairKind::ReturnEscrow), 0);
        assert!(fed.lease(lease).unwrap().resolved());
        for s in fed.shards() {
            let c = s.core().unwrap();
            assert_eq!(c.owned_procs(), s.native(), "shard {}", s.id());
            assert_eq!(c.lent_procs(), 0);
            assert_eq!(c.borrowed_procs(), 0);
        }
        // The flight recorder saw the whole story.
        let kinds: Vec<&str> = fed.flightrec().events().map(|e| e.kind).collect();
        for expect in [
            "lease_grant",
            "lease_attach",
            "partition_start",
            "suspect_timeout",
            "epoch_bump",
            "lease_fenced",
            "partition_heal",
            "digest_send",
            "heal_repair",
            "lease_evict",
            "lease_reclaim",
        ] {
            assert!(kinds.contains(&expect), "missing {expect}: {kinds:?}");
        }
    }

    #[test]
    fn never_attached_grant_is_fenced_and_escrow_returned_by_heal_digest() {
        let mut cfg = FederationConfig::new(vec![4, 4], vec![TenantConfig::new(64, 1.0, 32)]);
        cfg.lease.min_spare = 0;
        cfg.lease.term = 60.0;
        cfg.lease.grace = 30.0;
        cfg.lease.suspicion = 5.0;
        // One lend attempt only, so the post-heal ledger shows exactly what
        // the repair did (no fresh re-grant on the healed wire).
        cfg.lease.retry_backoff = 1000.0;
        let mut fed = Federation::new(cfg);
        // The partition is already live when the grant is minted: the
        // Grant frame dies on the wire and the borrower never attaches.
        fed.inject_partition(vec![vec![0], vec![1]], 0.5, 20.0);
        fed.run_timers(0.6);
        fed.submit(0, 0, spec("fill", 2, 100), 0.7);
        let n = fed.submit(0, 1, spec("big", 6, 100), 1.0);
        assert!(
            n.iter().any(|x| matches!(x, Notice::LeaseGranted { .. })),
            "the lender cannot know the pair is severed at grant time: {n:?}"
        );
        let lease = fed.leases().next().unwrap().id;
        let (lender, borrower) = {
            let l = fed.lease(lease).unwrap();
            (l.lender, l.borrower)
        };
        // Grant-time suspicion fences the lease; the grant never attached.
        let n2 = drain_until(&mut fed, 19.0);
        assert!(
            n2.iter()
                .any(|x| matches!(x, Notice::LeaseFenced { lease: l, .. } if *l == lease)),
            "grant into a live partition must arm its own suspicion: {n2:?}"
        );
        assert!(fed.lease(lease).unwrap().attached_at.is_none());
        assert_eq!(fed.shards()[borrower].core().unwrap().borrowed_procs(), 0);
        assert!(fed.shards()[lender].core().unwrap().lent_procs() > 0);
        assert!(
            fed.partition_drops() > 0,
            "the grant and its retransmits must die at the boundary"
        );
        // At heal the borrower's digest proves it never attached, so the
        // lender returns the escrow without waiting out expires+grace.
        let mut all = drain_until(&mut fed, 30.0);
        all.extend(fed.run_timers(30.0));
        assert!(
            all.iter().any(|x| matches!(
                x,
                Notice::HealRepaired { lease: l, action: HealAction::ReturnEscrow, .. }
                if *l == lease
            )),
            "unattached fenced escrow must return at heal: {all:?}"
        );
        let l = fed.lease(lease).unwrap();
        assert!(l.resolved(), "lease must resolve well before expires+grace");
        assert!(
            l.attached_at.is_none(),
            "the late grant redelivery must be refused"
        );
        assert_eq!(fed.shards()[lender].core().unwrap().lent_procs(), 0);
        assert_eq!(fed.shards()[lender].core().unwrap().owned_procs(), 4);
    }

    #[test]
    fn corrupt_down_wal_recovers_prefix_and_quarantines_remainder() {
        let mut fed = Federation::new(FederationConfig::new(
            vec![2],
            vec![TenantConfig::new(64, 1.0, 32)],
        ));
        let n = fed.submit(0, 0, spec("a", 2, 10), 0.0);
        let job = n
            .iter()
            .find_map(|x| match x {
                Notice::Started { job, .. } => Some(*job),
                _ => None,
            })
            .unwrap();
        fed.submit(0, 1, spec("b", 2, 10), 0.5); // queued behind `a`
        fed.finished(0, job, 1.0); // `a` done, `b` starts — more WAL history
        fed.kill_shard(0, 2.0);
        let mid = fed.shards()[0].down_wal().unwrap().len() / 2;
        assert!(fed.chaos_corrupt_down_wal(0, mid), "byte must be in range");
        let (report, _) = fed.recover_shard(0, 3.0);
        let report = report.expect("shard was down");
        assert!(
            report.quarantined.is_some(),
            "interior corruption must be quarantined, not replayed"
        );
        assert!(
            !report.snapshot_match,
            "a salvaged prefix cannot reproduce the crash image"
        );
        // The shard is back in service on the last-good prefix.
        assert!(fed.shards()[0].is_live());
        let n2 = fed.submit(0, 2, spec("c", 1, 1), 4.0);
        assert!(
            n2.iter()
                .any(|x| matches!(x, Notice::Admitted { .. } | Notice::Started { .. })),
            "salvaged shard must keep scheduling: {n2:?}"
        );
    }

    #[test]
    fn corrupt_genesis_line_leaves_the_shard_down_without_panicking() {
        let mut fed = Federation::new(FederationConfig::new(
            vec![2, 2],
            vec![TenantConfig::new(64, 1.0, 32)],
        ));
        fed.submit(0, 0, spec("a", 2, 10), 0.0);
        fed.submit(0, 1, spec("b", 2, 10), 0.5);
        fed.kill_shard(0, 1.0);
        fed.kill_shard(1, 1.0);
        let clean = fed.shards()[0].down_wal().unwrap().to_string();
        let line_one = clean.find('\n').unwrap();
        let mut now = 2.0;
        // Every byte of the genesis line, its newline included: salvage
        // keeps zero records, so there is no configuration to rebuild from.
        for pos in 0..=line_one {
            assert!(fed.chaos_corrupt_down_wal(0, pos));
            let damaged = fed.shards()[0].down_wal().unwrap().to_string();
            let (report, _) = fed.recover_shard(0, now);
            assert!(
                report.is_none(),
                "byte {pos}: nothing replayable, nothing to report"
            );
            let sh = &fed.shards()[0];
            assert!(!sh.is_live(), "byte {pos}: shard must stay down");
            assert_eq!(
                sh.down_wal(),
                Some(damaged.as_str()),
                "byte {pos}: evidence kept"
            );
            assert!(sh.crash_core().is_some());
            assert!(fed.chaos_corrupt_down_wal(0, pos)); // flip it back
            now += 0.01;
        }
        assert_eq!(
            fed.flightrec()
                .events()
                .filter(|e| e.kind == "shard_recover_failed" && e.shard == Some(0))
                .count(),
            line_one + 1
        );
        // The neighbour is untouched by shard 0's failures, and shard 0
        // itself comes back once its text is whole again.
        for shard in [1, 0] {
            let (report, _) = fed.recover_shard(shard, now);
            assert!(report.expect("shard was down").snapshot_match);
            assert!(fed.shards()[shard].is_live());
        }
    }

    #[test]
    fn checksummed_bad_genesis_leaves_the_shard_down_without_panicking() {
        let mut fed = Federation::new(FederationConfig::new(
            vec![2],
            vec![TenantConfig::new(64, 1.0, 32)],
        ));
        fed.submit(0, 0, spec("a", 2, 10), 0.0);
        fed.kill_shard(0, 1.0);
        // Each passes its checksum and parses, but no core can be built
        // from it: an event cap of 0, a slot speed of 0, no slot speeds.
        let bad = [
            "open 4 fcfs paper 0 lowest 0",
            "open 2 fcfs paper 1024 lowest 1 2 3ff0000000000000 0000000000000000",
            "open 0 fcfs paper 1024 lowest 1 0",
        ];
        for (i, payload) in bad.iter().enumerate() {
            let line = format!(
                "{:08x} {payload}\n",
                reshape_core::wal::crc32(payload.as_bytes())
            );
            let ShardState::Down { wal_text, .. } = &mut fed.shards[0].state else {
                unreachable!("killed above");
            };
            *wal_text = line.clone();
            let (report, _) = fed.recover_shard(0, 2.0 + i as f64);
            assert!(report.is_none(), "`{payload}` must not recover");
            assert!(!fed.shards()[0].is_live(), "`{payload}`: shard stays down");
            assert_eq!(fed.shards()[0].down_wal(), Some(line.as_str()));
        }
        let failures: Vec<String> = fed
            .flightrec()
            .events()
            .filter(|e| e.kind == "shard_recover_failed")
            .map(|e| e.detail.clone())
            .collect();
        assert_eq!(failures.len(), bad.len(), "{failures:?}");
        assert!(failures[0].contains("events_cap"), "{failures:?}");
        assert!(failures[1].contains("slot speed"), "{failures:?}");
        assert!(failures[2].contains("slot_speeds is empty"), "{failures:?}");
    }

    #[test]
    fn shed_when_router_queue_full() {
        let mut fed = Federation::new(FederationConfig::new(
            vec![2],
            vec![TenantConfig::new(2, 1.0, 1)],
        ));
        fed.submit(0, 0, spec("a", 2, 10), 0.0); // admitted (quota 2)
        let n1 = fed.submit(0, 1, spec("b", 2, 10), 0.1); // over quota → queued
        assert!(n1.iter().any(|x| matches!(x, Notice::RouterQueued { .. })));
        let n2 = fed.submit(0, 2, spec("c", 2, 10), 0.2); // queue full → shed
        assert!(
            n2.iter().any(|x| matches!(x, Notice::Shed { tag: 2, .. })),
            "router queue bound must shed: {n2:?}"
        );
        assert_eq!(fed.tenant_shed(0), 1);
    }
}
