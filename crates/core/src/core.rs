//! The scheduler state machine shared by the real threaded runtime and the
//! discrete-event cluster simulator.
//!
//! [`SchedulerCore`] combines the paper's Application Scheduler (queue +
//! FCFS/backfill allocation), Performance Profiler, and Remap Scheduler
//! policy into one synchronous object: callers feed it events (submission,
//! resize points, completions) stamped with a time, and it returns the
//! actions to actuate (jobs to start, expand/shrink directives). Keeping it
//! synchronous makes every scheduling experiment deterministic and lets the
//! same policy code drive both real threads and simulated clusters.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use serde::{Deserialize, Serialize};

use crate::job::{IdMap, JobId, JobSpec, JobState};
use crate::policy::{decide_with, RemapDecision, RemapPolicy, SystemSnapshot};
use crate::pool::ResourcePool;
use crate::profiler::{JobProfile, Profiler, Resize};
use crate::topology::ProcessorConfig;
use crate::wal::{self, HealAction, Scan, Wal, WalError, WalRecord, WalSalvage};

/// Queueing discipline for initial allocations (paper §3.1: "two basic
/// resource allocation policies, First Come First Served (FCFS) and simple
/// backfill").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueuePolicy {
    Fcfs,
    Backfill,
}

/// A job the scheduler should start now.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StartAction {
    pub job: JobId,
    pub config: ProcessorConfig,
    /// Processor slots granted (slot `s` = node `s / slots_per_node`).
    pub slots: Vec<usize>,
}

/// Directive returned to a job at its resize point, with the resources to
/// actuate it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Directive {
    Expand {
        to: ProcessorConfig,
        /// Slots granted for the new processes.
        new_slots: Vec<usize>,
    },
    Shrink {
        to: ProcessorConfig,
    },
    NoChange,
    /// The job was cancelled: stop iterating, every process exits. The
    /// scheduler has already reclaimed the job's processors.
    Terminate,
}

/// Scheduler bookkeeping for one job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    pub spec: JobSpec,
    pub state: JobState,
    pub slots: Vec<usize>,
    pub submitted_at: f64,
    pub started_at: Option<f64>,
    pub finished_at: Option<f64>,
}

/// An entry of the scheduling trace (drives the paper's Figures 4 and 5).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedEvent {
    pub time: f64,
    pub job: JobId,
    pub kind: EventKind,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    Submitted,
    Started {
        config: ProcessorConfig,
    },
    Expanded {
        from: ProcessorConfig,
        to: ProcessorConfig,
    },
    Shrunk {
        from: ProcessorConfig,
        to: ProcessorConfig,
    },
    /// An expansion directive could not be actuated (spawn failure); the job
    /// reverted to `from` and the granted processors returned to the pool.
    ExpandFailed {
        from: ProcessorConfig,
        to: ProcessorConfig,
    },
    /// A node hosting part of the job died; the dead slots were reclaimed
    /// and the job kept running, force-shrunk to the survivors.
    NodeFailed {
        from: ProcessorConfig,
        to: ProcessorConfig,
        lost: usize,
    },
    Finished,
    Failed {
        reason: String,
    },
    Cancelled,
}

/// Identifier of an advance reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReservationId(pub u64);

/// An advance reservation: `procs` processors withheld from ordinary
/// scheduling during `[start, end)`. Jobs submitted against the
/// reservation (via [`SchedulerCore::submit_reserved`]) may draw on the
/// withheld processors inside the window. Running resizable jobs that
/// squat on reserved capacity when the window opens are shrunk through the
/// normal shrink-for-queue rule — the reservation deficit is presented to
/// the Remap Scheduler as queued demand.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Reservation {
    pub id: ReservationId,
    pub start: f64,
    pub end: f64,
    pub procs: usize,
}

impl Reservation {
    fn active(&self, now: f64) -> bool {
        now >= self.start && now < self.end
    }
}

/// Default retention cap for the scheduling trace (see
/// [`SchedulerCore::with_event_cap`]).
pub const DEFAULT_EVENT_CAP: usize = 65_536;

/// The most processor slots a pool rebuilt from a WAL may hold: its native
/// slots plus the foreign ids it ever minted. A checksummed `open` or
/// `ckpt` that declares more is refused as [`WalError::BadGenesis`] before
/// the pool is allocated, so an absurd size is an error and not an
/// allocation that aborts. 2^24 is 1 677 times the largest pool this
/// workspace builds (the 10 000 nodes of the DES scale sweep); a pool that
/// size holds 128 MiB of slot speeds.
const MAX_WAL_SLOTS: usize = 1 << 24;

/// A live borrowed lease on the borrower side: the foreign processors'
/// federation-global ids and the local slot ids the pool minted for them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BorrowedLease {
    /// Local slot ids (minted at the pool's high-water mark, `>= total`).
    pub local: Vec<usize>,
    /// Federation-global processor ids, as carried by the lease grant.
    pub global: Vec<usize>,
    /// The lender's fencing epoch at grant time (0 in pre-epoch streams) —
    /// the partition oracle audits attachments against the lender's current
    /// epoch to prove no lease is honored across a fence.
    #[serde(default)]
    pub lender_epoch: u64,
}

/// What a lease eviction did: jobs force-shrunk off borrowed slots, jobs
/// failed because nothing remained, and how many slots left the pool.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EvictOutcome {
    /// `(job, from, to)` for every job shrunk off the lease's slots.
    pub shrunk: Vec<(JobId, ProcessorConfig, ProcessorConfig)>,
    /// Jobs that held only borrowed slots and failed outright.
    pub failed: Vec<JobId>,
    /// Borrowed slots detached (0 when the lease was unknown — a duplicate
    /// eviction is a no-op).
    pub detached: usize,
}

/// Everything a [`SchedulerCore`] knows, deep-copied into order-normalized
/// containers so equality is well-defined: its durable state (what a
/// checkpoint carries), the pool's accounting, the queue, the retired jobs
/// and the event trace. Produced by [`SchedulerCore::snapshot`]; the
/// crash-restart testkit asserts the recovered core's snapshot equals the
/// pre-crash one field for field, and [`SchedulerCore::same_state`] is the
/// same test computed in place.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreSnapshot {
    pub total_procs: usize,
    /// Free slot ids, ascending — pool accounting.
    pub free_slots: Vec<usize>,
    /// Queue order, head first.
    pub queue: Vec<JobId>,
    pub jobs: BTreeMap<JobId, JobRecord>,
    /// Profiler history per job.
    pub profiles: BTreeMap<JobId, JobProfile>,
    pub next_id: u64,
    pub reservations: Vec<Reservation>,
    pub next_reservation: u64,
    pub bindings: BTreeMap<JobId, ReservationId>,
    pub pending_cancel: BTreeSet<JobId>,
    pub busy_proc_seconds: f64,
    pub last_tick: f64,
    pub events: Vec<SchedEvent>,
    pub events_dropped: u64,
    /// Lender-side leases: lease id → native slots away under it.
    pub lent_leases: BTreeMap<u64, Vec<usize>>,
    /// Borrower-side leases: lease id → attached foreign slots.
    pub borrowed_leases: BTreeMap<u64, BorrowedLease>,
    /// Foreign-slot ids ever minted (behavioral: recovery must mint the
    /// same ids going forward).
    pub foreign_minted: usize,
    /// Brownout: expansion grants currently paused.
    pub expand_paused: bool,
    /// Partition-fencing epoch (monotonic; see
    /// [`SchedulerCore::bump_epoch`]).
    pub epoch: u64,
}

/// The part of a [`SchedulerCore`]'s state that a checkpoint carries
/// verbatim, listed once. Compaction encodes it in place, `restore`
/// assigns it whole, and [`SchedulerCore::same_state`] compares it with the derived
/// `==`: map equality for the id-keyed maps (hash order does not matter),
/// `==` for the `f64`s, and no allocation. The `ckpt` codec destructures
/// it, so a field added here does not compile until the codec writes and
/// reads it.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub(crate) struct DurableState {
    pub(crate) next_id: u64,
    pub(crate) next_reservation: u64,
    /// Partition-fencing epoch: a monotonic counter the federation bumps
    /// when this shard, as a lender, loses contact with a borrower past the
    /// suspicion timeout. Leases minted under an older epoch are fenced —
    /// never honored or extended. Persisted via [`WalRecord::EpochBump`];
    /// replay restores it exactly.
    pub(crate) epoch: u64,
    pub(crate) events_dropped: u64,
    // Utilization integral: busy processor-seconds and its last update time.
    pub(crate) busy_proc_seconds: f64,
    pub(crate) last_tick: f64,
    /// Brownout: while set, `resize_point` downgrades every Expand decision
    /// to NoChange (shrinks and completions proceed).
    pub(crate) expand_paused: bool,
    pub(crate) reservations: Vec<Reservation>,
    /// Lender-side lease ledger: lease id → native slots lent under it.
    pub(crate) lent_leases: BTreeMap<u64, Vec<usize>>,
    /// Borrower-side lease ledger: lease id → attached foreign slots.
    pub(crate) borrowed_leases: BTreeMap<u64, BorrowedLease>,
    /// Jobs a later transition can act on: queued, running, and cancelled
    /// while running until the resize point that delivers `Terminate`. A
    /// live job in state `Cancelled` is owed that `Terminate`.
    pub(crate) jobs: IdMap<JobId, JobRecord>,
    /// Job → reservation it is entitled to draw on.
    pub(crate) bindings: IdMap<JobId, ReservationId>,
    /// The profiler is its per-job map and nothing else.
    pub(crate) profiler: Profiler,
}

impl DurableState {
    /// The live jobs owed a `Terminate`: those in state `Cancelled`.
    pub(crate) fn pending_cancel(&self) -> impl Iterator<Item = JobId> + '_ {
        self.jobs
            .iter()
            .filter(|(_, job)| matches!(job.state, JobState::Cancelled { .. }))
            .map(|(&id, _)| id)
    }
}

/// The live state of a core whose WAL was compacted: what a
/// [`WalRecord::Checkpoint`] carries. It is the core's `DurableState` and
/// the pool's free slots and minted count: every field
/// [`SchedulerCore::same_state`] compares, bar the event trace and the
/// terminal jobs, which compaction drops. The queue is the queued jobs,
/// ordered by priority and id, each needing its initial configuration; the
/// pool's lent and borrowed slots are the lease tables' slots. Not
/// exported: decoding a `ckpt` line builds it and replay restores it;
/// [`SchedulerCore::compact_wal`] writes that line from the live core
/// without building one.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Checkpoint {
    pub(crate) state: DurableState,
    /// Foreign-slot ids ever minted.
    pub(crate) foreign_minted: usize,
    /// Free slot ids, ascending.
    pub(crate) free_slots: Vec<usize>,
    /// The jobs owed a `Terminate`, ascending, as the line lists them: a
    /// core writes its live cancelled jobs, and `restore` refuses any other
    /// list.
    pub(crate) pending_cancel: Vec<JobId>,
}

/// The combined scheduler state machine.
pub struct SchedulerCore {
    pool: ResourcePool,
    policy: QueuePolicy,
    /// Waiting jobs in admission order, each with its initial processor
    /// need. Higher priority first, submission order among equals: ids are
    /// monotone and only `submit_inner` inserts, so the key order *is* the
    /// queue order and insert, head peek and removal are all `O(log q)`.
    /// A requeue path would break that and need an explicit sequence
    /// number in the key.
    queue: BTreeMap<(Reverse<u8>, JobId), usize>,
    /// Everything a checkpoint carries verbatim, live jobs and profiler
    /// included.
    state: DurableState,
    /// Terminal jobs, moved out of the live jobs by the transition that
    /// ended them. Their profiles and reservation bindings stay keyed by id
    /// in the profiler and the bindings;
    /// [`SchedulerCore::prune_terminal`] drops all three.
    retired: IdMap<JobId, JobRecord>,
    events: Vec<SchedEvent>,
    /// Retention cap for `events`; oldest entries are dropped beyond it so
    /// a long-lived scheduler cannot grow without bound.
    events_cap: usize,
    remap_policy: RemapPolicy,
    /// Testing backdoor: when set, `on_failed` "forgets" to release the
    /// failed job's processors — a planted pool leak the invariant oracle
    /// must catch. Never enabled outside tests.
    chaos_leak_on_failure: bool,
    /// Write-ahead log: when attached, every public transition is appended
    /// before it is applied. See [`crate::wal`].
    wal: Option<Wal>,
    /// Open causal-trace spans per live job: `(job root, queue-wait)`.
    /// Runtime-only bookkeeping — not part of [`CoreSnapshot`] equality
    /// (traces are an observability layer, not scheduler state).
    trace_ids: IdMap<JobId, (u64, u64)>,
}

impl SchedulerCore {
    pub fn new(total_procs: usize, policy: QueuePolicy) -> Self {
        SchedulerCore {
            pool: ResourcePool::new(total_procs),
            policy,
            queue: BTreeMap::new(),
            state: DurableState {
                next_id: 1,
                next_reservation: 1,
                epoch: 0,
                events_dropped: 0,
                busy_proc_seconds: 0.0,
                last_tick: 0.0,
                expand_paused: false,
                reservations: Vec::new(),
                lent_leases: BTreeMap::new(),
                borrowed_leases: BTreeMap::new(),
                jobs: IdMap::default(),
                bindings: IdMap::default(),
                profiler: Profiler::new(),
            },
            retired: IdMap::default(),
            events: Vec::new(),
            events_cap: DEFAULT_EVENT_CAP,
            remap_policy: RemapPolicy::default(),
            chaos_leak_on_failure: false,
            wal: None,
            trace_ids: IdMap::default(),
        }
    }

    /// Plant a processor leak in the failure path: subsequent `on_failed`
    /// calls keep the job's slots allocated instead of releasing them.
    /// Exists so the testkit can prove its invariant oracle detects leaks;
    /// do not use outside tests.
    #[doc(hidden)]
    pub fn chaos_skip_release_on_failure(&mut self, on: bool) {
        self.chaos_leak_on_failure = on;
    }

    /// Select the Remap Scheduler policy variant (default: the paper's).
    pub fn with_remap_policy(mut self, policy: RemapPolicy) -> Self {
        self.remap_policy = policy;
        self
    }

    /// Cap the scheduling trace at `cap` events (default
    /// `DEFAULT_EVENT_CAP`, 65 536); the oldest events are dropped beyond it
    /// and counted in [`CoreSnapshot::events_dropped`]. Consumers that need
    /// the full trace should call [`SchedulerCore::drain_events`]
    /// periodically instead of raising the cap.
    pub fn with_event_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "event cap must be at least 1");
        self.events_cap = cap;
        self
    }

    /// Append to the scheduling trace, enforcing the retention cap. Drops
    /// the oldest half in one pass so the amortized cost stays O(1).
    fn push_event(&mut self, ev: SchedEvent) {
        if self.events.len() >= self.events_cap {
            let drop = (self.events_cap / 2).max(1);
            self.events.drain(..drop);
            self.state.events_dropped += drop as u64;
            reshape_telemetry::incr("core.sched_events_dropped", drop as u64);
        }
        self.events.push(ev);
        reshape_telemetry::incr("core.sched_events", 1);
        reshape_telemetry::gauge_set("core.queue_depth", self.queue.len() as f64);
    }

    /// Replace the processor pool with a heterogeneous one (per-slot speed
    /// factors; allocation prefers fast slots). Must be called before any
    /// job is submitted.
    pub fn with_slot_speeds(mut self, speeds: Vec<f64>) -> Self {
        assert!(
            self.state.next_id == 1,
            "set slot speeds before submitting jobs"
        );
        self.pool = ResourcePool::new_heterogeneous(speeds);
        self
    }

    /// Replace the pool's allocation order (placement ablations).
    pub fn with_alloc_order(mut self, order: crate::pool::AllocOrder) -> Self {
        assert!(
            self.state.next_id == 1,
            "set allocation order before submitting jobs"
        );
        self.pool = self.pool.with_order(order);
        self
    }

    /// Speed factor of a processor slot (1.0 on homogeneous clusters).
    pub fn slot_speed(&self, slot: usize) -> f64 {
        self.pool.speed(slot)
    }

    // ------------------------------------------------------------------
    // Durability: write-ahead log and crash recovery
    // ------------------------------------------------------------------

    /// Attach a fresh write-ahead log. Must be called before any job is
    /// submitted; writes the genesis [`WalRecord::Open`] capturing the
    /// core's configuration so [`SchedulerCore::recover`] can rebuild it.
    pub fn with_wal(mut self, mut wal: Wal) -> Self {
        assert!(
            self.state.next_id == 1,
            "attach the WAL before submitting jobs"
        );
        assert!(
            wal.is_empty(),
            "WAL already holds records; recover from it instead of re-attaching"
        );
        let speeds = self.pool.speeds();
        let slot_speeds = if speeds.iter().all(|&s| s == 1.0) {
            None
        } else {
            Some(speeds.to_vec())
        };
        wal.append(WalRecord::Open {
            total_procs: self.pool.total(),
            policy: self.policy,
            remap_policy: self.remap_policy,
            events_cap: self.events_cap,
            alloc_order: self.pool.order(),
            slot_speeds,
        });
        self.wal = Some(wal);
        self
    }

    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Detach and return the WAL (e.g. to hand the stream to a crash
    /// drill). Subsequent transitions are no longer logged.
    pub fn take_wal(&mut self) -> Option<Wal> {
        self.wal.take()
    }

    /// Rebuild a scheduler from its write-ahead log by replaying every
    /// logged transition against a fresh core built from the genesis
    /// record (and the checkpoint after it, when the WAL was compacted).
    /// Because the state machine is deterministic, the recovered core is
    /// *exactly* equal to the one that wrote the log — pool accounting,
    /// queue order, job records, profiler history, the event trace since
    /// the last compaction and the utilization integral all match
    /// ([`SchedulerCore::snapshot`] equality). The WAL stays attached, so
    /// post-recovery transitions continue appending to the same stream.
    /// A record that replays differently from how it was logged is a
    /// [`WalError::Corrupt`] naming its line.
    pub fn recover(wal: Wal) -> Result<SchedulerCore, WalError> {
        let (core, scan) = SchedulerCore::replay(wal.text(), None)?;
        scan.strict()?;
        Ok(core.recovered(wal))
    }

    /// Recover straight from WAL text in one pass, salvaging past interior
    /// corruption the way [`Wal::decode_salvage`] does: a torn final line
    /// is dropped, the first corrupt interior line ends the replay, and
    /// the remainder from it on comes back in the [`WalSalvage`] (`None`
    /// when the text was clean). Each line is framed, checked, parsed and
    /// applied before the next is read; the attached WAL holds the clean
    /// prefix. Errors are those of [`SchedulerCore::recover`].
    pub fn recover_salvage(text: &str) -> Result<(SchedulerCore, Option<WalSalvage>), WalError> {
        let mut wal = Wal::with_capacity(text.len());
        let (core, scan) = SchedulerCore::replay(text, Some(&mut wal))?;
        Ok((core.recovered(wal), scan.salvage(text)))
    }

    /// The one replay loop: build the core from the genesis line, apply
    /// every later line as it is decoded, and keep each applied line in
    /// `copy` when one is given.
    fn replay(text: &str, mut copy: Option<&mut Wal>) -> Result<(SchedulerCore, Scan), WalError> {
        let mut core: Option<SchedulerCore> = None;
        // Whether the next record directly follows genesis, the one place
        // a checkpoint may stand.
        let mut after_genesis = false;
        let scan = wal::scan(text, |line, body, rec| {
            match core.as_mut() {
                None => {
                    core = Some(SchedulerCore::genesis(rec)?);
                    after_genesis = true;
                }
                Some(core) => core.apply(line, rec, std::mem::take(&mut after_genesis))?,
            }
            if let Some(copy) = copy.as_deref_mut() {
                copy.push_line(body);
            }
            Ok::<_, WalError>(())
        })?;
        // A damaged checkpoint leaves no clean prefix, genesis included.
        let core = core
            .filter(|_| scan.clean_len > 0)
            .ok_or_else(|| WalError::BadGenesis("first WAL record must be `open`".into()))?;
        Ok((core, scan))
    }

    /// An empty core from the genesis record.
    fn genesis(rec: WalRecord) -> Result<SchedulerCore, WalError> {
        let WalRecord::Open {
            total_procs,
            policy,
            remap_policy,
            events_cap,
            alloc_order,
            slot_speeds,
        } = rec
        else {
            return Err(WalError::BadGenesis(
                "first WAL record must be `open`".into(),
            ));
        };
        if events_cap == 0 {
            return Err(WalError::BadGenesis("events_cap must be at least 1".into()));
        }
        if total_procs > MAX_WAL_SLOTS {
            return Err(WalError::BadGenesis(format!(
                "total_procs {total_procs} is above {MAX_WAL_SLOTS}"
            )));
        }
        let core = match slot_speeds {
            Some(speeds) => {
                if speeds.len() != total_procs {
                    return Err(WalError::BadGenesis(format!(
                        "slot_speeds length {} != total_procs {total_procs}",
                        speeds.len()
                    )));
                }
                if speeds.is_empty() {
                    return Err(WalError::BadGenesis("slot_speeds is empty".into()));
                }
                if let Some(bad) = speeds.iter().find(|s| !(s.is_finite() && **s > 0.0)) {
                    return Err(WalError::BadGenesis(format!(
                        "slot speed {bad} is not positive and finite"
                    )));
                }
                SchedulerCore::new(total_procs, policy).with_slot_speeds(speeds)
            }
            None => SchedulerCore::new(total_procs, policy),
        };
        Ok(core
            .with_remap_policy(remap_policy)
            .with_event_cap(events_cap)
            .with_alloc_order(alloc_order))
    }

    /// A replayed core takes over `wal` and goes live.
    fn recovered(mut self, wal: Wal) -> SchedulerCore {
        reshape_telemetry::incr("core.wal_recoveries", 1);
        if reshape_telemetry::trace::enabled() {
            reshape_telemetry::trace::complete(
                0,
                0,
                format!("wal_recovery ({} records)", wal.len()),
                "recovery",
                "scheduler",
                0.0,
                self.state.last_tick,
            );
        }
        self.wal = Some(wal);
        self
    }

    /// Compact the attached WAL: drop the terminal jobs (as
    /// [`SchedulerCore::prune_terminal`] does) and the event trace, then
    /// rewrite the WAL as its genesis line and one
    /// [`WalRecord::Checkpoint`] of what is left. Recovering the compacted
    /// WAL, or it plus any records appended since, gives a core
    /// [`SchedulerCore::same_state`] with this one, so a recovery replays
    /// the live state and the records since the last compaction, not the
    /// whole history. The trace goes because a checkpoint does not carry
    /// it; [`SchedulerCore::dropped_events`] stays. Without a WAL this only
    /// prunes and drops the trace.
    pub fn compact_wal(&mut self) {
        self.prune_terminal();
        self.events = Vec::new();
        // The codec writes the state's hash maps in ascending id order, so
        // the checkpoint has one spelling whatever order they hold.
        if let Some(wal) = self.wal.as_mut() {
            wal.compact(
                &self.state,
                self.pool.foreign_minted(),
                &self.pool.free_slots(),
            );
            reshape_telemetry::incr("core.wal_compactions", 1);
        }
    }

    /// Install a checkpoint's state on a core fresh from genesis. The line
    /// was checksummed, not necessarily written by a core, so a state that
    /// would trip a later transition is refused here: every owned slot is
    /// free or held by exactly one live job, lent slots are native and
    /// borrowed ones minted, a running job holds as many slots as its
    /// configuration has processors, and only a job owed its `Terminate` is
    /// cancelled.
    fn restore(&mut self, checkpoint: Checkpoint) -> Result<(), String> {
        let Checkpoint {
            state,
            foreign_minted,
            free_slots,
            pending_cancel,
        } = checkpoint;
        if state.next_id == 0 || state.next_reservation == 0 {
            return Err("ids are minted from 1".into());
        }
        let total = self.pool.total();
        let minted_end = total
            .checked_add(foreign_minted)
            .filter(|&end| end <= MAX_WAL_SLOTS)
            .ok_or_else(|| {
                format!("{foreign_minted} foreign ids take the pool past {MAX_WAL_SLOTS}")
            })?;
        let mut lent = BTreeSet::new();
        for &s in state.lent_leases.values().flatten() {
            if s >= total || !lent.insert(s) {
                return Err(format!("slot {s} cannot be lent"));
            }
        }
        let mut foreign = BTreeSet::new();
        for &s in state.borrowed_leases.values().flat_map(|b| &b.local) {
            if !(total..minted_end).contains(&s) || !foreign.insert(s) {
                return Err(format!("slot {s} cannot be borrowed"));
            }
        }
        let owned = |s: usize| {
            if s < total {
                !lent.contains(&s)
            } else {
                foreign.contains(&s)
            }
        };
        let mut claimed = BTreeSet::new();
        for &s in free_slots
            .iter()
            .chain(state.jobs.values().flat_map(|j| &j.slots))
        {
            if !owned(s) || !claimed.insert(s) {
                return Err(format!("slot {s} is not owned, or claimed twice"));
            }
        }
        if claimed.len() != total - lent.len() + foreign.len() {
            return Err("an owned slot is neither free nor held".into());
        }
        let mut queue = BTreeMap::new();
        for (&id, job) in &state.jobs {
            let fits = match &job.state {
                JobState::Queued => job.slots.is_empty(),
                JobState::Running { config } => config.procs() == job.slots.len(),
                JobState::Cancelled { .. } => job.slots.is_empty() && pending_cancel.contains(&id),
                JobState::Finished { .. } | JobState::Failed { .. } => false,
            };
            if !(1..state.next_id).contains(&id.0) || !fits {
                return Err(format!("job {id} cannot be live as {:?}", job.state));
            }
            if job.state == JobState::Queued {
                queue.insert((Reverse(job.spec.priority), id), job.spec.initial.procs());
            }
        }
        if let Some(id) = pending_cancel.iter().find(|id| {
            !matches!(state.jobs.get(id), Some(j) if matches!(j.state, JobState::Cancelled { .. }))
        }) {
            return Err(format!(
                "job {id} is owed a Terminate but was not cancelled"
            ));
        }
        for (id, p) in state.profiler.profiles() {
            if let Some(Resize::Expanded { from, to }) = p.last_resize {
                if from.procs() > to.procs() {
                    return Err(format!("job {id} expanded from {from} to {to}"));
                }
            }
        }
        if state
            .reservations
            .iter()
            .any(|r| r.id.0 >= state.next_reservation)
        {
            return Err("a reservation id was never minted".into());
        }
        self.pool
            .restore(&free_slots, lent, foreign, foreign_minted);
        self.queue = queue;
        self.state = state;
        Ok(())
    }

    /// Replay the transition logged at `line`, which directly follows
    /// genesis when `after_genesis`. Only called with `self.wal == None`,
    /// so nothing is re-logged.
    fn apply(&mut self, line: usize, rec: WalRecord, after_genesis: bool) -> Result<(), WalError> {
        let diverged = |reason: String| WalError::Corrupt { line, reason };
        match rec {
            WalRecord::Open { .. } => {
                return Err(WalError::BadGenesis(
                    "duplicate `open` record mid-stream".into(),
                ))
            }
            WalRecord::Checkpoint { state } if after_genesis => self
                .restore(*state)
                .map_err(|why| WalError::BadGenesis(format!("checkpoint: {why}")))?,
            WalRecord::Checkpoint { .. } => {
                return Err(diverged("a checkpoint must directly follow genesis".into()))
            }
            WalRecord::Submit { spec, now } => {
                self.submit_inner(spec, None, now);
            }
            WalRecord::SubmitReserved {
                spec,
                reservation,
                now,
            } => {
                self.submit_inner(spec, Some(reservation), now);
            }
            WalRecord::TrySchedule { now } => {
                self.schedule_now(now);
            }
            WalRecord::ResizePoint {
                job,
                iter_time,
                redist_time,
                now,
            } => {
                self.resize_point(job, iter_time, redist_time, now);
            }
            WalRecord::PhaseChange { job, now } => self.phase_change(job, now),
            WalRecord::NoteRedist {
                job,
                from,
                to,
                seconds,
            } => self.note_redist_cost(job, from, to, seconds),
            WalRecord::Finished { job, now } => {
                self.on_finished(job, now);
            }
            WalRecord::Failed { job, reason, now } => {
                self.on_failed(job, reason, now);
            }
            WalRecord::NodeFailed {
                job,
                dead_slots,
                to,
                now,
            } => {
                self.on_node_failed(job, &dead_slots, to, now);
            }
            WalRecord::ExpandFailed { job, now } => {
                self.on_expand_failed(job, now);
            }
            WalRecord::Cancel { job, now } => {
                self.cancel(job, now);
            }
            WalRecord::Reserve { start, end, procs } => {
                self.reserve(start, end, procs);
            }
            WalRecord::CancelReservation { id } => self.cancel_reservation(id),
            WalRecord::Tick { now } => self.tick(now),
            WalRecord::LendGrant { lease, slots, now } => {
                let got = self.lend_grant(lease, slots.len(), now);
                // The pool pick is deterministic, so replay must re-derive
                // the logged slots exactly; anything else means the WAL and
                // the state machine disagree and recovery cannot be trusted.
                if got.as_deref() != Some(slots.as_slice()) {
                    return Err(diverged(format!(
                        "replay diverged on lend_grant(lease {lease}): logged slots \
                         {slots:?}, replay gave {got:?}"
                    )));
                }
            }
            WalRecord::LendReclaim { lease, now } => {
                self.lend_reclaim(lease, now);
            }
            WalRecord::BorrowAttach {
                lease,
                global_slots,
                lender_epoch,
                now,
            } => {
                self.borrow_attach(lease, &global_slots, lender_epoch, now);
            }
            WalRecord::BorrowEvict { lease, now } => {
                self.borrow_evict(lease, now);
            }
            WalRecord::PauseExpansion { on, now } => self.set_expand_paused(on, now),
            WalRecord::EpochBump { epoch, now } => {
                let got = self.bump_epoch(now);
                // Epochs are logged as absolute values so replay can prove
                // the restored counter matches the live one exactly.
                if got != epoch {
                    return Err(diverged(format!(
                        "replay diverged on epoch bump (got {got}, logged {epoch})"
                    )));
                }
            }
            WalRecord::HealRepair { lease, action, now } => {
                self.journal_heal_repair(lease, action, now);
            }
        }
        Ok(())
    }

    /// Append to the WAL if one is attached (no-op otherwise — replay runs
    /// with the WAL detached precisely so it does not re-log itself).
    fn log(&mut self, rec: &WalRecord) {
        if let Some(w) = self.wal.as_mut() {
            w.push(rec);
            // Durability work belongs to the scheduler's own trace (trace
            // 0): a zero-duration marker at the last observed virtual time
            // keeps WAL pressure visible in Perfetto without perturbing
            // replay determinism (spans are runtime-only state).
            if reshape_telemetry::trace::enabled() {
                reshape_telemetry::trace::complete(
                    0,
                    0,
                    "wal_append",
                    "wal",
                    "scheduler",
                    self.state.last_tick,
                    self.state.last_tick,
                );
            }
        }
    }

    /// The threaded runtime's monitor stamps failures with NaN when no
    /// virtual clock is available. `tick` clamps non-finite times to
    /// `last_tick`, so doing the same before logging keeps the live run and
    /// its replay on the identical input sequence — the WAL itself carries
    /// any bit pattern, but state derived from a raw NaN (job end times,
    /// the event trace) would no longer compare equal to its own replay.
    fn sane_now(&self, now: f64) -> f64 {
        if now.is_finite() {
            now
        } else {
            self.state.last_tick
        }
    }

    /// A deep, order-normalized copy of every piece of scheduler state, for
    /// recovery-equality checks. Two cores with equal snapshots are
    /// behaviorally identical.
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            total_procs: self.pool.total(),
            free_slots: self.pool.free_slots(),
            queue: self.queue.keys().map(|&(_, id)| id).collect(),
            jobs: self.jobs().map(|(k, v)| (*k, v.clone())).collect(),
            profiles: self
                .profiler()
                .profiles()
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
            next_id: self.state.next_id,
            reservations: self.state.reservations.clone(),
            next_reservation: self.state.next_reservation,
            bindings: self.state.bindings.iter().map(|(k, v)| (*k, *v)).collect(),
            pending_cancel: self.state.pending_cancel().collect(),
            busy_proc_seconds: self.state.busy_proc_seconds,
            last_tick: self.state.last_tick,
            events: self.events.clone(),
            events_dropped: self.state.events_dropped,
            lent_leases: self.state.lent_leases.clone(),
            borrowed_leases: self.state.borrowed_leases.clone(),
            foreign_minted: self.pool.foreign_minted(),
            expand_paused: self.state.expand_paused,
            epoch: self.state.epoch,
        }
    }

    /// `self.snapshot() == other.snapshot()`, computed in place without
    /// building either snapshot: crash recovery compares the replayed core
    /// with the dead one this way. The durable state (what a checkpoint
    /// carries) compares with its derived `==`, which is the snapshot's
    /// normalisation: id-keyed maps and sets as maps and sets (hash order
    /// does not matter), `f64`s with `==`. The rest compares as the snapshot
    /// normalises it: free slots ascending, queue ids in key order. The
    /// snapshot's `jobs` is the union of the live and the retired jobs;
    /// comparing the two maps apart is the same test, since a job is retired
    /// exactly when it is terminal and owed no `Terminate`, and the pending
    /// cancels are compared.
    pub fn same_state(&self, other: &SchedulerCore) -> bool {
        // No `..`: a new field does not compile here until it is classed as
        // compared or excluded.
        let SchedulerCore {
            pool,
            queue,
            state,
            retired,
            events,
            // Genesis configuration, rebuilt from the `open` record.
            policy: _,
            events_cap: _,
            remap_policy: _,
            // Not scheduler state: a test backdoor, the journal itself, and
            // runtime-only trace spans.
            chaos_leak_on_failure: _,
            wal: _,
            trace_ids: _,
        } = self;
        let queue_id = |&(_, id): &(Reverse<u8>, JobId)| id;
        // Scalars first, then containers, the history-sized ones last.
        pool.total() == other.pool.total()
            && pool.foreign_minted() == other.pool.foreign_minted()
            && pool.free_iter().eq(other.pool.free_iter())
            && (queue.keys().map(queue_id)).eq(other.queue.keys().map(queue_id))
            && *state == other.state
            && *events == other.events
            && *retired == other.retired
    }

    /// The slowest slot speed among a job's current allocation — the pace a
    /// synchronous SPMD application actually runs at. 1.0 for jobs without
    /// an allocation.
    pub fn job_speed(&self, job: JobId) -> f64 {
        self.state
            .jobs
            .get(&job)
            .map(|r| {
                r.slots
                    .iter()
                    .map(|&s| self.pool.speed(s))
                    .fold(f64::INFINITY, f64::min)
            })
            .filter(|s| s.is_finite())
            .unwrap_or(1.0)
    }

    // ------------------------------------------------------------------
    // Advance reservations (paper §5 future work)
    // ------------------------------------------------------------------

    /// Withhold `procs` processors during `[start, end)`.
    pub fn reserve(&mut self, start: f64, end: f64, procs: usize) -> ReservationId {
        assert!(end > start, "empty reservation window");
        assert!(
            procs <= self.pool.total(),
            "cannot reserve more processors than the cluster has"
        );
        self.log(&WalRecord::Reserve { start, end, procs });
        let id = ReservationId(self.state.next_reservation);
        self.state.next_reservation += 1;
        self.state.reservations.push(Reservation {
            id,
            start,
            end,
            procs,
        });
        id
    }

    /// Cancel a reservation (no effect on jobs already started against it).
    pub fn cancel_reservation(&mut self, id: ReservationId) {
        self.log(&WalRecord::CancelReservation { id });
        self.state.reservations.retain(|r| r.id != id);
    }

    pub fn reservations(&self) -> &[Reservation] {
        &self.state.reservations
    }

    /// Processors withheld by reservations active at `now`, excluding any
    /// reservation the given job may draw on.
    fn reserved_at(&self, now: f64, drawing: Option<JobId>) -> usize {
        let entitled = drawing.and_then(|j| self.state.bindings.get(&j));
        self.state
            .reservations
            .iter()
            .filter(|r| r.active(now) && Some(&r.id) != entitled)
            .map(|r| r.procs)
            .sum()
    }

    /// Idle processors actually grantable at `now` for `job` (reservation
    /// withholding applied).
    fn available_for(&self, now: f64, job: Option<JobId>) -> usize {
        self.pool.idle().saturating_sub(self.reserved_at(now, job))
    }

    /// How many processors active reservations are still owed beyond what
    /// is idle — running jobs must shrink to cover this.
    fn reservation_deficit(&self, now: f64) -> usize {
        self.reserved_at(now, None).saturating_sub(self.pool.idle())
    }

    fn tick(&mut self, now: f64) {
        // Real-mode timestamps mix wall counters and per-rank virtual
        // clocks, so clamp instead of asserting monotonicity; the
        // discrete-event simulator always feeds monotone times.
        let now = if now.is_finite() {
            now.max(self.state.last_tick)
        } else {
            self.state.last_tick
        };
        self.state.busy_proc_seconds += self.pool.busy() as f64 * (now - self.state.last_tick);
        self.state.last_tick = now;
    }

    /// Submit a job; returns its id and any jobs that can start immediately
    /// (possibly including this one). Queue position honors priority:
    /// higher-priority jobs are inserted ahead of lower-priority ones
    /// (stable among equals).
    pub fn submit(&mut self, spec: JobSpec, now: f64) -> (JobId, Vec<StartAction>) {
        let now = self.sane_now(now);
        // Logged by reference, then the spec moves back out: no clone.
        let rec = WalRecord::Submit { spec, now };
        self.log(&rec);
        let WalRecord::Submit { spec, .. } = rec else {
            unreachable!("built above")
        };
        self.submit_inner(spec, None, now)
    }

    /// Submit a job entitled to draw on an advance reservation's withheld
    /// processors during its window.
    pub fn submit_reserved(
        &mut self,
        spec: JobSpec,
        reservation: ReservationId,
        now: f64,
    ) -> (JobId, Vec<StartAction>) {
        assert!(
            self.state.reservations.iter().any(|r| r.id == reservation),
            "unknown reservation {reservation:?}"
        );
        let now = self.sane_now(now);
        let rec = WalRecord::SubmitReserved {
            spec,
            reservation,
            now,
        };
        self.log(&rec);
        let WalRecord::SubmitReserved { spec, .. } = rec else {
            unreachable!("built above")
        };
        self.submit_inner(spec, Some(reservation), now)
    }

    fn submit_inner(
        &mut self,
        spec: JobSpec,
        reservation: Option<ReservationId>,
        now: f64,
    ) -> (JobId, Vec<StartAction>) {
        self.tick(now);
        let id = JobId(self.state.next_id);
        self.state.next_id += 1;
        let key = (Reverse(spec.priority), id);
        let need = spec.initial.procs();
        self.state.jobs.insert(
            id,
            JobRecord {
                spec,
                state: JobState::Queued,
                slots: Vec::new(),
                submitted_at: now,
                started_at: None,
                finished_at: None,
            },
        );
        if let Some(r) = reservation {
            self.state.bindings.insert(id, r);
        }
        // With nothing waiting this job is the only candidate: if it fits
        // it starts without ever entering the index, so an idle cluster
        // pays nothing for the queue.
        let direct = self.queue.is_empty() && need <= self.available_for(now, Some(id));
        if !direct {
            self.queue.insert(key, need);
        }
        self.push_event(SchedEvent {
            time: now,
            job: id,
            kind: EventKind::Submitted,
        });
        if reshape_telemetry::trace::enabled() {
            use reshape_telemetry::trace;
            // The job id doubles as the trace id: deterministic, stable
            // across WAL replay, and readable in the Perfetto UI. The root
            // span covers submission → completion; queue-wait is its first
            // child and closes when the job starts.
            let root = trace::begin(
                id.0,
                0,
                self.state.jobs[&id].spec.name.clone(),
                "job",
                "scheduler",
                now,
            );
            let qw = trace::begin(id.0, root, "queue_wait", "queue_wait", "scheduler", now);
            trace::set_head(id.0, root);
            self.trace_ids.insert(id, (root, qw));
        }
        if direct {
            return (id, vec![self.start(id, need, now)]);
        }
        (id, self.schedule_now(now))
    }

    /// Start a job that fits: allocate its initial processors and mark it
    /// running. The caller has checked `need` against
    /// [`SchedulerCore::available_for`], and the job has no queue entry
    /// (removed, or never inserted).
    fn start(&mut self, id: JobId, need: usize, now: f64) -> StartAction {
        let slots = self.pool.allocate(need).expect("checked idle count");
        let rec = self.state.jobs.get_mut(&id).expect("queued job exists");
        let config = rec.spec.initial;
        rec.state = JobState::Running { config };
        rec.slots = slots.clone();
        rec.started_at = Some(now);
        self.push_event(SchedEvent {
            time: now,
            job: id,
            kind: EventKind::Started { config },
        });
        if let Some(&(_, qw)) = self.trace_ids.get(&id) {
            reshape_telemetry::trace::end(qw, now);
        }
        StartAction {
            job: id,
            config,
            slots,
        }
    }

    /// Run the queue policy against the free pool.
    pub fn try_schedule(&mut self, now: f64) -> Vec<StartAction> {
        let now = self.sane_now(now);
        self.log(&WalRecord::TrySchedule { now });
        self.schedule_now(now)
    }

    /// [`SchedulerCore::try_schedule`] without WAL logging — every
    /// transition that frees capacity ends by calling this, and those inner
    /// scheduling passes replay implicitly with the enclosing record.
    fn schedule_now(&mut self, now: f64) -> Vec<StartAction> {
        self.tick(now);
        let mut actions = Vec::new();
        // One in-order pass admits everything that can start: idle capacity
        // only falls during a pass and a job's grantable share never rises
        // as idle falls, so a job passed over once stays passed over.
        let mut after = Bound::Unbounded;
        while let Some((&key, &need)) = self.queue.range((after, Bound::Unbounded)).next() {
            let id = key.1;
            if need <= self.available_for(now, Some(id)) {
                self.queue.remove(&key);
                actions.push(self.start(id, need, now));
            } else if self.policy == QueuePolicy::Fcfs {
                break;
            }
            // Every job needs at least one processor.
            if self.pool.idle() == 0 {
                break;
            }
            after = Bound::Excluded(key);
        }
        actions
    }

    /// A resizable application checked in at a resize point with its last
    /// iteration time and the redistribution cost it paid most recently.
    /// Returns the directive for the job plus any queued jobs started with
    /// processors freed by a shrink.
    pub fn resize_point(
        &mut self,
        job: JobId,
        iter_time: f64,
        redist_time: f64,
        now: f64,
    ) -> (Directive, Vec<StartAction>) {
        let now = self.sane_now(now);
        self.log(&WalRecord::ResizePoint {
            job,
            iter_time,
            redist_time,
            now,
        });
        self.tick(now);
        let owed_terminate = |r: &JobRecord| matches!(r.state, JobState::Cancelled { .. });
        if self.state.jobs.get(&job).is_some_and(owed_terminate) {
            self.retire(job);
            return (Directive::Terminate, Vec::new());
        }
        // Zombie fencing: a process group whose job already left the system
        // (failed by the watchdog or monitor, finished, or cancelled — and
        // so retired, or pruned since) holds no slots, so any late resize
        // point tells it to exit rather than letting it iterate forever
        // unaccounted. A job still queued has no process group to fence.
        let rec = match self.state.jobs.get(&job) {
            Some(r) => r,
            None if self.submitted(job) => return (Directive::Terminate, Vec::new()),
            None => return (Directive::NoChange, Vec::new()),
        };
        let current = match rec.state {
            JobState::Running { config } => config,
            _ => return (Directive::Terminate, Vec::new()),
        };
        self.state
            .profiler
            .record_iteration(job, current, iter_time, redist_time);

        let spec = &rec.spec;
        // Reserved-but-not-yet-covered processors behave like queued demand:
        // they block expansion and drive the shrink rule, so running jobs
        // vacate reserved capacity at their resize points.
        let deficit = self.reservation_deficit(now);
        let queue_head_need = match (self.queue_head_need(), deficit) {
            (None, 0) => None,
            (None, d) => Some(d),
            (Some(h), d) => Some(h + d),
        };
        let remaining_iters = {
            let done = self
                .profiler()
                .profile(job)
                .map(|p| p.history().len())
                .unwrap_or(0);
            spec.iterations.saturating_sub(done)
        };
        let snapshot = SystemSnapshot {
            idle_procs: self.available_for(now, Some(job)),
            queue_head_need,
            remaining_iters,
        };
        // Expansion headroom is what the pool *currently* owns — borrowed
        // slots expand a borrower's ceiling, lent slots lower a lender's.
        let max_procs = self.pool.owned();
        let decision = decide_with(
            self.remap_policy,
            spec,
            current,
            self.state.profiler.profile(job).expect("just recorded"),
            &snapshot,
            max_procs,
        );
        // Brownout: expansion grants pause, shrinks and completions proceed.
        // Downgrade before recording so the audit trail shows what was
        // actually granted. The profiler is untouched — the policy's history
        // stays clean for when the brownout lifts.
        let decision = match decision {
            RemapDecision::Expand { .. } if self.state.expand_paused => {
                reshape_telemetry::incr("core.expansions_browned_out", 1);
                RemapDecision::NoChange
            }
            d => d,
        };
        if reshape_telemetry::enabled() {
            let (decision_str, to_str) = match &decision {
                RemapDecision::Expand { to } => ("expand", Some(to.to_string())),
                RemapDecision::Shrink { to } => ("shrink", Some(to.to_string())),
                RemapDecision::NoChange => ("no_change", None),
            };
            reshape_telemetry::record(reshape_telemetry::Event::ResizeDecision {
                time: now,
                job: job.0,
                from: current.to_string(),
                decision: decision_str.to_string(),
                to: to_str,
                idle_procs: snapshot.idle_procs,
                queue_len: self.queue.len(),
                queue_head_need: snapshot.queue_head_need,
                last_expansion_improved: self
                    .profiler()
                    .profile(job)
                    .and_then(|p| p.last_expansion_improved()),
                iter_time,
                redist_time,
                remaining_iters,
            });
        }
        if reshape_telemetry::trace::enabled() {
            use reshape_telemetry::trace;
            let label = match &decision {
                RemapDecision::Expand { to } => format!("decision:expand {current}->{to}"),
                RemapDecision::Shrink { to } => format!("decision:shrink {current}->{to}"),
                RemapDecision::NoChange => "decision:no_change".to_string(),
            };
            // Parent on the caller's ambient causal context (the rank's
            // last compute span) when it names this trace, else on the
            // trace head. The decision becomes the new head, so the
            // driver's spawn/redistribution spans chain under it.
            let ctx = trace::current();
            let parent = if ctx.trace == job.0 && ctx.parent != 0 {
                ctx.parent
            } else {
                trace::head(job.0)
            };
            let d = trace::complete(job.0, parent, label, "decision", "scheduler", now, now);
            trace::set_head(job.0, d);
        }
        match decision {
            RemapDecision::Expand { to } => {
                let delta = to.procs() - current.procs();
                let new_slots = self
                    .pool
                    .allocate(delta)
                    .expect("policy verified idle processors");
                let rec = self.state.jobs.get_mut(&job).expect("running job exists");
                rec.slots.extend_from_slice(&new_slots);
                rec.state = JobState::Running { config: to };
                self.state
                    .profiler
                    .record_resize(job, Resize::Expanded { from: current, to }, 0.0);
                self.push_event(SchedEvent {
                    time: now,
                    job,
                    kind: EventKind::Expanded { from: current, to },
                });
                (Directive::Expand { to, new_slots }, Vec::new())
            }
            RemapDecision::Shrink { to } => {
                let keep = to.procs();
                let rec = self.state.jobs.get_mut(&job).expect("running job exists");
                let released: Vec<usize> = rec.slots.split_off(keep);
                rec.state = JobState::Running { config: to };
                self.pool.release(&released);
                self.state
                    .profiler
                    .record_resize(job, Resize::Shrunk { from: current, to }, 0.0);
                self.push_event(SchedEvent {
                    time: now,
                    job,
                    kind: EventKind::Shrunk { from: current, to },
                });
                let started = self.schedule_now(now);
                (Directive::Shrink { to }, started)
            }
            RemapDecision::NoChange => (Directive::NoChange, Vec::new()),
        }
    }

    /// An application entered a new computational phase (the paper's intro:
    /// "applications that consist of multiple phases ... could benefit from
    /// resizing to the most appropriate node count for each phase").
    ///
    /// Past iteration times no longer predict the new phase, so the
    /// Performance Profiler forgets the job's timing history — the job
    /// re-probes for the new phase's sweet spot from its current
    /// configuration. Redistribution-cost records are kept (they are a
    /// property of the data layout, not the phase).
    pub fn phase_change(&mut self, job: JobId, now: f64) {
        let now = self.sane_now(now);
        self.log(&WalRecord::PhaseChange { job, now });
        self.tick(now);
        if matches!(
            self.state.jobs.get(&job).map(|r| &r.state),
            Some(JobState::Running { .. })
        ) {
            self.state.profiler.reset_timing(job);
        }
    }

    /// Record the measured cost of an actuated redistribution (the paper
    /// "saves a record of actual redistribution costs between various
    /// processor configurations").
    pub fn note_redist_cost(
        &mut self,
        job: JobId,
        from: ProcessorConfig,
        to: ProcessorConfig,
        seconds: f64,
    ) {
        self.log(&WalRecord::NoteRedist {
            job,
            from,
            to,
            seconds,
        });
        if self.submitted(job)
            && !self.state.jobs.contains_key(&job)
            && !self.retired.contains_key(&job)
        {
            // Pruned: its profile went with it and stays gone.
            return;
        }
        let kind = if to.procs() >= from.procs() {
            Resize::Expanded { from, to }
        } else {
            Resize::Shrunk { from, to }
        };
        self.state.profiler.record_resize(job, kind, seconds);
    }

    /// Close a job's trace (root + queue-wait spans) at its terminal
    /// transition. Idempotent: the ids are removed on first use.
    fn trace_close(&mut self, job: JobId, now: f64) {
        if let Some((root, qw)) = self.trace_ids.remove(&job) {
            reshape_telemetry::trace::end(qw, now);
            reshape_telemetry::trace::end(root, now);
        }
    }

    /// A job finished; reclaim its processors and start queued work.
    pub fn on_finished(&mut self, job: JobId, now: f64) -> Vec<StartAction> {
        let now = self.sane_now(now);
        self.log(&WalRecord::Finished { job, now });
        self.tick(now);
        let submitted = self.submitted(job);
        match self.state.jobs.entry(job) {
            Entry::Occupied(e) if e.get().state.is_active() => {
                let mut rec = e.remove();
                // Only a job still waiting has an entry in the index.
                if rec.state == JobState::Queued {
                    self.queue.remove(&(Reverse(rec.spec.priority), job));
                }
                let slots = std::mem::take(&mut rec.slots);
                rec.state = JobState::Finished { at: now };
                rec.finished_at = Some(now);
                self.retired.insert(job, rec);
                self.pool.release(&slots);
                self.push_event(SchedEvent {
                    time: now,
                    job,
                    kind: EventKind::Finished,
                });
                self.trace_close(job, now);
            }
            // Cancelled and owed its `Terminate`, or already retired or
            // pruned: nothing changes.
            Entry::Occupied(_) => return Vec::new(),
            Entry::Vacant(_) if submitted => return Vec::new(),
            Entry::Vacant(_) => {}
        }
        self.schedule_now(now)
    }

    /// A job failed (System Monitor "job error" path); reclaim resources.
    ///
    /// Idempotent: a second failure report for the same job — a watchdog
    /// kill racing the crash report, or a monitor retry — is a strict
    /// no-op. In particular it must not append a second WAL `Failed` record
    /// (the guard runs *before* logging) nor re-release slots.
    pub fn on_failed(&mut self, job: JobId, reason: String, now: f64) -> Vec<StartAction> {
        let now = self.sane_now(now);
        if !self
            .state
            .jobs
            .get(&job)
            .is_some_and(|r| r.state.is_active())
        {
            return Vec::new();
        }
        let rec = WalRecord::Failed { job, reason, now };
        self.log(&rec);
        let WalRecord::Failed { reason, .. } = rec else {
            unreachable!("built above")
        };
        self.tick(now);
        let mut rec = self.state.jobs.remove(&job).expect("checked active above");
        if rec.state == JobState::Queued {
            self.queue.remove(&(Reverse(rec.spec.priority), job));
        }
        let slots = std::mem::take(&mut rec.slots);
        rec.state = JobState::Failed {
            at: now,
            reason: reason.clone(),
        };
        rec.finished_at = Some(now);
        self.retired.insert(job, rec);
        if !self.chaos_leak_on_failure {
            self.pool.release(&slots);
        }
        self.push_event(SchedEvent {
            time: now,
            job,
            kind: EventKind::Failed { reason },
        });
        reshape_telemetry::incr("core.job_failures", 1);
        reshape_telemetry::record(reshape_telemetry::Event::Recovery {
            time: now,
            job: job.0,
            action: "reclaim_failed_job".to_string(),
            freed: slots.len(),
        });
        self.trace_close(job, now);
        self.schedule_now(now)
    }

    /// A node hosting part of a running job died, but the application
    /// survived by shrinking onto its remaining ranks (buddy-redundancy
    /// recovery in the driver). The forced-shrink counterpart of
    /// [`SchedulerCore::on_failed`]: only `dead_slots` are reclaimed, the
    /// job stays `Running` at the surviving configuration `to`, and the
    /// degraded size is recorded in the profiler as a shrink so the §3.1
    /// policy sees the current (smaller) configuration and can re-expand
    /// the job when replacement processors free up.
    ///
    /// No-op (and nothing is logged) unless the job is running, every slot
    /// in `dead_slots` is actually held by it, and `to` matches the
    /// surviving slot count — a stale or duplicate report cannot corrupt
    /// the pool.
    pub fn on_node_failed(
        &mut self,
        job: JobId,
        dead_slots: &[usize],
        to: ProcessorConfig,
        now: f64,
    ) -> Vec<StartAction> {
        let now = self.sane_now(now);
        let valid = self.state.jobs.get(&job).is_some_and(|rec| {
            matches!(rec.state, JobState::Running { .. })
                && !dead_slots.is_empty()
                && dead_slots.iter().all(|s| rec.slots.contains(s))
                && rec.slots.len() - dead_slots.len() == to.procs()
        });
        if !valid {
            return Vec::new();
        }
        self.log(&WalRecord::NodeFailed {
            job,
            dead_slots: dead_slots.to_vec(),
            to,
            now,
        });
        self.tick(now);
        let rec = self.state.jobs.get_mut(&job).expect("validated above");
        let JobState::Running { config: from } = rec.state else {
            unreachable!("validated above");
        };
        rec.slots.retain(|s| !dead_slots.contains(s));
        rec.state = JobState::Running { config: to };
        self.pool.release(dead_slots);
        self.state
            .profiler
            .record_resize(job, Resize::Shrunk { from, to }, 0.0);
        self.push_event(SchedEvent {
            time: now,
            job,
            kind: EventKind::NodeFailed {
                from,
                to,
                lost: dead_slots.len(),
            },
        });
        if reshape_telemetry::trace::enabled() {
            use reshape_telemetry::trace;
            let m = trace::complete(
                job.0,
                trace::head(job.0),
                format!("node_failed {from}->{to} (-{})", dead_slots.len()),
                "recovery",
                "scheduler",
                now,
                now,
            );
            trace::set_head(job.0, m);
        }
        reshape_telemetry::incr("core.node_failures_survived", 1);
        reshape_telemetry::record(reshape_telemetry::Event::NodeFailed {
            time: now,
            job: job.0,
            lost: dead_slots.len(),
            procs_before: from.procs(),
            procs_after: to.procs(),
        });
        self.schedule_now(now)
    }

    /// An expansion directive could not be actuated: the spawn was granted
    /// fewer processes than the Remap Scheduler allocated (or none). The job
    /// keeps running at its previous configuration `from`; this reclaims the
    /// granted-but-unused processors, records the attempt as "expansion did
    /// not help" so the policy stops re-probing it, and starts any queued
    /// work that now fits. Returns the jobs started with the freed capacity.
    pub fn on_expand_failed(&mut self, job: JobId, now: f64) -> Vec<StartAction> {
        let now = self.sane_now(now);
        self.log(&WalRecord::ExpandFailed { job, now });
        self.tick(now);
        // The reverted-to configuration is the `from` of the job's last
        // recorded resize, which expand actuation always records.
        let last_expand = self.profiler().profile(job).and_then(|p| p.last_resize());
        let Some(Resize::Expanded { from, to }) = last_expand else {
            return Vec::new();
        };
        let Some(rec) = self.state.jobs.get_mut(&job) else {
            return Vec::new();
        };
        if !matches!(rec.state, JobState::Running { config } if config == to) {
            return Vec::new();
        }
        let released: Vec<usize> = rec.slots.split_off(from.procs());
        rec.state = JobState::Running { config: from };
        self.pool.release(&released);
        self.state.profiler.mark_expansion_failed(job, from, to);
        self.push_event(SchedEvent {
            time: now,
            job,
            kind: EventKind::ExpandFailed { from, to },
        });
        if reshape_telemetry::trace::enabled() {
            use reshape_telemetry::trace;
            let m = trace::complete(
                job.0,
                trace::head(job.0),
                format!("expand_failed {to}->{from}"),
                "spawn",
                "scheduler",
                now,
                now,
            );
            trace::set_head(job.0, m);
        }
        reshape_telemetry::incr("core.expand_failures", 1);
        reshape_telemetry::record(reshape_telemetry::Event::Recovery {
            time: now,
            job: job.0,
            action: "revert_failed_expansion".to_string(),
            freed: released.len(),
        });
        self.schedule_now(now)
    }

    /// Cancel a job. Queued jobs leave the queue immediately; running jobs
    /// are terminated cooperatively — the `Terminate` directive is delivered
    /// at their next resize point, matching how every other ReSHAPE
    /// intervention happens. Returns any jobs started with freed capacity.
    pub fn cancel(&mut self, job: JobId, now: f64) -> Vec<StartAction> {
        let now = self.sane_now(now);
        self.log(&WalRecord::Cancel { job, now });
        self.tick(now);
        let Some(rec) = self.state.jobs.get_mut(&job) else {
            return Vec::new();
        };
        match rec.state {
            JobState::Queued => {
                rec.state = JobState::Cancelled { at: now };
                rec.finished_at = Some(now);
                self.queue.remove(&(Reverse(rec.spec.priority), job));
                self.retire(job);
                self.push_event(SchedEvent {
                    time: now,
                    job,
                    kind: EventKind::Cancelled,
                });
                self.trace_close(job, now);
                // Removing a queued job may unblock an FCFS head.
                self.schedule_now(now)
            }
            JobState::Running { .. } => {
                // Reclaim resources now; the application finds out at its
                // next resize point, and the job stays live until then.
                let slots = std::mem::take(&mut rec.slots);
                rec.state = JobState::Cancelled { at: now };
                rec.finished_at = Some(now);
                self.pool.release(&slots);
                self.push_event(SchedEvent {
                    time: now,
                    job,
                    kind: EventKind::Cancelled,
                });
                self.trace_close(job, now);
                self.schedule_now(now)
            }
            _ => Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Federation leases: processor lending between scheduler shards
    // ------------------------------------------------------------------

    /// Lender side: detach `n` idle processors under lease `lease`. The
    /// slots are picked exactly like an allocation (so the choice is
    /// deterministic and WAL-replayable) but marked lent — they count
    /// neither free nor busy here until [`SchedulerCore::lend_reclaim`].
    ///
    /// Returns `None` without side effects (and without logging) when the
    /// lease id is already live, `n` is zero, or fewer than `n` processors
    /// are idle after reservation withholding — a declined grant must leave
    /// no trace.
    pub fn lend_grant(&mut self, lease: u64, n: usize, now: f64) -> Option<Vec<usize>> {
        let now = self.sane_now(now);
        if n == 0 || self.state.lent_leases.contains_key(&lease) {
            return None;
        }
        if self.available_for(now, None) < n {
            return None;
        }
        self.tick(now);
        let slots = self.pool.lend(n)?;
        self.log(&WalRecord::LendGrant {
            lease,
            slots: slots.clone(),
            now,
        });
        self.state.lent_leases.insert(lease, slots.clone());
        reshape_telemetry::incr("core.lease_grants", 1);
        reshape_telemetry::gauge_set("core.procs_lent", self.lent_procs() as f64);
        Some(slots)
    }

    /// Lender side: the lease ended — the borrower released it, or its
    /// reclaim timeout fired. The lent slots rejoin the pool and queued
    /// work is started with them. Idempotent: an unknown lease id (already
    /// reclaimed, or never granted) is a strict no-op and logs nothing.
    pub fn lend_reclaim(&mut self, lease: u64, now: f64) -> Vec<StartAction> {
        let now = self.sane_now(now);
        if !self.state.lent_leases.contains_key(&lease) {
            return Vec::new();
        }
        self.log(&WalRecord::LendReclaim { lease, now });
        self.tick(now);
        let slots = self
            .state
            .lent_leases
            .remove(&lease)
            .expect("checked above");
        self.pool.reattach(&slots);
        reshape_telemetry::incr("core.lease_reclaims", 1);
        reshape_telemetry::gauge_set("core.procs_lent", self.lent_procs() as f64);
        self.schedule_now(now)
    }

    /// Borrower side: attach foreign processors granted under `lease`.
    /// `global_slots` are federation-global processor ids (recorded in the
    /// WAL for ledger audits); `lender_epoch` is the lender's fencing epoch
    /// at grant time, journaled alongside them so the partition oracle can
    /// prove no attachment outlives a fence. The pool mints fresh local ids
    /// for the slots and queued work may start on the new capacity
    /// immediately. Idempotent: re-attaching a live lease (a duplicated
    /// grant frame) is a strict no-op.
    pub fn borrow_attach(
        &mut self,
        lease: u64,
        global_slots: &[usize],
        lender_epoch: u64,
        now: f64,
    ) -> Vec<StartAction> {
        let now = self.sane_now(now);
        if global_slots.is_empty() || self.state.borrowed_leases.contains_key(&lease) {
            return Vec::new();
        }
        self.log(&WalRecord::BorrowAttach {
            lease,
            global_slots: global_slots.to_vec(),
            lender_epoch,
            now,
        });
        self.tick(now);
        let local = self.pool.attach_foreign(global_slots.len());
        self.state.borrowed_leases.insert(
            lease,
            BorrowedLease {
                local,
                global: global_slots.to_vec(),
                lender_epoch,
            },
        );
        reshape_telemetry::incr("core.lease_borrows", 1);
        reshape_telemetry::gauge_set(
            "core.procs_borrowed",
            self.state
                .borrowed_leases
                .values()
                .map(|b| b.local.len())
                .sum::<usize>() as f64,
        );
        self.schedule_now(now)
    }

    /// Borrower side: the lease expired (or is being returned early) —
    /// every one of its slots leaves this pool *now*, in one atomic
    /// transition. Jobs still holding borrowed slots are force-shrunk off
    /// them (the [`SchedulerCore::on_node_failed`] path: the degraded size
    /// is recorded as a shrink so the policy can re-expand later); a job
    /// left with zero processors fails. Idempotent: an unknown lease is a
    /// strict no-op.
    ///
    /// Doing the eviction and the detach in one transition is what makes
    /// the federation ledger sound: there is no window in which a freed
    /// borrowed slot could be re-granted to a queued job between "evict"
    /// and "detach".
    pub fn borrow_evict(&mut self, lease: u64, now: f64) -> EvictOutcome {
        let now = self.sane_now(now);
        let mut outcome = EvictOutcome::default();
        if !self.state.borrowed_leases.contains_key(&lease) {
            return outcome;
        }
        self.log(&WalRecord::BorrowEvict { lease, now });
        self.tick(now);
        let bl = self
            .state
            .borrowed_leases
            .remove(&lease)
            .expect("checked above");
        let dead: BTreeSet<usize> = bl.local.iter().copied().collect();
        let mut affected: Vec<JobId> = self
            .state
            .jobs
            .iter()
            .filter(|(_, r)| {
                matches!(r.state, JobState::Running { .. })
                    && r.slots.iter().any(|s| dead.contains(s))
            })
            .map(|(id, _)| *id)
            .collect();
        affected.sort();
        for job in affected {
            let (from, lost, remaining) = {
                let rec = self.state.jobs.get_mut(&job).expect("selected above");
                let JobState::Running { config: from } = rec.state else {
                    unreachable!("selected running jobs only");
                };
                let lost = rec.slots.iter().filter(|s| dead.contains(s)).count();
                rec.slots.retain(|s| !dead.contains(s));
                (from, lost, rec.slots.len())
            };
            if remaining == 0 {
                let reason = format!("lease {lease} expired: all processors evicted");
                let rec = self.state.jobs.get_mut(&job).expect("selected above");
                rec.state = JobState::Failed {
                    at: now,
                    reason: reason.clone(),
                };
                rec.finished_at = Some(now);
                self.retire(job);
                self.push_event(SchedEvent {
                    time: now,
                    job,
                    kind: EventKind::Failed { reason },
                });
                self.trace_close(job, now);
                outcome.failed.push(job);
            } else {
                let to = ProcessorConfig::linear(remaining);
                self.state.jobs.get_mut(&job).expect("selected above").state =
                    JobState::Running { config: to };
                self.state
                    .profiler
                    .record_resize(job, Resize::Shrunk { from, to }, 0.0);
                self.push_event(SchedEvent {
                    time: now,
                    job,
                    kind: EventKind::NodeFailed { from, to, lost },
                });
                outcome.shrunk.push((job, from, to));
            }
        }
        for &s in &bl.local {
            self.pool.detach_foreign_slot(s);
        }
        outcome.detached = bl.local.len();
        reshape_telemetry::incr("core.lease_evictions", 1);
        reshape_telemetry::gauge_set(
            "core.procs_borrowed",
            self.state
                .borrowed_leases
                .values()
                .map(|b| b.local.len())
                .sum::<usize>() as f64,
        );
        outcome
    }

    /// Brownout control: while paused, `resize_point` downgrades every
    /// Expand decision to NoChange (shrinks, completions and new
    /// admissions proceed — the cluster degrades, it does not stall).
    /// Idempotent: setting the current value logs nothing.
    pub fn set_expand_paused(&mut self, on: bool, now: f64) {
        let now = self.sane_now(now);
        if self.state.expand_paused == on {
            return;
        }
        self.log(&WalRecord::PauseExpansion { on, now });
        self.tick(now);
        self.state.expand_paused = on;
        reshape_telemetry::gauge_set("core.expand_paused", if on { 1.0 } else { 0.0 });
    }

    /// Whether expansion grants are currently browned out.
    pub fn expand_paused(&self) -> bool {
        self.state.expand_paused
    }

    /// The shard's current partition-fencing epoch (0 until first bump).
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// Advance the fencing epoch by one and return the new value. Called by
    /// the federation when this shard, lending, has lost contact with a
    /// borrower past the suspicion timeout: leases minted under the old
    /// epoch are fenced from here on. Journaled (with the absolute new
    /// value) before taking effect, so WAL replay restores the counter
    /// exactly.
    pub fn bump_epoch(&mut self, now: f64) -> u64 {
        let now = self.sane_now(now);
        let next = self.state.epoch + 1;
        self.log(&WalRecord::EpochBump { epoch: next, now });
        self.tick(now);
        self.state.epoch = next;
        reshape_telemetry::incr("core.epoch_bumps", 1);
        reshape_telemetry::gauge_set("core.epoch", next as f64);
        next
    }

    /// Journal an anti-entropy heal decision about `lease`. The record is
    /// evidence only — the repairing transition itself
    /// ([`SchedulerCore::borrow_evict`] or [`SchedulerCore::lend_reclaim`])
    /// follows as its own journaled call, so no heal mutates state
    /// silently and replay stays exact.
    pub fn journal_heal_repair(&mut self, lease: u64, action: HealAction, now: f64) {
        let now = self.sane_now(now);
        self.log(&WalRecord::HealRepair { lease, action, now });
        self.tick(now);
        reshape_telemetry::incr("core.heal_repairs", 1);
    }

    /// Lender-side lease ledger: lease id → native slots away under it.
    pub fn lent_leases(&self) -> &BTreeMap<u64, Vec<usize>> {
        &self.state.lent_leases
    }

    /// Borrower-side lease ledger: lease id → attached foreign slots.
    pub fn borrowed_leases(&self) -> &BTreeMap<u64, BorrowedLease> {
        &self.state.borrowed_leases
    }

    /// Native processors currently lent to other shards.
    pub fn lent_procs(&self) -> usize {
        self.state.lent_leases.values().map(Vec::len).sum()
    }

    /// Foreign processors currently borrowed from other shards.
    pub fn borrowed_procs(&self) -> usize {
        self.borrowed_leases().values().map(|b| b.local.len()).sum()
    }

    /// Capacity this core currently schedules over (native − lent +
    /// borrowed); equals [`SchedulerCore::total_procs`] without leases.
    pub fn owned_procs(&self) -> usize {
        self.pool.owned()
    }

    /// Whether `slot` is currently owned by this core's pool.
    pub fn slot_owned(&self, slot: usize) -> bool {
        self.pool.is_owned(slot)
    }

    /// Initial processor need of the queue head, if any — what a starved
    /// shard asks the federation to cover with a lease.
    pub fn queue_head_need(&self) -> Option<usize> {
        self.queue.first_key_value().map(|(_, &need)| need)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// A job's record, live or retired (`None` once pruned).
    pub fn job(&self, id: JobId) -> Option<&JobRecord> {
        self.state.jobs.get(&id).or_else(|| self.retired.get(&id))
    }

    /// Every job not yet pruned, live and retired, in no particular order.
    pub fn jobs(&self) -> impl Iterator<Item = (&JobId, &JobRecord)> {
        self.state.jobs.iter().chain(&self.retired)
    }

    /// The jobs a later transition can act on — queued, running, or
    /// cancelled and owed its `Terminate` — in no particular order.
    pub fn live_jobs(&self) -> impl Iterator<Item = (&JobId, &JobRecord)> {
        self.state.jobs.iter()
    }

    pub fn profiler(&self) -> &Profiler {
        &self.state.profiler
    }

    /// Mutable profiler access, for seeding performance history (advanced
    /// integrations and tests).
    pub fn profiler_mut(&mut self) -> &mut Profiler {
        &mut self.state.profiler
    }

    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub fn idle_procs(&self) -> usize {
        self.pool.idle()
    }

    /// Latest virtual time the core has observed (updated by `tick` and
    /// every timestamped transition). A transition stamped with no finite
    /// time, such as the threaded monitor's failure report, lands here.
    pub fn last_tick(&self) -> f64 {
        self.state.last_tick
    }

    pub fn busy_procs(&self) -> usize {
        self.pool.busy()
    }

    pub fn total_procs(&self) -> usize {
        self.pool.total()
    }

    pub fn events(&self) -> &[SchedEvent] {
        &self.events
    }

    /// Remove and return the retained scheduling trace. Long-running
    /// consumers (the threaded runtime, the cluster simulator) should pull
    /// events through this instead of letting the trace hit its cap. The
    /// core keeps no buffer afterwards, so the next event allocates a fresh
    /// one: a caller that only reads the trace where it lies, or not at
    /// all, and keeps transitioning should use
    /// [`SchedulerCore::clear_events`] instead.
    pub fn drain_events(&mut self) -> Vec<SchedEvent> {
        std::mem::take(&mut self.events)
    }

    /// Empty the retained scheduling trace in place, keeping its buffer for
    /// the events still to come. For callers that count or ignore the trace
    /// through [`SchedulerCore::events`] and need none of it afterwards (the
    /// DES scale driver's fold, the federation's per-transition tidy);
    /// [`SchedulerCore::dropped_events`] is left as it is.
    pub fn clear_events(&mut self) {
        self.events.clear();
    }

    /// Events evicted because the trace reached its retention cap. Audit
    /// consumers should check this before treating [`SchedulerCore::events`]
    /// as complete; every eviction also bumps the
    /// `core.sched_events_dropped` telemetry counter.
    pub fn dropped_events(&self) -> u64 {
        self.state.events_dropped
    }

    /// Drop every retired job — its record, profiler history and
    /// reservation binding — and return how many. A job retires in the
    /// transition that ends it (finished, failed, cancelled while queued, or
    /// handed its `Terminate` after a cancel while running), so this visits
    /// only those and never a live job. Million-job simulations call it
    /// periodically (after draining the event trace) so scheduler memory is
    /// bounded by the *live* job count, not the full arrival history; the
    /// federation calls it on every shard it touches. Prunes are not
    /// WAL-logged and need not be: no transition reads a retired job beyond
    /// its id being spent, which `next_id` remembers, so a core recovered
    /// from the WAL differs from the pruned one only by the retired jobs it
    /// still holds.
    pub fn prune_terminal(&mut self) -> usize {
        let pruned = self.retired.len();
        for (id, _) in self.retired.drain() {
            self.state.profiler.forget(id);
            self.state.bindings.remove(&id);
        }
        pruned
    }

    /// Whether `job` was ever submitted: ids are minted in order from 1.
    fn submitted(&self, job: JobId) -> bool {
        (1..self.state.next_id).contains(&job.0)
    }

    /// Move a job that just ended out of the live map.
    fn retire(&mut self, job: JobId) {
        let rec = self
            .state
            .jobs
            .remove(&job)
            .expect("only a live job retires");
        self.retired.insert(job, rec);
    }

    /// Mean utilization over `[0, now]`: the fraction of available
    /// cpu-seconds assigned to running jobs (the paper's footnote 1).
    ///
    /// Meaningful when the core is fed a consistent clock — i.e. in the
    /// discrete-event simulator. The threaded real-mode runtime mixes
    /// wall-clock submission stamps with per-rank virtual times, so treat
    /// real-mode utilization as indicative only.
    pub fn utilization(&mut self, now: f64) -> f64 {
        let now = self.sane_now(now);
        // A query, but it advances the busy-time integral — exact-state
        // recovery needs the same advance on replay.
        self.log(&WalRecord::Tick { now });
        self.tick(now);
        if now <= 0.0 {
            return 0.0;
        }
        self.state.busy_proc_seconds / (self.pool.total() as f64 * now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyPref;

    fn lu(n: usize, rows: usize, cols: usize) -> JobSpec {
        JobSpec::new(
            format!("LU{n}"),
            TopologyPref::Grid { problem_size: n },
            ProcessorConfig::new(rows, cols),
            10,
        )
    }

    fn mw(min: usize) -> JobSpec {
        JobSpec::new(
            "MW",
            TopologyPref::AnyCount {
                min,
                max: 22,
                step: 2,
            },
            ProcessorConfig::linear(min),
            10,
        )
    }

    #[test]
    fn fcfs_starts_jobs_in_order() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        let (a, s1) = core.submit(lu(8000, 2, 2), 0.0);
        assert_eq!(s1.len(), 1);
        assert_eq!(s1[0].job, a);
        assert_eq!(s1[0].slots, vec![0, 1, 2, 3]);
        // Second job needs 8, only 4 free: queued.
        let (_b, s2) = core.submit(lu(8000, 2, 4), 1.0);
        assert!(s2.is_empty());
        // Third job would fit, but FCFS blocks behind the head.
        let (_c, s3) = core.submit(lu(8000, 2, 2), 2.0);
        assert!(s3.is_empty());
        assert_eq!(core.queue_len(), 2);
    }

    #[test]
    fn backfill_skips_blocked_head() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Backfill);
        core.submit(lu(8000, 2, 2), 0.0);
        let (_big, s) = core.submit(lu(8000, 2, 4), 1.0);
        assert!(s.is_empty());
        let (small, s) = core.submit(lu(8000, 2, 2), 2.0);
        assert_eq!(
            s.len(),
            1,
            "backfill starts the small job past the blocked head"
        );
        assert_eq!(s[0].job, small);
    }

    #[test]
    fn finish_releases_and_starts_queued() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 2, 2), 0.0);
        let (b, s) = core.submit(lu(8000, 2, 4), 0.0);
        assert!(s.is_empty());
        let started = core.on_finished(a, 100.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, b);
        assert_eq!(started[0].slots.len(), 8);
        assert!(matches!(
            core.job(a).unwrap().state,
            JobState::Finished { .. }
        ));
    }

    #[test]
    fn resize_point_expands_into_idle_cluster() {
        let mut core = SchedulerCore::new(16, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 1, 2), 0.0);
        let (d, started) = core.resize_point(a, 100.0, 0.0, 10.0);
        assert!(started.is_empty());
        match d {
            Directive::Expand { to, new_slots } => {
                assert_eq!(to, ProcessorConfig::new(2, 2));
                assert_eq!(new_slots.len(), 2);
            }
            other => panic!("expected expansion, got {other:?}"),
        }
        assert_eq!(core.busy_procs(), 4);
    }

    #[test]
    fn resize_point_shrinks_for_queued_job() {
        let mut core = SchedulerCore::new(6, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 1, 2), 0.0);
        // Grow to 2x2 (4 procs), then to... queue arrives.
        let (d, _) = core.resize_point(a, 100.0, 0.0, 10.0);
        assert!(matches!(d, Directive::Expand { .. }));
        let (_d2, _) = core.resize_point(a, 80.0, 2.0, 20.0);
        // Now a at 2x2 or bigger; submit a job needing 2 procs: the paper's
        // shrink-for-queue rule should free them at the next resize point.
        let cur = match core.job(a).unwrap().state {
            JobState::Running { config } => config,
            _ => unreachable!(),
        };
        let (b, s) = core.submit(lu(8000, 1, 2), 25.0);
        // May or may not start immediately depending on idle; if it started,
        // the shrink rule is moot — force the crowded case.
        if !s.is_empty() {
            // Cluster had room; finish early — nothing more to assert.
            return;
        }
        let (d3, started) = core.resize_point(a, 70.0, 2.0, 30.0);
        match d3 {
            Directive::Shrink { to } => {
                assert!(to.procs() < cur.procs());
                assert_eq!(started.len(), 1);
                assert_eq!(started[0].job, b);
            }
            other => panic!("expected shrink, got {other:?}"),
        }
    }

    #[test]
    fn static_job_gets_no_change() {
        let mut core = SchedulerCore::new(16, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 2, 2).static_job(), 0.0);
        let (d, _) = core.resize_point(a, 100.0, 0.0, 10.0);
        assert_eq!(d, Directive::NoChange);
    }

    #[test]
    fn failure_reclaims_resources() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 2, 2), 0.0);
        let (b, s) = core.submit(lu(8000, 2, 2), 0.0);
        assert!(s.is_empty());
        let started = core.on_failed(a, "segfault".into(), 5.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, b);
        assert!(matches!(
            core.job(a).unwrap().state,
            JobState::Failed { ref reason, .. } if reason == "segfault"
        ));
    }

    #[test]
    fn double_failure_report_is_a_strict_noop() {
        // A watchdog kill racing the crash report delivers `on_failed`
        // twice. The second report must not log a second WAL record, not
        // re-release slots, and not push a second Failed event.
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs).with_wal(Wal::in_memory());
        let (a, _) = core.submit(lu(8000, 2, 2), 0.0);
        let started = core.on_failed(a, "segfault".into(), 5.0);
        assert!(started.is_empty());
        assert_eq!(core.idle_procs(), 4);
        let failed_records = |c: &SchedulerCore| {
            c.wal()
                .unwrap()
                .records()
                .iter()
                .filter(|r| matches!(r, WalRecord::Failed { .. }))
                .count()
        };
        let failed_events = |c: &SchedulerCore| {
            c.events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Failed { .. }))
                .count()
        };
        assert_eq!(failed_records(&core), 1);
        assert_eq!(failed_events(&core), 1);
        let snap = core.snapshot();
        let started = core.on_failed(a, "watchdog kill".into(), 6.0);
        assert!(started.is_empty());
        assert_eq!(failed_records(&core), 1, "duplicate report re-logged");
        assert_eq!(failed_events(&core), 1, "duplicate report re-evented");
        assert_eq!(core.idle_procs(), 4, "duplicate report double-released");
        assert_eq!(core.snapshot(), snap, "duplicate report mutated state");
    }

    #[test]
    fn node_failure_shrinks_job_in_place() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs);
        let (a, s) = core.submit(lu(8000, 2, 2), 0.0);
        let dead: Vec<usize> = s[0].slots[..2].to_vec();
        let survivors: Vec<usize> = s[0].slots[2..].to_vec();
        let started = core.on_node_failed(a, &dead, ProcessorConfig::new(1, 2), 5.0);
        assert!(started.is_empty());
        let rec = core.job(a).unwrap();
        assert!(
            matches!(rec.state, JobState::Running { config } if config == ProcessorConfig::new(1, 2)),
            "{:?}",
            rec.state
        );
        assert_eq!(rec.slots, survivors, "only the dead slots were reclaimed");
        assert_eq!(core.idle_procs(), 2);
        assert!(matches!(
            core.events().last().unwrap().kind,
            EventKind::NodeFailed { lost: 2, .. }
        ));
        // The degraded size is a recorded shrink: the §3.1 policy sees the
        // smaller configuration and may re-expand at the next resize point.
        let (d, _) = core.resize_point(a, 100.0, 0.0, 10.0);
        assert!(
            matches!(d, Directive::Expand { .. }),
            "policy should offer the freed processors back: {d:?}"
        );
    }

    #[test]
    fn node_failure_frees_capacity_for_queued_jobs() {
        let mut core = SchedulerCore::new(6, QueuePolicy::Fcfs);
        let (a, s) = core.submit(lu(8000, 2, 2), 0.0);
        let (b, queued) = core.submit(lu(8000, 2, 2), 1.0);
        assert!(queued.is_empty());
        let dead: Vec<usize> = s[0].slots[..2].to_vec();
        let started = core.on_node_failed(a, &dead, ProcessorConfig::new(1, 2), 5.0);
        assert_eq!(started.len(), 1, "freed slots should start the queued job");
        assert_eq!(started[0].job, b);
    }

    #[test]
    fn stale_node_failure_reports_are_rejected() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs).with_wal(Wal::in_memory());
        let (a, s) = core.submit(lu(8000, 2, 2), 0.0);
        let slots = s[0].slots.clone();
        let wal_len = |c: &SchedulerCore| c.wal().unwrap().records().len();
        let baseline = core.snapshot();
        let before = wal_len(&core);
        // Slot not held by the job.
        assert!(core
            .on_node_failed(a, &[99], ProcessorConfig::new(1, 2), 5.0)
            .is_empty());
        // Survivor count does not match the target configuration.
        assert!(core
            .on_node_failed(a, &slots[..1], ProcessorConfig::new(1, 2), 5.0)
            .is_empty());
        // Empty dead set.
        assert!(core
            .on_node_failed(a, &[], ProcessorConfig::new(2, 2), 5.0)
            .is_empty());
        assert_eq!(core.snapshot(), baseline, "invalid report mutated state");
        assert_eq!(wal_len(&core), before, "invalid report was logged");
        // A duplicate of a valid report: the first succeeds, the second is
        // stale (those slots are no longer held) and must be rejected.
        let dead: Vec<usize> = slots[..2].to_vec();
        core.on_node_failed(a, &dead, ProcessorConfig::new(1, 2), 6.0);
        let after = core.snapshot();
        assert!(core
            .on_node_failed(a, &dead, ProcessorConfig::new(1, 2), 7.0)
            .is_empty());
        assert_eq!(core.snapshot(), after, "duplicate node-failure re-applied");
    }

    #[test]
    fn failed_expansion_reverts_config_and_reclaims_slots() {
        let mut core = SchedulerCore::new(16, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 1, 2), 0.0);
        let (d, _) = core.resize_point(a, 100.0, 0.0, 10.0);
        let to = match d {
            Directive::Expand { to, .. } => to,
            other => panic!("expected expansion, got {other:?}"),
        };
        assert_eq!(core.busy_procs(), to.procs());
        let started = core.on_expand_failed(a, 11.0);
        assert!(started.is_empty());
        // Reverted to the pre-expansion configuration; surplus slots freed.
        assert!(matches!(
            core.job(a).unwrap().state,
            JobState::Running { config } if config == ProcessorConfig::new(1, 2)
        ));
        assert_eq!(core.busy_procs(), 2);
        assert!(matches!(
            core.events().last().unwrap().kind,
            EventKind::ExpandFailed { .. }
        ));
        // The attempt reads as "expansion did not help": no immediate
        // re-probe of the same growth.
        let (d2, _) = core.resize_point(a, 100.0, 0.0, 12.0);
        assert!(!matches!(d2, Directive::Expand { .. }), "{d2:?}");
    }

    #[test]
    fn failed_expansion_frees_capacity_for_queued_jobs() {
        let mut core = SchedulerCore::new(6, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 1, 2), 0.0);
        let (d, _) = core.resize_point(a, 100.0, 0.0, 10.0); // 1x2 -> 2x2
        assert!(matches!(d, Directive::Expand { .. }));
        // Queue a job needing 4: only 2 idle while `a` holds 4.
        let (b, s) = core.submit(lu(8000, 2, 2), 11.0);
        assert!(s.is_empty());
        // The expansion fails; its 2 reclaimed slots make 4 idle -> b starts.
        let started = core.on_expand_failed(a, 12.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, b);
    }

    #[test]
    fn expand_failed_without_prior_expand_is_inert() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 2, 2), 0.0);
        assert!(core.on_expand_failed(a, 1.0).is_empty());
        assert_eq!(core.busy_procs(), 4);
        // Unknown jobs too.
        assert!(core.on_expand_failed(JobId(999), 2.0).is_empty());
    }

    #[test]
    fn chaos_leak_hook_keeps_slots_allocated() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs);
        core.chaos_skip_release_on_failure(true);
        let (a, _) = core.submit(lu(8000, 2, 2), 0.0);
        core.on_failed(a, "crash".into(), 5.0);
        // The planted bug: the job is terminal but its processors never
        // came back.
        assert_eq!(core.idle_procs(), 0);
        assert_eq!(core.busy_procs(), 4);
    }

    #[test]
    fn utilization_integral() {
        let mut core = SchedulerCore::new(10, QueuePolicy::Fcfs);
        let (a, _) = core.submit(mw(4), 0.0); // 4 procs busy from t=0
        assert_eq!(core.busy_procs(), 4);
        core.on_finished(a, 50.0);
        // 4 procs busy for 50 s out of 10 procs * 100 s.
        let u = core.utilization(100.0);
        assert!((u - 0.2).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn events_trace_records_lifecycle() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 1, 2), 0.0);
        core.resize_point(a, 100.0, 0.0, 10.0); // expand
        core.on_finished(a, 20.0);
        let kinds: Vec<_> = core.events().iter().map(|e| &e.kind).collect();
        assert!(matches!(kinds[0], EventKind::Submitted));
        assert!(matches!(kinds[1], EventKind::Started { .. }));
        assert!(matches!(kinds[2], EventKind::Expanded { .. }));
        assert!(matches!(kinds[3], EventKind::Finished));
    }

    #[test]
    fn priority_jumps_the_queue() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs);
        let (running, _) = core.submit(lu(8000, 2, 2), 0.0);
        let (_low, s) = core.submit(lu(8000, 2, 2), 1.0);
        assert!(s.is_empty());
        let (high, s) = core.submit(lu(8000, 2, 2).with_priority(5), 2.0);
        assert!(s.is_empty());
        // When the running job finishes, the high-priority job starts first
        // even though it arrived last.
        let started = core.on_finished(running, 10.0);
        assert_eq!(started[0].job, high);
    }

    #[test]
    fn priority_drives_shrink_for_queue() {
        // A high-priority arrival's need is what the shrink rule sees.
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 1, 2), 0.0);
        core.resize_point(a, 100.0, 0.0, 5.0); // expand to 2x2
        core.resize_point(a, 80.0, 1.0, 10.0); // expand to 2x4 (fills cluster)
        let (hp, s) = core.submit(lu(8000, 2, 2).with_priority(9), 12.0);
        assert!(s.is_empty());
        let (d, started) = core.resize_point(a, 60.0, 1.0, 15.0);
        assert!(matches!(d, Directive::Shrink { .. }), "{d:?}");
        assert_eq!(started[0].job, hp);
    }

    #[test]
    fn reservation_blocks_ordinary_start() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs);
        core.reserve(0.0, 100.0, 4);
        let (_a, s) = core.submit(lu(8000, 2, 2), 1.0);
        assert!(s.is_empty(), "all processors are reserved");
        // After the window, the job starts.
        let started = core.try_schedule(101.0);
        assert_eq!(started.len(), 1);
    }

    #[test]
    fn reserved_job_draws_on_its_window() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs);
        let rid = core.reserve(0.0, 100.0, 4);
        let (_other, s) = core.submit(lu(8000, 2, 2), 1.0);
        assert!(s.is_empty());
        let (owner, s) = core.submit_reserved(lu(8000, 2, 2).with_priority(1), rid, 2.0);
        assert_eq!(s.len(), 1, "reservation owner starts inside its window");
        assert_eq!(s[0].job, owner);
    }

    #[test]
    fn reservation_deficit_shrinks_running_jobs() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 1, 2), 0.0);
        core.resize_point(a, 100.0, 0.0, 5.0); // 2x2
        core.resize_point(a, 80.0, 1.0, 10.0); // 2x4 = whole cluster
                                               // A reservation for 4 procs activates at t=20 with 0 idle.
        core.reserve(20.0, 100.0, 4);
        let (d, _) = core.resize_point(a, 60.0, 1.0, 25.0);
        match d {
            Directive::Shrink { to } => assert!(to.procs() <= 4, "must vacate reserved capacity"),
            other => panic!("expected shrink for reservation deficit, got {other:?}"),
        }
        assert!(core.idle_procs() >= 4);
    }

    #[test]
    fn expansion_respects_active_reservation() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        core.reserve(0.0, 100.0, 4);
        let (a, s) = core.submit(lu(8000, 1, 2), 0.0);
        assert_eq!(s.len(), 1);
        // 2 busy, 6 idle, 4 reserved -> only 2 effectively available; the
        // 1x2 -> 2x2 expansion needs exactly 2, so it may proceed...
        let (d, _) = core.resize_point(a, 100.0, 0.0, 5.0);
        assert!(matches!(d, Directive::Expand { .. }));
        // ...but the next one (2x2 -> 2x4, +4) must not touch the window.
        let (d, _) = core.resize_point(a, 80.0, 1.0, 10.0);
        assert_eq!(d, Directive::NoChange);
        // Once the reservation lapses, growth resumes.
        let (d, _) = core.resize_point(a, 80.0, 0.0, 150.0);
        assert!(matches!(d, Directive::Expand { .. }));
    }

    #[test]
    fn cancelled_reservation_frees_capacity() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs);
        let rid = core.reserve(0.0, 100.0, 4);
        let (_a, s) = core.submit(lu(8000, 2, 2), 1.0);
        assert!(s.is_empty());
        core.cancel_reservation(rid);
        assert_eq!(core.try_schedule(2.0).len(), 1);
    }

    #[test]
    fn cancel_queued_job_unblocks_fcfs_head() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs);
        let (_running, _) = core.submit(lu(8000, 2, 2), 0.0);
        let (big, s) = core.submit(lu(8000, 2, 4), 1.0); // blocked head
        assert!(s.is_empty());
        let (small, s) = core.submit(lu(8000, 2, 2), 2.0); // stuck behind it
        assert!(s.is_empty());
        // Cancelling the blocked head lets... nothing start (cluster full),
        // but after the running job finishes, `small` starts directly.
        core.cancel(big, 3.0);
        assert!(matches!(
            core.job(big).unwrap().state,
            JobState::Cancelled { .. }
        ));
        let running = core
            .jobs()
            .find(|(_, r)| matches!(r.state, JobState::Running { .. }))
            .map(|(id, _)| *id)
            .unwrap();
        let started = core.on_finished(running, 10.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, small);
    }

    #[test]
    fn cancel_running_job_delivers_terminate_and_frees_procs() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 2, 2), 0.0);
        let (b, s) = core.submit(lu(8000, 2, 4), 1.0);
        assert!(s.is_empty());
        let started = core.cancel(a, 5.0);
        // A's 4 processors free immediately; B (needs 8) starts.
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, b);
        // A's next resize point gets the Terminate directive.
        let (d, _) = core.resize_point(a, 50.0, 0.0, 6.0);
        assert_eq!(d, Directive::Terminate);
        // Repeated check-ins (a duplicated control message, or a zombie
        // that ignored the first verdict) are told to terminate again —
        // Terminate is idempotent and never reallocates.
        let (d, starts) = core.resize_point(a, 50.0, 0.0, 7.0);
        assert_eq!(d, Directive::Terminate);
        assert!(starts.is_empty());
    }

    #[test]
    fn cancel_racing_inflight_expansion_reclaims_old_and_new_slots() {
        let mut core = SchedulerCore::new(16, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 1, 2), 0.0);
        // The Remap Scheduler grants an expansion; the driver is now "in
        // flight" between receiving Expand and committing the spawn.
        let (d, _) = core.resize_point(a, 100.0, 0.0, 10.0);
        let new_slots = match d {
            Directive::Expand { new_slots, .. } => new_slots,
            other => panic!("expected expansion, got {other:?}"),
        };
        assert!(!new_slots.is_empty());
        // Cancel lands mid-flight: the job record already owns both the
        // original and the freshly granted slots, and all of them must
        // come back.
        core.cancel(a, 11.0);
        assert_eq!(
            core.idle_procs(),
            16,
            "cancel leaked in-flight expansion slots"
        );
        // The driver's expansion attempt resolves after the cancel — both
        // outcomes must be inert against the cancelled record.
        let starts = core.on_expand_failed(a, 12.0);
        assert!(starts.is_empty());
        assert_eq!(core.idle_procs(), 16, "late expand-failure double-released");
        // And the (possibly expanded) process group is fenced off at its
        // next resize point.
        let (d, _) = core.resize_point(a, 50.0, 0.0, 13.0);
        assert_eq!(d, Directive::Terminate);
        assert_eq!(core.idle_procs(), 16);
    }

    #[test]
    fn cancel_terminal_job_is_a_no_op() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 2, 2), 0.0);
        core.on_finished(a, 5.0);
        assert!(core.cancel(a, 6.0).is_empty());
        assert!(matches!(
            core.job(a).unwrap().state,
            JobState::Finished { .. }
        ));
    }

    #[test]
    fn pruning_keeps_a_cancelled_job_until_its_terminate() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 2, 2), 0.0);
        core.cancel(a, 5.0);
        assert_eq!(core.prune_terminal(), 0, "a is owed its Terminate");
        let (d, starts) = core.resize_point(a, 50.0, 0.0, 6.0);
        assert_eq!(d, Directive::Terminate);
        assert!(starts.is_empty());
        assert_eq!(core.prune_terminal(), 1, "delivering Terminate retires a");
        assert!(core.job(a).is_none());
    }

    #[test]
    fn a_pruned_job_gets_a_terminal_jobs_answers() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 2, 2), 0.0);
        core.resize_point(a, 10.0, 0.0, 1.0);
        core.on_finished(a, 2.0);
        assert!(core.live_jobs().next().is_none() && core.job(a).is_some());
        assert_eq!(core.prune_terminal(), 1);
        assert!(core.job(a).is_none() && core.profiler().profile(a).is_none());
        // The answers a finished record gets.
        assert_eq!(core.resize_point(a, 10.0, 0.0, 3.0).0, Directive::Terminate);
        assert!(core.on_finished(a, 3.0).is_empty());
        assert!(core.cancel(a, 3.0).is_empty());
        assert!(core.on_failed(a, "late".into(), 3.0).is_empty());
        // A late redistribution cost does not bring the profile back.
        core.note_redist_cost(
            a,
            ProcessorConfig::new(2, 2),
            ProcessorConfig::new(2, 4),
            1.0,
        );
        assert!(core.profiler().profile(a).is_none());
        // An id never submitted is unknown, not terminal.
        assert_eq!(
            core.resize_point(JobId(9), 10.0, 0.0, 4.0).0,
            Directive::NoChange
        );
    }

    #[test]
    fn event_trace_is_bounded_and_drainable() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs).with_event_cap(4);
        for i in 0..6 {
            let (a, _) = core.submit(lu(8000, 1, 2), i as f64);
            core.on_finished(a, i as f64 + 0.5);
        }
        // 6 jobs x (Submitted, Started, Finished) = 18 events against cap 4.
        assert!(
            core.events().len() <= 4,
            "cap not enforced: {}",
            core.events().len()
        );
        assert!(
            core.dropped_events() >= 14,
            "drops uncounted: {}",
            core.dropped_events()
        );
        let drained = core.drain_events();
        assert!(!drained.is_empty());
        assert!(core.events().is_empty());
        assert!(core.drain_events().is_empty());
    }

    #[test]
    fn clear_events_empties_the_trace_in_place() {
        let run = || {
            let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs).with_event_cap(4);
            for i in 0..6 {
                let (a, _) = core.submit(lu(8000, 1, 2), i as f64);
                core.on_finished(a, i as f64 + 0.5);
            }
            core
        };
        let (mut cleared, mut drained) = (run(), run());
        let (capacity, dropped) = (cleared.events.capacity(), cleared.dropped_events());
        assert!(!cleared.events().is_empty() && dropped > 0);
        cleared.clear_events();
        assert!(cleared.events().is_empty());
        assert_eq!(cleared.events.capacity(), capacity, "the buffer is kept");
        assert_eq!(cleared.dropped_events(), dropped);
        drained.drain_events();
        assert_eq!(drained.events.capacity(), 0);
        assert!(cleared.same_state(&drained) && drained.same_state(&cleared));
    }

    #[test]
    fn double_finish_is_ignored() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 2, 2), 0.0);
        core.on_finished(a, 10.0);
        let again = core.on_finished(a, 11.0);
        assert!(again.is_empty());
        assert_eq!(core.idle_procs(), 4);
    }

    // ------------------------------------------------------------------
    // Federation leases
    // ------------------------------------------------------------------

    #[test]
    fn lend_grant_and_reclaim_roundtrip() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        let slots = core.lend_grant(1, 3, 0.0).unwrap();
        assert_eq!(slots, vec![0, 1, 2]);
        assert_eq!(
            (core.owned_procs(), core.idle_procs(), core.lent_procs()),
            (5, 5, 3)
        );
        // A duplicate grant for the same lease id is refused.
        assert!(core.lend_grant(1, 2, 1.0).is_none());
        // Lending beyond idle is refused without side effects.
        assert!(core.lend_grant(2, 6, 1.0).is_none());
        assert_eq!(core.idle_procs(), 5);
        // Reclaim brings them home and is idempotent.
        core.lend_reclaim(1, 5.0);
        assert_eq!(
            (core.owned_procs(), core.idle_procs(), core.lent_procs()),
            (8, 8, 0)
        );
        assert!(core.lend_reclaim(1, 6.0).is_empty());
        assert_eq!(core.idle_procs(), 8);
    }

    #[test]
    fn reclaim_starts_queued_work() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs);
        core.lend_grant(1, 2, 0.0).unwrap();
        // Needs 4, only 2 owned-and-idle: queues.
        let (b, s) = core.submit(lu(8000, 2, 2), 1.0);
        assert!(s.is_empty());
        let started = core.lend_reclaim(1, 2.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, b);
    }

    #[test]
    fn borrow_attach_starts_queued_work_and_expands_ceiling() {
        let mut core = SchedulerCore::new(2, QueuePolicy::Fcfs);
        let (b, s) = core.submit(lu(8000, 2, 2), 0.0);
        assert!(s.is_empty(), "needs 4 of 2");
        let started = core.borrow_attach(9, &[100, 101], 0, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, b);
        // Local ids are minted above the native range.
        assert_eq!(started[0].slots, vec![0, 1, 2, 3]);
        assert_eq!((core.owned_procs(), core.borrowed_procs()), (4, 2));
        // Duplicate grant frame: strict no-op.
        assert!(core.borrow_attach(9, &[100, 101], 0, 2.0).is_empty());
        assert_eq!(core.owned_procs(), 4);
    }

    #[test]
    fn borrow_evict_shrinks_jobs_off_borrowed_slots() {
        let mut core = SchedulerCore::new(2, QueuePolicy::Fcfs);
        let (a, s) = core.submit(mw(4), 0.0);
        assert!(s.is_empty());
        core.borrow_attach(9, &[100, 101], 0, 1.0);
        assert!(matches!(
            core.job(a).unwrap().state,
            JobState::Running { .. }
        ));
        let out = core.borrow_evict(9, 10.0);
        assert_eq!(out.detached, 2);
        assert_eq!(out.shrunk.len(), 1);
        let (job, from, to) = out.shrunk[0];
        assert_eq!(job, a);
        assert_eq!((from.procs(), to.procs()), (4, 2));
        // The job survived on its native slots; the pool shrank back.
        assert_eq!(
            (core.owned_procs(), core.busy_procs(), core.borrowed_procs()),
            (2, 2, 0)
        );
        assert_eq!(core.job(a).unwrap().slots, vec![0, 1]);
        // Duplicate eviction: strict no-op.
        let out2 = core.borrow_evict(9, 11.0);
        assert_eq!(out2, EvictOutcome::default());
    }

    #[test]
    fn borrow_evict_fails_job_with_nothing_left() {
        let mut core = SchedulerCore::new(2, QueuePolicy::Fcfs);
        let (a, _) = core.submit(mw(2), 0.0); // takes both native slots
        core.borrow_attach(9, &[100, 101], 0, 1.0);
        let (b, s) = core.submit(mw(2), 2.0);
        assert_eq!(s.len(), 1, "second job runs entirely on borrowed slots");
        let out = core.borrow_evict(9, 10.0);
        assert_eq!(out.failed, vec![b]);
        assert!(out.shrunk.is_empty());
        assert!(matches!(
            core.job(b).unwrap().state,
            JobState::Failed { .. }
        ));
        assert!(matches!(
            core.job(a).unwrap().state,
            JobState::Running { .. }
        ));
        assert_eq!((core.owned_procs(), core.busy_procs()), (2, 2));
    }

    #[test]
    fn brownout_pauses_expansion_but_not_shrink() {
        let mut core = SchedulerCore::new(16, QueuePolicy::Fcfs);
        let (a, _) = core.submit(lu(8000, 1, 2), 0.0);
        core.set_expand_paused(true, 5.0);
        assert!(core.expand_paused());
        // This resize point would expand into the idle cluster (see
        // resize_point_expands_into_idle_cluster); browned out it must not.
        let (d, _) = core.resize_point(a, 100.0, 0.0, 10.0);
        assert_eq!(d, Directive::NoChange);
        assert_eq!(core.busy_procs(), 2);
        // Release: the next resize point expands again.
        core.set_expand_paused(false, 20.0);
        let (d, _) = core.resize_point(a, 100.0, 0.0, 30.0);
        assert!(matches!(d, Directive::Expand { .. }));
    }

    #[test]
    fn lease_transitions_recover_from_wal() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs).with_wal(Wal::in_memory());
        let (a, _) = core.submit(mw(2), 0.0);
        core.lend_grant(1, 2, 1.0).unwrap();
        core.borrow_attach(2, &[40, 41, 42], 1, 2.0);
        core.resize_point(a, 10.0, 0.0, 3.0);
        core.set_expand_paused(true, 4.0);
        core.borrow_evict(2, 5.0);
        core.lend_reclaim(1, 6.0);
        core.set_expand_paused(false, 7.0);
        core.borrow_attach(3, &[50], 2, 8.0);
        let before = core.snapshot();
        let wal = core.take_wal().unwrap();
        let recovered = SchedulerCore::recover(Wal::decode(&wal.encode()).unwrap()).unwrap();
        assert_eq!(recovered.snapshot(), before);
        // Foreign-id high-water mark survives: the next attach on both
        // cores mints identical local ids.
        assert_eq!(before.foreign_minted, 4);
    }

    #[test]
    fn epoch_bumps_and_heal_repairs_recover_exactly() {
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs).with_wal(Wal::in_memory());
        assert_eq!(core.epoch(), 0);
        assert_eq!(core.bump_epoch(1.0), 1);
        core.borrow_attach(7, &[30, 31], 1, 2.0);
        assert_eq!(core.bump_epoch(3.0), 2);
        core.journal_heal_repair(7, HealAction::EvictStaleBorrow, 4.0);
        core.borrow_evict(7, 4.0);
        assert_eq!(core.epoch(), 2);
        assert_eq!(
            core.borrowed_leases().get(&7),
            None,
            "heal journaling must not itself mutate lease state"
        );
        let before = core.snapshot();
        assert_eq!(before.epoch, 2);
        let wal = core.take_wal().unwrap();
        let recovered = SchedulerCore::recover(Wal::decode(&wal.encode()).unwrap()).unwrap();
        assert_eq!(
            recovered.epoch(),
            2,
            "replay must restore the epoch exactly"
        );
        assert_eq!(recovered.snapshot(), before);
    }

    /// Hand-framed `{crc:08x} {payload}\n` lines after an 8-processor
    /// genesis, so a test can log what the state machine never would.
    fn after_open_8(payloads: &[&str]) -> String {
        ["open 8 fcfs paper 1024 lowest 0"]
            .iter()
            .chain(payloads)
            .map(|p| format!("{:08x} {p}\n", crate::wal::crc32(p.as_bytes())))
            .collect()
    }

    /// Both recovery entry points refuse `text` at `line` with a reason
    /// that contains `says`.
    fn assert_diverges(text: &str, line: usize, says: &str) {
        let strict = SchedulerCore::recover(Wal::decode(text).expect("every line checks"));
        let one_pass = SchedulerCore::recover_salvage(text);
        for err in [strict.err(), one_pass.err()] {
            match err {
                Some(WalError::Corrupt { line: at, reason }) if at == line => {
                    assert!(reason.contains(says), "{reason}")
                }
                other => panic!("expected a divergence at line {line}, got {other:?}"),
            }
        }
    }

    #[test]
    fn lend_grant_replay_divergence_is_an_error() {
        // Lowest-id order lends slot 0; the record claims slot 99.
        let text = after_open_8(&["lg 1 1 99 0000000000000000"]);
        assert_diverges(&text, 2, "lend_grant(lease 1)");
        // More slots than the pool has: the replayed grant is refused.
        let text = after_open_8(&[
            "ts 0000000000000000",
            "lg 4 9 0 1 2 3 4 5 6 7 8 3ff0000000000000",
        ]);
        assert_diverges(&text, 3, "replay gave None");
    }

    #[test]
    fn epoch_replay_divergence_is_an_error() {
        // A fresh core's first bump reaches epoch 1, not the logged 5.
        let text = after_open_8(&["epoch 5 0000000000000000"]);
        assert_diverges(&text, 2, "got 1, logged 5");
    }

    /// A journaling core whose script sets every field `same_state`
    /// compares; its job 1 is running and resizable.
    fn every_field() -> SchedulerCore {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs)
            .with_event_cap(4)
            .with_wal(Wal::in_memory());
        let (a, _) = core.submit(mw(2), 0.0);
        let (b, _) = core.submit(mw(2), 0.5);
        core.on_node_failed(a, &[1], ProcessorConfig::linear(1), 1.0);
        core.lend_grant(1, 2, 2.0).unwrap();
        core.borrow_attach(2, &[40, 41], 1, 3.0);
        let r = core.reserve(100.0, 200.0, 2);
        core.submit_reserved(mw(2), r, 4.0);
        core.cancel(b, 5.0);
        let (q, _) = core.submit(mw(12), 5.5);
        core.submit(mw(12), 5.6);
        core.cancel(q, 5.7);
        core.set_expand_paused(true, 6.0);
        core.bump_epoch(7.0);
        core.resize_point(a, 10.0, 0.0, 8.0);
        assert!(
            core.queue_len() > 0 && !core.state.bindings.is_empty() && !core.retired.is_empty()
        );
        let owed_terminate = |j: &JobRecord| matches!(j.state, JobState::Cancelled { .. });
        assert!(core.state.jobs.values().any(owed_terminate) && !core.state.lent_leases.is_empty());
        assert!(!core.state.borrowed_leases.is_empty() && core.pool.foreign_minted() > 0);
        assert!(core.state.expand_paused && core.state.epoch == 1 && core.state.events_dropped > 0);
        assert!(core.state.profiler.profile(a).is_some() && core.state.busy_proc_seconds > 0.0);
        core
    }

    #[test]
    fn same_state_agrees_with_snapshot_equality() {
        let core = every_field();
        let text = core.wal().unwrap().encode();
        let twin = || SchedulerCore::recover(Wal::decode(&text).unwrap()).unwrap();
        let agree = |other: &SchedulerCore| {
            let same = core.same_state(other);
            assert_eq!(same, core.snapshot() == other.snapshot());
            assert_eq!(same, other.same_state(&core), "same_state is symmetric");
            same
        };
        assert!(agree(&twin()), "a recovered twin is the same state");

        type Perturb = fn(&mut SchedulerCore);
        let differ: [(&str, Perturb); 19] = [
            ("free slots", |c| {
                c.pool.allocate(1).unwrap();
            }),
            ("queue", |c| {
                c.queue.pop_first();
            }),
            ("jobs", |c| {
                c.state.jobs.get_mut(&JobId(1)).unwrap().submitted_at += 1.0;
            }),
            ("retired", |c| {
                c.retired.get_mut(&JobId(4)).unwrap().submitted_at += 1.0;
            }),
            ("profiles", |c| {
                c.state.profiler.profile_mut(JobId(99));
            }),
            ("next_id", |c| c.state.next_id += 1),
            ("reservations", |c| c.state.reservations[0].procs += 1),
            ("next_reservation", |c| c.state.next_reservation += 1),
            ("bindings", |c| {
                c.state.bindings.insert(JobId(99), ReservationId(1));
            }),
            ("pending_cancel", |c| {
                let running = c
                    .state
                    .jobs
                    .values_mut()
                    .find(|j| matches!(j.state, JobState::Running { .. }))
                    .unwrap();
                running.state = JobState::Cancelled { at: 8.0 };
            }),
            ("busy_proc_seconds", |c| c.state.busy_proc_seconds += 1.0),
            ("last_tick", |c| c.state.last_tick += 1.0),
            ("events", |c| {
                c.events.pop();
            }),
            ("events_dropped", |c| c.state.events_dropped += 1),
            ("lent_leases", |c| {
                c.state.lent_leases.insert(99, Vec::new());
            }),
            ("borrowed_leases", |c| {
                c.state.borrowed_leases.get_mut(&2).unwrap().lender_epoch += 1;
            }),
            ("foreign_minted", |c| {
                let minted = c.pool.attach_foreign(1);
                c.pool.detach_foreign_slot(minted[0]);
            }),
            ("expand_paused", |c| {
                c.state.expand_paused = !c.state.expand_paused
            }),
            ("epoch", |c| c.state.epoch += 1),
        ];
        for (field, perturb) in differ {
            let mut t = twin();
            perturb(&mut t);
            assert!(!agree(&t), "a twin with another {field} must differ");
        }
        let same: [(&str, Perturb); 2] = [
            ("trace_ids", |c| {
                c.trace_ids.insert(JobId(99), (1, 2));
            }),
            ("hash order", |c| {
                let mut jobs = IdMap::with_capacity_and_hasher(1024, Default::default());
                jobs.extend(c.state.jobs.drain());
                c.state.jobs = jobs;
                let mut retired = IdMap::with_capacity_and_hasher(1024, Default::default());
                retired.extend(c.retired.drain());
                c.retired = retired;
            }),
        ];
        for (what, perturb) in same {
            let mut t = twin();
            perturb(&mut t);
            assert!(agree(&t), "{what} is not state");
        }
    }

    /// Recovered from `core`'s WAL text.
    fn reread(core: &SchedulerCore) -> SchedulerCore {
        SchedulerCore::recover(Wal::decode(&core.wal().unwrap().encode()).unwrap()).unwrap()
    }

    #[test]
    fn compaction_keeps_every_compared_field() {
        let mut core = every_field();
        let before = core.wal().unwrap().appended_bytes();
        core.compact_wal();
        let wal = core.wal().unwrap();
        assert_eq!(wal.len(), 2, "genesis and one checkpoint");
        assert!(wal.appended_bytes() > before, "a compaction writes");
        assert!(core.events().is_empty() && core.retired.is_empty());
        let mut twin = reread(&core);
        assert!(twin.same_state(&core));
        // Both go on identically, and the writer's WAL still recovers to it.
        for c in [&mut core, &mut twin] {
            c.set_expand_paused(false, 9.0);
            c.resize_point(JobId(1), 9.0, 0.0, 10.0);
            c.submit(mw(2), 11.0);
        }
        assert!(twin.same_state(&core));
        assert!(reread(&core).same_state(&core));
        // A second compaction replaces the first checkpoint.
        core.compact_wal();
        assert_eq!(core.wal().unwrap().len(), 2);
        assert!(reread(&core).same_state(&core));
    }

    #[test]
    fn an_unterminated_final_record_is_kept_and_the_next_append_starts_a_line() {
        // The crash landed after the last record's payload but before its
        // line break: the record parses and is kept, and the next append
        // must not be glued onto it.
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs).with_wal(Wal::in_memory());
        let (a, _) = core.submit(mw(2), 0.0);
        core.resize_point(a, 10.0, 0.0, 1.0);
        core.submit(mw(4), 2.0);
        let full = core.wal().unwrap().encode();
        let text = full.strip_suffix('\n').unwrap();
        let n = core.wal().unwrap().len();
        let appended_once = |wal: &Wal| {
            assert_eq!(wal.len(), n + 1);
            let text = wal.encode();
            assert!(text.starts_with(&full), "the kept record ends its line");
            let again = Wal::decode(&text).unwrap();
            assert_eq!(again.len(), n + 1);
            assert_eq!(again.encode(), text);
            again
        };

        let mut decoded = Wal::decode(text).unwrap();
        assert_eq!(decoded.len(), n);
        decoded.append(WalRecord::Tick { now: 3.0 });
        let again = appended_once(&decoded);
        assert_eq!(again.records().last(), Some(&WalRecord::Tick { now: 3.0 }));

        let (mut recovered, salvage) = SchedulerCore::recover_salvage(text).unwrap();
        assert!(salvage.is_none());
        assert!(recovered.same_state(&core));
        recovered.utilization(3.0);
        let again = appended_once(recovered.wal().unwrap());
        let reread = SchedulerCore::recover(again).unwrap();
        assert!(reread.same_state(&recovered));
    }

    /// The payload of a valid checkpoint of an idle 8-processor core, with
    /// `free` in place of its free slots and `rest` after them.
    fn ckpt(next_id: u64, free: &str, rest: &str) -> String {
        format!("ckpt {next_id} 1 0 0 0000000000000000 0000000000000000 0 0 {free} {rest}")
    }

    const ALL_FREE: &str = "8 0 1 2 3 4 5 6 7";
    const NOTHING: &str = "0 0 0 0 0 0 0";

    #[test]
    fn checkpoint_restores_only_after_genesis() {
        let valid = ckpt(1, ALL_FREE, NOTHING);
        let text = after_open_8(&[&valid, "ts 0000000000000000"]);
        assert_eq!(
            SchedulerCore::recover_salvage(&text)
                .unwrap()
                .0
                .idle_procs(),
            8
        );
        let text = after_open_8(&["ts 0000000000000000", &valid]);
        assert_diverges(&text, 3, "directly follow genesis");
    }

    #[test]
    fn checkpoint_no_core_could_write_is_refused() {
        let running = "1 1 LU grid 8000 2 2 10 1 0 0 running 2 2 1 0 0000000000000000 0 0";
        for (payload, says) in [
            (ckpt(0, ALL_FREE, NOTHING), "minted from 1"),
            (ckpt(1, "7 0 1 2 3 4 5 6", NOTHING), "neither free nor held"),
            (ckpt(1, "9 0 1 2 3 4 5 6 7 7", NOTHING), "claimed twice"),
            (
                ckpt(1, ALL_FREE, "0 1 3 1 9 0 0 0 0 0"),
                "slot 9 cannot be lent",
            ),
            (
                ckpt(1, ALL_FREE, "0 0 1 3 1 2 1 40 0 0 0 0 0"),
                "cannot be borrowed",
            ),
            (
                ckpt(2, "7 1 2 3 4 5 6 7", &format!("0 0 0 {running} 0 0 0")),
                "cannot be live",
            ),
            (
                ckpt(
                    2,
                    ALL_FREE,
                    "0 0 0 1 1 LU grid 8000 2 2 10 1 0 0 queued 0 \
                     0000000000000000 0 0 0 1 1 0",
                ),
                "owed a Terminate",
            ),
            (
                ckpt(2, ALL_FREE, "0 0 0 0 0 0 1 1 0 0 0 grow 2 2 1 1 0"),
                "expanded from 2x2 to 1x1",
            ),
            (
                // 2^50 foreign ids minted: no allocator can hold the pool.
                format!(
                    "ckpt 1 1 0 0 0000000000000000 0000000000000000 0 1125899906842624 \
                     {ALL_FREE} {NOTHING}"
                ),
                "take the pool past",
            ),
        ] {
            let text = after_open_8(&[&payload]);
            let strict = SchedulerCore::recover(Wal::decode(&text).expect("checksummed"));
            for err in [strict.err(), SchedulerCore::recover_salvage(&text).err()] {
                match err {
                    Some(WalError::BadGenesis(why)) => assert!(why.contains(says), "{why}"),
                    other => panic!("`{payload}`: expected a refusal, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn damaged_checkpoint_is_refused_not_salvaged() {
        let mut core = every_field();
        core.compact_wal();
        core.submit(mw(2), 9.0);
        let text = core.wal().unwrap().encode();
        let genesis = text.find('\n').unwrap() + 1;
        let mut flipped = text.clone().into_bytes();
        flipped[genesis + 20] ^= 0x01;
        let flipped = String::from_utf8(flipped).unwrap();
        let torn = &text[..genesis + 40];
        for damaged in [flipped.as_str(), torn] {
            assert!(matches!(
                Wal::decode(damaged),
                Err(WalError::Corrupt { line: 2, reason }) if reason.contains("damaged checkpoint")
            ));
            let (wal, salvage) = Wal::decode_salvage(damaged);
            assert!(wal.is_empty(), "the genesis goes with its checkpoint");
            assert_eq!(salvage.unwrap().quarantined, damaged);
            assert!(matches!(
                SchedulerCore::recover_salvage(damaged),
                Err(WalError::BadGenesis(_))
            ));
        }
    }

    #[test]
    fn genesis_no_core_can_be_built_from_is_an_error() {
        // Each passes its checksum and parses: an event cap of 0, slot
        // speeds that are 0, negative, infinite or NaN, and no slot speeds.
        for (payload, says) in [
            ("open 4 fcfs paper 0 lowest 0", "events_cap"),
            (
                "open 2 fcfs paper 1024 lowest 1 2 3ff0000000000000 0000000000000000",
                "slot speed",
            ),
            (
                "open 1 fcfs paper 1024 lowest 1 1 bff0000000000000",
                "slot speed",
            ),
            (
                "open 1 fcfs paper 1024 lowest 1 1 7ff0000000000000",
                "slot speed",
            ),
            (
                "open 1 fcfs paper 1024 lowest 1 1 7ff8000000000000",
                "slot speed",
            ),
            ("open 0 fcfs paper 1024 lowest 1 0", "slot_speeds is empty"),
            // 2^50 slots: no allocator can hold the pool.
            ("open 1125899906842624 fcfs paper 1024 lowest 0", "is above"),
        ] {
            let text = format!("{:08x} {payload}\n", crate::wal::crc32(payload.as_bytes()));
            let strict = SchedulerCore::recover(Wal::decode(&text).expect("checksummed"));
            for err in [strict.err(), SchedulerCore::recover_salvage(&text).err()] {
                match err {
                    Some(WalError::BadGenesis(why)) => assert!(why.contains(says), "{why}"),
                    other => panic!("`{payload}`: expected a refusal, got {other:?}"),
                }
            }
        }
        let payload = "open 4 fcfs paper 0 lowest 0";
        assert_eq!(crate::wal::crc32(payload.as_bytes()), 0x9ec4_9eff);
    }

    /// Checkpoints assembled at random — an 8-processor pool with 3 foreign
    /// ids, its slots dealt to running jobs, free, lent or borrowed, job
    /// states and pending cancels that mostly agree, and now and then a
    /// defect — then restored: whatever `restore` accepts, every later
    /// transition on every job and lease must run without a panic.
    #[test]
    fn accepted_checkpoints_never_panic_later() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let (mut accepted, mut refused) = (0, 0);
        for _ in 0..4000 {
            let mut unused: Vec<usize> = (0..11).collect();
            let mut jobs = BTreeMap::new();
            for id in 1..=1 + next(4) {
                let mut slots = Vec::new();
                let state = match next(8) {
                    0 | 1 => JobState::Queued,
                    2 => JobState::Cancelled { at: 1.0 },
                    3 if next(4) == 0 => JobState::Finished { at: 1.0 },
                    _ => {
                        for _ in 0..(1 + next(3) as usize).min(unused.len()) {
                            let at = next(unused.len() as u64) as usize;
                            slots.push(unused.swap_remove(at));
                        }
                        let config = if next(8) == 0 {
                            ProcessorConfig::new(1 + next(3) as usize, 1 + next(3) as usize)
                        } else {
                            ProcessorConfig::linear(slots.len().max(1))
                        };
                        JobState::Running { config }
                    }
                };
                let any = TopologyPref::AnyCount {
                    min: 1,
                    max: 9,
                    step: 1,
                };
                let initial = ProcessorConfig::linear(1 + next(4) as usize);
                let rec = JobRecord {
                    spec: JobSpec::new("J", any, initial, 3),
                    state,
                    slots,
                    submitted_at: 0.0,
                    started_at: None,
                    finished_at: None,
                };
                jobs.insert(JobId(id), rec);
            }
            let (mut free, mut lent, mut local) = (Vec::new(), Vec::new(), Vec::new());
            for slot in unused {
                match next(6) {
                    0 if slot < 8 => lent.push(slot),
                    1 if slot >= 8 => local.push(slot),
                    2 if next(16) == 0 => {}
                    _ if slot < 8 => free.push(slot),
                    _ => {}
                }
            }
            let mut profiler = Profiler::new();
            for &id in jobs.keys() {
                let mut cfg = || ProcessorConfig::new(1 + next(3) as usize, 1 + next(3) as usize);
                profiler.record_iteration(id, cfg(), 10.0, 0.0);
                let (from, to) = (cfg(), cfg());
                let resize = if next(2) == 0 {
                    Resize::Expanded { from, to }
                } else {
                    Resize::Shrunk { from, to }
                };
                profiler.record_resize(id, resize, 1.0);
            }
            let pending_cancel = jobs
                .iter()
                .filter(|(_, j)| matches!(j.state, JobState::Cancelled { .. }) || next(16) == 0)
                .map(|(&id, _)| id)
                .collect();
            let borrowed = BorrowedLease {
                local: local.clone(),
                global: local,
                lender_epoch: 0,
            };
            let checkpoint = Checkpoint {
                state: DurableState {
                    next_id: jobs.len() as u64 + 1,
                    next_reservation: 1,
                    epoch: 0,
                    events_dropped: 0,
                    busy_proc_seconds: 0.0,
                    last_tick: 1.0,
                    expand_paused: false,
                    reservations: Vec::new(),
                    lent_leases: [(1, lent)].into_iter().collect(),
                    borrowed_leases: [(2, borrowed)].into_iter().collect(),
                    jobs: jobs.into_iter().collect(),
                    bindings: IdMap::default(),
                    profiler,
                },
                foreign_minted: 3,
                free_slots: free,
                pending_cancel,
            };
            let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
            if core.restore(checkpoint).is_err() {
                refused += 1;
                continue;
            }
            accepted += 1;
            let ids: Vec<JobId> = core.state.jobs.keys().copied().collect();
            let mut now = 2.0;
            for id in ids {
                now += 1.0;
                core.resize_point(id, 5.0, 0.0, now);
                core.on_expand_failed(id, now);
                let held = core.state.jobs.get(&id).map_or(0, |j| j.slots.len());
                if held > 1 {
                    let dead = [core.state.jobs[&id].slots[0]];
                    core.on_node_failed(id, &dead, ProcessorConfig::linear(held - 1), now);
                }
                core.cancel(id, now);
                core.resize_point(id, 5.0, 0.0, now);
                core.on_finished(id, now);
            }
            core.borrow_evict(2, now);
            core.lend_reclaim(1, now);
            core.submit(mw(2), now);
            core.try_schedule(now);
        }
        assert!(
            accepted > 300 && refused > 300,
            "{accepted} accepted, {refused} refused"
        );
    }
}
