//! The resizing library and API (paper §3.2).
//!
//! This module is what an application links against to become resizable.
//! It provides the paper's two API tiers:
//!
//! * **Simple Functional API** — [`ResizeContext::log`] and
//!   [`ResizeContext::resize`]: `resize()` internally contacts the
//!   scheduler, expands or shrinks the processor set, and redistributes the
//!   data. Combined with [`run_resizable`], porting an iterative SPMD code
//!   means supplying an `init` closure (build the distributed state) and an
//!   `iterate` closure (one outer iteration).
//! * **Advanced Functional API** — [`ResizeContext::contact_scheduler`],
//!   [`ResizeContext::expand_processors`],
//!   [`ResizeContext::shrink_processors`] and
//!   [`ResizeContext::redistribute`], for codes that need to orchestrate the
//!   stages themselves (Figure 1(b)'s state machine).
//!
//! Mechanically, expansion spawns new processes with
//! `MPI_Comm_spawn_multiple`-equivalent [`Comm::spawn`], merges the
//! intercommunicator, rebuilds the grid context, and redistributes every
//! registered global array with the contention-free schedule from
//! `reshape-redist`. Shrinking redistributes first, then the surplus ranks
//! exit and the survivors carve a smaller communicator out of the old one.

use std::sync::Arc;

use reshape_blockcyclic::{recover_matrix, BuddyStore, Descriptor, DistMatrix};
use reshape_grid::GridContext;
use reshape_mpisim::{Comm, NodeId, SpawnCtx};
use reshape_redist::{plan_2d, redistribute, redistribute_2d, Commit};
use reshape_telemetry::trace::{self, TraceCtx};

use crate::backoff::Backoff;
use crate::core::Directive;
use crate::job::JobId;
use crate::topology::ProcessorConfig;

/// How a resizable application reaches the scheduler. The real runtime
/// backs this with calls on its locked core, made on the calling rank's
/// thread; tests and the simulator provide their own implementations.
pub trait SchedulerLink: Send + Sync {
    /// The paper's `contact_scheduler`: report the last iteration time and
    /// redistribution time; receive expand/shrink/no-change.
    fn resize_point(&self, job: JobId, iter_time: f64, redist_time: f64, now: f64) -> Directive;
    /// Report the measured cost of an actuated redistribution.
    fn note_redist(&self, job: JobId, from: ProcessorConfig, to: ProcessorConfig, seconds: f64);
    /// The application finished its final iteration.
    fn finished(&self, job: JobId, now: f64);
    /// The application entered a new computational phase; the profiler's
    /// timing history for it should reset (paper intro's multi-phase
    /// motivation). Default: ignored.
    fn phase_change(&self, _job: JobId, _now: f64) {}
    /// An expand directive could not be actuated (the spawn was granted
    /// fewer processes than needed); the job keeps running at its previous
    /// configuration and the scheduler should reclaim the granted slots.
    /// Default: ignored.
    fn expand_failed(&self, _job: JobId, _to: ProcessorConfig, _now: f64) {}
    /// A survivable job lost the given ranks to a node failure but
    /// recovered in place: the scheduler should reclaim only the dead
    /// ranks' slots and keep the job running at configuration `to`
    /// ([`crate::SchedulerCore::on_node_failed`]). `dead_ranks` are rank
    /// indices in the job's pre-failure communicator; implementations map
    /// them to processor slots. Default: ignored.
    fn node_failed(&self, _job: JobId, _dead_ranks: &[usize], _to: ProcessorConfig, _now: f64) {}
    /// A survivable job could not recover (a rank and its buddy both died):
    /// the job is over and the scheduler should reclaim everything
    /// ([`crate::SchedulerCore::on_failed`]). Default: ignored — the
    /// process-monitor failure path then picks it up as before.
    fn failed(&self, _job: JobId, _reason: &str, _now: f64) {}
}

/// A resizable application: closures shared by the original processes and
/// any process spawned later (the paper's requirement that the same binary
/// can join mid-run).
///
/// `init` builds the distributed global state for a fresh start; `iterate`
/// performs one outer iteration. All global state that must survive a
/// resize lives in the `Vec<DistMatrix<f64>>` ("the application user needs
/// to indicate the global data structures ... so that they can be
/// redistributed").
/// The state-construction closure of an [`AppDef`].
pub type InitFn = dyn Fn(&GridContext) -> Vec<DistMatrix<f64>> + Send + Sync;
/// The per-iteration closure of an [`AppDef`]: `(grid, state, iteration)`.
pub type IterateFn = dyn Fn(&GridContext, &mut Vec<DistMatrix<f64>>, usize) + Send + Sync;

#[derive(Clone)]
pub struct AppDef {
    pub init: Arc<InitFn>,
    pub iterate: Arc<IterateFn>,
    /// Iteration indices at which a new computational phase begins; the
    /// driver notifies the scheduler there so the job re-probes its sweet
    /// spot (empty for single-phase applications).
    pub phase_starts: Vec<usize>,
}

impl AppDef {
    pub fn new(
        init: impl Fn(&GridContext) -> Vec<DistMatrix<f64>> + Send + Sync + 'static,
        iterate: impl Fn(&GridContext, &mut Vec<DistMatrix<f64>>, usize) + Send + Sync + 'static,
    ) -> Self {
        AppDef {
            init: Arc::new(init),
            iterate: Arc::new(iterate),
            phase_starts: Vec::new(),
        }
    }

    /// Declare the iteration indices at which new phases begin.
    pub fn with_phase_starts(mut self, starts: Vec<usize>) -> Self {
        self.phase_starts = starts;
        self
    }
}

/// Spawn attempts per expand directive. `MPI_Comm_spawn_multiple`
/// returning fewer processes than requested is often a transient condition
/// (a node agent restarting, a race with another job's teardown), so the
/// driver retries the spawn after a backoff in virtual time before giving
/// up and reporting the size unprofitable via
/// [`SchedulerLink::expand_failed`].
const SPAWN_ATTEMPTS: usize = 3;

/// Virtual-time backoff between spawn attempts, jittered by `(job,
/// attempt)` so contending expansions de-synchronize while every rank of
/// one job computes the identical delay.
const SPAWN_BACKOFF: Backoff = Backoff {
    base: 0.5,
    factor: 2.0,
    max: 8.0,
    jitter_frac: 0.25,
};

/// Immutable driver parameters shared across resizes and spawned processes.
pub struct DriverShared {
    pub job: JobId,
    pub app: AppDef,
    pub iterations: usize,
    pub link: Arc<dyn SchedulerLink>,
    /// Processor slots per cluster node, to map granted slots to nodes.
    pub slots_per_node: usize,
    /// Run with in-memory buddy redundancy and shrink-to-survivors
    /// recovery: every rank's panels are replicated to a ring neighbor at
    /// each resize point, a heartbeat exchange at every iteration boundary
    /// detects dead ranks, and a detected loss is survived by restoring the
    /// lost panels from their buddies and continuing on the surviving
    /// ranks. Costs one panel copy per rank per resize plus `O(P^2)` tiny
    /// heartbeat messages per iteration, so it is opt-in per job
    /// ([`crate::JobSpec::survivable`]).
    pub survivable: bool,
}

/// What [`ResizeContext::resize`] tells the caller to do next.
#[derive(Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Keep iterating on the current grid.
    Continue,
    /// The processor set changed; the grid context was rebuilt.
    Resized,
    /// This process was shrunk away: clean up and return immediately.
    Depart,
}

const DIR_NOCHANGE: u64 = 0;
const DIR_EXPAND: u64 = 1;
const DIR_SHRINK: u64 = 2;
const DIR_TERMINATE: u64 = 3;

/// Intercomm tag for the expansion verdict: after spawning, the parent root
/// tells each child whether the expansion goes ahead ([`EXPAND_GO`]) or is
/// aborted because the spawn was short-granted ([`EXPAND_ABORT`], children
/// exit before merging). Intercomm messages are reliable, as MPI's are, and
/// each child blocks on its verdict, so one message per child suffices.
const TAG_EXPAND_COMMIT: u32 = 9_000_000;
const EXPAND_GO: u64 = 1;
const EXPAND_ABORT: u64 = 0;

/// Send the verdict to each of the spawned children. Runs on the parent
/// root only.
fn send_verdict(inter: &reshape_mpisim::InterComm, verdict: u64) {
    for child in 0..inter.remote_size() {
        inter.send_remote(child, TAG_EXPAND_COMMIT, &[verdict]);
    }
}

/// Per-process handle to the resizing library.
pub struct ResizeContext {
    shared: Arc<DriverShared>,
    comm: Comm,
    grid: GridContext,
    config: ProcessorConfig,
    iter: usize,
    /// Redistribution seconds paid at the previous resize (reported to the
    /// scheduler with the next iteration time).
    last_redist: f64,
}

impl ResizeContext {
    /// Attach the resizing library to a running process group — the entry
    /// point for the **advanced** API, where the application orchestrates
    /// `contact_scheduler` / `expand_processors` / `shrink_processors` /
    /// `redistribute` itself (Figure 1(b)). Codes using the simple API go
    /// through [`run_resizable`] instead.
    pub fn attach(shared: Arc<DriverShared>, comm: Comm, config: ProcessorConfig) -> Self {
        assert_eq!(
            comm.size(),
            config.procs(),
            "communicator must match config"
        );
        Self::new(shared, comm, config, 0)
    }

    fn new(shared: Arc<DriverShared>, comm: Comm, config: ProcessorConfig, iter: usize) -> Self {
        let grid = GridContext::new(&comm, config.rows, config.cols);
        ResizeContext {
            shared,
            comm,
            grid,
            config,
            iter,
            last_redist: 0.0,
        }
    }

    pub fn grid(&self) -> &GridContext {
        &self.grid
    }

    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    pub fn config(&self) -> ProcessorConfig {
        self.config
    }

    pub fn iteration(&self) -> usize {
        self.iter
    }

    /// Simple API: agree on this iteration's time, the maximum over all
    /// processes, like the paper's average-and-log step (collective). The
    /// agreed time is what the next resize point reports to the scheduler,
    /// whose Performance Profiler records it.
    pub fn log(&mut self, local_iter_time: f64) -> f64 {
        self.comm
            .allreduce(reshape_mpisim::ReduceOp::Max, &[local_iter_time])[0]
    }

    /// Advanced API: ask the Remap Scheduler what to do, given the agreed
    /// iteration time. Collective; every rank returns the same directive.
    pub fn contact_scheduler(&mut self, iter_time: f64) -> Directive {
        let msg: Vec<u64> = if self.comm.rank() == 0 {
            let d = self.shared.link.resize_point(
                self.shared.job,
                iter_time,
                self.last_redist,
                self.comm.vtime(),
            );
            match d {
                Directive::NoChange => vec![DIR_NOCHANGE],
                Directive::Expand { to, new_slots } => {
                    let mut m = vec![DIR_EXPAND, to.rows as u64, to.cols as u64];
                    m.extend(new_slots.iter().map(|&s| s as u64));
                    m
                }
                Directive::Shrink { to } => vec![DIR_SHRINK, to.rows as u64, to.cols as u64],
                Directive::Terminate => vec![DIR_TERMINATE],
            }
        } else {
            Vec::new()
        };
        let msg = self.comm.bcast(0, &msg);
        match msg[0] {
            DIR_NOCHANGE => Directive::NoChange,
            DIR_EXPAND => Directive::Expand {
                to: ProcessorConfig::new(msg[1] as usize, msg[2] as usize),
                new_slots: msg[3..].iter().map(|&s| s as usize).collect(),
            },
            DIR_SHRINK => Directive::Shrink {
                to: ProcessorConfig::new(msg[1] as usize, msg[2] as usize),
            },
            DIR_TERMINATE => Directive::Terminate,
            other => unreachable!("corrupt directive {other}"),
        }
    }

    /// Advanced API: spawn the processes granted by an expand directive and
    /// merge them in (BLACS-context rebuild included). Redistribution is a
    /// separate step ([`ResizeContext::redistribute`]).
    ///
    /// Returns `false` when the spawn was granted fewer processes than the
    /// expansion needs in each of three attempts: each partial grant is
    /// aborted (spawned processes exit before merging) and retried after an
    /// exponential virtual-time backoff; once the attempts are spent the
    /// scheduler is told via
    /// [`SchedulerLink::expand_failed`] and the application keeps running
    /// on its previous configuration with its data layout untouched.
    pub fn expand_processors(
        &mut self,
        to: ProcessorConfig,
        new_slots: &[usize],
        mats: &mut Vec<DistMatrix<f64>>,
    ) -> bool {
        let from = self.config;
        let delta = to.procs() - from.procs();
        let mut attempt = 1;
        let (inter, t0) = loop {
            let nodes: Option<Vec<NodeId>> = (self.comm.rank() == 0).then(|| {
                assert_eq!(new_slots.len(), delta, "slot grant does not match growth");
                new_slots
                    .iter()
                    .map(|&s| NodeId((s / self.shared.slots_per_node) as u32))
                    .collect()
            });
            let shared = Arc::clone(&self.shared);
            let t0 = self.comm.vtime();
            let inter = self.comm.spawn(delta, nodes, "reshape-expand", move |ctx| {
                spawned_process_main(ctx, Arc::clone(&shared));
            });
            // Verdict: every rank learned the actual grant from the spawn
            // broadcast; the root tells each spawned process whether to
            // proceed into the merge or exit immediately.
            let granted = inter.remote_size();
            if granted == delta {
                break (inter, t0);
            }
            if self.comm.rank() == 0 {
                send_verdict(&inter, EXPAND_ABORT);
                reshape_telemetry::incr("driver.expand_aborts", 1);
            }
            if attempt >= SPAWN_ATTEMPTS {
                if self.comm.rank() == 0 {
                    self.shared
                        .link
                        .expand_failed(self.shared.job, to, self.comm.vtime());
                }
                self.last_redist = 0.0;
                return false;
            }
            // Transient shortfall: back off in virtual time and try again.
            // Every rank computes the same deterministic delay, so the
            // group stays in lockstep for the next collective spawn.
            let backoff = SPAWN_BACKOFF.delay(self.shared.job.0, attempt);
            self.comm.advance(backoff);
            if self.comm.rank() == 0 {
                reshape_telemetry::incr("driver.expand_retries", 1);
                reshape_telemetry::observe("driver.expand_backoff_seconds", backoff);
            }
            attempt += 1;
        };
        if self.comm.rank() == 0 {
            send_verdict(&inter, EXPAND_GO);
            if trace::enabled() {
                // Spawn + verdict, retries and backoff included: from
                // entry into the spawn loop to the GO verdict.
                let job = self.shared.job.0;
                let s = trace::complete(
                    job,
                    trace::head(job),
                    format!(
                        "spawn +{delta} ({attempt} attempt{})",
                        if attempt == 1 { "" } else { "s" }
                    ),
                    "spawn",
                    "driver",
                    t0,
                    self.comm.vtime(),
                );
                trace::set_head(job, s);
            }
        }
        let t_redist0 = self.comm.vtime();
        let merged = inter.merge();
        // Tell the newcomers where the computation stands: iteration count,
        // old and new configurations, and each array's descriptor.
        let mut hdr: Vec<u64> = vec![
            self.iter as u64,
            from.rows as u64,
            from.cols as u64,
            to.rows as u64,
            to.cols as u64,
            mats.len() as u64,
        ];
        for m in mats.iter() {
            hdr.extend([
                m.desc.m as u64,
                m.desc.n as u64,
                m.desc.mb as u64,
                m.desc.nb as u64,
            ]);
        }
        merged.bcast(0, &hdr);
        // Move the data; parents are sources and (low-rank) destinations.
        *mats = redistribute_over(&merged, from, to, std::mem::take(mats))
            .expect("parents remain in the expanded grid");
        let dt = self.comm.vtime() - t0;
        self.last_redist = dt;
        if self.comm.rank() == 0 {
            reshape_telemetry::incr("driver.expansions", 1);
            reshape_telemetry::observe("driver.redist_vtime_seconds", dt);
            if trace::enabled() {
                let job = self.shared.job.0;
                let s = trace::complete(
                    job,
                    trace::head(job),
                    format!("redist {from}->{to}"),
                    "redist",
                    "driver",
                    t_redist0,
                    self.comm.vtime(),
                );
                trace::set_head(job, s);
            }
            self.shared.link.note_redist(self.shared.job, from, to, dt);
        }
        self.comm = merged;
        self.config = to;
        self.grid = GridContext::new(&self.comm, to.rows, to.cols);
        true
    }

    /// Advanced API: redistribute to a previously used smaller
    /// configuration, exit the old context, and relinquish the surplus
    /// processes. Returns `Depart` on ranks that leave.
    pub fn shrink_processors(
        &mut self,
        to: ProcessorConfig,
        mats: &mut Vec<DistMatrix<f64>>,
    ) -> Resolution {
        let from = self.config;
        assert!(
            to.procs() < from.procs(),
            "shrink must reduce the processor count"
        );
        let t0 = self.comm.vtime();
        let out = redistribute_over(&self.comm, from, to, std::mem::take(mats));
        let dt = self.comm.vtime() - t0;
        let keep = self.comm.rank() < to.procs();
        let sub = self.comm.split(keep.then_some(0), self.comm.rank() as i64);
        if !keep {
            // This process leaves the application; its slot was already
            // reclaimed by the scheduler when the directive was issued.
            return Resolution::Depart;
        }
        *mats = out.expect("retained ranks received their panels");
        self.last_redist = dt;
        if self.comm.rank() == 0 {
            reshape_telemetry::incr("driver.shrinks", 1);
            reshape_telemetry::observe("driver.redist_vtime_seconds", dt);
            if trace::enabled() {
                let job = self.shared.job.0;
                let s = trace::complete(
                    job,
                    trace::head(job),
                    format!("redist {from}->{to}"),
                    "redist",
                    "driver",
                    t0,
                    self.comm.vtime(),
                );
                trace::set_head(job, s);
            }
            self.shared.link.note_redist(self.shared.job, from, to, dt);
        }
        self.comm = sub.expect("retained ranks form the new communicator");
        self.config = to;
        self.grid = GridContext::new(&self.comm, to.rows, to.cols);
        Resolution::Resized
    }

    /// Advanced API: redistribute one matrix between configurations over the
    /// current communicator (exposed for custom orchestration; `resize`
    /// moves every registered array automatically). The panel is handed
    /// over, so a rank that stays in the grid rebuilds it in place.
    pub fn redistribute(
        &self,
        mat: DistMatrix<f64>,
        from: ProcessorConfig,
        to: ProcessorConfig,
    ) -> Option<DistMatrix<f64>> {
        let plan = plan_2d(grid_desc(&mat.desc, from), grid_desc(&mat.desc, to));
        redistribute(&self.comm, &plan, mat, Commit::Direct).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Simple API: the whole resize-point protocol — contact the scheduler,
    /// act on the directive, redistribute the registered arrays, rebuild the
    /// grid. The caller's iteration loop only needs to honor the returned
    /// [`Resolution`].
    pub fn resize(&mut self, iter_time: f64, mats: &mut Vec<DistMatrix<f64>>) -> Resolution {
        match self.contact_scheduler(iter_time) {
            Directive::NoChange => {
                self.last_redist = 0.0;
                Resolution::Continue
            }
            Directive::Expand { to, new_slots } => {
                if self.expand_processors(to, &new_slots, mats) {
                    Resolution::Resized
                } else {
                    // Spawn shortfall: the expansion was aborted and the
                    // scheduler notified; keep iterating on the old grid.
                    Resolution::Continue
                }
            }
            Directive::Shrink { to } => self.shrink_processors(to, mats),
            // Cancelled: every process leaves; the scheduler already
            // reclaimed the job's processors.
            Directive::Terminate => Resolution::Depart,
        }
    }
}

/// Rewrite a descriptor's grid shape for a configuration (the matrix shape
/// and blocking are resize-invariant; only the grid changes).
fn grid_desc(d: &Descriptor, cfg: ProcessorConfig) -> Descriptor {
    Descriptor::new(d.m, d.n, d.mb, d.nb, cfg.rows, cfg.cols)
}

/// Redistribute a whole state vector between configurations over `comm`
/// (which covers `max(from, to)` ranks), handing each panel over so a rank
/// that stays in the grid rebuilds it in place. Returns `None` on ranks
/// outside the destination grid.
fn redistribute_over(
    comm: &Comm,
    from: ProcessorConfig,
    to: ProcessorConfig,
    mats: Vec<DistMatrix<f64>>,
) -> Option<Vec<DistMatrix<f64>>> {
    let mut out = (comm.rank() < to.procs()).then(Vec::new);
    for mat in mats {
        let plan = plan_2d(grid_desc(&mat.desc, from), grid_desc(&mat.desc, to));
        let dst = redistribute(comm, &plan, mat, Commit::Direct).unwrap_or_else(|e| panic!("{e}"));
        if let Some(v) = out.as_mut() {
            v.push(dst.expect("destination rank receives every array"));
        }
    }
    out
}

/// Redistribute with *descriptors only* on the receiving side (spawned
/// processes own no source data).
fn receive_state(
    comm: &Comm,
    from: ProcessorConfig,
    to: ProcessorConfig,
    descs: &[Descriptor],
) -> Vec<DistMatrix<f64>> {
    let me = comm.rank();
    assert!(me < to.procs(), "spawned rank must be inside the new grid");
    descs
        .iter()
        .map(|d| {
            let plan = plan_2d(grid_desc(d, from), grid_desc(d, to));
            redistribute_2d::<f64>(comm, &plan, None).expect("in destination grid")
        })
        .collect()
}

/// Entry point of a dynamically spawned process: wait for the parent's
/// commit verdict, then merge with the parents, learn the computation
/// state, receive data, and join the iteration loop. On an aborted
/// expansion (short spawn grant) the process exits before merging.
fn spawned_process_main(ctx: SpawnCtx, shared: Arc<DriverShared>) {
    let go: Vec<u64> = ctx.parent.recv_remote(0, TAG_EXPAND_COMMIT);
    if go[0] != EXPAND_GO {
        return;
    }
    let merged = ctx.parent.merge();
    let hdr: Vec<u64> = merged.bcast(0, &[]);
    let iter = hdr[0] as usize;
    let from = ProcessorConfig::new(hdr[1] as usize, hdr[2] as usize);
    let to = ProcessorConfig::new(hdr[3] as usize, hdr[4] as usize);
    let nmats = hdr[5] as usize;
    let descs: Vec<Descriptor> = (0..nmats)
        .map(|i| {
            let o = 6 + 4 * i;
            Descriptor::new(
                hdr[o] as usize,
                hdr[o + 1] as usize,
                hdr[o + 2] as usize,
                hdr[o + 3] as usize,
                to.rows,
                to.cols,
            )
        })
        .collect();
    let mats = receive_state(&merged, from, to, &descs);
    let ctx = ResizeContext::new(Arc::clone(&shared), merged, to, iter);
    drive_loop(ctx, mats);
}

/// Heartbeat tag for the per-iteration liveness exchange of survivable
/// jobs (internal data plane, above the buddy-recovery range).
const TAG_HEARTBEAT: u32 = 8_700_000;
/// Second heartbeat round: failure flags, so every survivor agrees on
/// whether (and whom) the group lost before anyone enters recovery.
const TAG_HEARTBEAT_CONFIRM: u32 = 8_700_001;

/// Per-iteration failure detection for survivable jobs: every rank pings
/// every peer, then the observed failure flags are exchanged so all
/// survivors agree on the dead set before any of them diverges into
/// recovery. Returns the (possibly empty) list of dead ranks.
///
/// Two rounds make the detection decision collective: a rank that died
/// mid-iteration (the common case — compute advances dominate virtual
/// time) is seen dead by everyone in round one; a rank that died while
/// *sending* its round-one pings (so some peers got one and some did not)
/// never sends round-two flags, which marks it dead for everyone. The
/// remaining hole — a rank whose crash lands inside its own round-two
/// receive window — is caught by the next iteration's heartbeat; until
/// then survivors blocked on it surface through the deadlock timeout and
/// the job fails like a non-survivable one. Survivable apps must therefore
/// confine raw collectives to code the driver controls (the `iterate`
/// closure should use point-to-point or pure compute advances).
fn check_survivors(comm: &Comm) -> Vec<usize> {
    let me = comm.rank();
    let p = comm.size();
    let mut dead = vec![false; p];
    for r in 0..p {
        if r != me {
            let _ = comm.try_send(r, TAG_HEARTBEAT, &[1u64]);
        }
    }
    for (r, d) in dead.iter_mut().enumerate() {
        if r != me && comm.recv_or_failed::<u64>(r, TAG_HEARTBEAT).is_err() {
            *d = true;
        }
    }
    let flag = [u64::from(dead.iter().any(|&d| d))];
    for (r, d) in dead.iter().enumerate() {
        if r != me && !d {
            let _ = comm.try_send(r, TAG_HEARTBEAT_CONFIRM, &flag);
        }
    }
    for (r, d) in dead.iter_mut().enumerate() {
        if r != me
            && !*d
            && comm
                .recv_or_failed::<u64>(r, TAG_HEARTBEAT_CONFIRM)
                .is_err()
        {
            *d = true;
        }
    }
    (0..p).filter(|&r| dead[r]).collect()
}

/// Shrink-to-survivors recovery: roll every survivor back to its own
/// snapshot from the last replication epoch, rebuild the dead ranks'
/// panels from their buddy copies straight into the shrunken layout,
/// rebuild the communicator and grid on the survivors, report the forced
/// shrink to the scheduler (only the dead slots are reclaimed; the job
/// stays `Running`), and refresh the buddy copies at the new size.
///
/// The rollback is what keeps the rebuilt matrix consistent: a dead
/// rank's data exists only as of the last refresh, so mixing it with
/// survivors' *current* panels would splice two epochs together. The
/// caller must reset its iteration counter to the replication epoch and
/// replay the iterations executed since (deterministic SPMD iterations
/// recompute the same values; that is the survivability contract).
///
/// Returns `false` when the loss is unrecoverable (a dead rank's buddy is
/// also dead): the job is reported failed and every survivor should
/// return from its iteration loop.
fn recover_from_loss(
    ctx: &mut ResizeContext,
    mats: &mut Vec<DistMatrix<f64>>,
    buddy: &mut BuddyStore<f64>,
    dead: &[usize],
) -> bool {
    let shared = Arc::clone(&ctx.shared);
    let me = ctx.comm.rank();
    let p = ctx.comm.size();
    let survivors: Vec<usize> = (0..p).filter(|r| !dead.contains(r)).collect();
    let from = ctx.config;
    let to = ProcessorConfig::new(1, survivors.len());
    let t0 = ctx.comm.vtime();
    let span = reshape_telemetry::span("driver.recovery_wall_seconds");
    let mut out = Vec::with_capacity(mats.len());
    for idx in 0..mats.len() {
        // Feed the *snapshot* of this rank's panel — not the live matrix —
        // so all sources agree on the epoch being reassembled.
        let mine = buddy.own_snapshot(idx);
        match recover_matrix(
            &ctx.comm,
            &survivors,
            &mine,
            buddy,
            idx,
            grid_desc(&mine.desc, to),
        ) {
            Ok(Some(v)) => out.push(v),
            Ok(None) => unreachable!("every survivor is inside the shrunken grid"),
            Err(lost) => {
                // The rank and its buddy both died: the panels are gone
                // from memory and the job cannot continue. The audit is a
                // pure function of the agreed survivor list, so every
                // survivor takes this branch together.
                span.stop();
                reshape_telemetry::incr("driver.recovery_unrecoverable", 1);
                if me == survivors[0] {
                    shared.link.failed(
                        shared.job,
                        &format!("rank {lost} and its buddy both lost to node failure"),
                        ctx.comm.vtime(),
                    );
                }
                return false;
            }
        }
    }
    let new_comm = ctx
        .comm
        .survivor_comm(&survivors)
        .expect("a recovering rank is by definition a survivor");
    if new_comm.rank() == 0 {
        shared
            .link
            .node_failed(shared.job, dead, to, new_comm.vtime());
    }
    *mats = out;
    ctx.comm = new_comm;
    ctx.config = to;
    ctx.grid = GridContext::new(&ctx.comm, to.rows, to.cols);
    *buddy = BuddyStore::replicate(&ctx.comm, mats);
    let dt = ctx.comm.vtime() - t0;
    // The recovery redistribution is charged like any other: the next
    // resize point reports it so the profiler sees the true cost.
    ctx.last_redist = dt;
    span.stop();
    reshape_telemetry::incr("driver.recoveries", 1);
    if ctx.comm.rank() == 0 {
        reshape_telemetry::observe("driver.recovery_vtime_seconds", dt);
        if trace::enabled() {
            let job = shared.job.0;
            let s = trace::complete(
                job,
                trace::head(job),
                format!("recovery {from}->{to} (-{} ranks)", dead.len()),
                "recovery",
                "driver",
                t0,
                ctx.comm.vtime(),
            );
            trace::set_head(job, s);
            trace::set_current(TraceCtx {
                trace: job,
                parent: s,
            });
        }
        reshape_telemetry::record(reshape_telemetry::Event::NodeFailed {
            time: t0,
            job: shared.job.0,
            lost: dead.len(),
            procs_before: from.procs(),
            procs_after: to.procs(),
        });
        reshape_telemetry::record(reshape_telemetry::Event::Recovered {
            time: ctx.comm.vtime(),
            job: shared.job.0,
            procs: to.procs(),
            seconds: dt,
        });
    }
    true
}

/// The iteration loop shared by original and spawned processes.
fn drive_loop(mut ctx: ResizeContext, mut mats: Vec<DistMatrix<f64>>) {
    let shared = Arc::clone(&ctx.shared);
    // Survivable jobs keep a buddy copy of every panel, refreshed whenever
    // the layout changes (here at entry, and after every resize below).
    // `buddy_iter` is the iteration the snapshots were taken *before*:
    // recovery rolls back to that epoch and replays from there.
    let mut buddy = shared
        .survivable
        .then(|| BuddyStore::replicate(&ctx.comm, &mats));
    let mut buddy_iter = ctx.iter;
    // Highest iteration index already traced: after a rollback, iterations
    // below this mark are replays and their spans are categorized as such
    // (the critical-path analyzer charges them to rollback/replay).
    let mut traced_iter = ctx.iter;
    while ctx.iter < shared.iterations {
        let v0 = ctx.comm.vtime();
        // One span per iteration: its wall time goes to the
        // `driver.iter_wall_seconds` histogram only. Virtual time is what
        // the app charges through `Comm::advance`; no wall time enters it.
        let span = reshape_telemetry::span("driver.iter_wall_seconds");
        (shared.app.iterate)(&ctx.grid, &mut mats, ctx.iter);
        span.stop();
        if let Some(b) = buddy.as_mut() {
            let dead = check_survivors(&ctx.comm);
            if !dead.is_empty() {
                if !recover_from_loss(&mut ctx, &mut mats, b, &dead) {
                    return;
                }
                // The recovered panels are from the last replication
                // epoch: rewind and replay the iterations since on the
                // shrunken grid (the interrupted one included).
                reshape_telemetry::incr(
                    "driver.iterations_replayed",
                    (ctx.iter - buddy_iter + 1) as u64,
                );
                ctx.iter = buddy_iter;
                continue;
            }
        }
        let t_iter = ctx.log(ctx.comm.vtime() - v0);
        if ctx.comm.rank() == 0 {
            // Virtual iteration time — what the profiler sees.
            reshape_telemetry::observe("driver.iter_vtime_seconds", t_iter);
            if trace::enabled() {
                let cat = if ctx.iter < traced_iter {
                    "replay"
                } else {
                    "compute"
                };
                let s = trace::complete(
                    shared.job.0,
                    trace::head(shared.job.0),
                    format!("iter {}", ctx.iter),
                    cat,
                    "driver",
                    v0,
                    ctx.comm.vtime(),
                );
                trace::set_head(shared.job.0, s);
                // Ambient context for this rank-0 thread: the scheduler's
                // next decision, made on this thread at the resize point,
                // takes this span as its causal parent.
                trace::set_current(TraceCtx {
                    trace: shared.job.0,
                    parent: s,
                });
            }
        }
        traced_iter = traced_iter.max(ctx.iter + 1);
        ctx.iter += 1;
        if ctx.iter >= shared.iterations {
            break;
        }
        if shared.app.phase_starts.contains(&ctx.iter) && ctx.comm.rank() == 0 {
            shared.link.phase_change(shared.job, ctx.comm.vtime());
        }
        match ctx.resize(t_iter, &mut mats) {
            Resolution::Depart => return,
            Resolution::Resized => {
                // The layout changed: the old buddy copies describe panels
                // that no longer exist. Refresh at the new size; this also
                // advances the rollback epoch to the current iteration.
                if let Some(b) = buddy.as_mut() {
                    *b = BuddyStore::replicate(&ctx.comm, &mats);
                    buddy_iter = ctx.iter;
                }
            }
            Resolution::Continue => {}
        }
    }
    ctx.comm.barrier();
    if ctx.comm.rank() == 0 {
        shared.link.finished(shared.job, ctx.comm.vtime());
    }
}

/// Run a resizable application on a freshly launched process group. This is
/// the function the Job Startup module points a new job's processes at.
pub fn run_resizable(comm: Comm, config: ProcessorConfig, shared: Arc<DriverShared>) {
    assert_eq!(comm.size(), config.procs(), "launch size must match config");
    let ctx = ResizeContext::new(Arc::clone(&shared), comm, config, 0);
    let mats = (shared.app.init)(&ctx.grid);
    drive_loop(ctx, mats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{QueuePolicy, SchedulerCore};
    use crate::job::JobSpec;
    use crate::topology::TopologyPref;
    use parking_lot::Mutex;
    use reshape_mpisim::{NetModel, Universe};

    /// A link backed directly by a SchedulerCore behind a mutex.
    struct CoreLink(Mutex<SchedulerCore>);

    impl SchedulerLink for CoreLink {
        fn resize_point(&self, job: JobId, it: f64, rt: f64, now: f64) -> Directive {
            self.0.lock().resize_point(job, it, rt, now).0
        }
        fn note_redist(&self, job: JobId, from: ProcessorConfig, to: ProcessorConfig, s: f64) {
            self.0.lock().note_redist_cost(job, from, to, s);
        }
        fn finished(&self, job: JobId, now: f64) {
            self.0.lock().on_finished(job, now);
        }
        fn expand_failed(&self, job: JobId, _to: ProcessorConfig, now: f64) {
            self.0.lock().on_expand_failed(job, now);
        }
        fn node_failed(&self, job: JobId, dead_ranks: &[usize], to: ProcessorConfig, now: f64) {
            let mut core = self.0.lock();
            // Slot i backs rank i: grants (initial and expansion) append in
            // rank order, so the driver's rank-indexed dead set maps
            // directly onto the record's slot list.
            let dead_slots: Vec<usize> = {
                let rec = core.job(job).expect("job exists while running");
                dead_ranks.iter().map(|&rk| rec.slots[rk]).collect()
            };
            core.on_node_failed(job, &dead_slots, to, now);
        }
        fn failed(&self, job: JobId, reason: &str, now: f64) {
            self.0.lock().on_failed(job, reason.to_string(), now);
        }
    }

    /// A sum-preserving toy application: each iteration multiplies the
    /// matrix by 1 (noop) and advances modeled compute time that shrinks
    /// with the processor count, so expansion always "improves".
    fn toy_app(n: usize) -> AppDef {
        AppDef::new(
            move |grid| {
                let desc = Descriptor::square(n, 2, grid.nprow(), grid.npcol());
                vec![DistMatrix::from_fn(
                    desc,
                    grid.myrow(),
                    grid.mycol(),
                    |i, j| (i * n + j) as f64,
                )]
            },
            move |grid, _mats, _iter| {
                let p = (grid.nprow() * grid.npcol()) as f64;
                grid.comm().advance(10.0 / p);
            },
        )
    }

    fn checksum(grid: &GridContext, m: &DistMatrix<f64>) -> f64 {
        let local: f64 = m.local_data().iter().sum();
        grid.comm()
            .allreduce(reshape_mpisim::ReduceOp::Sum, &[local])[0]
    }

    #[test]
    fn app_expands_on_idle_cluster_and_keeps_data() {
        let n = 16usize;
        let uni = Universe::new(16, 1, NetModel::ideal());
        let mut core = SchedulerCore::new(16, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "toy",
            TopologyPref::Grid { problem_size: n },
            ProcessorConfig::new(1, 2),
            6,
        );
        let (job, starts) = core.submit(spec, 0.0);
        assert_eq!(starts.len(), 1);
        let link = Arc::new(CoreLink(Mutex::new(core)));

        // Verify data integrity after every iteration with a checksum.
        let expected: f64 = (0..n * n).map(|x| x as f64).sum();
        let app = {
            let base = toy_app(n);
            let init = base.init.clone();
            AppDef {
                init,
                iterate: Arc::new(
                    move |grid: &GridContext, mats: &mut Vec<DistMatrix<f64>>, it| {
                        (base.iterate)(grid, mats, it);
                        let sum = checksum(grid, &mats[0]);
                        assert!(
                            (sum - expected).abs() < 1e-6,
                            "data corrupted at iteration {it}: {sum} != {expected}"
                        );
                    },
                ),
                phase_starts: Vec::new(),
            }
        };
        let shared = Arc::new(DriverShared {
            job,
            app,
            iterations: 6,
            link: link.clone(),
            slots_per_node: 1,
            survivable: false,
        });
        let cfg = ProcessorConfig::new(1, 2);
        let shared2 = Arc::clone(&shared);
        let h = uni.launch(2, None, "toy", move |comm| {
            run_resizable(comm, cfg, Arc::clone(&shared2));
        });
        h.join_ok();
        uni.join_spawned();

        let core = link.0.lock();
        let rec = core.job(job).unwrap();
        assert!(matches!(rec.state, crate::job::JobState::Finished { .. }));
        // The job should have grown beyond its initial 2 processors.
        let prof = core.profiler().profile(job).unwrap();
        assert!(
            prof.visited().len() >= 2,
            "expected at least one expansion, visited {:?}",
            prof.visited().collect::<Vec<_>>()
        );
        assert!(prof.ever_expanded());
        drop(core);
    }

    #[test]
    fn failed_expansion_reverts_to_sweet_spot() {
        // Iteration time *degrades* beyond 4 processors: the driver should
        // expand 2 -> 4 -> 6, see 6 is worse, revert to 4 and hold.
        let n = 24usize;
        let uni = Universe::new(32, 1, NetModel::ideal());
        let mut core = SchedulerCore::new(32, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "sweet",
            TopologyPref::Grid { problem_size: n },
            ProcessorConfig::new(1, 2),
            10,
        );
        let (job, _) = core.submit(spec, 0.0);
        let link = Arc::new(CoreLink(Mutex::new(core)));
        let app = AppDef::new(
            move |grid| {
                let desc = Descriptor::square(n, 2, grid.nprow(), grid.npcol());
                vec![DistMatrix::from_fn(
                    desc,
                    grid.myrow(),
                    grid.mycol(),
                    |_, _| 1.0,
                )]
            },
            |grid, _mats, _it| {
                let p = grid.nprow() * grid.npcol();
                // Sweet spot at 4 processors.
                let t = match p {
                    1 | 2 => 20.0 / p as f64,
                    4 => 4.0,
                    _ => 6.0,
                };
                grid.comm().advance(t);
            },
        );
        let shared = Arc::new(DriverShared {
            job,
            app,
            iterations: 10,
            link: link.clone(),
            slots_per_node: 1,
            survivable: false,
        });
        let cfg = ProcessorConfig::new(1, 2);
        let shared2 = Arc::clone(&shared);
        uni.launch(2, None, "sweet", move |comm| {
            run_resizable(comm, cfg, Arc::clone(&shared2));
        })
        .join_ok();
        uni.join_spawned();

        let core = link.0.lock();
        let rec = core.job(job).unwrap();
        // Ends at the 2x2 sweet spot, not at the failed 2x3.
        assert!(matches!(rec.state, crate::job::JobState::Finished { .. }));
        let prof = core.profiler().profile(job).unwrap();
        let visited: Vec<String> = prof.visited().map(|c| c.to_string()).collect();
        assert!(visited.contains(&"2x2".to_string()), "visited {visited:?}");
        assert!(visited.contains(&"2x3".to_string()), "visited {visited:?}");
        // Final configuration at finish was the sweet spot.
        let last = prof.history().last().unwrap();
        assert_eq!(last.config, ProcessorConfig::new(2, 2));
        assert_eq!(prof.last_expansion_improved(), Some(false));
        drop(core);
    }

    #[test]
    fn short_spawn_grant_aborts_expansion_and_reverts() {
        let n = 16usize;
        let uni = Universe::new(16, 1, NetModel::ideal());
        let mut core = SchedulerCore::new(16, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "faulty",
            TopologyPref::Grid { problem_size: n },
            ProcessorConfig::new(1, 2),
            6,
        );
        let (job, starts) = core.submit(spec, 0.0);
        assert_eq!(starts.len(), 1);
        let link = Arc::new(CoreLink(Mutex::new(core)));
        // Every attempt of the first expansion's spawn is granted only one
        // of the processes it asks for; the driver must abort and fall back.
        for _ in 0..3 {
            uni.inject_spawn_cap(1);
        }

        let expected: f64 = (0..n * n).map(|x| x as f64).sum();
        let app = {
            let base = toy_app(n);
            let init = base.init.clone();
            AppDef {
                init,
                iterate: Arc::new(
                    move |grid: &GridContext, mats: &mut Vec<DistMatrix<f64>>, it| {
                        (base.iterate)(grid, mats, it);
                        let sum = checksum(grid, &mats[0]);
                        assert!(
                            (sum - expected).abs() < 1e-6,
                            "data corrupted at iteration {it}: {sum} != {expected}"
                        );
                    },
                ),
                phase_starts: Vec::new(),
            }
        };
        let shared = Arc::new(DriverShared {
            job,
            app,
            iterations: 6,
            link: link.clone(),
            slots_per_node: 1,
            survivable: false,
        });
        let cfg = ProcessorConfig::new(1, 2);
        let shared2 = Arc::clone(&shared);
        uni.launch(2, None, "faulty", move |comm| {
            run_resizable(comm, cfg, Arc::clone(&shared2));
        })
        .join_ok();
        uni.join_spawned();

        let core = link.0.lock();
        let rec = core.job(job).unwrap();
        assert!(matches!(rec.state, crate::job::JobState::Finished { .. }));
        // The failed attempt is on the trace and the pool is whole again.
        assert!(
            core.events()
                .iter()
                .any(|e| matches!(e.kind, crate::core::EventKind::ExpandFailed { .. })),
            "no ExpandFailed event recorded"
        );
        assert_eq!(core.idle_procs(), 16, "granted slots were not reclaimed");
        // The job held its pre-expansion configuration to the end.
        let prof = core.profiler().profile(job).unwrap();
        assert_eq!(prof.history().last().unwrap().config, cfg);
        assert_eq!(prof.last_expansion_improved(), Some(false));
        drop(core);
    }

    #[test]
    fn zero_spawn_grant_is_survivable() {
        // A spawn granted *no* processes at all: same fallback, no spawned
        // threads to reap.
        let n = 8usize;
        let uni = Universe::new(8, 1, NetModel::ideal());
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "none",
            TopologyPref::Grid { problem_size: n },
            ProcessorConfig::new(1, 2),
            4,
        );
        let (job, _) = core.submit(spec, 0.0);
        let link = Arc::new(CoreLink(Mutex::new(core)));
        for _ in 0..3 {
            uni.inject_spawn_cap(0);
        }
        let shared = Arc::new(DriverShared {
            job,
            app: toy_app(n),
            iterations: 4,
            link: link.clone(),
            slots_per_node: 1,
            survivable: false,
        });
        let cfg = ProcessorConfig::new(1, 2);
        let shared2 = Arc::clone(&shared);
        uni.launch(2, None, "none", move |comm| {
            run_resizable(comm, cfg, Arc::clone(&shared2));
        })
        .join_ok();
        uni.join_spawned();
        let core = link.0.lock();
        assert!(matches!(
            core.job(job).unwrap().state,
            crate::job::JobState::Finished { .. }
        ));
        assert_eq!(core.idle_procs(), 8);
        drop(core);
    }

    #[test]
    fn shrink_frees_processors_for_queued_job() {
        // Job A grows into the whole 6-proc cluster; job B arrives and A
        // must shrink to let B start.
        let n = 12usize;
        let uni = Universe::new(6, 1, NetModel::ideal());
        let mut core = SchedulerCore::new(6, QueuePolicy::Fcfs);
        let spec_a = JobSpec::new(
            "A",
            TopologyPref::Grid { problem_size: n },
            ProcessorConfig::new(1, 2),
            12,
        );
        let (job_a, _) = core.submit(spec_a, 0.0);
        let link = Arc::new(CoreLink(Mutex::new(core)));

        let app = toy_app(n);
        let shared = Arc::new(DriverShared {
            job: job_a,
            app,
            iterations: 12,
            link: link.clone(),
            slots_per_node: 1,
            survivable: false,
        });
        let cfg = ProcessorConfig::new(1, 2);
        let shared2 = Arc::clone(&shared);
        let h = uni.launch(2, None, "A", move |comm| {
            run_resizable(comm, cfg, Arc::clone(&shared2));
        });
        // Let A expand a couple of times, then enqueue B (needs 2 procs).
        std::thread::sleep(std::time::Duration::from_millis(50));
        let spec_b = JobSpec::new(
            "B",
            TopologyPref::Grid { problem_size: n },
            ProcessorConfig::new(1, 2),
            1,
        );
        let (job_b, _) = link.0.lock().submit(spec_b, 1000.0);
        h.join_ok();
        uni.join_spawned();

        let core = link.0.lock();
        let prof = core.profiler().profile(job_a).unwrap();
        let shrank = prof
            .history()
            .windows(2)
            .any(|w| w[1].config.procs() < w[0].config.procs());
        // Either A shrank to make room, or B fit into idle processors
        // before A ever grew past 4 — both scheduler-legal; assert the
        // invariant that B was eventually allocated.
        let b_rec = core.job(job_b).unwrap();
        assert!(
            b_rec.started_at.is_some() || shrank,
            "B never started and A never shrank"
        );
        drop(core);
    }

    /// Build the standard checksummed test app + shared driver state.
    fn checksummed_shared(
        n: usize,
        job: JobId,
        iterations: usize,
        link: Arc<CoreLink>,
    ) -> Arc<DriverShared> {
        let expected: f64 = (0..n * n).map(|x| x as f64).sum();
        let base = toy_app(n);
        let init = base.init.clone();
        let app = AppDef {
            init,
            iterate: Arc::new(
                move |grid: &GridContext, mats: &mut Vec<DistMatrix<f64>>, it| {
                    (base.iterate)(grid, mats, it);
                    let sum = checksum(grid, &mats[0]);
                    assert!(
                        (sum - expected).abs() < 1e-6,
                        "data corrupted at iteration {it}: {sum} != {expected}"
                    );
                },
            ),
            phase_starts: Vec::new(),
        };
        Arc::new(DriverShared {
            job,
            app,
            iterations,
            link,
            slots_per_node: 1,
            survivable: false,
        })
    }

    #[test]
    fn transient_short_grant_retries_and_expands() {
        // Only the FIRST spawn attempt is denied; the driver's retry
        // backs off (in virtual time) and the second attempt succeeds, so
        // the job still expands instead of writing the size off.
        let n = 16usize;
        let uni = Universe::new(16, 1, NetModel::ideal());
        let mut core = SchedulerCore::new(16, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "transient",
            TopologyPref::Grid { problem_size: n },
            ProcessorConfig::new(1, 2),
            6,
        );
        let (job, starts) = core.submit(spec, 0.0);
        assert_eq!(starts.len(), 1);
        let link = Arc::new(CoreLink(Mutex::new(core)));
        uni.inject_spawn_cap(0);

        let shared = checksummed_shared(n, job, 6, link.clone());
        let cfg = ProcessorConfig::new(1, 2);
        let shared2 = Arc::clone(&shared);
        uni.launch(2, None, "transient", move |comm| {
            run_resizable(comm, cfg, Arc::clone(&shared2));
        })
        .join_ok();
        uni.join_spawned();

        let core = link.0.lock();
        let rec = core.job(job).unwrap();
        assert!(matches!(rec.state, crate::job::JobState::Finished { .. }));
        let prof = core.profiler().profile(job).unwrap();
        assert!(
            prof.ever_expanded(),
            "retry never rescued the expansion: visited {:?}",
            prof.visited().collect::<Vec<_>>()
        );
        assert_eq!(core.idle_procs(), 16);
        drop(core);
    }

    #[test]
    fn exhausted_retry_budget_reverts_and_pool_stays_whole() {
        // All three of the driver's attempts are denied: the driver
        // gives up, reports the failed expansion, and every granted slot
        // makes it back to the pool.
        let n = 16usize;
        let uni = Universe::new(16, 1, NetModel::ideal());
        let mut core = SchedulerCore::new(16, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "stubborn",
            TopologyPref::Grid { problem_size: n },
            ProcessorConfig::new(1, 2),
            6,
        );
        let (job, starts) = core.submit(spec, 0.0);
        assert_eq!(starts.len(), 1);
        let link = Arc::new(CoreLink(Mutex::new(core)));
        for _ in 0..3 {
            uni.inject_spawn_cap(0);
        }

        let shared = checksummed_shared(n, job, 6, link.clone());
        let cfg = ProcessorConfig::new(1, 2);
        let shared2 = Arc::clone(&shared);
        uni.launch(2, None, "stubborn", move |comm| {
            run_resizable(comm, cfg, Arc::clone(&shared2));
        })
        .join_ok();
        uni.join_spawned();

        let core = link.0.lock();
        let rec = core.job(job).unwrap();
        assert!(matches!(rec.state, crate::job::JobState::Finished { .. }));
        assert!(
            core.events()
                .iter()
                .any(|e| matches!(e.kind, crate::core::EventKind::ExpandFailed { .. })),
            "no ExpandFailed event after exhausting the retry budget"
        );
        assert_eq!(core.idle_procs(), 16, "granted slots were not reclaimed");
        drop(core);
    }

    /// Run a static survivable 2x2 job whose matrix evolves element-wise
    /// each iteration (so a botched rollback/replay is visible in the
    /// data), optionally crashing nodes mid-run. Returns the matrix
    /// gathered on the final iteration (empty if the job died first), the
    /// link, the job id, and how many processes failed.
    fn run_survivable(
        n: usize,
        iters: usize,
        crashes: &[(u32, f64)],
    ) -> (Vec<f64>, Arc<CoreLink>, JobId, usize) {
        let uni = Universe::new(4, 1, NetModel::ideal());
        for &(node, at) in crashes {
            uni.inject_node_crash(reshape_mpisim::NodeId(node), at);
        }
        let mut core = SchedulerCore::new(4, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "survivor",
            TopologyPref::Grid { problem_size: n },
            ProcessorConfig::new(2, 2),
            iters,
        )
        .static_job()
        .survivable();
        let (job, starts) = core.submit(spec, 0.0);
        assert_eq!(starts.len(), 1);
        let link = Arc::new(CoreLink(Mutex::new(core)));
        let captured: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let cap = Arc::clone(&captured);
        let app = AppDef::new(
            move |grid| {
                let desc = Descriptor::square(n, 2, grid.nprow(), grid.npcol());
                vec![DistMatrix::from_fn(
                    desc,
                    grid.myrow(),
                    grid.mycol(),
                    |i, j| (i * n + j) as f64,
                )]
            },
            move |grid, mats, it| {
                // Deterministic per-element evolution: replay after a
                // rollback must recompute exactly these values on any grid
                // shape, so the transform depends only on (value, iter).
                for v in mats[0].local_data_mut() {
                    *v = *v * 1.5 + (it + 1) as f64;
                }
                let p = (grid.nprow() * grid.npcol()) as f64;
                grid.comm().advance(10.0 / p);
                if it + 1 == iters {
                    if let Some(full) = mats[0].gather(grid) {
                        *cap.lock() = full;
                    }
                }
            },
        );
        let shared = Arc::new(DriverShared {
            job,
            app,
            iterations: iters,
            link: link.clone(),
            slots_per_node: 1,
            survivable: true,
        });
        let cfg = ProcessorConfig::new(2, 2);
        let shared2 = Arc::clone(&shared);
        let h = uni.launch(4, None, "survivor", move |comm| {
            run_resizable(comm, cfg, Arc::clone(&shared2));
        });
        let failed = h
            .join()
            .into_iter()
            .filter(|(_, s)| matches!(s, reshape_mpisim::ProcStatus::Failed(_)))
            .count();
        uni.join_spawned();
        uni.clear_faults();
        let full = captured.lock().clone();
        (full, link, job, failed)
    }

    #[test]
    fn node_loss_mid_iteration_is_survived_with_identical_data() {
        let n = 16usize;
        // Baseline: same app, no faults, all 4 ranks to the end.
        let (baseline, _, _, failed0) = run_survivable(n, 6, &[]);
        assert_eq!(failed0, 0);
        assert_eq!(baseline.len(), n * n, "baseline gather incomplete");

        // Iterations advance 10/4 = 2.5s of virtual time on the 2x2 grid,
        // so a crash at t=6.0 lands squarely inside iteration 2. Rank 2
        // dies mid-compute; the survivors detect it at the heartbeat,
        // restore its panel from rank 3's buddy copy, shrink to 1x3, and
        // replay from the replication epoch.
        let (survived, link, job, failed) = run_survivable(n, 6, &[(2, 6.0)]);
        assert_eq!(failed, 1, "exactly the victim process dies");

        let core = link.0.lock();
        let rec = core.job(job).unwrap();
        assert!(
            matches!(rec.state, crate::job::JobState::Finished { .. }),
            "survivable job should finish after a single node loss, got {:?}",
            rec.state
        );
        assert!(
            core.events()
                .iter()
                .any(|e| matches!(e.kind, crate::core::EventKind::NodeFailed { lost: 1, .. })),
            "forced shrink was never reported to the scheduler"
        );
        assert_eq!(
            core.idle_procs(),
            4,
            "dead and finished slots both return to the pool"
        );
        drop(core);

        // The recovered run must agree with the fault-free run *bitwise*:
        // rollback plus deterministic replay reproduces the exact floats.
        assert_eq!(survived.len(), baseline.len());
        for (i, (a, b)) in survived.iter().zip(&baseline).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "element {i} diverged after recovery: {a} != {b}"
            );
        }
    }

    #[test]
    fn dead_buddy_pair_fails_the_job_cleanly() {
        let n = 16usize;
        // Ranks 2 and 3 are ring neighbors: rank 3 holds rank 2's only
        // copy, so losing both in the same epoch is unrecoverable. The
        // survivors must agree, report the failure once, and exit.
        let (survived, link, job, failed) = run_survivable(n, 6, &[(2, 6.0), (3, 6.0)]);
        assert_eq!(failed, 2);
        assert!(
            survived.is_empty(),
            "no final gather after an unrecoverable loss"
        );

        let core = link.0.lock();
        let rec = core.job(job).unwrap();
        assert!(
            matches!(rec.state, crate::job::JobState::Failed { .. }),
            "expected Failed after losing a buddy pair, got {:?}",
            rec.state
        );
        assert_eq!(
            core.idle_procs(),
            4,
            "failed job's slots were not reclaimed"
        );
        drop(core);
    }
}
