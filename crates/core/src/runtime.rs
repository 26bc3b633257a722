//! Real-execution mode: the scheduler as a live service.
//!
//! The paper's "application scheduling and monitoring module" runs five
//! components, each on its own thread. Here:
//!
//! * the **scheduler thread** combines the Application Scheduler, Remap
//!   Scheduler and Performance Profiler (all state lives in
//!   [`SchedulerCore`]) and also plays **Job Startup**: when the core says a
//!   queued job can run, the thread launches its process group on the
//!   simulated cluster;
//! * the **System Monitor thread** subscribes to process lifecycle events
//!   from the [`Universe`] and reclaims the resources of failed jobs;
//! * applications talk to the scheduler through a [`SchedulerLink`]
//!   implemented over one plain channel. The paper's resize library
//!   reaches the scheduler over a socket; here both ends are threads of
//!   one process, and the channel cannot lose, duplicate or reorder, so no
//!   protocol runs on top of it (the sequenced one of [`crate::ctrl`]
//!   serves the federation's lossy lease bus).
//!
//! Nothing here watches the wall clock. A job that stops checking in is
//! bounded by the caller's [`ReshapeRuntime::wait_for`] timeout and by the
//! simulated cluster's receive deadline.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use reshape_mpisim::{NodeId, ProcId, ProcStatus, Universe};
use reshape_telemetry::trace::{self, TraceCtx};

use crate::core::{Directive, QueuePolicy, SchedEvent, SchedulerCore, StartAction};
use crate::driver::{run_resizable, AppDef, DriverShared, RetryPolicy, SchedulerLink};
use crate::job::{JobId, JobSpec, JobState};
use crate::topology::ProcessorConfig;

enum Msg {
    Submit {
        spec: JobSpec,
        app: AppDef,
        reply: Sender<JobId>,
    },
    ResizePoint {
        job: JobId,
        iter_time: f64,
        redist_time: f64,
        now: f64,
        /// Causal trace context of the sender (the driver's current span),
        /// so the scheduler's decision span parents to the application
        /// iteration that triggered it.
        ctx: TraceCtx,
        reply: Sender<Directive>,
    },
    NoteRedist {
        job: JobId,
        from: ProcessorConfig,
        to: ProcessorConfig,
        seconds: f64,
    },
    Finished {
        job: JobId,
        now: f64,
        ctx: TraceCtx,
    },
    PhaseChange {
        job: JobId,
        now: f64,
    },
    Cancel {
        job: JobId,
    },
    Failed {
        job: JobId,
        reason: String,
        now: f64,
        ctx: TraceCtx,
    },
    /// A survivable job lost ranks to a node failure but recovered in
    /// place; only the dead ranks' slots should be reclaimed.
    NodeFailed {
        job: JobId,
        dead_ranks: Vec<usize>,
        to: ProcessorConfig,
        now: f64,
        ctx: TraceCtx,
    },
    ExpandFailed {
        job: JobId,
        now: f64,
        ctx: TraceCtx,
    },
    Shutdown,
}

/// Channel-backed [`SchedulerLink`] handed to application processes.
struct RuntimeLink {
    tx: Sender<Msg>,
}

impl SchedulerLink for RuntimeLink {
    fn resize_point(&self, job: JobId, iter_time: f64, redist_time: f64, now: f64) -> Directive {
        let (reply, rx) = unbounded();
        let sent = self
            .tx
            .send(Msg::ResizePoint {
                job,
                iter_time,
                redist_time,
                now,
                ctx: trace::current(),
                reply,
            })
            .is_ok();
        assert!(sent, "scheduler thread alive");
        rx.recv().expect("scheduler replies to resize points")
    }

    fn note_redist(&self, job: JobId, from: ProcessorConfig, to: ProcessorConfig, seconds: f64) {
        let _ = self.tx.send(Msg::NoteRedist {
            job,
            from,
            to,
            seconds,
        });
    }

    fn finished(&self, job: JobId, now: f64) {
        let _ = self.tx.send(Msg::Finished {
            job,
            now,
            ctx: trace::current(),
        });
    }

    fn phase_change(&self, job: JobId, now: f64) {
        let _ = self.tx.send(Msg::PhaseChange { job, now });
    }

    fn expand_failed(&self, job: JobId, _to: ProcessorConfig, now: f64) {
        let _ = self.tx.send(Msg::ExpandFailed {
            job,
            now,
            ctx: trace::current(),
        });
    }

    fn node_failed(&self, job: JobId, dead_ranks: &[usize], to: ProcessorConfig, now: f64) {
        let _ = self.tx.send(Msg::NodeFailed {
            job,
            dead_ranks: dead_ranks.to_vec(),
            to,
            now,
            ctx: trace::current(),
        });
    }

    fn failed(&self, job: JobId, reason: &str, now: f64) {
        let _ = self.tx.send(Msg::Failed {
            job,
            reason: reason.to_string(),
            now,
            ctx: trace::current(),
        });
    }
}

/// Timeout from [`ReshapeRuntime::wait_quiescent`] /
/// [`ReshapeRuntime::wait_for`]: the awaited condition did not hold in
/// time. Carries what was being waited on so callers can build a useful
/// panic or retry message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitTimeout {
    /// Description of the unmet condition ("jobs still active", "job3
    /// still active").
    pub what: String,
    pub timeout: Duration,
}

impl std::fmt::Display for WaitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} after {:?}", self.what, self.timeout)
    }
}

impl std::error::Error for WaitTimeout {}

/// Bumped by the scheduler thread after every message it handles, so the
/// runtime's waits block until the core may have changed instead of
/// polling it.
#[derive(Default)]
struct Progress {
    lock: std::sync::Mutex<()>,
    changed: Condvar,
}

impl Progress {
    fn bump(&self) {
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.changed.notify_all();
    }
}

/// The live ReSHAPE service: submit resizable jobs against a simulated
/// cluster and let the framework schedule, monitor, resize and reclaim them.
pub struct ReshapeRuntime {
    universe: Arc<Universe>,
    tx: Sender<Msg>,
    core: Arc<Mutex<SchedulerCore>>,
    /// First (rank-0) process of each job, which the System Monitor watches
    /// — "only the monitor running on the first node of its processor set
    /// communicates with the System Monitor".
    watch: Arc<Mutex<HashMap<ProcId, JobId>>>,
    sched_thread: Option<std::thread::JoinHandle<()>>,
    monitor_thread: Option<std::thread::JoinHandle<()>>,
    progress: Arc<Progress>,
}

struct SchedThreadCtx {
    universe: Arc<Universe>,
    core: Arc<Mutex<SchedulerCore>>,
    apps: HashMap<JobId, (AppDef, usize)>, // app + iterations
    watch: Arc<Mutex<HashMap<ProcId, JobId>>>,
    link_tx: Sender<Msg>,
    slots_per_node: usize,
    progress: Arc<Progress>,
    /// Stamps handed out so far ([`SchedThreadCtx::submission_stamp`]).
    stamps: u64,
}

impl SchedThreadCtx {
    fn actuate(&mut self, starts: Vec<StartAction>) {
        for s in starts {
            let (app, iterations) = match self.apps.get(&s.job) {
                Some(a) => a.clone(),
                // Bookkeeping-only job (tests submit specs without apps).
                None => continue,
            };
            let nodes: Vec<NodeId> = s
                .slots
                .iter()
                .map(|&slot| NodeId((slot / self.slots_per_node) as u32))
                .collect();
            let (name, survivable) = {
                let core = self.core.lock();
                core.job(s.job)
                    .map(|r| (r.spec.name.clone(), r.spec.survivable))
                    .unwrap_or_default()
            };
            let shared = Arc::new(DriverShared {
                job: s.job,
                app,
                iterations,
                link: Arc::new(RuntimeLink {
                    tx: self.link_tx.clone(),
                }),
                slots_per_node: self.slots_per_node,
                retry: RetryPolicy::default(),
                survivable,
            });
            let config = s.config;
            let start_vtime = self
                .core
                .lock()
                .job(s.job)
                .and_then(|r| r.started_at)
                .unwrap_or(0.0);
            let handle = self.universe.launch_at(
                config.procs(),
                Some(nodes),
                &format!("{name}-{}", s.job),
                start_vtime,
                move |comm| {
                    run_resizable(comm, config, Arc::clone(&shared));
                },
            );
            self.watch.lock().insert(handle.members()[0], s.job);
            // Handles are joined through the universe's status tracking; the
            // GroupHandle itself can be dropped (threads keep running).
            drop(handle);
        }
    }

    fn run(mut self, rx: Receiver<Msg>) {
        while let Ok(msg) = rx.recv() {
            // Scheduler-loop latency: how long each message (resize point,
            // submission, completion, ...) holds the scheduler. Recorded on
            // drop, including early exits.
            let _span = reshape_telemetry::span("core.sched_loop_seconds");
            reshape_telemetry::incr("core.sched_msgs", 1);
            match msg {
                Msg::Submit { spec, app, reply } => {
                    let iterations = spec.iterations;
                    let now = self.submission_stamp();
                    let (id, starts) = self.core.lock().submit(spec, now);
                    self.apps.insert(id, (app, iterations));
                    let _ = reply.send(id);
                    self.actuate(starts);
                }
                Msg::ResizePoint {
                    job,
                    iter_time,
                    redist_time,
                    now,
                    ctx,
                    reply,
                } => {
                    // Adopt the sender's causal context for the duration of
                    // the core call, so the decision span it emits parents
                    // to the driver-side span that sent this message.
                    let _g = trace::ctx_guard(ctx);
                    let (directive, starts) =
                        self.core
                            .lock()
                            .resize_point(job, iter_time, redist_time, now);
                    let _ = reply.send(directive);
                    self.actuate(starts);
                }
                Msg::NoteRedist {
                    job,
                    from,
                    to,
                    seconds,
                } => {
                    self.core.lock().note_redist_cost(job, from, to, seconds);
                }
                Msg::Finished { job, now, ctx } => {
                    let _g = trace::ctx_guard(ctx);
                    let starts = self.core.lock().on_finished(job, now);
                    self.actuate(starts);
                }
                Msg::PhaseChange { job, now } => {
                    self.core.lock().phase_change(job, now);
                }
                Msg::Cancel { job } => {
                    let now = self.submission_stamp();
                    let starts = self.core.lock().cancel(job, now);
                    self.actuate(starts);
                }
                Msg::Failed {
                    job,
                    reason,
                    now,
                    ctx,
                } => {
                    let _g = trace::ctx_guard(ctx);
                    let starts = self.core.lock().on_failed(job, reason, now);
                    self.actuate(starts);
                }
                Msg::NodeFailed {
                    job,
                    dead_ranks,
                    to,
                    now,
                    ctx,
                } => {
                    let _g = trace::ctx_guard(ctx);
                    let starts = {
                        let mut core = self.core.lock();
                        // Ranks index the job's communicator in slot-grant
                        // order: initial grants and expansion grants both
                        // append slots in rank order, so slot i backs rank i.
                        let dead_slots: Vec<usize> = core
                            .job(job)
                            .map(|r| {
                                dead_ranks
                                    .iter()
                                    .filter_map(|&rk| r.slots.get(rk).copied())
                                    .collect()
                            })
                            .unwrap_or_default();
                        core.on_node_failed(job, &dead_slots, to, now)
                    };
                    self.actuate(starts);
                }
                Msg::ExpandFailed { job, now, ctx } => {
                    let _g = trace::ctx_guard(ctx);
                    let starts = self.core.lock().on_expand_failed(job, now);
                    self.actuate(starts);
                }
                Msg::Shutdown => break,
            }
            self.progress.bump();
        }
    }

    /// The time stamp of a submission (or a cancellation): 1 µs per stamp
    /// this runtime handed out before it. Submission order is what matters for
    /// the queue; virtual times come from the apps. Counting per runtime
    /// keeps a job's timeline independent of other runtimes in the process.
    fn submission_stamp(&mut self) -> f64 {
        let t = self.stamps as f64 * 1e-6;
        self.stamps += 1;
        t
    }
}

impl ReshapeRuntime {
    /// Stand up the framework over `universe`. `policy` selects FCFS or
    /// backfill for initial allocations.
    pub fn new(universe: Universe, policy: QueuePolicy) -> Self {
        let universe = Arc::new(universe);
        let total = universe.total_slots();
        let core = Arc::new(Mutex::new(SchedulerCore::new(total, policy)));
        let watch: Arc<Mutex<HashMap<ProcId, JobId>>> = Arc::new(Mutex::new(HashMap::new()));
        let progress = Arc::new(Progress::default());
        // Applications and the monitor reach the scheduler thread over one
        // in-process channel, which delivers every message once and in
        // send order.
        let (tx, rx) = unbounded::<Msg>();

        let ctx = SchedThreadCtx {
            universe: Arc::clone(&universe),
            core: Arc::clone(&core),
            apps: HashMap::new(),
            watch: Arc::clone(&watch),
            link_tx: tx.clone(),
            slots_per_node: universe.slots_per_node(),
            progress: Arc::clone(&progress),
            stamps: 0,
        };
        let sched_thread = std::thread::Builder::new()
            .name("reshape-scheduler".into())
            .spawn(move || ctx.run(rx))
            .expect("spawn scheduler thread");

        // System Monitor: react to process failures. The per-job
        // application monitor of the paper reports through the job's first
        // process; failures of dynamically spawned ranks are attributed to
        // the running job occupying the failed process's node. Caveat: with
        // several slots per node, co-located jobs make this heuristic
        // ambiguous (the first matching running job is blamed) — the same
        // ambiguity a per-node monitor has on a real shared-node cluster.
        let events = universe.events();
        let mon_tx = tx.clone();
        let mon_watch = Arc::clone(&watch);
        let mon_core = Arc::clone(&core);
        let spn = universe.slots_per_node();
        let monitor_thread = std::thread::Builder::new()
            .name("reshape-sysmon".into())
            .spawn(move || {
                while let Ok(ev) = events.recv() {
                    if let ProcStatus::Failed(reason) = ev.status {
                        let job = mon_watch.lock().get(&ev.proc).copied().or_else(|| {
                            // Attribute by node occupancy.
                            let core = mon_core.lock();
                            let found = core
                                .jobs()
                                .find(|(_, r)| {
                                    matches!(r.state, JobState::Running { .. })
                                        && r.slots.iter().any(|&s| (s / spn) as u32 == ev.node.0)
                                })
                                .map(|(id, _)| *id);
                            found
                        });
                        if let Some(job) = job {
                            // Survivable jobs handle rank death themselves
                            // (buddy restore + forced shrink); the monitor
                            // stays out of the way while they are running.
                            // If recovery is impossible the driver reports
                            // the failure through its link; a wedged
                            // recovery is bounded by the cluster's receive
                            // deadline and the caller's `wait_for` timeout.
                            let deferred = mon_core.lock().job(job).is_some_and(|r| {
                                r.spec.survivable && matches!(r.state, JobState::Running { .. })
                            });
                            if deferred {
                                reshape_telemetry::incr("runtime.monitor_deferred_to_recovery", 1);
                            } else {
                                let _ = mon_tx.send(Msg::Failed {
                                    job,
                                    reason,
                                    now: f64::NAN,
                                    // The monitor thread has no ambient
                                    // span; the core falls back to the
                                    // job's trace head for parenting.
                                    ctx: TraceCtx::default(),
                                });
                            }
                        }
                    }
                }
            })
            .expect("spawn monitor thread");

        ReshapeRuntime {
            universe,
            tx,
            core,
            watch,
            sched_thread: Some(sched_thread),
            monitor_thread: Some(monitor_thread),
            progress,
        }
    }

    /// Submit a resizable application; returns its job id immediately (the
    /// job may queue).
    pub fn submit(&self, spec: JobSpec, app: AppDef) -> JobId {
        let (reply, rx) = unbounded();
        let sent = self.tx.send(Msg::Submit { spec, app, reply }).is_ok();
        assert!(sent, "scheduler thread alive");
        rx.recv().expect("submission acknowledged")
    }

    /// Cancel a job: queued jobs leave immediately, running jobs terminate
    /// at their next resize point.
    pub fn cancel(&self, job: JobId) {
        let _ = self.tx.send(Msg::Cancel { job });
    }

    /// Shared scheduler state, for inspection (profiles, events, jobs).
    pub fn core(&self) -> &Arc<Mutex<SchedulerCore>> {
        &self.core
    }

    /// Remove and return the scheduling trace accumulated so far (see
    /// [`SchedulerCore::drain_events`]); keeps long-lived runtimes from
    /// hitting the trace retention cap.
    pub fn drain_events(&self) -> Vec<SchedEvent> {
        self.core.lock().drain_events()
    }

    /// The underlying cluster.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// Block until every submitted job has left the system (finished or
    /// failed); [`WaitTimeout`] after `timeout` so callers choose whether
    /// that is fatal (tests `.unwrap()`, services retry or report).
    pub fn wait_quiescent(&self, timeout: Duration) -> Result<(), WaitTimeout> {
        self.wait_until(timeout, "jobs still active".into(), |core| {
            core.jobs().all(|(_, r)| !r.state.is_active()).then_some(())
        })
    }

    /// Wait for one specific job to leave the system and return its final
    /// state, or [`WaitTimeout`] if it is still active after `timeout`.
    pub fn wait_for(&self, job: JobId, timeout: Duration) -> Result<JobState, WaitTimeout> {
        self.wait_until(timeout, format!("{job} still active"), |core| {
            core.job(job)
                .filter(|r| !r.state.is_active())
                .map(|r| r.state.clone())
        })
    }

    /// Block until `done` reads an answer off the core, or [`WaitTimeout`]
    /// (describing `what`) after `timeout`. `done` runs now and again after
    /// every message the scheduler thread handles. The caller's deadline is
    /// the only wall clock the runtime reads (CI checks that).
    fn wait_until<R>(
        &self,
        timeout: Duration,
        what: String,
        done: impl Fn(&SchedulerCore) -> Option<R>,
    ) -> Result<R, WaitTimeout> {
        let deadline = std::time::Instant::now() + timeout;
        // Held from each check until the wait releases it, so a bump in
        // between cannot be missed.
        let mut guard = self
            .progress
            .lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(answer) = done(&self.core.lock()) {
                return Ok(answer);
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err(WaitTimeout { what, timeout });
            }
            guard = self
                .progress
                .changed
                .wait_timeout(guard, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

impl Drop for ReshapeRuntime {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(h) = self.sched_thread.take() {
            let _ = h.join();
        }
        // The monitor thread exits when the universe's event channel closes
        // (universe dropped); don't block on it here.
        if let Some(h) = self.monitor_thread.take() {
            drop(h);
        }
        let _ = &self.watch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyPref;
    use reshape_blockcyclic::{Descriptor, DistMatrix};
    use reshape_mpisim::NetModel;
    use std::time::Instant;

    fn toy(n: usize, per_iter: f64) -> AppDef {
        AppDef::new(
            move |grid| {
                let desc = Descriptor::square(n, 2, grid.nprow(), grid.npcol());
                vec![DistMatrix::from_fn(
                    desc,
                    grid.myrow(),
                    grid.mycol(),
                    |i, j| (i + j) as f64,
                )]
            },
            move |grid, _m, _it| {
                let p = (grid.nprow() * grid.npcol()) as f64;
                grid.comm().advance(per_iter / p);
            },
        )
    }

    #[test]
    fn single_job_runs_to_completion() {
        let rt = ReshapeRuntime::new(Universe::new(8, 1, NetModel::ideal()), QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "toy",
            TopologyPref::Grid { problem_size: 8 },
            ProcessorConfig::new(1, 2),
            5,
        );
        let job = rt.submit(spec, toy(8, 1.0));
        let state = rt.wait_for(job, Duration::from_secs(30)).unwrap();
        assert!(matches!(state, JobState::Finished { .. }), "{state:?}");
        // All processors returned to the pool.
        assert_eq!(rt.core().lock().idle_procs(), 8);
    }

    #[test]
    fn queued_job_starts_after_first_finishes() {
        let rt = ReshapeRuntime::new(Universe::new(2, 1, NetModel::ideal()), QueuePolicy::Fcfs);
        let mk = |name: &str| {
            JobSpec::new(
                name,
                TopologyPref::Grid { problem_size: 8 },
                ProcessorConfig::new(1, 2),
                3,
            )
        };
        let a = rt.submit(mk("A"), toy(8, 1.0));
        let b = rt.submit(mk("B"), toy(8, 1.0));
        assert!(matches!(
            rt.wait_for(a, Duration::from_secs(30)).unwrap(),
            JobState::Finished { .. }
        ));
        assert!(matches!(
            rt.wait_for(b, Duration::from_secs(30)).unwrap(),
            JobState::Finished { .. }
        ));
        rt.wait_quiescent(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn failing_job_resources_are_reclaimed() {
        let rt = ReshapeRuntime::new(Universe::new(4, 1, NetModel::ideal()), QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "crasher",
            TopologyPref::Grid { problem_size: 8 },
            ProcessorConfig::new(2, 2),
            5,
        )
        .static_job();
        let app = AppDef::new(
            |grid| {
                let desc = Descriptor::square(8, 2, grid.nprow(), grid.npcol());
                vec![DistMatrix::from_fn(
                    desc,
                    grid.myrow(),
                    grid.mycol(),
                    |_, _| 0.0,
                )]
            },
            |grid, _m, it| {
                if it == 2 && grid.comm().rank() == 0 {
                    panic!("injected application error");
                }
                grid.comm().advance(0.1);
            },
        );
        let job = rt.submit(spec, app);
        let state = rt.wait_for(job, Duration::from_secs(30)).unwrap();
        assert!(
            matches!(state, JobState::Failed { ref reason, .. } if reason.contains("injected")),
            "{state:?}"
        );
        // The monitor reclaims asynchronously; poll with a deadline.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if rt.core().lock().idle_procs() == 4 {
                break;
            }
            assert!(Instant::now() < deadline, "resources never reclaimed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn spawn_fault_recovers_through_runtime_channel() {
        let uni = Universe::new(8, 1, NetModel::ideal());
        // Every expansion attempt spawn is denied outright (the default
        // retry policy makes up to three attempts).
        uni.inject_spawn_cap(0);
        uni.inject_spawn_cap(0);
        uni.inject_spawn_cap(0);
        let rt = ReshapeRuntime::new(uni, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "short-grant",
            TopologyPref::Grid { problem_size: 8 },
            ProcessorConfig::new(1, 2),
            5,
        );
        let job = rt.submit(spec, toy(8, 1.0));
        let state = rt.wait_for(job, Duration::from_secs(30)).unwrap();
        assert!(matches!(state, JobState::Finished { .. }), "{state:?}");
        // The granted-then-reverted processors all made it back.
        assert_eq!(rt.core().lock().idle_procs(), 8);
        assert!(rt
            .core()
            .lock()
            .events()
            .iter()
            .any(|e| matches!(e.kind, crate::core::EventKind::ExpandFailed { .. })));
    }

    #[test]
    fn node_crash_fails_job_and_reclaims() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        // Node 1 dies at t=0.5; the static 2x2 job straddles it.
        uni.inject_node_crash(NodeId(1), 0.5);
        let rt = ReshapeRuntime::new(uni, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "crashy",
            TopologyPref::Grid { problem_size: 8 },
            ProcessorConfig::new(2, 2),
            50,
        )
        .static_job();
        let job = rt.submit(spec, toy(8, 1.0));
        let state = rt.wait_for(job, Duration::from_secs(30)).unwrap();
        assert!(
            matches!(state, JobState::Failed { ref reason, .. } if reason.contains("crashed")),
            "{state:?}"
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if rt.core().lock().idle_procs() == 4 {
                break;
            }
            assert!(Instant::now() < deadline, "resources never reclaimed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn survivable_job_outlives_a_node_crash() {
        // Same crash as above, but the job opted into shrink-to-survivors
        // recovery: the system monitor must defer to the driver (a
        // survivable Running job is the recovery path's to handle, not
        // `Msg::Failed`'s), the driver shrinks 2x2 -> 1x3 from buddy
        // copies, and the job runs to completion at the degraded size.
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.inject_node_crash(NodeId(1), 0.5);
        let rt = ReshapeRuntime::new(uni, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "survivor",
            TopologyPref::Grid { problem_size: 8 },
            ProcessorConfig::new(2, 2),
            50,
        )
        .static_job()
        .survivable();
        let job = rt.submit(spec, toy(8, 1.0));
        let state = rt.wait_for(job, Duration::from_secs(30)).unwrap();
        assert!(
            matches!(state, JobState::Finished { .. }),
            "survivable job should outlive the crash, got {state:?}"
        );
        let core = rt.core().lock();
        assert!(
            core.events().iter().any(|e| e.job == job
                && matches!(e.kind, crate::core::EventKind::NodeFailed { lost: 1, .. })),
            "forced shrink never reached the scheduler"
        );
        drop(core);
        // All four slots drain back: three at finish, the dead one at the
        // forced shrink.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if rt.core().lock().idle_procs() == 4 {
                break;
            }
            assert!(Instant::now() < deadline, "resources never reclaimed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
