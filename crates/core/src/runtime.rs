//! Real-execution mode: the scheduler as a live service.
//!
//! The paper's "application scheduling and monitoring module" runs five
//! components as threads of a daemon, because each application's resize
//! library reaches it over a socket from another node. Here applications
//! are rank threads of the same process, so the module is one
//! [`SchedulerCore`] behind a lock, and each component is a call on the
//! thread that reports the event:
//!
//! * the **Application Scheduler**, **Remap Scheduler** and **Performance
//!   Profiler** are the core's transitions, applied by the submitting
//!   thread or, through the job's [`SchedulerLink`], by the rank that
//!   reached a resize point, finished or failed;
//! * **Job Startup** runs right after a transition, on the same thread and
//!   outside the lock, and launches the process groups of the jobs that
//!   transition started;
//! * the **System Monitor** is the universe's exit hook
//!   ([`Universe::monitor`]): it runs on each exiting process's thread and
//!   reclaims the resources of failed jobs.
//!
//! The runtime starts no thread of its own, and nothing here watches the
//! wall clock. A job that stops checking in is bounded by the caller's
//! [`ReshapeRuntime::wait_for`] timeout and by the simulated cluster's
//! receive deadline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Duration;

use parking_lot::Mutex;

use reshape_mpisim::{NodeId, ProcEvent, ProcId, ProcStatus, Universe};

use crate::core::{Directive, QueuePolicy, SchedEvent, SchedulerCore, StartAction};
use crate::driver::{run_resizable, AppDef, DriverShared, SchedulerLink};
use crate::job::{JobId, JobSpec, JobState};
use crate::topology::ProcessorConfig;

/// The [`SchedulerLink`] handed to application processes: each call is
/// one transition of the scheduler, on the calling rank's thread.
struct RuntimeLink(Arc<Scheduler>);

impl SchedulerLink for RuntimeLink {
    fn resize_point(&self, job: JobId, iter_time: f64, redist_time: f64, now: f64) -> Directive {
        self.0
            .transition(|core| core.resize_point(job, iter_time, redist_time, now))
    }

    fn note_redist(&self, job: JobId, from: ProcessorConfig, to: ProcessorConfig, seconds: f64) {
        self.0.transition(|core| {
            core.note_redist_cost(job, from, to, seconds);
            ((), Vec::new())
        });
    }

    fn finished(&self, job: JobId, now: f64) {
        self.0.transition(|core| ((), core.on_finished(job, now)));
    }

    fn phase_change(&self, job: JobId, now: f64) {
        self.0.transition(|core| {
            core.phase_change(job, now);
            ((), Vec::new())
        });
    }

    fn expand_failed(&self, job: JobId, _to: ProcessorConfig, now: f64) {
        self.0
            .transition(|core| ((), core.on_expand_failed(job, now)));
    }

    fn node_failed(&self, job: JobId, dead_ranks: &[usize], to: ProcessorConfig, now: f64) {
        self.0.transition(|core| {
            // Ranks index the job's communicator in slot-grant order:
            // initial grants and expansion grants both append slots in rank
            // order, so slot i backs rank i.
            let dead_slots: Vec<usize> = core
                .job(job)
                .map(|r| {
                    dead_ranks
                        .iter()
                        .filter_map(|&rk| r.slots.get(rk).copied())
                        .collect()
                })
                .unwrap_or_default();
            ((), core.on_node_failed(job, &dead_slots, to, now))
        });
    }

    fn failed(&self, job: JobId, reason: &str, now: f64) {
        self.0
            .transition(|core| ((), core.on_failed(job, reason.to_string(), now)));
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

/// Bumped after every transition, so the runtime's waits block until the
/// core may have changed instead of polling it.
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

/// The scheduling module: the core, and what Job Startup and the System
/// Monitor keep beside it. Held by the runtime and by every job's link;
/// the universe's exit hook holds it weakly, because the scheduler owns
/// the universe.
struct Scheduler {
    universe: Arc<Universe>,
    core: Arc<Mutex<SchedulerCore>>,
    /// App and iteration count of each job not yet launched, for Job
    /// Startup. Written under the core lock, so no transition can start a
    /// job whose app is not here yet; Job Startup takes it, and a queued
    /// job's cancellation drops it.
    apps: Mutex<HashMap<JobId, (AppDef, usize)>>,
    /// First (rank-0) process of each job until it exits, which the System
    /// Monitor watches — "only the monitor running on the first node of its
    /// processor set communicates with the System Monitor".
    watch: Mutex<HashMap<ProcId, JobId>>,
    /// Stamps handed out so far ([`Scheduler::submission_stamp`]).
    stamps: AtomicU64,
    progress: Progress,
}

impl Scheduler {
    /// One transition of the scheduler, on the caller's thread: `apply`
    /// runs on the locked core; then, with the lock released, Job Startup
    /// launches the jobs it started, and the runtime's waits wake.
    fn transition<R>(
        self: &Arc<Self>,
        apply: impl FnOnce(&mut SchedulerCore) -> (R, Vec<StartAction>),
    ) -> R {
        // Scheduler responsiveness: how long each transition (submission,
        // resize point, completion, ...) holds its caller, Job Startup
        // included. Recorded on drop.
        let _span = reshape_telemetry::span("core.sched_loop_seconds");
        reshape_telemetry::incr("core.sched_msgs", 1);
        let (out, starts) = apply(&mut self.core.lock());
        self.actuate(starts);
        self.progress.bump();
        out
    }

    /// Job Startup: launch the process group of each started job.
    fn actuate(self: &Arc<Self>, starts: Vec<StartAction>) {
        let slots_per_node = self.universe.slots_per_node();
        for s in starts {
            let Some((app, iterations)) = self.apps.lock().remove(&s.job) else {
                // Bookkeeping-only job (tests submit specs without apps).
                continue;
            };
            let nodes: Vec<NodeId> = s
                .slots
                .iter()
                .map(|&slot| NodeId((slot / slots_per_node) as u32))
                .collect();
            let (name, survivable, start_vtime) = {
                let core = self.core.lock();
                core.job(s.job)
                    .map(|r| {
                        (
                            r.spec.name.clone(),
                            r.spec.survivable,
                            r.started_at.unwrap_or(0.0),
                        )
                    })
                    .unwrap_or_default()
            };
            let shared = Arc::new(DriverShared {
                job: s.job,
                app,
                iterations,
                link: Arc::new(RuntimeLink(Arc::clone(self))),
                slots_per_node,
                survivable,
            });
            let config = s.config;
            let handle = self.universe.launch_at(
                config.procs(),
                Some(nodes),
                &format!("{name}-{}", s.job),
                start_vtime,
                move |comm| {
                    run_resizable(comm, config, Arc::clone(&shared));
                },
            );
            // The group's threads keep running without the handle; the
            // universe joins them (`Universe::join_spawned`).
            let first = handle.members()[0];
            self.watch.lock().insert(first, s.job);
            if self.universe.status_of(first) != Some(ProcStatus::Running) {
                // It exited before it was watched, and the monitor blamed
                // its failure by node.
                self.watch.lock().remove(&first);
            }
        }
    }

    /// System Monitor: react to a process's exit. The per-job application
    /// monitor of the paper reports through the job's first process;
    /// failures of dynamically spawned ranks are attributed to the running
    /// job occupying the failed process's node. Caveat: with several slots
    /// per node, co-located jobs make this heuristic ambiguous (the first
    /// matching running job is blamed) — the same ambiguity a per-node
    /// monitor has on a real shared-node cluster.
    fn on_exit(self: &Arc<Self>, ev: ProcEvent) {
        let watched = self.watch.lock().remove(&ev.proc);
        let ProcStatus::Failed(reason) = ev.status else {
            return;
        };
        let spn = self.universe.slots_per_node();
        let (job, deferred) = {
            let core = self.core.lock();
            let Some(job) = watched.or_else(|| {
                // Attribute by node occupancy.
                core.jobs()
                    .find(|(_, r)| {
                        matches!(r.state, JobState::Running { .. })
                            && r.slots.iter().any(|&s| (s / spn) as u32 == ev.node.0)
                    })
                    .map(|(id, _)| *id)
            }) else {
                return;
            };
            // Survivable jobs handle rank death themselves (buddy restore +
            // forced shrink); the monitor stays out of the way while they
            // are running. If recovery is impossible the driver reports the
            // failure through its link; a wedged recovery is bounded by the
            // cluster's receive deadline and the caller's `wait_for`
            // timeout.
            let deferred = core
                .job(job)
                .is_some_and(|r| r.spec.survivable && matches!(r.state, JobState::Running { .. }));
            (job, deferred)
        };
        if deferred {
            reshape_telemetry::incr("runtime.monitor_deferred_to_recovery", 1);
        } else {
            self.transition(|core| ((), core.on_failed(job, reason, f64::NAN)));
        }
    }

    /// The time stamp of a submission (or a cancellation): 1 µs per stamp
    /// this runtime handed out before it. Submission order is what matters
    /// for the queue; virtual times come from the apps. Counting per runtime
    /// keeps a job's timeline independent of other runtimes in the process.
    /// Taken under the core lock, so stamps rise in the core's order.
    fn submission_stamp(&self) -> f64 {
        self.stamps.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6
    }
}

/// The live ReSHAPE service: submit resizable jobs against a simulated
/// cluster and let the framework schedule, monitor, resize and reclaim them.
pub struct ReshapeRuntime {
    sched: Arc<Scheduler>,
}

impl ReshapeRuntime {
    /// Stand up the framework over `universe`. `policy` selects FCFS or
    /// backfill for initial allocations.
    pub fn new(universe: Universe, policy: QueuePolicy) -> Self {
        let total = universe.total_slots();
        let sched = Arc::new(Scheduler {
            universe: Arc::new(universe),
            core: Arc::new(Mutex::new(SchedulerCore::new(total, policy))),
            apps: Mutex::new(HashMap::new()),
            watch: Mutex::new(HashMap::new()),
            stamps: AtomicU64::new(0),
            progress: Progress::default(),
        });
        // Weak: the universe owns the hook, and the scheduler owns the
        // universe.
        let monitor = Arc::downgrade(&sched);
        sched.universe.monitor(move |ev| {
            if let Some(sched) = monitor.upgrade() {
                sched.on_exit(ev);
            }
        });
        ReshapeRuntime { sched }
    }

    /// Submit a resizable application; returns its job id immediately (the
    /// job may queue).
    pub fn submit(&self, spec: JobSpec, app: AppDef) -> JobId {
        self.sched.transition(|core| {
            let iterations = spec.iterations;
            let (id, starts) = core.submit(spec, self.sched.submission_stamp());
            self.sched.apps.lock().insert(id, (app, iterations));
            (id, starts)
        })
    }

    /// Cancel a job: queued jobs leave immediately, running jobs terminate
    /// at their next resize point.
    pub fn cancel(&self, job: JobId) {
        self.sched.transition(|core| {
            if core.job(job).is_some_and(|r| r.state == JobState::Queued) {
                // It never launches.
                self.sched.apps.lock().remove(&job);
            }
            ((), core.cancel(job, self.sched.submission_stamp()))
        });
    }

    /// Shared scheduler state, for inspection (profiles, events, jobs).
    pub fn core(&self) -> &Arc<Mutex<SchedulerCore>> {
        &self.sched.core
    }

    /// Remove and return the scheduling trace accumulated so far (see
    /// [`SchedulerCore::drain_events`]); keeps long-lived runtimes from
    /// hitting the trace retention cap.
    pub fn drain_events(&self) -> Vec<SchedEvent> {
        self.sched.core.lock().drain_events()
    }

    /// The underlying cluster.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.sched.universe
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
    /// every transition. The caller's deadline is the only wall clock the
    /// runtime reads (CI checks that).
    fn wait_until<R>(
        &self,
        timeout: Duration,
        what: String,
        done: impl Fn(&SchedulerCore) -> Option<R>,
    ) -> Result<R, WaitTimeout> {
        let deadline = std::time::Instant::now() + timeout;
        let progress = &self.sched.progress;
        // Held from each check until the wait releases it, so a bump in
        // between cannot be missed.
        let mut guard = progress.lock.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(answer) = done(&self.sched.core.lock()) {
                return Ok(answer);
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err(WaitTimeout { what, timeout });
            }
            guard = progress
                .changed
                .wait_timeout(guard, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyPref;
    use reshape_blockcyclic::{Descriptor, DistMatrix};
    use reshape_mpisim::NetModel;

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
        // The transition that failed the job returned its slots.
        assert_eq!(
            rt.core().lock().idle_procs(),
            4,
            "resources never reclaimed"
        );
    }

    #[test]
    fn a_quiescent_runtime_keeps_no_app_or_watch() {
        let rt = ReshapeRuntime::new(Universe::new(8, 1, NetModel::ideal()), QueuePolicy::Fcfs);
        let spec = |name: &str, config: ProcessorConfig| {
            JobSpec::new(name, TopologyPref::Grid { problem_size: 8 }, config, 4).static_job()
        };
        let crasher = AppDef::new(
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
        let finishes = rt.submit(spec("finishes", ProcessorConfig::new(1, 2)), toy(8, 1.0));
        // One rank: a peer of the failed rank would wait out the receive
        // deadline before it exits.
        let fails = rt.submit(spec("fails", ProcessorConfig::new(1, 1)), crasher);
        let running = rt.submit(spec("running", ProcessorConfig::new(1, 2)), toy(8, 1.0));
        let queued = rt.submit(spec("queued", ProcessorConfig::new(2, 2)), toy(8, 1.0));
        rt.cancel(queued);
        rt.cancel(running);
        rt.wait_quiescent(Duration::from_secs(30)).unwrap();
        // Every rank has exited, and the monitor has seen each exit.
        rt.universe().join_spawned();
        let core = rt.core().lock();
        let state = |job| core.job(job).map(|r| r.state.clone());
        assert!(matches!(state(finishes), Some(JobState::Finished { .. })));
        assert!(matches!(state(fails), Some(JobState::Failed { .. })));
        assert!(matches!(state(running), Some(JobState::Cancelled { .. })));
        assert!(matches!(state(queued), Some(JobState::Cancelled { .. })));
        drop(core);
        assert!(rt.sched.apps.lock().is_empty(), "an app outlived its job");
        assert!(
            rt.sched.watch.lock().is_empty(),
            "a watch outlived its process"
        );
    }

    #[test]
    fn spawn_fault_recovers_through_runtime_channel() {
        let uni = Universe::new(8, 1, NetModel::ideal());
        // Every expansion attempt spawn is denied outright (the driver
        // makes up to three attempts).
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
        assert_eq!(
            rt.core().lock().idle_procs(),
            4,
            "resources never reclaimed"
        );
    }

    #[test]
    fn survivable_job_outlives_a_node_crash() {
        // Same crash as above, but the job opted into shrink-to-survivors
        // recovery: the system monitor must defer to the driver (a
        // survivable Running job is the recovery path's to handle, not the
        // monitor's), the driver shrinks 2x2 -> 1x3 from buddy
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
        assert_eq!(
            rt.core().lock().idle_procs(),
            4,
            "resources never reclaimed"
        );
    }
}
