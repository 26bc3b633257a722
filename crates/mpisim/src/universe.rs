//! The virtual cluster: node inventory, the process table, and failure
//! reporting.
//!
//! The universe keeps one table of every process it ever started, indexed
//! by [`ProcId`]. An entry ([`Proc`]) holds the process's mailbox, its
//! [`ProcStatus`] and its thread; joins, sends, receives and the exit all
//! go through it.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::comm::{Comm, Group, NodeId};
use crate::endpoint::{Endpoint, Envelope, Proc, ProcId};
use crate::fault::FaultState;
use crate::net::NetModel;

/// Lifecycle state of a simulated process, as reported to monitors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcStatus {
    Running,
    /// Returned normally from its entry function.
    Finished,
    /// Panicked; the payload is the panic message. ReSHAPE's System Monitor
    /// treats this as a job error and reclaims the job's resources.
    Failed(String),
}

/// A process's exit, handed to the universe's exit hook
/// ([`Universe::monitor`]). The ReSHAPE System Monitor is that hook,
/// mirroring the per-node application monitors of the paper.
#[derive(Clone, Debug)]
pub struct ProcEvent {
    pub proc: ProcId,
    pub node: NodeId,
    pub status: ProcStatus,
}

type ExitHook = dyn Fn(ProcEvent) + Send + Sync;

pub(crate) struct UniverseCore {
    /// The process table: entry `i` is process `ProcId(i)`'s.
    procs: RwLock<Vec<Arc<Proc>>>,
    next_comm: AtomicU64,
    pub net: NetModel,
    pub num_nodes: usize,
    pub slots_per_node: usize,
    /// The exit hook ([`Universe::monitor`]).
    monitor: OnceLock<Box<ExitHook>>,
    /// Injected faults (node crashes, spawn caps, link slowdowns).
    pub fault: FaultState,
}

impl UniverseCore {
    /// Process `pid`'s entry.
    pub fn proc(&self, pid: ProcId) -> Option<Arc<Proc>> {
        self.procs.read().get(pid.0 as usize).cloned()
    }

    pub fn is_live(&self, pid: ProcId) -> bool {
        self.proc(pid).is_some_and(|p| p.is_live())
    }

    pub fn status_of(&self, pid: ProcId) -> Option<ProcStatus> {
        self.proc(pid).map(|p| p.status())
    }

    /// Allocate a fresh communicator id. Agreement among members is arranged
    /// by the collective that triggers allocation (split/dup/spawn/merge).
    pub fn alloc_comm_id(&self) -> u64 {
        self.next_comm.fetch_add(1, Ordering::Relaxed)
    }

    /// Send `env` to `dst`. Panics if `dst` has exited, surfacing protocol
    /// bugs (e.g. messaging a rank that already shrank away) immediately
    /// instead of hanging.
    pub fn deliver(&self, dst: ProcId, env: Envelope) {
        if let Err(_env) = self.try_deliver(dst, env) {
            panic!("send to unknown or terminated process {dst}");
        }
    }

    /// Like [`UniverseCore::deliver`] but hands the envelope back instead
    /// of panicking when the destination has exited, so fault-aware callers
    /// (e.g. redistribution abort paths) can decline gracefully.
    pub fn try_deliver(&self, dst: ProcId, env: Envelope) -> Result<(), Envelope> {
        match self.proc(dst) {
            Some(p) => p.deliver(env),
            None => Err(env),
        }
    }

    /// Start one process on each of `nodes`, as a group over communicator
    /// `id`; each runs `entry` with its [`Comm`] of the group, on a thread
    /// named `{name}{rank}`, its clock at `start_vtime`.
    pub fn start_group<F>(
        self: &Arc<Self>,
        id: u64,
        nodes: Vec<NodeId>,
        name: &str,
        start_vtime: f64,
        entry: F,
    ) -> Arc<Group>
    where
        F: Fn(Comm) + Send + Sync + 'static,
    {
        let procs: Vec<Arc<Proc>> = nodes.iter().map(|_| Arc::new(Proc::new())).collect();
        let members = {
            let mut table = self.procs.write();
            let first = table.len() as u64;
            table.extend(procs.iter().cloned());
            (first..table.len() as u64).map(ProcId).collect()
        };
        let group = Arc::new(Group { id, members, nodes });
        let entry = Arc::new(entry);
        for (rank, proc) in procs.into_iter().enumerate() {
            let (core, group, entry) = (Arc::clone(self), Arc::clone(&group), Arc::clone(&entry));
            let me = Arc::clone(&proc);
            let handle = std::thread::Builder::new()
                .name(format!("{name}{rank}"))
                .spawn(move || {
                    let (pid, node) = (group.members[rank], group.nodes[rank]);
                    let ep = Endpoint::new(pid, Arc::clone(&me), start_vtime);
                    let comm = Comm {
                        group,
                        rank,
                        ep: Rc::new(RefCell::new(ep)),
                        core: Arc::clone(&core),
                        stats: Rc::default(),
                    };
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| entry(comm)));
                    let status = match result {
                        Ok(()) => ProcStatus::Finished,
                        Err(e) => {
                            let msg = e
                                .downcast_ref::<String>()
                                .cloned()
                                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                                .unwrap_or_else(|| "unknown panic".to_string());
                            ProcStatus::Failed(msg)
                        }
                    };
                    // The queue drops outside the lock, handing back the
                    // loans in it. Then every blocked receive looks again
                    // at whether its sender is live, and the threads that
                    // have ended are joined, so new ones reuse their stacks.
                    drop(me.exit(status.clone()));
                    let table = core.procs.read().clone();
                    for p in &table {
                        if p.is_live() {
                            p.wake();
                        } else {
                            p.reap();
                        }
                    }
                    if let Some(hook) = core.monitor.get() {
                        hook(ProcEvent {
                            proc: pid,
                            node,
                            status,
                        });
                    }
                })
                .expect("failed to spawn simulated process thread");
            *proc.thread.lock() = Some(handle);
        }
        group
    }
}

/// A simulated homogeneous cluster.
///
/// `Universe::new(nodes, slots_per_node, net)` models a cluster like the
/// paper's System X partition (50 nodes × 2 CPUs, Gigabit Ethernet).
/// Process-group placement onto nodes is advisory metadata consumed by the
/// ReSHAPE scheduler; the message fabric itself is uniform.
pub struct Universe {
    core: Arc<UniverseCore>,
}

impl Universe {
    pub fn new(num_nodes: usize, slots_per_node: usize, net: NetModel) -> Self {
        assert!(num_nodes > 0 && slots_per_node > 0);
        Universe {
            core: Arc::new(UniverseCore {
                procs: RwLock::default(),
                next_comm: AtomicU64::new(1),
                net,
                num_nodes,
                slots_per_node,
                monitor: OnceLock::new(),
                fault: FaultState::default(),
            }),
        }
    }

    /// Total processor slots in the cluster.
    pub fn total_slots(&self) -> usize {
        self.core.num_nodes * self.core.slots_per_node
    }

    /// Number of compute nodes.
    pub fn num_nodes(&self) -> usize {
        self.core.num_nodes
    }

    /// Processor slots per node (the paper's nodes host two CPUs).
    pub fn slots_per_node(&self) -> usize {
        self.core.slots_per_node
    }

    /// The network model in force.
    pub fn net(&self) -> NetModel {
        self.core.net
    }

    /// Install the exit hook: `f` runs on each exiting process's own
    /// thread, once that process's status is final, with its
    /// [`ProcEvent`]. A universe has one hook; a process that exits before
    /// it is installed is not reported.
    ///
    /// # Panics
    ///
    /// If a hook is already installed.
    pub fn monitor(&self, f: impl Fn(ProcEvent) + Send + Sync + 'static) {
        if self.core.monitor.set(Box::new(f)).is_err() {
            panic!("a universe has one exit hook");
        }
    }

    /// Inject a node crash: every process placed on `node` panics at its
    /// first communication or clock advance at virtual time ≥ `at_vtime`.
    /// The failures reach the exit hook as [`ProcStatus::Failed`], exactly
    /// like an application panic, so monitors exercise their real recovery
    /// path.
    pub fn inject_node_crash(&self, node: NodeId, at_vtime: f64) {
        self.core.fault.inject_node_crash(node, at_vtime);
    }

    /// Inject a grant cap for an upcoming [`Comm::spawn`]: the next spawn
    /// call is granted at most `cap` processes (possibly zero). Caps queue
    /// up and are consumed one per spawn call, in injection order.
    pub fn inject_spawn_cap(&self, cap: usize) {
        self.core.fault.inject_spawn_cap(cap);
    }

    /// Inject a directed link slowdown: messages from `src` to `dst` pay
    /// `factor`× the modeled network time (factor > 1 slows the link).
    pub fn inject_link_slowdown(&self, src: NodeId, dst: NodeId, factor: f64) {
        self.core.fault.inject_link_slowdown(src, dst, factor);
    }

    /// Disarm every injected fault (crashes, spawn caps and link
    /// slowdowns). Lets a long-lived universe be reused across fault
    /// experiments.
    pub fn clear_faults(&self) {
        self.core.fault.clear();
    }

    /// Query a process's last known status.
    pub fn status_of(&self, pid: ProcId) -> Option<ProcStatus> {
        self.core.status_of(pid)
    }

    /// Default round-robin placement of `n` processes over the cluster.
    pub fn default_placement(&self, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|i| NodeId(((i / self.core.slots_per_node) % self.core.num_nodes) as u32))
            .collect()
    }

    /// Launch a fresh group of `n` processes, each running `entry` with its
    /// own [`Comm`] over a new world communicator. Placement defaults to
    /// round-robin if `nodes` is `None`.
    pub fn launch<F>(
        &self,
        n: usize,
        nodes: Option<Vec<NodeId>>,
        name: &str,
        entry: F,
    ) -> GroupHandle
    where
        F: Fn(Comm) + Send + Sync + 'static,
    {
        self.launch_at(n, nodes, name, 0.0, entry)
    }

    /// Like [`Universe::launch`] but with an explicit starting virtual time,
    /// so a scheduler can start jobs at their (virtual) arrival times.
    pub fn launch_at<F>(
        &self,
        n: usize,
        nodes: Option<Vec<NodeId>>,
        name: &str,
        start_vtime: f64,
        entry: F,
    ) -> GroupHandle
    where
        F: Fn(Comm) + Send + Sync + 'static,
    {
        assert!(n > 0, "cannot launch an empty group");
        let nodes = nodes.unwrap_or_else(|| self.default_placement(n));
        assert_eq!(nodes.len(), n, "need one node per process");
        let id = self.core.alloc_comm_id();
        let group = self
            .core
            .start_group(id, nodes, &format!("{name}."), start_vtime, entry);
        GroupHandle {
            members: group.members.clone(),
            core: Arc::clone(&self.core),
        }
    }

    /// Wait for every process whose thread no [`GroupHandle`] joined to
    /// terminate: those spawned dynamically (via [`Comm::spawn`]), and the
    /// members of launched groups whose handle was dropped or is not joined
    /// yet.
    pub fn join_spawned(&self) {
        let mut next = 0;
        while let Some(proc) = self.core.proc(ProcId(next)) {
            proc.join();
            next += 1;
        }
    }
}

/// Handle to an initially launched process group.
pub struct GroupHandle {
    members: Vec<ProcId>,
    core: Arc<UniverseCore>,
}

impl GroupHandle {
    pub fn members(&self) -> &[ProcId] {
        &self.members
    }

    /// Wait for all members and return their final statuses.
    pub fn join(self) -> Vec<(ProcId, ProcStatus)> {
        for &p in &self.members {
            self.core.proc(p).expect("a member has an entry").join();
        }
        self.members
            .iter()
            .map(|&p| {
                (
                    p,
                    self.core
                        .status_of(p)
                        .expect("launched process must have a status"),
                )
            })
            .collect()
    }

    /// Wait for all members, panicking (with the original message) if any
    /// process failed. Convenience for tests.
    pub fn join_ok(self) {
        for (pid, status) in self.join() {
            if let ProcStatus::Failed(msg) = status {
                panic!("process {pid} failed: {msg}");
            }
        }
    }

    /// Non-blocking check: have all members terminated, and did any fail?
    pub fn poll(&self) -> (bool, Vec<(ProcId, ProcStatus)>) {
        let statuses: Vec<_> = self
            .members
            .iter()
            .map(|&p| (p, self.core.status_of(p).unwrap_or(ProcStatus::Running)))
            .collect();
        let done = statuses
            .iter()
            .all(|(_, s)| !matches!(s, ProcStatus::Running));
        (done, statuses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn ids_are_unique() {
        let uni = Universe::new(2, 1, NetModel::ideal());
        let a = uni.launch(1, None, "a", |_| {});
        let b = uni.launch(1, None, "b", |_| {});
        assert_ne!(a.members(), b.members());
        assert_eq!(uni.core.procs.read().len(), 2);
        a.join_ok();
        b.join_ok();
    }

    #[test]
    #[should_panic(expected = "terminated process")]
    fn deliver_to_dead_panics() {
        let uni = Universe::new(1, 1, NetModel::ideal());
        let h = uni.launch(1, None, "gone", |_| {});
        let pid = h.members()[0];
        h.join_ok();
        uni.core.deliver(
            pid,
            Envelope {
                comm: 1,
                src: 0,
                tag: 0,
                arrival: 0.0,
                len: 0,
                payload: bytes::Bytes::new(),
            },
        );
    }

    #[test]
    fn an_exit_joins_the_threads_that_ended() {
        let uni = Universe::new(2, 1, NetModel::ideal());
        let first = uni.launch(1, None, "first", |_| {}).members()[0];
        let proc = uni.core.proc(first).unwrap();
        for _ in 0..10_000 {
            if proc.thread.lock().as_ref().unwrap().is_finished() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        uni.launch(1, None, "second", |_| {}).join_ok();
        assert!(
            proc.thread.lock().is_none(),
            "an ended thread was left unjoined"
        );
    }

    #[test]
    fn comm_ids_monotonic() {
        let uni = Universe::new(1, 1, NetModel::ideal());
        let a = uni.core.alloc_comm_id();
        let b = uni.core.alloc_comm_id();
        assert!(b > a);
    }

    #[test]
    fn launch_and_join() {
        let uni = Universe::new(2, 2, NetModel::ideal());
        let h = uni.launch(4, None, "noop", |comm| {
            assert_eq!(comm.size(), 4);
        });
        let statuses = h.join();
        assert_eq!(statuses.len(), 4);
        assert!(statuses.iter().all(|(_, s)| *s == ProcStatus::Finished));
    }

    #[test]
    fn failure_is_reported() {
        let uni = Universe::new(1, 2, NetModel::ideal());
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        uni.monitor(move |ev| sink.lock().push(ev));
        let h = uni.launch(2, None, "fail", |comm| {
            if comm.rank() == 1 {
                panic!("synthetic application error");
            }
        });
        let statuses = h.join();
        let failed: Vec<_> = statuses
            .iter()
            .filter(|(_, s)| matches!(s, ProcStatus::Failed(_)))
            .collect();
        assert_eq!(failed.len(), 1);
        // The exit hook saw both terminations.
        let mut seen = 0;
        for ev in events.lock().drain(..) {
            seen += 1;
            if ev.proc == failed[0].0 {
                assert!(matches!(ev.status, ProcStatus::Failed(ref m) if m.contains("synthetic")));
            }
        }
        assert_eq!(seen, 2);
    }

    #[test]
    fn default_placement_fills_slots() {
        let uni = Universe::new(3, 2, NetModel::ideal());
        let p = uni.default_placement(6);
        assert_eq!(
            p,
            vec![
                NodeId(0),
                NodeId(0),
                NodeId(1),
                NodeId(1),
                NodeId(2),
                NodeId(2)
            ]
        );
        assert_eq!(uni.total_slots(), 6);
    }

    #[test]
    fn explicit_placement_respected() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        let nodes = vec![NodeId(3), NodeId(1)];
        uni.launch(2, Some(nodes.clone()), "placed", move |comm| {
            assert_eq!(comm.node_of(0), NodeId(3));
            assert_eq!(comm.node_of(1), NodeId(1));
        })
        .join_ok();
    }

    #[test]
    fn poll_reports_completion() {
        let uni = Universe::new(1, 1, NetModel::ideal());
        let h = uni.launch(1, None, "quick", |_comm| {});
        // Wait until done (bounded).
        for _ in 0..1000 {
            let (done, _) = h.poll();
            if done {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("process never finished");
    }

    #[test]
    fn start_vtime_offsets_clock() {
        let uni = Universe::new(1, 1, NetModel::ideal());
        uni.launch_at(1, None, "late", 100.0, |comm| {
            assert_eq!(comm.vtime(), 100.0);
        })
        .join_ok();
    }
}
