//! The virtual cluster: node inventory, process lifecycle, and failure
//! reporting.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::comm::{Comm, Group, NodeId};
use crate::endpoint::Endpoint;
use crate::fault::FaultState;
use crate::net::NetModel;
use crate::router::{ProcId, Router};

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
    pub router: Router,
    pub net: NetModel,
    pub num_nodes: usize,
    pub slots_per_node: usize,
    statuses: Mutex<HashMap<ProcId, ProcStatus>>,
    /// The exit hook ([`Universe::monitor`]).
    monitor: OnceLock<Box<ExitHook>>,
    /// Join handles for *spawned* (mid-run) processes; initial launch groups
    /// keep their own handles in their [`GroupHandle`].
    spawned_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Injected faults (node crashes, spawn caps, link slowdowns).
    pub fault: FaultState,
}

impl UniverseCore {
    /// Register a process, start its thread, and track its status. `entry`
    /// receives the fully constructed communicator-building closure result.
    #[allow(clippy::too_many_arguments)]
    pub fn start_proc<F>(
        self: &Arc<Self>,
        pid: ProcId,
        rx: crossbeam_channel::Receiver<crate::router::Envelope>,
        node: NodeId,
        name: String,
        start_vtime: f64,
        make_and_run: F,
        track_in_core: bool,
    ) -> Option<JoinHandle<()>>
    where
        F: FnOnce(std::rc::Rc<std::cell::RefCell<Endpoint>>) + Send + 'static,
    {
        self.statuses.lock().insert(pid, ProcStatus::Running);
        let core = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let ep =
                    std::rc::Rc::new(std::cell::RefCell::new(Endpoint::new(pid, rx, start_vtime)));
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| make_and_run(ep)));
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
                core.router.deregister(pid);
                core.statuses.lock().insert(pid, status.clone());
                if let Some(hook) = core.monitor.get() {
                    hook(ProcEvent {
                        proc: pid,
                        node,
                        status,
                    });
                }
            })
            .expect("failed to spawn simulated process thread");
        if track_in_core {
            self.spawned_handles.lock().push(handle);
            None
        } else {
            Some(handle)
        }
    }

    pub fn status_of(&self, pid: ProcId) -> Option<ProcStatus> {
        self.statuses.lock().get(&pid).cloned()
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
                router: Router::new(),
                net,
                num_nodes,
                slots_per_node,
                statuses: Mutex::new(HashMap::new()),
                monitor: OnceLock::new(),
                spawned_handles: Mutex::new(Vec::new()),
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
        let entry = Arc::new(entry);
        let regs: Vec<_> = (0..n).map(|_| self.core.router.register()).collect();
        let members: Vec<ProcId> = regs.iter().map(|(p, _)| *p).collect();
        let group = Arc::new(Group {
            id: self.core.router.alloc_comm_id(),
            members: members.clone(),
            nodes: nodes.clone(),
        });
        let mut handles = Vec::with_capacity(n);
        for (rank, (pid, rx)) in regs.into_iter().enumerate() {
            let group = Arc::clone(&group);
            let entry = Arc::clone(&entry);
            let core = Arc::clone(&self.core);
            let node = nodes[rank];
            let h = self.core.start_proc(
                pid,
                rx,
                node,
                format!("{name}.{rank}"),
                start_vtime,
                move |ep| {
                    let comm = Comm {
                        group,
                        rank,
                        ep,
                        core,
                        stats: std::rc::Rc::default(),
                    };
                    entry(comm);
                },
                false,
            );
            handles.push(h.expect("launch returns handles"));
        }
        GroupHandle {
            members,
            handles,
            core: Arc::clone(&self.core),
        }
    }

    /// Wait for every process spawned dynamically (via [`Comm::spawn`]) to
    /// terminate. Initial groups are joined via their [`GroupHandle`]s.
    pub fn join_spawned(&self) {
        loop {
            let next = self.core.spawned_handles.lock().pop();
            match next {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

/// Handle to an initially launched process group.
pub struct GroupHandle {
    members: Vec<ProcId>,
    handles: Vec<JoinHandle<()>>,
    core: Arc<UniverseCore>,
}

impl GroupHandle {
    pub fn members(&self) -> &[ProcId] {
        &self.members
    }

    /// Wait for all members and return their final statuses.
    pub fn join(self) -> Vec<(ProcId, ProcStatus)> {
        for h in self.handles {
            let _ = h.join();
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
