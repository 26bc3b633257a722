//! Dynamic process management: `MPI_Comm_spawn_multiple` +
//! `MPI_Intercomm_merge`, the mechanism ReSHAPE's resizing library uses to
//! grow an application's processor set without restarting it.

use std::sync::Arc;

use bytes::Bytes;

use crate::comm::{Comm, Group, NodeId, TAG_MERGE, TAG_SPAWN};
use crate::datum::{from_bytes, to_bytes};
use crate::endpoint::{Envelope, ProcId};
use crate::universe::UniverseCore;

/// What a dynamically spawned process receives on startup: its own world
/// communicator (the set of processes spawned together) and the
/// intercommunicator back to its parents.
pub struct SpawnCtx {
    pub world: Comm,
    pub parent: InterComm,
}

/// An intercommunicator: two disjoint groups (the spawning parents — the
/// *low* group — and the spawned children — the *high* group) that can
/// message each other and merge into a single intracommunicator.
pub struct InterComm {
    pub(crate) id: u64,
    /// This side's intracommunicator.
    pub(crate) local: Comm,
    /// The other side's group.
    pub(crate) remote: Arc<Group>,
    /// True on the parent (spawning) side; parents occupy the low ranks of a
    /// merged communicator.
    pub(crate) is_low: bool,
}

impl InterComm {
    /// This side's intracommunicator.
    pub fn local(&self) -> &Comm {
        &self.local
    }

    /// Number of processes on the other side.
    pub fn remote_size(&self) -> usize {
        self.remote.size()
    }

    /// Send to a rank of the remote group.
    pub fn send_remote<T: crate::Pod>(&self, dst: usize, tag: u32, data: &[T]) {
        self.send_remote_raw(dst, tag, to_bytes(data));
    }

    fn send_remote_raw(&self, dst: usize, tag: u32, payload: Bytes) {
        let core = self.local.core();
        let arrival = {
            let mut ep = self.local.ep.borrow_mut();
            ep.now += core.net.send_cost(payload.len());
            ep.now + core.net.latency
        };
        core.deliver(
            self.remote.members[dst],
            Envelope {
                comm: self.id,
                src: self.local.rank(),
                tag,
                arrival,
                len: payload.len(),
                payload,
            },
        );
    }

    /// Receive from a rank of the remote group.
    pub fn recv_remote<T: crate::Pod>(&self, src: usize, tag: u32) -> Vec<T> {
        let core = self.local.core();
        let mut ep = self.local.ep.borrow_mut();
        let env = ep.recv_match(self.id, src, tag, &core.net, None);
        from_bytes(&env.expect("an unwatched receive completes").payload)
    }

    /// Merge both sides into one intracommunicator, low (parent) group
    /// first. Collective over every process on both sides. Ends with a
    /// barrier so virtual clocks are synchronized across the expanded set —
    /// matching the paper's "merge the new and old BLACS context" step.
    pub fn merge(&self) -> Comm {
        let core = Arc::clone(self.local.core());
        // Agree on the merged communicator id: the low-side root allocates
        // and forwards it to the high-side root; each root broadcasts
        // locally.
        let payload = if self.local.rank() == 0 {
            let id = if self.is_low {
                let id = core.alloc_comm_id();
                self.send_remote(0, TAG_MERGE, &[id]);
                id
            } else {
                self.recv_remote::<u64>(0, TAG_MERGE)[0]
            };
            to_bytes(&[id])
        } else {
            Bytes::new()
        };
        let merged_id = from_bytes::<u64>(&self.local.bcast_raw(0, TAG_MERGE, payload))[0];
        let (low, high) = if self.is_low {
            (self.local.group(), &self.remote)
        } else {
            (&self.remote, self.local.group())
        };
        let mut members = low.members.clone();
        members.extend_from_slice(&high.members);
        let mut nodes = low.nodes.clone();
        nodes.extend_from_slice(&high.nodes);
        let rank = if self.is_low {
            self.local.rank()
        } else {
            low.size() + self.local.rank()
        };
        let merged = Comm {
            group: Arc::new(Group {
                id: merged_id,
                members,
                nodes,
            }),
            rank,
            ep: std::rc::Rc::clone(&self.local.ep),
            core,
            stats: std::rc::Rc::default(),
        };
        merged.barrier();
        merged
    }
}

impl Comm {
    /// Collectively spawn `n` new processes running `entry`, returning the
    /// intercommunicator to them. Every rank of `self` must call this.
    ///
    /// The paper's resizing library calls `MPI_Comm_spawn_multiple` here,
    /// spawning onto the node list handed down by the Remap Scheduler;
    /// `nodes` plays that role (defaults to round-robin placement).
    pub fn spawn<F>(&self, n: usize, nodes: Option<Vec<NodeId>>, name: &str, entry: F) -> InterComm
    where
        F: Fn(SpawnCtx) + Send + Sync + 'static,
    {
        assert!(n > 0, "cannot spawn an empty group");
        let payload = if self.rank() == 0 {
            let core = Arc::clone(self.core());
            // Virtual spawn cost: process startup is far from free on a real
            // cluster (fork/exec, connection setup).
            self.advance(core.net.spawn_overhead);
            // An injected spawn cap grants fewer processes than requested,
            // like MPI_Comm_spawn_multiple partially failing; callers see the
            // shortfall via `remote_size()` and must cope.
            let granted = core.fault.next_spawn_cap(n);
            // A placement on an already-crashed node could never produce a
            // useful process (it would die on its first operation, wedging
            // any collective that includes it). Decline such placements
            // like any other partial grant, so callers go through the
            // normal shortfall abort/retry path.
            let now = self.vtime();
            let nodes = nodes.map(|mut v| {
                v.truncate(granted);
                let before = v.len();
                v.retain(|&nd| !core.fault.crashed_by(nd, now));
                if v.len() < before {
                    reshape_telemetry::incr(
                        "mpisim.spawns_declined_dead_node",
                        (before - v.len()) as u64,
                    );
                }
                v
            });
            let granted = nodes.as_ref().map_or(granted, Vec::len);
            reshape_telemetry::incr("mpisim.spawns", 1);
            reshape_telemetry::incr("mpisim.spawned_procs", granted as u64);
            if granted < n {
                reshape_telemetry::incr("mpisim.spawn_shortfalls", 1);
                reshape_telemetry::record(reshape_telemetry::Event::SpawnFault {
                    time: self.vtime(),
                    requested: n,
                    granted,
                });
            }
            reshape_telemetry::observe("mpisim.spawn_overhead_seconds", core.net.spawn_overhead);
            let span = reshape_telemetry::span("mpisim.spawn_wall_seconds");
            let (inter_id, child_group) = spawn_children(
                &core,
                granted,
                nodes,
                name,
                entry,
                Arc::clone(self.group()),
                self.vtime(),
            );
            span.stop();
            if reshape_telemetry::trace::enabled() {
                // The launcher's own slice of a spawn, stamped in virtual
                // time (`now` predates the charged spawn overhead) and
                // parented to whatever span the calling rank is inside.
                use reshape_telemetry::trace;
                let ctx = trace::current();
                trace::complete(
                    ctx.trace,
                    ctx.parent,
                    format!("mpi_spawn {granted}/{n}"),
                    "spawn",
                    "mpisim",
                    now,
                    self.vtime(),
                );
            }
            let mut msg: Vec<u64> = vec![inter_id, granted as u64];
            msg.extend(child_group.members.iter().map(|p| p.0));
            msg.extend(child_group.nodes.iter().map(|nd| nd.0 as u64));
            to_bytes(&msg)
        } else {
            Bytes::new()
        };
        let msg: Vec<u64> = from_bytes(&self.bcast_raw(0, TAG_SPAWN, payload));
        let inter_id = msg[0];
        let n_children = msg[1] as usize;
        let members: Vec<ProcId> = msg[2..2 + n_children].iter().map(|&v| ProcId(v)).collect();
        let nodes: Vec<NodeId> = msg[2 + n_children..2 + 2 * n_children]
            .iter()
            .map(|&v| NodeId(v as u32))
            .collect();
        let remote = Arc::new(Group {
            id: 0, // children's world id is private to them
            members,
            nodes,
        });
        InterComm {
            id: inter_id,
            local: self.clone(),
            remote,
            is_low: true,
        }
    }

    /// Convenience: spawn `n` processes and immediately merge, returning the
    /// expanded intracommunicator (parents in the low ranks). The spawned
    /// processes' `entry` receives the [`SpawnCtx`]; they typically call
    /// `ctx.parent.merge()` themselves and then join the application's
    /// iteration loop.
    ///
    /// ```
    /// use reshape_mpisim::{NetModel, Universe};
    ///
    /// let uni = Universe::new(4, 1, NetModel::ideal());
    /// uni.launch(2, None, "doc", |comm| {
    ///     // Grow from 2 to 4 ranks, ReSHAPE-style.
    ///     let bigger = comm.spawn_merge(2, None, "extra", |ctx| {
    ///         let merged = ctx.parent.merge();
    ///         assert_eq!(merged.size(), 4);
    ///         merged.barrier();
    ///     });
    ///     assert_eq!(bigger.size(), 4);
    ///     assert_eq!(bigger.rank(), comm.rank()); // parents keep low ranks
    ///     bigger.barrier();
    /// })
    /// .join_ok();
    /// uni.join_spawned();
    /// ```
    pub fn spawn_merge<F>(&self, n: usize, nodes: Option<Vec<NodeId>>, name: &str, entry: F) -> Comm
    where
        F: Fn(SpawnCtx) + Send + Sync + 'static,
    {
        self.spawn(n, nodes, name, entry).merge()
    }
}

/// Parent-root half of spawning: start the child processes. Returns the
/// intercommunicator's id and the children's group.
fn spawn_children<F>(
    core: &Arc<UniverseCore>,
    n: usize,
    nodes: Option<Vec<NodeId>>,
    name: &str,
    entry: F,
    parent_group: Arc<Group>,
    start_vtime: f64,
) -> (u64, Arc<Group>)
where
    F: Fn(SpawnCtx) + Send + Sync + 'static,
{
    let nodes = nodes.unwrap_or_else(|| {
        (0..n)
            .map(|i| NodeId(((i / core.slots_per_node) % core.num_nodes) as u32))
            .collect()
    });
    assert_eq!(nodes.len(), n, "need one node per spawned process");
    let inter_id = core.alloc_comm_id();
    let child_world_id = core.alloc_comm_id();
    let children = core.start_group(
        child_world_id,
        nodes,
        &format!("{name}.spawn"),
        start_vtime,
        move |world| {
            let parent = InterComm {
                id: inter_id,
                local: world.clone(),
                remote: Arc::clone(&parent_group),
                is_low: false,
            };
            entry(SpawnCtx { world, parent });
        },
    );
    (inter_id, children)
}

#[cfg(test)]
mod tests {
    use crate::{NetModel, ReduceOp, Universe};

    #[test]
    fn spawn_and_merge_expands_group() {
        let uni = Universe::new(8, 1, NetModel::ideal());
        let h = uni.launch(2, None, "parents", |comm| {
            let expanded = comm.spawn_merge(3, None, "kids", |ctx| {
                assert_eq!(ctx.world.size(), 3);
                let merged = ctx.parent.merge();
                assert_eq!(merged.size(), 5);
                // Children occupy the high ranks.
                assert_eq!(merged.rank(), 2 + ctx.world.rank());
                let s = merged.allreduce(ReduceOp::Sum, &[merged.rank() as u64]);
                assert_eq!(s, vec![10]);
            });
            assert_eq!(expanded.size(), 5);
            assert_eq!(expanded.rank(), comm.rank());
            let s = expanded.allreduce(ReduceOp::Sum, &[expanded.rank() as u64]);
            assert_eq!(s, vec![10]);
        });
        h.join_ok();
        uni.join_spawned();
    }

    #[test]
    fn spawn_declines_placements_on_crashed_nodes() {
        use crate::NodeId;
        let uni = Universe::new(4, 1, NetModel::ideal());
        // Node 3 is dead from the start; a spawn targeting nodes 2 and 3
        // must be granted only the live placement, surfacing as the usual
        // short grant rather than a process that dies on arrival.
        uni.inject_node_crash(NodeId(3), 0.0);
        let h = uni.launch(1, None, "root", |comm| {
            comm.advance(1.0);
            let inter = comm.spawn(2, Some(vec![NodeId(2), NodeId(3)]), "kids", |ctx| {
                assert_eq!(ctx.world.size(), 1, "only the live node spawned");
            });
            assert_eq!(inter.remote_size(), 1, "dead-node placement declined");
        });
        h.join_ok();
        uni.join_spawned();
        uni.clear_faults();
    }

    #[test]
    fn intercomm_messaging_before_merge() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        let h = uni.launch(1, None, "root", |comm| {
            let inter = comm.spawn(2, None, "kids", |ctx| {
                let v: Vec<u64> = ctx.parent.recv_remote(0, 5);
                assert_eq!(v, vec![ctx.world.rank() as u64]);
                ctx.parent.send_remote(0, 6, &[v[0] * 2]);
            });
            inter.send_remote(0, 5, &[0u64]);
            inter.send_remote(1, 5, &[1u64]);
            let a: Vec<u64> = inter.recv_remote(0, 6);
            let b: Vec<u64> = inter.recv_remote(1, 6);
            assert_eq!((a[0], b[0]), (0, 2));
        });
        h.join_ok();
        uni.join_spawned();
    }

    #[test]
    fn repeated_expansion() {
        // Grow 1 -> 2 -> 4 the way ReSHAPE grows an application in steps.
        let uni = Universe::new(8, 1, NetModel::ideal());
        let h = uni.launch(1, None, "seed", |comm| {
            let c2 = comm.spawn_merge(1, None, "g1", |ctx| {
                let c2 = ctx.parent.merge();
                let c4 = c2.spawn_merge(2, None, "g2", |ctx2| {
                    let c4 = ctx2.parent.merge();
                    assert_eq!(c4.size(), 4);
                    c4.barrier();
                });
                assert_eq!(c4.size(), 4);
                c4.barrier();
            });
            assert_eq!(c2.size(), 2);
            let c4 = c2.spawn_merge(2, None, "g2", |ctx2| {
                let c4 = ctx2.parent.merge();
                assert_eq!(c4.size(), 4);
                c4.barrier();
            });
            assert_eq!(c4.size(), 4);
            c4.barrier();
        });
        h.join_ok();
        uni.join_spawned();
    }

    #[test]
    fn shrink_via_split() {
        // The ReSHAPE shrink path: redistribute (elsewhere), split off the
        // retained subset, surplus ranks exit.
        let uni = Universe::new(4, 1, NetModel::ideal());
        let h = uni.launch(4, None, "app", |comm| {
            let keep = comm.rank() < 2;
            let sub = comm.split(if keep { Some(0) } else { None }, comm.rank() as i64);
            if keep {
                let sub = sub.expect("retained ranks get the new communicator");
                assert_eq!(sub.size(), 2);
                sub.barrier();
            } else {
                assert!(sub.is_none());
                // Surplus rank simply returns — process terminates and its
                // node is free for the scheduler to reallocate.
            }
        });
        h.join_ok();
    }

    #[test]
    fn spawn_charges_virtual_overhead() {
        let uni = Universe::new(4, 1, NetModel::gigabit_ethernet());
        let h = uni.launch(1, None, "root", |comm| {
            let t0 = comm.vtime();
            let merged = comm.spawn_merge(1, None, "kid", |ctx| {
                ctx.parent.merge().barrier();
            });
            merged.barrier();
            assert!(comm.vtime() - t0 >= NetModel::gigabit_ethernet().spawn_overhead);
        });
        h.join_ok();
        uni.join_spawned();
    }

    /// The ReSHAPE grow path on Gigabit Ethernet: `parents` ranks spawn as
    /// many children, merge, and barrier. Rank 0's virtual cost of the whole
    /// expansion is pinned to recorded bits for 2 → 4 and 4 → 8.
    #[test]
    fn expansion_latency_is_pinned() {
        use std::sync::{Arc, Mutex};
        for (parents, want) in [(2, 0.2504955119999996_f64), (4, 0.25074647199999933)] {
            let uni = Universe::new(2 * parents, 1, NetModel::gigabit_ethernet());
            let seen = Arc::new(Mutex::new(f64::NAN));
            let sink = seen.clone();
            uni.launch(parents, None, "parents", move |comm| {
                let t0 = comm.vtime();
                let bigger = comm.spawn_merge(parents, None, "kids", |ctx| {
                    ctx.parent.merge().barrier();
                });
                bigger.barrier();
                if comm.rank() == 0 {
                    *sink.lock().unwrap() = comm.vtime() - t0;
                }
            })
            .join_ok();
            uni.join_spawned();
            let got = *seen.lock().unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{parents} -> {}: {got}",
                2 * parents
            );
        }
    }

    #[test]
    fn spawned_children_inherit_parent_vtime() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        let h = uni.launch(1, None, "root", |comm| {
            comm.advance(42.0);
            comm.spawn_merge(2, None, "kids", |ctx| {
                assert!(ctx.world.vtime() >= 42.0);
                ctx.parent.merge();
            });
        });
        h.join_ok();
        uni.join_spawned();
    }
}
