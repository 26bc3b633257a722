//! Intracommunicators: process groups and point-to-point messaging.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;

use crate::datum::{from_bytes, from_bytes_into, to_bytes, Pod};
use crate::endpoint::{Endpoint, Envelope, ProcId};
use crate::universe::UniverseCore;

/// Identifier of a (virtual) compute node in the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// An ordered set of processes sharing a communicator, with their node
/// placement. Rank i of the communicator is `members[i]` on `nodes[i]`.
#[derive(Debug)]
pub struct Group {
    pub id: u64,
    pub members: Vec<ProcId>,
    pub nodes: Vec<NodeId>,
}

impl Group {
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

// Internal tag namespace. User tags must stay below `TAG_INTERNAL`; the
// library reserves the space above for its collectives and dynamic process
// management, so that user traffic can never be confused with protocol
// traffic on the same communicator. Every tag, user or internal, travels
// the same reliable wire.
pub(crate) const TAG_INTERNAL: u32 = 1 << 24;

pub(crate) const TAG_BARRIER: u32 = TAG_INTERNAL;
pub(crate) const TAG_BCAST: u32 = TAG_INTERNAL + 1;
pub(crate) const TAG_REDUCE: u32 = TAG_INTERNAL + 2;
pub(crate) const TAG_GATHER: u32 = TAG_INTERNAL + 3;
pub(crate) const TAG_SCATTER: u32 = TAG_INTERNAL + 4;
pub(crate) const TAG_ALLTOALL: u32 = TAG_INTERNAL + 5;
pub(crate) const TAG_SPLIT: u32 = TAG_INTERNAL + 6;
pub(crate) const TAG_MERGE: u32 = TAG_INTERNAL + 7;
pub(crate) const TAG_SPAWN: u32 = TAG_INTERNAL + 8;
pub(crate) const TAG_ALLGATHER: u32 = TAG_INTERNAL + 9;

/// A communicator handle for the calling process.
///
/// `Comm` is cheap to clone (all clones share the process's endpoint) but is
/// deliberately `!Send`: a communicator belongs to the rank that created it,
/// mirroring MPI usage. New ranks get their own `Comm` via
/// [`crate::Universe::launch`] or [`Comm::spawn`].
///
/// ```
/// use reshape_mpisim::{NetModel, ReduceOp, Universe};
///
/// Universe::new(4, 1, NetModel::ideal())
///     .launch(4, None, "doc", |comm| {
///         // Point-to-point with MPI matching semantics.
///         if comm.rank() == 0 {
///             comm.send(1, 42, &[3.14f64]);
///         } else if comm.rank() == 1 {
///             assert_eq!(comm.recv::<f64>(0, 42), vec![3.14]);
///         }
///         // Collectives.
///         let sum = comm.allreduce(ReduceOp::Sum, &[comm.rank() as u64]);
///         assert_eq!(sum, vec![0 + 1 + 2 + 3]);
///     })
///     .join_ok();
/// ```
pub struct Comm {
    pub(crate) group: Arc<Group>,
    pub(crate) rank: usize,
    pub(crate) ep: Rc<RefCell<Endpoint>>,
    pub(crate) core: Arc<UniverseCore>,
    pub(crate) stats: Rc<CommStats>,
}

/// Per-communicator traffic counters for this rank. Clones of a handle
/// share one set of counters; every *new* communicator (`dup`, `split`,
/// merge, spawn, launch) starts fresh. Always on — two `Cell` bumps per
/// send are free next to the routing work.
#[derive(Debug, Default)]
pub struct CommStats {
    msgs: Cell<u64>,
    bytes: Cell<u64>,
}

impl CommStats {
    /// Messages this rank has sent on the communicator (point-to-point and
    /// collective-internal alike).
    pub fn msgs_sent(&self) -> u64 {
        self.msgs.get()
    }

    /// Payload bytes this rank has sent on the communicator.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes.get()
    }
}

impl Clone for Comm {
    fn clone(&self) -> Self {
        Comm {
            group: Arc::clone(&self.group),
            rank: self.rank,
            ep: Rc::clone(&self.ep),
            core: Arc::clone(&self.core),
            stats: Rc::clone(&self.stats),
        }
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("id", &self.group.id)
            .field("rank", &self.rank)
            .field("size", &self.group.size())
            .finish()
    }
}

impl Comm {
    /// This process's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes in the communicator.
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// The communicator's globally unique id (analogous to a BLACS context
    /// handle).
    pub fn id(&self) -> u64 {
        self.group.id
    }

    /// The process group, for schedulers that need placement information.
    pub fn group(&self) -> &Arc<Group> {
        &self.group
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.group.nodes[rank]
    }

    /// Current virtual time at this process, in seconds.
    pub fn vtime(&self) -> f64 {
        self.ep.borrow().now
    }

    /// Advance this process's virtual clock by `dt` seconds of modeled
    /// computation.
    pub fn advance(&self, dt: f64) {
        assert!(dt >= 0.0, "cannot advance virtual time backwards");
        self.ep.borrow_mut().now += dt;
        self.check_crashed();
    }

    /// Panic if this rank's node has an injected crash that has fired by the
    /// current virtual time. Called at every communication checkpoint so the
    /// crash surfaces as a normal process failure.
    fn check_crashed(&self) {
        self.core
            .fault
            .check_crash(self.group.nodes[self.rank], self.ep.borrow().now);
    }

    /// Whether `rank`'s process is still live (has not exited). A rank
    /// whose node crashed, or that already terminated, reports `false`.
    /// Used by fault-aware protocols (e.g. the redistribution abort
    /// pre-flight).
    pub fn rank_alive(&self, rank: usize) -> bool {
        assert!(rank < self.size(), "rank {rank} out of range");
        self.core.is_live(self.group.members[rank])
    }

    /// The universe this communicator lives in (for spawning).
    pub(crate) fn core(&self) -> &Arc<UniverseCore> {
        &self.core
    }

    /// This rank's traffic counters on this communicator.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    pub(crate) fn send_raw(&self, dst: usize, tag: u32, payload: Bytes) {
        let len = payload.len();
        let env = self.envelope(dst, tag, payload, len);
        self.core.deliver(self.group.members[dst], env);
    }

    /// The front half of every send: charge this rank's clock and traffic
    /// counters for `len` bytes to `dst`, and address the payload.
    fn envelope(&self, dst: usize, tag: u32, payload: Bytes, len: usize) -> Envelope {
        assert!(dst < self.size(), "destination rank {dst} out of range");
        self.check_crashed();
        self.stats.msgs.set(self.stats.msgs.get() + 1);
        self.stats.bytes.set(self.stats.bytes.get() + len as u64);
        reshape_telemetry::incr("mpisim.msgs_sent", 1);
        reshape_telemetry::incr("mpisim.bytes_sent", len as u64);
        // Injected link degradation multiplies both serialization and wire
        // latency for this (source node, destination node) pair.
        let slow = self
            .core
            .fault
            .link_factor(self.group.nodes[self.rank], self.group.nodes[dst]);
        let arrival = {
            let mut ep = self.ep.borrow_mut();
            ep.now += self.core.net.send_cost(len) * slow;
            ep.now + self.core.net.latency * slow
        };
        Envelope {
            comm: self.group.id,
            src: self.rank,
            tag,
            arrival,
            len,
            payload,
        }
    }

    /// The payload of the next message from `src` with tag `tag`.
    pub(crate) fn recv_raw(&self, src: usize, tag: u32) -> Bytes {
        self.recv_env(src, tag, false)
            .expect("an unwatched receive completes")
            .payload
    }

    /// The matched receive under every receive, watching the sender if
    /// `watched` (`Endpoint::recv_match`).
    fn recv_env(&self, src: usize, tag: u32, watched: bool) -> Option<Envelope> {
        assert!(src < self.size(), "source rank {src} out of range");
        self.check_crashed();
        let sender = watched.then(|| {
            let pid = self.group.members[src];
            self.core.proc(pid).expect("a member has an entry")
        });
        let env = self.ep.borrow_mut().recv_match(
            self.group.id,
            src,
            tag,
            &self.core.net,
            sender.as_deref(),
        );
        // Receiving advances the clock to the message arrival time, which may
        // cross this node's injected crash deadline.
        self.check_crashed();
        env
    }

    /// Fault-aware variant of [`Comm::send_raw`], charged as `len` bytes:
    /// instead of treating a dead destination as a protocol bug (panic),
    /// the failure is reported to the caller. The send also fails when the
    /// destination node's injected crash fires *before the message would
    /// arrive* — the mid-transfer death case: the virtual transfer is in
    /// flight when the node dies, so the message can never be consumed.
    /// Time and traffic are charged either way, like a real send onto a
    /// dying link, and a failed send drops its payload on the spot.
    pub(crate) fn try_send_raw(
        &self,
        dst: usize,
        tag: u32,
        payload: Bytes,
        len: usize,
    ) -> Result<(), ()> {
        let env = self.envelope(dst, tag, payload, len);
        if self
            .core
            .fault
            .crashed_by(self.group.nodes[dst], env.arrival)
        {
            reshape_telemetry::incr("mpisim.sends_lost_to_crash", 1);
            return Err(());
        }
        self.core
            .try_deliver(self.group.members[dst], env)
            .map_err(|_| ())
    }

    /// Send a slice of POD elements to `dst` with a user tag.
    ///
    /// Sends are buffered (never block on the receiver), like an eager-mode
    /// MPI send. `tag` must be below `2^24`; higher tags are reserved.
    pub fn send<T: Pod>(&self, dst: usize, tag: u32, data: &[T]) {
        assert!(tag < TAG_INTERNAL, "tag {tag} is in the reserved range");
        self.send_raw(dst, tag, to_bytes(data));
    }

    /// Fault-aware send: `Err(())` when the destination is dead, doomed to
    /// die before the message would arrive, or its process has exited. Used by
    /// the transactional redistribution and other survivable protocols.
    /// The error is deliberately unit: the only failure is "peer dead", and
    /// the caller already knows which peer it addressed.
    #[allow(clippy::result_unit_err)]
    pub fn try_send<T: Pod>(&self, dst: usize, tag: u32, data: &[T]) -> Result<(), ()> {
        assert!(tag < TAG_INTERNAL, "tag {tag} is in the reserved range");
        self.try_send_raw(dst, tag, to_bytes(data), std::mem::size_of_val(data))
    }

    /// Blocking receive of a message from `src` with tag `tag`.
    pub fn recv<T: Pod>(&self, src: usize, tag: u32) -> Vec<T> {
        from_bytes(&self.recv_raw(src, tag))
    }

    /// Blocking receive into an existing buffer, reusing its allocation.
    pub fn recv_into<T: Pod>(&self, src: usize, tag: u32, out: &mut Vec<T>) {
        from_bytes_into(&self.recv_raw(src, tag), out);
    }

    /// Blocking receive that lends the payload's bytes to `f` instead of
    /// copying them out, and returns what `f` returns. The bytes need not be
    /// aligned for any element type; copy them out byte-wise. A loan
    /// ([`Comm::lending`]) arrives as the lender's whole slice, and goes
    /// back when `f` returns.
    pub fn recv_with<R>(&self, src: usize, tag: u32, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.recv_raw(src, tag))
    }

    /// Combined exchange: send `data` to `dst` and receive from `src` with
    /// the same tag. Deadlock-free because sends are buffered.
    pub fn sendrecv<T: Pod>(&self, dst: usize, src: usize, tag: u32, data: &[T]) -> Vec<T> {
        self.send(dst, tag, data);
        self.recv(src, tag)
    }

    /// Fault-aware [`Comm::recv_with`]: `Err(())` once `src`'s process has
    /// ended without sending a match.
    ///
    /// The receive sleeps until a message arrives or a process exits. It
    /// gives up only on seeing the sender exited, by when all its sends are
    /// in our mailbox, so "sent before dying" is delivered and "died first"
    /// is `Err`, whatever the wall-clock timing. Waiting costs
    /// no virtual time: failure detection rides on the surrounding
    /// protocol's own traffic. The error is unit: the only failure is "peer
    /// died first".
    #[allow(clippy::result_unit_err)]
    pub fn recv_with_or_failed<R>(
        &self,
        src: usize,
        tag: u32,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, ()> {
        let env = self.recv_env(src, tag, true);
        env.map(|env| f(&env.payload)).ok_or(())
    }

    /// [`Comm::recv_with_or_failed`] into a new vector.
    #[allow(clippy::result_unit_err)]
    pub fn recv_or_failed<T: Pod>(&self, src: usize, tag: u32) -> Result<Vec<T>, ()> {
        self.recv_with_or_failed(src, tag, from_bytes)
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Duplicate the communicator: same group, fresh id, so traffic on the
    /// duplicate can never match traffic on the original.
    pub fn dup(&self) -> Comm {
        let id = if self.rank == 0 {
            let id = self.core.alloc_comm_id();
            for r in 1..self.size() {
                self.send_raw(r, TAG_SPLIT, to_bytes(&[id]));
            }
            id
        } else {
            from_bytes::<u64>(&self.recv_raw(0, TAG_SPLIT))[0]
        };
        Comm {
            group: Arc::new(Group {
                id,
                members: self.group.members.clone(),
                nodes: self.group.nodes.clone(),
            }),
            rank: self.rank,
            ep: Rc::clone(&self.ep),
            core: Arc::clone(&self.core),
            stats: Rc::default(),
        }
    }

    /// Partition the communicator by `color` (ranks passing `None` get no
    /// new communicator), ordering ranks within each part by `(key, rank)`.
    ///
    /// This is `MPI_Comm_split`; ReSHAPE's shrink path uses it to carve the
    /// retained subset out of the current processor set.
    pub fn split(&self, color: Option<u32>, key: i64) -> Option<Comm> {
        const NO_COLOR: u64 = u64::MAX;
        // Encode (color, key) per rank and gather at rank 0.
        let mine = [color.map_or(NO_COLOR, |c| c as u64), key as u64];
        if self.rank == 0 {
            let mut entries: Vec<(u64, i64, usize)> = Vec::with_capacity(self.size());
            entries.push((mine[0], mine[1] as i64, 0));
            for r in 1..self.size() {
                let v: Vec<u64> = from_bytes(&self.recv_raw(r, TAG_SPLIT));
                entries.push((v[0], v[1] as i64, r));
            }
            // Group by color; order by (key, old rank).
            let mut colors: Vec<u64> = entries
                .iter()
                .map(|e| e.0)
                .filter(|&c| c != NO_COLOR)
                .collect();
            colors.sort_unstable();
            colors.dedup();
            // Per old rank: (new comm id, new rank, member list).
            let mut assignments: Vec<Option<(u64, usize, Vec<usize>)>> = vec![None; self.size()];
            for c in colors {
                let mut part: Vec<(i64, usize)> = entries
                    .iter()
                    .filter(|e| e.0 == c)
                    .map(|e| (e.1, e.2))
                    .collect();
                part.sort_unstable();
                let id = self.core.alloc_comm_id();
                let old_ranks: Vec<usize> = part.iter().map(|&(_, r)| r).collect();
                for (new_rank, &(_, old_rank)) in part.iter().enumerate() {
                    assignments[old_rank] = Some((id, new_rank, old_ranks.clone()));
                }
            }
            // Scatter assignments: [id, new_rank, n, old_ranks...] or [NO_COLOR].
            let mut my_assignment = None;
            for (old_rank, a) in assignments.into_iter().enumerate() {
                let msg: Vec<u64> = match &a {
                    Some((id, new_rank, old_ranks)) => {
                        let mut m = vec![*id, *new_rank as u64, old_ranks.len() as u64];
                        m.extend(old_ranks.iter().map(|&r| r as u64));
                        m
                    }
                    None => vec![NO_COLOR],
                };
                if old_rank == 0 {
                    my_assignment = a;
                } else {
                    self.send_raw(old_rank, TAG_SPLIT, to_bytes(&msg));
                }
            }
            my_assignment
                .map(|(id, new_rank, old_ranks)| self.subgroup_comm(id, new_rank, &old_ranks))
        } else {
            self.send_raw(0, TAG_SPLIT, to_bytes(&mine));
            let v: Vec<u64> = from_bytes(&self.recv_raw(0, TAG_SPLIT));
            if v[0] == NO_COLOR {
                return None;
            }
            let id = v[0];
            let new_rank = v[1] as usize;
            let old_ranks: Vec<usize> = v[3..].iter().map(|&r| r as usize).collect();
            Some(self.subgroup_comm(id, new_rank, &old_ranks))
        }
    }

    /// Build a communicator over `survivors` (old ranks, strictly
    /// ascending) *without any communication* — usable when some ranks of
    /// this communicator are dead and a collective `split` would wedge.
    ///
    /// Every survivor derives the same communicator id locally by hashing
    /// the parent id and the survivor set; bit 63 is forced on, and the
    /// universe's `alloc_comm_id` allocates sequentially from 1, so derived
    /// ids can never collide with allocated ones. Two
    /// different survivor sets of the same parent hash to different ids, so
    /// stale traffic from a disagreeing peer cannot match.
    ///
    /// Returns `None` when this rank is not in `survivors`.
    pub fn survivor_comm(&self, survivors: &[usize]) -> Option<Comm> {
        assert!(
            survivors.windows(2).all(|w| w[0] < w[1]),
            "survivor list must be strictly ascending"
        );
        assert!(
            survivors.iter().all(|&r| r < self.size()),
            "survivor rank out of range"
        );
        let new_rank = survivors.iter().position(|&r| r == self.rank)?;
        let mut h: u64 = self.group.id ^ 0x9E37_79B9_7F4A_7C15;
        for &r in survivors {
            h = h
                .wrapping_mul(0x0000_0100_0000_01B3)
                .wrapping_add(r as u64 + 1)
                ^ (h >> 29);
        }
        Some(self.subgroup_comm(h | (1 << 63), new_rank, survivors))
    }

    fn subgroup_comm(&self, id: u64, new_rank: usize, old_ranks: &[usize]) -> Comm {
        let members = old_ranks.iter().map(|&r| self.group.members[r]).collect();
        let nodes = old_ranks.iter().map(|&r| self.group.nodes[r]).collect();
        Comm {
            group: Arc::new(Group { id, members, nodes }),
            rank: new_rank,
            ep: Rc::clone(&self.ep),
            core: Arc::clone(&self.core),
            stats: Rc::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{NetModel, Universe};

    #[test]
    fn p2p_round_trip() {
        let uni = Universe::new(2, 1, NetModel::ideal());
        uni.launch(2, None, "p2p", |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1.0f64, 2.0, 3.0]);
                let back: Vec<f64> = comm.recv(1, 2);
                assert_eq!(back, vec![6.0]);
            } else {
                let data: Vec<f64> = comm.recv(0, 1);
                comm.send(0, 2, &[data.iter().sum::<f64>()]);
            }
        })
        .join_ok();
    }

    #[test]
    fn self_send() {
        let uni = Universe::new(1, 1, NetModel::ideal());
        uni.launch(1, None, "self", |comm| {
            comm.send(0, 3, &[42u64]);
            let got: Vec<u64> = comm.recv(0, 3);
            assert_eq!(got, vec![42]);
        })
        .join_ok();
    }

    #[test]
    fn sendrecv_ring_shift() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "ring", |comm| {
            let p = comm.size();
            let next = (comm.rank() + 1) % p;
            let prev = (comm.rank() + p - 1) % p;
            let got = comm.sendrecv(next, prev, 5, &[comm.rank() as u64]);
            assert_eq!(got, vec![prev as u64]);
        })
        .join_ok();
    }

    #[test]
    fn dup_isolates_traffic() {
        let uni = Universe::new(2, 1, NetModel::ideal());
        uni.launch(2, None, "dup", |comm| {
            let dup = comm.dup();
            assert_ne!(dup.id(), comm.id());
            if comm.rank() == 0 {
                comm.send(1, 1, &[10u64]);
                dup.send(1, 1, &[20u64]);
            } else {
                // Receive on dup first: must get the dup message even though
                // the original-comm message arrived earlier.
                let d: Vec<u64> = dup.recv(0, 1);
                let o: Vec<u64> = comm.recv(0, 1);
                assert_eq!((d[0], o[0]), (20, 10));
            }
        })
        .join_ok();
    }

    #[test]
    fn comm_stats_count_sends_per_communicator() {
        let uni = Universe::new(2, 1, NetModel::ideal());
        uni.launch(2, None, "stats", |comm| {
            let dup = comm.dup();
            // dup's id handshake travelled on `comm`; the new communicator
            // itself starts fresh.
            assert_eq!(dup.stats().msgs_sent(), 0, "fresh comm starts at zero");
            let base_msgs = comm.stats().msgs_sent();
            let base_bytes = comm.stats().bytes_sent();
            if comm.rank() == 0 {
                comm.send(1, 1, &[1u64, 2, 3]);
                dup.send(1, 1, &[4u64]);
                // Clones share counters; new communicators do not.
                let alias = comm.clone();
                assert_eq!(alias.stats().msgs_sent(), base_msgs + 1);
                assert_eq!(comm.stats().bytes_sent(), base_bytes + 3 * 8);
                assert_eq!(dup.stats().msgs_sent(), 1);
                assert_eq!(dup.stats().bytes_sent(), 8);
            } else {
                let _: Vec<u64> = comm.recv(0, 1);
                let _: Vec<u64> = dup.recv(0, 1);
                assert_eq!(comm.stats().msgs_sent(), 0, "receives are not sends");
            }
        })
        .join_ok();
    }

    #[test]
    fn split_into_halves() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "split", |comm| {
            let color = (comm.rank() / 2) as u32;
            let sub = comm.split(Some(color), comm.rank() as i64).unwrap();
            assert_eq!(sub.size(), 2);
            assert_eq!(sub.rank(), comm.rank() % 2);
            // Message within subgroup.
            if sub.rank() == 0 {
                sub.send(1, 9, &[color as u64]);
            } else {
                let got: Vec<u64> = sub.recv(0, 9);
                assert_eq!(got, vec![color as u64]);
            }
        })
        .join_ok();
    }

    #[test]
    fn split_with_none_color() {
        let uni = Universe::new(3, 1, NetModel::ideal());
        uni.launch(3, None, "split-none", |comm| {
            let color = if comm.rank() == 2 { None } else { Some(0) };
            let sub = comm.split(color, 0);
            if comm.rank() == 2 {
                assert!(sub.is_none());
            } else {
                assert_eq!(sub.unwrap().size(), 2);
            }
        })
        .join_ok();
    }

    #[test]
    fn split_key_reorders_ranks() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "split-key", |comm| {
            // Reverse the order via descending keys.
            let key = -(comm.rank() as i64);
            let sub = comm.split(Some(0), key).unwrap();
            assert_eq!(sub.rank(), comm.size() - 1 - comm.rank());
        })
        .join_ok();
    }

    #[test]
    fn virtual_time_causality() {
        let uni = Universe::new(2, 1, NetModel::gigabit_ethernet());
        uni.launch(2, None, "vtime", |comm| {
            if comm.rank() == 0 {
                comm.advance(1.0); // modeled computation
                comm.send(1, 1, &vec![0u8; 1 << 20]);
            } else {
                let _: Vec<u8> = comm.recv(0, 1);
                // Receiver time must reflect sender compute + transfer.
                assert!(comm.vtime() > 1.0 + (1 << 20) as f64 / 125e6 * 0.9);
            }
        })
        .join_ok();
    }

    #[test]
    fn try_send_and_recv_or_failed_work_between_live_ranks() {
        let uni = Universe::new(2, 1, NetModel::ideal());
        uni.launch(2, None, "try-live", |comm| {
            if comm.rank() == 0 {
                comm.try_send(1, 7, &[9u64]).expect("peer is alive");
            } else {
                let got: Vec<u64> = comm.recv_or_failed(0, 7).expect("peer is alive");
                assert_eq!(got, vec![9]);
            }
        })
        .join_ok();
    }

    #[test]
    fn try_send_to_terminated_rank_fails() {
        let uni = Universe::new(2, 1, NetModel::ideal());
        uni.launch(2, None, "try-dead", |comm| {
            if comm.rank() == 1 {
                return; // terminates; its mailbox refuses sends
            }
            comm.recv_or_failed::<u64>(1, 8)
                .expect_err("a receive waits out the sender's exit");
            comm.try_send(1, 7, &[1u64])
                .expect_err("dead destination must fail the send");
        })
        .join_ok();
    }

    #[test]
    fn try_send_to_doomed_rank_fails_before_it_dies() {
        use crate::NodeId;
        // Node 1 is doomed at t=5.0 but its thread blocks and never reaches
        // the crash checkpoint; a message arriving at t>=5.0 can still never
        // be consumed, so the send must fail deterministically.
        let uni = Universe::new(2, 1, NetModel::ideal());
        uni.inject_node_crash(NodeId(1), 5.0);
        uni.launch(2, None, "try-doomed", |comm| {
            if comm.rank() == 1 {
                // Block until rank 0 releases us, then walk into the crash.
                let _: Vec<u64> = comm.recv(0, 8);
                comm.advance(10.0);
                unreachable!("advance crossed the crash deadline");
            }
            comm.advance(6.0); // our clock is past the peer's doom
            comm.try_send(1, 7, &[1u64])
                .expect_err("message would arrive after the destination's crash");
            comm.send(1, 8, &[0u64]); // pre-doom arrival: release the victim
        })
        .join();
    }

    #[test]
    fn recv_or_failed_reports_dead_sender() {
        let uni = Universe::new(2, 1, NetModel::ideal());
        uni.launch(2, None, "rof-dead", |comm| {
            if comm.rank() == 1 {
                return;
            }
            comm.recv_or_failed::<u64>(1, 7)
                .expect_err("sender died without sending");
        })
        .join_ok();
    }

    #[test]
    fn recv_or_failed_delivers_message_sent_before_death() {
        let uni = Universe::new(2, 1, NetModel::ideal());
        uni.launch(2, None, "rof-race", |comm| {
            if comm.rank() == 1 {
                comm.send(0, 7, &[77u64]);
                return; // dies immediately after sending
            }
            // Wait for the actual death, without receiving, so the message
            // is still queued when the receive sees the sender gone.
            while comm.rank_alive(1) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let got: Vec<u64> = comm
                .recv_or_failed(1, 7)
                .expect("message sent before death must be delivered");
            assert_eq!(got, vec![77]);
        })
        .join_ok();
    }

    #[test]
    fn survivor_comm_agrees_without_communication() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "survivors", |comm| {
            if comm.rank() == 2 {
                return; // the casualty
            }
            comm.recv_or_failed::<u64>(2, 8)
                .expect_err("a receive waits out the casualty's exit");
            let sub = comm
                .survivor_comm(&[0, 1, 3])
                .expect("every survivor is in the set");
            assert_eq!(sub.size(), 3);
            assert_ne!(sub.id(), comm.id());
            assert!(sub.id() & (1 << 63) != 0, "derived ids carry the high bit");
            // Ranks compact: old 0,1,3 -> new 0,1,2; messaging works.
            let expect_rank = match comm.rank() {
                0 => 0,
                1 => 1,
                _ => 2,
            };
            assert_eq!(sub.rank(), expect_rank);
            let sum = sub.allreduce(crate::ReduceOp::Sum, &[comm.rank() as u64]);
            assert_eq!(sum, vec![4], "sum of old ranks 0, 1, 3");
        })
        .join_ok();
    }

    #[test]
    fn survivor_comm_excludes_non_survivors() {
        let uni = Universe::new(3, 1, NetModel::ideal());
        uni.launch(3, None, "not-in-set", |comm| {
            let sub = comm.survivor_comm(&[0, 1]);
            assert_eq!(sub.is_some(), comm.rank() < 2);
            comm.barrier();
        })
        .join_ok();
    }

    #[test]
    #[should_panic(expected = "reserved range")]
    fn reserved_tag_rejected() {
        let uni = Universe::new(1, 1, NetModel::ideal());
        let h = uni.launch(1, None, "tag", |comm| {
            comm.send(0, 1 << 25, &[0u8]);
        });
        h.join_ok();
    }
}
