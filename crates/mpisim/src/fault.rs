//! Seeded fault injection for the simulated cluster.
//!
//! Three fault classes, mirroring what a real cluster throws at ReSHAPE's
//! System Monitor:
//!
//! * **Node crashes** — a node dies at a virtual time; any process on it
//!   panics at its next communication or clock advance, which the
//!   [`crate::Universe`] surfaces as a [`crate::ProcStatus::Failed`] event
//!   for monitors to reclaim.
//! * **Spawn caps** — the next `spawn` call is granted fewer (possibly
//!   zero) processes than requested, modeling `MPI_Comm_spawn_multiple`
//!   returning `MPI_ERR_SPAWN` for part of the request.
//! * **Link slowdowns** — traffic between two nodes pays a multiplicative
//!   time factor (degraded switch port, congested uplink).
//! * **Message faults** — control-plane messages (tags in
//!   `[TAG_CTRL_BASE, 2^24)`) can be lost, duplicated or reordered with
//!   seeded probabilities, modeling an unreliable scheduler↔application
//!   control link. Data-plane and internal-collective traffic is exempt:
//!   those paths have no retransmit protocol and would deadlock.
//!
//! All state lives in the universe and is armed lazily: the hot messaging
//! paths pay a single relaxed atomic load until the first injection.
//! [`FaultState::clear`] disarms everything, so long-lived universes (e.g.
//! a testkit scenario runner) can reuse a cluster between experiments.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use crate::comm::{NodeId, TAG_CTRL_BASE, TAG_INTERNAL};
use crate::rng::SplitMix64;
use crate::router::{Envelope, ProcId, Router};

/// Seeded probabilities for control-plane message faults. One SplitMix64
/// stream drives all three draws so a given seed yields one deterministic
/// fault schedule.
struct MsgFaults {
    loss: f64,
    dup: f64,
    reorder: f64,
    rng: SplitMix64,
}

impl MsgFaults {
    fn new() -> Self {
        MsgFaults {
            loss: 0.0,
            dup: 0.0,
            reorder: 0.0,
            rng: SplitMix64::new(0),
        }
    }
}

#[derive(Default)]
pub(crate) struct FaultState {
    /// Fast path: false until the first injection of any kind.
    armed: AtomicBool,
    /// Node → virtual time at which it crashes.
    node_crashes: Mutex<HashMap<u32, f64>>,
    /// Per-`spawn`-call grant caps, consumed front to back.
    spawn_caps: Mutex<VecDeque<usize>>,
    /// Directed (src node, dst node) → time multiplier (≥ 1.0 slows down).
    link_slow: Mutex<HashMap<(u32, u32), f64>>,
    /// Control-plane message fault probabilities, when injected.
    msg_faults: Mutex<Option<MsgFaults>>,
    /// Per-destination frame held back by the reorder fault; it is delivered
    /// after the next control message to the same destination.
    reorder_stash: Mutex<HashMap<u64, Envelope>>,
}

impl FaultState {
    pub fn inject_node_crash(&self, node: NodeId, at_vtime: f64) {
        self.node_crashes.lock().insert(node.0, at_vtime);
        self.armed.store(true, Ordering::Release);
    }

    pub fn inject_spawn_cap(&self, cap: usize) {
        self.spawn_caps.lock().push_back(cap);
        self.armed.store(true, Ordering::Release);
    }

    pub fn inject_link_slowdown(&self, src: NodeId, dst: NodeId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "slowdown factor must be positive"
        );
        self.link_slow.lock().insert((src.0, dst.0), factor);
        self.armed.store(true, Ordering::Release);
    }

    fn with_msg_faults(&self, p: f64, seed: u64, set: impl FnOnce(&mut MsgFaults, f64)) {
        assert!(
            (0.0..1.0).contains(&p),
            "fault probability must be in [0, 1)"
        );
        let mut guard = self.msg_faults.lock();
        let mf = guard.get_or_insert_with(MsgFaults::new);
        set(mf, p);
        // XOR-mix so stacking several fault classes still yields one
        // deterministic stream per (seed set).
        mf.rng.state ^= seed;
        drop(guard);
        self.armed.store(true, Ordering::Release);
    }

    /// Control messages are dropped with probability `p`.
    pub fn inject_msg_loss(&self, p: f64, seed: u64) {
        self.with_msg_faults(p, seed, |mf, p| mf.loss = p);
    }

    /// Control messages are delivered twice with probability `p`.
    pub fn inject_msg_dup(&self, p: f64, seed: u64) {
        self.with_msg_faults(p, seed, |mf, p| mf.dup = p);
    }

    /// Control messages are held back and delivered after the next control
    /// message to the same destination with probability `p`.
    pub fn inject_msg_reorder(&self, p: f64, seed: u64) {
        self.with_msg_faults(p, seed, |mf, p| mf.reorder = p);
    }

    /// Disarm every fault class and flush any reorder-held frames
    /// (best-effort: destinations that have since terminated are skipped).
    /// Lets a long-lived universe be reused across experiments.
    pub fn clear(&self, router: &Router) {
        self.node_crashes.lock().clear();
        self.spawn_caps.lock().clear();
        self.link_slow.lock().clear();
        *self.msg_faults.lock() = None;
        let held: Vec<(u64, Envelope)> = self.reorder_stash.lock().drain().collect();
        for (dst, env) in held {
            let _ = router.try_deliver(ProcId(dst), env);
        }
        self.armed.store(false, Ordering::Release);
    }

    fn armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Panic (killing the calling simulated process) if `node` has crashed
    /// by virtual time `now`. Called from the communication checkpoints; the
    /// panic unwinds into the universe's status tracking like any other
    /// process failure.
    pub fn check_crash(&self, node: NodeId, now: f64) {
        if !self.armed() {
            return;
        }
        if let Some(&at) = self.node_crashes.lock().get(&node.0) {
            if now >= at {
                panic!("fault: node {} crashed at t={at}", node.0);
            }
        }
    }

    /// Whether `node` has an injected crash firing at or before virtual time
    /// `now` — *without* killing the caller. Survivable protocols use this to
    /// classify a peer as doomed: even if its thread has not yet reached the
    /// checkpoint that kills it, no message it sends can arrive at or after
    /// `now`, and any message addressed to it arriving at or after its crash
    /// time can never be consumed.
    pub fn crashed_by(&self, node: NodeId, now: f64) -> bool {
        if !self.armed() {
            return false;
        }
        self.node_crashes
            .lock()
            .get(&node.0)
            .is_some_and(|&at| now >= at)
    }

    /// Grant for a spawn of `requested` processes: the front cap of the
    /// injection queue, if any, clamped to the request.
    pub fn next_spawn_cap(&self, requested: usize) -> usize {
        if !self.armed() {
            return requested;
        }
        match self.spawn_caps.lock().pop_front() {
            Some(cap) => cap.min(requested),
            None => requested,
        }
    }

    /// Time multiplier for a message from `src` to `dst` (1.0 = healthy).
    pub fn link_factor(&self, src: NodeId, dst: NodeId) -> f64 {
        if !self.armed() {
            return 1.0;
        }
        self.link_slow
            .lock()
            .get(&(src.0, dst.0))
            .copied()
            .unwrap_or(1.0)
    }

    /// Deliver `env` through the message-fault layer. Non-control tags and
    /// unarmed state pass straight through to [`Router::deliver`]. With
    /// message faults armed, a control frame may be lost, duplicated, or
    /// held back behind the next frame to the same destination — and sends
    /// to destinations that have terminated are silently dropped, because a
    /// retransmit protocol legitimately races process exit.
    pub(crate) fn deliver_faulty(&self, router: &Router, dst: ProcId, env: Envelope) {
        let is_ctrl = (TAG_CTRL_BASE..TAG_INTERNAL).contains(&env.tag);
        if !is_ctrl {
            router.deliver(dst, env);
            return;
        }
        let fate = if self.armed() {
            let mut guard = self.msg_faults.lock();
            match guard.as_mut() {
                None => None,
                Some(mf) => {
                    let (loss, dup, reorder) = (mf.loss, mf.dup, mf.reorder);
                    Some((
                        mf.rng.chance(loss),
                        mf.rng.chance(dup),
                        mf.rng.chance(reorder),
                    ))
                }
            }
        } else {
            None
        };
        let Some((lost, duped, reordered)) = fate else {
            // Control-plane frames carry at-least-once protocols whose
            // retransmissions legitimately race process exit, so even on a
            // healthy wire a send to a terminated destination is dropped
            // rather than treated as a protocol bug.
            let _ = router.try_deliver(dst, env);
            return;
        };
        if lost {
            reshape_telemetry::incr("mpisim.ctrl_msgs_lost", 1);
            return;
        }
        let mut stash = self.reorder_stash.lock();
        if reordered && !stash.contains_key(&dst.0) {
            reshape_telemetry::incr("mpisim.ctrl_msgs_reordered", 1);
            stash.insert(dst.0, env);
            return;
        }
        let held = stash.remove(&dst.0);
        drop(stash);
        if duped {
            reshape_telemetry::incr("mpisim.ctrl_msgs_duped", 1);
            let _ = router.try_deliver(dst, env.clone());
        }
        let _ = router.try_deliver(dst, env);
        // A frame held back by an earlier reorder draw goes out after this
        // one, completing the swap.
        if let Some(h) = held {
            let _ = router.try_deliver(dst, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_state_is_passthrough() {
        let f = FaultState::default();
        f.check_crash(NodeId(0), 1e12);
        assert_eq!(f.next_spawn_cap(5), 5);
        assert_eq!(f.link_factor(NodeId(0), NodeId(1)), 1.0);
    }

    #[test]
    fn crash_fires_only_at_deadline() {
        let f = FaultState::default();
        f.inject_node_crash(NodeId(2), 10.0);
        f.check_crash(NodeId(2), 9.99); // before the deadline: fine
        f.check_crash(NodeId(1), 20.0); // other nodes: fine
        let err = std::panic::catch_unwind(|| f.check_crash(NodeId(2), 10.0));
        assert!(err.is_err());
    }

    #[test]
    fn spawn_caps_consume_in_order() {
        let f = FaultState::default();
        f.inject_spawn_cap(1);
        f.inject_spawn_cap(0);
        assert_eq!(f.next_spawn_cap(4), 1);
        assert_eq!(f.next_spawn_cap(4), 0);
        assert_eq!(f.next_spawn_cap(4), 4, "queue exhausted: full grant");
    }

    #[test]
    fn link_slowdown_is_directed() {
        let f = FaultState::default();
        f.inject_link_slowdown(NodeId(0), NodeId(1), 4.0);
        assert_eq!(f.link_factor(NodeId(0), NodeId(1)), 4.0);
        assert_eq!(f.link_factor(NodeId(1), NodeId(0)), 1.0);
    }

    fn drain(rx: &crossbeam_channel::Receiver<Envelope>) -> Vec<Envelope> {
        let mut out = Vec::new();
        while let Ok(e) = rx.try_recv() {
            out.push(e);
        }
        out
    }

    fn ctrl_env(tag: u32, marker: u8) -> Envelope {
        Envelope {
            comm: 1,
            src: 0,
            tag,
            arrival: 0.0,
            len: 1,
            payload: bytes::Bytes::copy_from_slice(&[marker]),
        }
    }

    #[test]
    fn msg_loss_drops_only_control_tags() {
        let f = FaultState::default();
        f.inject_msg_loss(0.999, 42);
        let r = Router::new();
        let (id, rx) = r.register();
        // Data-plane tag: exempt from message faults, always delivered.
        for i in 0..20 {
            f.deliver_faulty(&r, id, ctrl_env(7, i));
        }
        assert_eq!(drain(&rx).len(), 20);
        // Control tag: virtually everything is dropped.
        for i in 0..20 {
            f.deliver_faulty(&r, id, ctrl_env(TAG_CTRL_BASE + 1, i));
        }
        assert!(drain(&rx).len() < 20);
    }

    #[test]
    fn msg_dup_delivers_twice() {
        let f = FaultState::default();
        f.inject_msg_dup(0.999, 7);
        let r = Router::new();
        let (id, rx) = r.register();
        f.deliver_faulty(&r, id, ctrl_env(TAG_CTRL_BASE, 9));
        let got = drain(&rx);
        assert_eq!(got.len(), 2, "near-certain dup probability delivers twice");
        assert!(got.iter().all(|e| e.payload[0] == 9));
    }

    #[test]
    fn msg_reorder_swaps_adjacent_frames() {
        let f = FaultState::default();
        f.inject_msg_reorder(0.999, 3);
        let r = Router::new();
        let (id, rx) = r.register();
        f.deliver_faulty(&r, id, ctrl_env(TAG_CTRL_BASE, 1));
        assert_eq!(drain(&rx).len(), 0, "first frame is held back");
        f.deliver_faulty(&r, id, ctrl_env(TAG_CTRL_BASE, 2));
        let got: Vec<u8> = drain(&rx).iter().map(|e| e.payload[0]).collect();
        assert_eq!(got, vec![2, 1], "held frame follows the next one");
    }

    #[test]
    fn faulty_delivery_to_dead_destination_is_silent() {
        let f = FaultState::default();
        f.inject_msg_dup(0.0, 1); // arm msg faults without altering fate
        let r = Router::new();
        let (id, rx) = r.register();
        drop(rx);
        r.deregister(id);
        // Would panic via Router::deliver; the fault layer drops instead.
        f.deliver_faulty(&r, id, ctrl_env(TAG_CTRL_BASE, 0));
    }

    #[test]
    fn clear_disarms_and_flushes_stash() {
        let f = FaultState::default();
        f.inject_msg_reorder(0.999, 5);
        f.inject_spawn_cap(0);
        f.inject_node_crash(NodeId(1), 1.0);
        let r = Router::new();
        let (id, rx) = r.register();
        f.deliver_faulty(&r, id, ctrl_env(TAG_CTRL_BASE, 4));
        assert_eq!(drain(&rx).len(), 0, "frame held by reorder");
        f.clear(&r);
        let got: Vec<u8> = drain(&rx).iter().map(|e| e.payload[0]).collect();
        assert_eq!(got, vec![4], "clear flushes the held frame");
        // Everything is disarmed again.
        assert_eq!(f.next_spawn_cap(3), 3);
        f.check_crash(NodeId(1), 1e12);
        f.deliver_faulty(&r, id, ctrl_env(TAG_CTRL_BASE, 8));
        assert_eq!(drain(&rx).len(), 1);
    }
}
