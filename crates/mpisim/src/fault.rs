//! Seeded fault injection for the simulated cluster.
//!
//! Three fault classes, mirroring what a real cluster throws at ReSHAPE's
//! System Monitor:
//!
//! * **Node crashes** — a node dies at a virtual time; any process on it
//!   panics at its next communication or clock advance, which the
//!   [`crate::Universe`] hands its exit hook as [`crate::ProcStatus::Failed`]
//!   for the monitor to reclaim.
//! * **Spawn caps** — the next `spawn` call is granted fewer (possibly
//!   zero) processes than requested, modeling `MPI_Comm_spawn_multiple`
//!   returning `MPI_ERR_SPAWN` for part of the request.
//! * **Link slowdowns** — traffic between two nodes pays a multiplicative
//!   time factor (degraded switch port, congested uplink).
//!
//! Messages themselves are never lost, duplicated or reordered: like MPI's,
//! the simulator's intra- and intercommunicator traffic is reliable. The
//! only modelled lossy wire is the federation's lease bus, which runs the
//! sequenced protocol of `reshape_core::ctrl` over a seeded chaos stream.
//!
//! All state lives in the universe and is armed lazily: the hot messaging
//! paths pay a single relaxed atomic load until the first injection.
//! [`FaultState::clear`] disarms everything, so long-lived universes (e.g.
//! a testkit scenario runner) can reuse a cluster between experiments.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use crate::comm::NodeId;

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

    /// Disarm every fault class. Lets a long-lived universe be reused
    /// across experiments.
    pub fn clear(&self) {
        self.node_crashes.lock().clear();
        self.spawn_caps.lock().clear();
        self.link_slow.lock().clear();
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

    #[test]
    fn clear_disarms_every_fault() {
        let f = FaultState::default();
        f.inject_node_crash(NodeId(1), 1.0);
        f.inject_spawn_cap(0);
        f.inject_link_slowdown(NodeId(0), NodeId(1), 4.0);
        f.clear();
        f.check_crash(NodeId(1), 1e12);
        assert!(!f.crashed_by(NodeId(1), 1e12));
        assert_eq!(f.next_spawn_cap(3), 3);
        assert_eq!(f.link_factor(NodeId(0), NodeId(1)), 1.0);
        // Faults injected after a clear arm again.
        f.inject_spawn_cap(1);
        assert_eq!(f.next_spawn_cap(3), 1);
    }
}
