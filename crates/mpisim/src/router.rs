//! Message routing between simulated processes.
//!
//! The router owns one unbounded channel per live process and delivers
//! [`Envelope`]s by global process id. Matching (by communicator, source and
//! tag) happens on the receiving side, in [`crate::endpoint::Endpoint`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use crossbeam_channel::{Receiver, Sender};
use parking_lot::Mutex;

/// Globally unique identifier of a simulated process (an OS thread).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u64);

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A message in flight. `arrival` is the earliest virtual time at which the
/// receiver may observe the message (sender clock after serialization, plus
/// wire latency). `len` is the bytes the message is charged as: the
/// payload's length, except for a loan, whose payload is the lender's whole
/// slice.
#[derive(Clone, Debug)]
pub(crate) struct Envelope {
    pub comm: u64,
    pub src: usize,
    pub tag: u32,
    pub arrival: f64,
    pub len: usize,
    pub payload: Bytes,
}

/// Central registry mapping live processes to their mailboxes, plus the
/// allocators for process and communicator ids.
pub(crate) struct Router {
    mailboxes: Mutex<HashMap<u64, Sender<Envelope>>>,
    next_proc: AtomicU64,
    next_comm: AtomicU64,
}

impl Router {
    pub fn new() -> Self {
        Router {
            mailboxes: Mutex::new(HashMap::new()),
            next_proc: AtomicU64::new(0),
            next_comm: AtomicU64::new(1),
        }
    }

    /// Create a mailbox for a new process and return its id plus the
    /// receiving end of the mailbox.
    pub fn register(&self) -> (ProcId, Receiver<Envelope>) {
        let id = ProcId(self.next_proc.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = crossbeam_channel::unbounded();
        self.mailboxes.lock().insert(id.0, tx);
        (id, rx)
    }

    /// Remove a terminated process's mailbox. Subsequent sends to it panic,
    /// surfacing protocol bugs (e.g. messaging a rank that already shrank
    /// away) immediately instead of hanging.
    pub fn deregister(&self, id: ProcId) {
        self.mailboxes.lock().remove(&id.0);
    }

    /// Allocate a fresh communicator id. Agreement among members is arranged
    /// by the collective that triggers allocation (split/dup/spawn/merge).
    pub fn alloc_comm_id(&self) -> u64 {
        self.next_comm.fetch_add(1, Ordering::Relaxed)
    }

    pub fn deliver(&self, dst: ProcId, env: Envelope) {
        if let Err(_env) = self.try_deliver(dst, env) {
            panic!("send to unknown or terminated process {dst}");
        }
    }

    /// Like [`Router::deliver`] but hands the envelope back instead of
    /// panicking when the destination has no mailbox, so fault-aware callers
    /// (e.g. redistribution abort paths) can decline gracefully.
    pub fn try_deliver(&self, dst: ProcId, env: Envelope) -> Result<(), Envelope> {
        let tx = {
            let boxes = self.mailboxes.lock();
            boxes.get(&dst.0).cloned()
        };
        match tx {
            // The receiver may have terminated between the lookup and the
            // send; a closed channel is equally a dead destination.
            Some(tx) => tx.send(env).map_err(|e| e.0),
            None => Err(env),
        }
    }

    pub fn is_live(&self, id: ProcId) -> bool {
        self.mailboxes.lock().contains_key(&id.0)
    }

    #[cfg(test)]
    pub fn live_count(&self) -> usize {
        self.mailboxes.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_deliver() {
        let r = Router::new();
        let (id, rx) = r.register();
        r.deliver(
            id,
            Envelope {
                comm: 1,
                src: 0,
                tag: 9,
                arrival: 0.0,
                len: 2,
                payload: Bytes::from_static(b"hi"),
            },
        );
        let env = rx.recv().unwrap();
        assert_eq!(env.tag, 9);
        assert_eq!(&env.payload[..], b"hi");
    }

    #[test]
    fn ids_are_unique() {
        let r = Router::new();
        let a = r.register().0;
        let b = r.register().0;
        assert_ne!(a, b);
        assert_eq!(r.live_count(), 2);
    }

    #[test]
    #[should_panic(expected = "terminated process")]
    fn deliver_to_dead_panics() {
        let r = Router::new();
        let (id, rx) = r.register();
        drop(rx);
        r.deregister(id);
        r.deliver(
            id,
            Envelope {
                comm: 1,
                src: 0,
                tag: 0,
                arrival: 0.0,
                len: 0,
                payload: Bytes::new(),
            },
        );
    }

    #[test]
    fn comm_ids_monotonic() {
        let r = Router::new();
        let a = r.alloc_comm_id();
        let b = r.alloc_comm_id();
        assert!(b > a);
    }
}
