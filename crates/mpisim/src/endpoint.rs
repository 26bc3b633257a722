//! A simulated process's entry in the universe's process table, the
//! messages it exchanges, and its receiving end.
//!
//! Each process has one [`Proc`]: its mailbox, one queue of
//! [`Envelope`]s under a lock with a condition variable; its
//! [`ProcStatus`], beside the queue; and its thread. A send appends to the
//! destination's queue. A receive ([`Endpoint::recv_match`]) scans its own
//! queue in arrival order for the first match, so MPI's non-overtaking
//! order holds per communicator, source and tag, and otherwise sleeps until
//! the next arrival or exit. An exit makes the status final, takes the
//! queue and refuses later sends, in one step under the lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::net::NetModel;
use crate::universe::ProcStatus;

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
#[derive(Debug)]
pub(crate) struct Envelope {
    pub comm: u64,
    pub src: usize,
    pub tag: u32,
    pub arrival: f64,
    pub len: usize,
    pub payload: Bytes,
}

/// How long a blocking receive waits before declaring the run deadlocked.
/// Generous for CI, short enough that a hung test fails with context instead
/// of timing out the whole suite. Override with the
/// `RESHAPE_MPISIM_TIMEOUT_SECS` environment variable (e.g. for tests that
/// deliberately provoke deadlocks).
pub(crate) fn deadlock_timeout() -> Duration {
    static TIMEOUT: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *TIMEOUT.get_or_init(|| {
        std::env::var("RESHAPE_MPISIM_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_secs)
            .unwrap_or(Duration::from_secs(120))
    })
}

/// A process's entry in the process table.
pub(crate) struct Proc {
    mailbox: Mutex<Mailbox>,
    /// Signalled by each arrival and by every process's exit; only the
    /// process itself waits on it.
    wake: Condvar,
    /// Set by the exit, under the mailbox lock: the process's liveness,
    /// readable without that lock. A receiver reads its sender's while
    /// holding its own mailbox lock, so two ranks that receive from each
    /// other never lock in opposite orders.
    exited: AtomicBool,
    /// The process's thread, until a join takes it.
    pub thread: Mutex<Option<JoinHandle<()>>>,
}

/// Messages delivered and not yet received, in arrival order, and the
/// process's status.
struct Mailbox {
    queue: VecDeque<Envelope>,
    status: ProcStatus,
}

impl Proc {
    pub fn new() -> Self {
        Proc {
            mailbox: Mutex::new(Mailbox {
                queue: VecDeque::new(),
                status: ProcStatus::Running,
            }),
            wake: Condvar::new(),
            exited: AtomicBool::new(false),
            thread: Mutex::new(None),
        }
    }

    pub fn is_live(&self) -> bool {
        !self.exited.load(Ordering::SeqCst)
    }

    pub fn status(&self) -> ProcStatus {
        self.mailbox.lock().status.clone()
    }

    /// Queue `env` here, or hand it back if this process has exited.
    pub fn deliver(&self, env: Envelope) -> Result<(), Envelope> {
        let mut mailbox = self.mailbox.lock();
        if !self.is_live() {
            return Err(env);
        }
        mailbox.queue.push_back(env);
        drop(mailbox);
        self.wake.notify_one();
        Ok(())
    }

    /// Make `status` final and refuse every later send, and return what
    /// was queued: dropping it hands back every loan among it. Sets the
    /// liveness flag before the caller wakes anyone, so no receiver can
    /// check it, miss the wake-up and sleep on.
    pub fn exit(&self, status: ProcStatus) -> VecDeque<Envelope> {
        let mut mailbox = self.mailbox.lock();
        mailbox.status = status;
        self.exited.store(true, Ordering::SeqCst);
        std::mem::take(&mut mailbox.queue)
    }

    /// Wake this process if it is blocked in a receive, to look again at
    /// whether its sender is live.
    pub fn wake(&self) {
        let _mailbox = self.mailbox.lock();
        self.wake.notify_one();
    }

    /// Wait for the thread to end, if no other join has taken it. A join
    /// racing this one waits for it, holding the slot.
    pub fn join(&self) {
        let mut thread = self.thread.lock();
        if let Some(handle) = thread.take() {
            let _ = handle.join();
        }
    }

    /// Join the thread if it has ended and no join holds it, so a new
    /// thread can reuse its stack.
    pub fn reap(&self) {
        if let Some(mut thread) = self.thread.try_lock() {
            if let Some(handle) = thread.take_if(|h| h.is_finished()) {
                let _ = handle.join();
            }
        }
    }
}

/// A process's receiving end and its virtual clock.
pub(crate) struct Endpoint {
    pub id: ProcId,
    me: Arc<Proc>,
    /// Virtual clock, in seconds.
    pub now: f64,
}

impl Endpoint {
    pub fn new(id: ProcId, me: Arc<Proc>, start: f64) -> Self {
        Endpoint { id, me, now: start }
    }

    /// Blocking matched receive. Advances the virtual clock to respect
    /// message causality: the receive completes no earlier than the
    /// message's arrival time.
    ///
    /// Given its `sender`'s entry, the receive is watched: it returns
    /// `None` once the sender has exited with no match queued. Every
    /// receive panics once the deadlock timeout passes with no message at
    /// all; an exit's wake-up does not restart that deadline.
    pub fn recv_match(
        &mut self,
        comm: u64,
        src: usize,
        tag: u32,
        net: &NetModel,
        sender: Option<&Proc>,
    ) -> Option<Envelope> {
        let timeout = deadlock_timeout();
        let mut deadline = Instant::now() + timeout;
        let mut mailbox = self.me.mailbox.lock();
        // Messages before `scanned` are known not to match.
        let mut scanned = 0;
        let env = loop {
            let queue = &mut mailbox.queue;
            if let Some(pos) = queue
                .range(scanned..)
                .position(|e| e.comm == comm && e.src == src && e.tag == tag)
            {
                break queue.remove(scanned + pos).expect("position just found");
            }
            if sender.is_some_and(|s| !s.is_live()) {
                return None;
            }
            scanned = queue.len();
            let left = deadline.saturating_duration_since(Instant::now());
            let (guard, wait) = self
                .me
                .wake
                .wait_timeout(mailbox, left)
                .unwrap_or_else(PoisonError::into_inner);
            mailbox = guard;
            if mailbox.queue.len() > scanned {
                deadline = Instant::now() + timeout;
            } else {
                assert!(
                    !wait.timed_out(),
                    "{}: receive on comm {comm} from {src} tag {tag} did not complete \
                     within {timeout:?} — likely deadlock or mismatched communication pattern",
                    self.id
                );
            }
        };
        drop(mailbox);
        self.now = self.now.max(env.arrival) + net.recv_cost(env.len);
        Some(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(comm: u64, src: usize, tag: u32, arrival: f64) -> Envelope {
        Envelope {
            comm,
            src,
            tag,
            arrival,
            len: 0,
            payload: Bytes::new(),
        }
    }

    /// An endpoint starting at `start`, and its entry to deliver to.
    fn endpoint(start: f64) -> (Arc<Proc>, Endpoint) {
        let me = Arc::new(Proc::new());
        (Arc::clone(&me), Endpoint::new(ProcId(0), me, start))
    }

    #[test]
    fn register_and_deliver() {
        let (me, mut ep) = endpoint(0.0);
        let hi = Envelope {
            len: 2,
            payload: Bytes::from_static(b"hi"),
            ..env(1, 0, 9, 0.0)
        };
        me.deliver(hi).unwrap();
        let got = ep.recv_match(1, 0, 9, &NetModel::ideal(), None).unwrap();
        assert_eq!(got.tag, 9);
        assert_eq!(&got.payload[..], b"hi");
    }

    #[test]
    fn matching_skips_unrelated_messages() {
        let (me, mut ep) = endpoint(0.0);
        me.deliver(env(1, 0, 5, 0.0)).unwrap();
        me.deliver(env(1, 0, 7, 0.0)).unwrap();
        let got = ep.recv_match(1, 0, 7, &NetModel::ideal(), None).unwrap();
        assert_eq!(got.tag, 7);
        // The skipped message is still receivable.
        let got = ep.recv_match(1, 0, 5, &NetModel::ideal(), None).unwrap();
        assert_eq!(got.tag, 5);
    }

    #[test]
    fn fifo_order_preserved_for_same_match() {
        let (me, mut ep) = endpoint(0.0);
        me.deliver(Envelope {
            comm: 1,
            src: 0,
            tag: 5,
            arrival: 1.0,
            len: 5,
            payload: Bytes::from_static(b"first"),
        })
        .unwrap();
        me.deliver(Envelope {
            comm: 1,
            src: 0,
            tag: 5,
            arrival: 2.0,
            len: 6,
            payload: Bytes::from_static(b"second"),
        })
        .unwrap();
        let a = ep.recv_match(1, 0, 5, &NetModel::ideal(), None).unwrap();
        let b = ep.recv_match(1, 0, 5, &NetModel::ideal(), None).unwrap();
        assert_eq!(&a.payload[..], b"first");
        assert_eq!(&b.payload[..], b"second");
    }

    #[test]
    fn clock_respects_arrival() {
        let (me, mut ep) = endpoint(1.0);
        me.deliver(env(1, 0, 0, 5.5)).unwrap();
        ep.recv_match(1, 0, 0, &NetModel::ideal(), None).unwrap();
        assert_eq!(ep.now, 5.5);
    }

    #[test]
    fn clock_keeps_later_local_time() {
        let (me, mut ep) = endpoint(10.0);
        me.deliver(env(1, 0, 0, 5.5)).unwrap();
        ep.recv_match(1, 0, 0, &NetModel::ideal(), None).unwrap();
        assert_eq!(ep.now, 10.0);
    }
}
