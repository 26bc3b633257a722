//! Per-process receive endpoint: mailbox, unexpected-message queue and the
//! virtual clock.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crossbeam_channel::Receiver;

use crate::net::NetModel;
use crate::router::{Envelope, ProcId};

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

/// How long a receive that watches its sender waits between two looks at
/// whether the sender is gone.
const LIVENESS_SLICE: Duration = Duration::from_millis(1);

pub(crate) struct Endpoint {
    pub id: ProcId,
    rx: Receiver<Envelope>,
    /// Messages received from the channel that did not match the posted
    /// receive. Kept in arrival order so MPI's non-overtaking guarantee
    /// (per communicator/source/tag) holds.
    unexpected: VecDeque<Envelope>,
    /// Virtual clock, in seconds.
    pub now: f64,
}

impl Endpoint {
    pub fn new(id: ProcId, rx: Receiver<Envelope>, start: f64) -> Self {
        Endpoint {
            id,
            rx,
            unexpected: VecDeque::new(),
            now: start,
        }
    }

    fn matches(env: &Envelope, comm: u64, src: usize, tag: u32) -> bool {
        env.comm == comm && env.src == src && env.tag == tag
    }

    /// Blocking matched receive. Advances the virtual clock to respect
    /// message causality: the receive completes no earlier than the
    /// message's arrival time.
    ///
    /// Given `gone`, the receive asks it before each wait of
    /// [`LIVENESS_SLICE`] whether the sender is gone. A gone sender's
    /// messages are all in the channel already, so from then on what is
    /// left there decides: its match, or `None`. Panics once the deadlock
    /// timeout passes with no message at all.
    pub fn recv_match(
        &mut self,
        comm: u64,
        src: usize,
        tag: u32,
        net: &NetModel,
        gone: Option<&dyn Fn() -> bool>,
    ) -> Option<Envelope> {
        let env = if let Some(pos) = self
            .unexpected
            .iter()
            .position(|e| Self::matches(e, comm, src, tag))
        {
            self.unexpected.remove(pos).expect("position just found")
        } else {
            let timeout = deadlock_timeout();
            let slice = gone.map_or(timeout, |_| LIVENESS_SLICE);
            let mut deadline = Instant::now() + timeout;
            loop {
                let last = gone.is_some_and(|gone| gone());
                let wait = if last { Duration::ZERO } else { slice };
                match self.rx.recv_timeout(wait) {
                    Ok(env) if Self::matches(&env, comm, src, tag) => break env,
                    Ok(env) => {
                        self.unexpected.push_back(env);
                        deadline = Instant::now() + timeout;
                    }
                    Err(_) if last => return None,
                    Err(_) => assert!(
                        Instant::now() < deadline,
                        "{}: receive on comm {comm} from {src} tag {tag} did not complete \
                         within {timeout:?} — likely deadlock or mismatched communication pattern",
                        self.id
                    ),
                }
            }
        };
        self.now = self.now.max(env.arrival) + net.recv_cost(env.len);
        Some(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use crossbeam_channel::unbounded;

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

    #[test]
    fn matching_skips_unrelated_messages() {
        let (tx, rx) = unbounded();
        let mut ep = Endpoint::new(ProcId(0), rx, 0.0);
        tx.send(env(1, 0, 5, 0.0)).unwrap();
        tx.send(env(1, 0, 7, 0.0)).unwrap();
        let got = ep.recv_match(1, 0, 7, &NetModel::ideal(), None).unwrap();
        assert_eq!(got.tag, 7);
        // The skipped message is still receivable.
        let got = ep.recv_match(1, 0, 5, &NetModel::ideal(), None).unwrap();
        assert_eq!(got.tag, 5);
    }

    #[test]
    fn fifo_order_preserved_for_same_match() {
        let (tx, rx) = unbounded();
        let mut ep = Endpoint::new(ProcId(0), rx, 0.0);
        tx.send(Envelope {
            comm: 1,
            src: 0,
            tag: 5,
            arrival: 1.0,
            len: 5,
            payload: Bytes::from_static(b"first"),
        })
        .unwrap();
        tx.send(Envelope {
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
        let (tx, rx) = unbounded();
        let mut ep = Endpoint::new(ProcId(0), rx, 1.0);
        tx.send(env(1, 0, 0, 5.5)).unwrap();
        ep.recv_match(1, 0, 0, &NetModel::ideal(), None).unwrap();
        assert_eq!(ep.now, 5.5);
    }

    #[test]
    fn clock_keeps_later_local_time() {
        let (tx, rx) = unbounded();
        let mut ep = Endpoint::new(ProcId(0), rx, 10.0);
        tx.send(env(1, 0, 0, 5.5)).unwrap();
        ep.recv_match(1, 0, 0, &NetModel::ideal(), None).unwrap();
        assert_eq!(ep.now, 10.0);
    }
}
