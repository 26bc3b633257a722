//! The sequenced ack/retransmit protocol, for a control plane that can
//! lose, duplicate or reorder messages.
//!
//! In the paper the resize library reaches the scheduler over sockets. In
//! this reproduction the lossy wire is the federation's shard-to-shard
//! lease bus, which drives the pure state machines of [`seq`] in virtual
//! time:
//!
//! * every message gets a monotonically increasing sequence number;
//! * the sender keeps unacknowledged messages and retransmits the whole
//!   window every time its retransmit deadline passes, until acknowledged
//!   — control messages must eventually arrive;
//! * the receiver delivers strictly in sequence order, buffering
//!   out-of-order arrivals and discarding duplicates, and acknowledges
//!   every frame it sees (acks are cumulative: acking `n` covers all
//!   `seq <= n`);
//! * an optional [`ChaosConfig`] makes the simulated wire lossy — a seeded
//!   deterministic fault stream drops, duplicates and reorders frames so
//!   tests can prove the protocol masks all three.
//!
//! The threaded runtime needs none of this: its resize library calls the
//! scheduler core directly, under its lock, on the application's own
//! thread, so there is no wire between them.

/// The seeded stream behind every chaos wire, such as the federation's
/// lease bus.
pub use reshape_mpisim::SplitMix64;

/// Probabilities for the simulated unreliable wire. All in `[0, 1)`;
/// `seed` makes the fault stream deterministic.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Probability a frame is silently dropped.
    pub loss: f64,
    /// Probability a frame is delivered twice.
    pub dup: f64,
    /// Probability a frame is held back and delivered after the next one.
    pub reorder: f64,
    pub seed: u64,
}

pub mod seq {
    //! The sequenced ack/retransmit protocol as thread-free state machines.
    //!
    //! [`SeqSender`] and [`SeqReceiver`] own no clock, wire or event loop:
    //! the caller asks the sender what is due at a time on its own clock,
    //! carries frames across whatever (chaotic) wire it models, and feeds
    //! them to the receiver, which hands back in-order payloads plus a
    //! cumulative ack. The federation's shard-to-shard lease bus drives
    //! them in virtual time, so grant/ack/release survive loss,
    //! duplication and reordering deterministically.

    use std::collections::BTreeMap;

    use crate::backoff::Backoff;

    /// One wire frame: a sequence number and the payload.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Frame<T> {
        pub seq: u64,
        pub payload: T,
    }

    /// Sending half: owns the unacked window and the retransmit deadline.
    /// Retransmit pacing follows a [`Backoff`] schedule — [`SeqSender::new`]
    /// uses the classic fixed RTO ([`Backoff::fixed`]), while
    /// [`SeqSender::with_backoff`] spaces consecutive retransmits of the
    /// same window exponentially (attempts reset whenever an ack makes
    /// progress).
    #[derive(Clone, Debug)]
    pub struct SeqSender<T> {
        next_seq: u64,
        unacked: BTreeMap<u64, T>,
        backoff: Backoff,
        /// Jitter key for the backoff schedule (e.g. a link id).
        key: u64,
        /// Retransmit attempt for the current window, 1-based; advances on
        /// every timer fire, resets to 1 when an ack makes progress.
        attempt: usize,
        deadline: Option<f64>,
    }

    impl<T: Clone> SeqSender<T> {
        /// `rto`: seconds before an unacked frame is retransmitted
        /// (a fixed-interval schedule; see [`SeqSender::with_backoff`] for
        /// exponential pacing).
        pub fn new(rto: f64) -> Self {
            Self::with_backoff(Backoff::fixed(rto), 0)
        }

        /// A sender whose retransmit timer follows `backoff`, jittered by
        /// `key` (so parallel links with the same schedule de-synchronize
        /// deterministically).
        pub fn with_backoff(backoff: Backoff, key: u64) -> Self {
            assert!(
                backoff.base > 0.0 && backoff.base.is_finite(),
                "backoff base must be positive"
            );
            SeqSender {
                next_seq: 0,
                unacked: BTreeMap::new(),
                backoff,
                key,
                attempt: 1,
                deadline: None,
            }
        }

        /// Assign the next sequence number, remember the payload until it
        /// is acked, and return the frame to put on the wire now.
        pub fn send(&mut self, now: f64, payload: T) -> Frame<T> {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.unacked.insert(seq, payload.clone());
            if self.deadline.is_none() {
                self.attempt = 1;
                self.deadline = Some(now + self.backoff.delay(self.key, 1));
            }
            Frame { seq, payload }
        }

        /// A cumulative ack arrived: everything `<= cum` is delivered.
        pub fn on_ack(&mut self, cum: u64) {
            let before = self.unacked.len();
            self.unacked.retain(|&s, _| s > cum);
            if self.unacked.is_empty() {
                self.deadline = None;
            }
            if self.unacked.len() < before {
                // Progress: the wire works again, restart the schedule.
                self.attempt = 1;
            }
        }

        /// Frames to retransmit at virtual time `now` (the whole unacked
        /// window once the deadline passes; empty otherwise). Advances the
        /// deadline along the backoff schedule, so the caller just re-polls
        /// at [`SeqSender::next_deadline`].
        pub fn due(&mut self, now: f64) -> Vec<Frame<T>> {
            match self.deadline {
                Some(d) if now >= d && !self.unacked.is_empty() => {
                    self.attempt += 1;
                    self.deadline = Some(now + self.backoff.delay(self.key, self.attempt));
                    self.unacked
                        .iter()
                        .map(|(&seq, payload)| Frame {
                            seq,
                            payload: payload.clone(),
                        })
                        .collect()
                }
                _ => Vec::new(),
            }
        }

        /// When the caller should next call [`SeqSender::due`]; `None`
        /// while nothing is unacked.
        pub fn next_deadline(&self) -> Option<f64> {
            self.deadline
        }

        /// Unacked frames in flight.
        pub fn pending(&self) -> usize {
            self.unacked.len()
        }
    }

    /// Receiving half: in-order delivery with dedup, cumulative acks.
    #[derive(Clone, Debug, Default)]
    pub struct SeqReceiver<T> {
        next_expected: u64,
        pending: BTreeMap<u64, T>,
    }

    impl<T> SeqReceiver<T> {
        pub fn new() -> Self {
            SeqReceiver {
                next_expected: 0,
                pending: BTreeMap::new(),
            }
        }

        /// Feed one frame off the wire. Returns the payloads now
        /// deliverable in order (possibly none, possibly several if this
        /// frame filled a gap) and the cumulative ack to send back
        /// (`None` only before anything has been delivered).
        pub fn on_frame(&mut self, frame: Frame<T>) -> (Vec<T>, Option<u64>) {
            if frame.seq >= self.next_expected {
                self.pending.entry(frame.seq).or_insert(frame.payload);
            }
            let mut out = Vec::new();
            while let Some(payload) = self.pending.remove(&self.next_expected) {
                out.push(payload);
                self.next_expected += 1;
            }
            (out, self.next_expected.checked_sub(1))
        }

        /// Frames delivered so far.
        pub fn delivered(&self) -> u64 {
            self.next_expected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_machines_mask_chaos_deterministically() {
        use super::seq::{Frame, SeqReceiver, SeqSender};
        // Drive the pure state machines through a seeded chaotic wire in
        // virtual time: drop every third transmission, duplicate every
        // fourth, and deliver the rest; retransmits must fill every hole
        // and the receiver must emit 0..N exactly once, in order.
        let mut tx = SeqSender::new(1.0);
        let mut rx: SeqReceiver<u64> = SeqReceiver::new();
        let mut rng = SplitMix64::new(42);
        let mut wire: Vec<Frame<u64>> = Vec::new();
        for i in 0..50u64 {
            wire.push(tx.send(i as f64 * 0.1, i));
        }
        let mut delivered = Vec::new();
        let mut now = 5.0;
        let mut rounds = 0;
        while tx.pending() > 0 {
            rounds += 1;
            assert!(rounds < 1000, "protocol did not converge");
            let mut acks = Vec::new();
            for f in wire.drain(..) {
                if rng.chance(0.33) {
                    continue; // lost
                }
                let copies = if rng.chance(0.25) { 2 } else { 1 };
                for _ in 0..copies {
                    let (out, ack) = rx.on_frame(f.clone());
                    delivered.extend(out);
                    if let Some(a) = ack {
                        acks.push(a);
                    }
                }
            }
            for a in acks {
                if rng.chance(0.33) {
                    continue; // ack lost: cumulative acks make this safe
                }
                tx.on_ack(a);
            }
            now += 1.0;
            wire = tx.due(now);
        }
        assert_eq!(delivered, (0..50).collect::<Vec<u64>>());
        assert_eq!(rx.delivered(), 50);
        assert_eq!(tx.next_deadline(), None);
    }

    #[test]
    fn seq_sender_backoff_spaces_retransmits_exponentially() {
        use super::seq::SeqSender;
        use crate::backoff::Backoff;
        let schedule = Backoff {
            base: 1.0,
            factor: 2.0,
            max: 8.0,
            jitter_frac: 0.0,
        };
        let mut tx = SeqSender::with_backoff(schedule, 7);
        tx.send(0.0, "x");
        // First deadline is base; each unanswered fire doubles the spacing
        // up to the cap.
        let mut expected = 0.0;
        for delay in [1.0, 2.0, 4.0, 8.0, 8.0] {
            expected += delay;
            assert_eq!(tx.next_deadline(), Some(expected));
            assert_eq!(tx.due(expected).len(), 1);
        }
        // Ack progress resets the schedule for the next window.
        tx.on_ack(0);
        assert_eq!(tx.next_deadline(), None);
        tx.send(100.0, "y");
        assert_eq!(tx.next_deadline(), Some(101.0));
        // The fixed-RTO constructor is the degenerate schedule: deadlines
        // never stretch.
        let mut fixed = SeqSender::new(1.5);
        fixed.send(0.0, "z");
        for i in 1..=4 {
            assert_eq!(fixed.next_deadline(), Some(i as f64 * 1.5));
            assert_eq!(fixed.due(i as f64 * 1.5).len(), 1);
        }
    }

    #[test]
    fn seq_receiver_reorders_and_dedups() {
        use super::seq::{Frame, SeqReceiver};
        let mut rx: SeqReceiver<&str> = SeqReceiver::new();
        let (out, ack) = rx.on_frame(Frame {
            seq: 2,
            payload: "c",
        });
        assert!(out.is_empty() && ack.is_none());
        let (out, ack) = rx.on_frame(Frame {
            seq: 0,
            payload: "a",
        });
        assert_eq!(out, vec!["a"]);
        assert_eq!(ack, Some(0));
        // Duplicate of an already-delivered frame re-acks, delivers nothing.
        let (out, ack) = rx.on_frame(Frame {
            seq: 0,
            payload: "a",
        });
        assert!(out.is_empty());
        assert_eq!(ack, Some(0));
        let (out, ack) = rx.on_frame(Frame {
            seq: 1,
            payload: "b",
        });
        assert_eq!(out, vec!["b", "c"], "gap fill flushes the buffer");
        assert_eq!(ack, Some(2));
    }
}
