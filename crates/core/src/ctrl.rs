//! Reliable delivery for the scheduler's control plane.
//!
//! The threaded runtime's drivers talk to the scheduler thread over a
//! message channel. In-process channels never lose messages, but the
//! paper's deployment has the resize library talking to the scheduler over
//! sockets — a control plane that can drop, duplicate or reorder. The
//! sequenced ack/retransmit protocol that masks those faults exists once,
//! as the pure state machines of [`seq`]:
//!
//! * every message gets a monotonically increasing sequence number;
//! * the sender keeps unacknowledged messages and retransmits the whole
//!   window every `retransmit_after` until acknowledged — control
//!   messages must eventually arrive;
//! * the receiver delivers strictly in sequence order, buffering
//!   out-of-order arrivals and discarding duplicates, and acknowledges
//!   every frame it sees (acks are cumulative: acking `n` covers all
//!   `seq <= n`);
//! * an optional [`ChaosConfig`] makes the simulated wire lossy — a seeded
//!   deterministic fault stream drops, duplicates and reorders frames so
//!   tests can prove the protocol masks all three.
//!
//! [`reliable_channel`] runs both machines on one daemon thread in wall
//! seconds, with the chaos wire between them; the federation's lease bus
//! runs them in virtual time.
//!
//! The guarantee tests lean on: every message passed to
//! [`ReliableSender::send`] is delivered to the receiver **exactly once**,
//! in send order, no matter what the chaos stream does.
//!
//! **Causal tracing.** Trace propagation needs no support from this layer:
//! the runtime embeds a `TraceCtx` (trace id + parent span) inside the
//! message payload itself, so the context rides through loss, duplication
//! and reordering under the same exactly-once guarantee as the rest of the
//! message. The receiver re-establishes the sender's causal context
//! (`trace::ctx_guard`) before acting, which is what links driver-side
//! spans to the scheduler-side spans they cause across this channel.

use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use seq::{Frame, SeqReceiver, SeqSender};

/// The seeded stream behind every chaos wire: this module's and the
/// federation's lease bus.
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

impl ChaosConfig {
    /// A heavily faulty wire for stress tests.
    pub fn heavy(seed: u64) -> Self {
        ChaosConfig {
            loss: 0.25,
            dup: 0.2,
            reorder: 0.2,
            seed,
        }
    }
}

/// Tuning for the reliable wrapper.
#[derive(Clone, Copy, Debug)]
pub struct ReliableConfig {
    /// `None` models a perfect wire (protocol still runs, nothing to mask).
    pub chaos: Option<ChaosConfig>,
    /// How long an unacked frame waits before retransmission; must be
    /// positive.
    pub retransmit_after: Duration,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            chaos: None,
            retransmit_after: Duration::from_millis(5),
        }
    }
}

impl ReliableConfig {
    pub fn with_chaos(chaos: ChaosConfig) -> Self {
        ReliableConfig {
            chaos: Some(chaos),
            ..Default::default()
        }
    }
}

/// Sending half of a reliable channel. Cloneable; drop every clone to shut
/// the channel down (pending messages are still retransmitted until
/// acknowledged).
#[derive(Clone)]
pub struct ReliableSender<T> {
    tx: Sender<T>,
}

impl<T> ReliableSender<T> {
    /// Queue a message for exactly-once, in-order delivery. Returns `Err`
    /// only when the receiving side is gone entirely. The daemon notices
    /// that when it next delivers, so a send racing the receiver's drop
    /// can still return `Ok`.
    pub fn send(&self, payload: T) -> Result<(), T> {
        self.tx.send(payload).map_err(|e| e.0)
    }
}

/// Build a reliable channel: messages sent on the [`ReliableSender`] come
/// out of the returned `Receiver` exactly once and in order, even when
/// `cfg.chaos` makes the simulated wire lose, duplicate or reorder frames.
/// One daemon thread carries the channel. It exits once all senders are
/// dropped and everything in flight is acknowledged, or once a delivery
/// finds the receiver gone.
pub fn reliable_channel<T: Clone + Send + 'static>(
    cfg: ReliableConfig,
) -> (ReliableSender<T>, Receiver<T>) {
    let (in_tx, in_rx) = unbounded::<T>();
    let (out_tx, out_rx) = unbounded::<T>();
    let link = Link {
        sender: SeqSender::new(cfg.retransmit_after.as_secs_f64()),
        receiver: SeqReceiver::new(),
        chaos: cfg.chaos,
        rng: SplitMix64::new(cfg.chaos.map_or(0, |c| c.seed)),
        held: None,
        out: out_tx,
    };
    std::thread::Builder::new()
        .name("reshape-ctrl".into())
        .spawn(move || link.run(in_rx))
        .expect("spawn ctrl daemon");
    (ReliableSender { tx: in_tx }, out_rx)
}

/// The channel daemon's state: both protocol machines, with the chaos wire
/// between them.
struct Link<T> {
    sender: SeqSender<T>,
    receiver: SeqReceiver<T>,
    chaos: Option<ChaosConfig>,
    rng: SplitMix64,
    /// A frame held back by the reorder fault, delivered after the next
    /// transmission.
    held: Option<Frame<T>>,
    out: Sender<T>,
}

impl<T: Clone> Link<T> {
    /// Block on the input until the sender's next retransmit deadline, or
    /// with no timeout while nothing is unacked. Sequence times are wall
    /// seconds since the channel opened.
    fn run(mut self, input: Receiver<T>) {
        let opened = Instant::now();
        loop {
            let got = match self.sender.next_deadline() {
                None => input.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(d) => input.recv_timeout(Duration::from_secs_f64(
                    (d - opened.elapsed().as_secs_f64()).max(0.0),
                )),
            };
            let now = opened.elapsed().as_secs_f64();
            let open = match got {
                Ok(payload) => {
                    let frame = self.sender.send(now, payload);
                    self.transmit(frame)
                }
                Err(RecvTimeoutError::Timeout) => true,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            if !open || !self.retransmit(now) {
                return;
            }
        }
        // No input can arrive any more, so there is nothing to wait for:
        // each remaining retransmit runs at once.
        while let Some(d) = self.sender.next_deadline() {
            if !self.retransmit(d) {
                return;
            }
        }
    }

    /// Retransmit the unacked window if its deadline has passed at `now`.
    /// `false` once the receiver is gone.
    fn retransmit(&mut self, now: f64) -> bool {
        let window = self.sender.due(now);
        if !window.is_empty() {
            reshape_telemetry::incr("ctrl.retransmits", window.len() as u64);
        }
        window.into_iter().all(|frame| self.transmit(frame))
    }

    /// Put one frame on the chaos wire. `false` once the receiver is gone.
    fn transmit(&mut self, frame: Frame<T>) -> bool {
        let Some(chaos) = self.chaos else {
            return self.arrive(frame);
        };
        let held = self.held.take();
        if self.rng.chance(chaos.loss) {
            reshape_telemetry::incr("ctrl.frames_lost", 1);
        } else {
            let dup = self.rng.chance(chaos.dup);
            if dup {
                reshape_telemetry::incr("ctrl.frames_duped", 1);
            }
            if self.rng.chance(chaos.reorder) && held.is_none() {
                reshape_telemetry::incr("ctrl.frames_reordered", 1);
                self.held = Some(frame);
                return true;
            }
            if dup && !self.arrive(frame.clone()) {
                return false;
            }
            if !self.arrive(frame) {
                return false;
            }
        }
        // Anything held back goes out after this frame.
        held.is_none_or(|h| self.arrive(h))
    }

    /// A frame comes off the wire: deliver whatever is now in order and
    /// hand the cumulative ack straight back to the sender. `false` once
    /// the receiver is gone.
    fn arrive(&mut self, frame: Frame<T>) -> bool {
        if frame.seq < self.receiver.delivered() {
            reshape_telemetry::incr("ctrl.duplicates_discarded", 1);
        }
        let (ready, ack) = self.receiver.on_frame(frame);
        if let Some(cum) = ack {
            self.sender.on_ack(cum);
        }
        ready
            .into_iter()
            .all(|payload| self.out.send(payload).is_ok())
    }
}

pub mod seq {
    //! The sequenced ack/retransmit protocol as thread-free state machines.
    //!
    //! [`SeqSender`] and [`SeqReceiver`] own no clock, wire or event loop:
    //! the caller asks the sender what is due at a time on its own clock,
    //! carries frames across whatever (chaotic) wire it models, and feeds
    //! them to the receiver, which hands back in-order payloads plus a
    //! cumulative ack. Two callers drive them:
    //! [`reliable_channel`](super::reliable_channel)'s daemon, in wall
    //! seconds, and the federation's shard-to-shard lease bus, in virtual
    //! time, so grant/ack/release survive loss, duplication and reordering
    //! deterministically.

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
    fn perfect_wire_delivers_in_order() {
        let (tx, rx) = reliable_channel::<u32>(ReliableConfig::default());
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), i);
        }
    }

    #[test]
    fn heavy_chaos_still_delivers_exactly_once_in_order() {
        let only = |loss, dup, reorder, seed| ChaosConfig {
            loss,
            dup,
            reorder,
            seed,
        };
        let wires = [
            ChaosConfig::heavy(1),
            ChaosConfig::heavy(7),
            ChaosConfig::heavy(42),
            ChaosConfig::heavy(9001),
            only(0.3, 0.0, 0.0, 11),
            only(0.0, 0.3, 0.0, 12),
            only(0.0, 0.0, 0.3, 13),
        ];
        // One producer, then four producers sharing clones of one sender:
        // each payload is `producer * STRIDE + i`, and every producer's own
        // stream must come out in its send order.
        const STRIDE: u64 = 1 << 32;
        for chaos in wires {
            for producers in [1u64, 4] {
                let cfg = ReliableConfig {
                    chaos: Some(chaos),
                    retransmit_after: Duration::from_millis(2),
                };
                let (tx, rx) = reliable_channel::<u64>(cfg);
                const N: u64 = 500;
                let handles: Vec<_> = (0..producers)
                    .map(|p| {
                        let tx = tx.clone();
                        std::thread::spawn(move || {
                            for i in 0..N {
                                tx.send(p * STRIDE + i).unwrap();
                            }
                        })
                    })
                    .collect();
                drop(tx);
                let mut next = vec![0u64; producers as usize];
                for k in 0..producers * N {
                    let got = rx
                        .recv_timeout(Duration::from_secs(30))
                        .unwrap_or_else(|_| {
                            panic!("{chaos:?} x{producers}: message {k} never arrived")
                        });
                    let (p, i) = ((got / STRIDE) as usize, got % STRIDE);
                    assert_eq!(
                        i, next[p],
                        "{chaos:?} x{producers}: producer {p} out of order or duplicated"
                    );
                    next[p] += 1;
                }
                for h in handles {
                    h.join().unwrap();
                }
                assert!(next.iter().all(|&n| n == N));
                // Nothing extra may trickle in: exactly once.
                assert!(
                    rx.recv_timeout(Duration::from_millis(50)).is_err(),
                    "{chaos:?} x{producers}: duplicate delivery after the stream"
                );
            }
        }
    }

    #[test]
    fn reorder_fault_delivers_a_held_frame_after_the_next_one() {
        let (out, delivered) = unbounded();
        let mut link = Link {
            sender: SeqSender::new(1.0),
            receiver: SeqReceiver::new(),
            chaos: Some(ChaosConfig {
                loss: 0.0,
                dup: 0.0,
                reorder: 1.0,
                seed: 5,
            }),
            rng: SplitMix64::new(5),
            held: None,
            out,
        };
        let first = link.sender.send(0.0, 'a');
        assert!(link.transmit(first));
        assert!(delivered.is_empty(), "the first frame is held back");
        let second = link.sender.send(0.0, 'b');
        assert!(link.transmit(second));
        // `b` arrived first and waited in the receiver for the held `a`.
        let got: Vec<char> = std::iter::from_fn(|| delivered.try_recv().ok()).collect();
        assert_eq!(got, vec!['a', 'b']);
        assert_eq!(link.sender.pending(), 0);
    }

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

    #[test]
    fn dropping_sender_shuts_the_channel_down() {
        let (tx, rx) = reliable_channel::<u8>(ReliableConfig::default());
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 9);
        // After the daemons wind down the receiver disconnects.
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        ));
    }

    #[test]
    fn send_fails_once_the_receiver_is_gone() {
        for cfg in [
            ReliableConfig::default(),
            ReliableConfig::with_chaos(ChaosConfig::heavy(3)),
        ] {
            let (tx, rx) = reliable_channel::<u32>(cfg);
            drop(rx);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let mut sent = 0;
            while tx.send(sent).is_ok() {
                sent += 1;
                assert!(
                    std::time::Instant::now() < deadline,
                    "{:?}: {sent} sends still Ok 5 s after the receiver was dropped",
                    cfg.chaos
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}
