//! The lease bus: one sequenced, retransmitting link per directed shard
//! pair, with optional seeded chaos (loss / duplication / reordering) on
//! the wire.
//!
//! The bus owns only protocol state ([`SeqSender`]/[`SeqReceiver`] per
//! link) — it has no clock and no queue. Every call returns the wire
//! events the caller must schedule on its own timer wheel. Endpoints live
//! at the federation layer, *not* inside shards, so they survive shard
//! crashes: frames for a down shard still ack (the federation buffers the
//! payloads for replay at recovery), which keeps retransmission bounded.

// Peer or durable bytes reach this module: they fail as a value, never
// through an `unwrap`.
#![deny(clippy::unwrap_used)]

use std::collections::BTreeMap;

use reshape_core::ctrl::seq::{Frame, SeqReceiver, SeqSender};
use reshape_core::ctrl::{ChaosConfig, SplitMix64};
use reshape_core::Backoff;

use crate::lease::TracedMsg;

/// Wire parameters for the lease bus.
#[derive(Clone, Copy, Debug)]
pub struct BusConfig {
    /// One-way frame latency (virtual seconds).
    pub latency: f64,
    /// Retransmit timeout for unacked frames.
    pub rto: f64,
    /// Optional seeded wire chaos; `None` is a perfect wire.
    pub chaos: Option<ChaosConfig>,
    /// Optional exponential retransmit pacing: when set, each link's
    /// [`SeqSender`] follows this [`Backoff`] schedule (keyed by the link
    /// id, so parallel links de-synchronize) instead of the fixed `rto` —
    /// the same shared primitive the resize driver's retry policy uses.
    pub retx_backoff: Option<Backoff>,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            latency: 0.05,
            rto: 1.0,
            chaos: None,
            retx_backoff: None,
        }
    }
}

/// One scripted partition: between `t_start` (inclusive) and `t_heal`
/// (exclusive) every frame and ack crossing group boundaries is silently
/// dropped; traffic within a group is untouched, so in-group sequencing is
/// preserved. Shards not named in any group form one implicit group of
/// their own — severed from every listed group but connected to each other.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionSchedule {
    pub groups: Vec<Vec<usize>>,
    pub t_start: f64,
    pub t_heal: f64,
}

impl PartitionSchedule {
    /// Group index of `shard` (`usize::MAX` = the implicit remainder
    /// group).
    fn group_of(&self, shard: usize) -> usize {
        self.groups
            .iter()
            .position(|g| g.contains(&shard))
            .unwrap_or(usize::MAX)
    }

    /// Whether this schedule separates `a` and `b` (ignoring time).
    pub fn cuts(&self, a: usize, b: usize) -> bool {
        a != b && self.group_of(a) != self.group_of(b)
    }

    /// Whether the partition is live at `now` and separates `a` and `b`.
    pub fn severs(&self, now: f64, a: usize, b: usize) -> bool {
        now >= self.t_start && now < self.t_heal && self.cuts(a, b)
    }
}

/// All scripted partitions, queried per frame by the bus and scripted by
/// the sim harness exactly like shard kills.
#[derive(Clone, Debug, Default)]
pub struct PartitionState {
    schedules: Vec<PartitionSchedule>,
}

impl PartitionState {
    /// Register a schedule; returns its id (the index, for timer payloads).
    pub fn inject(&mut self, schedule: PartitionSchedule) -> usize {
        assert!(
            schedule.t_heal > schedule.t_start,
            "partition must heal after it starts"
        );
        self.schedules.push(schedule);
        self.schedules.len() - 1
    }

    /// Whether any live partition separates `a` and `b` at `now`.
    pub fn severed(&self, now: f64, a: usize, b: usize) -> bool {
        self.schedules.iter().any(|s| s.severs(now, a, b))
    }

    pub fn schedules(&self) -> &[PartitionSchedule] {
        &self.schedules
    }
}

/// A wire event for the federation's timer wheel.
#[derive(Clone, Debug)]
pub enum BusEvent {
    /// Frame from `from`'s sender arriving at `to`'s receiver.
    Deliver {
        from: usize,
        to: usize,
        frame: Frame<TracedMsg>,
    },
    /// Cumulative ack for link `from → to` arriving back at `from`.
    AckDeliver { from: usize, to: usize, cum: u64 },
    /// Poll link `from → to` for retransmissions.
    Retransmit { from: usize, to: usize },
}

/// A Bernoulli draw on a link's chaos stream that draws nothing when
/// `p <= 0`, so a fault kind left off consumes none of the stream.
fn chance(rng: &mut SplitMix64, p: f64) -> bool {
    p > 0.0 && rng.chance(p)
}

struct Link {
    tx: SeqSender<TracedMsg>,
    rx: SeqReceiver<TracedMsg>,
    rng: SplitMix64,
    /// One retransmit poll is outstanding on the wheel (keeps the timer
    /// population at ≤ 1 per link).
    retx_scheduled: bool,
}

/// All directed links between shards.
pub struct Bus {
    cfg: BusConfig,
    links: BTreeMap<(usize, usize), Link>,
    partitions: PartitionState,
    /// Frames and acks silently dropped at partition boundaries.
    partition_drops: u64,
}

impl Bus {
    pub fn new(cfg: BusConfig) -> Self {
        assert!(cfg.rto > 0.0, "bus rto must be positive");
        assert!(cfg.latency >= 0.0, "bus latency must be non-negative");
        Bus {
            cfg,
            links: BTreeMap::new(),
            partitions: PartitionState::default(),
            partition_drops: 0,
        }
    }

    /// Register a scripted partition; returns its id. The bus starts
    /// dropping cross-group traffic at `t_start` with no further calls —
    /// severance is evaluated per frame against the virtual clock.
    pub fn inject_partition(&mut self, schedule: PartitionSchedule) -> usize {
        self.partitions.inject(schedule)
    }

    /// Whether any live partition separates `a` and `b` at `now`.
    pub fn severed(&self, now: f64, a: usize, b: usize) -> bool {
        self.partitions.severed(now, a, b)
    }

    pub fn partitions(&self) -> &PartitionState {
        &self.partitions
    }

    /// Frames and acks dropped at partition boundaries so far.
    pub fn partition_drops(&self) -> u64 {
        self.partition_drops
    }

    fn link(&mut self, from: usize, to: usize) -> &mut Link {
        let cfg = self.cfg;
        self.links.entry((from, to)).or_insert_with(|| Link {
            tx: match cfg.retx_backoff {
                Some(b) => SeqSender::with_backoff(b, (from as u64) << 32 | to as u64),
                None => SeqSender::new(cfg.rto),
            },
            rx: SeqReceiver::new(),
            rng: SplitMix64::new(
                cfg.chaos.map(|c| c.seed).unwrap_or(0)
                    ^ ((from as u64) << 32 | to as u64)
                    ^ 0xB0_5EED,
            ),
            retx_scheduled: false,
        })
    }

    /// Chaos-mangle one frame onto the wire: returns 0, 1 or 2 deliveries.
    fn wire_frame(
        &mut self,
        now: f64,
        from: usize,
        to: usize,
        frame: Frame<TracedMsg>,
        out: &mut Vec<(f64, BusEvent)>,
    ) {
        // Partition drops happen before any chaos draw, so runs without a
        // partition schedule consume their RNG streams unperturbed.
        if self.partitions.severed(now, from, to) {
            self.partition_drops += 1;
            return;
        }
        let latency = self.cfg.latency;
        let rto = self.cfg.rto;
        let chaos = self.cfg.chaos;
        let link = self.link(from, to);
        let mut copies = 1;
        if let Some(c) = chaos {
            if chance(&mut link.rng, c.loss) {
                copies = 0;
            } else if chance(&mut link.rng, c.dup) {
                copies = 2;
            }
        }
        for i in 0..copies {
            let mut at = now + latency * (1 + i) as f64;
            if let Some(c) = chaos {
                if chance(&mut link.rng, c.reorder) {
                    // Hold the frame back past the next send window.
                    at += latency * 2.0 + rto * 0.5;
                }
            }
            out.push((
                at,
                BusEvent::Deliver {
                    from,
                    to,
                    frame: frame.clone(),
                },
            ));
        }
    }

    /// Queue `msg` on link `from → to`. Returns wire events to schedule.
    pub fn send(
        &mut self,
        now: f64,
        from: usize,
        to: usize,
        msg: TracedMsg,
    ) -> Vec<(f64, BusEvent)> {
        let frame = self.link(from, to).tx.send(now, msg);
        let mut out = Vec::new();
        self.wire_frame(now, from, to, frame, &mut out);
        let link = self.link(from, to);
        if !link.retx_scheduled {
            if let Some(d) = link.tx.next_deadline() {
                link.retx_scheduled = true;
                out.push((d, BusEvent::Retransmit { from, to }));
            }
        }
        out
    }

    /// A retransmit poll fired for link `from → to`.
    pub fn on_retransmit(&mut self, now: f64, from: usize, to: usize) -> Vec<(f64, BusEvent)> {
        let mut out = Vec::new();
        let frames = {
            let link = self.link(from, to);
            link.retx_scheduled = false;
            link.tx.due(now)
        };
        for f in frames {
            self.wire_frame(now, from, to, f, &mut out);
        }
        let link = self.link(from, to);
        if !link.retx_scheduled {
            if let Some(d) = link.tx.next_deadline() {
                link.retx_scheduled = true;
                out.push((d, BusEvent::Retransmit { from, to }));
            }
        }
        out
    }

    /// A frame arrived at `to`'s receiver for link `from → to`. Returns
    /// the in-order payloads plus the ack's wire events (acks ride the
    /// same chaotic wire; a lost ack is re-elicited by retransmission).
    pub fn on_deliver(
        &mut self,
        now: f64,
        from: usize,
        to: usize,
        frame: Frame<TracedMsg>,
    ) -> (Vec<TracedMsg>, Vec<(f64, BusEvent)>) {
        // A frame that was in flight when the partition started dies at the
        // boundary: no delivery, no ack (retransmission redelivers it after
        // the heal).
        if self.partitions.severed(now, from, to) {
            self.partition_drops += 1;
            return (Vec::new(), Vec::new());
        }
        let latency = self.cfg.latency;
        let chaos = self.cfg.chaos;
        let link = self.link(from, to);
        let (msgs, ack) = link.rx.on_frame(frame);
        let mut evs = Vec::new();
        if let Some(cum) = ack {
            let lost = chaos.is_some_and(|c| chance(&mut link.rng, c.loss));
            if !lost {
                evs.push((now + latency, BusEvent::AckDeliver { from, to, cum }));
            }
        }
        (msgs, evs)
    }

    /// A cumulative ack for link `from → to` arrived back at the sender
    /// (dropped at the boundary if the pair is severed at `now` — the
    /// sender keeps retransmitting into the partition and converges after
    /// the heal).
    pub fn on_ack(&mut self, now: f64, from: usize, to: usize, cum: u64) {
        if self.partitions.severed(now, to, from) {
            self.partition_drops += 1;
            return;
        }
        self.link(from, to).tx.on_ack(cum);
    }

    /// Unacked frames across all links — zero once the bus has drained.
    pub fn pending(&self) -> usize {
        self.links.values().map(|l| l.tx.pending()).sum()
    }
}
