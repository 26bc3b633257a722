//! One scheduler shard: a deterministic [`SchedulerCore`] journaling every
//! transition into its own WAL, plus the federation-side bookkeeping that
//! must survive the core's death (global id range, crash image, deferred
//! traffic).

use std::collections::VecDeque;

use reshape_core::{JobId, SchedulerCore, Wal};
use reshape_telemetry::TraceCtx;

use crate::lease::LeaseMsg;

/// A shard's WAL is compacted once the bytes appended since its last
/// checkpoint reach `COMPACT_FLOOR`, or `COMPACT_RATIO` times the
/// checkpoint line when that is larger. A restart then replays the
/// checkpoint and at most about that much after it, and checkpoints cost
/// at most one byte in `COMPACT_RATIO` of what the shard appends. The floor
/// is above every shard WAL the pinned and chaos runs write (119 699 bytes
/// at most), so their recorded digests hold uncompacted streams.
const COMPACT_FLOOR: u64 = 128 * 1024;
const COMPACT_RATIO: u64 = 4;

/// Where a shard's WAL was last compacted, in
/// [`Wal::appended_bytes`] of the live core's WAL.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WalMark {
    /// The count just after the last compaction: 0 before any, and after a
    /// restart, which counts from the start of the recovered stream.
    at: u64,
    /// Bytes of the checkpoint line that compaction wrote.
    checkpoint: u64,
}

impl WalMark {
    /// Tidy a live core where the federation prunes: drop the jobs it has
    /// ended, clear its event trace (nothing in the federation reads it)
    /// in place so the next transition reuses its buffer, and compact its
    /// WAL when the trigger above is due.
    pub(crate) fn tidy(&mut self, core: &mut SchedulerCore) {
        core.prune_terminal();
        core.clear_events();
        let Some(before) = core.wal().map(Wal::appended_bytes) else {
            return;
        };
        if before.saturating_sub(self.at) >= COMPACT_FLOOR.max(COMPACT_RATIO * self.checkpoint) {
            core.compact_wal();
            let at = core.wal().map_or(before, Wal::appended_bytes);
            *self = WalMark {
                at,
                checkpoint: at - before,
            };
        }
    }
}

/// Traffic addressed to a shard while it was down, replayed in arrival
/// order at recovery.
#[derive(Clone, Debug)]
pub(crate) enum Deferred {
    Checkin {
        job: JobId,
        iter_time: f64,
        redist_time: f64,
    },
    Finished {
        job: JobId,
    },
    Failed {
        job: JobId,
        reason: String,
    },
    Cancel {
        job: JobId,
    },
    Msg {
        from: usize,
        msg: LeaseMsg,
        /// Causal context the frame carried; replayed with the message at
        /// recovery so the trace edge survives the downtime.
        ctx: TraceCtx,
    },
}

// One live core per shard and shards live in a small Vec — boxing the
// core would add a pointer chase to every scheduling call for no win.
#[allow(clippy::large_enum_variant)]
pub(crate) enum ShardState {
    Live(SchedulerCore),
    /// Crashed: all that survives is the WAL text (what a restart would
    /// read off disk) and the dead core itself, frozen at the instant of
    /// death (what the replay must reproduce field for field).
    Down {
        wal_text: String,
        crash: Box<SchedulerCore>,
    },
}

/// What [`crate::Federation::recover_shard`] proved about a restart.
#[derive(Clone, Debug)]
pub struct RecoverReport {
    /// Replaying the WAL reproduced the crash-instant state exactly
    /// ([`SchedulerCore::same_state`]).
    pub snapshot_match: bool,
    /// Records replayed.
    pub wal_records: usize,
    /// The WAL text that was replayed (for failure artifacts).
    pub wal_text: String,
    /// `Some(remainder)` when the WAL's interior was corrupt: replay
    /// recovered the last-good prefix and this damaged suffix was
    /// quarantined instead of replayed (the truncation is the report).
    pub quarantined: Option<String>,
}

pub struct Shard {
    pub(crate) id: usize,
    /// First federation-global processor id owned natively by this shard;
    /// native slot `l` is global `base + l`.
    pub(crate) base: usize,
    pub(crate) native: usize,
    pub(crate) state: ShardState,
    /// Last virtual time the shard processed anything — its heartbeat.
    pub(crate) last_seen: f64,
    /// Brownout latch (hysteresis state); mirrors the core's
    /// `expand_paused` while live.
    pub(crate) brownout: bool,
    pub(crate) deferred: VecDeque<Deferred>,
    pub(crate) kills: u64,
    pub(crate) wal_mark: WalMark,
}

impl Shard {
    pub(crate) fn new(id: usize, base: usize, core: SchedulerCore) -> Self {
        let native = core.total_procs();
        Shard {
            id,
            base,
            native,
            state: ShardState::Live(core),
            last_seen: 0.0,
            brownout: false,
            deferred: VecDeque::new(),
            kills: 0,
            wal_mark: WalMark::default(),
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    /// First global processor id of the native range.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Native pool size (global ids `base .. base + native`).
    pub fn native(&self) -> usize {
        self.native
    }

    pub fn is_live(&self) -> bool {
        matches!(self.state, ShardState::Live(_))
    }

    /// The live core, read-only. Mutation goes through the federation,
    /// which keeps a summary of every shard in step with its core.
    pub fn core(&self) -> Option<&SchedulerCore> {
        match &self.state {
            ShardState::Live(c) => Some(c),
            ShardState::Down { .. } => None,
        }
    }

    /// The dead core, frozen at the instant of the crash (down only).
    pub fn crash_core(&self) -> Option<&SchedulerCore> {
        match &self.state {
            ShardState::Down { crash, .. } => Some(crash),
            ShardState::Live(_) => None,
        }
    }

    /// The WAL a restart would replay (down only).
    pub fn down_wal(&self) -> Option<&str> {
        match &self.state {
            ShardState::Down { wal_text, .. } => Some(wal_text),
            ShardState::Live(_) => None,
        }
    }

    /// Scheduler queue depth — live from the core, down from the dead one.
    pub fn queue_len(&self) -> usize {
        match &self.state {
            ShardState::Live(c) => c.queue_len(),
            ShardState::Down { crash, .. } => crash.queue_len(),
        }
    }

    /// Brownout latch: expansion grants paused.
    pub fn brownout(&self) -> bool {
        self.brownout
    }

    /// Times this shard has been killed.
    pub fn kills(&self) -> u64 {
        self.kills
    }

    /// Last virtual time the shard processed a transition.
    pub fn last_seen(&self) -> f64 {
        self.last_seen
    }
}
