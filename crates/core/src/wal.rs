//! Write-ahead log for [`SchedulerCore`](crate::SchedulerCore).
//!
//! The scheduler state machine is synchronous and deterministic: its entire
//! state is a pure function of the configuration it was built with and the
//! sequence of public transitions applied to it. Durability therefore takes
//! the classic command-logging form — every transition (`submit`,
//! `try_schedule`, `resize_point`, `on_finished`, `on_failed`,
//! `on_expand_failed`, `cancel`, reservations, clock ticks) is appended to a
//! checksummed record stream *before* it is applied, and
//! [`SchedulerCore::recover`](crate::SchedulerCore::recover) replays the
//! stream into a fresh core after a crash. Replay reproduces the pre-crash
//! state exactly (pool accounting, queue order, job records, profiler
//! history, the event trace of the records since the last compaction, even
//! the utilization integral).
//!
//! [`SchedulerCore::compact_wal`](crate::SchedulerCore::compact_wal)
//! rewrites the stream as its genesis line and one checkpoint (`ckpt`) of
//! the live state, as in Raft's log compaction; replay applies the
//! checkpoint wholesale and replays what was appended after it, so a
//! recovery costs the live state plus the records since, not the whole
//! history.
//!
//! # Wire format
//!
//! One record per line, `{crc:08x} {payload}\n`: eight lowercase hex digits
//! of the CRC-32 of the payload, one space, the payload. The payload is a
//! variant tag followed by the variant's fields in declaration order, every
//! token separated by exactly one space:
//!
//! ```text
//! 4a99c3de fin 12 400c000000000000
//! ```
//!
//! | variant | tag | fields |
//! |---|---|---|
//! | `Open` | `open` | `total_procs` *policy* *remap* `events_cap` *order* *speeds* |
//! | `Submit` | `sub` | *spec* `now` |
//! | `SubmitReserved` | `subr` | *spec* `reservation` `now` |
//! | `TrySchedule` | `ts` | `now` |
//! | `ResizePoint` | `rp` | `job` `iter_time` `redist_time` `now` |
//! | `PhaseChange` | `pc` | `job` `now` |
//! | `NoteRedist` | `nr` | `job` *from* *to* `seconds` |
//! | `Finished` | `fin` | `job` `now` |
//! | `Failed` | `fail` | `job` `reason` `now` |
//! | `NodeFailed` | `nf` | `job` *dead_slots* *to* `now` |
//! | `ExpandFailed` | `xf` | `job` `now` |
//! | `Cancel` | `can` | `job` `now` |
//! | `Reserve` | `rsv` | `start` `end` `procs` |
//! | `CancelReservation` | `crsv` | `id` |
//! | `Tick` | `tick` | `now` |
//! | `LendGrant` | `lg` | `lease` *slots* `now` |
//! | `LendReclaim` | `lr` | `lease` `now` |
//! | `BorrowAttach` | `ba` | `lease` *global_slots* `lender_epoch` `now` |
//! | `BorrowEvict` | `be` | `lease` `now` |
//! | `PauseExpansion` | `pause` | `on` `now` |
//! | `EpochBump` | `epoch` | `epoch` `now` |
//! | `HealRepair` | `heal` | `lease` *action* `now` |
//! | `Checkpoint` | `ckpt` | the core's durable scalars `next_id` `next_reservation` `epoch` `events_dropped` `busy_proc_seconds` `last_tick` `expand_paused`, the pool's `foreign_minted` *free_slots*, then the durable *reservations* *lent_leases* *borrowed_leases* *jobs* *bindings* *pending_cancel* *profiles* |
//!
//! Field encodings:
//!
//! * integers (ids, counts, `priority`) — canonical decimal: no sign, no
//!   leading zero;
//! * `f64` — the 16 lowercase hex digits of `to_bits()`, so every value
//!   (signed zero, subnormals, infinities, NaN payloads) round-trips
//!   bit-exactly by construction;
//! * `bool` — `0` or `1`;
//! * strings (`reason`, a spec's `name`) — one token: `\\` for a backslash,
//!   `\s` for a space, `\n` and `\r` for the line breaks, everything else
//!   verbatim, and `\e` alone for the empty string — so a payload never
//!   holds a raw space, `\n` or `\r` that is not structure;
//! * slot vectors (*dead_slots*, *slots*, *global_slots*) — the length,
//!   then that many integers;
//! * a `ProcessorConfig` (*from*, *to*, `initial`) — `rows cols`, both
//!   non-zero;
//! * *policy* `fcfs`/`backfill`; *remap* `paper`/`greedy`/`nevershrink`/
//!   `costbenefit`; *order* `lowest`/`fastest`; *action* `evict`/`escrow`;
//! * *speeds* — `0`, or `1`, the length, and that many floats;
//! * *spec* — `name` *topology* `initial` `iterations` `resizable`
//!   `priority` `survivable`, where *topology* is `grid problem_size`,
//!   `lin problem_size even_only`, `any min max step`, or `exp`, the
//!   length, and that many `rows cols` pairs;
//! * a checkpoint's lists and maps — the length, then the entries; map
//!   keys strictly ascending, whatever order a hash map holds them in, so
//!   a state has one spelling. *reservations*: `id start end procs`;
//!   *lent_leases*: `lease` *slots*; *borrowed_leases*: `lease` *local*
//!   *global* `lender_epoch`; *jobs*: `id` *spec* *state* *slots*
//!   `submitted_at` *started_at* *finished_at*, an optional float being `0`,
//!   or `1` and the float; *bindings*: `id reservation`; *pending_cancel*:
//!   `id`; *profiles*: `id` *history* *times* *costs* *last* *failed*;
//! * *state* — `queued`, `running rows cols`, `finished at`,
//!   `failed at reason` or `cancelled at`;
//! * a profile's *history* — entries `rows cols iter_time redist_time`;
//!   *times* — `rows cols sum count`; *costs* — `rows cols rows cols
//!   seconds`, keyed by the configuration pair; *last* — `none`, or `grow`
//!   or `shrink` and the pair; *failed* — `0`, or `1` and the pair.
//!
//! Each record has exactly one spelling: the decoder rejects anything the
//! encoder would not have written (unknown tags or names, non-canonical
//! numbers, bad escapes, degenerate configurations, missing or trailing
//! fields), so decoding a stream and encoding it again reproduces it byte
//! for byte. [`Wal::dump_json`] renders the same records as JSON for a
//! person to read; nothing reads that form back.
//!
//! A torn final line (the crash landed mid-append) is tolerated and dropped
//! on decode; a checksum mismatch or garbage anywhere earlier is reported
//! as corruption — a WAL with a damaged interior cannot be trusted for
//! replay. The salvage readers ([`Wal::decode_salvage`],
//! [`SchedulerCore::recover_salvage`](crate::SchedulerCore::recover_salvage))
//! instead recover the last-good prefix, quarantine the damaged remainder
//! in a [`WalSalvage`], and report the truncation there so recovery can
//! proceed with a shorter history rather than none. A damaged checkpoint
//! is the exception: it held the state the whole rest of the stream builds
//! on, so it leaves no clean prefix at all, genesis included, and recovery
//! refuses it as it refuses a damaged genesis.
//!
//! # In memory
//!
//! A [`Wal`] holds its wire bytes and a record count, not decoded records:
//! [`Wal::append`] encodes the line once, [`Wal::encode`] is a copy of
//! bytes that already exist, and recovery frames, checks, parses and
//! applies each line in one pass with no list of records in between.
//! [`Wal::records`] decodes the whole stream on every call, so it costs
//! `O(history)` since the last compaction; it is for tests and diagnostics,
//! not for hot paths.

// Peer or durable bytes reach this module: they fail as a value, never
// through an `unwrap`.
#![deny(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::fmt;

use serde::Serialize;

use crate::core::{
    BorrowedLease, Checkpoint, DurableState, JobRecord, QueuePolicy, Reservation, ReservationId,
};
use crate::job::{JobId, JobSpec, JobState};
use crate::policy::RemapPolicy;
use crate::pool::AllocOrder;
use crate::profiler::{ConfigTimes, JobProfile, PerfRecord, Profiler, Resize};
use crate::topology::{ProcessorConfig, TopologyPref};

/// One logged scheduler transition. The first record of every WAL is
/// [`WalRecord::Open`] (the core's configuration at attach time); every
/// subsequent record is a public [`SchedulerCore`](crate::SchedulerCore)
/// call with its arguments.
///
/// `Serialize` is for [`Wal::dump_json`] only; the durable form is the line
/// codec of the module doc.
#[derive(Clone, Debug, PartialEq, Serialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum WalRecord {
    /// Genesis: everything needed to rebuild an empty core identical to the
    /// one the WAL was attached to.
    Open {
        total_procs: usize,
        policy: QueuePolicy,
        remap_policy: RemapPolicy,
        events_cap: usize,
        alloc_order: AllocOrder,
        /// Per-slot speed factors; `None` for homogeneous pools.
        slot_speeds: Option<Vec<f64>>,
    },
    Submit {
        spec: JobSpec,
        now: f64,
    },
    SubmitReserved {
        spec: JobSpec,
        reservation: ReservationId,
        now: f64,
    },
    TrySchedule {
        now: f64,
    },
    ResizePoint {
        job: JobId,
        iter_time: f64,
        redist_time: f64,
        now: f64,
    },
    PhaseChange {
        job: JobId,
        now: f64,
    },
    NoteRedist {
        job: JobId,
        from: ProcessorConfig,
        to: ProcessorConfig,
        seconds: f64,
    },
    Finished {
        job: JobId,
        now: f64,
    },
    Failed {
        job: JobId,
        reason: String,
        now: f64,
    },
    /// A node hosting part of the job died: only the dead slots are
    /// reclaimed and the job keeps running at the surviving configuration
    /// `to` (forced shrink, the survivability path).
    NodeFailed {
        job: JobId,
        dead_slots: Vec<usize>,
        to: ProcessorConfig,
        now: f64,
    },
    ExpandFailed {
        job: JobId,
        now: f64,
    },
    Cancel {
        job: JobId,
        now: f64,
    },
    Reserve {
        start: f64,
        end: f64,
        procs: usize,
    },
    CancelReservation {
        id: ReservationId,
    },
    /// A clock advance from a utilization query — it moves the busy-time
    /// integral, so exact-state recovery must replay it too.
    Tick {
        now: f64,
    },
    /// Federation lease, lender side: `slots` (picked deterministically by
    /// the pool order) left this pool under lease `lease`. They count
    /// neither free nor busy until the matching `lend_reclaim`.
    LendGrant {
        lease: u64,
        slots: Vec<usize>,
        now: f64,
    },
    /// Federation lease, lender side: the lease ended (borrower released it
    /// or the reclaim timeout fired) and its slots rejoined the pool.
    LendReclaim {
        lease: u64,
        now: f64,
    },
    /// Federation lease, borrower side: `global_slots` (federation-global
    /// processor ids, recorded for ledger audits) were attached under lease
    /// `lease`; the pool minted fresh local ids for them. `lender_epoch` is
    /// the lender's fencing epoch at grant time — the partition oracle
    /// audits attaches against it.
    BorrowAttach {
        lease: u64,
        global_slots: Vec<usize>,
        lender_epoch: u64,
        now: f64,
    },
    /// Federation lease, borrower side: the lease expired or was released —
    /// jobs still holding its slots were force-shrunk off them (or failed
    /// if nothing remained) and every slot of the lease detached.
    BorrowEvict {
        lease: u64,
        now: f64,
    },
    /// Brownout control: expansion grants paused (`on = true`) or resumed.
    /// Shrinks and completions proceed regardless.
    PauseExpansion {
        on: bool,
        now: f64,
    },
    /// Partition fencing: the shard's monotonic fencing epoch advanced to
    /// `epoch` (a lender that lost contact with a borrower past the
    /// suspicion timeout bumps and refuses to honor leases minted under
    /// older epochs). Replay must restore the epoch exactly.
    EpochBump {
        epoch: u64,
        now: f64,
    },
    /// Anti-entropy heal: a post-partition reconciliation decision about
    /// `lease`, journaled explicitly before the repairing transition — no
    /// heal mutates state silently.
    HealRepair {
        lease: u64,
        action: HealAction,
        now: f64,
    },
    /// Compaction: the core's whole live state, written by
    /// [`SchedulerCore::compact_wal`](crate::SchedulerCore::compact_wal) as
    /// the only record after genesis. Replay applies it wholesale; the
    /// records after it replay on top. The state type is not exported: only
    /// compaction builds one and only replay reads one.
    Checkpoint {
        state: Box<Checkpoint>,
    },
}

/// What a post-partition reconciliation did to one lease.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum HealAction {
    /// The borrower evicted an attachment whose lease the lender fenced.
    EvictStaleBorrow,
    /// The lender reclaimed fenced escrow its borrower proved unattached.
    ReturnEscrow,
}

/// Why a WAL could not be loaded or replayed.
#[derive(Debug)]
pub enum WalError {
    /// A non-final line failed its checksum or did not parse, or a
    /// checksummed line replayed differently from how it was logged.
    /// `line` is 1-based.
    Corrupt { line: usize, reason: String },
    /// The stream does not start with a usable [`WalRecord::Open`].
    BadGenesis(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Corrupt { line, reason } => {
                write!(f, "WAL corrupt at line {line}: {reason}")
            }
            WalError::BadGenesis(why) => write!(f, "WAL genesis record invalid: {why}"),
        }
    }
}

impl std::error::Error for WalError {}

// CRC-32 (IEEE 802.3 polynomial), tables built at compile time — the WAL
// must not pull in a checksum crate for one function. Slicing-by-8: table
// `k` advances a byte that still has `k` bytes of the block behind it, so
// eight lookups consume eight input bytes per step; table 0 alone is the
// classic byte-at-a-time table and finishes the tail.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 of `data` (IEEE polynomial, as used by zip/png).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Line codec. Everything above `encode_line`/`decode_line` (framing, torn
// tails, salvage) sees only `{crc} {payload}\n`; everything below is the
// payload grammar of the module doc. Each `put_*` writes a leading space and
// one or more tokens; each `Fields::*` reads the same tokens back.
// ---------------------------------------------------------------------------

/// The low `N` nibbles of `bits` as lowercase hex, most significant first.
fn hex_digits<const N: usize>(bits: u64) -> [u8; N] {
    let mut out = [0u8; N];
    for (i, d) in out.iter_mut().enumerate() {
        *d = b"0123456789abcdef"[((bits >> ((N - 1 - i) * 4)) & 0xF) as usize];
    }
    out
}

fn put_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push(b' ');
    out.extend_from_slice(&buf[at..]);
}

fn put_usize(out: &mut Vec<u8>, n: usize) {
    put_u64(out, n as u64);
}

fn put_f64(out: &mut Vec<u8>, f: f64) {
    out.push(b' ');
    out.extend_from_slice(&hex_digits::<16>(f.to_bits()));
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b" 1" } else { b" 0" });
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    out.push(b' ');
    out.extend_from_slice(name.as_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.push(b' ');
    if s.is_empty() {
        out.extend_from_slice(b"\\e");
    }
    // Runs between escapes are copied whole; an escape-free string is one
    // copy.
    let mut rest = s.as_bytes();
    while let Some(at) = rest
        .iter()
        .position(|b| matches!(b, b'\\' | b' ' | b'\n' | b'\r'))
    {
        out.extend_from_slice(&rest[..at]);
        out.extend_from_slice(match rest[at] {
            b'\\' => b"\\\\",
            b' ' => b"\\s",
            b'\n' => b"\\n",
            _ => b"\\r",
        });
        rest = &rest[at + 1..];
    }
    out.extend_from_slice(rest);
}

fn put_slots(out: &mut Vec<u8>, slots: &[usize]) {
    put_usize(out, slots.len());
    for &s in slots {
        put_usize(out, s);
    }
}

fn put_config(out: &mut Vec<u8>, c: ProcessorConfig) {
    put_usize(out, c.rows);
    put_usize(out, c.cols);
}

fn put_spec(out: &mut Vec<u8>, spec: &JobSpec) {
    put_str(out, &spec.name);
    match &spec.topology {
        TopologyPref::Grid { problem_size } => {
            put_name(out, "grid");
            put_usize(out, *problem_size);
        }
        TopologyPref::Linear {
            problem_size,
            even_only,
        } => {
            put_name(out, "lin");
            put_usize(out, *problem_size);
            put_bool(out, *even_only);
        }
        TopologyPref::AnyCount { min, max, step } => {
            put_name(out, "any");
            put_usize(out, *min);
            put_usize(out, *max);
            put_usize(out, *step);
        }
        TopologyPref::Explicit { configs } => {
            put_name(out, "exp");
            put_usize(out, configs.len());
            for &c in configs {
                put_config(out, c);
            }
        }
    }
    put_config(out, spec.initial);
    put_usize(out, spec.iterations);
    put_bool(out, spec.resizable);
    put_u64(out, spec.priority as u64);
    put_bool(out, spec.survivable);
}

fn put_opt_f64(out: &mut Vec<u8>, f: Option<f64>) {
    put_bool(out, f.is_some());
    if let Some(f) = f {
        put_f64(out, f);
    }
}

fn put_pair(out: &mut Vec<u8>, (from, to): (ProcessorConfig, ProcessorConfig)) {
    put_config(out, from);
    put_config(out, to);
}

fn put_state(out: &mut Vec<u8>, state: &JobState) {
    match state {
        JobState::Queued => put_name(out, "queued"),
        JobState::Running { config } => {
            put_name(out, "running");
            put_config(out, *config);
        }
        JobState::Finished { at } => {
            put_name(out, "finished");
            put_f64(out, *at);
        }
        JobState::Failed { at, reason } => {
            put_name(out, "failed");
            put_f64(out, *at);
            put_str(out, reason);
        }
        JobState::Cancelled { at } => {
            put_name(out, "cancelled");
            put_f64(out, *at);
        }
    }
}

fn put_job(out: &mut Vec<u8>, job: &JobRecord) {
    put_spec(out, &job.spec);
    put_state(out, &job.state);
    put_slots(out, &job.slots);
    put_f64(out, job.submitted_at);
    put_opt_f64(out, job.started_at);
    put_opt_f64(out, job.finished_at);
}

fn put_profile(out: &mut Vec<u8>, p: &JobProfile) {
    put_usize(out, p.history.len());
    for h in &p.history {
        put_config(out, h.config);
        put_f64(out, h.iter_time);
        put_f64(out, h.redist_time);
    }
    put_usize(out, p.times.len());
    for t in &p.times {
        put_config(out, t.config);
        put_f64(out, t.sum);
        put_usize(out, t.count);
    }
    put_ascending(out, &p.redist_costs, |out, &pair, &seconds| {
        put_pair(out, pair);
        put_f64(out, seconds);
    });
    match p.last_resize {
        None => put_name(out, "none"),
        Some(Resize::Expanded { from, to }) => {
            put_name(out, "grow");
            put_pair(out, (from, to));
        }
        Some(Resize::Shrunk { from, to }) => {
            put_name(out, "shrink");
            put_pair(out, (from, to));
        }
    }
    put_bool(out, p.failed_expansion.is_some());
    if let Some(pair) = p.failed_expansion {
        put_pair(out, pair);
    }
}

/// A length, then `entries` in ascending key order, each written by `put`:
/// the one spelling of a map, whatever order a hash map holds it in.
fn put_ascending<K: Ord, V>(
    out: &mut Vec<u8>,
    entries: impl IntoIterator<Item = (K, V)>,
    mut put: impl FnMut(&mut Vec<u8>, K, V),
) {
    let mut entries: Vec<(K, V)> = entries.into_iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    put_usize(out, entries.len());
    for (key, value) in entries {
        put(out, key, value);
    }
}

/// A checkpoint's fields, read in place: a [`Checkpoint`]'s when one is
/// encoded, the live core's when [`Wal::compact`] writes one. Out of
/// line: it is written once per compaction, and inlined it would bloat
/// `encode_line`, which every transition runs.
#[inline(never)]
fn put_checkpoint(
    out: &mut Vec<u8>,
    state: &DurableState,
    foreign_minted: usize,
    free_slots: &[usize],
) {
    let DurableState {
        next_id,
        next_reservation,
        epoch,
        events_dropped,
        busy_proc_seconds,
        last_tick,
        expand_paused,
        reservations,
        lent_leases,
        borrowed_leases,
        jobs,
        bindings,
        profiler,
    } = state;
    put_u64(out, *next_id);
    put_u64(out, *next_reservation);
    put_u64(out, *epoch);
    put_u64(out, *events_dropped);
    put_f64(out, *busy_proc_seconds);
    put_f64(out, *last_tick);
    put_bool(out, *expand_paused);
    put_usize(out, foreign_minted);
    put_slots(out, free_slots);
    put_usize(out, reservations.len());
    for r in reservations {
        put_u64(out, r.id.0);
        put_f64(out, r.start);
        put_f64(out, r.end);
        put_usize(out, r.procs);
    }
    put_ascending(out, lent_leases, |out, &lease, slots| {
        put_u64(out, lease);
        put_slots(out, slots);
    });
    put_ascending(out, borrowed_leases, |out, &lease, b| {
        put_u64(out, lease);
        put_slots(out, &b.local);
        put_slots(out, &b.global);
        put_u64(out, b.lender_epoch);
    });
    put_ascending(out, jobs, |out, id, job| {
        put_u64(out, id.0);
        put_job(out, job);
    });
    put_ascending(out, bindings, |out, id, r| {
        put_u64(out, id.0);
        put_u64(out, r.0);
    });
    put_ascending(
        out,
        state.pending_cancel().map(|id| (id, ())),
        |out, id, ()| put_u64(out, id.0),
    );
    put_ascending(out, profiler.profiles(), |out, id, p| {
        put_u64(out, id.0);
        put_profile(out, p);
    });
}

/// Open a `{crc:08x} {payload}\n` line in `out`, its checksum a
/// placeholder until [`end_line`]; returns where the line starts.
fn begin_line(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(b"00000000 ");
    start
}

/// Close the line [`begin_line`] opened at `start`: checksum its payload.
fn end_line(out: &mut Vec<u8>, start: usize) {
    let crc = crc32(&out[start + 9..]);
    out[start..start + 8].copy_from_slice(&hex_digits::<8>(crc as u64));
    out.push(b'\n');
}

/// Append `rec` to `out` as one `{crc:08x} {payload}\n` line.
fn encode_line(out: &mut Vec<u8>, rec: &WalRecord) {
    let start = begin_line(out);
    match rec {
        WalRecord::Open {
            total_procs,
            policy,
            remap_policy,
            events_cap,
            alloc_order,
            slot_speeds,
        } => {
            out.extend_from_slice(b"open");
            put_usize(out, *total_procs);
            put_name(
                out,
                match policy {
                    QueuePolicy::Fcfs => "fcfs",
                    QueuePolicy::Backfill => "backfill",
                },
            );
            put_name(
                out,
                match remap_policy {
                    RemapPolicy::Paper => "paper",
                    RemapPolicy::GreedyExpand => "greedy",
                    RemapPolicy::NeverShrink => "nevershrink",
                    RemapPolicy::CostBenefit => "costbenefit",
                },
            );
            put_usize(out, *events_cap);
            put_name(
                out,
                match alloc_order {
                    AllocOrder::LowestId => "lowest",
                    AllocOrder::FastestFirst => "fastest",
                },
            );
            put_bool(out, slot_speeds.is_some());
            if let Some(speeds) = slot_speeds {
                put_usize(out, speeds.len());
                for &f in speeds {
                    put_f64(out, f);
                }
            }
        }
        WalRecord::Submit { spec, now } => {
            out.extend_from_slice(b"sub");
            put_spec(out, spec);
            put_f64(out, *now);
        }
        WalRecord::SubmitReserved {
            spec,
            reservation,
            now,
        } => {
            out.extend_from_slice(b"subr");
            put_spec(out, spec);
            put_u64(out, reservation.0);
            put_f64(out, *now);
        }
        WalRecord::TrySchedule { now } => {
            out.extend_from_slice(b"ts");
            put_f64(out, *now);
        }
        WalRecord::ResizePoint {
            job,
            iter_time,
            redist_time,
            now,
        } => {
            out.extend_from_slice(b"rp");
            put_u64(out, job.0);
            put_f64(out, *iter_time);
            put_f64(out, *redist_time);
            put_f64(out, *now);
        }
        WalRecord::PhaseChange { job, now } => {
            out.extend_from_slice(b"pc");
            put_u64(out, job.0);
            put_f64(out, *now);
        }
        WalRecord::NoteRedist {
            job,
            from,
            to,
            seconds,
        } => {
            out.extend_from_slice(b"nr");
            put_u64(out, job.0);
            put_config(out, *from);
            put_config(out, *to);
            put_f64(out, *seconds);
        }
        WalRecord::Finished { job, now } => {
            out.extend_from_slice(b"fin");
            put_u64(out, job.0);
            put_f64(out, *now);
        }
        WalRecord::Failed { job, reason, now } => {
            out.extend_from_slice(b"fail");
            put_u64(out, job.0);
            put_str(out, reason);
            put_f64(out, *now);
        }
        WalRecord::NodeFailed {
            job,
            dead_slots,
            to,
            now,
        } => {
            out.extend_from_slice(b"nf");
            put_u64(out, job.0);
            put_slots(out, dead_slots);
            put_config(out, *to);
            put_f64(out, *now);
        }
        WalRecord::ExpandFailed { job, now } => {
            out.extend_from_slice(b"xf");
            put_u64(out, job.0);
            put_f64(out, *now);
        }
        WalRecord::Cancel { job, now } => {
            out.extend_from_slice(b"can");
            put_u64(out, job.0);
            put_f64(out, *now);
        }
        WalRecord::Reserve { start, end, procs } => {
            out.extend_from_slice(b"rsv");
            put_f64(out, *start);
            put_f64(out, *end);
            put_usize(out, *procs);
        }
        WalRecord::CancelReservation { id } => {
            out.extend_from_slice(b"crsv");
            put_u64(out, id.0);
        }
        WalRecord::Tick { now } => {
            out.extend_from_slice(b"tick");
            put_f64(out, *now);
        }
        WalRecord::LendGrant { lease, slots, now } => {
            out.extend_from_slice(b"lg");
            put_u64(out, *lease);
            put_slots(out, slots);
            put_f64(out, *now);
        }
        WalRecord::LendReclaim { lease, now } => {
            out.extend_from_slice(b"lr");
            put_u64(out, *lease);
            put_f64(out, *now);
        }
        WalRecord::BorrowAttach {
            lease,
            global_slots,
            lender_epoch,
            now,
        } => {
            out.extend_from_slice(b"ba");
            put_u64(out, *lease);
            put_slots(out, global_slots);
            put_u64(out, *lender_epoch);
            put_f64(out, *now);
        }
        WalRecord::BorrowEvict { lease, now } => {
            out.extend_from_slice(b"be");
            put_u64(out, *lease);
            put_f64(out, *now);
        }
        WalRecord::PauseExpansion { on, now } => {
            out.extend_from_slice(b"pause");
            put_bool(out, *on);
            put_f64(out, *now);
        }
        WalRecord::EpochBump { epoch, now } => {
            out.extend_from_slice(b"epoch");
            put_u64(out, *epoch);
            put_f64(out, *now);
        }
        WalRecord::HealRepair { lease, action, now } => {
            out.extend_from_slice(b"heal");
            put_u64(out, *lease);
            put_name(
                out,
                match action {
                    HealAction::EvictStaleBorrow => "evict",
                    HealAction::ReturnEscrow => "escrow",
                },
            );
            put_f64(out, *now);
        }
        WalRecord::Checkpoint { state } => {
            out.extend_from_slice(b"ckpt");
            put_checkpoint(out, &state.state, state.foreign_minted, &state.free_slots);
        }
    }
    end_line(out, start);
}

/// The value of lowercase hex `digits`, at most 16 of them; `None` for any
/// other byte.
fn hex_value(digits: &[u8]) -> Option<u64> {
    let mut bits = 0u64;
    for &d in digits {
        let nibble = match d {
            b'0'..=b'9' => d - b'0',
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        bits = bits << 4 | nibble as u64;
    }
    Some(bits)
}

/// The space-separated tokens of one payload, read front to back: what is
/// left of the payload, `None` once its last token was read. Every reader
/// fails with a reason instead of panicking: the bytes are durable text
/// handed back from outside.
struct Fields<'a>(Option<&'a str>);

impl<'a> Fields<'a> {
    /// The next token, up to the next space or the end of the payload.
    fn token(&mut self) -> Result<&'a str, String> {
        let rest = self.0.ok_or_else(|| "missing field".to_string())?;
        Ok(match rest.bytes().position(|b| b == b' ') {
            Some(at) => {
                self.0 = Some(&rest[at + 1..]);
                &rest[..at]
            }
            None => {
                self.0 = None;
                rest
            }
        })
    }

    /// Step past a `len`-byte token at the front of `rest`, the payload
    /// left, and the space after it.
    fn skip(&mut self, rest: &'a str, len: usize) {
        self.0 = rest.get(len + 1..);
    }

    /// Canonical decimal only (no sign, no leading zero), so that decoding
    /// and re-encoding a stream reproduces it byte for byte.
    fn u64(&mut self) -> Result<u64, String> {
        // Up to 19 digits cannot overflow: read them in the pass that finds
        // the token's end. Anything else takes the checked path below.
        if let Some(rest) = self.0 {
            let b = rest.as_bytes();
            let (mut n, mut len) = (0u64, 0);
            while len < 19 && b.get(len).is_some_and(u8::is_ascii_digit) {
                n = n * 10 + (b[len] - b'0') as u64;
                len += 1;
            }
            let canonical = len == 1 || (len > 1 && b[0] != b'0');
            if canonical && matches!(b.get(len), None | Some(b' ')) {
                self.skip(rest, len);
                return Ok(n);
            }
        }
        let tok = self.token()?;
        let digits = tok.as_bytes();
        if digits.is_empty() || (digits.len() > 1 && digits[0] == b'0') {
            return Err(format!("bad integer `{tok}`"));
        }
        let mut n = 0u64;
        for &d in digits {
            if !d.is_ascii_digit() {
                return Err(format!("bad integer `{tok}`"));
            }
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add((d - b'0') as u64))
                .ok_or_else(|| format!("integer `{tok}` overflows"))?;
        }
        Ok(n)
    }

    fn usize(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        usize::try_from(n).map_err(|_| format!("integer `{n}` overflows"))
    }

    fn f64(&mut self) -> Result<f64, String> {
        // Every float is 16 digits: when a space or the end follows them,
        // take them without scanning for the token's end.
        if let Some(rest) = self.0 {
            let b = rest.as_bytes();
            if matches!(b.get(16), None | Some(b' ')) {
                if let Some(bits) = b.get(..16).and_then(hex_value) {
                    self.skip(rest, 16);
                    return Ok(f64::from_bits(bits));
                }
            }
        }
        let tok = self.token()?;
        match hex_value(tok.as_bytes()) {
            Some(bits) if tok.len() == 16 => Ok(f64::from_bits(bits)),
            _ => Err(format!("bad float `{tok}`")),
        }
    }

    fn bool(&mut self) -> Result<bool, String> {
        if let Some(rest) = self.0 {
            let b = rest.as_bytes();
            if matches!(b.first(), Some(b'0' | b'1')) && matches!(b.get(1), None | Some(b' ')) {
                self.skip(rest, 1);
                return Ok(b[0] == b'1');
            }
        }
        match self.token()? {
            "0" => Ok(false),
            "1" => Ok(true),
            tok => Err(format!("bad flag `{tok}`")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let tok = self.token()?;
        if tok == "\\e" {
            return Ok(String::new());
        }
        if tok.is_empty() {
            return Err("empty string field".to_string());
        }
        // A raw `\r` is refused like a bad escape: the encoder writes `\r`
        // as an escape, and a stored line must be the one spelling.
        if !tok.bytes().any(|b| b == b'\\' || b == b'\r') {
            return Ok(tok.to_string());
        }
        let mut s = String::with_capacity(tok.len());
        let mut chars = tok.chars();
        while let Some(c) = chars.next() {
            s.push(match c {
                '\\' => match chars.next() {
                    Some('\\') => '\\',
                    Some('s') => ' ',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    _ => return Err(format!("bad escape in `{tok}`")),
                },
                '\r' => return Err(format!("raw carriage return in `{tok}`")),
                c => c,
            });
        }
        Ok(s)
    }

    fn slots(&mut self) -> Result<Vec<usize>, String> {
        // Collected through `Result`, so a huge bogus length allocates
        // nothing up front and fails at the first missing token.
        (0..self.usize()?).map(|_| self.usize()).collect()
    }

    fn config(&mut self) -> Result<ProcessorConfig, String> {
        let (rows, cols) = (self.usize()?, self.usize()?);
        if rows == 0 || cols == 0 {
            return Err(format!("degenerate configuration {rows}x{cols}"));
        }
        Ok(ProcessorConfig { rows, cols })
    }

    fn spec(&mut self) -> Result<JobSpec, String> {
        let name = self.string()?;
        let topology = match self.token()? {
            "grid" => TopologyPref::Grid {
                problem_size: self.usize()?,
            },
            "lin" => TopologyPref::Linear {
                problem_size: self.usize()?,
                even_only: self.bool()?,
            },
            "any" => TopologyPref::AnyCount {
                min: self.usize()?,
                max: self.usize()?,
                step: self.usize()?,
            },
            "exp" => TopologyPref::Explicit {
                configs: (0..self.usize()?)
                    .map(|_| self.config())
                    .collect::<Result<_, _>>()?,
            },
            tok => return Err(format!("unknown topology `{tok}`")),
        };
        Ok(JobSpec {
            name,
            topology,
            initial: self.config()?,
            iterations: self.usize()?,
            resizable: self.bool()?,
            priority: {
                let p = self.u64()?;
                u8::try_from(p).map_err(|_| format!("priority `{p}` overflows"))?
            },
            survivable: self.bool()?,
        })
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, String> {
        Ok(if self.bool()? {
            Some(self.f64()?)
        } else {
            None
        })
    }

    fn pair(&mut self) -> Result<(ProcessorConfig, ProcessorConfig), String> {
        Ok((self.config()?, self.config()?))
    }

    /// A length, then that many `entry`s, keys strictly ascending: the one
    /// order the encoder writes a map in. A hash map is filled in that
    /// order too.
    fn ascending<K: Ord + fmt::Debug, V, M: FromIterator<(K, V)>>(
        &mut self,
        mut entry: impl FnMut(&mut Self) -> Result<(K, V), String>,
    ) -> Result<M, String> {
        let mut map = BTreeMap::new();
        for _ in 0..self.usize()? {
            let (key, value) = entry(self)?;
            if map.last_key_value().is_some_and(|(last, _)| *last >= key) {
                return Err(format!("key {key:?} out of order"));
            }
            map.insert(key, value);
        }
        Ok(map.into_iter().collect())
    }

    fn job_id(&mut self) -> Result<JobId, String> {
        Ok(JobId(self.u64()?))
    }

    fn state(&mut self) -> Result<JobState, String> {
        Ok(match self.token()? {
            "queued" => JobState::Queued,
            "running" => JobState::Running {
                config: self.config()?,
            },
            "finished" => JobState::Finished { at: self.f64()? },
            "failed" => JobState::Failed {
                at: self.f64()?,
                reason: self.string()?,
            },
            "cancelled" => JobState::Cancelled { at: self.f64()? },
            tok => return Err(format!("unknown job state `{tok}`")),
        })
    }

    fn job(&mut self) -> Result<JobRecord, String> {
        Ok(JobRecord {
            spec: self.spec()?,
            state: self.state()?,
            slots: self.slots()?,
            submitted_at: self.f64()?,
            started_at: self.opt_f64()?,
            finished_at: self.opt_f64()?,
        })
    }

    fn profile(&mut self) -> Result<JobProfile, String> {
        let history = (0..self.usize()?)
            .map(|_| {
                Ok(PerfRecord {
                    config: self.config()?,
                    iter_time: self.f64()?,
                    redist_time: self.f64()?,
                })
            })
            .collect::<Result<_, String>>()?;
        let times = (0..self.usize()?)
            .map(|_| {
                Ok(ConfigTimes {
                    config: self.config()?,
                    sum: self.f64()?,
                    count: self.usize()?,
                })
            })
            .collect::<Result<_, String>>()?;
        let redist_costs = self.ascending(|f| Ok((f.pair()?, f.f64()?)))?;
        let last_resize = match self.token()? {
            "none" => None,
            "grow" => {
                let (from, to) = self.pair()?;
                Some(Resize::Expanded { from, to })
            }
            "shrink" => {
                let (from, to) = self.pair()?;
                Some(Resize::Shrunk { from, to })
            }
            tok => return Err(format!("unknown resize `{tok}`")),
        };
        let failed_expansion = if self.bool()? {
            Some(self.pair()?)
        } else {
            None
        };
        Ok(JobProfile {
            history,
            times,
            redist_costs,
            last_resize,
            failed_expansion,
        })
    }

    fn record(&mut self) -> Result<WalRecord, String> {
        Ok(match self.token()? {
            "open" => WalRecord::Open {
                total_procs: self.usize()?,
                policy: match self.token()? {
                    "fcfs" => QueuePolicy::Fcfs,
                    "backfill" => QueuePolicy::Backfill,
                    tok => return Err(format!("unknown queue policy `{tok}`")),
                },
                remap_policy: match self.token()? {
                    "paper" => RemapPolicy::Paper,
                    "greedy" => RemapPolicy::GreedyExpand,
                    "nevershrink" => RemapPolicy::NeverShrink,
                    "costbenefit" => RemapPolicy::CostBenefit,
                    tok => return Err(format!("unknown remap policy `{tok}`")),
                },
                events_cap: self.usize()?,
                alloc_order: match self.token()? {
                    "lowest" => AllocOrder::LowestId,
                    "fastest" => AllocOrder::FastestFirst,
                    tok => return Err(format!("unknown allocation order `{tok}`")),
                },
                slot_speeds: if self.bool()? {
                    Some(
                        (0..self.usize()?)
                            .map(|_| self.f64())
                            .collect::<Result<_, _>>()?,
                    )
                } else {
                    None
                },
            },
            "sub" => WalRecord::Submit {
                spec: self.spec()?,
                now: self.f64()?,
            },
            "subr" => WalRecord::SubmitReserved {
                spec: self.spec()?,
                reservation: ReservationId(self.u64()?),
                now: self.f64()?,
            },
            "ts" => WalRecord::TrySchedule { now: self.f64()? },
            "rp" => WalRecord::ResizePoint {
                job: JobId(self.u64()?),
                iter_time: self.f64()?,
                redist_time: self.f64()?,
                now: self.f64()?,
            },
            "pc" => WalRecord::PhaseChange {
                job: JobId(self.u64()?),
                now: self.f64()?,
            },
            "nr" => WalRecord::NoteRedist {
                job: JobId(self.u64()?),
                from: self.config()?,
                to: self.config()?,
                seconds: self.f64()?,
            },
            "fin" => WalRecord::Finished {
                job: JobId(self.u64()?),
                now: self.f64()?,
            },
            "fail" => WalRecord::Failed {
                job: JobId(self.u64()?),
                reason: self.string()?,
                now: self.f64()?,
            },
            "nf" => WalRecord::NodeFailed {
                job: JobId(self.u64()?),
                dead_slots: self.slots()?,
                to: self.config()?,
                now: self.f64()?,
            },
            "xf" => WalRecord::ExpandFailed {
                job: JobId(self.u64()?),
                now: self.f64()?,
            },
            "can" => WalRecord::Cancel {
                job: JobId(self.u64()?),
                now: self.f64()?,
            },
            "rsv" => WalRecord::Reserve {
                start: self.f64()?,
                end: self.f64()?,
                procs: self.usize()?,
            },
            "crsv" => WalRecord::CancelReservation {
                id: ReservationId(self.u64()?),
            },
            "tick" => WalRecord::Tick { now: self.f64()? },
            "lg" => WalRecord::LendGrant {
                lease: self.u64()?,
                slots: self.slots()?,
                now: self.f64()?,
            },
            "lr" => WalRecord::LendReclaim {
                lease: self.u64()?,
                now: self.f64()?,
            },
            "ba" => WalRecord::BorrowAttach {
                lease: self.u64()?,
                global_slots: self.slots()?,
                lender_epoch: self.u64()?,
                now: self.f64()?,
            },
            "be" => WalRecord::BorrowEvict {
                lease: self.u64()?,
                now: self.f64()?,
            },
            "pause" => WalRecord::PauseExpansion {
                on: self.bool()?,
                now: self.f64()?,
            },
            "epoch" => WalRecord::EpochBump {
                epoch: self.u64()?,
                now: self.f64()?,
            },
            "heal" => WalRecord::HealRepair {
                lease: self.u64()?,
                action: match self.token()? {
                    "evict" => HealAction::EvictStaleBorrow,
                    "escrow" => HealAction::ReturnEscrow,
                    tok => return Err(format!("unknown heal action `{tok}`")),
                },
                now: self.f64()?,
            },
            "ckpt" => WalRecord::Checkpoint {
                state: Box::new(self.checkpoint()?),
            },
            tok => return Err(format!("unknown record tag `{tok}`")),
        })
    }

    fn checkpoint(&mut self) -> Result<Checkpoint, String> {
        // The scalars lead the line; fields below are read as written.
        let (next_id, next_reservation) = (self.u64()?, self.u64()?);
        let (epoch, events_dropped) = (self.u64()?, self.u64()?);
        let (busy_proc_seconds, last_tick, expand_paused) =
            (self.f64()?, self.f64()?, self.bool()?);
        let (foreign_minted, free_slots) = (self.usize()?, self.slots()?);
        let reservations = (0..self.usize()?)
            .map(|_| {
                Ok(Reservation {
                    id: ReservationId(self.u64()?),
                    start: self.f64()?,
                    end: self.f64()?,
                    procs: self.usize()?,
                })
            })
            .collect::<Result<_, String>>()?;
        let lent_leases = self.ascending(|f| Ok((f.u64()?, f.slots()?)))?;
        let borrowed_leases = self.ascending(|f| {
            Ok((
                f.u64()?,
                BorrowedLease {
                    local: f.slots()?,
                    global: f.slots()?,
                    lender_epoch: f.u64()?,
                },
            ))
        })?;
        let jobs = self.ascending(|f| Ok((f.job_id()?, f.job()?)))?;
        let bindings = self.ascending(|f| Ok((f.job_id()?, ReservationId(f.u64()?))))?;
        let pending_cancel = self
            .ascending::<_, _, BTreeMap<_, ()>>(|f| Ok((f.job_id()?, ())))?
            .into_keys()
            .collect();
        let profiler = Profiler {
            jobs: self.ascending(|f| Ok((f.job_id()?, f.profile()?)))?,
        };
        Ok(Checkpoint {
            state: DurableState {
                next_id,
                next_reservation,
                epoch,
                events_dropped,
                busy_proc_seconds,
                last_tick,
                expand_paused,
                reservations,
                lent_leases,
                borrowed_leases,
                jobs,
                bindings,
                profiler,
            },
            foreign_minted,
            free_slots,
            pending_cancel,
        })
    }
}

fn decode_line(line: &str) -> Result<WalRecord, String> {
    // A well-formed line has its first space at byte 8.
    let head = line.as_bytes().get(..9);
    let (crc_hex, payload) = match head {
        Some([crc @ .., b' ']) if !crc.contains(&b' ') => (&line[..8], &line[9..]),
        _ => line
            .split_once(' ')
            .ok_or_else(|| "missing checksum field".to_string())?,
    };
    // Compared as text against the one spelling `encode_line` writes, so an
    // upper-case digit, a sign or a different length is a mismatch too
    // (`from_str_radix` would take all three, and a flipped case bit in a
    // checksum letter would go unnoticed).
    let got = crc32(payload.as_bytes());
    if crc_hex.as_bytes() != hex_digits::<8>(got as u64) {
        return Err(format!(
            "checksum mismatch (stored {crc_hex}, computed {got:08x})"
        ));
    }
    let mut fields = Fields(Some(payload));
    let rec = fields
        .record()
        .map_err(|why| format!("unparseable record: {why}"))?;
    match fields.0 {
        None => Ok(rec),
        Some(_) => Err(format!(
            "unparseable record: trailing field `{}`",
            fields.token()?
        )),
    }
}

/// An append-only, checksummed record stream, held as its wire bytes plus
/// a record count (see *In memory* in the module doc). It lives in memory
/// only: durability is the owner's business, through [`Wal::encode`].
pub struct Wal {
    /// Every record's `{crc:08x} {payload}\n` line, in append order:
    /// ASCII around the UTF-8 of logged strings.
    bytes: Vec<u8>,
    records: usize,
    /// Bytes written since the WAL was opened, see [`Wal::appended_bytes`].
    appended: u64,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("records", &self.records)
            .finish()
    }
}

impl Wal {
    /// An empty WAL (tests, simulators, crash-restart drills).
    pub fn in_memory() -> Self {
        Wal {
            bytes: Vec::new(),
            records: 0,
            appended: 0,
        }
    }

    /// Parse an encoded stream (see [`Wal::encode`]) into an in-memory WAL.
    pub fn decode(text: &str) -> Result<Self, WalError> {
        let (wal, scan) = Wal::scanned(text);
        scan.strict()?;
        Ok(wal)
    }

    /// Parse an encoded stream, salvaging past interior corruption: the WAL
    /// keeps the last-good prefix and the damaged remainder is returned in
    /// the [`WalSalvage`] (`None` when the stream was clean). The torn-tail
    /// tolerance of [`Wal::decode`] is unchanged — a torn final line is
    /// dropped silently, not reported as salvage.
    pub fn decode_salvage(text: &str) -> (Self, Option<WalSalvage>) {
        let (wal, scan) = Wal::scanned(text);
        (wal, scan.salvage(text))
    }

    /// The full stream in wire format: a copy of the bytes the WAL holds.
    pub fn encode(&self) -> String {
        self.text().to_owned()
    }

    /// The records as JSON, one object per line and no checksums: a
    /// rendering for people (failure artifacts, `jq`). Nothing reads it
    /// back, and non-finite floats print as `null`.
    pub fn dump_json(&self) -> String {
        let mut out = String::new();
        for rec in self.records() {
            out.push_str(&serde_json::to_string(&rec).expect("WAL records always serialize"));
            out.push('\n');
        }
        out
    }

    /// Append one record.
    pub fn append(&mut self, rec: WalRecord) {
        self.push(&rec);
    }

    /// [`Wal::append`] by reference: the record is encoded, not kept, so a
    /// caller can move its fields back out afterwards.
    pub(crate) fn push(&mut self, rec: &WalRecord) {
        let start = self.bytes.len();
        encode_line(&mut self.bytes, rec);
        self.records += 1;
        self.appended += (self.bytes.len() - start) as u64;
    }

    /// Keep one line that [`scan`] accepted: `body` without its line break.
    pub(crate) fn push_line(&mut self, body: &str) {
        self.bytes.extend_from_slice(body.as_bytes());
        self.bytes.push(b'\n');
        self.records += 1;
        self.appended += body.len() as u64 + 1;
    }

    /// Rewrite the stream as its genesis line and the
    /// [`WalRecord::Checkpoint`] of a core's durable `state`, its pool's
    /// minted count and its free slots, encoded in place: the same line
    /// as the record's, without building the record.
    ///
    /// # Panics
    ///
    /// Panics if the stream is empty.
    pub(crate) fn compact(
        &mut self,
        state: &DurableState,
        foreign_minted: usize,
        free_slots: &[usize],
    ) {
        let genesis = self
            .bytes
            .iter()
            .position(|&b| b == b'\n')
            .expect("a WAL in use holds its genesis line")
            + 1;
        self.bytes.truncate(genesis);
        let start = begin_line(&mut self.bytes);
        self.bytes.extend_from_slice(b"ckpt");
        put_checkpoint(&mut self.bytes, state, foreign_minted, free_slots);
        end_line(&mut self.bytes, start);
        self.records = 2;
        self.appended += (self.bytes.len() - genesis) as u64;
    }

    /// An empty in-memory WAL with room for `bytes` of text.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Wal {
            bytes: Vec::with_capacity(bytes),
            ..Wal::in_memory()
        }
    }

    /// The stream's wire text.
    pub(crate) fn text(&self) -> &str {
        std::str::from_utf8(&self.bytes).expect("the codec writes ASCII around UTF-8 strings")
    }

    /// The records, decoded from the stream on every call: `O(history)`.
    pub fn records(&self) -> Vec<WalRecord> {
        let mut out = Vec::with_capacity(self.records);
        scan(self.text(), |_, _, rec| {
            out.push(rec);
            Ok::<_, std::convert::Infallible>(())
        })
        .unwrap_or_else(|never| match never {})
        .strict()
        .expect("a WAL holds only lines its codec wrote or accepted");
        out
    }

    pub fn len(&self) -> usize {
        self.records
    }

    /// Bytes written to the stream since this WAL was created, decoded or
    /// recovered: every appended line, and the checkpoint line of every
    /// compaction. It never decreases, so it tells how much a compaction
    /// is owed, and any change to the stream changes it.
    pub fn appended_bytes(&self) -> u64 {
        self.appended
    }

    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// An in-memory WAL of `text`'s clean prefix, and the scan that found
    /// it.
    fn scanned(text: &str) -> (Self, Scan) {
        let mut wal = Wal::with_capacity(text.len());
        let scan = scan(text, |_, body, _| {
            wal.push_line(body);
            Ok::<_, std::convert::Infallible>(())
        })
        .unwrap_or_else(|never| match never {});
        if scan.clean_len == 0 {
            // A damaged checkpoint took its genesis line with it.
            wal = Wal::in_memory();
        }
        (wal, scan)
    }
}

/// Where a [`scan`] stopped.
pub(crate) struct Scan {
    /// Byte length of the clean prefix: every line fully parsed and
    /// newline-terminated (or the final line, if it parsed without one).
    /// Zero when the checkpoint after genesis is damaged.
    pub(crate) clean_len: usize,
    /// The 1-based line number and reason of the first *interior* line
    /// that failed its checksum or did not parse.
    corrupt: Option<(usize, String)>,
}

impl Scan {
    /// Interior corruption as an error, for the strict readers.
    pub(crate) fn strict(self) -> Result<(), WalError> {
        match self.corrupt {
            None => Ok(()),
            Some((line, reason)) => Err(WalError::Corrupt { line, reason }),
        }
    }

    /// Interior corruption as a salvage report on `text`, the scanned
    /// stream: everything past the clean prefix is quarantined.
    pub(crate) fn salvage(self, text: &str) -> Option<WalSalvage> {
        let clean_len = self.clean_len;
        self.corrupt.map(|(line, reason)| WalSalvage {
            line,
            reason,
            quarantined: text[clean_len..].to_string(),
        })
    }
}

/// Walk `text` line by line — frame, check the CRC, parse — and hand each
/// record to `each` with its 1-based line number and its line without the
/// line break. Blank lines are skipped. A torn final line (unterminated:
/// the crash landed mid-append) that does not decode is dropped silently
/// and is not corruption; the first interior line that does not decode
/// stops the walk and is reported in the [`Scan`]. An error from `each`
/// stops the walk and is returned as is.
///
/// The record after genesis that reads as a checkpoint (its payload starts
/// `ckpt `) but does not decode, torn or not, is corruption that leaves no
/// clean prefix at all: it held the whole state the rest of the stream
/// builds on, and a genesis without it is not a state the writer was in.
pub(crate) fn scan<E>(
    text: &str,
    mut each: impl FnMut(usize, &str, WalRecord) -> Result<(), E>,
) -> Result<Scan, E> {
    let mut clean_len = 0usize;
    let mut offset = 0usize;
    let mut records = 0usize;
    for (idx, line) in text.split_inclusive('\n').enumerate() {
        // The line without its `\n` and any `\r`s before it.
        let terminated = line.ends_with('\n');
        let mut end = line.len() - terminated as usize;
        while line.as_bytes()[..end].last() == Some(&b'\r') {
            end -= 1;
        }
        let body = &line[..end];
        offset += line.len();
        if body.is_empty() {
            clean_len = offset;
            continue;
        }
        match decode_line(body) {
            Ok(rec) => {
                each(idx + 1, body, rec)?;
                clean_len = offset;
                records += 1;
            }
            Err(reason) if records == 1 && body.as_bytes().get(9..14) == Some(b"ckpt ") => {
                return Ok(Scan {
                    clean_len: 0,
                    corrupt: Some((idx + 1, format!("damaged checkpoint: {reason}"))),
                })
            }
            // Torn tail: the crash interrupted the final append. Drop it.
            Err(_) if !terminated => break,
            Err(reason) => {
                return Ok(Scan {
                    clean_len,
                    corrupt: Some((idx + 1, reason)),
                })
            }
        }
    }
    Ok(Scan {
        clean_len,
        corrupt: None,
    })
}

/// What a salvage load recovered from a WAL with a corrupt interior: the
/// stream was truncated to its last-good prefix and the damaged remainder
/// quarantined here.
#[derive(Clone, Debug, PartialEq)]
pub struct WalSalvage {
    /// 1-based line number of the first corrupt record.
    pub line: usize,
    /// Why that line failed (checksum mismatch, unparseable record).
    pub reason: String,
    /// The corrupt remainder, verbatim — everything past the clean prefix.
    pub quarantined: String,
}

/// A summary of WAL contents by record type, for diagnostics and tests.
pub fn record_histogram(records: &[WalRecord]) -> BTreeMap<&'static str, usize> {
    let mut h = BTreeMap::new();
    for r in records {
        let k = match r {
            WalRecord::Open { .. } => "open",
            WalRecord::Submit { .. } => "submit",
            WalRecord::SubmitReserved { .. } => "submit_reserved",
            WalRecord::TrySchedule { .. } => "try_schedule",
            WalRecord::ResizePoint { .. } => "resize_point",
            WalRecord::PhaseChange { .. } => "phase_change",
            WalRecord::NoteRedist { .. } => "note_redist",
            WalRecord::Finished { .. } => "finished",
            WalRecord::Failed { .. } => "failed",
            WalRecord::NodeFailed { .. } => "node_failed",
            WalRecord::ExpandFailed { .. } => "expand_failed",
            WalRecord::Cancel { .. } => "cancel",
            WalRecord::Reserve { .. } => "reserve",
            WalRecord::CancelReservation { .. } => "cancel_reservation",
            WalRecord::Tick { .. } => "tick",
            WalRecord::LendGrant { .. } => "lend_grant",
            WalRecord::LendReclaim { .. } => "lend_reclaim",
            WalRecord::BorrowAttach { .. } => "borrow_attach",
            WalRecord::BorrowEvict { .. } => "borrow_evict",
            WalRecord::PauseExpansion { .. } => "pause_expansion",
            WalRecord::EpochBump { .. } => "epoch_bump",
            WalRecord::HealRepair { .. } => "heal_repair",
            WalRecord::Checkpoint { .. } => "checkpoint",
        };
        *h.entry(k).or_insert(0) += 1;
    }
    h
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// One record of every variant, genesis first.
    fn sample() -> Vec<WalRecord> {
        let spec = JobSpec::new(
            "LU 8000",
            TopologyPref::Grid { problem_size: 8000 },
            ProcessorConfig::new(2, 2),
            10,
        )
        .with_priority(3)
        .survivable();
        vec![
            WalRecord::Open {
                total_procs: 8,
                policy: QueuePolicy::Fcfs,
                remap_policy: RemapPolicy::default(),
                events_cap: 1024,
                alloc_order: AllocOrder::LowestId,
                slot_speeds: Some(vec![1.0, 0.5, 2.25]),
            },
            WalRecord::Submit {
                spec: spec.clone(),
                now: 0.5,
            },
            WalRecord::SubmitReserved {
                spec,
                reservation: ReservationId(2),
                now: 0.75,
            },
            WalRecord::TrySchedule { now: 1.5 },
            WalRecord::ResizePoint {
                job: JobId(1),
                iter_time: 129.63,
                redist_time: 0.0,
                now: 131.0,
            },
            WalRecord::PhaseChange {
                job: JobId(1),
                now: 140.0,
            },
            WalRecord::NoteRedist {
                job: JobId(1),
                from: ProcessorConfig::new(2, 2),
                to: ProcessorConfig::new(2, 3),
                seconds: 8.4,
            },
            WalRecord::Finished {
                job: JobId(2),
                now: 150.0,
            },
            WalRecord::Failed {
                job: JobId(3),
                reason: "node 2 crashed".into(),
                now: 9.25,
            },
            WalRecord::NodeFailed {
                job: JobId(4),
                dead_slots: vec![5, 6],
                to: ProcessorConfig::linear(2),
                now: 9.5,
            },
            WalRecord::ExpandFailed {
                job: JobId(1),
                now: 9.75,
            },
            WalRecord::Cancel {
                job: JobId(5),
                now: 9.875,
            },
            WalRecord::Reserve {
                start: 10.0,
                end: 20.0,
                procs: 4,
            },
            WalRecord::CancelReservation {
                id: ReservationId(1),
            },
            WalRecord::Tick { now: 10.5 },
            WalRecord::LendGrant {
                lease: 7,
                slots: vec![0, 1],
                now: 11.0,
            },
            WalRecord::BorrowAttach {
                lease: 8,
                global_slots: vec![12, 13],
                lender_epoch: 2,
                now: 11.5,
            },
            WalRecord::BorrowEvict {
                lease: 8,
                now: 14.0,
            },
            WalRecord::LendReclaim {
                lease: 7,
                now: 15.0,
            },
            WalRecord::PauseExpansion {
                on: true,
                now: 16.0,
            },
            WalRecord::EpochBump {
                epoch: 3,
                now: 17.0,
            },
            WalRecord::HealRepair {
                lease: 8,
                action: HealAction::EvictStaleBorrow,
                now: 18.0,
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_records() {
        let mut wal = Wal::in_memory();
        for r in sample() {
            wal.append(r);
        }
        let text = wal.encode();
        let back = Wal::decode(&text).expect("clean stream decodes");
        assert_eq!(back.records(), wal.records());
    }

    #[test]
    fn wire_format_is_the_documented_one() {
        // The module doc's example line, checksum included.
        let mut wal = Wal::in_memory();
        wal.append(WalRecord::Finished {
            job: JobId(12),
            now: 3.5,
        });
        assert_eq!(wal.encode(), "4a99c3de fin 12 400c000000000000\n");
    }

    #[test]
    fn json_dump_is_one_readable_object_per_record() {
        let mut wal = Wal::in_memory();
        for r in sample() {
            wal.append(r);
        }
        let dump = wal.dump_json();
        assert_eq!(dump.lines().count(), wal.len());
        assert_eq!(
            dump.lines().nth(8),
            Some(r#"{"type":"failed","job":3,"reason":"node 2 crashed","now":9.25}"#)
        );
        // One-way: the loaders take the line codec only.
        assert!(matches!(
            Wal::decode(&dump),
            Err(WalError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn torn_tail_is_dropped() {
        let mut wal = Wal::in_memory();
        for r in sample() {
            wal.append(r);
        }
        let text = wal.encode();
        // Chop the final record mid-line, as a crash during append would.
        let cut = text.len() - 10;
        let torn = &text[..cut];
        let back = Wal::decode(torn).expect("torn tail tolerated");
        assert_eq!(back.len(), wal.len() - 1);
        assert_eq!(back.records(), &wal.records()[..wal.len() - 1]);
    }

    #[test]
    fn interior_corruption_is_rejected() {
        let mut wal = Wal::in_memory();
        for r in sample() {
            wal.append(r);
        }
        let mut text = wal.encode();
        // Flip a byte inside the second line's payload.
        let second_line_start = text.find('\n').unwrap() + 1;
        let pos = second_line_start + 12;
        unsafe { text.as_bytes_mut()[pos] ^= 0x01 };
        let err = Wal::decode(&text).expect_err("corruption must be detected");
        assert!(matches!(err, WalError::Corrupt { line: 2, .. }), "{err}");
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        // Floats travel as the hex of `to_bits()`, so every bit pattern —
        // signed zero, subnormals, the infinities, NaN payloads — comes
        // back as it went in; the recovery-equality guarantee leans on this.
        let values = [
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            123.456e-78,
            -0.0,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0xfff0_dead_beef_0001),
        ];
        for v in values {
            let mut wal = Wal::in_memory();
            wal.append(WalRecord::Tick { now: v });
            let back = Wal::decode(&wal.encode()).unwrap();
            match back.records()[0] {
                WalRecord::Tick { now } => assert_eq!(now.to_bits(), v.to_bits()),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn crc32_matches_the_bytewise_definition() {
        // The standard check value, then every length around the 8-byte
        // block boundary against the one-table loop slicing-by-8 replaced.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        let data: Vec<u8> = (0..67u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let mut c = 0xFFFF_FFFFu32;
            for &b in &data[..len] {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            assert_eq!(crc32(&data[..len]), c ^ 0xFFFF_FFFF, "length {len}");
        }
    }

    #[test]
    fn salvage_recovers_prefix_and_reports_remainder() {
        let mut wal = Wal::in_memory();
        for r in sample() {
            wal.append(r);
        }
        let mut text = wal.encode();
        // Bit-flip inside the fourth line's payload.
        let mut start = 0;
        for _ in 0..3 {
            start = text[start..].find('\n').unwrap() + start + 1;
        }
        unsafe { text.as_bytes_mut()[start + 15] ^= 0x40 };
        let (back, salvage) = Wal::decode_salvage(&text);
        let salvage = salvage.expect("corruption must be reported");
        assert_eq!(salvage.line, 4);
        assert!(salvage.reason.contains("checksum"), "{}", salvage.reason);
        assert_eq!(back.records(), &wal.records()[..3]);
        // Everything from the corrupt line onward is quarantined verbatim.
        assert_eq!(
            salvage.quarantined,
            &text[text.len() - salvage.quarantined.len()..]
        );
        assert!(salvage.quarantined.starts_with(&text[start..start + 8]));
        // A clean stream salvages nothing.
        let (clean, none) = Wal::decode_salvage(&wal.encode());
        assert!(none.is_none());
        assert_eq!(clean.records(), wal.records());
    }

    #[test]
    fn single_byte_flips_never_decode_clean() {
        // Every byte of the stream, both the case bit and the low bit: the
        // decoder may salvage a prefix or drop a torn tail, but it must
        // never hand back the full history as if nothing happened.
        let records = sample();
        let mut wal = Wal::in_memory();
        for r in records.clone() {
            wal.append(r);
        }
        let clean = wal.encode().into_bytes();
        for pos in 0..clean.len() {
            for mask in [0x20u8, 0x01] {
                let mut bytes = clean.clone();
                bytes[pos] ^= mask;
                let text = String::from_utf8_lossy(&bytes);
                let (back, salvage) = Wal::decode_salvage(&text);
                assert!(
                    salvage.is_some() || back.records() != records.as_slice(),
                    "flip {mask:#04x} at byte {pos} ({:?}) went undetected",
                    clean[pos] as char
                );
            }
        }
    }

    #[test]
    fn raw_carriage_return_in_a_string_is_refused() {
        // The encoder escapes `\r`, so a raw one is not its spelling, even
        // under a valid checksum: kept, it would make the stored line
        // differ from the record's re-encoding.
        let payload = "fail 3 node\r2 4022800000000000";
        let line = format!("{:08x} {payload}\n", crc32(payload.as_bytes()));
        let err = Wal::decode(&line).expect_err("raw \\r must not decode");
        assert!(
            matches!(&err, WalError::Corrupt { line: 1, reason } if reason.contains("raw carriage return")),
            "{err}"
        );
        let escaped = payload.replace('\r', "\\r");
        let line = format!("{:08x} {escaped}\n", crc32(escaped.as_bytes()));
        assert_eq!(Wal::decode(&line).unwrap().encode(), line);
    }

    #[test]
    fn histogram_counts_types() {
        let h = record_histogram(&sample());
        assert_eq!(
            h.len(),
            sample().len(),
            "sample() holds one record per variant"
        );
        assert_eq!(h.get("open"), Some(&1));
        assert_eq!(h.get("try_schedule"), Some(&1));
        assert_eq!(h.get("failed"), Some(&1));
        assert_eq!(h.get("node_failed"), Some(&1));
        assert_eq!(h.get("reserve"), Some(&1));
    }
}
