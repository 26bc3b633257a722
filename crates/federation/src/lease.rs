//! Lease records and the grant/ack/release control messages.
//!
//! A lease moves processors from an idle *lender* shard to a starved
//! *borrower* under an expiring term. Both sides journal their half into
//! their own WAL (`lend_grant` / `borrow_attach` records in
//! `reshape-core`); the federation keeps the cross-shard protocol state
//! here. The safety argument is time-based and needs no coordination at
//! the deadline:
//!
//! * the borrower evicts at `expires` (timer if live, recovery fixup if it
//!   was down when the lease ran out);
//! * the lender reclaims when it receives `Release`, or unconditionally at
//!   `expires + grace` — strictly after every possible borrower eviction.
//!
//! So the intervals in which each side may schedule on the lease's
//! processors are disjoint by construction, even across crash-restarts of
//! either side.

// Peer or durable bytes reach this module: they fail as a value, never
// through an `unwrap`.
#![deny(clippy::unwrap_used)]

use reshape_telemetry::TraceCtx;

/// Federation-wide lease protocol parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeaseConfig {
    /// Lease term: the borrower must evict at `granted_at + term`.
    pub term: f64,
    /// Reclaim slack: the lender force-reclaims at `expires + grace` even
    /// if no `Release` ever arrived (crashed or hung borrower).
    pub grace: f64,
    /// Minimum interval between lend attempts for the same
    /// (lender, borrower) pair.
    pub retry_backoff: f64,
    /// Idle processors a donor keeps for itself when lending.
    pub min_spare: usize,
    /// Suspicion timeout: a lender whose link to a borrower stays severed
    /// this long past the cut (or past a grant into the cut) bumps its
    /// fencing epoch and fences every outstanding lease to that borrower.
    pub suspicion: f64,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            term: 60.0,
            grace: 15.0,
            retry_backoff: 5.0,
            min_spare: 1,
            suspicion: 20.0,
        }
    }
}

/// Messages on the shard-to-shard lease bus. Carried inside sequenced
/// frames ([`reshape_core::ctrl::seq`]), so loss/duplication/reordering on
/// the wire are masked.
#[derive(Clone, Debug, PartialEq)]
pub enum LeaseMsg {
    /// Lender → borrower: `global` processors are yours until `expires`.
    /// The lender journaled the escrow *before* this was sent, so a lender
    /// crash between journal and wire still reclaims deterministically.
    /// `lender_epoch` is the lender's fencing epoch at grant time; the
    /// borrower journals it with the attachment and the oracle audits it.
    Grant {
        lease: u64,
        global: Vec<usize>,
        expires: f64,
        lender_epoch: u64,
    },
    /// Borrower → lender: the grant was attached.
    Ack { lease: u64 },
    /// Borrower → lender: the borrower no longer holds any of the lease's
    /// processors (evicted or never attached); reclaim is safe now.
    Release { lease: u64 },
    /// Anti-entropy: a compact ledger digest sent to a formerly-severed
    /// peer at partition heal. `entries` describe every lease the sender
    /// shares with the receiver (and whether the sender still holds an
    /// attachment for it); `hash` is [`digest_hash`] over them, so a
    /// mangled digest is ignored rather than acted on.
    Digest {
        from_epoch: u64,
        hash: u64,
        entries: Vec<DigestEntry>,
    },
}

/// A [`LeaseMsg`] plus the causal trace context it travels with — the
/// in-band parent edge of the federation trace model. The ctx is inert
/// metadata: span ids never feed control flow, carry no entropy, and are
/// all-zero when tracing is off, so frames (and therefore every sequenced
/// delivery, retransmit, and partition drop) are bitwise independent of
/// whether tracing is enabled.
#[derive(Clone, Debug, PartialEq)]
pub struct TracedMsg {
    pub ctx: TraceCtx,
    pub msg: LeaseMsg,
}

impl TracedMsg {
    pub fn new(ctx: TraceCtx, msg: LeaseMsg) -> Self {
        TracedMsg { ctx, msg }
    }
}

impl From<LeaseMsg> for TracedMsg {
    /// Wrap a message with no specific cause (ctx zero: the receiver
    /// parents to the trace head instead).
    fn from(msg: LeaseMsg) -> Self {
        TracedMsg {
            ctx: TraceCtx::default(),
            msg,
        }
    }
}

/// One lease's line in an anti-entropy digest.
#[derive(Clone, Debug, PartialEq)]
pub struct DigestEntry {
    pub lease: u64,
    /// True when the sender is the lender of this lease (its slots are in
    /// escrow there); false when the sender borrows it.
    pub lent: bool,
    /// The lender epoch the lease was minted under.
    pub lender_epoch: u64,
    /// Whether the sender currently holds a live attachment (borrower
    /// side) or live escrow (lender side) for the lease.
    pub attached: bool,
    /// Federation-global processor ids under the lease.
    pub global: Vec<usize>,
}

/// FNV-1a over the digest entries — cheap, deterministic, and sensitive to
/// order, so both sides summarize the same ledger to the same 64 bits.
pub fn digest_hash(entries: &[DigestEntry]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for e in entries {
        eat(e.lease);
        eat(e.lent as u64);
        eat(e.lender_epoch);
        eat(e.attached as u64);
        eat(e.global.len() as u64);
        for &g in &e.global {
            eat(g as u64);
        }
    }
    h
}

/// Observable protocol phase, derived from the two authoritative bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeasePhase {
    /// Granted, not yet acked by the borrower.
    Offered,
    /// Borrower acked (it attached the processors).
    Active,
    /// Borrower is done with it; lender has not reattached yet.
    Released,
    /// Both sides done — the processors are back home.
    Reclaimed,
}

/// One lease's lifetime as the federation sees it.
#[derive(Clone, Debug)]
pub struct Lease {
    pub id: u64,
    pub lender: usize,
    pub borrower: usize,
    /// Federation-global processor ids lent.
    pub global: Vec<usize>,
    pub granted_at: f64,
    pub expires: f64,
    /// Borrower acked the grant at least once.
    pub acked: bool,
    /// Borrower side is finished: it evicted, refused, or released the
    /// lease — no attachment exists or can ever be created.
    pub borrower_done: bool,
    /// Lender side reattached the processors.
    pub reclaimed: bool,
    /// The lender's fencing epoch when the lease was minted.
    pub lender_epoch: u64,
    /// When the borrower attached the grant (first delivery only).
    pub attached_at: Option<f64>,
    /// When the lender fenced the lease (suspicion timeout fired during a
    /// partition): from this point the lease is never honored or extended,
    /// only repaired.
    pub fenced_at: Option<f64>,
}

impl Lease {
    pub fn phase(&self) -> LeasePhase {
        match (self.borrower_done, self.reclaimed, self.acked) {
            (true, true, _) => LeasePhase::Reclaimed,
            (true, false, _) => LeasePhase::Released,
            (false, _, true) => LeasePhase::Active,
            (false, _, false) => LeasePhase::Offered,
        }
    }

    /// Both halves resolved; nothing in flight.
    pub fn resolved(&self) -> bool {
        self.borrower_done && self.reclaimed
    }

    /// The lender fenced this lease (it was minted under an epoch the
    /// lender has since bumped past).
    pub fn fenced(&self) -> bool {
        self.fenced_at.is_some()
    }
}
