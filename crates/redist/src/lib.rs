//! # reshape-redist — contention-free block-cyclic redistribution
//!
//! The heart of ReSHAPE's resizing library: when an application expands or
//! shrinks, its globally distributed block-cyclic arrays must move from a
//! `Pr × Pc` process grid to a `Qr × Qc` grid. The paper extends the
//! table-based framework of Park, Prasanna & Raghavendra (IEEE TPDS 1999)
//! from 1-D to 2-D ("checkerboard") topologies, computing a **generalized
//! circulant communication schedule** in which every step is a partial
//! permutation — no process sends or receives more than one message per
//! step, so steps are free of link contention.
//!
//! Planners ([`plan_1d`], [`plan_2d`], [`plan_naive_2d`],
//! [`plan_general_1d`], [`plan_general_2d`]) build schedules; [`cost`] turns
//! a schedule plus a [`NetModel`](reshape_mpisim::NetModel) into seconds of
//! virtual time (Figure 2(b), the cluster simulator); and eleven entry
//! points move real data over a merged communicator (old layout on ranks
//! `0..P`, new on `0..Q`). Nine of them are shims over **one step-loop
//! executor** (`exec.rs`): each lowers its plan to a list of steps of
//! `(from, to, row runs × column runs)` moves — the 2-D checkerboard
//! schedule is the cross product of two 1-D schedules, so a 1-D array is
//! just the `1 × n` case — and runs it in one of two commit modes. (The
//! paper arms MPI persistent requests per step; sends here are buffered,
//! which is semantically identical.)
//!
//! | entry point | schedule | commit | pre-flight |
//! |---|---|---|---|
//! | [`redistribute_2d`] | planned 2-D ([`plan_2d`]) or naive single burst ([`plan_naive_2d`]) | direct | no |
//! | [`redistribute_1d`] | planned 1-D ([`plan_1d`]) | direct | no |
//! | [`redistribute_general_2d`] | general 2-D, blocks may change ([`plan_general_2d`]) | direct | no |
//! | [`redistribute_general_1d`] | general 1-D ([`plan_general_1d`]) | direct | no |
//! | [`txn_redistribute_2d`] | planned or naive 2-D | staged | no |
//! | [`try_redistribute_2d`] | planned or naive 2-D | direct | yes |
//! | [`try_redistribute_1d`] | planned 1-D | direct | yes |
//! | [`try_redistribute_general_2d`] | general 2-D | direct | yes |
//! | [`redistribute_general`] | none — element binning over one `alltoallv` | — | no |
//! | [`checkpoint_redistribute`] | none — funnel through rank 0 and a file | — | no |
//! | [`try_checkpoint_redistribute`] | as above | — | yes |
//!
//! *Direct* commit packs each remote move once, into the vector that
//! becomes the message (`send_vec`), unpacks it straight out of the
//! payload's bytes as it arrives (`recv_with`), and copies local moves span
//! to span between panels. *Staged* commit sends with `try_send` /
//! `recv_or_failed`, parks payloads in shadow buffers, and unpacks only
//! after an all-to-all vote — a death inside the movement leaves the old
//! layout bitwise intact and returns [`RedistAbort`]. *Pre-flight* scans
//! `rank_alive` over `0..max(P, Q)` and aborts before any element moves.
//! It is not always on: `rank_alive` also reports a peer that has *finished
//! and exited* as dead, and callers of the infallible entry points return
//! straight after the call, so an always-on scan would turn a fast peer's
//! normal exit into a false abort. Only the `try_*` callers, who hold every
//! rank until all have scanned, opt in.
//!
//! The last three rows are independent implementations, not shims: the
//! differential checker compares the executor against them
//! ([`redistribute_general`]) and the paper compares ReSHAPE against them
//! ([`checkpoint`], the DRMS/SRS-style baseline of Figure 3(b)).

pub mod checkpoint;
pub mod cost;
mod exec;
mod exec1d;
mod fault;
mod general;
mod general1d;
mod general2d;
mod naive;
mod plan1d;
mod plan2d;
mod txn;

pub use checkpoint::{checkpoint_cost, checkpoint_redistribute, CheckpointParams};
pub use cost::{evaluate_1d, evaluate_2d, evaluate_2d_contended, RedistCost, PACK_BANDWIDTH};
pub use exec::redistribute_2d;
pub use exec1d::redistribute_1d;
pub use fault::{
    try_checkpoint_redistribute, try_redistribute_1d, try_redistribute_2d,
    try_redistribute_general_2d, RedistAbort,
};
pub use general::redistribute_general;
pub use general1d::{
    evaluate_general_1d, plan_general_1d, redistribute_general_1d, GTransfer, GeneralPlan1d,
};
pub use general2d::{plan_general_2d, redistribute_general_2d, GTransfer2d, GeneralPlan2d};
pub use naive::plan_naive_2d;
pub use plan1d::{plan_1d, Redist1d, Transfer1d};
pub use plan2d::{plan_2d, Redist2d, Transfer2d};
pub use txn::txn_redistribute_2d;
