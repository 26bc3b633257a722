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
//! virtual time (Figure 2(b), the cluster simulator); and [`redistribute`]
//! moves real data over a merged communicator (old layout on ranks `0..P`,
//! new on `0..Q`). It takes any planned kind as one [`Plan`], lowers it to
//! a list of steps of `(from, to, row runs × column runs)` moves — the 2-D
//! checkerboard schedule is the cross product of two 1-D schedules, so a
//! 1-D array is just the `1 × n` case — and runs it through **one step-loop
//! executor** (`exec.rs`) in one of two [`Commit`] modes. (The paper arms
//! MPI persistent requests per step; sends here are buffered, which is
//! semantically identical.)
//!
//! | [`Plan`] | array | [`Commit`] | [`preflight`] first |
//! |---|---|---|---|
//! | [`Plan::TwoD`]: planned 2-D ([`plan_2d`]) or naive single burst ([`plan_naive_2d`]) | [`DistMatrix`](reshape_blockcyclic::DistMatrix) | `Direct` or `Staged` | optional |
//! | [`Plan::General2d`]: blocks may change ([`plan_general_2d`]) | `DistMatrix` | `Direct` or `Staged` | optional |
//! | [`Plan::OneD`]: planned 1-D ([`plan_1d`]) | [`DistVector`](reshape_blockcyclic::DistVector) | `Direct` or `Staged` | optional |
//! | [`Plan::General1d`]: blocks may change ([`plan_general_1d`]) | `DistVector` | `Direct` or `Staged` | optional |
//! | none — [`checkpoint_redistribute`], funnel through rank 0 and disk | `DistMatrix` | — | optional |
//!
//! [`redistribute_2d`] is [`redistribute`] of a 2-D plan in `Direct` mode
//! that panics instead of returning an error.
//!
//! *Direct* commit packs each remote move once, into the vector that
//! becomes the message (`send_vec`), unpacks it straight out of the
//! payload's bytes as it arrives (`recv_with`), and copies local moves span
//! to span between panels. *Staged* commit sends with `try_send` /
//! `recv_or_failed`, parks payloads in shadow buffers, and unpacks only
//! after an all-to-all vote — a death inside the movement leaves the old
//! layout bitwise intact and returns [`RedistError::Aborted`]. *Pre-flight*
//! scans `rank_alive` over `0..max(P, Q)` and aborts before any element
//! moves. It is not always on: `rank_alive` also reports a peer that has
//! *finished and exited* as dead, and a caller that returns straight after
//! the move would turn a fast peer's normal exit into a false abort. Only
//! callers who hold every rank until all have scanned opt in.
//!
//! A caller's mistake — a communicator smaller than the larger layout, a
//! source rank that passes no panel, a panel of another layout, or (for the
//! checkpoint funnel) layouts of different shapes — is a [`RedistError`],
//! returned before the rank sends anything.
//!
//! The checkpoint funnel is an independent implementation, not a plan: the
//! paper compares ReSHAPE against it ([`checkpoint`], the DRMS/SRS-style
//! baseline of Figure 3(b)). The differential checker in `reshape-testkit`
//! compares the executor against it and against a second independent one,
//! element binning over one `alltoallv`.

pub mod checkpoint;
pub mod cost;
mod exec;
mod fault;
mod general1d;
mod general2d;
mod naive;
mod plan1d;
mod plan2d;

pub use checkpoint::{checkpoint_cost, checkpoint_redistribute, CheckpointParams};
pub use cost::{evaluate_1d, evaluate_2d, evaluate_2d_contended, RedistCost, PACK_BANDWIDTH};
pub use exec::{redistribute, redistribute_2d, Commit, DistArray, Plan};
pub use fault::{preflight, RedistError};
pub use general1d::{evaluate_general_1d, plan_general_1d, GTransfer, GeneralPlan1d};
pub use general2d::{plan_general_2d, GTransfer2d, GeneralPlan2d};
pub use naive::plan_naive_2d;
pub use plan1d::{plan_1d, Redist1d, Transfer1d};
pub use plan2d::{plan_2d, Redist2d, Transfer2d};
