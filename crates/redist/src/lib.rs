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
//! Planners ([`plan_2d`], [`plan_naive_2d`], both built from the per-
//! dimension [`plan_1d`]) build schedules that keep the block size, as the
//! paper's library does; [`cost`] turns a schedule plus a
//! [`NetModel`](reshape_mpisim::NetModel) into seconds of virtual time
//! (Figure 2(b), the cluster simulator); and [`redistribute`] moves real
//! data over a merged communicator (old layout on ranks `0..P`, new on
//! `0..Q`). It takes one [`Redist2d`] and lowers it to a list of steps of
//! `(from, to, row runs × column runs)` moves — the 2-D checkerboard
//! schedule is the cross product of two 1-D schedules, so a 1-D array is
//! just the `1 × n` matrix of `Descriptor::new(1, n, 1, nb, 1, p)` — and
//! runs it through **one step-loop executor** (`exec.rs`) in one of two
//! [`Commit`] modes. (The paper arms MPI persistent requests per step; sends
//! here are buffered, which is semantically identical.)
//!
//! | plan | array | [`Commit`] | [`preflight`] first |
//! |---|---|---|---|
//! | planned ([`plan_2d`]) or naive single burst ([`plan_naive_2d`]) | [`DistMatrix`](reshape_blockcyclic::DistMatrix), `1 × n` for a 1-D array | `Direct` or `Staged` | optional |
//! | none — [`checkpoint_redistribute`], funnel through rank 0 and disk | `DistMatrix` | — | optional |
//!
//! [`redistribute_2d`] is [`redistribute`] in `Direct` mode that panics
//! instead of returning an error.
//!
//! Both commit modes copy each element once, span to span from the old
//! panel into the new one. A remote move is a loan of the sender's old
//! panel (`Comm::lending`), charged as a send of the move's elements, which
//! the receiver copies out of inside `recv_with_or_failed`; it comes back
//! when the receiver drops the payload, and every rank returns only once its
//! loans are back. A lend is `redist.transfer_seconds` and every copy is
//! `redist.unpack_seconds`. A caller that hands its old panel over
//! ([`Source`]) under *Direct* lets a rank whose new panel is a pure subset
//! or superset of its old one — every rank that stays, in ReSHAPE's 1x2 <->
//! 2x2 shapes — build the new panel in place, inside the old allocation.
//! A lend to a dead rank or a receive from one fails, and a lent source is
//! never written, so a death inside the movement leaves the old layout
//! bitwise intact and returns [`RedistError::Aborted`]: under *Direct* on
//! each rank that exchanged with the dead one, under *Staged* on every
//! survivor, after an all-to-all vote. *Pre-flight* scans `rank_alive` over `0..max(P, Q)` and aborts
//! before any element moves. It is not always on: `rank_alive` also reports
//! a peer that has *finished and exited* as dead, and a caller that returns
//! straight after the move would turn a fast peer's normal exit into a false
//! abort. Only callers who hold every rank until all have scanned opt in.
//!
//! A caller's mistake — a communicator smaller than the larger layout, a
//! plan whose moves its own layouts do not allow, a source rank that passes
//! no panel, a panel of another layout, or (for the checkpoint funnel)
//! layouts of different shapes — is a [`RedistError`], returned before the
//! rank sends anything.
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
mod naive;
mod plan1d;
mod plan2d;

pub use checkpoint::{checkpoint_cost, checkpoint_redistribute, CheckpointParams};
pub use cost::{evaluate_2d, evaluate_2d_contended, RedistCost, PACK_BANDWIDTH};
pub use exec::{redistribute, redistribute_2d, Commit, Source};
pub use fault::{preflight, RedistError};
pub use naive::plan_naive_2d;
pub use plan1d::{plan_1d, Redist1d, Transfer1d};
pub use plan2d::{plan_2d, Redist2d, Transfer2d};
