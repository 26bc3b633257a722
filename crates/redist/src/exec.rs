//! The schedule executor: every scheduled redistribution in this crate —
//! planned or naive, direct or staged — is one [`Redist2d`], lowered by
//! [`redistribute`] to one [`Schedule`], checked, and run by the one step
//! loop in [`execute`]. A 1-D array is the `1 × n` matrix of
//! `Descriptor::new(1, n, 1, nb, 1, p)`, whose row sub-plan is one move of
//! its one row.
//!
//! The executor runs over a single communicator covering `max(P, Q)` ranks,
//! where the old grid occupies ranks `0..P` (row-major) and the new grid
//! ranks `0..Q`. This matches ReSHAPE's process management exactly: on
//! expansion the parents keep the low ranks of the merged communicator, and
//! on shrink the retained subset is the low ranks of the old one.
//!
//! A schedule is a list of steps, each a list of [`Move`]s: one coalesced
//! message carrying every element whose global row lies in one of the
//! move's row runs and whose global column lies in one of its column runs.
//! A [`Transfer2d`](crate::Transfer2d) becomes one with one run per block.
//! Every run lies inside one block of both layouts, so it is contiguous in
//! the row-major local panel on both sides and [`copy_local`] copies it as
//! a slice.
//!
//! Steps execute in order; within a step each rank fires at most one send
//! and completes at most one receive (the schedule is a partial
//! permutation). The paper arms MPI persistent requests per step; buffered
//! sends give identical semantics here.
//!
//! Every element is copied once, in either [`Commit`] mode. The whole step
//! loop runs in one lending scope ([`Comm::lending`]): a remote move is a
//! loan of the sender's old panel, charged as a send of the move's
//! elements, and the receiver copies the move span to span out of the lent
//! panel into its new one inside [`Comm::recv_with_or_failed`]; dropping the
//! payload returns the loan. A local move copies span to span the same way,
//! from this rank's own old panel. Every rank leaves the scope after its
//! last receive, once its own loans are back, so no old panel is freed
//! while a peer still reads it. Within a step a rank lends its remote moves
//! before its local copies, so their receivers start while it copies.
//! Telemetry follows the copy: a lend is `redist.transfer_seconds`, and
//! every copy, local or out of a loan, is `redist.unpack_seconds`.
//!
//! A lend to a dead rank and a receive from a sender that died without
//! sending both fail. A lent old panel is only ever read, so dropping the
//! new one is the whole rollback, and [`Commit`] decides only what follows.
//!
//! A rank that holds a panel of both layouts, whose new panel is a pure
//! subset or a pure superset of its old one, and whose caller handed its
//! old panel over ([`Source`]) under [`Commit::Direct`], rebuilds the new
//! panel inside the old one's allocation instead. Block-cyclic local order
//! follows global order in both layouts, so the elements it keeps keep their
//! order. A subset rank receives nothing: it lends as above and, once its
//! loans are back, compacts its kept spans forward and gives the tail back
//! (`shrink_to_fit`). A superset rank sends nothing: before the loop it
//! grows the allocation (`reserve_exact`; glibc grows a large block by
//! remapping its pages, not by copying them), spreads its kept spans
//! backward, and receives into the gaps. Either way its local moves are the
//! kept spans, and the loop skips them. In ReSHAPE's 2x shapes (1x2 <-> 2x2)
//! every rank that stays is such a rank, so a move holds its matrix about
//! 1.5 times at its peak instead of twice, and faults in half the pages.

use std::ops::Range;
use std::time::Instant;

use reshape_blockcyclic::{g2l, owner, Descriptor, DistMatrix};
use reshape_mpisim::{Comm, Pod};

use crate::fault::RedistError;
use crate::plan1d::Redist1d;
use crate::plan2d::Redist2d;

/// Base of the tag range of a direct move's steps (`base + step`).
/// Redistribution runs at a resize point with no other application traffic
/// in flight, so a fixed range is safe; it is kept far from small user tags
/// as defense in depth.
const TAG_DIRECT_BASE: u32 = 8_000_000;
/// Base of a staged move's steps, disjoint from the direct range so an
/// aborted staged epoch's stragglers can never match a later direct move.
const TAG_STAGED_BASE: u32 = 8_100_000;
/// Tag of the staged mode's all-to-all commit vote round.
const TAG_TXN_VOTE: u32 = 8_199_000;

const VOTE_OK: u64 = 1;
const VOTE_ABORT: u64 = 0;

/// One coalesced message of a lowered schedule: every element whose global
/// row lies in a `row_runs` run and whose global column lies in a
/// `col_runs` run, from grid position `src` of the old layout to `dst` of
/// the new. Runs are `(start, len)`.
pub(crate) struct Move {
    pub src: (usize, usize),
    pub dst: (usize, usize),
    pub row_runs: Vec<(usize, usize)>,
    pub col_runs: Vec<(usize, usize)>,
}

impl Move {
    pub fn elems(&self) -> usize {
        let r: usize = self.row_runs.iter().map(|&(_, l)| l).sum();
        let c: usize = self.col_runs.iter().map(|&(_, l)| l).sum();
        r * c
    }
}

/// A plan, lowered to what the step loop needs.
pub(crate) struct Schedule {
    pub src: Descriptor,
    pub dst: Descriptor,
    pub steps: Vec<Vec<Move>>,
}

impl Schedule {
    /// Every rank the schedule can name as a source or destination.
    pub fn world(&self) -> usize {
        procs(&self.src).max(procs(&self.dst))
    }

    /// Whether the step loop can run this schedule as it stands: both
    /// layouts are of one global shape with no empty block or grid
    /// dimension, every move's grid positions lie inside their grids, and
    /// every run is a non-empty part of one block of each layout, owned by
    /// the move's source position in the old layout and by its destination
    /// position in the new one. Every rank holds the same schedule, so every
    /// rank gets the same answer.
    fn runnable(&self) -> bool {
        let (s, d) = (&self.src, &self.dst);
        let sane = |x: &Descriptor| x.mb > 0 && x.nb > 0 && x.nprow > 0 && x.npcol > 0;
        sane(s)
            && sane(d)
            && (s.m, s.n) == (d.m, d.n)
            && self.steps.iter().flatten().all(|mv| {
                mv.src.0 < s.nprow
                    && mv.src.1 < s.npcol
                    && mv.dst.0 < d.nprow
                    && mv.dst.1 < d.npcol
                    && mv.row_runs.iter().all(|&run| {
                        owned(run, s.m, s.mb, s.nprow, mv.src.0)
                            && owned(run, d.m, d.mb, d.nprow, mv.dst.0)
                    })
                    && mv.col_runs.iter().all(|&run| {
                        owned(run, s.n, s.nb, s.npcol, mv.src.1)
                            && owned(run, d.n, d.nb, d.npcol, mv.dst.1)
                    })
            })
    }
}

/// Whether run `(start, len)` of a dimension of `len_dim` elements, in
/// blocks of `b` dealt over `np` grid positions, is a non-empty part of one
/// block that position `at` owns.
fn owned((start, len): (usize, usize), len_dim: usize, b: usize, np: usize, at: usize) -> bool {
    len > 0
        && start < len_dim
        && len <= len_dim - start
        && start / b == (start + len - 1) / b
        && (start / b) % np == at
}

/// Processes in `d`'s grid.
pub(crate) fn procs(d: &Descriptor) -> usize {
    d.nprow * d.npcol
}

/// What follows the movement, which is the same in both modes: a rank that
/// saw a lend or a receive fail keeps driving its remaining moves, so live
/// peers never wait on it, and no mode writes a lent source. A loan that
/// does not come back within the deadlock timeout aborts the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Commit {
    /// Each rank decides alone. One that exchanged with a dead peer returns
    /// [`RedistError::Aborted`] naming it, with a lent source untouched and
    /// no destination panel; a rank whose own moves all completed returns
    /// its new panel, even if a peer it never exchanged with died. A rank
    /// that stays in the grid may build its new panel in place, inside a
    /// handed-over source (see [`redistribute`]).
    Direct,
    /// Survivors vote: after the movement every rank tells every other, in
    /// an all-to-all round, whether its own moves all completed, and a dead
    /// peer counts as a no. Only a rank that completed every move and
    /// collected a yes from every peer returns its new panel; every other
    /// survivor returns [`RedistError::Aborted`] with its source untouched
    /// and no destination panel.
    ///
    /// The vote gives local atomicity, not global agreement: if a rank dies
    /// midway through casting its votes, a survivor that already has its yes
    /// may commit while another aborts. The driver's recovery fence resolves
    /// this: any death during the resize epoch is detected there and every
    /// survivor discards the epoch's output, committed or not.
    Staged,
}

/// The runs covering global blocks `blocks` of `plan`'s dimension. A block
/// past the end becomes an empty run, which no schedule check lets through.
fn block_runs(plan: &Redist1d, blocks: &[usize]) -> Vec<(usize, usize)> {
    blocks
        .iter()
        .map(|&k| {
            let start = k.saturating_mul(plan.b);
            (start, plan.n.saturating_sub(start).min(plan.b))
        })
        .collect()
}

pub(crate) fn lower_2d(plan: &Redist2d) -> Schedule {
    Schedule {
        src: plan.src,
        dst: plan.dst,
        steps: plan
            .steps
            .iter()
            .map(|step| {
                step.iter()
                    .map(|t| Move {
                        src: t.src,
                        dst: t.dst,
                        row_runs: block_runs(&plan.row_plan, &t.row_blocks),
                        col_runs: block_runs(&plan.col_plan, &t.col_blocks),
                    })
                    .collect()
            })
            .collect(),
    }
}

/// `plan`'s schedule, if the step loop can run it: its 1-D sub-plans must
/// be the row and column moves between its descriptors, and the lowered
/// schedule must be [`runnable`](Schedule::runnable).
fn lower(plan: &Redist2d) -> Result<Schedule, RedistError> {
    // Each sub-plan moves one dimension, `(length, block, grid extent)`,
    // from the old layout to the new.
    let moves =
        |sub: &Redist1d, from, to| (sub.n, sub.b, sub.p) == from && (sub.n, sub.b, sub.q) == to;
    let (s, d) = (&plan.src, &plan.dst);
    let agree = moves(&plan.row_plan, (s.m, s.mb, s.nprow), (d.m, d.mb, d.nprow))
        && moves(&plan.col_plan, (s.n, s.nb, s.npcol), (d.n, d.nb, d.npcol));
    agree
        .then(|| lower_2d(plan))
        .filter(Schedule::runnable)
        .ok_or(RedistError::BadPlan)
}

/// A source rank's panel as [`redistribute`] takes it: borrowed from an
/// `Option<&DistMatrix<T>>`, so the caller keeps it (`None` on a rank outside
/// the source layout), or handed over as a `DistMatrix<T>`.
pub struct Source<'a, T> {
    borrowed: Option<&'a DistMatrix<T>>,
    owned: Option<DistMatrix<T>>,
}

impl<'a, T> From<Option<&'a DistMatrix<T>>> for Source<'a, T> {
    fn from(borrowed: Option<&'a DistMatrix<T>>) -> Self {
        Source {
            borrowed,
            owned: None,
        }
    }
}

impl<T> From<DistMatrix<T>> for Source<'_, T> {
    fn from(owned: DistMatrix<T>) -> Self {
        Source {
            borrowed: None,
            owned: Some(owned),
        }
    }
}

/// Move a distributed matrix from `plan`'s source layout to its destination
/// layout, collectively over `comm`: the old layout on ranks `0..P`
/// (row-major), the new on ranks `0..Q`. Ranks `0..P` pass their panel of
/// the old layout, borrowed or handed over ([`Source`]); ranks `0..Q` get
/// their panel of the new one back, and every other rank gets `None`. A rank
/// outside the source layout may pass `None`. A 1-D array of `n` elements in
/// blocks of `nb` over `p` ranks is the `1 × n` matrix of
/// `Descriptor::new(1, n, 1, nb, 1, p)`.
///
/// A borrowed source is only read: it stays bitwise intact whatever the
/// call returns. A handed-over source is consumed. Under
/// [`Commit::Direct`], on a rank whose new panel is a pure subset or a pure
/// superset of its old one, the new panel is built in place, inside the old
/// one's allocation, so an [`RedistError::Aborted`] there loses that panel.
/// Every other rank, and every rank under [`Commit::Staged`], builds its
/// new panel fresh and drops a handed-over source when it returns.
///
/// Every rank checks its own arguments before it sends anything. A
/// communicator smaller than the larger layout fails on every rank alike. A
/// source rank that passes no panel ([`RedistError::MissingSource`]), or a
/// panel whose descriptor or grid position disagrees with the plan
/// ([`RedistError::LayoutMismatch`]), fails on that rank only, and as with
/// a panic, its peers are left waiting inside the collective. A peer that
/// dies mid-move is [`RedistError::Aborted`] under either [`Commit`] mode,
/// and [`preflight`](crate::preflight) first catches one that is dead
/// already before anything moves.
///
/// The plan's fields are public, so it need not be as its planner built it.
/// A plan whose moves its own layouts do not allow — a block past the end
/// of its dimension, a grid position outside its grid, a block its move's
/// endpoints do not own, or 1-D sub-plans that disagree with its
/// descriptors — fails with [`RedistError::BadPlan`] on every rank alike.
pub fn redistribute<'a, T: Pod + Default>(
    comm: &Comm,
    plan: &Redist2d,
    src: impl Into<Source<'a, T>>,
    commit: Commit,
) -> Result<Option<DistMatrix<T>>, RedistError> {
    let sched = lower(plan)?;
    let (s, d) = (&sched.src, &sched.dst);
    let Source { borrowed, owned } = src.into();
    let local = source_panel(comm, s, d, owned.as_ref().or(borrowed))?;
    let me = comm.rank();
    let at = (me / d.npcol, me % d.npcol);
    if let (Commit::Direct, Some(kept)) = (commit, kept(s, d, me)) {
        if let Some(old) = owned {
            return old
                .rebuild(*d, at.0, at.1, |mut data| {
                    execute(comm, &sched, commit, Panels::InPlace(kept, &mut data))?;
                    Ok(data)
                })
                .map(Some);
        }
    }
    let mut out = (me < procs(d)).then(|| DistMatrix::new(*d, at.0, at.1));
    let panels = Panels::Fresh(
        local.unwrap_or_default(),
        out.as_mut()
            .map(DistMatrix::local_data_mut)
            .unwrap_or_default(),
    );
    execute(comm, &sched, commit, panels)?;
    Ok(out)
}

/// [`redistribute`] in [`Commit::Direct`] mode.
///
/// # Panics
///
/// Panics where [`redistribute`] returns an error.
pub fn redistribute_2d<T: Pod + Default>(
    comm: &Comm,
    plan: &Redist2d,
    src: Option<&DistMatrix<T>>,
) -> Option<DistMatrix<T>> {
    redistribute(comm, plan, src, Commit::Direct).unwrap_or_else(|e| panic!("{e}"))
}

/// Check a call moving `src` from layout `s` to `d` over `comm`, and return
/// this rank's source panel (`None` outside the source layout).
pub(crate) fn source_panel<'a, T: Pod + Default>(
    comm: &Comm,
    s: &Descriptor,
    d: &Descriptor,
    src: Option<&'a DistMatrix<T>>,
) -> Result<Option<&'a [T]>, RedistError> {
    let (size, world) = (comm.size(), procs(s).max(procs(d)));
    if size < world {
        return Err(RedistError::CommTooSmall { size, world });
    }
    let rank = comm.rank();
    if rank >= procs(s) {
        return Ok(None);
    }
    let a = src.ok_or(RedistError::MissingSource { rank })?;
    if (a.desc, a.myrow, a.mycol) != (*s, rank / s.npcol, rank % s.npcol) {
        return Err(RedistError::LayoutMismatch { rank });
    }
    Ok(Some(a.local_data()))
}

/// Run `f`, adding its wall time to `acc` when `on`. Keeps the hot loop
/// free of clock reads when telemetry is off.
fn timed<R>(on: bool, acc: &mut f64, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_secs_f64();
    r
}

/// What a rank holding a panel of both layouts keeps of its old panel in
/// its new one, when one of them holds the other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kept {
    /// The new panel is a pure subset of the old one: the rank only sends.
    Subset,
    /// The old panel is a pure subset of the new one: the rank only
    /// receives.
    Superset,
}

/// Whether rank `me` of a move from layout `s` to `d`, which agree on block
/// sizes, holds a panel of both whose new one is a pure subset or superset
/// of its old one. A panel is its row blocks by its column blocks, so one
/// holds another where both dimensions do; a subset is checked first, so a
/// rank whose panel stays the same is one.
fn kept(s: &Descriptor, d: &Descriptor, me: usize) -> Option<Kept> {
    if me >= procs(s) || me >= procs(d) {
        return None;
    }
    let (old, new) = ((me / s.npcol, me % s.npcol), (me / d.npcol, me % d.npcol));
    // Whether every block of `x`'s panel at `p` is one of `y`'s at `q`.
    let within = |x: &Descriptor, p: (usize, usize), y: &Descriptor, q: (usize, usize)| {
        held_blocks(x.m, x.mb, x.nprow, p.0).all(|g| owner(g, y.mb, y.nprow) == q.0)
            && held_blocks(x.n, x.nb, x.npcol, p.1).all(|g| owner(g, y.nb, y.npcol) == q.1)
    };
    if within(d, new, s, old) {
        Some(Kept::Subset)
    } else if within(s, old, d, new) {
        Some(Kept::Superset)
    } else {
        None
    }
}

/// The first global index of each block that position `at` of `np` holds,
/// in a dimension of `len` in blocks of `b`, in local order.
fn held_blocks(len: usize, b: usize, np: usize, at: usize) -> impl Iterator<Item = usize> {
    (at * b..len).step_by(np * b)
}

/// This rank's panels across the step loop.
enum Panels<'a, T> {
    /// Its old panel, read, and its new one, written: each empty on a rank
    /// outside that layout.
    Fresh(&'a [T], &'a mut [T]),
    /// One allocation, the old panel on entry and the new one on return,
    /// rebuilt in place around what it keeps.
    InPlace(Kept, &'a mut Vec<T>),
}

/// The panel at grid position `at` of layout `x` as one move: its row runs
/// by its column runs, one run per block, in local order.
fn whole_panel(x: &Descriptor, at: (usize, usize)) -> Move {
    let runs = |len: usize, b: usize, np: usize, p: usize| {
        held_blocks(len, b, np, p)
            .map(|g0| (g0, b.min(len - g0)))
            .collect()
    };
    Move {
        src: at,
        dst: at,
        row_runs: runs(x.m, x.mb, x.nprow, at.0),
        col_runs: runs(x.n, x.nb, x.npcol, at.1),
    }
}

/// Grow a [`Kept::Superset`] rank's panel `data` to its new length and
/// spread its elements backward to their places in the new panel, last span
/// first: each span moves up, past none that has yet to move.
fn spread<T: Pod + Default>(data: &mut Vec<T>, s: &Descriptor, d: &Descriptor, me: usize) {
    let old = whole_panel(s, (me / s.npcol, me % s.npcol));
    let (src_lcols, dst_lcols) = (s.local_cols(me % s.npcol), d.local_cols(me % d.npcol));
    let len = d.local_rows(me / d.npcol) * dst_lcols;
    data.reserve_exact(len - data.len());
    data.resize(len, T::default());
    let from = spans(s, src_lcols, &old).rev();
    for (from, to) in from.zip(spans(d, dst_lcols, &old).rev()) {
        debug_assert!(from.start <= to.start, "a kept span moves up");
        data.copy_within(from, to.start);
    }
}

/// Compact a [`Kept::Subset`] rank's panel `data` forward to its new one,
/// first span first: each span moves down, past none that has yet to move.
/// The tail it no longer needs goes back to the allocator.
fn compact<T: Pod>(data: &mut Vec<T>, s: &Descriptor, d: &Descriptor, me: usize) {
    let new = whole_panel(d, (me / d.npcol, me % d.npcol));
    let (src_lcols, dst_lcols) = (s.local_cols(me % s.npcol), d.local_cols(me % d.npcol));
    for (from, to) in spans(s, src_lcols, &new).zip(spans(d, dst_lcols, &new)) {
        debug_assert!(to.start <= from.start, "a kept span moves down");
        data.copy_within(from, to.start);
    }
    data.truncate(d.local_rows(me / d.npcol) * dst_lcols);
    data.shrink_to_fit();
}

/// The step loop over this rank's `panels`. On `Err` the new panel may be
/// partly written, and the caller drops it.
///
/// The loop tolerates steps that are NOT partial permutations (a rank may
/// send and receive several messages per step): ReSHAPE's schedules never
/// need that, but the naive single-step baseline used by the contention
/// ablation does. Sends are buffered, so issuing every send before any
/// receive is deadlock-free.
fn execute<T: Pod + Default>(
    comm: &Comm,
    sched: &Schedule,
    mode: Commit,
    mut panels: Panels<'_, T>,
) -> Result<(), RedistError> {
    let (s, d) = (&sched.src, &sched.dst);
    let me = comm.rank();
    // This rank's coordinates in each grid it holds a panel of; a rank
    // outside a grid matches no move there, so it never touches the empty
    // panel that stands in for the one it lacks.
    let my_src = (me < procs(s)).then_some((me / s.npcol, me % s.npcol));
    let my_dst = (me < procs(d)).then_some((me / d.npcol, me % d.npcol));
    let (src_lcols, dst_lcols) = (s.local_cols(me % s.npcol), d.local_cols(me % d.npcol));
    let tag_base = match mode {
        Commit::Direct => TAG_DIRECT_BASE,
        Commit::Staged => TAG_STAGED_BASE,
    };

    // Causal trace: one executor span per rank-0 execution, stamped in
    // *virtual* time and parented to whatever span the caller is inside
    // (the driver's redist span, or the sim's redistribution phase).
    let trace_v0 = (me == 0 && reshape_telemetry::trace::enabled()).then(|| comm.vtime());

    // Per-phase wall-clock accounting (transfer / unpack), recorded once per
    // execution.
    let tel = reshape_telemetry::enabled();
    let (mut xfer_s, mut unpack_s) = (0.0f64, 0.0f64);
    let (mut transfers, mut bytes_sent) = (0u64, 0u64);

    // First failure observed. A rank that observes a failure keeps driving
    // its remaining moves so its live peers make progress; it just
    // remembers the dead peer.
    let mut dead = None;

    // A panel rebuilt in place copies its local moves outside the loop: a
    // superset spreads them before it, and only receives in it; a subset
    // only lends in it, and compacts them after it.
    let copy_local_moves = matches!(panels, Panels::Fresh(..));
    if let Panels::InPlace(Kept::Superset, data) = &mut panels {
        timed(tel, &mut unpack_s, || spread(data, s, d, me));
    }
    let (src, out): (&[T], &mut [T]) = match &mut panels {
        Panels::Fresh(src, out) => (src, out),
        Panels::InPlace(Kept::Subset, data) => (data, &mut []),
        Panels::InPlace(Kept::Superset, data) => (&[], data),
    };

    // Each remote move lends this rank's whole source panel; the scope
    // returns once every receiver has copied its move out and let go.
    comm.lending(|loans| {
        for (t, step) in sched.steps.iter().enumerate() {
            let tag = tag_base + t as u32;
            let mine = step.iter().filter(|mv| Some(mv.src) == my_src);
            // Remote sends first, so their receivers can start while this
            // rank copies its local moves.
            for mv in mine.clone().filter(|mv| Some(mv.dst) != my_dst) {
                let to = mv.dst.0 * d.npcol + mv.dst.1;
                transfers += 1;
                bytes_sent += (mv.elems() * std::mem::size_of::<T>()) as u64;
                if timed(tel, &mut xfer_s, || loans.lend(to, tag, src, mv.elems())).is_err() {
                    dead.get_or_insert(to);
                }
            }
            // Local moves: both endpoints are this rank.
            for mv in mine.filter(|mv| copy_local_moves && Some(mv.dst) == my_dst) {
                timed(tel, &mut unpack_s, || {
                    copy_local(bytes_of(src), s, src_lcols, out, d, dst_lcols, mv)
                });
            }
            for mv in step
                .iter()
                .filter(|mv| Some(mv.dst) == my_dst && Some(mv.src) != my_src)
            {
                // The wait is transfer time; the copy out of the sender's
                // lent panel, inside the receive, is unpack time.
                let (from, from_lcols) = (mv.src.0 * s.npcol + mv.src.1, s.local_cols(mv.src.1));
                let mut copy_s = 0.0;
                let got = timed(tel, &mut xfer_s, || {
                    comm.recv_with_or_failed(from, tag, |panel| {
                        timed(tel, &mut copy_s, || {
                            copy_local(panel, s, from_lcols, out, d, dst_lcols, mv)
                        })
                    })
                });
                xfer_s -= copy_s;
                unpack_s += copy_s;
                if got.is_err() {
                    dead.get_or_insert(from);
                }
            }
        }
    });

    let verdict = match mode {
        Commit::Direct => dead,
        Commit::Staged => commit_vote(comm, sched.world(), dead),
    };
    if let Some(dead_rank) = verdict {
        // The caller drops the new panel; the source was never written
        // unless the new panel is being built inside it.
        return Err(RedistError::Aborted { dead_rank });
    }
    if let Panels::InPlace(Kept::Subset, data) = &mut panels {
        timed(tel, &mut unpack_s, || compact(data, s, d, me));
    }

    if tel {
        reshape_telemetry::incr("redist.executions", 1);
        reshape_telemetry::incr("redist.plan_steps", sched.steps.len() as u64);
        reshape_telemetry::incr("redist.transfers", transfers);
        reshape_telemetry::incr("redist.bytes_sent", bytes_sent);
        reshape_telemetry::observe("redist.transfer_seconds", xfer_s);
        reshape_telemetry::observe("redist.unpack_seconds", unpack_s);
    }
    if let Some(v0) = trace_v0 {
        use reshape_telemetry::trace;
        let ctx = trace::current();
        trace::complete(
            ctx.trace,
            ctx.parent,
            format!(
                "redist_exec {}x{}->{}x{} ({} steps)",
                s.nprow,
                s.npcol,
                d.nprow,
                d.npcol,
                sched.steps.len()
            ),
            "redist_exec",
            "redist",
            v0,
            comm.vtime(),
        );
    }
    Ok(())
}

/// Commit vote: every rank in the world tells every other whether its own
/// transfers all completed. A dead peer counts as an ABORT vote. `dead` is
/// the first failure this rank saw while moving data, if any. Returns the
/// rank to blame if this rank must abort: the first dead rank it saw, or
/// itself when a peer voted ABORT over a death only that peer saw.
fn commit_vote(comm: &Comm, world: usize, mut dead: Option<usize>) -> Option<usize> {
    let me = comm.rank();
    let my_vote = if dead.is_none() { VOTE_OK } else { VOTE_ABORT };
    for peer in (0..world).filter(|&r| r != me) {
        let _ = comm.try_send(peer, TAG_TXN_VOTE, &[my_vote]);
    }
    let mut commit = dead.is_none();
    for peer in (0..world).filter(|&r| r != me) {
        match comm.recv_or_failed::<u64>(peer, TAG_TXN_VOTE) {
            Ok(v) if v.first() == Some(&VOTE_OK) => {}
            Ok(_) => commit = false,
            Err(()) => {
                dead.get_or_insert(peer);
                commit = false;
            }
        }
    }
    if commit {
        reshape_telemetry::incr("redist.txn_commits", 1);
        return None;
    }
    reshape_telemetry::incr("redist.txn_aborts", 1);
    Some(dead.unwrap_or(me))
}

/// Index ranges of a move's elements in the row-major local panel of layout
/// `d` (`lcols` columns wide), in payload order: row runs outer, global row
/// order within a run, column runs inner.
fn spans<'a>(
    d: &'a Descriptor,
    lcols: usize,
    mv: &'a Move,
) -> impl DoubleEndedIterator<Item = Range<usize>> + 'a {
    let rows = mv.row_runs.iter().flat_map(|&(i0, len)| i0..i0 + len);
    rows.flat_map(move |gi| {
        let row = g2l(gi, d.mb, d.nprow).1 * lcols;
        mv.col_runs.iter().map(move |&(j0, len)| {
            debug_assert!(
                j0 % d.nb + len <= d.nb,
                "column run crosses a block boundary"
            );
            let at = row + g2l(j0, d.nb, d.npcol).1;
            at..at + len
        })
    })
}

/// A move from a source panel's bytes (`s`'s layout, `src_lcols` columns
/// wide) straight into the new panel: each span of the one into its span of
/// the other, with no buffer in between. Both layouts walk the move in
/// payload order, and paired spans are one column run, so their lengths
/// agree. The copies are byte-wise, `size_of::<T>()` times each span, so the
/// source needs no alignment: it is this rank's old panel for a local move,
/// and the sender's lent panel for a remote one.
fn copy_local<T: Pod>(
    src: &[u8],
    s: &Descriptor,
    src_lcols: usize,
    out: &mut [T],
    d: &Descriptor,
    dst_lcols: usize,
    mv: &Move,
) {
    let esz = std::mem::size_of::<T>();
    let out = bytes_of_mut(out);
    for (from, to) in spans(s, src_lcols, mv).zip(spans(d, dst_lcols, mv)) {
        let len = from.len() * esz;
        out[to.start * esz..][..len].copy_from_slice(&src[from.start * esz..][..len]);
    }
}

/// `s`'s elements as bytes.
fn bytes_of<T: Pod>(s: &[T]) -> &[u8] {
    // SAFETY: `T: Pod` has no padding, so every byte of the slice is
    // initialized; the view borrows `s` and covers exactly its bytes.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast(), std::mem::size_of_val(s)) }
}

/// `s`'s elements as writable bytes.
fn bytes_of_mut<T: Pod>(s: &mut [T]) -> &mut [u8] {
    // SAFETY: as for `bytes_of`, and `T: Pod` makes every bit pattern a
    // valid `T`, so any bytes written through the view leave valid elements.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast(), std::mem::size_of_val(s)) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan2d::plan_2d;
    use proptest::prelude::*;
    use reshape_blockcyclic::Descriptor;
    use reshape_grid::GridContext;
    use reshape_mpisim::{NetModel, Universe};

    /// Launch max(p,q) ranks, build the source matrix on the p-grid,
    /// redistribute to the q-grid, and verify every element landed on its
    /// new owner with its value intact.
    fn round_trip(
        m: usize,
        n: usize,
        mb: usize,
        nb: usize,
        sg: (usize, usize),
        dg: (usize, usize),
    ) {
        round_trip_of(m, n, mb, nb, sg, dg, |x| x as f64);
    }

    /// [`round_trip`] with element `(i, j)` = `val(i * 7919 + j)`.
    fn round_trip_of<T: Pod + Default + PartialEq + std::fmt::Debug>(
        m: usize,
        n: usize,
        mb: usize,
        nb: usize,
        sg: (usize, usize),
        dg: (usize, usize),
        val: fn(usize) -> T,
    ) {
        let p = sg.0 * sg.1;
        let q = dg.0 * dg.1;
        let ranks = p.max(q);
        let uni = Universe::new(ranks, 1, NetModel::ideal());
        uni.launch(ranks, None, "redist", move |comm| {
            let src_desc = Descriptor::new(m, n, mb, nb, sg.0, sg.1);
            let dst_desc = Descriptor::new(m, n, mb, nb, dg.0, dg.1);
            let plan = plan_2d(src_desc, dst_desc);
            let me = comm.rank();
            let src = (me < p).then(|| {
                DistMatrix::from_fn(src_desc, me / sg.1, me % sg.1, |i, j| val(i * 7919 + j))
            });
            let out = redistribute_2d(&comm, &plan, src.as_ref());
            if me < q {
                let out = out.expect("destination rank gets a panel");
                for li in 0..out.local_rows() {
                    let gi = dst_desc.local_to_global_row(li, out.myrow);
                    for lj in 0..out.local_cols() {
                        let gj = dst_desc.local_to_global_col(lj, out.mycol);
                        assert_eq!(
                            out.get_local(li, lj),
                            val(gi * 7919 + gj),
                            "element ({gi},{gj}) corrupted"
                        );
                    }
                }
            } else {
                assert!(out.is_none());
            }
        })
        .join_ok();
    }

    /// The copy scales every span by the element's size, so each width must
    /// land whole: an expand, a shrink, and ragged blocks on both ends.
    fn every_shape_of<T: Pod + Default + PartialEq + std::fmt::Debug>(val: fn(usize) -> T) {
        round_trip_of(24, 32, 2, 2, (1, 2), (2, 2), val);
        round_trip_of(24, 32, 2, 2, (2, 2), (1, 2), val);
        round_trip_of(17, 23, 4, 5, (2, 2), (3, 2), val);
    }

    #[test]
    fn u8_payloads() {
        every_shape_of(|x| x as u8);
    }

    #[test]
    fn i16_payloads() {
        every_shape_of(|x| (x as i16).wrapping_mul(-3));
    }

    #[test]
    fn f32_payloads() {
        every_shape_of(|x| x as f32 * 0.25 - 1.0);
    }

    #[test]
    fn u64_payloads() {
        every_shape_of(|x| (x as u64) << 37 | 0x5a5a);
    }

    #[test]
    fn expand_1x2_to_2x2() {
        round_trip(16, 16, 2, 2, (1, 2), (2, 2));
    }

    #[test]
    fn expand_2x2_to_2x4() {
        round_trip(24, 32, 2, 2, (2, 2), (2, 4));
    }

    #[test]
    fn shrink_2x4_to_2x2() {
        round_trip(24, 32, 2, 2, (2, 4), (2, 2));
    }

    #[test]
    fn coprime_grids() {
        round_trip(30, 42, 3, 2, (2, 3), (3, 5));
    }

    #[test]
    fn ragged_blocks() {
        round_trip(17, 23, 4, 5, (2, 2), (3, 2));
    }

    #[test]
    fn rectangular_matrix_one_dimensional_grids() {
        round_trip(40, 10, 2, 2, (4, 1), (1, 5));
    }

    #[test]
    fn identity_redistribution() {
        round_trip(12, 12, 3, 3, (2, 2), (2, 2));
    }

    #[test]
    fn redistribute_after_real_expansion() {
        // End-to-end ReSHAPE expand: 2 ranks on 1x2 spawn 2 more, merge, and
        // redistribute the live matrix onto the 2x2 grid.
        let uni = Universe::new(4, 1, NetModel::ideal());
        let h = uni.launch(2, None, "grow", |comm| {
            let src_desc = Descriptor::square(16, 2, 1, 2);
            let dst_desc = Descriptor::square(16, 2, 2, 2);
            let a = DistMatrix::from_fn(src_desc, 0, comm.rank(), |i, j| (i * 100 + j) as f64);
            let merged = comm.spawn_merge(2, None, "new", move |ctx| {
                let merged = ctx.parent.merge();
                let plan = plan_2d(src_desc, dst_desc);
                let out = redistribute_2d::<f64>(&merged, &plan, None);
                let out = out.expect("spawned ranks join the new grid");
                let grid = GridContext::new(&merged, 2, 2);
                let full = out.gather(&grid);
                assert!(full.is_none(), "only merged rank 0 gathers");
            });
            let plan = plan_2d(src_desc, dst_desc);
            let out = redistribute_2d(&merged, &plan, Some(&a)).expect("parent stays in grid");
            let grid = GridContext::new(&merged, 2, 2);
            let full = out.gather(&grid);
            if merged.rank() == 0 {
                let full = full.unwrap();
                for i in 0..16 {
                    for j in 0..16 {
                        assert_eq!(full[i * 16 + j], (i * 100 + j) as f64);
                    }
                }
            }
        });
        h.join_ok();
        uni.join_spawned();
    }

    #[test]
    fn integer_payloads() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "ints", |comm| {
            let s = Descriptor::square(8, 2, 2, 2);
            let d = Descriptor::square(8, 2, 1, 4);
            let plan = plan_2d(s, d);
            let me = comm.rank();
            let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * 8 + j) as u64);
            let out = redistribute_2d(&comm, &plan, Some(&src)).unwrap();
            for li in 0..out.local_rows() {
                let gi = d.local_to_global_row(li, out.myrow);
                for lj in 0..out.local_cols() {
                    let gj = d.local_to_global_col(lj, out.mycol);
                    assert_eq!(out.get_local(li, lj), (gi * 8 + gj) as u64);
                }
            }
        })
        .join_ok();
    }

    /// A 1-D array of `n` elements in blocks of `b` moving from `p` to `q`
    /// ranks: the `1 × n` matrix on a `1 × p` grid going to `1 × q`.
    fn round_trip_1d(n: usize, b: usize, p: usize, q: usize) {
        round_trip(1, n, 1, b, (1, p), (1, q));
    }

    #[test]
    fn expand_2_to_5() {
        round_trip_1d(40, 2, 2, 5);
    }

    #[test]
    fn shrink_6_to_2() {
        round_trip_1d(36, 3, 6, 2);
    }

    #[test]
    fn ragged_tail_block() {
        round_trip_1d(17, 4, 3, 4);
    }

    #[test]
    fn identity_layout() {
        round_trip_1d(24, 4, 3, 3);
    }

    /// The paper's column format: an `n × 1` array on a `P × 1` grid going
    /// to `Q × 1`, its last block ragged.
    #[test]
    fn column_format_expand_3_to_5() {
        round_trip(23, 1, 4, 1, (3, 1), (5, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn random_1d_layouts_preserve_data(
            n in 1usize..200,
            b in 1usize..8,
            p in 1usize..6,
            q in 1usize..6,
        ) {
            round_trip_1d(n, b, p, q);
        }
    }
}
