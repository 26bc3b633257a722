//! The schedule executor: every scheduled redistribution in this crate —
//! planned or naive or general, 1-D or 2-D, direct or staged — is one
//! [`Plan`], lowered by [`redistribute`] to one [`Schedule`] and run by the
//! one step loop in [`execute`].
//!
//! The executor runs over a single communicator covering `max(P, Q)` ranks,
//! where the old grid occupies ranks `0..P` (row-major) and the new grid
//! ranks `0..Q`. This matches ReSHAPE's process management exactly: on
//! expansion the parents keep the low ranks of the merged communicator, and
//! on shrink the retained subset is the low ranks of the old one.
//!
//! A schedule is a list of steps, each a list of [`GTransfer2d`] moves: one
//! coalesced message carrying every element whose global row lies in one of
//! the move's row runs and whose global column lies in one of its column
//! runs. A general 2-D plan already is that; a
//! [`Transfer2d`](crate::Transfer2d) becomes it with one run per block; and
//! a 1-D transfer becomes it on a `1 × n` descriptor, because a
//! [`DistVector`]'s local data is bit-for-bit the local panel of
//! `Descriptor::new(1, n, 1, nb, 1, p)`. Every run lies inside one block of
//! both layouts, so it is contiguous in the row-major local panel on both
//! sides and [`pack`] / [`unpack`] copy it as a slice.
//!
//! Steps execute in order; within a step each rank fires at most one send
//! and completes at most one receive (the schedule is a partial
//! permutation). The paper arms MPI persistent requests per step; buffered
//! sends give identical semantics here.
//!
//! In direct mode no element is copied more than it must be. A remote move
//! is packed once, into an exactly sized vector that becomes the message
//! ([`Comm::send_vec`]), and the receiver unpacks it straight out of the
//! payload's bytes ([`Comm::recv_with`]): two copies. A local move copies
//! span to span from the old panel into the new one: one copy. Within a
//! step a rank fires its remote sends before its local copies, so their
//! receivers start while it copies.

use std::borrow::Cow;
use std::ops::Range;
use std::time::Instant;

use reshape_blockcyclic::{g2l, Descriptor, DistMatrix, DistVector};
use reshape_mpisim::{Comm, Pod};

use crate::fault::RedistError;
use crate::general1d::{lower_general_1d, GeneralPlan1d};
use crate::general2d::{lower_general_2d, GTransfer2d, GeneralPlan2d};
use crate::plan1d::{lower_1d, Redist1d};
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

/// A plan of any kind, lowered to what the step loop needs.
pub(crate) struct Schedule<'a> {
    pub src: Descriptor,
    pub dst: Descriptor,
    pub steps: Cow<'a, [Vec<GTransfer2d>]>,
}

impl Schedule<'_> {
    /// Every rank the schedule can name as a source or destination.
    pub fn world(&self) -> usize {
        procs(&self.src).max(procs(&self.dst))
    }
}

/// Processes in `d`'s grid.
pub(crate) fn procs(d: &Descriptor) -> usize {
    d.nprow * d.npcol
}

/// The `1 × n` layout whose local panels are bit for bit the local parts of
/// an `n`-element array in blocks of `nb` over `p` processes.
pub(crate) fn view_1d(n: usize, nb: usize, p: usize) -> Descriptor {
    Descriptor {
        m: 1,
        n,
        mb: 1,
        nb,
        nprow: 1,
        npcol: p,
    }
}

/// A redistribution plan of any kind, borrowed: building one copies neither
/// the plan nor any data. Every kind lowers to the same step list, so one
/// [`redistribute`] runs them all; a 1-D kind moves a [`DistVector`] as the
/// `1 × n` matrix it is.
#[derive(Clone, Copy, Debug)]
pub enum Plan<'a> {
    /// Planned 2-D ([`plan_2d`](crate::plan_2d)) or the naive single burst
    /// ([`plan_naive_2d`](crate::plan_naive_2d)).
    TwoD(&'a Redist2d),
    /// General 2-D: block sizes may change too
    /// ([`plan_general_2d`](crate::plan_general_2d)).
    General2d(&'a GeneralPlan2d),
    /// Planned 1-D ([`plan_1d`](crate::plan_1d)).
    OneD(&'a Redist1d),
    /// General 1-D ([`plan_general_1d`](crate::plan_general_1d)).
    General1d(&'a GeneralPlan1d),
}

impl<'a> From<&'a Redist2d> for Plan<'a> {
    fn from(plan: &'a Redist2d) -> Self {
        Plan::TwoD(plan)
    }
}

impl<'a> From<&'a GeneralPlan2d> for Plan<'a> {
    fn from(plan: &'a GeneralPlan2d) -> Self {
        Plan::General2d(plan)
    }
}

impl<'a> From<&'a Redist1d> for Plan<'a> {
    fn from(plan: &'a Redist1d) -> Self {
        Plan::OneD(plan)
    }
}

impl<'a> From<&'a GeneralPlan1d> for Plan<'a> {
    fn from(plan: &'a GeneralPlan1d) -> Self {
        Plan::General1d(plan)
    }
}

impl<'a> Plan<'a> {
    /// Every rank the plan can name: the larger layout's process count, the
    /// ranks [`preflight`](crate::preflight) scans.
    pub fn world(self) -> usize {
        match self {
            Plan::TwoD(p) => procs(&p.src).max(procs(&p.dst)),
            Plan::General2d(p) => procs(&p.src).max(procs(&p.dst)),
            Plan::OneD(p) => p.p.max(p.q),
            Plan::General1d(p) => p.p.max(p.q),
        }
    }

    pub(crate) fn lower(self) -> Schedule<'a> {
        match self {
            Plan::TwoD(p) => lower_2d(p),
            Plan::General2d(p) => lower_general_2d(p),
            Plan::OneD(p) => lower_1d(p),
            Plan::General1d(p) => lower_general_1d(p),
        }
    }
}

/// When received elements reach the destination panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Commit {
    /// Each payload is packed once into the vector that becomes the message
    /// (`send_vec`) and unpacked straight out of it as it arrives
    /// (`recv_with`). A peer that dies mid-move panics or wedges the
    /// transport.
    Direct,
    /// Survive a rank death inside the movement: sends go through
    /// `try_send`, which fails once the destination's node has crashed, and
    /// receives through `recv_or_failed`, which fails once the sender has
    /// died without sending. Payloads (local moves too) are parked in shadow
    /// buffers, copying as those calls do. A rank that sees a failure keeps
    /// driving its remaining sends and receives, so live peers never wait on
    /// it, but votes ABORT in a final all-to-all round. Only a rank that
    /// completed every transfer and collected an OK vote from every peer
    /// unpacks; every other survivor returns [`RedistError::Aborted`] with
    /// its source untouched and no destination panel.
    ///
    /// The vote gives local atomicity, not global agreement: if a rank dies
    /// midway through casting its votes, a survivor that already has its OK
    /// may commit while another aborts. The driver's recovery fence resolves
    /// this: any death during the resize epoch is detected there and every
    /// survivor discards the epoch's output, committed or not.
    Staged,
}

/// An array [`redistribute`] can move: a [`DistMatrix`], or a [`DistVector`],
/// whose local part is bit for bit its panel of the `1 × n` matrix.
pub trait DistArray: Sized + sealed::Sealed {
    type Elem: Pod + Default;
    /// The layout this array is one panel of, and the panel's grid position.
    fn layout(&self) -> (Descriptor, (usize, usize));
    /// Whether this array type can be a panel of layout `d`.
    fn holds(d: &Descriptor) -> bool;
    /// A zeroed panel of `d`, which [`holds`](Self::holds) accepts, at grid
    /// position `at`.
    fn zeroed(d: &Descriptor, at: (usize, usize)) -> Self;
    /// This panel's elements, row-major.
    fn panel(&self) -> &[Self::Elem];
    fn panel_mut(&mut self) -> &mut [Self::Elem];
}

mod sealed {
    /// Only this crate's array types: [`redistribute`](super::redistribute)
    /// trusts their panels to match their layouts.
    pub trait Sealed {}
    impl<T> Sealed for reshape_blockcyclic::DistMatrix<T> {}
    impl<T> Sealed for reshape_blockcyclic::DistVector<T> {}
}

impl<T: Pod + Default> DistArray for DistMatrix<T> {
    type Elem = T;
    fn layout(&self) -> (Descriptor, (usize, usize)) {
        (self.desc, (self.myrow, self.mycol))
    }
    fn holds(_: &Descriptor) -> bool {
        true
    }
    fn zeroed(d: &Descriptor, at: (usize, usize)) -> Self {
        DistMatrix::new(*d, at.0, at.1)
    }
    fn panel(&self) -> &[T] {
        self.local_data()
    }
    fn panel_mut(&mut self) -> &mut [T] {
        self.local_data_mut()
    }
}

impl<T: Pod + Default> DistArray for DistVector<T> {
    type Elem = T;
    fn layout(&self) -> (Descriptor, (usize, usize)) {
        (view_1d(self.n, self.nb, self.nprocs), (0, self.iproc))
    }
    fn holds(d: &Descriptor) -> bool {
        *d == view_1d(d.n, d.nb, d.npcol)
    }
    fn zeroed(d: &Descriptor, at: (usize, usize)) -> Self {
        DistVector::new(d.n, d.nb, at.1, d.npcol)
    }
    fn panel(&self) -> &[T] {
        self.local_data()
    }
    fn panel_mut(&mut self) -> &mut [T] {
        self.local_data_mut()
    }
}

/// Lower a plan's `steps`, one transfer at a time.
pub(crate) fn lower_steps<X>(
    steps: &[Vec<X>],
    lower: impl Fn(&X) -> GTransfer2d,
) -> Cow<'static, [Vec<GTransfer2d>]> {
    steps
        .iter()
        .map(|step| step.iter().map(&lower).collect())
        .collect()
}

/// The runs covering global blocks `blocks` of `plan`'s dimension.
pub(crate) fn block_runs(plan: &Redist1d, blocks: &[usize]) -> Vec<(usize, usize)> {
    blocks
        .iter()
        .map(|&k| (k * plan.b, plan.block_len(k)))
        .collect()
}

pub(crate) fn lower_2d(plan: &Redist2d) -> Schedule<'static> {
    Schedule {
        src: plan.src,
        dst: plan.dst,
        steps: lower_steps(&plan.steps, |t| GTransfer2d {
            src: t.src,
            dst: t.dst,
            row_runs: block_runs(&plan.row_plan, &t.row_blocks),
            col_runs: block_runs(&plan.col_plan, &t.col_blocks),
        }),
    }
}

/// Move a distributed array from `plan`'s source layout to its destination
/// layout, collectively over `comm`: the old layout on ranks `0..P`
/// (row-major), the new on ranks `0..Q`. Ranks `0..P` pass their panel of
/// the old layout; ranks `0..Q` get their panel of the new one back, and
/// every other rank gets `None`. A rank outside the source layout may pass
/// `None`.
///
/// Every rank checks its own arguments before it sends anything. A
/// communicator smaller than the larger layout, or an array type that
/// cannot hold the plan's layouts, fails on every rank alike. A source rank
/// that passes no panel ([`RedistError::MissingSource`]), or a panel whose
/// descriptor or grid position disagrees with the plan
/// ([`RedistError::LayoutMismatch`]), fails on that rank only, and as with
/// a panic, its peers are left waiting inside the collective. Under
/// [`Commit::Direct`] a peer that dies mid-move may panic or wedge the
/// collective too; [`preflight`](crate::preflight) first, or
/// [`Commit::Staged`], turn a death into [`RedistError::Aborted`]. The plan
/// is trusted as its planner built it.
pub fn redistribute<'p, A: DistArray>(
    comm: &Comm,
    plan: impl Into<Plan<'p>>,
    src: Option<&A>,
    commit: Commit,
) -> Result<Option<A>, RedistError> {
    let sched = plan.into().lower();
    let (s, d) = (&sched.src, &sched.dst);
    let local = source_panel(comm, s, d, src)?;
    let me = comm.rank();
    let mut out = (me < procs(d)).then(|| A::zeroed(d, (me / d.npcol, me % d.npcol)));
    execute(comm, &sched, commit, local, out.as_mut().map(A::panel_mut))?;
    Ok(out)
}

/// [`redistribute`] of a 2-D plan in [`Commit::Direct`] mode.
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
pub(crate) fn source_panel<'a, A: DistArray>(
    comm: &Comm,
    s: &Descriptor,
    d: &Descriptor,
    src: Option<&'a A>,
) -> Result<Option<&'a [A::Elem]>, RedistError> {
    let (size, world) = (comm.size(), procs(s).max(procs(d)));
    if size < world {
        return Err(RedistError::CommTooSmall { size, world });
    }
    let rank = comm.rank();
    if !A::holds(s) || !A::holds(d) {
        return Err(RedistError::LayoutMismatch { rank });
    }
    if rank >= procs(s) {
        return Ok(None);
    }
    let a = src.ok_or(RedistError::MissingSource { rank })?;
    if a.layout() != (*s, (rank / s.npcol, rank % s.npcol)) {
        return Err(RedistError::LayoutMismatch { rank });
    }
    Ok(Some(a.panel()))
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

/// The step loop. `src` is this rank's old local panel (ranks `0..P`), `out`
/// its zeroed new one (ranks `0..Q`). `Err` only in [`Commit::Staged`] mode,
/// and then `out` has not been written.
///
/// The loop tolerates steps that are NOT partial permutations (a rank may
/// send and receive several messages per step): ReSHAPE's schedules never
/// need that, but the naive single-step baseline used by the contention
/// ablation does. Sends are buffered, so issuing every send before any
/// receive is deadlock-free.
fn execute<T: Pod + Default>(
    comm: &Comm,
    sched: &Schedule<'_>,
    mode: Commit,
    src: Option<&[T]>,
    mut out: Option<&mut [T]>,
) -> Result<(), RedistError> {
    let (s, d) = (&sched.src, &sched.dst);
    let world = sched.world();
    let me = comm.rank();
    // This rank's coordinates in each grid it holds a panel of; a rank
    // outside a grid matches no move there. `my_dst` is set exactly when
    // `out` is.
    let my_src = src.is_some().then_some((me / s.npcol, me % s.npcol));
    let my_dst = out.is_some().then_some((me / d.npcol, me % d.npcol));
    let (src_lcols, dst_lcols) = (s.local_cols(me % s.npcol), d.local_cols(me % d.npcol));
    let tag_base = match mode {
        Commit::Direct => TAG_DIRECT_BASE,
        Commit::Staged => TAG_STAGED_BASE,
    };

    // Causal trace: one executor span per rank-0 execution, stamped in
    // *virtual* time and parented to whatever span the caller is inside
    // (the driver's redist span, or the sim's redistribution phase).
    let trace_v0 = (me == 0 && reshape_telemetry::trace::enabled()).then(|| comm.vtime());

    // Per-phase wall-clock accounting (pack / transfer / unpack), recorded
    // once per execution.
    let tel = reshape_telemetry::enabled();
    let (mut pack_s, mut xfer_s, mut unpack_s) = (0.0f64, 0.0f64, 0.0f64);
    let (mut transfers, mut bytes_sent) = (0u64, 0u64);

    // Staged mode's shadow buffers: every payload this rank will eventually
    // unpack, beside its move. Local moves are staged too, so an abort
    // after a partial step leaves no trace anywhere.
    let mut staged: Vec<(&GTransfer2d, Vec<T>)> = Vec::new();
    // First failure observed (staged mode). A rank that observes a failure
    // keeps driving the remaining sends and receives so its live peers make
    // progress; it just remembers to vote ABORT.
    let mut dead: Option<usize> = None;

    for (t, step) in sched.steps.iter().enumerate() {
        let tag = tag_base + t as u32;
        let mine = step.iter().filter(|mv| Some(mv.src) == my_src);
        if let Some(local) = src {
            // Remote sends first, so their receivers can start while this
            // rank copies its local moves.
            for mv in mine.clone().filter(|mv| Some(mv.dst) != my_dst) {
                let payload = timed(tel, &mut pack_s, || pack(local, s, src_lcols, mv));
                let to = mv.dst.0 * d.npcol + mv.dst.1;
                transfers += 1;
                bytes_sent += std::mem::size_of_val(&payload[..]) as u64;
                let sent = timed(tel, &mut xfer_s, || match mode {
                    Commit::Direct => {
                        comm.send_vec(to, tag, payload);
                        Ok(())
                    }
                    Commit::Staged => comm.try_send(to, tag, &payload),
                });
                if sent.is_err() {
                    dead.get_or_insert(to);
                }
            }
            // Local moves: both endpoints are this rank.
            for mv in mine.filter(|mv| Some(mv.dst) == my_dst) {
                match (mode, out.as_deref_mut()) {
                    (Commit::Direct, Some(out)) => timed(tel, &mut unpack_s, || {
                        copy_local(local, s, src_lcols, out, d, dst_lcols, mv)
                    }),
                    _ => staged.push((
                        mv,
                        timed(tel, &mut pack_s, || pack(local, s, src_lcols, mv)),
                    )),
                }
            }
        }
        for mv in step
            .iter()
            .filter(|mv| Some(mv.dst) == my_dst && Some(mv.src) != my_src)
        {
            let from = mv.src.0 * s.npcol + mv.src.1;
            match (mode, out.as_deref_mut()) {
                (Commit::Direct, Some(out)) => {
                    // The wait is transfer time; the copy out of the
                    // payload, inside the receive, is unpack time.
                    let mut copy_s = 0.0;
                    timed(tel, &mut xfer_s, || {
                        comm.recv_with(from, tag, |payload| {
                            timed(tel, &mut copy_s, || unpack(payload, d, dst_lcols, mv, out))
                        })
                    });
                    xfer_s -= copy_s;
                    unpack_s += copy_s;
                }
                _ => match timed(tel, &mut xfer_s, || comm.recv_or_failed(from, tag)) {
                    Ok(payload) => staged.push((mv, payload)),
                    Err(()) => {
                        dead.get_or_insert(from);
                    }
                },
            }
        }
    }

    if let Commit::Staged = mode {
        commit_vote(comm, world, dead)?;
        if let Some(out) = out {
            timed(tel, &mut unpack_s, || {
                for (mv, payload) in &staged {
                    unpack(bytes_of(payload), d, dst_lcols, mv, out);
                }
            });
        }
    }

    if tel {
        reshape_telemetry::incr("redist.executions", 1);
        reshape_telemetry::incr("redist.plan_steps", sched.steps.len() as u64);
        reshape_telemetry::incr("redist.transfers", transfers);
        reshape_telemetry::incr("redist.bytes_sent", bytes_sent);
        reshape_telemetry::observe("redist.pack_seconds", pack_s);
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
/// the first failure this rank saw while moving data, if any.
fn commit_vote(comm: &Comm, world: usize, mut dead: Option<usize>) -> Result<(), RedistError> {
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
    if !commit {
        reshape_telemetry::incr("redist.txn_aborts", 1);
        // The staging area is dropped unread; the source was never written.
        return Err(RedistError::Aborted {
            dead_rank: dead.unwrap_or(me),
        });
    }
    reshape_telemetry::incr("redist.txn_commits", 1);
    Ok(())
}

/// Index ranges of a move's elements in the row-major local panel of layout
/// `d` (`lcols` columns wide), in payload order: row runs outer, global row
/// order within a run, column runs inner.
fn spans<'a>(
    d: &'a Descriptor,
    lcols: usize,
    mv: &'a GTransfer2d,
) -> impl Iterator<Item = Range<usize>> + 'a {
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

/// Serialize a move's elements from the source panel into an exactly sized
/// vector: one allocation, no doubling. In direct mode the vector is the
/// message.
fn pack<T: Pod>(local: &[T], d: &Descriptor, lcols: usize, mv: &GTransfer2d) -> Vec<T> {
    let mut buf = Vec::with_capacity(mv.elems());
    for span in spans(d, lcols, mv) {
        buf.extend_from_slice(&local[span]);
    }
    buf
}

/// Mirror of [`pack`] on the destination layout, straight from a payload's
/// bytes. Each span is one byte copy of `size_of::<T>()` times its length,
/// so the payload need not be aligned for `T`.
///
/// # Panics
///
/// Panics if the payload is not exactly the move's elements.
fn unpack<T: Pod>(payload: &[u8], d: &Descriptor, lcols: usize, mv: &GTransfer2d, local: &mut [T]) {
    let esz = std::mem::size_of::<T>();
    assert_eq!(
        payload.len(),
        mv.elems() * esz,
        "transfer payload length mismatch"
    );
    let local = bytes_of_mut(local);
    let mut at = 0;
    for span in spans(d, lcols, mv) {
        let len = span.len() * esz;
        local[span.start * esz..][..len].copy_from_slice(&payload[at..at + len]);
        at += len;
    }
}

/// A local move: each span of the old panel straight into its span of the
/// new one, with no buffer in between. Both layouts walk the move in payload
/// order, and paired spans are one column run, so their lengths agree.
fn copy_local<T: Pod>(
    src: &[T],
    s: &Descriptor,
    src_lcols: usize,
    out: &mut [T],
    d: &Descriptor,
    dst_lcols: usize,
    mv: &GTransfer2d,
) {
    for (from, to) in spans(s, src_lcols, mv).zip(spans(d, dst_lcols, mv)) {
        out[to].copy_from_slice(&src[from]);
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
    use crate::plan1d::plan_1d;
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

    /// Unpack scales every span by the element's size, so each width must
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

    /// A move of rows 0..2 x columns 0..2 on rank (0,0) of a 1x2 grid.
    fn corner_move() -> (Descriptor, GTransfer2d) {
        let d = Descriptor::square(8, 2, 1, 2);
        let mv = GTransfer2d {
            src: (0, 0),
            dst: (0, 0),
            row_runs: vec![(0, 2)],
            col_runs: vec![(0, 2)],
        };
        (d, mv)
    }

    #[test]
    fn unpack_reads_an_unaligned_payload() {
        let (d, mv) = corner_move();
        let want = [u64::MAX, 1, 2 << 40, 3];
        // One byte ahead of the elements, so no view of them is aligned.
        let framed: Vec<u8> = std::iter::once(0)
            .chain(want.iter().flat_map(|v| v.to_ne_bytes()))
            .collect();
        let mut local = vec![0u64; d.local_rows(0) * d.local_cols(0)];
        unpack(&framed[1..], &d, d.local_cols(0), &mv, &mut local);
        let lcols = d.local_cols(0);
        assert_eq!([local[0], local[1], local[lcols], local[lcols + 1]], want);
    }

    #[test]
    #[should_panic(expected = "transfer payload length mismatch")]
    fn unpack_rejects_a_payload_of_the_wrong_length() {
        let (d, mv) = corner_move();
        let mut local = vec![0u32; d.local_rows(0) * d.local_cols(0)];
        // Four u32 elements are 16 bytes; one short must not be unpacked.
        unpack(&[0u8; 15], &d, d.local_cols(0), &mv, &mut local);
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

    /// A 1-D plan moves a [`DistVector`] through the same executor.
    fn round_trip_1d(n: usize, b: usize, p: usize, q: usize) {
        let ranks = p.max(q);
        Universe::new(ranks, 1, NetModel::ideal())
            .launch(ranks, None, "r1d", move |comm| {
                let plan = plan_1d(n, b, p, q);
                let me = comm.rank();
                let src =
                    (me < p).then(|| DistVector::from_fn(n, b, me, p, |g| (g * 31 + 7) as f64));
                let out = redistribute(&comm, &plan, src.as_ref(), Commit::Direct).unwrap();
                if me < q {
                    let out = out.expect("in destination layout");
                    for l in 0..out.local_len() {
                        let g = out.global_index(l);
                        assert_eq!(out.get_local(l), (g * 31 + 7) as f64, "element {g}");
                    }
                } else {
                    assert!(out.is_none());
                }
            })
            .join_ok();
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
