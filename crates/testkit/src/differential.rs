//! Differential redistribution checker.
//!
//! The redist crate moves a distributed matrix through one `redistribute`,
//! over a (plan × commit × pre-flight) product: two planners (`plan_2d`,
//! `plan_naive_2d`), direct or staged commit, with or without the liveness
//! pre-flight. A 1-D array moves as the `1 × n` matrix on a `1 × p` grid,
//! along `plan_2d`'s plan, and keeps its own [`Mover`] and [`Path`] rows.
//! Beside it stand two independent implementations: the checkpoint/restart
//! funnel, and the [`binning`](crate::binning) oracle, which shares no code
//! with the crate. For any source/destination layout every [`Route`] through them
//! must produce the *bitwise identical* destination — and under an injected
//! node death, every pre-flighted or staged route must refuse to move a
//! single element.
//!
//! Two pins hold the code behind the routes still: [`path_digest`] hashes
//! the output, traffic and verdicts of each entry point the crate had
//! before they became one (each a [`Path`]), and
//! [`executor_traffic`] records what each scheduled path puts on the wire.
//!
//! Each route runs in its own fresh [`Universe`] over identical seeded
//! inputs; destination panels are written into a shared full-array image
//! and the images are compared element for element.

use std::sync::{Arc, Mutex};

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_mpisim::{Comm, NetModel, Universe};
use reshape_redist::{
    checkpoint_redistribute, plan_2d, plan_naive_2d, preflight, redistribute, CheckpointParams,
    Commit, RedistError,
};

use crate::binning::redistribute_general;
use crate::rng::SplitMix64;

/// One randomized 2-D layout pair. Every 2-D route must agree on it.
#[derive(Clone, Copy, Debug)]
pub struct Case2d {
    pub m: usize,
    pub n: usize,
    pub mb: usize,
    pub nb: usize,
    pub src_grid: (usize, usize),
    pub dst_grid: (usize, usize),
}

/// Draw a 2-D case. Grids are kept ≤ 3×3 so a full differential sweep over
/// every route stays fast; matrix shapes and block sizes are ragged on
/// purpose.
pub fn gen_case_2d(rng: &mut SplitMix64) -> Case2d {
    Case2d {
        m: rng.usize_range(4, 24),
        n: rng.usize_range(4, 24),
        mb: rng.usize_range(1, 4),
        nb: rng.usize_range(1, 4),
        src_grid: (rng.usize_range(1, 3), rng.usize_range(1, 3)),
        dst_grid: (rng.usize_range(1, 3), rng.usize_range(1, 3)),
    }
}

/// Deterministic element value — an injective function of the global
/// coordinates, so any misrouted element is detected.
fn value(gi: usize, gj: usize) -> u64 {
    (gi as u64) * 1_000_003 + gj as u64 + 1
}

/// The `1 × n` layout of `n` elements in blocks of `b` over `procs` ranks:
/// a 1-D array, as [`redistribute`] moves it.
fn one_by_n(n: usize, b: usize, procs: usize) -> Descriptor {
    Descriptor::new(1, n, 1, b, 1, procs)
}

/// Sentinel for "no path wrote this element".
const UNWRITTEN: u64 = u64::MAX;

/// What moves the array along a [`Route`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mover {
    /// `redistribute` of a `plan_2d` plan.
    Planned2d,
    /// `redistribute` of a `plan_naive_2d` plan.
    Naive2d,
    /// `redistribute` of a `plan_2d` plan over a 1-D array's `1 × n`
    /// layouts.
    Planned1d,
    /// `checkpoint_redistribute`.
    Checkpoint,
    /// The [`binning`](crate::binning) oracle.
    Binning,
}

/// Every mover of a 2-D array.
pub const MOVERS_2D: [Mover; 4] = [
    Mover::Planned2d,
    Mover::Naive2d,
    Mover::Checkpoint,
    Mover::Binning,
];

/// Every mover of a 1-D array.
pub const MOVERS_1D: [Mover; 1] = [Mover::Planned1d];

/// One way to move an array: a mover, the commit mode of a plan's move, and
/// whether the liveness pre-flight runs first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    pub mover: Mover,
    pub commit: Commit,
    pub preflight: bool,
}

/// Every route through `movers`: a plan moves in either commit mode, the
/// checkpoint funnel has none, and the oracle never pre-flights.
pub fn routes(movers: &[Mover]) -> Vec<Route> {
    let mut all = Vec::new();
    for &mover in movers {
        let commits: &[Commit] = match mover {
            Mover::Checkpoint | Mover::Binning => &[Commit::Direct],
            _ => &[Commit::Direct, Commit::Staged],
        };
        let checks: &[bool] = match mover {
            Mover::Binning => &[false],
            _ => &[false, true],
        };
        for &commit in commits {
            for &preflight in checks {
                all.push(Route {
                    mover,
                    commit,
                    preflight,
                });
            }
        }
    }
    all
}

/// Demand that every route through `movers` writes `case`'s whole array,
/// element for element as [`value`] made it.
fn agree(movers: &[Mover], case: &Case, expected: &[u64]) -> Result<(), String> {
    for route in routes(movers) {
        let img = run(route, case).image;
        if let Some(bad) = img.iter().zip(expected).position(|(a, b)| a != b) {
            return Err(format!(
                "{route:?} diverges on {case:?} at element {bad}: got {}, want {}",
                img[bad], expected[bad]
            ));
        }
    }
    Ok(())
}

/// Run every 2-D route on `case` and demand bitwise-identical, complete,
/// correct destination images.
pub fn differential_2d(case: &Case2d) -> Result<(), String> {
    let expected: Vec<u64> = (0..case.m)
        .flat_map(|i| (0..case.n).map(move |j| value(i, j)))
        .collect();
    agree(&MOVERS_2D, &Case::TwoD(*case), &expected)
}

/// 1-D differential: every route of the table-based 1-D schedule, element
/// for element.
pub fn differential_1d(n: usize, b: usize, p: usize, q: usize) -> Result<(), String> {
    let expected: Vec<u64> = (0..n).map(|g| value(g, 0)).collect();
    agree(&MOVERS_1D, &Case::OneD(Case1d { n, b, p, q }), &expected)
}

/// Every pre-flighted or staged route must abort — identically, and without
/// returning any destination panel — when a rank in the layout is dead; a
/// pre-flighted one before sending a single message.
pub fn dead_rank_aborts_2d() -> Result<(), String> {
    let all: Vec<Mover> = MOVERS_2D.iter().chain(&MOVERS_1D).copied().collect();
    for route in routes(&all) {
        if !route.preflight && route.commit == Commit::Direct {
            continue;
        }
        let run = run(route, &Case::DeadRank);
        if run.verdicts[..3] != [3, 3, 3] {
            return Err(format!(
                "{route:?}: expected all three survivors to blame rank 3, got {:?}",
                run.verdicts
            ));
        }
        if run.image.iter().any(|&v| v != UNWRITTEN) {
            return Err(format!("{route:?}: an aborted move returned data"));
        }
        if route.preflight && run.traffic.iter().any(|&(msgs, _, _)| msgs != 0) {
            return Err(format!(
                "{route:?}: pre-flight abort sent messages: {:?}",
                run.traffic
            ));
        }
    }
    Ok(())
}

/// The scheduled executor paths whose wire traffic [`executor_traffic`]
/// measures, one fixed layout pair each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficPath {
    /// `plan_2d`, direct, 17×23 in 3×2 blocks, 2×2 → 2×3.
    PlannedExpand,
    /// `plan_2d`, direct, the same matrix 2×3 → 2×2.
    PlannedShrink,
    /// `plan_naive_2d`, direct, 2×2 → 2×3.
    Naive,
    /// `plan_2d`, direct, 37 elements in blocks of 3, `1 × 3` → `1 × 5`.
    Planned1d,
    /// `plan_2d`, staged, committing the `PlannedExpand` move.
    TxnCommit,
}

/// Run one path on its fixed case over Gigabit Ethernet and return, per
/// rank, `(messages sent, payload bytes sent, bits of the virtual clock)`
/// as the call returns. Message order and payload sizes fix all three, so a
/// pinned table of these detects any change to what an executor sends.
pub fn executor_traffic(path: TrafficPath) -> Vec<(u64, u64, u64)> {
    let ranks = match path {
        TrafficPath::Planned1d => 5,
        _ => 6,
    };
    let seen = Arc::new(Mutex::new(vec![(0u64, 0u64, 0u64); ranks]));
    let sink = seen.clone();
    let uni = Universe::new(ranks, 1, NetModel::gigabit_ethernet());
    uni.launch(ranks, None, "traffic", move |comm| {
        let me = comm.rank();
        let mat = |d: Descriptor| {
            (me < d.nprow * d.npcol)
                .then(|| DistMatrix::from_fn(d, me / d.npcol, me % d.npcol, value))
        };
        let narrow = Descriptor::new(17, 23, 3, 2, 2, 2);
        let wide = Descriptor::new(17, 23, 3, 2, 2, 3);
        let direct = Commit::Direct;
        let moved = match path {
            TrafficPath::PlannedExpand => {
                redistribute(&comm, &plan_2d(narrow, wide), mat(narrow).as_ref(), direct).map(drop)
            }
            TrafficPath::PlannedShrink => {
                redistribute(&comm, &plan_2d(wide, narrow), mat(wide).as_ref(), direct).map(drop)
            }
            TrafficPath::Naive => {
                let plan = plan_naive_2d(narrow, wide);
                redistribute(&comm, &plan, mat(narrow).as_ref(), direct).map(drop)
            }
            TrafficPath::Planned1d => {
                let (s, d) = (one_by_n(37, 3, 3), one_by_n(37, 3, 5));
                let src = (me < 3).then(|| DistMatrix::from_fn(s, 0, me, |_, g| value(g, 0)));
                redistribute(&comm, &plan_2d(s, d), src.as_ref(), direct).map(drop)
            }
            TrafficPath::TxnCommit => {
                let plan = plan_2d(narrow, wide);
                redistribute(&comm, &plan, mat(narrow).as_ref(), Commit::Staged).map(drop)
            }
        };
        moved.expect("every rank is alive, so the move commits");
        let stats = comm.stats();
        sink.lock().expect("traffic lock")[me] = (
            stats.msgs_sent(),
            stats.bytes_sent(),
            comm.vtime().to_bits(),
        );
    })
    .join_ok();
    let seen = seen.lock().expect("traffic lock").clone();
    seen
}

/// One randomized 1-D layout pair: `n` elements in blocks of `b`, `p` → `q`
/// ranks.
#[derive(Clone, Copy, Debug)]
pub struct Case1d {
    pub n: usize,
    pub b: usize,
    pub p: usize,
    pub q: usize,
}

/// Draw a 1-D case.
pub fn gen_case_1d(rng: &mut SplitMix64) -> Case1d {
    Case1d {
        n: rng.usize_range(1, 120),
        b: rng.usize_range(1, 6),
        p: rng.usize_range(1, 5),
        q: rng.usize_range(1, 5),
    }
}

/// The input one [`Path`] runs on.
#[derive(Clone, Copy, Debug)]
pub enum Case {
    TwoD(Case2d),
    OneD(Case1d),
    /// The dead-rank matrix: 8×8 in 2×2 blocks, 2×2 → 1×4 (16 elements in
    /// blocks of 2, `1 × 4` → `1 × 2`, for a 1-D path), rank 3 dead before
    /// the call.
    DeadRank,
}

impl Case {
    /// Source and destination descriptors of a path's array: a 1-D path
    /// moves its array as the `1 × n` matrix.
    fn layout(&self, one_d: bool) -> (Descriptor, Descriptor) {
        match (*self, one_d) {
            (Case::TwoD(c), false) => (
                Descriptor::new(c.m, c.n, c.mb, c.nb, c.src_grid.0, c.src_grid.1),
                Descriptor::new(c.m, c.n, c.mb, c.nb, c.dst_grid.0, c.dst_grid.1),
            ),
            (Case::OneD(c), true) => (one_by_n(c.n, c.b, c.p), one_by_n(c.n, c.b, c.q)),
            (Case::DeadRank, false) => (
                Descriptor::square(8, 2, 2, 2),
                Descriptor::square(8, 2, 1, 4),
            ),
            (Case::DeadRank, true) => (one_by_n(16, 2, 4), one_by_n(16, 2, 2)),
            _ => panic!("{self:?} does not fit a path with one_d = {one_d}"),
        }
    }

    /// Ranks in the universe and cells in the output image.
    fn size(&self) -> (usize, usize) {
        match *self {
            Case::TwoD(c) => (
                (c.src_grid.0 * c.src_grid.1).max(c.dst_grid.0 * c.dst_grid.1),
                c.m * c.n,
            ),
            Case::OneD(c) => (c.p.max(c.q), c.n),
            Case::DeadRank => (4, 64),
        }
    }

    /// The rank that is dead before the call, if any.
    fn dead(&self) -> Option<usize> {
        matches!(self, Case::DeadRank).then_some(3)
    }
}

/// Every way to move an array that the redistribution crate offered while
/// it had eleven entry points, one variant per (entry point, plan), less the
/// entry points of the reblocking planners, which are gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `redistribute_2d` over `plan_2d`.
    Planned2d,
    /// `redistribute_2d` over `plan_naive_2d`.
    Naive2d,
    /// `txn_redistribute_2d` over `plan_2d`.
    Txn2d,
    /// `try_redistribute_2d` over `plan_2d`.
    TryPlanned2d,
    /// `checkpoint_redistribute`.
    Checkpoint,
    /// `try_checkpoint_redistribute`.
    TryCheckpoint,
    /// `redistribute_general`, element binning over one `alltoallv`.
    Binning,
    /// `redistribute_1d` over `plan_1d`.
    Planned1d,
    /// `try_redistribute_1d` over `plan_1d`.
    TryPlanned1d,
}

impl Path {
    /// The route this entry point now is.
    pub fn route(self) -> Route {
        let (mover, commit, preflight) = match self {
            Path::Planned2d => (Mover::Planned2d, Commit::Direct, false),
            Path::Naive2d => (Mover::Naive2d, Commit::Direct, false),
            Path::Txn2d => (Mover::Planned2d, Commit::Staged, false),
            Path::TryPlanned2d => (Mover::Planned2d, Commit::Direct, true),
            Path::Checkpoint => (Mover::Checkpoint, Commit::Direct, false),
            Path::TryCheckpoint => (Mover::Checkpoint, Commit::Direct, true),
            Path::Binning => (Mover::Binning, Commit::Direct, false),
            Path::Planned1d => (Mover::Planned1d, Commit::Direct, false),
            Path::TryPlanned1d => (Mover::Planned1d, Commit::Direct, true),
        };
        Route {
            mover,
            commit,
            preflight,
        }
    }
}

/// The paths that move a 2-D array.
pub const PATHS_2D: [Path; 7] = [
    Path::Planned2d,
    Path::Naive2d,
    Path::Txn2d,
    Path::TryPlanned2d,
    Path::Checkpoint,
    Path::TryCheckpoint,
    Path::Binning,
];

/// The paths that move a 1-D array.
pub const PATHS_1D: [Path; 2] = [Path::Planned1d, Path::TryPlanned1d];

/// The rows of the dead-rank matrix: every path that can refuse to move.
pub const DEAD_RANK_PATHS: [Path; 4] = [
    Path::TryPlanned2d,
    Path::TryCheckpoint,
    Path::Txn2d,
    Path::TryPlanned1d,
];

/// Verdict of a rank whose call returned its layout.
const MOVED: u64 = u64::MAX;

/// Move `case`'s array along `route` on this rank: `Ok` with the
/// `(global index, value)` cells it holds afterwards.
fn dispatch(route: Route, comm: &Comm, case: &Case) -> Result<Vec<(usize, u64)>, RedistError> {
    let me = comm.rank();
    let one_d = MOVERS_1D.contains(&route.mover);
    let (s, d) = case.layout(one_d);
    let (p, q) = (s.nprow * s.npcol, d.nprow * d.npcol);
    if route.preflight {
        preflight(comm, p.max(q))?;
    }
    // A 1-D array's element `g`, its `1 × n` matrix's `(0, g)`, holds
    // `value(g, 0)`: the values the 1-D digests were recorded with.
    let fill = |i, j| if one_d { value(j, 0) } else { value(i, j) };
    let src = (me < p).then(|| DistMatrix::from_fn(s, me / s.npcol, me % s.npcol, fill));
    let src = src.as_ref();
    let got = match route.mover {
        Mover::Planned2d | Mover::Planned1d => {
            redistribute(comm, &plan_2d(s, d), src, route.commit)
        }
        Mover::Naive2d => redistribute(comm, &plan_naive_2d(s, d), src, route.commit),
        Mover::Checkpoint => checkpoint_redistribute(comm, s, d, src, &CheckpointParams::default()),
        _ => Ok(redistribute_general(comm, s, d, src)),
    }?;
    Ok(got.map_or_else(Vec::new, |m| {
        let mut cells = Vec::with_capacity(m.local_rows() * m.local_cols());
        for li in 0..m.local_rows() {
            let gi = d.local_to_global_row(li, m.myrow);
            for lj in 0..m.local_cols() {
                let gj = d.local_to_global_col(lj, m.mycol);
                cells.push((gi * d.n + gj, m.get_local(li, lj)));
            }
        }
        cells
    }))
}

/// What one path leaves behind on one case.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Run {
    /// Every destination cell, [`UNWRITTEN`] where no rank returned it.
    image: Vec<u64>,
    /// Per rank, as its call returns: messages sent, payload bytes sent,
    /// bits of the virtual clock.
    traffic: Vec<(u64, u64, u64)>,
    /// Per rank: the dead rank its call blamed, or [`MOVED`].
    verdicts: Vec<u64>,
}

/// Run `route` on `case` in a fresh universe over Gigabit Ethernet.
///
/// Ranks wait for the case's dead rank by yielding, not by advancing their
/// clocks, so every clock starts at zero and the traffic is a pure function
/// of the path and the case. After recording, every live rank waits for the
/// others, so no rank's exit looks like a death to a peer's pre-flight.
fn run(route: Route, case: &Case) -> Run {
    let (ranks, cells) = case.size();
    let dead = case.dead();
    let state = Arc::new(Mutex::new(Run {
        image: vec![UNWRITTEN; cells],
        traffic: vec![(0, 0, 0); ranks],
        verdicts: vec![MOVED; ranks],
    }));
    let sink = state.clone();
    let case = *case;
    let uni = Universe::new(ranks, 1, NetModel::gigabit_ethernet());
    uni.launch(ranks, None, "diffpath", move |comm| {
        let me = comm.rank();
        if Some(me) == dead {
            return;
        }
        if let Some(r) = dead {
            while comm.rank_alive(r) {
                std::thread::yield_now();
            }
        }
        let got = dispatch(route, &comm, &case);
        {
            let stats = comm.stats();
            let mut run = sink.lock().expect("run lock");
            run.traffic[me] = (
                stats.msgs_sent(),
                stats.bytes_sent(),
                comm.vtime().to_bits(),
            );
            match got {
                Ok(cells) => {
                    for (g, v) in cells {
                        run.image[g] = v;
                    }
                }
                Err(RedistError::Aborted { dead_rank }) => run.verdicts[me] = dead_rank as u64,
                Err(e) => panic!("{route:?} on {case:?}: {e}"),
            }
        }
        let live: Vec<usize> = (0..ranks).filter(|&r| Some(r) != dead).collect();
        hold(&comm, &live);
    })
    .join_ok();
    let run = state.lock().expect("run lock").clone();
    run
}

/// Keep every rank in `live` registered until all of them get here.
fn hold(comm: &Comm, live: &[usize]) {
    const TAG_SYNC: u32 = 7_700_000;
    let (root, rest) = (live[0], &live[1..]);
    let mut buf: Vec<u64> = Vec::new();
    if comm.rank() == root {
        for &r in rest {
            comm.recv_into(r, TAG_SYNC, &mut buf);
        }
        for &r in rest {
            comm.send(r, TAG_SYNC, &[1u64]);
        }
    } else {
        comm.send(root, TAG_SYNC, &[1u64]);
        comm.recv_into(root, TAG_SYNC, &mut buf);
    }
}

/// FNV-1a over everything `path` leaves behind on `case`: the output image,
/// each rank's `(messages, bytes, vtime bits)` and the dead-rank verdicts.
/// A pinned table of these holds every path's results and wire traffic
/// while the code behind the paths changes.
pub fn path_digest(path: Path, case: &Case) -> u64 {
    let run = run(path.route(), case);
    let words = run
        .image
        .iter()
        .copied()
        .chain(run.traffic.iter().flat_map(|&(m, b, t)| [m, b, t]))
        .chain(run.verdicts.iter().copied());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.flat_map(u64::to_le_bytes) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_case_all_paths_agree() {
        differential_2d(&Case2d {
            m: 10,
            n: 14,
            mb: 2,
            nb: 3,
            src_grid: (2, 2),
            dst_grid: (1, 3),
        })
        .unwrap();
    }

    #[test]
    fn fixed_1d_paths_agree() {
        differential_1d(37, 3, 3, 5).unwrap();
    }
}
