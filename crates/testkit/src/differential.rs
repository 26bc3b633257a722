//! Differential redistribution checker.
//!
//! The redist crate ships five 2-D data paths (the paper's contention-free
//! schedule, the naive single-step baseline, the generalized
//! block-size-changing executor, the checkpoint/restart funnel, and the
//! transactional commit of the paper's schedule) and two 1-D paths. For any
//! source/destination layout they must all produce the *bitwise identical*
//! destination matrix — and under an injected node death, all fault-checked
//! variants must refuse to move a single element. [`executor_traffic`]
//! additionally pins what each scheduled path puts on the wire.
//!
//! Each path runs in its own fresh [`Universe`] over identical seeded
//! inputs; destination panels are written into a shared full-matrix image
//! and the images are compared byte for byte.

use std::sync::{Arc, Mutex};

use reshape_blockcyclic::{Descriptor, DistMatrix, DistVector};
use reshape_mpisim::{NetModel, Universe};
use reshape_redist::{
    checkpoint_redistribute, plan_1d, plan_2d, plan_general_1d, plan_general_2d, plan_naive_2d,
    redistribute_1d, redistribute_2d, redistribute_general_1d, redistribute_general_2d,
    try_checkpoint_redistribute, try_redistribute_1d, try_redistribute_2d,
    try_redistribute_general_2d, txn_redistribute_2d, CheckpointParams,
};

use crate::rng::SplitMix64;

/// One randomized 2-D layout pair. All five 2-D paths must agree on it.
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
/// five paths stays fast; matrix shapes and block sizes are ragged on
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

/// Sentinel for "no path wrote this element".
const UNWRITTEN: u64 = u64::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path2d {
    Planned,
    Naive,
    General,
    Checkpoint,
    Txn,
}

const ALL_2D: [Path2d; 5] = [
    Path2d::Planned,
    Path2d::Naive,
    Path2d::General,
    Path2d::Checkpoint,
    Path2d::Txn,
];

/// Run one 2-D path to completion and return the assembled destination
/// image.
fn run_path_2d(case: &Case2d, which: Path2d) -> Vec<u64> {
    let (m, n, mb, nb) = (case.m, case.n, case.mb, case.nb);
    let (sg, dg) = (case.src_grid, case.dst_grid);
    let p = sg.0 * sg.1;
    let q = dg.0 * dg.1;
    let ranks = p.max(q);
    let image = Arc::new(Mutex::new(vec![UNWRITTEN; m * n]));
    let out = image.clone();
    let uni = Universe::new(ranks, 1, NetModel::ideal());
    uni.launch(ranks, None, "diff2d", move |comm| {
        let src_desc = Descriptor::new(m, n, mb, nb, sg.0, sg.1);
        let dst_desc = Descriptor::new(m, n, mb, nb, dg.0, dg.1);
        let me = comm.rank();
        let src = (me < p).then(|| DistMatrix::from_fn(src_desc, me / sg.1, me % sg.1, value));
        let got: Option<DistMatrix<u64>> = match which {
            Path2d::Planned => redistribute_2d(&comm, &plan_2d(src_desc, dst_desc), src.as_ref()),
            Path2d::Naive => {
                redistribute_2d(&comm, &plan_naive_2d(src_desc, dst_desc), src.as_ref())
            }
            Path2d::General => {
                redistribute_general_2d(&comm, &plan_general_2d(src_desc, dst_desc), src.as_ref())
            }
            Path2d::Checkpoint => checkpoint_redistribute(
                &comm,
                src_desc,
                dst_desc,
                src.as_ref(),
                &CheckpointParams::default(),
                None,
            ),
            Path2d::Txn => txn_redistribute_2d(&comm, &plan_2d(src_desc, dst_desc), src.as_ref())
                .expect("every rank is alive, so the transaction commits"),
        };
        if let Some(mat) = got {
            let mut buf = out.lock().expect("image lock");
            for li in 0..mat.local_rows() {
                let gi = dst_desc.local_to_global_row(li, mat.myrow);
                for lj in 0..mat.local_cols() {
                    let gj = dst_desc.local_to_global_col(lj, mat.mycol);
                    buf[gi * n + gj] = mat.get_local(li, lj);
                }
            }
        }
    })
    .join_ok();
    let img = image.lock().expect("image lock").clone();
    img
}

/// Run every 2-D path on `case` and demand bitwise-identical, complete,
/// correct destination images.
pub fn differential_2d(case: &Case2d) -> Result<(), String> {
    let expected: Vec<u64> = (0..case.m)
        .flat_map(|i| (0..case.n).map(move |j| value(i, j)))
        .collect();
    for which in ALL_2D {
        let img = run_path_2d(case, which);
        if img != expected {
            let bad = img
                .iter()
                .zip(&expected)
                .position(|(a, b)| a != b)
                .expect("images differ");
            return Err(format!(
                "{which:?} diverges on {case:?} at element ({}, {}): got {}, want {}",
                bad / case.n,
                bad % case.n,
                img[bad],
                expected[bad]
            ));
        }
    }
    Ok(())
}

/// 1-D differential: the table-based 1-D schedule against the generalized
/// 1-D executor, element-for-element.
pub fn differential_1d(n: usize, b: usize, p: usize, q: usize) -> Result<(), String> {
    let mut images: Vec<Vec<u64>> = Vec::new();
    for which in 0..2u8 {
        let image = Arc::new(Mutex::new(vec![UNWRITTEN; n]));
        let out = image.clone();
        let ranks = p.max(q);
        let uni = Universe::new(ranks, 1, NetModel::ideal());
        uni.launch(ranks, None, "diff1d", move |comm| {
            let me = comm.rank();
            let src = (me < p).then(|| DistVector::from_fn(n, b, me, p, |g| value(g, 0)));
            let got: Option<DistVector<u64>> = if which == 0 {
                redistribute_1d(&comm, &plan_1d(n, b, p, q), src.as_ref())
            } else {
                redistribute_general_1d(&comm, &plan_general_1d(n, b, p, b, q), src.as_ref())
            };
            if let Some(part) = got {
                let mut buf = out.lock().expect("image lock");
                for l in 0..part.local_len() {
                    buf[part.global_index(l)] = part.get_local(l);
                }
            }
        })
        .join_ok();
        let img = image.lock().expect("image lock").clone();
        images.push(img);
    }
    let expected: Vec<u64> = (0..n).map(|g| value(g, 0)).collect();
    for (i, img) in images.iter().enumerate() {
        if *img != expected {
            return Err(format!(
                "1-D path {i} diverges for n={n} b={b} p={p}->q={q}"
            ));
        }
    }
    Ok(())
}

/// Every fault-aware variant must abort — identically, and without touching
/// the source — when a rank in the layout is dead.
pub fn dead_rank_aborts_2d() -> Result<(), String> {
    #[derive(Clone, Copy)]
    enum TryPath {
        Planned,
        General,
        Checkpoint,
        Txn,
        Planned1d,
    }
    for (label, which) in [
        ("planned", TryPath::Planned),
        ("general", TryPath::General),
        ("checkpoint", TryPath::Checkpoint),
        ("txn", TryPath::Txn),
        ("planned-1d", TryPath::Planned1d),
    ] {
        let verdicts = Arc::new(Mutex::new(Vec::<usize>::new()));
        let sink = verdicts.clone();
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "deadrank", move |comm| {
            let s = Descriptor::square(8, 2, 2, 2);
            let d = Descriptor::square(8, 2, 1, 4);
            let me = comm.rank();
            if me == 3 {
                return; // the injected death
            }
            while comm.rank_alive(3) {
                comm.advance(0.001);
            }
            let src = DistMatrix::from_fn(s, me / 2, me % 2, value);
            let src_1d = DistVector::from_fn(16, 2, me, 4, |g| value(g, 0));
            let snapshot = (src.local_data().to_vec(), src_1d.local_data().to_vec());
            let err =
                match which {
                    TryPath::Planned => try_redistribute_2d(&comm, &plan_2d(s, d), Some(&src))
                        .expect_err("must abort"),
                    TryPath::General => {
                        try_redistribute_general_2d(&comm, &plan_general_2d(s, d), Some(&src))
                            .expect_err("must abort")
                    }
                    TryPath::Checkpoint => try_checkpoint_redistribute(
                        &comm,
                        s,
                        d,
                        Some(&src),
                        &CheckpointParams::default(),
                        None,
                    )
                    .expect_err("must abort"),
                    TryPath::Txn => txn_redistribute_2d(&comm, &plan_2d(s, d), Some(&src))
                        .expect_err("must abort"),
                    TryPath::Planned1d => {
                        try_redistribute_1d(&comm, &plan_1d(16, 2, 4, 2), Some(&src_1d))
                            .expect_err("must abort")
                    }
                };
            assert_eq!(
                (src.local_data(), src_1d.local_data()),
                (&snapshot.0[..], &snapshot.1[..]),
                "abort moved data"
            );
            sink.lock().expect("verdict lock").push(err.dead_rank);
            // Hold every survivor until all three have scanned liveness, so
            // a finished peer is not mistaken for a dead one.
            const TAG_SYNC: u32 = 7_700_000;
            let mut buf: Vec<u64> = Vec::new();
            if me == 0 {
                comm.recv_into(1, TAG_SYNC, &mut buf);
                comm.recv_into(2, TAG_SYNC, &mut buf);
                comm.send(1, TAG_SYNC, &[1u64]);
                comm.send(2, TAG_SYNC, &[1u64]);
            } else {
                comm.send(0, TAG_SYNC, &[me as u64]);
                comm.recv_into(0, TAG_SYNC, &mut buf);
            }
        })
        .join_ok();
        let verdicts = verdicts.lock().expect("verdict lock").clone();
        if verdicts != vec![3, 3, 3] {
            return Err(format!(
                "{label}: expected all three survivors to blame rank 3, got {verdicts:?}"
            ));
        }
    }
    Ok(())
}

/// The scheduled executor paths whose wire traffic [`executor_traffic`]
/// measures, one fixed layout pair each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficPath {
    /// `redistribute_2d`, 17×23 in 3×2 blocks, 2×2 → 2×3.
    PlannedExpand,
    /// `redistribute_2d`, the same matrix 2×3 → 2×2.
    PlannedShrink,
    /// `redistribute_2d` over `plan_naive_2d`, 2×2 → 2×3.
    Naive,
    /// `redistribute_general_2d`, 20×24 from 2×3 blocks on 2×2 to 5×4
    /// blocks on 3×2.
    General2d,
    /// `redistribute_1d`, 37 elements in blocks of 3, 3 → 5 ranks.
    Planned1d,
    /// `redistribute_general_1d`, 50 elements, blocks 3 → 7, 2 → 4 ranks.
    General1d,
    /// `txn_redistribute_2d` committing the `PlannedExpand` move.
    TxnCommit,
}

/// Run one path on its fixed case over Gigabit Ethernet and return, per
/// rank, `(messages sent, payload bytes sent, bits of the virtual clock)`
/// as the call returns. Message order and payload sizes fix all three, so a
/// pinned table of these detects any change to what an executor sends.
pub fn executor_traffic(path: TrafficPath) -> Vec<(u64, u64, u64)> {
    let ranks = match path {
        TrafficPath::Planned1d => 5,
        TrafficPath::General1d => 4,
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
        let vec = |n, b, procs| {
            (me < procs).then(|| DistVector::from_fn(n, b, me, procs, |g| value(g, 0)))
        };
        let narrow = Descriptor::new(17, 23, 3, 2, 2, 2);
        let wide = Descriptor::new(17, 23, 3, 2, 2, 3);
        match path {
            TrafficPath::PlannedExpand => {
                redistribute_2d(&comm, &plan_2d(narrow, wide), mat(narrow).as_ref());
            }
            TrafficPath::PlannedShrink => {
                redistribute_2d(&comm, &plan_2d(wide, narrow), mat(wide).as_ref());
            }
            TrafficPath::Naive => {
                redistribute_2d(&comm, &plan_naive_2d(narrow, wide), mat(narrow).as_ref());
            }
            TrafficPath::General2d => {
                let s = Descriptor::new(20, 24, 2, 3, 2, 2);
                let d = Descriptor::new(20, 24, 5, 4, 3, 2);
                redistribute_general_2d(&comm, &plan_general_2d(s, d), mat(s).as_ref());
            }
            TrafficPath::Planned1d => {
                redistribute_1d(&comm, &plan_1d(37, 3, 3, 5), vec(37, 3, 3).as_ref());
            }
            TrafficPath::General1d => {
                let plan = plan_general_1d(50, 3, 2, 7, 4);
                redistribute_general_1d(&comm, &plan, vec(50, 3, 2).as_ref());
            }
            TrafficPath::TxnCommit => {
                txn_redistribute_2d(&comm, &plan_2d(narrow, wide), mat(narrow).as_ref())
                    .expect("every rank is alive, so the transaction commits");
            }
        }
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
