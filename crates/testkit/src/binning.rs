//! Reference oracle for the differential checker: redistribution between
//! *arbitrary* block-cyclic layouts by element binning, sharing no code with
//! the redistribution crate's executor.
//!
//! It moves data between any two descriptors that agree only on the global
//! matrix shape — block sizes and grid shapes may both change — correctly
//! but unscheduled, so it is what [`crate::differential`] checks every
//! scheduled path against.
//!
//! The algorithm is element binning over a personalized all-to-all: each
//! source walks its local panel in canonical order, appending each element
//! to the bucket of its destination owner; each destination replays every
//! source's canonical order to know which elements arrived and where they
//! land. Cost is one alltoallv plus O(local elements) index arithmetic on
//! each side.

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_mpisim::{Comm, Pod};

/// Redistribute between arbitrary block-cyclic layouts (grid shape and
/// block sizes may both change; the global `m × n` shape must not).
///
/// Collective over `comm`, which must cover `max(P, Q)` ranks with the old
/// grid on ranks `0..P` (row-major) and the new on `0..Q`. Source ranks
/// pass their panel; ranks outside the destination grid get `None` back.
pub fn redistribute_general<T: Pod + Default>(
    comm: &Comm,
    src_desc: Descriptor,
    dst_desc: Descriptor,
    src: Option<&DistMatrix<T>>,
) -> Option<DistMatrix<T>> {
    assert_eq!(
        (src_desc.m, src_desc.n),
        (dst_desc.m, dst_desc.n),
        "global shape must match"
    );
    let p = src_desc.nprow * src_desc.npcol;
    let q = dst_desc.nprow * dst_desc.npcol;
    assert!(comm.size() >= p.max(q), "communicator too small");
    let me = comm.rank();

    // Bin my elements by destination rank, in canonical (local row-major)
    // order.
    let mut buckets: Vec<Vec<T>> = (0..comm.size()).map(|_| Vec::new()).collect();
    if me < p {
        let m = src.expect("source rank must supply its panel");
        assert_eq!(m.desc, src_desc, "source descriptor mismatch");
        let (pr, pc) = (me / src_desc.npcol, me % src_desc.npcol);
        assert_eq!((m.myrow, m.mycol), (pr, pc), "source position mismatch");
        for li in 0..m.local_rows() {
            let gi = src_desc.local_to_global_row(li, pr);
            for lj in 0..m.local_cols() {
                let gj = src_desc.local_to_global_col(lj, pc);
                let (dr, dc) = dst_desc.owner_of(gi, gj);
                buckets[dr * dst_desc.npcol + dc].push(m.get_local(li, lj));
            }
        }
    }
    let received = comm.alltoallv(&buckets);

    if me >= q {
        return None;
    }
    let (dr, dc) = (me / dst_desc.npcol, me % dst_desc.npcol);
    let mut out = DistMatrix::<T>::new(dst_desc, dr, dc);
    // Replay each source's canonical order; consume the elements it sent me.
    for (s, data) in received.iter().enumerate().take(p) {
        let (pr, pc) = (s / src_desc.npcol, s % src_desc.npcol);
        let lr = src_desc.local_rows(pr);
        let lc = src_desc.local_cols(pc);
        let mut idx = 0;
        for li in 0..lr {
            let gi = src_desc.local_to_global_row(li, pr);
            for lj in 0..lc {
                let gj = src_desc.local_to_global_col(lj, pc);
                if dst_desc.owner_of(gi, gj) == (dr, dc) {
                    let ((_, _), (oli, olj)) = dst_desc.global_to_local(gi, gj);
                    out.set_local(oli, olj, data[idx]);
                    idx += 1;
                }
            }
        }
        assert_eq!(idx, data.len(), "stream from rank {s} mismatched");
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use reshape_mpisim::{NetModel, Universe};
    use reshape_redist::{plan_general_2d, redistribute, Commit};

    fn round_trip(
        m: usize,
        n: usize,
        src_blk: (usize, usize),
        dst_blk: (usize, usize),
        sg: (usize, usize),
        dg: (usize, usize),
    ) {
        let p = sg.0 * sg.1;
        let q = dg.0 * dg.1;
        let ranks = p.max(q);
        Universe::new(ranks, 1, NetModel::ideal())
            .launch(ranks, None, "general", move |comm| {
                let src_desc = Descriptor::new(m, n, src_blk.0, src_blk.1, sg.0, sg.1);
                let dst_desc = Descriptor::new(m, n, dst_blk.0, dst_blk.1, dg.0, dg.1);
                let me = comm.rank();
                let src = (me < p).then(|| {
                    DistMatrix::from_fn(src_desc, me / sg.1, me % sg.1, |i, j| {
                        (i * 5051 + j) as f64
                    })
                });
                let out = redistribute_general(&comm, src_desc, dst_desc, src.as_ref());
                if me < q {
                    let out = out.expect("destination rank gets a panel");
                    for li in 0..out.local_rows() {
                        let gi = dst_desc.local_to_global_row(li, out.myrow);
                        for lj in 0..out.local_cols() {
                            let gj = dst_desc.local_to_global_col(lj, out.mycol);
                            assert_eq!(out.get_local(li, lj), (gi * 5051 + gj) as f64);
                        }
                    }
                } else {
                    assert!(out.is_none());
                }
            })
            .join_ok();
    }

    #[test]
    fn changes_block_size_on_same_grid() {
        round_trip(20, 20, (2, 2), (5, 3), (2, 2), (2, 2));
    }

    #[test]
    fn changes_block_size_and_grid_together() {
        round_trip(24, 18, (3, 2), (4, 5), (2, 3), (3, 2));
    }

    #[test]
    fn expansion_with_reblocking() {
        round_trip(16, 16, (4, 4), (2, 2), (1, 2), (2, 3));
    }

    #[test]
    fn shrink_with_reblocking() {
        round_trip(16, 16, (2, 2), (8, 8), (2, 3), (1, 2));
    }

    /// The differential checker's cases keep the blocks; this one changes
    /// them, so the general 2-D executor meets the oracle on a reblocking.
    #[test]
    fn agrees_with_the_general_executor_when_blocks_change() {
        let (m, n) = (21, 18);
        Universe::new(6, 1, NetModel::ideal())
            .launch(6, None, "agree-general", move |comm| {
                let src_d = Descriptor::new(m, n, 3, 2, 2, 3);
                let dst_d = Descriptor::new(m, n, 4, 5, 3, 2);
                let me = comm.rank();
                let src = DistMatrix::from_fn(src_d, me / 3, me % 3, |i, j| (i * 77 + j) as f64);
                let plan = plan_general_2d(src_d, dst_d);
                let a = redistribute(&comm, &plan, Some(&src), Commit::Direct).unwrap();
                let b = redistribute_general(&comm, src_d, dst_d, Some(&src));
                match (a, b) {
                    (Some(x), Some(y)) => assert_eq!(x.local_data(), y.local_data()),
                    (None, None) => {}
                    _ => panic!("presence mismatch on rank {me}"),
                }
            })
            .join_ok();
    }

    #[test]
    fn seeded_layout_pairs_preserve_data() {
        let mut rng = SplitMix64::new(0xB1_4E);
        for _ in 0..12 {
            let (m, n) = (rng.usize_range(1, 29), rng.usize_range(1, 29));
            let src_blk = (rng.usize_range(1, 5), rng.usize_range(1, 5));
            let dst_blk = (rng.usize_range(1, 5), rng.usize_range(1, 5));
            let sg = (rng.usize_range(1, 3), rng.usize_range(1, 2));
            let dg = (rng.usize_range(1, 3), rng.usize_range(1, 2));
            round_trip(m, n, src_blk, dst_blk, sg, dg);
        }
    }
}
