//! Panel construction against its element-wise definition.
//!
//! A panel's element `(li, lj)` is the global element
//! `(l2g(li, mb, myrow, nprow), l2g(lj, nb, mycol, npcol))`. `from_fn`,
//! `gather` and `scatter_from` must agree with that on every layout: ragged
//! last blocks, empty panels (more processes than blocks) and the `1 × n`
//! view that holds a 1-D array.

use proptest::prelude::*;
use reshape_blockcyclic::{l2g, numroc, Descriptor, DistMatrix};
use reshape_grid::GridContext;
use reshape_mpisim::{NetModel, Universe};

/// An element value that tells `(i, j)` from `(j, i)`.
fn value(i: usize, j: usize) -> u64 {
    ((i as u64) << 32) | j as u64
}

/// Check every panel of `d` built by `from_fn` element by element.
fn check_matrix(d: Descriptor) {
    for pr in 0..d.nprow {
        for pc in 0..d.npcol {
            let m = DistMatrix::from_fn(d, pr, pc, value);
            let (lr, lc) = (
                numroc(d.m, d.mb, pr, d.nprow),
                numroc(d.n, d.nb, pc, d.npcol),
            );
            assert_eq!((m.local_rows(), m.local_cols()), (lr, lc));
            assert_eq!(m.local_data().len(), lr * lc);
            for li in 0..lr {
                let gi = l2g(li, d.mb, pr, d.nprow);
                for lj in 0..lc {
                    let gj = l2g(lj, d.nb, pc, d.npcol);
                    assert_eq!(
                        m.get_local(li, lj),
                        value(gi, gj),
                        "{:?} at ({}, {})",
                        d,
                        pr,
                        pc
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matrix_from_fn_is_the_l2g_definition(
        m in 0usize..40,
        n in 0usize..40,
        mb in 1usize..9,
        nb in 1usize..9,
        nprow in 1usize..6,
        npcol in 1usize..6,
    ) {
        check_matrix(Descriptor::new(m, n, mb, nb, nprow, npcol));
    }

    /// The `1 × n` view a 1-D array moves as, over longer rows.
    #[test]
    fn a_1xn_view_is_the_l2g_definition(
        n in 0usize..120,
        nb in 1usize..9,
        nprocs in 1usize..9,
    ) {
        check_matrix(Descriptor::new(1, n, 1, nb, 1, nprocs));
    }
}

/// `gather` reassembles the `from_fn` panels into the whole matrix, and
/// `scatter_from` of that matrix gives back the same panels.
fn gather_and_scatter(d: Descriptor) {
    let ranks = d.nprow * d.npcol;
    Universe::new(ranks, 1, NetModel::ideal())
        .launch(ranks, None, "panel-tables", move |comm| {
            let grid = GridContext::new(&comm, d.nprow, d.npcol);
            let mine = DistMatrix::from_fn(d, grid.myrow(), grid.mycol(), value);
            let full = mine.gather(&grid);
            let want: Vec<u64> = (0..d.m)
                .flat_map(|i| (0..d.n).map(move |j| value(i, j)))
                .collect();
            if comm.rank() == 0 {
                assert_eq!(full.as_deref(), Some(&want[..]), "gather of {d:?}");
            } else {
                assert!(full.is_none());
            }
            let back = DistMatrix::scatter_from(d, &grid, full.as_deref());
            assert_eq!(back.local_data(), mine.local_data(), "scatter of {d:?}");
        })
        .join_ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gather_and_scatter_follow_the_l2g_definition(
        m in 0usize..30,
        n in 0usize..30,
        mb in 1usize..7,
        nb in 1usize..7,
        nprow in 1usize..4,
        npcol in 1usize..4,
    ) {
        gather_and_scatter(Descriptor::new(m, n, mb, nb, nprow, npcol));
    }
}

#[test]
fn gather_and_scatter_cover_empty_panels_and_the_1xn_view() {
    // Three processes, two blocks: process column 2 holds nothing.
    gather_and_scatter(Descriptor::new(5, 7, 2, 4, 1, 3));
    gather_and_scatter(Descriptor::new(7, 5, 4, 2, 3, 1));
    // A 1-D array's layout, ragged last block.
    gather_and_scatter(Descriptor::new(1, 23, 1, 4, 1, 3));
}
