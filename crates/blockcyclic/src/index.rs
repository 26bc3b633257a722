//! Pure block-cyclic index arithmetic (the `NUMROC` / `INDXG2L` /
//! `INDXL2G` family from ScaLAPACK TOOLS, with the distribution source
//! fixed at process 0).

/// Number of elements of a dimension of length `n`, distributed in blocks of
/// `nb` over `nprocs` processes, that land on process coordinate `iproc`.
///
/// Equivalent to ScaLAPACK's `NUMROC(n, nb, iproc, 0, nprocs)`.
///
/// ```
/// use reshape_blockcyclic::numroc;
/// // 10 elements in blocks of 4 over 2 processes: [4,4,2] -> p0 owns 6.
/// assert_eq!(numroc(10, 4, 0, 2), 6);
/// assert_eq!(numroc(10, 4, 1, 2), 4);
/// ```
pub fn numroc(n: usize, nb: usize, iproc: usize, nprocs: usize) -> usize {
    assert!(nb > 0 && nprocs > 0 && iproc < nprocs);
    if n == 0 {
        return 0;
    }
    let nblocks = n.div_ceil(nb); // total blocks, last possibly partial
    let full_rounds = nblocks / nprocs;
    let extra = nblocks % nprocs;
    let my_blocks = full_rounds + usize::from(iproc < extra);
    let mut count = my_blocks * nb;
    // If this process owns the globally last block, trim the overhang.
    if my_blocks > 0 && (nblocks - 1) % nprocs == iproc {
        count -= nblocks * nb - n;
    }
    count
}

/// Process coordinate owning global index `g`.
pub fn owner(g: usize, nb: usize, nprocs: usize) -> usize {
    (g / nb) % nprocs
}

/// Map global index `g` to `(owner process, local index)`.
///
/// ```
/// use reshape_blockcyclic::{g2l, l2g};
/// let (proc, local) = g2l(7, 3, 2); // block 2 of size 3 -> process 0
/// assert_eq!((proc, local), (0, 4));
/// assert_eq!(l2g(local, 3, proc, 2), 7);
/// ```
pub fn g2l(g: usize, nb: usize, nprocs: usize) -> (usize, usize) {
    let block = g / nb;
    let proc = block % nprocs;
    let local = (block / nprocs) * nb + g % nb;
    (proc, local)
}

/// Map local index `l` on process `iproc` back to the global index.
pub fn l2g(l: usize, nb: usize, iproc: usize, nprocs: usize) -> usize {
    assert!(iproc < nprocs);
    let local_block = l / nb;
    (local_block * nprocs + iproc) * nb + l % nb
}

/// The global index runs that process `iproc` stores, in local order: one
/// per local block, the last possibly ragged. Flattened, they are
/// `l2g(l, nb, iproc, nprocs)` for every local `l`, with no division per
/// element — the table a panel is filled from.
pub(crate) fn local_runs(
    n: usize,
    nb: usize,
    iproc: usize,
    nprocs: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> {
    assert!(iproc < nprocs);
    (iproc * nb..n)
        .step_by(nprocs * nb)
        .map(move |g0| g0..n.min(g0 + nb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn numroc_even_division() {
        // 12 elements, blocks of 2, 3 procs: each proc gets 2 blocks = 4.
        for p in 0..3 {
            assert_eq!(numroc(12, 2, p, 3), 4);
        }
    }

    #[test]
    fn numroc_partial_last_block() {
        // 10 elements, blocks of 4, 2 procs: blocks [4,4,2] -> p0: 4+2, p1: 4.
        assert_eq!(numroc(10, 4, 0, 2), 6);
        assert_eq!(numroc(10, 4, 1, 2), 4);
    }

    #[test]
    fn numroc_more_procs_than_blocks() {
        // 3 elements, block 2, 4 procs: blocks [2,1] on p0,p1; p2,p3 empty.
        assert_eq!(numroc(3, 2, 0, 4), 2);
        assert_eq!(numroc(3, 2, 1, 4), 1);
        assert_eq!(numroc(3, 2, 2, 4), 0);
        assert_eq!(numroc(3, 2, 3, 4), 0);
    }

    #[test]
    fn numroc_zero_length() {
        assert_eq!(numroc(0, 5, 0, 3), 0);
    }

    #[test]
    fn g2l_l2g_examples() {
        // n irrelevant for the maps; blocks of 3 over 2 procs.
        assert_eq!(g2l(0, 3, 2), (0, 0));
        assert_eq!(g2l(2, 3, 2), (0, 2));
        assert_eq!(g2l(3, 3, 2), (1, 0));
        assert_eq!(g2l(6, 3, 2), (0, 3));
        assert_eq!(l2g(3, 3, 0, 2), 6);
        assert_eq!(l2g(0, 3, 1, 2), 3);
    }

    proptest! {
        #[test]
        fn numroc_partitions_exactly(
            n in 0usize..3000,
            nb in 1usize..64,
            nprocs in 1usize..17,
        ) {
            let total: usize = (0..nprocs).map(|p| numroc(n, nb, p, nprocs)).sum();
            prop_assert_eq!(total, n);
        }

        #[test]
        fn g2l_then_l2g_round_trips(
            g in 0usize..100_000,
            nb in 1usize..64,
            nprocs in 1usize..17,
        ) {
            let (p, l) = g2l(g, nb, nprocs);
            prop_assert!(p < nprocs);
            prop_assert_eq!(l2g(l, nb, p, nprocs), g);
            prop_assert_eq!(owner(g, nb, nprocs), p);
        }

        #[test]
        fn local_indices_are_dense(
            n in 1usize..2000,
            nb in 1usize..32,
            nprocs in 1usize..9,
        ) {
            // Every local index in [0, numroc) is hit exactly once per proc.
            for p in 0..nprocs {
                let cnt = numroc(n, nb, p, nprocs);
                let mut seen = vec![false; cnt];
                for g in 0..n {
                    let (q, l) = g2l(g, nb, nprocs);
                    if q == p {
                        prop_assert!(l < cnt, "local index {} out of {} (g={})", l, cnt, g);
                        prop_assert!(!seen[l]);
                        seen[l] = true;
                    }
                }
                prop_assert!(seen.iter().all(|&s| s));
            }
        }

        #[test]
        fn l2g_is_monotonic_per_proc(
            nb in 1usize..32,
            nprocs in 1usize..9,
            iproc_raw in 0usize..9,
        ) {
            let iproc = iproc_raw % nprocs;
            let mut prev = None;
            for l in 0..200 {
                let g = l2g(l, nb, iproc, nprocs);
                if let Some(p) = prev {
                    prop_assert!(g > p);
                }
                prev = Some(g);
            }
        }
    }
}
