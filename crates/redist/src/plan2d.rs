//! 2-D ("checkerboard") redistribution schedules.
//!
//! The paper's extension of the 1-D table-based algorithm: rows and columns
//! of a 2-D block-cyclic matrix redistribute independently (`Pr → Qr` over
//! the row dimension, `Pc → Qc` over the column dimension), and the 2-D
//! schedule is the cross product of the two 1-D schedules. If every 1-D row
//! step is a partial permutation of process rows and every 1-D column step a
//! partial permutation of process columns, then each combined step is a
//! partial permutation of grid processes — contention-freedom is inherited.

use reshape_blockcyclic::Descriptor;

use crate::exec::procs;
use crate::plan1d::{plan_1d, Redist1d};

/// One coalesced message of a 2-D step: the source grid process sends every
/// element whose global row block is in `row_blocks` **and** global column
/// block is in `col_blocks` to the destination grid process.
#[derive(Clone, Debug)]
pub struct Transfer2d {
    /// Source grid coordinates `(prow, pcol)` in the old grid.
    pub src: (usize, usize),
    /// Destination grid coordinates in the new grid.
    pub dst: (usize, usize),
    /// Global row-block indices carried (ascending).
    pub row_blocks: Vec<usize>,
    /// Global column-block indices carried (ascending).
    pub col_blocks: Vec<usize>,
}

/// A complete checkerboard redistribution schedule between two descriptors
/// that agree on the global matrix and block sizes but differ in grid shape.
#[derive(Clone, Debug)]
pub struct Redist2d {
    pub src: Descriptor,
    pub dst: Descriptor,
    /// Row-dimension 1-D schedule (kept for cost evaluation).
    pub row_plan: Redist1d,
    /// Column-dimension 1-D schedule.
    pub col_plan: Redist1d,
    /// Combined schedule; each step is a partial permutation of processes.
    pub steps: Vec<Vec<Transfer2d>>,
}

impl Redist2d {
    /// Element count of a transfer (product of its ragged row and column
    /// block lengths).
    pub fn transfer_elems(&self, t: &Transfer2d) -> usize {
        let rows: usize = t
            .row_blocks
            .iter()
            .map(|&k| self.row_plan.block_len(k))
            .sum();
        let cols: usize = t
            .col_blocks
            .iter()
            .map(|&k| self.col_plan.block_len(k))
            .sum();
        rows * cols
    }

    /// Total bytes crossing the network (source ≠ destination process).
    pub fn network_bytes(&self, elem_size: usize) -> usize {
        self.steps
            .iter()
            .flatten()
            .filter(|t| self.src_rank(t.src) != self.dst_rank(t.dst))
            .map(|t| self.transfer_elems(t) * elem_size)
            .sum()
    }

    /// Every rank the plan can name: the larger layout's process count, the
    /// ranks [`preflight`](crate::preflight) scans.
    pub fn world(&self) -> usize {
        procs(&self.src).max(procs(&self.dst))
    }

    /// Rank (row-major) of a source grid coordinate in the old processor
    /// set.
    pub fn src_rank(&self, (r, c): (usize, usize)) -> usize {
        r * self.src.npcol + c
    }

    /// Rank (row-major) of a destination grid coordinate in the new set.
    pub fn dst_rank(&self, (r, c): (usize, usize)) -> usize {
        r * self.dst.npcol + c
    }
}

/// Build the checkerboard schedule between `src` and `dst` descriptors.
///
/// ```
/// use reshape_blockcyclic::Descriptor;
/// use reshape_redist::plan_2d;
/// // Expand a 16x16 matrix (2x2 blocks) from a 1x2 grid to 2x2.
/// let plan = plan_2d(
///     Descriptor::square(16, 2, 1, 2),
///     Descriptor::square(16, 2, 2, 2),
/// );
/// // Every step is a partial permutation: each process sends at most one
/// // message and receives at most one.
/// for step in &plan.steps {
///     let mut senders = std::collections::HashSet::new();
///     for t in step {
///         assert!(senders.insert(t.src));
///     }
/// }
/// assert!(plan.network_bytes(8) > 0);
/// ```
///
/// # Panics
///
/// Panics if the descriptors disagree on the global shape or block sizes —
/// the paper's redistribution changes the *processor grid*, never the
/// blocking.
pub fn plan_2d(src: Descriptor, dst: Descriptor) -> Redist2d {
    assert_eq!((src.m, src.n), (dst.m, dst.n), "global shape must match");
    assert_eq!((src.mb, src.nb), (dst.mb, dst.nb), "block sizes must match");
    let row_plan = plan_1d(src.m, src.mb, src.nprow, dst.nprow);
    let col_plan = plan_1d(src.n, src.nb, src.npcol, dst.npcol);
    let mut steps = Vec::with_capacity(row_plan.steps.len() * col_plan.steps.len());
    for rstep in &row_plan.steps {
        for cstep in &col_plan.steps {
            let mut step = Vec::with_capacity(rstep.len() * cstep.len());
            for rt in rstep {
                for ct in cstep {
                    step.push(Transfer2d {
                        src: (rt.src, ct.src),
                        dst: (rt.dst, ct.dst),
                        row_blocks: rt.blocks.clone(),
                        col_blocks: ct.blocks.clone(),
                    });
                }
            }
            if !step.is_empty() {
                steps.push(step);
            }
        }
    }
    Redist2d {
        src,
        dst,
        row_plan,
        col_plan,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    fn check_2d(plan: &Redist2d) {
        let d = &plan.src;
        // Element-level completeness: every element moves exactly once,
        // from its old owner to its new owner.
        let mut covered: HashMap<(usize, usize), usize> = HashMap::new();
        for step in &plan.steps {
            let mut senders = HashSet::new();
            let mut receivers = HashSet::new();
            for t in step {
                assert!(senders.insert(t.src), "grid source sends twice in step");
                assert!(receivers.insert(t.dst), "grid dest receives twice in step");
                for &rb in &t.row_blocks {
                    assert_eq!(rb % d.nprow, t.src.0);
                    assert_eq!(rb % plan.dst.nprow, t.dst.0);
                    for &cb in &t.col_blocks {
                        assert_eq!(cb % d.npcol, t.src.1);
                        assert_eq!(cb % plan.dst.npcol, t.dst.1);
                        *covered.entry((rb, cb)).or_insert(0) += 1;
                    }
                }
            }
        }
        let nrb = d.m.div_ceil(d.mb);
        let ncb = d.n.div_ceil(d.nb);
        assert_eq!(
            covered.len(),
            nrb * ncb,
            "every (row,col) block pair covered"
        );
        assert!(
            covered.values().all(|&c| c == 1),
            "no block pair duplicated"
        );
    }

    #[test]
    fn expand_1x2_to_2x2() {
        let src = Descriptor::square(16, 2, 1, 2);
        let dst = Descriptor::square(16, 2, 2, 2);
        check_2d(&plan_2d(src, dst));
    }

    #[test]
    fn expand_2x2_to_4x5() {
        let src = Descriptor::square(40, 2, 2, 2);
        let dst = Descriptor::square(40, 2, 4, 5);
        check_2d(&plan_2d(src, dst));
    }

    #[test]
    fn shrink_3x4_to_2x2() {
        let src = Descriptor::new(24, 36, 2, 3, 3, 4);
        let dst = Descriptor::new(24, 36, 2, 3, 2, 2);
        check_2d(&plan_2d(src, dst));
    }

    #[test]
    fn one_dimensional_row_layouts() {
        // 1-D row format (paper: "1-D (row or column format)").
        let src = Descriptor::square(30, 3, 2, 1);
        let dst = Descriptor::square(30, 3, 5, 1);
        check_2d(&plan_2d(src, dst));
    }

    #[test]
    fn step_count_is_product_of_1d_steps() {
        let src = Descriptor::square(120, 2, 2, 3);
        let dst = Descriptor::square(120, 2, 3, 4);
        let plan = plan_2d(src, dst);
        assert_eq!(
            plan.steps.len(),
            plan.row_plan.steps.len() * plan.col_plan.steps.len()
        );
    }

    #[test]
    fn same_grid_has_no_network_traffic() {
        let d = Descriptor::square(32, 4, 2, 2);
        let plan = plan_2d(d, d);
        check_2d(&plan);
        assert_eq!(plan.network_bytes(8), 0);
    }

    #[test]
    #[should_panic(expected = "block sizes must match")]
    fn mismatched_blocks_rejected() {
        let src = Descriptor::square(16, 2, 2, 2);
        let dst = Descriptor::square(16, 4, 2, 2);
        plan_2d(src, dst);
    }

    #[test]
    fn network_bytes_counts_only_moving_elements() {
        // 1x1 -> 1x2 of a 4x4 with 2x2 blocks: column blocks 0 stays on
        // (0,0), column block 1 moves. Half the matrix crosses the network.
        let src = Descriptor::square(4, 2, 1, 1);
        let dst = Descriptor::square(4, 2, 1, 2);
        let plan = plan_2d(src, dst);
        assert_eq!(plan.network_bytes(8), 8 * 8);
    }

    proptest! {
        #[test]
        fn checkerboard_schedules_hold_invariants(
            m in 1usize..200,
            n in 1usize..200,
            mb in 1usize..8,
            nb in 1usize..8,
            pr in 1usize..5,
            pc in 1usize..5,
            qr in 1usize..5,
            qc in 1usize..5,
        ) {
            let src = Descriptor::new(m, n, mb, nb, pr, pc);
            let dst = Descriptor::new(m, n, mb, nb, qr, qc);
            check_2d(&plan_2d(src, dst));
        }
    }
}
