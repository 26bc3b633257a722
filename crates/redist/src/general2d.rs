//! Scheduled general 2-D redistribution: both block sizes *and* the process
//! grid may change, and the communication is still organized into
//! contention-free steps.
//!
//! The checkerboard construction of [`crate::plan_2d`] carries over: the
//! row and column dimensions redistribute independently with the general
//! 1-D planner ([`crate::plan_general_1d`], König-colored), and the 2-D
//! schedule is their cross product — a (row matching) × (column matching)
//! product step is a matching on grid processes, so no endpoint ever
//! handles two messages in a step. Step count is Δ_row · Δ_col; unlike the
//! 1-D case this product is not always the global optimum, but it
//! preserves the contention-freedom that matters.
//!
//! Compared with [`crate::redistribute_general`] (single-burst element
//! binning), this pays the same bytes in scheduled, incast-free steps.

use std::borrow::Cow;

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_mpisim::{Comm, Pod};

use crate::exec::{run_2d, Commit, Schedule};
use crate::general1d::{plan_general_1d, GeneralPlan1d};

const TAG_GENERAL2D_BASE: u32 = 8_400_000;

/// One coalesced 2-D message: every element whose global row lies in a
/// `row_runs` run and whose global column lies in a `col_runs` run.
#[derive(Clone, Debug)]
pub struct GTransfer2d {
    pub src: (usize, usize),
    pub dst: (usize, usize),
    pub row_runs: Vec<(usize, usize)>,
    pub col_runs: Vec<(usize, usize)>,
}

impl GTransfer2d {
    pub fn elems(&self) -> usize {
        let r: usize = self.row_runs.iter().map(|&(_, l)| l).sum();
        let c: usize = self.col_runs.iter().map(|&(_, l)| l).sum();
        r * c
    }
}

/// A general 2-D plan between descriptors that agree only on the global
/// shape.
#[derive(Clone, Debug)]
pub struct GeneralPlan2d {
    pub src: Descriptor,
    pub dst: Descriptor,
    pub row_plan: GeneralPlan1d,
    pub col_plan: GeneralPlan1d,
    pub steps: Vec<Vec<GTransfer2d>>,
}

impl GeneralPlan2d {
    pub fn src_rank(&self, (r, c): (usize, usize)) -> usize {
        r * self.src.npcol + c
    }

    pub fn dst_rank(&self, (r, c): (usize, usize)) -> usize {
        r * self.dst.npcol + c
    }

    pub fn network_bytes(&self, elem_size: usize) -> usize {
        self.steps
            .iter()
            .flatten()
            .filter(|t| self.src_rank(t.src) != self.dst_rank(t.dst))
            .map(|t| t.elems() * elem_size)
            .sum()
    }
}

/// Build the scheduled general 2-D plan. Only the global shape must match.
pub fn plan_general_2d(src: Descriptor, dst: Descriptor) -> GeneralPlan2d {
    assert_eq!((src.m, src.n), (dst.m, dst.n), "global shape must match");
    let row_plan = plan_general_1d(src.m, src.mb, src.nprow, dst.mb, dst.nprow);
    let col_plan = plan_general_1d(src.n, src.nb, src.npcol, dst.nb, dst.npcol);
    let mut steps = Vec::with_capacity(row_plan.steps.len() * col_plan.steps.len());
    for rstep in &row_plan.steps {
        for cstep in &col_plan.steps {
            let mut step = Vec::with_capacity(rstep.len() * cstep.len());
            for rt in rstep {
                for ct in cstep {
                    step.push(GTransfer2d {
                        src: (rt.src, ct.src),
                        dst: (rt.dst, ct.dst),
                        row_runs: rt.runs.clone(),
                        col_runs: ct.runs.clone(),
                    });
                }
            }
            if !step.is_empty() {
                steps.push(step);
            }
        }
    }
    GeneralPlan2d {
        src,
        dst,
        row_plan,
        col_plan,
        steps,
    }
}

/// A general 2-D plan's steps already are the executor's moves.
pub(crate) fn lower_general_2d(plan: &GeneralPlan2d) -> Schedule<'_> {
    Schedule {
        src: plan.src,
        dst: plan.dst,
        tag_base: TAG_GENERAL2D_BASE,
        steps: Cow::Borrowed(&plan.steps),
    }
}

/// Execute a general 2-D plan collectively over `comm` (old grid ranks
/// `0..P` row-major, new grid ranks `0..Q`).
pub fn redistribute_general_2d<T: Pod + Default>(
    comm: &Comm,
    plan: &GeneralPlan2d,
    src: Option<&DistMatrix<T>>,
) -> Option<DistMatrix<T>> {
    run_2d(comm, &lower_general_2d(plan), Commit::Direct, src).expect("direct commit cannot abort")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use reshape_mpisim::{NetModel, Universe};
    use std::collections::HashSet;

    fn check_steps_are_matchings(plan: &GeneralPlan2d) {
        for step in &plan.steps {
            let mut s = HashSet::new();
            let mut d = HashSet::new();
            for t in step {
                assert!(s.insert(t.src), "grid source sends twice in a step");
                assert!(d.insert(t.dst), "grid dest receives twice in a step");
            }
        }
    }

    fn round_trip(
        m: usize,
        n: usize,
        sb: (usize, usize),
        db: (usize, usize),
        sg: (usize, usize),
        dg: (usize, usize),
    ) {
        let p = sg.0 * sg.1;
        let q = dg.0 * dg.1;
        let ranks = p.max(q);
        Universe::new(ranks, 1, NetModel::ideal())
            .launch(ranks, None, "g2d", move |comm| {
                let src_d = Descriptor::new(m, n, sb.0, sb.1, sg.0, sg.1);
                let dst_d = Descriptor::new(m, n, db.0, db.1, dg.0, dg.1);
                let plan = plan_general_2d(src_d, dst_d);
                check_steps_are_matchings(&plan);
                let me = comm.rank();
                let src = (me < p).then(|| {
                    DistMatrix::from_fn(src_d, me / sg.1, me % sg.1, |i, j| (i * 4099 + j) as f64)
                });
                let out = redistribute_general_2d(&comm, &plan, src.as_ref());
                if me < q {
                    let out = out.expect("destination rank gets a panel");
                    for li in 0..out.local_rows() {
                        let gi = dst_d.local_to_global_row(li, out.myrow);
                        for lj in 0..out.local_cols() {
                            let gj = dst_d.local_to_global_col(lj, out.mycol);
                            assert_eq!(out.get_local(li, lj), (gi * 4099 + gj) as f64);
                        }
                    }
                } else {
                    assert!(out.is_none());
                }
            })
            .join_ok();
    }

    #[test]
    fn reblock_and_regrid_together() {
        round_trip(20, 24, (2, 3), (5, 4), (2, 2), (3, 2));
    }

    #[test]
    fn pure_reblocking_on_fixed_grid() {
        round_trip(16, 16, (4, 4), (2, 2), (2, 2), (2, 2));
    }

    #[test]
    fn expansion_with_block_growth() {
        round_trip(24, 24, (2, 2), (6, 3), (1, 2), (2, 3));
    }

    #[test]
    fn matches_fixed_plan_bytes_when_blocks_unchanged() {
        let src = Descriptor::square(48, 4, 2, 2);
        let dst = Descriptor::square(48, 4, 2, 4);
        let general = plan_general_2d(src, dst);
        let fixed = crate::plan_2d(src, dst);
        assert_eq!(general.network_bytes(8), fixed.network_bytes(8));
    }

    #[test]
    fn agrees_with_element_binning_general() {
        // Two independent implementations of the same move must agree.
        let (m, n) = (21, 18);
        Universe::new(6, 1, NetModel::ideal())
            .launch(6, None, "agree-general", move |comm| {
                let src_d = Descriptor::new(m, n, 3, 2, 2, 3);
                let dst_d = Descriptor::new(m, n, 4, 5, 3, 2);
                let me = comm.rank();
                let src = DistMatrix::from_fn(src_d, me / 3, me % 3, |i, j| (i * 77 + j) as f64);
                let a = redistribute_general_2d(&comm, &plan_general_2d(src_d, dst_d), Some(&src));
                let b = crate::redistribute_general(&comm, src_d, dst_d, Some(&src));
                match (a, b) {
                    (Some(x), Some(y)) => assert_eq!(x.local_data(), y.local_data()),
                    (None, None) => {}
                    _ => panic!("presence mismatch on rank {me}"),
                }
            })
            .join_ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn random_general_2d_layouts_preserve_data(
            m in 1usize..28,
            n in 1usize..28,
            smb in 1usize..5,
            snb in 1usize..5,
            dmb in 1usize..5,
            dnb in 1usize..5,
            sgr in 1usize..4,
            sgc in 1usize..3,
            dgr in 1usize..4,
            dgc in 1usize..3,
        ) {
            round_trip(m, n, (smb, snb), (dmb, dnb), (sgr, sgc), (dgr, dgc));
        }
    }
}
