//! 1-D entry point: moves a [`DistVector`] between process counts using the
//! contention-free 1-D schedule — the "1-D (row or column format)"
//! redistribution path of the paper — as the degenerate `1 × n` case of the
//! 2-D executor.

use reshape_blockcyclic::{Descriptor, DistVector};
use reshape_mpisim::{Comm, Pod};

use crate::exec::{block_runs, lower_steps, run_1d, Schedule};
use crate::general2d::GTransfer2d;
use crate::plan1d::Redist1d;

const TAG_REDIST1D_BASE: u32 = 8_200_000;

/// The plan as a schedule over the `1 × n` view of the array.
pub(crate) fn lower_1d(plan: &Redist1d) -> Schedule<'static> {
    Schedule {
        src: Descriptor::new(1, plan.n, 1, plan.b, 1, plan.p),
        dst: Descriptor::new(1, plan.n, 1, plan.b, 1, plan.q),
        tag_base: TAG_REDIST1D_BASE,
        steps: lower_steps(&plan.steps, |t| GTransfer2d {
            src: (0, t.src),
            dst: (0, t.dst),
            row_runs: vec![(0, 1)],
            col_runs: block_runs(plan, &t.blocks),
        }),
    }
}

/// Execute a 1-D plan collectively over `comm` (old layout on ranks
/// `0..p`, new on ranks `0..q`). Source ranks pass their part; ranks in the
/// destination layout get the new part back.
pub fn redistribute_1d<T: Pod + Default>(
    comm: &Comm,
    plan: &Redist1d,
    src: Option<&DistVector<T>>,
) -> Option<DistVector<T>> {
    run_1d(comm, &lower_1d(plan), src).expect("direct commit cannot abort")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan1d::plan_1d;
    use proptest::prelude::*;
    use reshape_mpisim::{NetModel, Universe};

    fn round_trip(n: usize, b: usize, p: usize, q: usize) {
        let ranks = p.max(q);
        Universe::new(ranks, 1, NetModel::ideal())
            .launch(ranks, None, "r1d", move |comm| {
                let plan = plan_1d(n, b, p, q);
                let me = comm.rank();
                let src =
                    (me < p).then(|| DistVector::from_fn(n, b, me, p, |g| (g * 31 + 7) as f64));
                let out = redistribute_1d(&comm, &plan, src.as_ref());
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
        round_trip(40, 2, 2, 5);
    }

    #[test]
    fn shrink_6_to_2() {
        round_trip(36, 3, 6, 2);
    }

    #[test]
    fn ragged_tail_block() {
        round_trip(17, 4, 3, 4);
    }

    #[test]
    fn identity_layout() {
        round_trip(24, 4, 3, 3);
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
            round_trip(n, b, p, q);
        }
    }
}
