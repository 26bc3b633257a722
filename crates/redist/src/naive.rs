//! Naive redistribution baseline: one unscheduled burst.
//!
//! The paper's redistribution contribution is the *contention-free
//! communication schedule*. To quantify what that buys, this module builds
//! the obvious alternative — every process sends everything it owes every
//! destination at once, in a single step — and the contention-aware cost
//! evaluator ([`crate::cost::evaluate_2d_contended`]) prices the resulting
//! endpoint serialization. The data moved is identical; only the schedule
//! differs.

use std::collections::BTreeMap;

use reshape_blockcyclic::Descriptor;

use crate::plan1d::plan_1d;
use crate::plan2d::{Redist2d, Transfer2d};

/// Build a single-step "send everything at once" plan between two
/// descriptors. Carries exactly the same blocks as [`crate::plan_2d`], but
/// with no contention avoidance: each destination may be targeted by many
/// sources in the one step, and each source fires all its messages
/// back-to-back.
pub fn plan_naive_2d(src: Descriptor, dst: Descriptor) -> Redist2d {
    assert_eq!((src.m, src.n), (dst.m, dst.n), "global shape must match");
    assert_eq!((src.mb, src.nb), (dst.mb, dst.nb), "block sizes must match");
    let row_plan = plan_1d(src.m, src.mb, src.nprow, dst.nprow);
    let col_plan = plan_1d(src.n, src.nb, src.npcol, dst.npcol);
    // Merge all (row transfer × column transfer) products into one message
    // per (source process, destination process) pair.
    type Key = ((usize, usize), (usize, usize));
    let mut merged: BTreeMap<Key, Transfer2d> = BTreeMap::new();
    for rt in row_plan.steps.iter().flatten() {
        for ct in col_plan.steps.iter().flatten() {
            let key = ((rt.src, ct.src), (rt.dst, ct.dst));
            merged
                .entry(key)
                .and_modify(|t| {
                    // Same (src,dst) pair can appear for several block-row /
                    // block-column combinations; accumulate the index sets.
                    for &b in &rt.blocks {
                        if !t.row_blocks.contains(&b) {
                            t.row_blocks.push(b);
                        }
                    }
                    for &b in &ct.blocks {
                        if !t.col_blocks.contains(&b) {
                            t.col_blocks.push(b);
                        }
                    }
                })
                .or_insert_with(|| Transfer2d {
                    src: (rt.src, ct.src),
                    dst: (rt.dst, ct.dst),
                    row_blocks: rt.blocks.clone(),
                    col_blocks: ct.blocks.clone(),
                });
        }
    }
    let mut transfers: Vec<Transfer2d> = merged.into_values().collect();
    for t in &mut transfers {
        t.row_blocks.sort_unstable();
        t.col_blocks.sort_unstable();
    }
    Redist2d {
        src,
        dst,
        row_plan,
        col_plan,
        steps: vec![transfers],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{evaluate_2d, evaluate_2d_contended};
    use crate::plan2d::plan_2d;
    use reshape_mpisim::NetModel;

    /// The naive plan must carry exactly the same (row-block, col-block)
    /// universe as the scheduled plan.
    fn coverage(plan: &Redist2d) -> std::collections::BTreeSet<(usize, usize)> {
        let mut set = std::collections::BTreeSet::new();
        for t in plan.steps.iter().flatten() {
            for &rb in &t.row_blocks {
                for &cb in &t.col_blocks {
                    assert!(set.insert((rb, cb)), "block ({rb},{cb}) duplicated");
                }
            }
        }
        set
    }

    #[test]
    fn naive_covers_same_blocks_as_scheduled() {
        let src = Descriptor::square(60, 3, 2, 3);
        let dst = Descriptor::square(60, 3, 4, 5);
        let naive = plan_naive_2d(src, dst);
        let sched = plan_2d(src, dst);
        assert_eq!(coverage(&naive), coverage(&sched));
        assert_eq!(naive.steps.len(), 1, "naive is a single burst");
        assert_eq!(naive.network_bytes(8), sched.network_bytes(8));
    }

    #[test]
    fn hmm_pair_messages_are_coalesced() {
        // Between any (src,dst) process pair there is at most one message.
        let src = Descriptor::square(48, 2, 2, 2);
        let dst = Descriptor::square(48, 2, 3, 4);
        let naive = plan_naive_2d(src, dst);
        let mut seen = std::collections::BTreeSet::new();
        for t in &naive.steps[0] {
            assert!(
                seen.insert((t.src, t.dst)),
                "duplicate message {:?}->{:?}",
                t.src,
                t.dst
            );
        }
    }

    #[test]
    fn contention_makes_naive_slower_on_shrink() {
        // Shrinking is a fan-in: many sources burst at few destinations
        // simultaneously, and the unscheduled plan pays receiver incast
        // that the circulant schedule's per-step permutations avoid.
        let net = NetModel::gigabit_ethernet();
        let src = Descriptor::square(8000, 100, 4, 5);
        let dst = Descriptor::square(8000, 100, 2, 2);
        let sched = evaluate_2d_contended(&plan_2d(src, dst), 8, &net);
        let naive = evaluate_2d_contended(&plan_naive_2d(src, dst), 8, &net);
        assert!(
            naive.seconds > 1.5 * sched.seconds,
            "naive shrink {} should clearly exceed scheduled {}",
            naive.seconds,
            sched.seconds
        );
    }

    #[test]
    fn expansion_is_sender_bound_either_way() {
        // Growing is a fan-out: each source's own NIC is the bottleneck in
        // both plans, so scheduling buys little — an honest property of the
        // model worth pinning (the paper's shrink-for-queued-jobs path is
        // where the schedule's contention-freedom pays).
        let net = NetModel::gigabit_ethernet();
        let src = Descriptor::square(8000, 100, 2, 2);
        let dst = Descriptor::square(8000, 100, 4, 5);
        let sched = evaluate_2d_contended(&plan_2d(src, dst), 8, &net);
        let naive = evaluate_2d_contended(&plan_naive_2d(src, dst), 8, &net);
        let ratio = naive.seconds / sched.seconds;
        assert!(
            (0.4..1.6).contains(&ratio),
            "expansion should be roughly schedule-insensitive, ratio {ratio}"
        );
    }

    #[test]
    fn contended_evaluator_agrees_with_plain_on_permutation_schedules() {
        // For the contention-free schedule both evaluators must agree up to
        // the per-step fixed overheads.
        let net = NetModel::gigabit_ethernet();
        let src = Descriptor::square(4000, 100, 2, 2);
        let dst = Descriptor::square(4000, 100, 2, 4);
        let plan = plan_2d(src, dst);
        let plain = evaluate_2d(&plan, 8, &net).seconds;
        let contended = evaluate_2d_contended(&plan, 8, &net).seconds;
        let rel = (contended - plain).abs() / plain;
        assert!(rel < 0.25, "plain {plain} vs contended {contended}");
    }
}
