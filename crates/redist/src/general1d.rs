//! General 1-D redistribution with *block-size change*, optimally
//! scheduled.
//!
//! The paper's library (and [`crate::plan_1d`]) keeps the block size fixed;
//! Park, Prasanna & Raghavendra's framework also covers redistributions
//! `(b₁, P) → (b₂, Q)` that change the blocking. This module implements
//! that general case with an *optimal* contention-free schedule:
//!
//! 1. Walk the element space once, cutting it at every source- and
//!    destination-block boundary; each maximal run has a constant
//!    (source, destination) owner pair. Runs for the same pair coalesce
//!    into one message.
//! 2. The messages form a bipartite multigraph (sources × destinations,
//!    one edge per communicating pair). By **König's edge-coloring
//!    theorem**, a bipartite graph with maximum degree Δ can be
//!    edge-colored with exactly Δ colors; each color class is a matching —
//!    a contention-free step. Δ is also an obvious lower bound (some
//!    endpoint must take part in Δ messages), so the schedule length is
//!    optimal.
//!
//! The coloring uses the classic Kempe-chain (alternating-path) algorithm:
//! insert edges one at a time; if the endpoints' free colors differ, flip
//! an alternating path to make one available.

use reshape_blockcyclic::{Descriptor, DistVector};
use reshape_mpisim::{Comm, NetModel, Pod};

use crate::cost::{evaluate, RedistCost, Sum};
use crate::exec::{lower_steps, run_1d, Schedule};
use crate::general2d::GTransfer2d;

const TAG_GENERAL1D_BASE: u32 = 8_300_000;

/// One coalesced message: `src` (rank in the old layout) sends the listed
/// global element runs `(start, len)` to `dst` (rank in the new layout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GTransfer {
    pub src: usize,
    pub dst: usize,
    /// Global `(start, len)` element runs, ascending and non-overlapping.
    pub runs: Vec<(usize, usize)>,
}

impl GTransfer {
    pub fn elems(&self) -> usize {
        self.runs.iter().map(|&(_, l)| l).sum()
    }
}

/// A general 1-D redistribution plan between block-cyclic layouts that may
/// differ in both block size and process count.
#[derive(Clone, Debug)]
pub struct GeneralPlan1d {
    pub n: usize,
    pub b_src: usize,
    pub p: usize,
    pub b_dst: usize,
    pub q: usize,
    /// Optimal contention-free schedule: each step is a matching.
    pub steps: Vec<Vec<GTransfer>>,
}

impl GeneralPlan1d {
    /// Bytes crossing the network (src rank ≠ dst rank).
    pub fn network_bytes(&self, elem_size: usize) -> usize {
        self.steps
            .iter()
            .flatten()
            .filter(|t| t.src != t.dst)
            .map(|t| t.elems() * elem_size)
            .sum()
    }
}

/// Build the plan for moving an `n`-element array from `(b_src, p)` to
/// `(b_dst, q)` block-cyclic layout.
pub fn plan_general_1d(n: usize, b_src: usize, p: usize, b_dst: usize, q: usize) -> GeneralPlan1d {
    assert!(
        b_src > 0 && b_dst > 0 && p > 0 && q > 0,
        "degenerate layout"
    );
    // Phase 1: cut into constant-owner-pair runs and coalesce per pair.
    let mut pair_runs: std::collections::BTreeMap<(usize, usize), Vec<(usize, usize)>> =
        std::collections::BTreeMap::new();
    let mut e = 0usize;
    while e < n {
        let src = (e / b_src) % p;
        let dst = (e / b_dst) % q;
        // Run extends to the next source- or destination-block boundary.
        let next_src_cut = (e / b_src + 1) * b_src;
        let next_dst_cut = (e / b_dst + 1) * b_dst;
        let end = next_src_cut.min(next_dst_cut).min(n);
        pair_runs.entry((src, dst)).or_default().push((e, end - e));
        e = end;
    }

    // Phase 2: optimal bipartite edge coloring.
    let edges: Vec<(usize, usize)> = pair_runs.keys().copied().collect();
    let colors = color_bipartite(&edges, p, q);
    let nsteps = colors.iter().copied().max().map_or(0, |c| c + 1);
    let mut steps: Vec<Vec<GTransfer>> = vec![Vec::new(); nsteps];
    for ((&(src, dst), runs), color) in pair_runs.iter().zip(&colors) {
        steps[*color].push(GTransfer {
            src,
            dst,
            runs: runs.clone(),
        });
    }
    GeneralPlan1d {
        n,
        b_src,
        p,
        b_dst,
        q,
        steps,
    }
}

/// König edge coloring of a bipartite simple graph given as (left, right)
/// edges. Returns one color per edge, using exactly Δ colors.
fn color_bipartite(edges: &[(usize, usize)], nl: usize, nr: usize) -> Vec<usize> {
    // Degree bound.
    let mut dl = vec![0usize; nl];
    let mut dr = vec![0usize; nr];
    for &(u, v) in edges {
        dl[u] += 1;
        dr[v] += 1;
    }
    let delta = dl.iter().chain(dr.iter()).copied().max().unwrap_or(0);
    // colored[u][c] = Some(v): left u matched to right v in color c.
    let mut left: Vec<Vec<Option<usize>>> = vec![vec![None; delta]; nl];
    let mut right: Vec<Vec<Option<usize>>> = vec![vec![None; delta]; nr];
    let mut colors = vec![usize::MAX; edges.len()];

    for &(u, v) in edges.iter() {
        let cu = (0..delta)
            .find(|&c| left[u][c].is_none())
            .expect("degree bound");
        let cv = (0..delta)
            .find(|&c| right[v][c].is_none())
            .expect("degree bound");
        if cu != cv {
            // Make cu free at v: walk the maximal alternating (cu, cv) path
            // starting from v's cu-colored edge and swap the two colors
            // along it. In a bipartite graph the path cannot reach u, so cu
            // stays free at u (König's argument).
            let other = |c: usize| if c == cu { cv } else { cu };
            let mut path: Vec<(usize, usize, usize)> = Vec::new(); // (l, r, color)
            let mut at_right = true;
            let mut node = v;
            let mut col = cu;
            loop {
                if at_right {
                    match right[node][col] {
                        None => break,
                        Some(l) => {
                            path.push((l, node, col));
                            node = l;
                        }
                    }
                } else {
                    match left[node][col] {
                        None => break,
                        Some(r) => {
                            path.push((node, r, col));
                            node = r;
                        }
                    }
                }
                at_right = !at_right;
                col = other(col);
            }
            for &(l, r, c) in &path {
                left[l][c] = None;
                right[r][c] = None;
            }
            for &(l, r, c) in &path {
                let o = other(c);
                left[l][o] = Some(r);
                right[r][o] = Some(l);
            }
        }
        debug_assert!(left[u][cu].is_none(), "cu must be free at u");
        debug_assert!(
            right[v][cu].is_none(),
            "cu must be free at v after the flip"
        );
        left[u][cu] = Some(v);
        right[v][cu] = Some(u);
    }

    // The flips above change colors of earlier edges; recompute every
    // edge's color from the matching tables (each (u,v) appears in exactly
    // one color slot).
    for (idx, &(u, v)) in edges.iter().enumerate() {
        let c = (0..delta)
            .find(|&c| left[u][c] == Some(v))
            .expect("edge lost during coloring");
        colors[idx] = c;
    }
    colors
}

/// The plan as a schedule over the `1 × n` view of the array.
fn lower_general_1d(plan: &GeneralPlan1d) -> Schedule<'static> {
    Schedule {
        src: Descriptor::new(1, plan.n, 1, plan.b_src, 1, plan.p),
        dst: Descriptor::new(1, plan.n, 1, plan.b_dst, 1, plan.q),
        tag_base: TAG_GENERAL1D_BASE,
        steps: lower_steps(&plan.steps, |t| GTransfer2d {
            src: (0, t.src),
            dst: (0, t.dst),
            row_runs: vec![(0, 1)],
            col_runs: t.runs.clone(),
        }),
    }
}

/// Execute a general plan collectively over `comm` (old layout ranks
/// `0..p`, new layout ranks `0..q`).
pub fn redistribute_general_1d<T: Pod + Default>(
    comm: &Comm,
    plan: &GeneralPlan1d,
    src: Option<&DistVector<T>>,
) -> Option<DistVector<T>> {
    run_1d(comm, &lower_general_1d(plan), src).expect("direct commit cannot abort")
}

/// Contention-aware analytic cost (steps are matchings, so this matches the
/// plain per-step-max evaluator).
pub fn evaluate_general_1d(plan: &GeneralPlan1d, elem_size: usize, net: &NetModel) -> RedistCost {
    evaluate(&lower_general_1d(plan), elem_size, net, Sum::PerTerm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use reshape_mpisim::{NetModel, Universe};
    use std::collections::HashSet;

    fn check_plan(plan: &GeneralPlan1d) {
        // Completeness: every element moves exactly once, between the right
        // owners.
        let mut covered = vec![false; plan.n];
        for step in &plan.steps {
            let mut senders = HashSet::new();
            let mut receivers = HashSet::new();
            for t in step {
                assert!(
                    senders.insert(t.src),
                    "source {} sends twice in a step",
                    t.src
                );
                assert!(
                    receivers.insert(t.dst),
                    "dest {} receives twice in a step",
                    t.dst
                );
                for &(start, len) in &t.runs {
                    for (e, c) in covered.iter_mut().enumerate().skip(start).take(len) {
                        assert_eq!((e / plan.b_src) % plan.p, t.src, "element {e} wrong src");
                        assert_eq!((e / plan.b_dst) % plan.q, t.dst, "element {e} wrong dst");
                        assert!(!*c, "element {e} moved twice");
                        *c = true;
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "some element never moved");
    }

    /// The schedule must be optimal: steps == max endpoint degree.
    fn check_optimal(plan: &GeneralPlan1d) {
        let mut dl = vec![0usize; plan.p];
        let mut dr = vec![0usize; plan.q];
        for t in plan.steps.iter().flatten() {
            dl[t.src] += 1;
            dr[t.dst] += 1;
        }
        let delta = dl.iter().chain(dr.iter()).copied().max().unwrap_or(0);
        assert_eq!(
            plan.steps.len(),
            delta,
            "schedule must use exactly Δ = {delta} steps (König)"
        );
    }

    #[test]
    fn block_size_change_same_procs() {
        let plan = plan_general_1d(60, 4, 3, 6, 3);
        check_plan(&plan);
        check_optimal(&plan);
    }

    #[test]
    fn block_and_proc_change_together() {
        let plan = plan_general_1d(120, 5, 4, 3, 6);
        check_plan(&plan);
        check_optimal(&plan);
    }

    #[test]
    fn same_block_reduces_to_fixed_case() {
        // With unchanged blocking the general plan must carry the same
        // bytes as the circulant plan.
        let plan = plan_general_1d(96, 4, 3, 4, 4);
        check_plan(&plan);
        check_optimal(&plan);
        let fixed = crate::plan_1d(96, 4, 3, 4);
        assert_eq!(plan.network_bytes(8), fixed.network_bytes(8));
    }

    #[test]
    fn ragged_tail() {
        let plan = plan_general_1d(17, 4, 2, 5, 3);
        check_plan(&plan);
        check_optimal(&plan);
    }

    #[test]
    fn executor_round_trips_with_reblocking() {
        let (n, b1, p, b2, q) = (50usize, 3usize, 2usize, 7usize, 4usize);
        Universe::new(4, 1, NetModel::ideal())
            .launch(4, None, "g1d", move |comm| {
                let plan = plan_general_1d(n, b1, p, b2, q);
                let me = comm.rank();
                let src =
                    (me < p).then(|| DistVector::from_fn(n, b1, me, p, |g| (g * 17 + 3) as f64));
                let out = redistribute_general_1d(&comm, &plan, src.as_ref());
                if me < q {
                    let out = out.expect("in destination layout");
                    for l in 0..out.local_len() {
                        let g = out.global_index(l);
                        assert_eq!(out.get_local(l), (g * 17 + 3) as f64, "element {g}");
                    }
                }
            })
            .join_ok();
    }

    #[test]
    fn cost_evaluator_reports_steps_and_bytes() {
        let plan = plan_general_1d(10_000, 100, 4, 250, 5);
        let c = evaluate_general_1d(&plan, 8, &NetModel::gigabit_ethernet());
        assert_eq!(c.steps, plan.steps.len());
        assert_eq!(c.network_bytes, plan.network_bytes(8));
        assert!(c.seconds > 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn general_plans_are_complete_and_optimal(
            n in 1usize..500,
            b1 in 1usize..12,
            p in 1usize..7,
            b2 in 1usize..12,
            q in 1usize..7,
        ) {
            let plan = plan_general_1d(n, b1, p, b2, q);
            check_plan(&plan);
            check_optimal(&plan);
        }

        #[test]
        fn general_executor_preserves_data(
            n in 1usize..120,
            b1 in 1usize..6,
            p in 1usize..5,
            b2 in 1usize..6,
            q in 1usize..5,
        ) {
            let ranks = p.max(q);
            Universe::new(ranks, 1, NetModel::ideal())
                .launch(ranks, None, "pg1d", move |comm| {
                    let plan = plan_general_1d(n, b1, p, b2, q);
                    let me = comm.rank();
                    let src = (me < p)
                        .then(|| DistVector::from_fn(n, b1, me, p, |g| (g * 7 + 1) as u64));
                    let out = redistribute_general_1d(&comm, &plan, src.as_ref());
                    if me < q {
                        let out = out.expect("in destination layout");
                        for l in 0..out.local_len() {
                            let g = out.global_index(l);
                            assert_eq!(out.get_local(l), (g * 7 + 1) as u64);
                        }
                    }
                })
                .join_ok();
        }
    }
}
