//! Property tests for the redistribution planners: every element of the
//! array is sent exactly once, to its true block-cyclic owner, and the
//! plan's total volume equals the matrix volume. These are the structural
//! guarantees the executors rely on — `unpack` trusts the plan to deliver
//! each destination cell exactly once.

use proptest::prelude::*;
use reshape_blockcyclic::Descriptor;
use reshape_redist::{plan_1d, plan_2d};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan1d_sends_every_block_exactly_once_with_exact_volume(
        n in 1usize..400,
        b in 1usize..9,
        p in 1usize..9,
        q in 1usize..9,
    ) {
        let plan = plan_1d(n, b, p, q);
        let mut sent = vec![0usize; plan.nblocks()];
        let mut volume = 0usize;
        for step in &plan.steps {
            for tr in step {
                for &k in &tr.blocks {
                    prop_assert!(k < plan.nblocks(), "block {} out of range", k);
                    sent[k] += 1;
                    // Block-cyclic ownership: block k lives on k mod p and
                    // moves to k mod q.
                    prop_assert_eq!(tr.src, k % p, "block {} sent from non-owner", k);
                    prop_assert_eq!(tr.dst, k % q, "block {} sent to wrong owner", k);
                    volume += plan.block_len(k);
                }
            }
        }
        for (k, &c) in sent.iter().enumerate() {
            prop_assert_eq!(c, 1, "block {} sent {} times", k, c);
        }
        prop_assert_eq!(volume, n, "plan volume != array volume");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plan2d_covers_every_block_pair_exactly_once_with_exact_volume(
        m in 1usize..40,
        n in 1usize..40,
        mb in 1usize..5,
        nb in 1usize..5,
        sr in 1usize..4,
        sc in 1usize..4,
        dr in 1usize..4,
        dc in 1usize..4,
    ) {
        let src = Descriptor::new(m, n, mb, nb, sr, sc);
        let dst = Descriptor::new(m, n, mb, nb, dr, dc);
        let plan = plan_2d(src, dst);
        let rblocks = m.div_ceil(mb);
        let cblocks = n.div_ceil(nb);
        let row_len = |rb: usize| (m - rb * mb).min(mb);
        let col_len = |cb: usize| (n - cb * nb).min(nb);
        let mut sent = vec![0usize; rblocks * cblocks];
        let mut volume = 0usize;
        for step in &plan.steps {
            for tr in step {
                let mut rows = 0usize;
                for &rb in &tr.row_blocks {
                    prop_assert!(rb < rblocks, "row block {} out of range", rb);
                    prop_assert_eq!(rb % sr, tr.src.0, "row block {} from non-owner row", rb);
                    prop_assert_eq!(rb % dr, tr.dst.0, "row block {} to wrong row", rb);
                    rows += row_len(rb);
                }
                let mut cols = 0usize;
                for &cb in &tr.col_blocks {
                    prop_assert!(cb < cblocks, "col block {} out of range", cb);
                    prop_assert_eq!(cb % sc, tr.src.1, "col block {} from non-owner col", cb);
                    prop_assert_eq!(cb % dc, tr.dst.1, "col block {} to wrong col", cb);
                    cols += col_len(cb);
                }
                for &rb in &tr.row_blocks {
                    for &cb in &tr.col_blocks {
                        sent[rb * cblocks + cb] += 1;
                    }
                }
                volume += rows * cols;
            }
        }
        for (i, &c) in sent.iter().enumerate() {
            prop_assert_eq!(
                c, 1,
                "block pair ({}, {}) sent {} times", i / cblocks, i % cblocks, c
            );
        }
        prop_assert_eq!(volume, m * n, "plan volume != matrix volume");
    }
}

/// Per rank `r` that holds a panel of both layouts, the local indices of
/// the elements `plan` keeps on it, `(old, new)` in row-major panel order,
/// and the lengths of its old and new panels.
fn kept_on(plan: &reshape_redist::Redist2d, r: usize) -> (Vec<(usize, usize)>, usize, usize) {
    use reshape_blockcyclic::g2l;
    let (s, d) = (&plan.src, &plan.dst);
    let (old, new) = ((r / s.npcol, r % s.npcol), (r / d.npcol, r % d.npcol));
    let (old_cols, new_cols) = (s.local_cols(old.1), d.local_cols(new.1));
    let block = |k: usize, b: usize, len: usize| k * b..len.min(k * b + b);
    let mut kept = Vec::new();
    for t in plan.steps.iter().flatten() {
        if (t.src, t.dst) != (old, new) {
            continue;
        }
        for gi in t.row_blocks.iter().flat_map(|&k| block(k, s.mb, s.m)) {
            for gj in t.col_blocks.iter().flat_map(|&k| block(k, s.nb, s.n)) {
                let at = |g: usize, b: usize, np: usize| g2l(g, b, np).1;
                kept.push((
                    at(gi, s.mb, s.nprow) * old_cols + at(gj, s.nb, s.npcol),
                    at(gi, d.mb, d.nprow) * new_cols + at(gj, d.nb, d.npcol),
                ));
            }
        }
    }
    let old_len = s.local_rows(old.0) * old_cols;
    let new_len = d.local_rows(new.0) * new_cols;
    (kept, old_len, new_len)
}

/// Whether the elements a rank keeps form all of its new panel (a pure
/// subset of the old one) or all of its old panel (a pure superset), and if
/// so, whether their map from old to new local index is strictly monotone.
fn pure_ranks_keep_their_order(plan: &reshape_redist::Redist2d) -> Result<usize, String> {
    let (p, q) = (
        plan.src.nprow * plan.src.npcol,
        plan.dst.nprow * plan.dst.npcol,
    );
    let mut pure = 0;
    for r in 0..p.min(q) {
        let (mut kept, old_len, new_len) = kept_on(plan, r);
        if kept.len() != old_len && kept.len() != new_len {
            continue;
        }
        pure += 1;
        kept.sort_unstable();
        for w in kept.windows(2) {
            if w[0].0 >= w[1].0 || w[0].1 >= w[1].1 {
                return Err(format!("rank {r}: kept {:?} then {:?}", w[0], w[1]));
            }
        }
    }
    Ok(pure)
}

/// ReSHAPE's own 2x shapes: on 1x2 -> 2x2 and back every rank that stays is
/// a pure subset or superset of itself, ragged edges included.
#[test]
fn every_staying_rank_of_the_2x_shapes_is_pure() {
    for (m, n, mb, nb) in [
        (16, 16, 2, 2),
        (17, 23, 4, 5),
        (1, 37, 1, 3),
        (4096, 4096, 64, 64),
    ] {
        let narrow = Descriptor::new(m, n, mb, nb, 1, 2);
        let wide = Descriptor::new(m, n, mb, nb, 2, 2);
        for plan in [plan_2d(narrow, wide), plan_2d(wide, narrow)] {
            assert_eq!(pure_ranks_keep_their_order(&plan), Ok(2), "{m}x{n}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A panel can be rebuilt inside its own allocation only because the
    /// elements a pure rank keeps keep their order: forward for a subset,
    /// backward for a superset, no kept element overwrites one not yet
    /// moved. Layouts are ragged, and every fourth is a `1 x n` view.
    #[test]
    fn kept_elements_of_a_pure_rank_keep_their_order(
        m in 1usize..40,
        n in 1usize..40,
        mb in 1usize..5,
        nb in 1usize..5,
        sr in 1usize..4,
        sc in 1usize..5,
        dr in 1usize..4,
        dc in 1usize..5,
        view in 0usize..4,
    ) {
        let (m, mb, sr, dr) = if view == 0 { (1, 1, 1, 1) } else { (m, mb, sr, dr) };
        let plan = plan_2d(
            Descriptor::new(m, n, mb, nb, sr, sc),
            Descriptor::new(m, n, mb, nb, dr, dc),
        );
        let kept = pure_ranks_keep_their_order(&plan);
        prop_assert!(kept.is_ok(), "{:?}", kept);
    }
}
