//! A handed-over source against a lent one.
//!
//! `redistribute` rebuilds a rank's new panel inside its old one when the
//! caller hands that panel over, the move is `Commit::Direct`, and the new
//! panel is a pure subset or superset of the old. Whether it does must not
//! show in what any rank gets back: over random layouts (ragged blocks,
//! `1 x n` views, grids where no rank can rebuild in place) and both commit
//! modes, every rank's new panel, or its error, is the same bit for bit
//! either way. With a rank dead, the ranks that meet it abort alike, and
//! none panics or waits forever.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_mpisim::{Comm, NetModel, ProcStatus, Universe};
use reshape_redist::{plan_2d, redistribute, Commit, RedistError};

/// Element `(i, j)`'s value: injective, so a misplaced element shows.
fn value(i: usize, j: usize) -> f64 {
    (i * 7919 + j) as f64
}

/// What one rank's call returned: its new panel's bits, or the error.
type Outcome = Result<Option<Vec<u64>>, RedistError>;

/// Keep the ranks in `live` registered until all of them get here, so none
/// looks dead to a peer that is still moving data.
fn hold(comm: &Comm, live: &[usize]) {
    const TAG_SYNC: u32 = 7_700_000;
    let (root, rest) = (live[0], &live[1..]);
    let mut buf: Vec<u64> = Vec::new();
    if comm.rank() == root {
        for &r in rest {
            comm.recv_into(r, TAG_SYNC, &mut buf);
        }
        for &r in rest {
            comm.send(r, TAG_SYNC, &[1u64]);
        }
    } else {
        comm.send(root, TAG_SYNC, &[1u64]);
        comm.recv_into(root, TAG_SYNC, &mut buf);
    }
}

/// Move the matrix of `s` to `d` in `commit` mode, every source rank
/// handing its panel over or lending it. Rank `dead` (if any) ends before
/// the move, and the others wait until they see it gone, so a lend to it
/// and a receive from it fail on every run alike. Returns each rank's
/// outcome (`None` for the dead one) and each rank's exit status. A lent
/// source must come back bitwise intact.
fn run(
    s: Descriptor,
    d: Descriptor,
    commit: Commit,
    hand_over: bool,
    dead: Option<usize>,
) -> (Vec<Option<Outcome>>, Vec<ProcStatus>) {
    let (p, q) = (s.nprow * s.npcol, d.nprow * d.npcol);
    let ranks = p.max(q);
    let plan = Arc::new(plan_2d(s, d));
    let outcomes = Arc::new(Mutex::new(vec![None; ranks]));
    let sink = Arc::clone(&outcomes);
    let statuses = Universe::new(ranks, 1, NetModel::ideal())
        .launch(ranks, None, "handover", move |comm| {
            let me = comm.rank();
            if Some(me) == dead {
                return;
            }
            if let Some(r) = dead {
                while comm.rank_alive(r) {
                    std::thread::yield_now();
                }
            }
            let src = (me < p).then(|| DistMatrix::from_fn(s, me / s.npcol, me % s.npcol, value));
            let got = match src {
                Some(mat) if hand_over => redistribute(&comm, &plan, mat, commit),
                src => {
                    let before = src.clone();
                    let got = redistribute(&comm, &plan, src.as_ref(), commit);
                    let bits = |m: Option<DistMatrix<f64>>| {
                        m.map(|m| {
                            m.local_data()
                                .iter()
                                .map(|v| v.to_bits())
                                .collect::<Vec<_>>()
                        })
                    };
                    assert_eq!(bits(src), bits(before), "a lent source stays intact");
                    got
                }
            };
            let got = got.map(|m| m.map(|m| m.local_data().iter().map(|v| v.to_bits()).collect()));
            sink.lock().expect("outcome lock")[me] = Some(got);
            let live: Vec<usize> = (0..ranks).filter(|&r| Some(r) != dead).collect();
            hold(&comm, &live);
        })
        .join()
        .into_iter()
        .map(|(_, status)| status)
        .collect();
    let outcomes = outcomes.lock().expect("outcome lock").clone();
    (outcomes, statuses)
}

/// Every rank of a move of `s` to `d` in `commit` mode gets the same
/// outcome handed over as lent, and a rank in `d` gets its true panel.
fn agree(s: Descriptor, d: Descriptor, commit: Commit) -> Result<(), String> {
    let (lent, _) = run(s, d, commit, false, None);
    let (handed, _) = run(s, d, commit, true, None);
    if lent != handed {
        return Err(format!(
            "{s:?} -> {d:?} {commit:?}: lent {lent:?}, handed over {handed:?}"
        ));
    }
    for (me, got) in handed.into_iter().enumerate() {
        let want = (me < d.nprow * d.npcol).then(|| {
            let m = DistMatrix::from_fn(d, me / d.npcol, me % d.npcol, value);
            m.local_data().iter().map(|v| v.to_bits()).collect()
        });
        if got != Some(Ok(want)) {
            return Err(format!(
                "{s:?} -> {d:?} {commit:?}: rank {me} got a wrong panel"
            ));
        }
    }
    Ok(())
}

/// ReSHAPE's own shapes, where every rank that stays rebuilds in place,
/// ragged and `1 x n` included.
#[test]
fn the_2x_shapes_agree_both_ways() {
    for (m, n, mb, nb) in [(16, 16, 2, 2), (17, 23, 4, 5), (1, 37, 1, 3)] {
        let narrow = Descriptor::new(m, n, mb, nb, 1, 2);
        let wide = Descriptor::new(m, n, mb, nb, 2, 2);
        for commit in [Commit::Direct, Commit::Staged] {
            agree(narrow, wide, commit).unwrap();
            agree(wide, narrow, commit).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random layouts up to 3 x 3 grids; every fourth is a `1 x n` view.
    #[test]
    fn random_layouts_agree_both_ways(
        m in 1usize..30,
        n in 1usize..30,
        mb in 1usize..5,
        nb in 1usize..5,
        sr in 1usize..4,
        sc in 1usize..4,
        dr in 1usize..4,
        dc in 1usize..4,
        view in 0usize..4,
        staged in 0usize..2,
    ) {
        let (m, mb, sr, dr) = if view == 0 { (1, 1, 1, 1) } else { (m, mb, sr, dr) };
        let commit = if staged == 1 { Commit::Staged } else { Commit::Direct };
        let agreed = agree(
            Descriptor::new(m, n, mb, nb, sr, sc),
            Descriptor::new(m, n, mb, nb, dr, dc),
            commit,
        );
        prop_assert!(agreed.is_ok(), "{:?}", agreed);
    }
}

/// With rank 3 dead, expanding 1x2 -> 2x2 and shrinking 2x2 -> 1x2: rank 1
/// stays, and lends to it or receives from it, so under `Direct` rank 1
/// aborts blaming it and the others complete, under `Staged`
/// every survivor aborts, and in both modes each rank's outcome is the
/// same handed over as lent. No rank panics.
#[test]
fn a_dead_peer_aborts_a_handed_over_panel_alike() {
    let narrow = Descriptor::square(12, 2, 1, 2);
    let wide = Descriptor::square(12, 2, 2, 2);
    let aborted = Some(Err(RedistError::Aborted { dead_rank: 3 }));
    for (s, d) in [(narrow, wide), (wide, narrow)] {
        for commit in [Commit::Direct, Commit::Staged] {
            let (lent, _) = run(s, d, commit, false, Some(3));
            let (handed, statuses) = run(s, d, commit, true, Some(3));
            assert_eq!(lent, handed, "{s:?} -> {d:?} {commit:?}");
            // Rank 1, grid column 1 both ways, is the one that exchanges
            // with rank 3.
            let meets_3: &[usize] = match commit {
                Commit::Direct => &[1],
                Commit::Staged => &[0, 1, 2],
            };
            for (me, got) in handed.iter().enumerate().take(3) {
                if meets_3.contains(&me) {
                    assert_eq!(*got, aborted, "rank {me}, {commit:?}");
                } else {
                    assert!(matches!(got, Some(Ok(_))), "rank {me}, {commit:?}: {got:?}");
                }
            }
            assert!(
                statuses.iter().all(|s| *s == ProcStatus::Finished),
                "{statuses:?}"
            );
        }
    }
}
