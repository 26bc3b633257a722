//! A caller's mistake is a `RedistError`, returned on every rank before it
//! sends anything. Each case below makes every rank fail, so no rank is left
//! waiting inside the collective.

use std::mem::discriminant;
use std::sync::{Arc, Mutex};

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_mpisim::{Comm, NetModel, Universe};
use reshape_redist::{
    checkpoint_redistribute, plan_2d, redistribute, CheckpointParams, Commit, RedistError,
};

/// Run `call` on `ranks` ranks and demand that every one fails with the
/// variant of `want`, having sent no message; returns each rank's error.
fn every_rank_fails(
    ranks: usize,
    want: RedistError,
    call: impl Fn(&Comm) -> Result<(), RedistError> + Send + Sync + 'static,
) -> Vec<RedistError> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    Universe::new(ranks, 1, NetModel::ideal())
        .launch(ranks, None, "caller-errors", move |comm| {
            let err = call(&comm).expect_err("a caller mistake must be an error");
            assert_eq!(comm.stats().msgs_sent(), 0, "rank {} sent", comm.rank());
            sink.lock().unwrap().push((comm.rank(), err));
        })
        .join_ok();
    let mut seen = seen.lock().unwrap().clone();
    seen.sort_by_key(|&(rank, _)| rank);
    let errs: Vec<RedistError> = seen.into_iter().map(|(_, e)| e).collect();
    assert_eq!(errs.len(), ranks);
    for e in &errs {
        assert_eq!(discriminant(e), discriminant(&want), "{e}");
    }
    errs
}

fn panel(d: Descriptor, rank: usize) -> DistMatrix<f64> {
    DistMatrix::from_fn(d, rank / d.npcol, rank % d.npcol, |i, j| {
        (i * 100 + j) as f64
    })
}

const NARROW: (usize, usize) = (2, 2);

fn square(nb: usize, grid: (usize, usize)) -> Descriptor {
    Descriptor::square(8, nb, grid.0, grid.1)
}

#[test]
fn communicator_smaller_than_the_plan_is_an_error() {
    let want = RedistError::CommTooSmall { size: 4, world: 6 };
    for commit in [Commit::Direct, Commit::Staged] {
        let errs = every_rank_fails(4, want, move |comm| {
            let (s, d) = (square(2, NARROW), square(2, (2, 3)));
            let src = panel(s, comm.rank());
            redistribute(comm, &plan_2d(s, d), Some(&src), commit).map(drop)
        });
        assert!(errs.iter().all(|&e| e == want));
    }
    let errs = every_rank_fails(4, want, |comm| {
        let (s, d) = (square(2, NARROW), square(2, (2, 3)));
        let src = panel(s, comm.rank());
        checkpoint_redistribute(comm, s, d, Some(&src), &CheckpointParams::default()).map(drop)
    });
    assert!(errs.iter().all(|&e| e == want));
}

#[test]
fn source_ranks_passing_no_panel_is_an_error() {
    let want = RedistError::MissingSource { rank: 0 };
    let shrink = (square(2, NARROW), square(2, (1, 2)));
    let errs = every_rank_fails(4, want, move |comm| {
        let (s, d) = shrink;
        redistribute::<f64>(comm, &plan_2d(s, d), None, Commit::Direct).map(drop)
    });
    assert_eq!(errs[3], RedistError::MissingSource { rank: 3 });
    every_rank_fails(4, want, move |comm| {
        let (s, d) = shrink;
        checkpoint_redistribute::<f64>(comm, s, d, None, &CheckpointParams::default()).map(drop)
    });
}

#[test]
fn panels_of_another_layout_are_an_error() {
    let want = RedistError::LayoutMismatch { rank: 0 };
    let shrink = (square(2, NARROW), square(2, (1, 2)));
    // Another descriptor on every rank: blocks of 4, not 2.
    every_rank_fails(4, want, move |comm| {
        let (s, d) = shrink;
        let src = panel(square(4, NARROW), comm.rank());
        redistribute(comm, &plan_2d(s, d), Some(&src), Commit::Direct).map(drop)
    });
    every_rank_fails(4, want, move |comm| {
        let (s, d) = shrink;
        let src = panel(square(4, NARROW), comm.rank());
        checkpoint_redistribute(comm, s, d, Some(&src), &CheckpointParams::default()).map(drop)
    });
    // The right descriptor at another rank's grid position.
    every_rank_fails(4, want, move |comm| {
        let (s, d) = shrink;
        let src = panel(s, (comm.rank() + 1) % 4);
        redistribute(comm, &plan_2d(s, d), Some(&src), Commit::Staged).map(drop)
    });
}

#[test]
fn checkpoint_of_two_shapes_is_an_error() {
    let want = RedistError::ShapeMismatch {
        src: (8, 8),
        dst: (10, 10),
    };
    let errs = every_rank_fails(4, want, |comm| {
        let (s, d) = (square(2, NARROW), Descriptor::square(10, 2, 1, 2));
        let src = panel(s, comm.rank());
        checkpoint_redistribute(comm, s, d, Some(&src), &CheckpointParams::default()).map(drop)
    });
    assert!(errs.iter().all(|&e| e == want));
}
