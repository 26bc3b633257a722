//! A plan edited after its planner built it is a `RedistError::BadPlan`,
//! returned on every rank, in either commit mode, before any rank sends. The
//! plan types have public fields, so `redistribute` checks what it is given
//! instead of panicking inside the move or leaving a receiver waiting for a
//! message no rank sends.

use std::sync::{Arc, Mutex};

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_mpisim::{Comm, NetModel, Universe};
use reshape_redist::{plan_1d, plan_2d, redistribute, Commit, Redist2d, RedistError};

/// Run `call` on four ranks in each commit mode and demand that every rank
/// returns `BadPlan` without panicking, having sent no message.
fn every_rank_refuses(call: fn(&Comm, Commit) -> Result<(), RedistError>) {
    for commit in [Commit::Direct, Commit::Staged] {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        Universe::new(4, 1, NetModel::ideal())
            .launch(4, None, "bad-plan", move |comm| {
                let me = comm.rank();
                let got = call(&comm, commit);
                assert_eq!(got, Err(RedistError::BadPlan), "rank {me}, {commit:?}");
                assert_eq!(comm.stats().msgs_sent(), 0, "rank {me} sent, {commit:?}");
                sink.lock().unwrap().push(me);
            })
            .join_ok();
        let mut seen = seen.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2, 3], "{commit:?}");
    }
}

/// Move an 8 × 8 matrix in 2 × 2 blocks from a 2 × 2 grid to 1 × 4 along
/// `plan_2d`'s plan after `edit` has changed it.
fn move_edited_2d(comm: &Comm, commit: Commit, edit: fn(&mut Redist2d)) -> Result<(), RedistError> {
    let (s, d) = (
        Descriptor::square(8, 2, 2, 2),
        Descriptor::square(8, 2, 1, 4),
    );
    let mut plan = plan_2d(s, d);
    edit(&mut plan);
    let me = comm.rank();
    let src = DistMatrix::from_fn(s, me / s.npcol, me % s.npcol, |i, j| (i * 8 + j) as f64);
    redistribute(comm, &plan, Some(&src), commit).map(drop)
}

#[test]
fn a_block_past_the_end_of_its_dimension() {
    every_rank_refuses(|comm, commit| {
        move_edited_2d(comm, commit, |plan| plan.steps[0][0].row_blocks.push(99))
    });
}

#[test]
fn a_source_outside_the_old_grid() {
    every_rank_refuses(|comm, commit| {
        move_edited_2d(comm, commit, |plan| plan.steps[0][0].src = (0, 5))
    });
}

#[test]
fn a_sub_plan_of_another_block_size() {
    every_rank_refuses(|comm, commit| {
        move_edited_2d(comm, commit, |plan| plan.col_plan = plan_1d(8, 4, 2, 4))
    });
}

#[test]
fn a_block_its_source_does_not_own() {
    every_rank_refuses(|comm, commit| {
        move_edited_2d(comm, commit, |plan| {
            // Column block 1 lives on grid column 1, and the edited plan has
            // grid position (0, 0) send it.
            let from_00 = plan.steps.iter_mut().flatten().find(|t| t.src == (0, 0));
            from_00.expect("(0, 0) sends").col_blocks.push(1);
        })
    });
}
