//! What a redistribution returns instead of moving data, and the opt-in
//! liveness pre-flight.
//!
//! Redistribution is a collective over the merged communicator; if any rank
//! that the plan involves has died (node crash), the blocking sends and
//! receives of a [`Commit::Direct`](crate::Commit::Direct) move would wedge
//! or panic mid-transfer, leaving the array partially moved. [`preflight`]
//! scans every rank the move can name and aborts *before any element
//! moves*, so the old layout stays intact and the scheduler can fall back
//! to the previous configuration.
//!
//! The scan is local per rank but deterministic: every surviving rank scans
//! the same rank range against the same router state, so either all abort
//! with the same [`RedistError::Aborted`] or all proceed. It is not always
//! on: `rank_alive` also reports a peer that has *finished and exited* as
//! dead, so a caller that returns straight after the move would turn a fast
//! peer's normal exit into a false abort. Only callers that hold every rank
//! until all have scanned opt in.

use std::fmt;

use reshape_mpisim::Comm;

/// Why a redistribution moved nothing on this rank. Every variant is
/// returned before this rank sends anything, except
/// [`Aborted`](Self::Aborted) from a staged commit's vote, which is
/// returned after the movement with the source still untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedistError {
    /// The communicator has fewer ranks than the larger of the two layouts.
    CommTooSmall { size: usize, world: usize },
    /// The checkpoint funnel's two layouts are of different global shapes.
    ShapeMismatch {
        src: (usize, usize),
        dst: (usize, usize),
    },
    /// `rank` is in the source layout but passed no array.
    MissingSource { rank: usize },
    /// The array `rank` passed is not its panel of the source layout: it has
    /// another descriptor or grid position, or its type cannot hold the
    /// move's layouts.
    LayoutMismatch { rank: usize },
    /// A rank the move needs is dead: found by [`preflight`] before any
    /// element moved, or by a staged commit's vote. The source layout is
    /// untouched.
    Aborted { dead_rank: usize },
}

impl fmt::Display for RedistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedistError::CommTooSmall { size, world } => write!(
                f,
                "communicator ({size}) smaller than the larger layout ({world})"
            ),
            RedistError::ShapeMismatch { src, dst } => {
                write!(f, "source shape {src:?} differs from destination {dst:?}")
            }
            RedistError::MissingSource { rank } => {
                write!(f, "rank {rank} owns source data but supplied none")
            }
            RedistError::LayoutMismatch { rank } => {
                write!(f, "rank {rank}'s source panel disagrees with the plan")
            }
            RedistError::Aborted { dead_rank } => {
                write!(f, "redistribution aborted: rank {dead_rank} is dead")
            }
        }
    }
}

impl std::error::Error for RedistError {}

/// Abort if any of ranks `0..world` (clamped to the communicator) has
/// terminated. `world` is every rank the move can name: a plan's
/// [`world`](crate::Plan::world), or `max(P, Q)` for the checkpoint funnel.
pub fn preflight(comm: &Comm, world: usize) -> Result<(), RedistError> {
    for rank in 0..world.min(comm.size()) {
        if !comm.rank_alive(rank) {
            reshape_telemetry::incr("redist.aborts", 1);
            return Err(RedistError::Aborted { dead_rank: rank });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{redistribute, redistribute_2d, Commit, Plan};
    use crate::plan2d::plan_2d;
    use reshape_blockcyclic::{Descriptor, DistMatrix};
    use reshape_mpisim::{NetModel, NodeId, Universe};

    /// Keep survivors registered until everyone has finished asserting, so
    /// none of them looks dead to a peer still mid-check.
    fn survivor_sync(comm: &Comm, survivors: &[usize]) {
        const TAG_SYNC: u32 = 7_700_000;
        let me = comm.rank();
        let root = survivors[0];
        let mut buf: Vec<u64> = Vec::new();
        if me == root {
            for &r in &survivors[1..] {
                comm.recv_into(r, TAG_SYNC, &mut buf);
            }
            for &r in &survivors[1..] {
                comm.send(r, TAG_SYNC, &[1u64]);
            }
        } else {
            comm.send(root, TAG_SYNC, &[me as u64]);
            comm.recv_into(root, TAG_SYNC, &mut buf);
        }
    }

    /// Kill one of four ranks, then assert every survivor's pre-flight
    /// aborts with the dead rank identified and the source panel untouched.
    #[test]
    fn dead_rank_aborts_before_moving_data() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "abort", |comm| {
            let s = Descriptor::square(8, 2, 2, 2);
            let d = Descriptor::square(8, 2, 1, 4);
            let plan = plan_2d(s, d);
            let me = comm.rank();
            if me == 3 {
                return; // rank 3 terminates; its mailbox is reaped
            }
            // Ranks learn of the death at their own pace; poll until the
            // router reflects it so the test is deterministic.
            while comm.rank_alive(3) {
                comm.advance(0.001);
            }
            let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * 11 + j) as f64);
            let before = src.local_data().to_vec();
            let err = preflight(&comm, Plan::from(&plan).world())
                .expect_err("dead rank must abort the redistribution");
            assert_eq!(err, RedistError::Aborted { dead_rank: 3 });
            assert_eq!(comm.stats().msgs_sent(), 0, "pre-flight sends nothing");
            assert_eq!(
                before,
                src.local_data(),
                "abort must leave the old layout intact"
            );
            survivor_sync(&comm, &[0, 1, 2]);
        })
        .join_ok();
    }

    /// With everyone alive the pre-flight passes and the move goes ahead.
    #[test]
    fn all_alive_passes_through() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "pass", |comm| {
            let s = Descriptor::square(8, 2, 2, 2);
            let d = Descriptor::square(8, 2, 1, 4);
            let plan = plan_2d(s, d);
            let me = comm.rank();
            let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * 8 + j) as u64);
            preflight(&comm, Plan::from(&plan).world()).expect("no dead ranks");
            let out = redistribute_2d(&comm, &plan, Some(&src)).expect("in destination grid");
            for li in 0..out.local_rows() {
                let gi = d.local_to_global_row(li, out.myrow);
                for lj in 0..out.local_cols() {
                    let gj = d.local_to_global_col(lj, out.mycol);
                    assert_eq!(out.get_local(li, lj), (gi * 8 + gj) as u64);
                }
            }
            // Barrier so no rank deregisters while a peer's pre-flight is
            // still scanning liveness.
            comm.barrier();
        })
        .join_ok();
    }

    /// With every rank alive a staged move commits, bitwise-identical to a
    /// direct one.
    #[test]
    fn staged_commit_matches_direct() {
        let uni = Universe::new(6, 1, NetModel::ideal());
        uni.launch(6, None, "txn-commit", |comm| {
            let s = Descriptor::new(17, 23, 3, 2, 2, 2);
            let d = Descriptor::new(17, 23, 3, 2, 2, 3);
            let plan = plan_2d(s, d);
            let me = comm.rank();
            let src = (me < 4)
                .then(|| DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * 7919 + j) as f64));
            let staged =
                redistribute(&comm, &plan, src.as_ref(), Commit::Staged).expect("all alive");
            let direct = redistribute_2d(&comm, &plan, src.as_ref());
            let bits = |m: Option<DistMatrix<f64>>| {
                m.map(|m| {
                    m.local_data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                })
            };
            assert_eq!(bits(staged), bits(direct));
        })
        .join_ok();
    }

    /// A rank that crashes *during* the movement (not caught by any
    /// pre-flight) makes every survivor abort with its source panel intact.
    #[test]
    fn mid_redistribution_death_rolls_back() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        // Rank 3's node dies the moment it touches the communicator: its
        // first try_send/recv checkpoint panics, mid-plan.
        uni.inject_node_crash(NodeId(3), 0.0);
        uni.launch(4, None, "txn-death", |comm| {
            let s = Descriptor::square(12, 2, 2, 2);
            let d = Descriptor::square(12, 2, 1, 2);
            let plan = plan_2d(s, d);
            let me = comm.rank();
            let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * 31 + j) as f64);
            let before: Vec<u64> = src.local_data().iter().map(|v| v.to_bits()).collect();
            let res = redistribute(&comm, &plan, Some(&src), Commit::Staged);
            if me == 3 {
                unreachable!("rank 3 crashes inside the executor");
            }
            res.expect_err("death mid-redistribution must abort the transaction");
            let after: Vec<u64> = src.local_data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                before, after,
                "abort must leave the old layout bitwise intact"
            );
            survivor_sync(&comm, &[0, 1, 2]);
        })
        .join();
    }

    /// A sender that dies after delivering part of its traffic still aborts
    /// the epoch: the staged payloads are discarded, never unpacked.
    #[test]
    fn late_death_discards_staged_payloads() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        // Dies at t=0.5: rank 3 participates in early steps (ideal network
        // charges no virtual time), then an explicit advance kills it before
        // the vote round.
        uni.inject_node_crash(NodeId(3), 0.5);
        uni.launch(4, None, "txn-late", |comm| {
            let s = Descriptor::square(12, 2, 2, 2);
            let d = Descriptor::square(12, 2, 2, 1); // shrink: rank 3 is a sender
            let plan = plan_2d(s, d);
            let me = comm.rank();
            let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * 13 + j) as f64);
            if me == 3 {
                comm.advance(1.0); // walks into the crash before the plan runs out
                unreachable!("rank 3 crashes on the advance");
            }
            redistribute(&comm, &plan, Some(&src), Commit::Staged)
                .expect_err("survivors must abort once rank 3 dies");
            survivor_sync(&comm, &[0, 1, 2]);
        })
        .join();
    }
}
