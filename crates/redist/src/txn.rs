//! Transactional redistribution: survive a rank death *inside* the data
//! movement.
//!
//! The `try_*` wrappers in [`crate::fault`] only run a pre-flight liveness
//! scan: a rank that dies after the scan but before the last transfer still
//! strands the direct executor, which unpacks received payloads straight into
//! the destination panel. This entry point runs the same schedule through
//! the same step loop in its *staged* commit mode, which changes two things:
//!
//! 1. **Staged receives.** Incoming payloads are parked in shadow buffers
//!    next to their transfer records; nothing touches a destination panel
//!    until the whole plan has moved. The source panel is only ever read.
//! 2. **Fault-aware transport + commit vote.** Sends use
//!    [`Comm::try_send`], which fails deterministically when the
//!    destination's node carries a crash firing before the message would
//!    arrive (the mid-transfer death); receives use
//!    [`Comm::recv_or_failed`], which returns an error once the sender has
//!    actually died without sending. A rank that observes a failure keeps
//!    participating (so live peers never deadlock on it) but votes ABORT in
//!    a final all-to-all round. Only a rank that completed every transfer
//!    *and* collected an OK vote from every peer unpacks its staging area.
//!
//! On abort every survivor returns [`RedistAbort`] with its source panel
//! bit-for-bit intact — the caller still holds the old layout and can fall
//! back to it (ReSHAPE's shrink-to-survivors recovery does exactly that).
//!
//! The vote round gives *local* atomicity, not global agreement: if a rank
//! dies midway through casting its votes, a survivor that already received
//! its OK may commit while another aborts. The driver's recovery fence
//! resolves this — any death during the resize epoch is detected there and
//! all survivors discard the epoch's output, committed or not, so the
//! divergence is never observable above the driver.

use reshape_blockcyclic::DistMatrix;
use reshape_mpisim::{Comm, Pod};

use crate::exec::{lower_2d, run_2d, Commit, Schedule};
use crate::fault::RedistAbort;
use crate::plan2d::Redist2d;

/// Tag range for the transactional executor's data steps (`base + step`),
/// disjoint from the plain executor's `8_000_000 + step` range so an aborted
/// epoch's stragglers can never match a later plain redistribution.
const TAG_TXN_BASE: u32 = 8_100_000;

/// Execute `plan` transactionally. Same calling convention as
/// [`crate::redistribute_2d`]: ranks `0..P` supply their old panel, ranks
/// `0..Q` get the new one back, and a rank outside both grids passes `None`.
///
/// Returns `Err(RedistAbort)` — with `src` untouched and no destination
/// panel materialized — when any rank the plan involves died before or
/// during the movement, or when any peer voted to abort.
pub fn txn_redistribute_2d<T: Pod + Default>(
    comm: &Comm,
    plan: &Redist2d,
    src: Option<&DistMatrix<T>>,
) -> Result<Option<DistMatrix<T>>, RedistAbort> {
    let sched = Schedule {
        tag_base: TAG_TXN_BASE,
        ..lower_2d(plan)
    };
    run_2d(comm, &sched, Commit::Staged, src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::redistribute_2d;
    use crate::plan2d::plan_2d;
    use reshape_blockcyclic::Descriptor;
    use reshape_mpisim::{NetModel, NodeId, Universe};

    /// Keep survivors registered until everyone has finished asserting, so
    /// none of them looks dead to a peer still mid-check.
    fn survivor_sync(comm: &reshape_mpisim::Comm, survivors: &[usize]) {
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

    /// With every rank alive the transaction commits and the result is
    /// bitwise-identical to the plain executor's.
    #[test]
    fn commit_matches_plain_executor() {
        let uni = Universe::new(6, 1, NetModel::ideal());
        uni.launch(6, None, "txn-commit", |comm| {
            let s = Descriptor::new(17, 23, 3, 2, 2, 2);
            let d = Descriptor::new(17, 23, 3, 2, 2, 3);
            let plan = plan_2d(s, d);
            let me = comm.rank();
            let src = (me < 4)
                .then(|| DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * 7919 + j) as f64));
            let txn = txn_redistribute_2d(&comm, &plan, src.as_ref()).expect("all alive");
            let plain = redistribute_2d(&comm, &plan, src.as_ref());
            match (txn, plain) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.local_rows(), b.local_rows());
                    assert_eq!(a.local_cols(), b.local_cols());
                    for li in 0..a.local_rows() {
                        for lj in 0..a.local_cols() {
                            assert_eq!(
                                a.get_local(li, lj).to_bits(),
                                b.get_local(li, lj).to_bits()
                            );
                        }
                    }
                }
                (None, None) => {}
                _ => panic!("txn and plain disagree on grid membership"),
            }
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
            let before: Vec<u64> = (0..src.local_rows() * src.local_cols())
                .map(|k| {
                    src.get_local(k / src.local_cols(), k % src.local_cols())
                        .to_bits()
                })
                .collect();
            let res = txn_redistribute_2d(&comm, &plan, Some(&src));
            if me == 3 {
                unreachable!("rank 3 crashes inside the executor");
            }
            res.expect_err("death mid-redistribution must abort the transaction");
            let after: Vec<u64> = (0..src.local_rows() * src.local_cols())
                .map(|k| {
                    src.get_local(k / src.local_cols(), k % src.local_cols())
                        .to_bits()
                })
                .collect();
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
            txn_redistribute_2d(&comm, &plan, Some(&src))
                .expect_err("survivors must abort once rank 3 dies");
            survivor_sync(&comm, &[0, 1, 2]);
        })
        .join();
    }
}
