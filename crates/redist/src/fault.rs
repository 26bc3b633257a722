//! Fault-aware redistribution entry points.
//!
//! Redistribution is a collective over the merged communicator; if any rank
//! that the plan involves has died (node crash), the blocking sends/receives
//! inside the executors would wedge or panic mid-transfer, leaving the array
//! partially moved. The `try_redistribute_*` wrappers here run a pre-flight
//! liveness check over every rank the plan touches and abort *before any
//! element moves*, so the old layout stays intact and the scheduler can fall
//! back to the previous configuration.
//!
//! The check is local per rank but deterministic: every surviving rank scans
//! the same rank range against the same router state, so either all abort
//! with the same [`RedistAbort`] or all proceed.

use std::fmt;
use std::path::Path;

use reshape_blockcyclic::{Descriptor, DistMatrix, DistVector};
use reshape_mpisim::{Comm, Pod};

use crate::checkpoint::{checkpoint_redistribute, CheckpointParams};
use crate::exec::{lower_2d, run_1d, run_2d, Commit};
use crate::exec1d::lower_1d;
use crate::general2d::{lower_general_2d, GeneralPlan2d};
use crate::plan1d::Redist1d;
use crate::plan2d::Redist2d;

/// A redistribution was aborted before moving any data because a rank it
/// needed is no longer alive. The source layout is untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedistAbort {
    /// Lowest dead rank found by the pre-flight scan.
    pub dead_rank: usize,
}

impl fmt::Display for RedistAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "redistribution aborted: rank {} is dead", self.dead_rank)
    }
}

impl std::error::Error for RedistAbort {}

/// Scan ranks `0..world` (clamped to the communicator) and abort if any has
/// terminated. `world` is the larger of the two layouts, i.e. every rank the
/// schedule could name as a source or destination.
fn abort_if_dead(comm: &Comm, world: usize) -> Result<(), RedistAbort> {
    for rank in 0..world.min(comm.size()) {
        if !comm.rank_alive(rank) {
            reshape_telemetry::incr("redist.aborts", 1);
            return Err(RedistAbort { dead_rank: rank });
        }
    }
    Ok(())
}

/// Fault-checked [`redistribute_2d`](crate::redistribute_2d): aborts cleanly
/// (source intact) when a rank in either grid is dead.
pub fn try_redistribute_2d<T: Pod + Default>(
    comm: &Comm,
    plan: &Redist2d,
    src: Option<&DistMatrix<T>>,
) -> Result<Option<DistMatrix<T>>, RedistAbort> {
    let sched = lower_2d(plan);
    abort_if_dead(comm, sched.world())?;
    run_2d(comm, &sched, Commit::Direct, src)
}

/// Fault-checked [`redistribute_1d`](crate::redistribute_1d).
pub fn try_redistribute_1d<T: Pod + Default>(
    comm: &Comm,
    plan: &Redist1d,
    src: Option<&DistVector<T>>,
) -> Result<Option<DistVector<T>>, RedistAbort> {
    let sched = lower_1d(plan);
    abort_if_dead(comm, sched.world())?;
    run_1d(comm, &sched, src)
}

/// Fault-checked [`redistribute_general_2d`](crate::redistribute_general_2d).
pub fn try_redistribute_general_2d<T: Pod + Default>(
    comm: &Comm,
    plan: &GeneralPlan2d,
    src: Option<&DistMatrix<T>>,
) -> Result<Option<DistMatrix<T>>, RedistAbort> {
    let sched = lower_general_2d(plan);
    abort_if_dead(comm, sched.world())?;
    run_2d(comm, &sched, Commit::Direct, src)
}

/// Fault-checked [`checkpoint_redistribute`]. The checkpoint path funnels
/// everything through rank 0, but every rank in either layout still
/// participates, so the same liveness scan applies.
#[allow(clippy::too_many_arguments)]
pub fn try_checkpoint_redistribute<T: Pod + Default>(
    comm: &Comm,
    src_desc: Descriptor,
    dst_desc: Descriptor,
    src: Option<&DistMatrix<T>>,
    params: &CheckpointParams,
    file: Option<&Path>,
) -> Result<Option<DistMatrix<T>>, RedistAbort> {
    let p = src_desc.nprow * src_desc.npcol;
    let q = dst_desc.nprow * dst_desc.npcol;
    if let Err(abort) = abort_if_dead(comm, p.max(q)) {
        // A stale checkpoint from an earlier resize must not outlive the
        // abort: a later attempt would otherwise find (or clobber) it.
        // Every surviving rank may try; removal is idempotent.
        if let Some(path) = file {
            let _ = std::fs::remove_file(path);
        }
        return Err(abort);
    }
    Ok(checkpoint_redistribute(
        comm, src_desc, dst_desc, src, params, file,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan2d::plan_2d;
    use reshape_mpisim::{NetModel, Universe};

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
            let before: Vec<f64> = (0..src.local_rows() * src.local_cols())
                .map(|k| src.get_local(k / src.local_cols(), k % src.local_cols()))
                .collect();
            let err = try_redistribute_2d(&comm, &plan, Some(&src))
                .expect_err("dead rank must abort the redistribution");
            assert_eq!(err.dead_rank, 3);
            let after: Vec<f64> = (0..src.local_rows() * src.local_cols())
                .map(|k| src.get_local(k / src.local_cols(), k % src.local_cols()))
                .collect();
            assert_eq!(before, after, "abort must leave the old layout intact");
            // Keep every survivor registered until all have finished their
            // pre-flight: a rank that returned early would itself look dead.
            const TAG_SYNC: u32 = 7_700_000;
            let mut buf: Vec<u64> = Vec::new();
            if me == 0 {
                comm.recv_into(1, TAG_SYNC, &mut buf);
                comm.recv_into(2, TAG_SYNC, &mut buf);
                comm.send(1, TAG_SYNC, &[1u64]);
                comm.send(2, TAG_SYNC, &[1u64]);
            } else {
                comm.send(0, TAG_SYNC, &[me as u64]);
                comm.recv_into(0, TAG_SYNC, &mut buf);
            }
        })
        .join_ok();
    }

    /// An aborted checkpoint redistribution must not leave (or preserve) a
    /// checkpoint file: a stale file would shadow the next resize's data.
    #[test]
    fn aborted_checkpoint_removes_stale_file() {
        let tmp =
            std::env::temp_dir().join(format!("reshape-ckpt-abort-{}.bin", std::process::id()));
        std::fs::write(&tmp, b"stale checkpoint from a previous resize").unwrap();
        let uni = Universe::new(4, 1, NetModel::ideal());
        let path = tmp.clone();
        uni.launch(4, None, "ckpt-abort", move |comm| {
            let s = Descriptor::square(8, 2, 2, 2);
            let d = Descriptor::square(8, 2, 1, 2);
            let me = comm.rank();
            if me == 3 {
                return; // dies before the pre-flight
            }
            while comm.rank_alive(3) {
                comm.advance(0.001);
            }
            let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i + j) as f64);
            let err = try_checkpoint_redistribute(
                &comm,
                s,
                d,
                Some(&src),
                &CheckpointParams::default(),
                Some(&path),
            )
            .expect_err("dead rank must abort");
            assert_eq!(err.dead_rank, 3);
            const TAG_SYNC: u32 = 7_700_000;
            let mut buf: Vec<u64> = Vec::new();
            if me == 0 {
                comm.recv_into(1, TAG_SYNC, &mut buf);
                comm.recv_into(2, TAG_SYNC, &mut buf);
                comm.send(1, TAG_SYNC, &[1u64]);
                comm.send(2, TAG_SYNC, &[1u64]);
            } else {
                comm.send(0, TAG_SYNC, &[me as u64]);
                comm.recv_into(0, TAG_SYNC, &mut buf);
            }
        })
        .join_ok();
        assert!(!tmp.exists(), "abort must clean up the checkpoint file");
    }

    /// With everyone alive the wrapper is a transparent pass-through.
    #[test]
    fn all_alive_passes_through() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "pass", |comm| {
            let s = Descriptor::square(8, 2, 2, 2);
            let d = Descriptor::square(8, 2, 1, 4);
            let plan = plan_2d(s, d);
            let me = comm.rank();
            let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * 8 + j) as u64);
            let out = try_redistribute_2d(&comm, &plan, Some(&src))
                .expect("no dead ranks")
                .expect("in destination grid");
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
}
