//! File-based checkpoint/restart redistribution — the baseline ReSHAPE is
//! compared against in Figure 3(b).
//!
//! Prior systems (DRMS, SRS) resize by checkpointing the global data through
//! a single node to disk and restarting on the new processor set. This
//! module reproduces that data path: every source panel funnels to rank 0,
//! is written to (and read back from) disk, and is scattered to the new
//! layout. The virtual-time cost model charges the serial funnel plus disk
//! bandwidth, which is what makes checkpointing 4.5–14.5× slower than
//! message-based redistribution in the paper.

use std::borrow::Cow;

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_mpisim::{Comm, NetModel, Pod};

use crate::exec::{procs, source_panel};
use crate::fault::RedistError;

const TAG_CKPT_GATHER: u32 = 8_500_000;
const TAG_CKPT_SCATTER: u32 = 8_500_001;

/// Disk characteristics of the checkpoint node.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointParams {
    /// Sequential write bandwidth, bytes/second.
    pub disk_write_bw: f64,
    /// Sequential read bandwidth, bytes/second.
    pub disk_read_bw: f64,
}

impl Default for CheckpointParams {
    fn default() -> Self {
        // A single local disk of the paper's era (~60 MB/s write, ~80 read).
        CheckpointParams {
            disk_write_bw: 60e6,
            disk_read_bw: 80e6,
        }
    }
}

/// Redistribute via checkpoint/restart through rank 0.
///
/// Collective over `comm` (which covers `max(P, Q)` ranks, old grid in the
/// low `P`, new grid in the low `Q`). The disk write and read-back of the
/// global matrix are charged in virtual time on rank 0. Returns the new
/// panel on destination ranks.
///
/// Caller errors are checked before this rank sends anything, as in
/// [`redistribute`](crate::redistribute): two layouts of different shapes or
/// a communicator too small fail on every rank, a missing or mismatched
/// source panel on that rank only. [`preflight`](crate::preflight) with
/// `max(P, Q)` first turns a dead rank into an error too.
pub fn checkpoint_redistribute<T: Pod + Default>(
    comm: &Comm,
    src_desc: Descriptor,
    dst_desc: Descriptor,
    src: Option<&DistMatrix<T>>,
    params: &CheckpointParams,
) -> Result<Option<DistMatrix<T>>, RedistError> {
    let (s, d) = (&src_desc, &dst_desc);
    if (s.m, s.n) != (d.m, d.n) {
        return Err(RedistError::ShapeMismatch {
            src: (s.m, s.n),
            dst: (d.m, d.n),
        });
    }
    let local = source_panel(comm, s, d, src)?;
    let (p, q) = (procs(s), procs(d));
    let me = comm.rank();
    if me != 0 {
        if let Some(panel) = local {
            comm.send(0, TAG_CKPT_GATHER, panel);
        }
        return Ok((me < q).then(|| {
            let mut out = DistMatrix::new(*d, me / d.npcol, me % d.npcol);
            out.set_local_data(comm.recv(0, TAG_CKPT_SCATTER));
            out
        }));
    }

    // Phase 1: funnel all panels to rank 0, which is always a source rank.
    let mut full = vec![T::default(); s.m * s.n];
    for r in 0..p {
        let panel = match local {
            Some(mine) if r == 0 => Cow::Borrowed(mine),
            _ => Cow::Owned(comm.recv(r, TAG_CKPT_GATHER)),
        };
        let (pr, pc) = (r / s.npcol, r % s.npcol);
        let lc = s.local_cols(pc);
        debug_assert_eq!(panel.len(), s.local_rows(pr) * lc);
        for (k, &v) in panel.iter().enumerate() {
            let gi = s.local_to_global_row(k / lc, pr);
            full[gi * s.n + s.local_to_global_col(k % lc, pc)] = v;
        }
    }
    // Phase 2: the checkpoint file, written and read back, in virtual time.
    let volume_bytes = (s.m * s.n * std::mem::size_of::<T>()) as f64;
    comm.advance(volume_bytes / params.disk_write_bw + volume_bytes / params.disk_read_bw);

    // Phase 3: scatter the new layout from rank 0, its own panel last.
    let panel_of = |r: usize| {
        let (pr, pc) = (r / d.npcol, r % d.npcol);
        let lc = d.local_cols(pc);
        let mut panel = Vec::with_capacity(d.local_rows(pr) * lc);
        for li in 0..d.local_rows(pr) {
            let gi = d.local_to_global_row(li, pr);
            for lj in 0..lc {
                panel.push(full[gi * d.n + d.local_to_global_col(lj, pc)]);
            }
        }
        panel
    };
    for r in (1..q).rev() {
        comm.send(r, TAG_CKPT_SCATTER, &panel_of(r));
    }
    let mut out = DistMatrix::new(*d, 0, 0);
    out.set_local_data(panel_of(0));
    Ok(Some(out))
}

/// Analytic cost of checkpoint-based redistribution for an `m × n` matrix
/// of `elem_size`-byte elements moving from `p` to `q` processes.
///
/// The funnel through rank 0 serializes (P-1 receives + Q-1 sends at the
/// root NIC) and the disk adds a write + read of the full volume.
pub fn checkpoint_cost(
    m: usize,
    n: usize,
    elem_size: usize,
    p: usize,
    q: usize,
    net: &NetModel,
    params: &CheckpointParams,
) -> f64 {
    let volume = (m * n * elem_size) as f64;
    // Fractions of the matrix not already resident on rank 0 (approximate:
    // 1/p of the data is local to the root before, 1/q after).
    let inbound = volume * (1.0 - 1.0 / p as f64);
    let outbound = volume * (1.0 - 1.0 / q as f64);
    let wire = if net.bandwidth.is_finite() {
        (inbound + outbound) / net.bandwidth
    } else {
        0.0
    };
    let msgs = (p.saturating_sub(1) + q.saturating_sub(1)) as f64;
    wire + msgs * (net.latency + 2.0 * net.overhead)
        + volume / params.disk_write_bw
        + volume / params.disk_read_bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshape_mpisim::{NetModel, Universe};

    #[test]
    fn checkpoint_preserves_data_in_memory() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "ckpt", move |comm| {
            let s = Descriptor::square(12, 2, 2, 2);
            let d = Descriptor::square(12, 2, 1, 4);
            let me = comm.rank();
            let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * 1000 + j) as f64);
            let out =
                checkpoint_redistribute(&comm, s, d, Some(&src), &CheckpointParams::default())
                    .unwrap()
                    .expect("all 4 ranks are in the destination grid");
            for li in 0..out.local_rows() {
                let gi = d.local_to_global_row(li, out.myrow);
                for lj in 0..out.local_cols() {
                    let gj = d.local_to_global_col(lj, out.mycol);
                    assert_eq!(out.get_local(li, lj), (gi * 1000 + gj) as f64);
                }
            }
        })
        .join_ok();
    }

    #[test]
    fn shrink_through_checkpoint() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "ckpt-shrink", |comm| {
            let s = Descriptor::square(8, 2, 2, 2);
            let d = Descriptor::square(8, 2, 1, 2);
            let me = comm.rank();
            let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i + j) as f64);
            let out =
                checkpoint_redistribute(&comm, s, d, Some(&src), &CheckpointParams::default())
                    .unwrap();
            if me < 2 {
                let out = out.unwrap();
                for li in 0..out.local_rows() {
                    let gi = d.local_to_global_row(li, out.myrow);
                    for lj in 0..out.local_cols() {
                        let gj = d.local_to_global_col(lj, out.mycol);
                        assert_eq!(out.get_local(li, lj), (gi + gj) as f64);
                    }
                }
            } else {
                assert!(out.is_none(), "departing ranks get no panel");
            }
        })
        .join_ok();
    }

    #[test]
    fn checkpoint_charges_virtual_disk_time() {
        let uni = Universe::new(2, 1, NetModel::ideal());
        uni.launch(2, None, "ckpt-time", |comm| {
            let s = Descriptor::square(64, 8, 1, 2);
            let d = Descriptor::square(64, 8, 2, 1);
            let me = comm.rank();
            let src = DistMatrix::from_fn(s, 0, me, |i, j| (i * j) as f64);
            let t0 = comm.vtime();
            checkpoint_redistribute(&comm, s, d, Some(&src), &CheckpointParams::default()).unwrap();
            if me == 0 {
                let vol = (64 * 64 * 8) as f64;
                let expect = vol / 60e6 + vol / 80e6;
                assert!(comm.vtime() - t0 >= expect * 0.99);
            }
        })
        .join_ok();
    }

    #[test]
    fn checkpoint_cost_exceeds_schedule_cost() {
        // The whole point of the paper's Figure 3(b).
        let net = NetModel::gigabit_ethernet();
        let params = CheckpointParams::default();
        let ck = checkpoint_cost(8000, 8000, 8, 4, 8, &net, &params);
        let plan = crate::plan_2d(
            Descriptor::square(8000, 100, 2, 2),
            Descriptor::square(8000, 100, 2, 4),
        );
        let rd = crate::evaluate_2d(&plan, 8, &net).seconds;
        assert!(
            ck > 3.0 * rd,
            "checkpointing ({ck:.2}s) should dwarf schedule redistribution ({rd:.2}s)"
        );
    }
}
