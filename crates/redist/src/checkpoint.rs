//! File-based checkpoint/restart redistribution — the baseline ReSHAPE is
//! compared against in Figure 3(b).
//!
//! Prior systems (DRMS, SRS) resize by checkpointing the global data through
//! a single node to disk and restarting on the new processor set. This
//! module reproduces that data path: every source panel funnels to rank 0,
//! is written to (and read back from) a file, and is scattered to the new
//! layout. The virtual-time cost model charges the serial funnel plus disk
//! bandwidth, which is what makes checkpointing 4.5–14.5× slower than
//! message-based redistribution in the paper.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_mpisim::{from_bytes, to_bytes, Comm, NetModel, Pod};

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
/// low `P`, new grid in the low `Q`). If `file` is given the global matrix
/// genuinely round-trips through that file; otherwise the disk is only
/// charged in virtual time. Returns the new panel on destination ranks.
pub fn checkpoint_redistribute<T: Pod + Default>(
    comm: &Comm,
    src_desc: Descriptor,
    dst_desc: Descriptor,
    src: Option<&DistMatrix<T>>,
    params: &CheckpointParams,
    file: Option<&Path>,
) -> Option<DistMatrix<T>> {
    assert_eq!(
        (src_desc.m, src_desc.n),
        (dst_desc.m, dst_desc.n),
        "shape mismatch"
    );
    let p = src_desc.nprow * src_desc.npcol;
    let q = dst_desc.nprow * dst_desc.npcol;
    assert!(comm.size() >= p.max(q));
    let me = comm.rank();
    let volume_bytes = src_desc.m * src_desc.n * std::mem::size_of::<T>();

    // Phase 1: funnel all panels to rank 0.
    let full: Option<Vec<T>> = if me == 0 {
        let mut full = vec![T::default(); src_desc.m * src_desc.n];
        let place = |full: &mut Vec<T>, panel: &[T], pr: usize, pc: usize| {
            let lr = src_desc.local_rows(pr);
            let lc = src_desc.local_cols(pc);
            assert_eq!(panel.len(), lr * lc);
            for li in 0..lr {
                let gi = src_desc.local_to_global_row(li, pr);
                for lj in 0..lc {
                    let gj = src_desc.local_to_global_col(lj, pc);
                    full[gi * src_desc.n + gj] = panel[li * lc + lj];
                }
            }
        };
        let mine = src.expect("rank 0 is in the source grid");
        place(&mut full, mine.local_data(), 0, 0);
        for r in 1..p {
            let panel: Vec<T> = comm.recv(r, TAG_CKPT_GATHER);
            place(&mut full, &panel, r / src_desc.npcol, r % src_desc.npcol);
        }
        // Phase 2: the checkpoint file itself.
        if let Some(path) = file {
            let bytes = to_bytes(&full);
            let mut f = std::fs::File::create(path).expect("create checkpoint file");
            f.write_all(&bytes).expect("write checkpoint");
            f.sync_all().ok();
            drop(f);
            let mut f = std::fs::File::open(path).expect("reopen checkpoint file");
            f.seek(SeekFrom::Start(0)).expect("seek");
            let mut back = Vec::with_capacity(bytes.len());
            f.read_to_end(&mut back).expect("read checkpoint");
            assert_eq!(back.len(), bytes.len(), "checkpoint file truncated");
            full = from_bytes(&bytes::Bytes::from(back));
            // The checkpoint exists only to bridge the resize; once read
            // back it is dead weight (and a stale one would shadow the next
            // resize's data), so remove it eagerly.
            let _ = std::fs::remove_file(path);
        }
        // Charge disk time regardless of whether a real file was used.
        comm.advance(
            volume_bytes as f64 / params.disk_write_bw + volume_bytes as f64 / params.disk_read_bw,
        );
        Some(full)
    } else {
        if me < p {
            let mine = src.expect("source rank must supply its panel");
            comm.send(0, TAG_CKPT_GATHER, mine.local_data());
        }
        None
    };

    // Phase 3: scatter the new layout from rank 0.
    if me == 0 {
        let full = full.expect("root holds the matrix");
        for r in (0..q).rev() {
            let pr = r / dst_desc.npcol;
            let pc = r % dst_desc.npcol;
            let lr = dst_desc.local_rows(pr);
            let lc = dst_desc.local_cols(pc);
            let mut panel = Vec::with_capacity(lr * lc);
            for li in 0..lr {
                let gi = dst_desc.local_to_global_row(li, pr);
                for lj in 0..lc {
                    let gj = dst_desc.local_to_global_col(lj, pc);
                    panel.push(full[gi * dst_desc.n + gj]);
                }
            }
            if r == 0 {
                let mut out = DistMatrix::new(dst_desc, 0, 0);
                out.set_local_data(panel);
                return Some(out);
            }
            comm.send(r, TAG_CKPT_SCATTER, &panel);
        }
        unreachable!("loop returns at r == 0");
    } else if me < q {
        let panel: Vec<T> = comm.recv(0, TAG_CKPT_SCATTER);
        let mut out = DistMatrix::new(dst_desc, me / dst_desc.npcol, me % dst_desc.npcol);
        out.set_local_data(panel);
        Some(out)
    } else {
        None
    }
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

    fn round_trip_via_checkpoint(file: bool) {
        let uni = Universe::new(4, 1, NetModel::ideal());
        let tmp = file
            .then(|| std::env::temp_dir().join(format!("reshape-ckpt-{}.bin", std::process::id())));
        uni.launch(4, None, "ckpt", move |comm| {
            let s = Descriptor::square(12, 2, 2, 2);
            let d = Descriptor::square(12, 2, 1, 4);
            let me = comm.rank();
            let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * 1000 + j) as f64);
            let out = checkpoint_redistribute(
                &comm,
                s,
                d,
                Some(&src),
                &CheckpointParams::default(),
                tmp.as_deref(),
            )
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
    fn checkpoint_preserves_data_in_memory() {
        round_trip_via_checkpoint(false);
    }

    #[test]
    fn checkpoint_preserves_data_through_real_file() {
        round_trip_via_checkpoint(true);
    }

    #[test]
    fn checkpoint_file_removed_after_success() {
        let tmp =
            std::env::temp_dir().join(format!("reshape-ckpt-clean-{}.bin", std::process::id()));
        let uni = Universe::new(2, 1, NetModel::ideal());
        let path = tmp.clone();
        uni.launch(2, None, "ckpt-clean", move |comm| {
            let s = Descriptor::square(8, 2, 1, 2);
            let d = Descriptor::square(8, 2, 2, 1);
            let me = comm.rank();
            let src = DistMatrix::from_fn(s, 0, me, |i, j| (i * 9 + j) as f64);
            checkpoint_redistribute(
                &comm,
                s,
                d,
                Some(&src),
                &CheckpointParams::default(),
                Some(&path),
            )
            .expect("both ranks are in the destination grid");
        })
        .join_ok();
        assert!(
            !tmp.exists(),
            "checkpoint file must be cleaned up on success"
        );
    }

    #[test]
    fn shrink_through_checkpoint() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "ckpt-shrink", |comm| {
            let s = Descriptor::square(8, 2, 2, 2);
            let d = Descriptor::square(8, 2, 1, 2);
            let me = comm.rank();
            let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i + j) as f64);
            let out = checkpoint_redistribute(
                &comm,
                s,
                d,
                Some(&src),
                &CheckpointParams::default(),
                None,
            );
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
            checkpoint_redistribute(&comm, s, d, Some(&src), &CheckpointParams::default(), None);
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
