//! Collective operations over an intracommunicator.
//!
//! All collectives are implemented from point-to-point messages using the
//! classic binomial-tree algorithms, so their virtual-time cost follows the
//! `O(log p)` depth a real MPI implementation would exhibit.

use bytes::Bytes;

use crate::comm::{
    Comm, TAG_ALLGATHER, TAG_ALLTOALL, TAG_BARRIER, TAG_BCAST, TAG_GATHER, TAG_REDUCE, TAG_SCATTER,
};
use crate::datum::{from_bytes, to_bytes, Pod, Reducible};

/// Elementwise reduction operator for [`Comm::reduce`] / [`Comm::allreduce`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    fn combine<T: Reducible>(self, acc: &mut [T], other: &[T]) {
        assert_eq!(
            acc.len(),
            other.len(),
            "reduction buffers disagree on length"
        );
        for (a, &b) in acc.iter_mut().zip(other) {
            *a = match self {
                ReduceOp::Sum => a.add(b),
                ReduceOp::Max => {
                    if b > *a {
                        b
                    } else {
                        *a
                    }
                }
                ReduceOp::Min => {
                    if b < *a {
                        b
                    } else {
                        *a
                    }
                }
            };
        }
    }
}

impl Comm {
    /// Binomial-tree broadcast of raw bytes rooted at `root`.
    pub(crate) fn bcast_raw(&self, root: usize, tag: u32, mut payload: Bytes) -> Bytes {
        let p = self.size();
        if p == 1 {
            return payload;
        }
        let vrank = (self.rank + p - root) % p;
        // Receive phase: find the bit where we hear from our parent.
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let src = (vrank - mask + root) % p;
                let data = self.recv_raw(src, tag);
                payload = data;
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children at all lower bits.
        mask >>= 1;
        while mask > 0 {
            if vrank & mask == 0 && (vrank | mask) < p {
                let dst = ((vrank | mask) + root) % p;
                self.send_raw(dst, tag, payload.clone());
            }
            mask >>= 1;
        }
        payload
    }

    /// Broadcast `data` from `root` to all ranks; every rank returns the
    /// root's buffer.
    pub fn bcast<T: Pod>(&self, root: usize, data: &[T]) -> Vec<T> {
        reshape_telemetry::incr("mpisim.collectives.bcast", 1);
        let payload = if self.rank == root {
            to_bytes(data)
        } else {
            Bytes::new()
        };
        from_bytes(&self.bcast_raw(root, TAG_BCAST, payload))
    }

    /// Synchronize all ranks (and their virtual clocks: every rank leaves the
    /// barrier at a time ≥ every rank's entry time).
    pub fn barrier(&self) {
        reshape_telemetry::incr("mpisim.collectives.barrier", 1);
        // Reduce an empty message to rank 0, then broadcast back down.
        let p = self.size();
        if p == 1 {
            return;
        }
        let vrank = self.rank;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                self.send_raw(vrank - mask, TAG_BARRIER, Bytes::new());
                break;
            }
            if (vrank | mask) < p {
                self.recv_raw(vrank | mask, TAG_BARRIER);
            }
            mask <<= 1;
        }
        self.bcast_raw(0, TAG_BARRIER, Bytes::new());
    }

    /// Elementwise reduction to `root`. Returns `Some(result)` on the root,
    /// `None` elsewhere.
    pub fn reduce<T: Reducible>(&self, root: usize, op: ReduceOp, data: &[T]) -> Option<Vec<T>> {
        reshape_telemetry::incr("mpisim.collectives.reduce", 1);
        let p = self.size();
        let mut acc = data.to_vec();
        let vrank = (self.rank + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let dst = (vrank - mask + root) % p;
                self.send_raw(dst, TAG_REDUCE, to_bytes(&acc));
                break;
            }
            if (vrank | mask) < p {
                let src = ((vrank | mask) + root) % p;
                let payload = self.recv_raw(src, TAG_REDUCE);
                let other: Vec<T> = from_bytes(&payload);
                op.combine(&mut acc, &other);
            }
            mask <<= 1;
        }
        if self.rank == root {
            Some(acc)
        } else {
            None
        }
    }

    /// Reduction whose result is returned on every rank.
    pub fn allreduce<T: Reducible>(&self, op: ReduceOp, data: &[T]) -> Vec<T> {
        reshape_telemetry::incr("mpisim.collectives.allreduce", 1);
        let reduced = self.reduce(0, op, data);
        let payload = match &reduced {
            Some(v) => to_bytes(v),
            None => Bytes::new(),
        };
        from_bytes(&self.bcast_raw(0, TAG_BCAST, payload))
    }

    /// Gather variable-length contributions at `root`, in rank order.
    /// Returns `Some(per-rank vectors)` on the root, `None` elsewhere.
    pub fn gather<T: Pod>(&self, root: usize, data: &[T]) -> Option<Vec<Vec<T>>> {
        reshape_telemetry::incr("mpisim.collectives.gather", 1);
        if self.rank == root {
            let mut out = Vec::with_capacity(self.size());
            for r in 0..self.size() {
                if r == root {
                    out.push(data.to_vec());
                } else {
                    let payload = self.recv_raw(r, TAG_GATHER);
                    out.push(from_bytes(&payload));
                }
            }
            Some(out)
        } else {
            self.send_raw(root, TAG_GATHER, to_bytes(data));
            None
        }
    }

    /// Gather variable-length contributions on every rank.
    pub fn allgather<T: Pod>(&self, data: &[T]) -> Vec<Vec<T>> {
        reshape_telemetry::incr("mpisim.collectives.allgather", 1);
        let gathered = self.gather(0, data);
        // Flatten with a length header so one broadcast carries everything.
        let encoded: Vec<u8> = match &gathered {
            Some(parts) => {
                let mut buf: Vec<u64> = Vec::with_capacity(1 + parts.len());
                buf.push(parts.len() as u64);
                for p in parts {
                    buf.push((p.len() * std::mem::size_of::<T>()) as u64);
                }
                let mut bytes: Vec<u8> = to_bytes(&buf).to_vec();
                for p in parts {
                    bytes.extend_from_slice(&to_bytes(p));
                }
                bytes
            }
            None => Vec::new(),
        };
        let all = self.bcast_raw(0, TAG_ALLGATHER, Bytes::from(encoded));
        // Decode.
        let nparts = u64::from_le_bytes(all[0..8].try_into().expect("header")) as usize;
        let mut lens = Vec::with_capacity(nparts);
        for i in 0..nparts {
            let off = 8 + i * 8;
            lens.push(u64::from_le_bytes(all[off..off + 8].try_into().expect("len")) as usize);
        }
        let mut out = Vec::with_capacity(nparts);
        let mut off = 8 + nparts * 8;
        for len in lens {
            out.push(from_bytes(&all.slice(off..off + len)));
            off += len;
        }
        out
    }

    /// Scatter per-rank slices from `root`; rank i receives `parts[i]`.
    /// Non-roots pass `None`.
    pub fn scatter<T: Pod>(&self, root: usize, parts: Option<&[Vec<T>]>) -> Vec<T> {
        reshape_telemetry::incr("mpisim.collectives.scatter", 1);
        if self.rank == root {
            let parts = parts.expect("root must supply scatter data");
            assert_eq!(parts.len(), self.size(), "need one part per rank");
            for (r, part) in parts.iter().enumerate() {
                if r != root {
                    self.send_raw(r, TAG_SCATTER, to_bytes(part));
                }
            }
            parts[root].clone()
        } else {
            let payload = self.recv_raw(root, TAG_SCATTER);
            from_bytes(&payload)
        }
    }

    /// Personalized all-to-all exchange: rank i sends `parts[j]` to rank j
    /// and returns the vector of contributions received, indexed by source.
    pub fn alltoallv<T: Pod>(&self, parts: &[Vec<T>]) -> Vec<Vec<T>> {
        reshape_telemetry::incr("mpisim.collectives.alltoallv", 1);
        assert_eq!(parts.len(), self.size(), "need one part per rank");
        // All sends are buffered, so issue them first, then receive in rank
        // order — deadlock-free.
        for (r, part) in parts.iter().enumerate() {
            if r != self.rank {
                self.send_raw(r, TAG_ALLTOALL, to_bytes(part));
            }
        }
        let mut out = Vec::with_capacity(self.size());
        for (r, part) in parts.iter().enumerate() {
            if r == self.rank {
                out.push(part.clone());
            } else {
                let payload = self.recv_raw(r, TAG_ALLTOALL);
                out.push(from_bytes(&payload));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetModel, Universe};

    fn run(p: usize, f: impl Fn(Comm) + Send + Sync + 'static) {
        Universe::new(p, 1, NetModel::ideal())
            .launch(p, None, "coll", f)
            .join_ok();
    }

    #[test]
    fn bcast_from_every_root() {
        for root in 0..5 {
            run(5, move |comm| {
                let data = if comm.rank() == root {
                    vec![root as f64; 3]
                } else {
                    vec![]
                };
                let got = comm.bcast(root, &data);
                assert_eq!(got, vec![root as f64; 3]);
            });
        }
    }

    #[test]
    fn bcast_single_rank() {
        run(1, |comm| {
            let got = comm.bcast(0, &[7u32]);
            assert_eq!(got, vec![7]);
        });
    }

    #[test]
    fn bcast_non_power_of_two() {
        run(7, |comm| {
            let data = if comm.rank() == 3 {
                vec![99u64]
            } else {
                vec![]
            };
            assert_eq!(comm.bcast(3, &data), vec![99]);
        });
    }

    #[test]
    fn reduce_sum() {
        run(6, |comm| {
            let mine = vec![comm.rank() as f64, 1.0];
            let got = comm.reduce(2, ReduceOp::Sum, &mine);
            if comm.rank() == 2 {
                assert_eq!(got.unwrap(), vec![15.0, 6.0]);
            } else {
                assert!(got.is_none());
            }
        });
    }

    #[test]
    fn allreduce_max_min() {
        run(5, |comm| {
            let mine = vec![comm.rank() as i64];
            assert_eq!(comm.allreduce(ReduceOp::Max, &mine), vec![4]);
            assert_eq!(comm.allreduce(ReduceOp::Min, &mine), vec![0]);
        });
    }

    #[test]
    fn gather_preserves_rank_order() {
        run(4, |comm| {
            let mine = vec![comm.rank() as u64; comm.rank() + 1];
            let got = comm.gather(0, &mine);
            if comm.rank() == 0 {
                let parts = got.unwrap();
                for (r, part) in parts.iter().enumerate() {
                    assert_eq!(part, &vec![r as u64; r + 1]);
                }
            }
        });
    }

    #[test]
    fn allgather_varying_lengths() {
        run(4, |comm| {
            let mine = vec![comm.rank() as f64; comm.rank() + 1];
            let got = comm.allgather(&mine);
            assert_eq!(got.len(), 4);
            for (r, part) in got.iter().enumerate() {
                assert_eq!(part, &vec![r as f64; r + 1]);
            }
        });
    }

    #[test]
    fn allgather_with_empty_contribution() {
        run(3, |comm| {
            let mine: Vec<u32> = if comm.rank() == 1 {
                vec![]
            } else {
                vec![comm.rank() as u32]
            };
            let got = comm.allgather(&mine);
            assert_eq!(got[0], vec![0]);
            assert!(got[1].is_empty());
            assert_eq!(got[2], vec![2]);
        });
    }

    #[test]
    fn scatter_distributes_parts() {
        run(4, |comm| {
            let parts: Option<Vec<Vec<u64>>> = if comm.rank() == 1 {
                Some((0..4).map(|r| vec![r as u64 * 10]).collect())
            } else {
                None
            };
            let got = comm.scatter(1, parts.as_deref());
            assert_eq!(got, vec![comm.rank() as u64 * 10]);
        });
    }

    #[test]
    fn alltoallv_transpose() {
        run(4, |comm| {
            let parts: Vec<Vec<u64>> = (0..4)
                .map(|dst| vec![(comm.rank() * 10 + dst) as u64])
                .collect();
            let got = comm.alltoallv(&parts);
            for (src, part) in got.iter().enumerate() {
                assert_eq!(part, &vec![(src * 10 + comm.rank()) as u64]);
            }
        });
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        Universe::new(3, 1, NetModel::ideal())
            .launch(3, None, "barrier", |comm| {
                if comm.rank() == 1 {
                    comm.advance(5.0);
                }
                comm.barrier();
                assert!(comm.vtime() >= 5.0, "vtime {} < 5.0", comm.vtime());
            })
            .join_ok();
    }

    #[test]
    fn consecutive_collectives_do_not_interfere() {
        run(4, |comm| {
            for i in 0..10u64 {
                let data = if comm.rank() == 0 { vec![i] } else { vec![] };
                assert_eq!(comm.bcast(0, &data), vec![i]);
                let s = comm.allreduce(ReduceOp::Sum, &[i]);
                assert_eq!(s, vec![4 * i]);
            }
        });
    }
}
