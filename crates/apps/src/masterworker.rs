//! Synthetic master–worker application (paper Table 1: "Each iteration
//! requires 20000 fixed-time work units").
//!
//! Rank 0 is the master; workers request chunks of work units, "compute"
//! them (advancing the virtual clock by `unit_time` per unit), and come
//! back for more until the pool is drained. The master serves the workers
//! in turn, in rank order: every round trip is equally long (fixed-time
//! units, one chunk size), so turns keep the workers evenly loaded, and
//! unlike serving whichever request the OS delivers first, the chunk
//! schedule — and the virtual makespan — is the same on every run, however
//! the rank threads are scheduled. There is no global data to
//! redistribute — which is exactly why checkpointing and ReSHAPE
//! redistribution tie for this workload in the paper's Figure 3(b).

use reshape_mpisim::Comm;

const TAG_REQUEST: u32 = 101;
const TAG_GRANT: u32 = 102;

/// Run one iteration of the master–worker workload: distribute
/// `work_units` units, each costing `unit_time` virtual seconds, in chunks
/// of `chunk` units. Collective over `comm`. Returns the number of units
/// this rank processed.
pub fn master_worker_round(comm: &Comm, work_units: usize, unit_time: f64, chunk: usize) -> usize {
    assert!(chunk > 0, "chunk must be positive");
    if comm.size() == 1 {
        comm.advance(work_units as f64 * unit_time);
        return work_units;
    }
    if comm.rank() == 0 {
        // Master: answer the active workers' requests in turn, then send
        // each a zero-size grant to retire it.
        let mut remaining = work_units;
        let mut active: Vec<usize> = (1..comm.size()).collect();
        while !active.is_empty() {
            active.retain(|&worker| {
                comm.recv::<u64>(worker, TAG_REQUEST);
                let grant = remaining.min(chunk);
                remaining -= grant;
                comm.send(worker, TAG_GRANT, &[grant as u64]);
                grant > 0
            });
        }
        0
    } else {
        let mut done = 0usize;
        loop {
            comm.send(0, TAG_REQUEST, &[comm.rank() as u64]);
            let grant = comm.recv::<u64>(0, TAG_GRANT)[0] as usize;
            if grant == 0 {
                break;
            }
            comm.advance(grant as f64 * unit_time);
            done += grant;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshape_mpisim::{NetModel, ReduceOp, Universe};

    #[test]
    fn all_work_units_are_processed_exactly_once() {
        let p = 5;
        Universe::new(p, 1, NetModel::ideal())
            .launch(p, None, "mw", move |comm| {
                let mine = master_worker_round(&comm, 1000, 0.001, 32);
                let total = comm.allreduce(ReduceOp::Sum, &[mine as u64]);
                assert_eq!(total, vec![1000]);
            })
            .join_ok();
    }

    #[test]
    fn single_process_does_everything() {
        Universe::new(1, 1, NetModel::ideal())
            .launch(1, None, "mw1", |comm| {
                let done = master_worker_round(&comm, 500, 0.01, 16);
                assert_eq!(done, 500);
                assert!((comm.vtime() - 5.0).abs() < 1e-9);
            })
            .join_ok();
    }

    #[test]
    fn more_workers_finish_sooner_in_virtual_time() {
        let t_with = |p: usize| {
            let uni = Universe::new(p, 1, NetModel::gigabit_ethernet());
            let t = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
            let t2 = std::sync::Arc::clone(&t);
            uni.launch(p, None, "mw-scale", move |comm| {
                master_worker_round(&comm, 2000, 0.001, 50);
                let end = comm.allreduce(ReduceOp::Max, &[comm.vtime()])[0];
                if comm.rank() == 0 {
                    t2.store(end.to_bits(), std::sync::atomic::Ordering::Relaxed);
                }
            })
            .join_ok();
            f64::from_bits(t.load(std::sync::atomic::Ordering::Relaxed))
        };
        // The master serves in turn, so thread scheduling cannot move the
        // chunk schedule: a repeat run lands on the same bits.
        let slow = t_with(3); // 2 workers
        let fast = t_with(9); // 8 workers
        assert_eq!(fast.to_bits(), t_with(9).to_bits(), "schedule not pinned");
        // 2 workers split the 2 s of work at best evenly.
        let floor = 2000.0 * 0.001 / 2.0;
        assert!(slow >= floor, "2 workers ({slow}s) beat the even split");
        assert!(
            fast < 0.5 * slow,
            "8 workers ({fast}s) should be well under half of 2 workers ({slow}s)"
        );
    }

    #[test]
    fn zero_work_retires_workers_immediately() {
        Universe::new(3, 1, NetModel::ideal())
            .launch(3, None, "mw0", |comm| {
                let done = master_worker_round(&comm, 0, 1.0, 10);
                assert_eq!(done, 0);
            })
            .join_ok();
    }
}
