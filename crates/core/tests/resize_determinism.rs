//! A resized job's virtual duration is a function of the job alone.
//!
//! Runs the `resize-cycle` benchmark's app shape (1x2 -> 2x2 -> 1x2, one
//! 256 x 256 matrix in 16 x 16 blocks, six iterations, gigabit Ethernet)
//! as 3 jobs on each of 10 fresh runtimes, while one spinning thread per
//! CPU competes with the rank threads, so that wall-clock scheduling delays
//! are real. Every job's `finished_at - started_at` must be bit-equal:
//! neither wall-clock timing nor what other runtimes in the process did may
//! leak into virtual time.
//!
//! Its own binary: the spinning threads would slow every other test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_core::driver::AppDef;
use reshape_core::runtime::ReshapeRuntime;
use reshape_core::{JobSpec, JobState, ProcessorConfig, QueuePolicy, TopologyPref};
use reshape_mpisim::{NetModel, Universe};

const N: usize = 256;
const NB: usize = 16;
const ITERATIONS: usize = 6;
const RUNTIMES: usize = 10;
const JOBS_PER_RUNTIME: usize = 3;

/// An iteration on 4 processors is modelled 20 % slower than on 2, so the
/// policy expands after the first iteration, sees no gain, and shrinks back.
fn app() -> AppDef {
    AppDef::new(
        |grid| {
            let desc = Descriptor::square(N, NB, grid.nprow(), grid.npcol());
            vec![DistMatrix::from_fn(
                desc,
                grid.myrow(),
                grid.mycol(),
                |i, j| (i * N + j) as f64,
            )]
        },
        |grid, _mats, _iter| {
            let procs = grid.nprow() * grid.npcol();
            grid.comm().advance(if procs == 2 { 50.0 } else { 60.0 });
        },
    )
}

fn durations() -> Vec<f64> {
    let mut out = Vec::new();
    for _ in 0..RUNTIMES {
        let universe = Universe::new(4, 1, NetModel::gigabit_ethernet());
        let rt = ReshapeRuntime::new(universe, QueuePolicy::Fcfs);
        for index in 0..JOBS_PER_RUNTIME {
            let spec = JobSpec::new(
                format!("resize-{index}"),
                TopologyPref::Grid { problem_size: N },
                ProcessorConfig::new(1, 2),
                ITERATIONS,
            );
            let id = rt.submit(spec, app());
            let state = rt.wait_for(id, Duration::from_secs(120)).unwrap();
            let JobState::Finished { at } = state else {
                panic!("job {index} ended {state:?}");
            };
            let core = rt.core().lock();
            let rec = core.job(id).unwrap();
            let visited: Vec<_> = core.profiler().profile(id).unwrap().visited().collect();
            assert!(
                visited.contains(&ProcessorConfig::new(2, 2)),
                "job {index} never expanded: visited {visited:?}"
            );
            out.push(at - rec.started_at.unwrap());
        }
    }
    out
}

#[test]
fn resized_job_duration_is_bit_deterministic() {
    let stop = AtomicBool::new(false);
    let spinners = std::thread::available_parallelism().map_or(2, |n| n.get());
    let all = std::thread::scope(|s| {
        for _ in 0..spinners {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        // Stop the spinners even if a job fails, or the scope never ends.
        let all = std::panic::catch_unwind(durations);
        stop.store(true, Ordering::Relaxed);
        all
    })
    .unwrap_or_else(|e| std::panic::resume_unwind(e));
    let mut distinct: Vec<f64> = Vec::new();
    for &d in &all {
        if !distinct.iter().any(|x| x.to_bits() == d.to_bits()) {
            distinct.push(d);
        }
    }
    assert_eq!(
        distinct.len(),
        1,
        "{} jobs read {} distinct durations: {distinct:?}",
        all.len(),
        distinct.len()
    );
}
