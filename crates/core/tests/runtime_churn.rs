//! A runtime under churn leaves no job half-ended and no slot behind.
//!
//! Runs 24 fresh runtimes, each a 12-node cluster under backfill with
//! eight toy 1x2 grid jobs of 6 to 8 iterations. One job is cancelled right
//! after the submits, and one node crashes at a virtual time that differs
//! per runtime, so cancels, crashes, completions and queue starts race on
//! the wall clock while one spinning thread per CPU competes with the rank
//! threads. Once the runtime is quiescent:
//!
//! * every job is terminal;
//! * every job has exactly one terminal event and at most one `Started`;
//! * every slot is idle at once, with no poll: a job's slots return in the
//!   transition that ends it.
//!
//! The cancelled job may end `Cancelled`, `Failed` or `Finished`: the cancel
//! races the crash and the job's last iteration on the wall clock.
//!
//! Its own binary: the spinning threads would slow every other test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_core::driver::AppDef;
use reshape_core::runtime::ReshapeRuntime;
use reshape_core::{EventKind, JobSpec, ProcessorConfig, QueuePolicy, TopologyPref};
use reshape_mpisim::{NetModel, NodeId, Universe};

const NODES: usize = 12;
const RUNTIMES: usize = 24;
const JOBS_PER_RUNTIME: usize = 8;

fn toy() -> AppDef {
    AppDef::new(
        |grid| {
            let desc = Descriptor::square(8, 2, grid.nprow(), grid.npcol());
            vec![DistMatrix::from_fn(
                desc,
                grid.myrow(),
                grid.mycol(),
                |i, j| (i + j) as f64,
            )]
        },
        |grid, _m, _it| {
            let p = (grid.nprow() * grid.npcol()) as f64;
            grid.comm().advance(1.0 / p);
        },
    )
}

fn churn(r: usize) {
    let universe = Universe::new(NODES, 1, NetModel::ideal());
    universe.inject_node_crash(NodeId((r % NODES) as u32), 3.0 + r as f64);
    let rt = ReshapeRuntime::new(universe, QueuePolicy::Backfill);
    let jobs: Vec<_> = (0..JOBS_PER_RUNTIME)
        .map(|i| {
            let spec = JobSpec::new(
                format!("churn-{r}-{i}"),
                TopologyPref::Grid { problem_size: 8 },
                ProcessorConfig::new(1, 2),
                6 + i % 3,
            );
            rt.submit(spec, toy())
        })
        .collect();
    rt.cancel(jobs[r % JOBS_PER_RUNTIME]);
    rt.wait_quiescent(Duration::from_secs(60)).unwrap();

    let core = rt.core().lock();
    for &job in &jobs {
        let rec = core.job(job).expect("a submitted job stays known");
        assert!(
            rec.state.is_terminal(),
            "runtime {r}: {job} is {:?}",
            rec.state
        );
        let kinds: Vec<&EventKind> = core
            .events()
            .iter()
            .filter(|e| e.job == job)
            .map(|e| &e.kind)
            .collect();
        let terminal = kinds
            .iter()
            .filter(|k| {
                matches!(
                    k,
                    EventKind::Finished | EventKind::Failed { .. } | EventKind::Cancelled
                )
            })
            .count();
        let started = kinds
            .iter()
            .filter(|k| matches!(k, EventKind::Started { .. }))
            .count();
        assert_eq!(terminal, 1, "runtime {r}: {job} events {kinds:?}");
        assert!(started <= 1, "runtime {r}: {job} events {kinds:?}");
    }
    assert_eq!(core.idle_procs(), NODES, "runtime {r}: slots left busy");
}

#[test]
fn churned_runtimes_end_every_job_once_and_free_every_slot() {
    let stop = AtomicBool::new(false);
    let spinners = std::thread::available_parallelism().map_or(2, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..spinners {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        // Stop the spinners even if a runtime fails, or the scope never ends.
        let all = std::panic::catch_unwind(|| (0..RUNTIMES).for_each(churn));
        stop.store(true, Ordering::Relaxed);
        all
    })
    .unwrap_or_else(|e| std::panic::resume_unwind(e));
}
