//! A multi-phase application (the paper's intro motivation: "applications
//! that consist of multiple phases, some of which are more computationally
//! intense than others, could benefit from resizing to the most appropriate
//! node count for each phase").
//!
//! Phase 1 is a light 2-D FFT pass over an image stack; phase 2 multiplies
//! large matrices. The job declares the phase boundary; at it, the
//! scheduler's Performance Profiler resets the job's timing history so the
//! Remap Scheduler re-probes — growing the job for the heavy phase even
//! though the light phase had already found a small sweet spot.
//!
//! ```text
//! cargo run --example multi_phase
//! ```

use std::time::Duration;

use reshape::blockcyclic::{Descriptor, DistMatrix};
use reshape::core::driver::AppDef;
use reshape::core::runtime::ReshapeRuntime;
use reshape::core::{JobSpec, ProcessorConfig, QueuePolicy, TopologyPref};
use reshape::mpisim::{NetModel, Universe};

fn main() {
    let n = 24usize;
    let runtime = ReshapeRuntime::new(Universe::new(16, 1, NetModel::ideal()), QueuePolicy::Fcfs);

    // Modeled per-iteration cost: the light phase stops improving at 4
    // processors; the heavy phase scales to the whole cluster.
    let app = AppDef::new(
        move |grid| {
            let desc = Descriptor::square(n, 2, grid.nprow(), grid.npcol());
            vec![DistMatrix::from_fn(
                desc,
                grid.myrow(),
                grid.mycol(),
                |i, j| (i + j) as f64,
            )]
        },
        |grid, _mats, iter| {
            let p = grid.nprow() * grid.npcol();
            let t = if iter < 6 {
                match p {
                    1 | 2 => 6.0 / p as f64,
                    4 => 2.0,
                    _ => 3.0, // past the light phase's sweet spot
                }
            } else {
                400.0 / p as f64 // heavy phase: more processors always help
            };
            grid.comm().advance(t);
        },
    )
    .with_phase_starts(vec![6]);

    let spec = JobSpec::new(
        "fft-then-mm",
        TopologyPref::Grid { problem_size: n },
        ProcessorConfig::new(1, 2),
        16,
    );
    let job = runtime.submit(spec, app);
    let state = runtime.wait_for(job, Duration::from_secs(120)).unwrap();
    println!("final state: {state:?}");

    let core = runtime.core().lock();
    let prof = core.profiler().profile(job).expect("profiled");
    println!("\npost-phase-change profiler history (phase 1 was forgotten):");
    for rec in prof.history() {
        println!(
            "  {:>5} ({:>2} procs): {:>7.2} s/iter",
            rec.config.to_string(),
            rec.config.procs(),
            rec.iter_time
        );
    }
    let max_procs = prof
        .history()
        .iter()
        .map(|r| r.config.procs())
        .max()
        .unwrap();
    assert!(
        max_procs > 4,
        "the heavy phase should have re-expanded past the light phase's sweet spot"
    );
    println!(
        "\nmulti_phase OK: phase 2 re-probed and grew to {max_procs} processors \
         after phase 1 settled at 4"
    );
}
