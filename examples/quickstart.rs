//! Quickstart: submit one resizable LU job to the ReSHAPE runtime on a
//! simulated 16-node cluster and watch it grow.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::time::Duration;

use reshape::core::runtime::ReshapeRuntime;
use reshape::core::{JobSpec, ProcessorConfig, QueuePolicy, TopologyPref};
use reshape::mpisim::{NetModel, Universe};

fn main() {
    // A virtual cluster: 16 nodes x 1 processor, Gigabit-Ethernet-like
    // network costs on the virtual clock.
    let universe = Universe::new(16, 1, NetModel::gigabit_ethernet());
    let runtime = ReshapeRuntime::new(universe, QueuePolicy::Fcfs);

    // An LU job on a 48x48 matrix (tiny, so the example runs in
    // milliseconds), 8 outer iterations — one factorization each — starting
    // on a 1x2 processor grid.
    let spec = JobSpec::new(
        "LU-quickstart",
        TopologyPref::Grid { problem_size: 48 },
        ProcessorConfig::new(1, 2),
        8,
    );
    // reshape_apps::lu_app computes a *real* distributed factorization
    // every iteration and advances the virtual clock by the modeled
    // compute time, so the scheduler sees realistic scaling.
    let app = reshape::apps::lu_app(48, 4, 2.0e6);

    println!("submitting {} ...", spec.name);
    let job = runtime.submit(spec, app);
    let state = runtime.wait_for(job, Duration::from_secs(60)).unwrap();
    println!("final state: {state:?}");

    // Inspect what the Performance Profiler recorded.
    let core = runtime.core().lock();
    let profile = core.profiler().profile(job).expect("job ran");
    println!("\nconfigurations visited (iteration time in virtual seconds):");
    for cfg in profile.visited() {
        println!(
            "  {:>5}  ({} procs): {:>8.3} s/iter",
            cfg.to_string(),
            cfg.procs(),
            profile.time_at(cfg).unwrap_or(f64::NAN)
        );
    }
    println!("\nscheduling events:");
    for e in core.events() {
        println!("  {:?}", e.kind);
    }
    assert!(
        profile.visited().len() > 1,
        "the job should have been resized at least once"
    );
    println!("\nquickstart OK: the job grew from 2 processors into the idle cluster");
}
