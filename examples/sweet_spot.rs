//! Adaptive sweet-spot detection (paper §4.1.1).
//!
//! An application whose scaling *turns over* is grown step by step by the
//! Remap Scheduler; when an expansion degrades the iteration time, ReSHAPE
//! shrinks it back to the previous configuration and holds it there — the
//! trajectory of the paper's Figure 3(a).
//!
//! ```text
//! cargo run --example sweet_spot
//! ```

use std::sync::Arc;
use std::time::Duration;

use reshape::blockcyclic::{Descriptor, DistMatrix};
use reshape::core::driver::AppDef;
use reshape::core::runtime::ReshapeRuntime;
use reshape::core::{JobSpec, ProcessorConfig, QueuePolicy, Resize, TopologyPref};
use reshape::mpisim::{NetModel, Universe};

fn main() {
    let universe = Universe::new(32, 1, NetModel::ideal());
    let runtime = ReshapeRuntime::new(universe, QueuePolicy::Fcfs);

    let n = 24usize;
    // Synthetic scaling curve with a sweet spot at 6 processors: expanding
    // to 9 will *hurt*, and the scheduler must revert.
    let curve = |p: usize| -> f64 {
        match p {
            1 | 2 => 30.0 / p as f64,
            4 => 9.0,
            6 => 6.5,
            _ => 8.0, // beyond the sweet spot
        }
    };
    let app = AppDef::new(
        move |grid| {
            let desc = Descriptor::square(n, 2, grid.nprow(), grid.npcol());
            vec![DistMatrix::from_fn(
                desc,
                grid.myrow(),
                grid.mycol(),
                |i, j| (i * n + j) as f64,
            )]
        },
        move |grid, _mats, _iter| {
            let p = grid.nprow() * grid.npcol();
            grid.comm().advance(curve(p));
        },
    );
    let spec = JobSpec::new(
        "sweet-spot-probe",
        TopologyPref::Grid { problem_size: n },
        ProcessorConfig::new(1, 2),
        12,
    );
    let job = runtime.submit(spec, app);
    runtime.wait_for(job, Duration::from_secs(60)).unwrap();

    let core = runtime.core().lock();
    let profile = core.profiler().profile(job).expect("profiled");
    println!("iteration history (config -> time):");
    for rec in profile.history() {
        println!(
            "  {:>5} ({:>2} procs): {:6.2} s  (redist before: {:.3} s)",
            rec.config.to_string(),
            rec.config.procs(),
            rec.iter_time,
            rec.redist_time
        );
    }
    let last = profile.history().last().expect("ran");
    println!("\nsweet spot settled at {} processors", last.config.procs());
    assert_eq!(
        last.config.procs(),
        6,
        "the scheduler should hold the job at its 6-processor sweet spot"
    );
    assert_eq!(profile.last_expansion_improved(), Some(false));
    // The revert itself is in the resize record.
    assert!(matches!(profile.last_resize(), Some(Resize::Shrunk { .. })));
    println!("sweet_spot OK: expansion past 6 was detected as unprofitable and reverted");
    drop(core);
    let _ = Arc::strong_count(runtime.universe());
}
