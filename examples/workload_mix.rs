//! A job mix under dynamic resizing, twice over:
//!
//! 1. **Real execution** — two resizable applications share a small
//!    simulated cluster; the first grows into the idle processors, then
//!    shrinks to accommodate the second when it arrives (paper §4.2's
//!    mechanism at laptop scale).
//! 2. **Paper scale** — the same scheduler code drives the paper's
//!    workload 1 (LU-21000, MM-14000, master–worker, Jacobi-8000,
//!    FFT-8192 on 36 processors) through the discrete-event simulator and
//!    prints the Table 4 comparison.
//!
//! ```text
//! cargo run --example workload_mix
//! ```

use std::time::Duration;

use reshape::clustersim::{workload1, ClusterSim, MachineParams};
use reshape::core::runtime::ReshapeRuntime;
use reshape::core::{EventKind, JobSpec, ProcessorConfig, QueuePolicy, TopologyPref};
use reshape::mpisim::{NetModel, Universe};

fn real_mode() {
    println!("== real execution: two jobs on 8 processors ==");
    let universe = Universe::new(8, 1, NetModel::ideal());
    let runtime = ReshapeRuntime::new(universe, QueuePolicy::Fcfs);

    let mk = |name: &str, iters: usize| {
        JobSpec::new(
            name,
            TopologyPref::Grid { problem_size: 24 },
            ProcessorConfig::new(1, 2),
            iters,
        )
    };
    // Job A: long-running, genuinely computes distributed LU each iteration.
    let a = runtime.submit(mk("A-long", 14), reshape::apps::lu_app(24, 2, 1.0e5));
    // Give A time to expand, then submit B.
    std::thread::sleep(Duration::from_millis(100));
    let b = runtime.submit(mk("B-late", 4), reshape::apps::lu_app(24, 2, 1.0e5));

    runtime.wait_for(a, Duration::from_secs(120)).unwrap();
    runtime.wait_for(b, Duration::from_secs(120)).unwrap();

    let core = runtime.core().lock();
    println!("scheduler event trace:");
    let mut saw_shrink = false;
    let mut saw_expand = false;
    for e in core.events() {
        println!("  t={:>8.2}  {}  {:?}", e.time, e.job, e.kind);
        saw_shrink |= matches!(e.kind, EventKind::Shrunk { .. });
        saw_expand |= matches!(e.kind, EventKind::Expanded { .. });
    }
    assert!(
        saw_expand,
        "job A should have expanded into the idle cluster"
    );
    println!(
        "A expanded into idle processors{}",
        if saw_shrink {
            "; a shrink made room for B"
        } else {
            "; B fit into remaining processors"
        }
    );
}

fn paper_scale() {
    println!("\n== paper scale: workload 1 through the cluster simulator ==");
    let machine = MachineParams::system_x();
    let w = workload1();
    let dynamic = ClusterSim::new(w.total_procs, machine).run(&w.jobs);
    let stat = ClusterSim::new(w.total_procs, machine).run(&w.as_static().jobs);

    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "job", "static", "dynamic", "diff"
    );
    for (d, s) in dynamic.jobs.iter().zip(&stat.jobs) {
        println!(
            "{:<14} {:>10.1} {:>10.1} {:>10.1}",
            d.name,
            s.turnaround,
            d.turnaround,
            s.turnaround - d.turnaround
        );
    }
    println!(
        "utilization: static {:.1}% -> dynamic {:.1}%",
        stat.utilization * 100.0,
        dynamic.utilization * 100.0
    );
    assert!(dynamic.utilization > stat.utilization);
}

fn main() {
    real_mode();
    paper_scale();
    println!("\nworkload_mix OK");
}
