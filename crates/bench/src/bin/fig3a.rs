//! Regenerates **Figure 3(a)**: the iteration-time / ΔT / redistribution
//! table for LU on a 12000×12000 matrix, 10 iterations, starting on 2
//! processors with the cluster otherwise idle.
//!
//! The scheduler is the real ReSHAPE policy code; the application's
//! iteration times are the paper's own measured profile (Table model), and
//! the redistribution costs come from our schedule evaluator. The paper's
//! trajectory — expand 2 → 4 → 6 → 9 → 12 → 16, detect that 16 degraded
//! performance (ΔT = −5.06), revert to 12 and hold — must reproduce.

use reshape_bench::{json_arg, write_json, Table};
use reshape_clustersim::{fig3a_job, ClusterSim, MachineParams};

fn main() {
    reshape_bench::telemetry_from_args();
    let sim = ClusterSim::new(36, MachineParams::system_x());
    let result = sim.run(&[fig3a_job()]);
    let job = &result.jobs[0];

    println!("Figure 3(a): Iteration and redistribution for LU, problem size 12000");
    let mut table = Table::new(vec![
        "Processors",
        "Iteration time (s)",
        "dT (s)",
        "Redistribution cost (s)",
    ]);
    let mut prev: Option<f64> = None;
    for rec in &job.iter_log {
        let dt = prev.map_or(0.0, |p| p - rec.iter_time);
        table.row(vec![
            rec.config.procs().to_string(),
            format!("{:.2}", rec.iter_time),
            format!("{:.2}", dt),
            format!("{:.2}", rec.redist_time),
        ]);
        prev = Some(rec.iter_time);
    }
    table.print();

    let trajectory: Vec<usize> = job.alloc_history.iter().map(|&(_, p)| p).collect();
    println!("\nAllocation trajectory: {trajectory:?}");
    println!("Paper's trajectory:    [2, 4, 6, 9, 12, 16, 12, 0] (0 = job finished)");
    println!(
        "Paper's redistribution costs: 8.00, 7.74, 5.25, 4.86, 4.41 s (ours from real schedules)"
    );
    println!("Total turnaround: {:.1}s", job.turnaround);

    if let Some(path) = json_arg() {
        write_json(&path, job);
    }
    reshape_telemetry::flush();
}
