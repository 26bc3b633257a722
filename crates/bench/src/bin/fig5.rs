//! Regenerates **Figure 5 and Table 5**: workload 2 — LU(21000) at 16
//! processors and Jacobi(8000) at 10 at t=0, Master-worker at t=560, a
//! statically scheduled FFT(8192) at t=650, on 30 processors.
//!
//! Paper's qualitative finding: jobs start near their sweet spots, so
//! dynamic scheduling shows only a small advantage over static, and
//! running applications shrink to accommodate the arrivals (LU frees
//! processors for Master-worker; Master-worker shrinks for the FFT).

use reshape_bench::{json_arg, write_json, Table};
use reshape_clustersim::{workload2, ClusterSim, MachineParams, SimResult};
use serde::Serialize;

#[derive(Serialize)]
struct Output {
    dynamic: SimResult,
    static_: SimResult,
}

fn main() {
    reshape_bench::telemetry_from_args();
    let machine = MachineParams::system_x();
    let w = workload2();
    let dynamic = ClusterSim::new(w.total_procs, machine).run(&w.jobs);
    let stat = ClusterSim::new(w.total_procs, machine).run(&w.as_static().jobs);

    println!("Workload 2 on {} processors\n", w.total_procs);
    println!("(a) Processor allocation history (time s -> processors):");
    for job in &dynamic.jobs {
        let hist: Vec<String> = job
            .alloc_history
            .iter()
            .map(|&(t, p)| format!("{:.0}s:{}", t, p))
            .collect();
        println!("  {:<14} {}", job.name, hist.join(" -> "));
    }
    let busy: Vec<String> = dynamic
        .busy_series()
        .iter()
        .map(|&(t, b)| format!("{:.0}:{}", t, b))
        .collect();
    println!("\n(b) Busy processors [ReSHAPE]: {}", busy.join(" "));
    let busy_s: Vec<String> = stat
        .busy_series()
        .iter()
        .map(|&(t, b)| format!("{:.0}:{}", t, b))
        .collect();
    println!("(b) Busy processors [static]:  {}", busy_s.join(" "));

    println!("\nTable 5: Job turn-around time (seconds)");
    let mut table = Table::new(vec![
        "Job",
        "Initial procs",
        "Static",
        "Dynamic",
        "Difference",
    ]);
    for (d, s) in dynamic.jobs.iter().zip(&stat.jobs) {
        table.row(vec![
            d.name.clone(),
            d.initial_procs.to_string(),
            format!("{:.2}", s.turnaround),
            format!("{:.2}", d.turnaround),
            format!("{:.2}", s.turnaround - d.turnaround),
        ]);
    }
    table.print();
    println!(
        "\nPaper's Table 5 differences are small (69.87, 57.75, 1.67, 0.00 s):\n\
         workload 2's jobs start near their sweet spots, so resizing helps\n\
         only modestly — the same shape should appear above."
    );

    println!("\nAllocation chart (rows: jobs; glyphs: processors 1-9, a=10..z=35):");
    print!("{}", dynamic.gantt(100));

    if let Some(path) = json_arg() {
        write_json(
            &path,
            &Output {
                dynamic,
                static_: stat,
            },
        );
    }
    reshape_telemetry::flush();
}
