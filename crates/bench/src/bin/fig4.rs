//! Regenerates **Figure 4 and Table 4**: workload 1 — LU(21000) and
//! MM(14000) at t=0, Master-worker at t=450, Jacobi(8000) and FFT(8192) at
//! t=465, on 36 processors.
//!
//! Outputs: (a) per-job processor-allocation history, (b) total busy
//! processors for static vs ReSHAPE scheduling, and the Table 4 turnaround
//! comparison with average utilization (paper: 39.7% static → 70.7%
//! dynamic).

use reshape_bench::{json_arg, write_json, Table};
use reshape_clustersim::{workload1, ClusterSim, MachineParams, SimResult};
use serde::Serialize;

#[derive(Serialize)]
struct Output {
    dynamic: SimResult,
    static_: SimResult,
}

fn print_alloc_histories(result: &SimResult) {
    println!("(a) Processor allocation history (time s -> processors):");
    for job in &result.jobs {
        let hist: Vec<String> = job
            .alloc_history
            .iter()
            .map(|&(t, p)| format!("{:.0}s:{}", t, p))
            .collect();
        println!("  {:<14} {}", job.name, hist.join(" -> "));
    }
}

fn print_busy(result: &SimResult, label: &str) {
    let series = result.busy_series();
    let compact: Vec<String> = series
        .iter()
        .map(|&(t, b)| format!("{:.0}:{}", t, b))
        .collect();
    println!("(b) Busy processors [{label}]: {}", compact.join(" "));
}

fn main() {
    reshape_bench::telemetry_from_args();
    let machine = MachineParams::system_x();
    let w = workload1();
    let dynamic = ClusterSim::new(w.total_procs, machine).run(&w.jobs);
    let stat = ClusterSim::new(w.total_procs, machine).run(&w.as_static().jobs);

    println!("Workload 1 on {} processors\n", w.total_procs);
    print_alloc_histories(&dynamic);
    println!();
    print_busy(&stat, "static");
    print_busy(&dynamic, "ReSHAPE");

    println!("\nTable 4: Job turn-around time (seconds)");
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
        "\nAverage processor utilization: static {:.1}%, dynamic {:.1}% \
         (paper: 39.7% and 70.7%)",
        stat.utilization * 100.0,
        dynamic.utilization * 100.0
    );
    println!(
        "Makespan: static {:.0}s, dynamic {:.0}s",
        stat.makespan, dynamic.makespan
    );
    // Window series feed the OpenMetrics exporter when RESHAPE_METRICS is
    // set (utilization / queue-wait / resizes per sim-time window).
    dynamic.publish_metrics(8);

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
