//! Ablation: the Remap Scheduler's two key design decisions, and the queue
//! discipline, evaluated on the paper's workload 1.
//!
//! * **Paper policy** — probe while improving, revert failed expansions,
//!   shrink for queued jobs.
//! * **GreedyExpand** — grow whenever anything is idle (past sweet spots,
//!   despite waiting jobs).
//! * **NeverShrink** — paper expansion, but processors are never returned.
//! * **FCFS vs Backfill** — initial-allocation discipline.
//!
//! Expected: the paper policy dominates on mean turnaround and utilization;
//! NeverShrink starves late arrivals; GreedyExpand wastes processors past
//! sweet spots and blocks the queue.

use reshape_bench::{json_arg, write_json, Table};
use reshape_clustersim::{workload1, ClusterSim, MachineParams, SimResult};
use reshape_core::{QueuePolicy, RemapPolicy};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    variant: String,
    mean_turnaround: f64,
    max_turnaround: f64,
    utilization: f64,
    makespan: f64,
}

fn summarize(variant: &str, r: &SimResult) -> Row {
    let mean = r.jobs.iter().map(|j| j.turnaround).sum::<f64>() / r.jobs.len() as f64;
    let max = r.jobs.iter().map(|j| j.turnaround).fold(0.0, f64::max);
    Row {
        variant: variant.to_string(),
        mean_turnaround: mean,
        max_turnaround: max,
        utilization: r.utilization,
        makespan: r.makespan,
    }
}

fn main() {
    reshape_bench::telemetry_from_args();
    let machine = MachineParams::system_x();
    let w = workload1();

    let variants: Vec<(String, SimResult)> = vec![
        (
            "static".into(),
            ClusterSim::new(w.total_procs, machine).run(&w.as_static().jobs),
        ),
        (
            "paper (FCFS)".into(),
            ClusterSim::new(w.total_procs, machine).run(&w.jobs),
        ),
        (
            "paper (backfill)".into(),
            ClusterSim::new(w.total_procs, machine)
                .with_policy(QueuePolicy::Backfill)
                .run(&w.jobs),
        ),
        (
            "greedy-expand".into(),
            ClusterSim::new(w.total_procs, machine)
                .with_remap_policy(RemapPolicy::GreedyExpand)
                .run(&w.jobs),
        ),
        (
            "never-shrink".into(),
            ClusterSim::new(w.total_procs, machine)
                .with_remap_policy(RemapPolicy::NeverShrink)
                .run(&w.jobs),
        ),
        (
            "cost-benefit".into(),
            ClusterSim::new(w.total_procs, machine)
                .with_remap_policy(RemapPolicy::CostBenefit)
                .run(&w.jobs),
        ),
    ];

    println!(
        "Policy ablation on workload 1 ({} processors)\n",
        w.total_procs
    );
    let mut table = Table::new(vec![
        "variant",
        "mean turnaround (s)",
        "max turnaround (s)",
        "utilization",
        "makespan (s)",
    ]);
    let mut rows = Vec::new();
    for (name, r) in &variants {
        let row = summarize(name, r);
        table.row(vec![
            row.variant.clone(),
            format!("{:.0}", row.mean_turnaround),
            format!("{:.0}", row.max_turnaround),
            format!("{:.1}%", row.utilization * 100.0),
            format!("{:.0}", row.makespan),
        ]);
        rows.push(row);
    }
    table.print();

    // Per-job detail for the interesting failure mode: who starves under
    // never-shrink?
    println!("\nPer-job turnaround (s):");
    let mut detail = Table::new(vec!["job", "static", "paper", "greedy", "never-shrink"]);
    for i in 0..w.jobs.len() {
        detail.row(vec![
            w.jobs[i].spec.name.clone(),
            format!("{:.0}", variants[0].1.jobs[i].turnaround),
            format!("{:.0}", variants[1].1.jobs[i].turnaround),
            format!("{:.0}", variants[3].1.jobs[i].turnaround),
            format!("{:.0}", variants[4].1.jobs[i].turnaround),
        ]);
    }
    detail.print();

    if let Some(path) = json_arg() {
        write_json(&path, &rows);
    }
    reshape_telemetry::flush();
}
