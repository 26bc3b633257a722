//! Statistical evaluation over random job mixes.
//!
//! The paper evaluates on two hand-built workloads; this harness runs the
//! scheduler over many *random* mixes (LU/MM/Jacobi/FFT/master–worker with
//! staggered arrivals) and reports the distribution of the
//! dynamic-vs-static improvement, plus the policy variants — checking that
//! ReSHAPE's gains are not an artifact of one lucky workload.
//!
//! ```text
//! cargo run -p reshape-bench --bin stress -- [n_workloads] [--json out.json]
//! ```

use reshape_bench::{json_arg, write_json, Table};
use reshape_clustersim::{random_workload, ClusterSim, MachineParams, SimResult};
use reshape_core::RemapPolicy;
use serde::Serialize;

#[derive(Serialize)]
struct SeedResult {
    seed: u64,
    static_mean_tat: f64,
    paper_mean_tat: f64,
    greedy_mean_tat: f64,
    never_shrink_mean_tat: f64,
    paper_improvement: f64,
    static_util: f64,
    paper_util: f64,
}

fn mean_tat(r: &SimResult) -> f64 {
    r.jobs.iter().map(|j| j.turnaround).sum::<f64>() / r.jobs.len() as f64
}

fn main() {
    reshape_bench::telemetry_from_args();
    let n: u64 = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);
    let machine = MachineParams::system_x();
    let mut results = Vec::new();
    for seed in 0..n {
        let w = random_workload(seed, 8, 36);
        let stat = ClusterSim::new(w.total_procs, machine).run(&w.as_static().jobs);
        let paper = ClusterSim::new(w.total_procs, machine).run(&w.jobs);
        let greedy = ClusterSim::new(w.total_procs, machine)
            .with_remap_policy(RemapPolicy::GreedyExpand)
            .run(&w.jobs);
        let never = ClusterSim::new(w.total_procs, machine)
            .with_remap_policy(RemapPolicy::NeverShrink)
            .run(&w.jobs);
        let (sm, pm) = (mean_tat(&stat), mean_tat(&paper));
        results.push(SeedResult {
            seed,
            static_mean_tat: sm,
            paper_mean_tat: pm,
            greedy_mean_tat: mean_tat(&greedy),
            never_shrink_mean_tat: mean_tat(&never),
            paper_improvement: (sm - pm) / sm,
            static_util: stat.utilization,
            paper_util: paper.utilization,
        });
    }

    let mean =
        |f: &dyn Fn(&SeedResult) -> f64| results.iter().map(f).sum::<f64>() / results.len() as f64;
    let min_max = |f: &dyn Fn(&SeedResult) -> f64| {
        let vals: Vec<f64> = results.iter().map(f).collect();
        (
            vals.iter().copied().fold(f64::INFINITY, f64::min),
            vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };

    println!("Random-workload stress: {n} seeds x 8 jobs on 36 processors\n");
    let mut table = Table::new(vec!["metric", "mean", "min", "max"]);
    type Metric = Box<dyn Fn(&SeedResult) -> f64>;
    let metrics: Vec<(&str, Metric)> = vec![
        (
            "static mean TAT (s)",
            Box::new(|r: &SeedResult| r.static_mean_tat),
        ),
        (
            "paper mean TAT (s)",
            Box::new(|r: &SeedResult| r.paper_mean_tat),
        ),
        (
            "greedy mean TAT (s)",
            Box::new(|r: &SeedResult| r.greedy_mean_tat),
        ),
        (
            "never-shrink mean TAT (s)",
            Box::new(|r: &SeedResult| r.never_shrink_mean_tat),
        ),
        (
            "paper improvement",
            Box::new(|r: &SeedResult| r.paper_improvement),
        ),
        (
            "static utilization",
            Box::new(|r: &SeedResult| r.static_util),
        ),
        ("paper utilization", Box::new(|r: &SeedResult| r.paper_util)),
    ];
    for (name, f) in &metrics {
        let (lo, hi) = min_max(&**f);
        table.row(vec![
            name.to_string(),
            format!("{:.3}", mean(&**f)),
            format!("{lo:.3}"),
            format!("{hi:.3}"),
        ]);
    }
    table.print();
    let wins = results
        .iter()
        .filter(|r| r.paper_mean_tat <= r.static_mean_tat)
        .count();
    println!(
        "\nReSHAPE (paper policy) beats or ties static scheduling on {wins}/{} random mixes",
        results.len()
    );

    if let Some(path) = json_arg() {
        write_json(&path, &results);
    }
    reshape_telemetry::flush();
}
