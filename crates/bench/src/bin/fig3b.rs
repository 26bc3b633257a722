//! Regenerates **Figure 3(b)**: per-application comparison of
//!
//! * static scheduling (initial allocation for the whole run),
//! * dynamic resizing with **file-based checkpoint** redistribution, and
//! * dynamic resizing with **ReSHAPE** message-based redistribution,
//!
//! for LU(12000), MM(14000), Master-worker, Jacobi(8000) and FFT(8192),
//! 10 iterations each, run alone on the cluster. Bars decompose into
//! iteration (compute) time and redistribution time.
//!
//! Paper's findings to look for: checkpointing redistribution is several
//! times more expensive than ReSHAPE's (8.3× for LU, 4.5× MM, 14.5×
//! Jacobi, 7.9× FFT), and the master–worker case shows no difference (no
//! data to move).

use reshape_bench::{json_arg, write_json, Table};
use reshape_clustersim::{fig3b_jobs, ClusterSim, MachineParams, RedistMode, SimJob};
use serde::Serialize;

#[derive(Serialize)]
struct Bar {
    app: String,
    iteration_time: f64,
    redist_time: f64,
    total: f64,
}

#[derive(Serialize)]
struct AppRow {
    app: String,
    static_: Bar,
    checkpoint: Bar,
    reshape: Bar,
}

fn run_one(job: &SimJob, mode: Option<RedistMode>, procs: usize) -> Bar {
    let machine = MachineParams::system_x();
    let mut job = job.clone();
    let sim = match mode {
        None => {
            job.spec = job.spec.clone().static_job();
            ClusterSim::new(procs, machine)
        }
        Some(m) => ClusterSim::new(procs, machine).with_redist_mode(m),
    };
    let result = sim.run(std::slice::from_ref(&job));
    let j = &result.jobs[0];
    Bar {
        app: j.name.clone(),
        iteration_time: j.compute_total,
        redist_time: j.redist_total,
        total: j.compute_total + j.redist_total,
    }
}

fn main() {
    reshape_bench::telemetry_from_args();
    // 36 processors available, as in the workload experiments.
    let procs = 36;
    let mut rows = Vec::new();
    println!("Figure 3(b): Performance with static scheduling, dynamic + checkpointing,");
    println!("and dynamic + ReSHAPE redistribution (seconds; 10 iterations per app)\n");
    let mut table = Table::new(vec![
        "Application",
        "Static total",
        "Ckpt iter",
        "Ckpt redist",
        "Ckpt total",
        "ReSHAPE iter",
        "ReSHAPE redist",
        "ReSHAPE total",
        "redist ratio",
    ]);
    for job in fig3b_jobs() {
        let stat = run_one(&job, None, procs);
        let ckpt = run_one(&job, Some(RedistMode::Checkpoint), procs);
        let resh = run_one(&job, Some(RedistMode::Reshape), procs);
        let ratio = if resh.redist_time > 0.0 {
            format!("{:.1}x", ckpt.redist_time / resh.redist_time)
        } else {
            "-".to_string()
        };
        table.row(vec![
            job.spec.name.clone(),
            format!("{:.0}", stat.total),
            format!("{:.0}", ckpt.iteration_time),
            format!("{:.1}", ckpt.redist_time),
            format!("{:.0}", ckpt.total),
            format!("{:.0}", resh.iteration_time),
            format!("{:.1}", resh.redist_time),
            format!("{:.0}", resh.total),
            ratio,
        ]);
        rows.push(AppRow {
            app: job.spec.name.clone(),
            static_: stat,
            checkpoint: ckpt,
            reshape: resh,
        });
    }
    table.print();
    println!(
        "\nPaper's checkpoint/ReSHAPE redistribution cost ratios: LU 8.3x, MM 4.5x,\n\
         Jacobi 14.5x, 2D FFT 7.9x; Master-worker identical (no data)."
    );

    if let Some(path) = json_arg() {
        write_json(&path, &rows);
    }
    reshape_telemetry::flush();
}
