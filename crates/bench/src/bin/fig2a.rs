//! Regenerates **Figure 2(a)**: LU factorization iteration time vs
//! processor count for seven matrix sizes, from the calibrated System X
//! performance model. The paper's qualitative findings to look for:
//! larger problems keep benefiting from processors, small problems flatten
//! early, and LU-24000 improves ~19% going from 16 to 20 processors.

use reshape_bench::{json_arg, write_json, Table};
use reshape_clustersim::{AppModel, MachineParams};
use reshape_core::{ProcessorConfig, TopologyPref};
use serde::Serialize;

#[derive(Serialize)]
struct Series {
    n: usize,
    points: Vec<(usize, f64)>, // (procs, seconds)
}

fn main() {
    reshape_bench::telemetry_from_args();
    let machine = MachineParams::system_x();
    let cases: Vec<(usize, (usize, usize), usize)> = vec![
        (8000, (1, 2), 40),
        (12000, (1, 2), 48),
        (14000, (2, 2), 49),
        (16000, (2, 2), 40),
        (20000, (2, 2), 40),
        (21000, (2, 2), 49),
        (24000, (2, 4), 48),
    ];

    let mut series = Vec::new();
    for &(n, start, cap) in &cases {
        let pref = TopologyPref::Grid { problem_size: n };
        let chain = pref.chain_from(ProcessorConfig::new(start.0, start.1), cap);
        let model = AppModel::Lu { n };
        let points: Vec<(usize, f64)> = chain
            .iter()
            .map(|&cfg| (cfg.procs(), model.iter_time(cfg, &machine)))
            .collect();
        series.push(Series { n, points });
    }

    println!("Figure 2(a): Running time for LU factorization (seconds per iteration)");
    let mut table = Table::new(vec![
        "procs \\ N",
        "8000",
        "12000",
        "14000",
        "16000",
        "20000",
        "21000",
        "24000",
    ]);
    // Collect the union of processor counts, ascending.
    let mut all_procs: Vec<usize> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(p, _)| p))
        .collect();
    all_procs.sort_unstable();
    all_procs.dedup();
    for p in all_procs {
        let mut row = vec![p.to_string()];
        for s in &series {
            match s.points.iter().find(|&&(pp, _)| pp == p) {
                Some(&(_, t)) => row.push(format!("{t:.1}")),
                None => row.push("-".to_string()),
            }
        }
        table.row(row);
    }
    table.print();

    // Headline check from the paper.
    let lu24 = AppModel::Lu { n: 24000 };
    let t16 = lu24.iter_time(ProcessorConfig::new(4, 4), &machine);
    let t20 = lu24.iter_time(ProcessorConfig::new(4, 5), &machine);
    println!(
        "\nLU-24000, 16 -> 20 processors: {:.1}s -> {:.1}s ({:.1}% improvement; paper reports 19.1%)",
        t16,
        t20,
        (t16 - t20) / t16 * 100.0
    );

    if let Some(path) = json_arg() {
        write_json(&path, &series);
    }
    reshape_telemetry::flush();
}
