//! Regenerates **Figure 2(b)**: data-redistribution overhead at each
//! expansion step of the LU configuration chains, computed from the
//! *actual* contention-free communication schedules built by
//! `reshape-redist` and priced under the Gigabit Ethernet network model.
//!
//! Expected shape (paper §4.1.2): cost grows with matrix size, and for a
//! fixed matrix it falls as the processor count grows (less data per
//! process, more parallel links).

use reshape_bench::{json_arg, write_json, Table};
use reshape_blockcyclic::Descriptor;
use reshape_clustersim::{MachineParams, MODEL_BLOCK};
use reshape_core::{ProcessorConfig, TopologyPref};
use reshape_redist::{evaluate_2d, plan_2d};
use serde::Serialize;

#[derive(Serialize)]
struct Series {
    n: usize,
    /// (processor count *after* expansion, redistribution seconds).
    points: Vec<(usize, f64)>,
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
        let mut points = Vec::new();
        for w in chain.windows(2) {
            let (from, to) = (w[0], w[1]);
            let src = Descriptor::square(n, MODEL_BLOCK, from.rows, from.cols);
            let dst = Descriptor::square(n, MODEL_BLOCK, to.rows, to.cols);
            let cost = evaluate_2d(&plan_2d(src, dst), 8, &machine.redist_net());
            points.push((to.procs(), cost.seconds));
        }
        series.push(Series { n, points });
    }

    println!("Figure 2(b): Redistribution overhead for expansion (seconds)");
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
                Some(&(_, t)) => row.push(format!("{t:.2}")),
                None => row.push("-".to_string()),
            }
        }
        table.row(row);
    }
    table.print();

    // Shape assertions the paper's text makes.
    let first_8000 = series[0].points.first().unwrap().1;
    let last_8000 = series[0].points.last().unwrap().1;
    let first_24000 = series[6].points.first().unwrap().1;
    println!(
        "\n8000: first expansion {first_8000:.2}s vs last {last_8000:.2}s (cost falls with procs)\n\
         24000 first expansion {first_24000:.2}s vs 8000 first {first_8000:.2}s (cost grows with N)"
    );

    if let Some(path) = json_arg() {
        write_json(&path, &series);
    }
    reshape_telemetry::flush();
}
