//! Regenerates **Table 2**: processor configurations for the paper's
//! problem sizes, produced by the topology-selection rules of
//! `reshape-core` (dimension divisibility + nearly-square growth).

use reshape_bench::{json_arg, write_json, Table};
use reshape_core::{ProcessorConfig, TopologyPref};

fn main() {
    reshape_bench::telemetry_from_args();
    let grid_cases: Vec<(&str, usize, (usize, usize), usize)> = vec![
        ("8000 (LU, MM)", 8000, (1, 2), 40),
        ("12000 (LU, MM)", 12000, (1, 2), 48),
        ("14000 (LU, MM)", 14000, (2, 2), 49),
        ("16000 (LU, MM)", 16000, (2, 2), 40),
        ("20000 (LU, MM)", 20000, (2, 2), 40),
        ("21000 (LU, MM)", 21000, (2, 2), 49),
        ("24000 (LU, MM)", 24000, (2, 4), 48),
    ];

    let mut table = Table::new(vec!["Problem size", "Processor configurations"]);
    let mut json: Vec<(String, Vec<String>)> = Vec::new();

    for (label, n, start, cap) in grid_cases {
        let pref = TopologyPref::Grid { problem_size: n };
        let chain = pref.chain_from(ProcessorConfig::new(start.0, start.1), cap);
        let strs: Vec<String> = chain.iter().map(|c| c.to_string()).collect();
        table.row(vec![label.to_string(), strs.join(", ")]);
        json.push((label.to_string(), strs));
    }

    let jacobi = TopologyPref::Linear {
        problem_size: 8000,
        even_only: true,
    };
    let jc: Vec<String> = jacobi
        .chain_from(ProcessorConfig::linear(4), 50)
        .iter()
        .map(|c| c.procs().to_string())
        .collect();
    table.row(vec!["8000 (Jacobi)".to_string(), jc.join(", ")]);
    json.push(("8000 (Jacobi)".to_string(), jc));

    let fft = TopologyPref::Linear {
        problem_size: 8192,
        even_only: true,
    };
    let fc: Vec<String> = fft
        .chain_from(ProcessorConfig::linear(2), 50)
        .iter()
        .map(|c| c.procs().to_string())
        .collect();
    table.row(vec!["8192 (FFT)".to_string(), fc.join(", ")]);
    json.push(("8192 (FFT)".to_string(), fc));

    let mw = TopologyPref::AnyCount {
        min: 4,
        max: 22,
        step: 2,
    };
    let mc: Vec<String> = mw
        .chain_from(ProcessorConfig::linear(4), 50)
        .iter()
        .map(|c| c.procs().to_string())
        .collect();
    table.row(vec!["20000 (Master-worker)".to_string(), mc.join(", ")]);
    json.push(("20000 (Master-worker)".to_string(), mc));

    println!("Table 2: Processor configurations for various problem sizes");
    table.print();
    println!(
        "\nNote: the paper's 21000 row lists '4x5' where the regular\n\
         nearly-square rule gives '4x4', and its 24000 row includes a '3x4'\n\
         detour; all other rows match the rule exactly (see EXPERIMENTS.md)."
    );

    if let Some(path) = json_arg() {
        write_json(&path, &json);
    }
    reshape_telemetry::flush();
}
