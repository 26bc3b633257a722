//! Ablation: heterogeneous clusters (paper §5 future work).
//!
//! The paper's System X was homogeneous; its future work calls for
//! heterogeneous support as a plug-in. Here a fraction of the cluster's
//! slots run at reduced speed, synchronous applications run at the pace of
//! their slowest slot, and we compare:
//!
//! * **speed-aware placement** (fastest free slots first) vs
//! * **naive placement** (slot id order, heterogeneity-blind)
//!
//! on the paper's workload 1, across slow-slot fractions.

use reshape_bench::{json_arg, write_json, Table};
use reshape_clustersim::{workload1, ClusterSim, MachineParams, SimResult};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    slow_fraction: f64,
    aware_mean_turnaround: f64,
    naive_mean_turnaround: f64,
    aware_utilization: f64,
    naive_utilization: f64,
    naive_penalty: f64,
}

fn mean_turnaround(r: &SimResult) -> f64 {
    r.jobs.iter().map(|j| j.turnaround).sum::<f64>() / r.jobs.len() as f64
}

fn main() {
    reshape_bench::telemetry_from_args();
    let machine = MachineParams::system_x();
    let w = workload1();
    let total = w.total_procs;

    println!(
        "Heterogeneity ablation on workload 1 ({total} slots; slow slots run at 0.5x;\n\
         slow slots interleaved so naive id-order placement hits them first)\n"
    );
    let mut table = Table::new(vec![
        "slow slots",
        "aware mean TAT (s)",
        "naive mean TAT (s)",
        "naive penalty",
        "aware util",
        "naive util",
    ]);
    let mut rows = Vec::new();
    for slow_count in [0usize, 6, 12, 18] {
        // Interleave slow slots across the id range.
        let mut speeds = vec![1.0; total];
        if let Some(stride) = total.checked_div(slow_count).filter(|&s| s > 0) {
            for k in 0..slow_count {
                speeds[k * stride] = 0.5;
            }
        }
        let aware = ClusterSim::new(total, machine)
            .with_slot_speeds(speeds.clone())
            .run(&w.jobs);
        let naive = ClusterSim::new(total, machine)
            .with_slot_speeds(speeds)
            .with_naive_placement()
            .run(&w.jobs);
        let (am, nm) = (mean_turnaround(&aware), mean_turnaround(&naive));
        table.row(vec![
            format!("{slow_count}/{total}"),
            format!("{am:.0}"),
            format!("{nm:.0}"),
            format!("{:.2}x", nm / am),
            format!("{:.1}%", aware.utilization * 100.0),
            format!("{:.1}%", naive.utilization * 100.0),
        ]);
        rows.push(Row {
            slow_fraction: slow_count as f64 / total as f64,
            aware_mean_turnaround: am,
            naive_mean_turnaround: nm,
            aware_utilization: aware.utilization,
            naive_utilization: naive.utilization,
            naive_penalty: nm / am,
        });
    }
    table.print();
    println!(
        "\nReading: with no slow slots the placements tie; as slow slots appear,\n\
         heterogeneity-blind placement drags whole synchronous jobs down to the\n\
         slow slots' pace, while speed-aware allocation shields jobs until the\n\
         fast slots run out."
    );

    if let Some(path) = json_arg() {
        write_json(&path, &rows);
    }
    reshape_telemetry::flush();
}
