//! Ablation: what does the contention-free communication schedule buy?
//!
//! The paper's redistribution engine computes a generalized-circulant
//! schedule whose steps are partial permutations — no process endpoint is
//! ever hit by two concurrent messages. This harness compares it against a
//! naive single-burst plan carrying the *same bytes*, under a
//! contention-aware network model with TCP-incast-style receiver
//! degradation. Expected result: shrinks (fan-in) suffer badly without the
//! schedule; expansions (fan-out) are sender-bound either way.

use reshape_bench::{json_arg, write_json, Table};
use reshape_blockcyclic::Descriptor;
use reshape_clustersim::{MachineParams, MODEL_BLOCK};
use reshape_redist::{evaluate_2d_contended, plan_2d, plan_naive_2d};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    n: usize,
    transition: String,
    scheduled_s: f64,
    naive_s: f64,
    ratio: f64,
}

fn main() {
    reshape_bench::telemetry_from_args();
    let net = MachineParams::system_x().redist_net();
    type Case = (usize, (usize, usize), (usize, usize));
    let cases: Vec<Case> = vec![
        // Expansions (fan-out).
        (8000, (2, 2), (4, 5)),
        (12000, (2, 3), (4, 4)),
        (24000, (4, 4), (5, 6)),
        // Shrinks (fan-in) — the shrink-for-queued-jobs path of §3.1.
        (8000, (4, 5), (2, 2)),
        (12000, (4, 4), (2, 3)),
        (24000, (5, 6), (4, 4)),
        (24000, (6, 8), (2, 4)),
    ];

    println!("Ablation: contention-free circulant schedule vs naive single burst");
    println!("(same bytes moved; contention-aware cost model with incast penalty)\n");
    let mut table = Table::new(vec![
        "N",
        "transition",
        "scheduled (s)",
        "naive (s)",
        "naive/scheduled",
    ]);
    let mut rows = Vec::new();
    for (n, from, to) in cases {
        let src = Descriptor::square(n, MODEL_BLOCK, from.0, from.1);
        let dst = Descriptor::square(n, MODEL_BLOCK, to.0, to.1);
        let sched = evaluate_2d_contended(&plan_2d(src, dst), 8, &net).seconds;
        let naive = evaluate_2d_contended(&plan_naive_2d(src, dst), 8, &net).seconds;
        let transition = format!(
            "{}x{} -> {}x{} ({})",
            from.0,
            from.1,
            to.0,
            to.1,
            if to.0 * to.1 > from.0 * from.1 {
                "expand"
            } else {
                "shrink"
            }
        );
        table.row(vec![
            n.to_string(),
            transition.clone(),
            format!("{sched:.2}"),
            format!("{naive:.2}"),
            format!("{:.2}x", naive / sched),
        ]);
        rows.push(Row {
            n,
            transition,
            scheduled_s: sched,
            naive_s: naive,
            ratio: naive / sched,
        });
    }
    table.print();
    println!(
        "\nReading: shrink transitions without the schedule pay receiver incast\n\
         (many simultaneous senders per destination); the circulant schedule's\n\
         per-step permutations keep every endpoint at concurrency 1."
    );

    if let Some(path) = json_arg() {
        write_json(&path, &rows);
    }
    reshape_telemetry::flush();
}
