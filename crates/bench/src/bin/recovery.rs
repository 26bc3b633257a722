//! Recovery-time comparison: buddy-based shrink-to-survivors vs
//! checkpoint/restart, across problem sizes.
//!
//! A survivable job pays `replicate` (ring-copy every panel to its buddy)
//! at each resize point, and on a node death pays `restore` (reassemble
//! the dead rank's panel from its buddy directly onto the shrunken
//! survivor grid). The checkpoint/restart baseline pays the full
//! DRMS-style round trip instead: funnel every panel to rank 0, write and
//! read the global matrix on one disk, scatter onto the survivors. Both
//! mechanisms then replay the iterations since their last save point, so
//! with equal intervals the replay cost cancels and the data paths above
//! are the whole difference.
//!
//! All times are virtual seconds on the simulator's calibrated
//! Gigabit-Ethernet model (max over the participating ranks), measured on
//! a 4-process 2×2 grid losing one rank and recovering onto the remaining
//! 1×3 grid.
//!
//! ```text
//! cargo run -p reshape-bench --bin recovery -- [max_n] [--json out.json]
//! ```
//!
//! `max_n` caps the problem-size sweep (default 4096); CI's smoke run
//! passes 512 to keep the debug-build data motion small. `--telemetry`
//! prints the shared journal on exit, and `RESHAPE_TRACE=path.json`
//! exports the replicate/checkpoint/restore phases as a Perfetto trace
//! (one trace per problem size, virtual-clock timestamps).

use std::sync::{Arc, Mutex};

use reshape_bench::{json_arg, write_json, Table};
use reshape_blockcyclic::{recover_matrix, BuddyStore, Descriptor, DistMatrix};
use reshape_mpisim::{NetModel, Universe};
use reshape_redist::{checkpoint_cost, checkpoint_redistribute, CheckpointParams};
use reshape_telemetry::trace;
use serde::Serialize;

#[derive(Serialize)]
struct SizeResult {
    n: usize,
    volume_mb: f64,
    /// Per-resize-point cost of keeping the buddy copies fresh.
    buddy_replicate_s: f64,
    /// Reassembling the dead rank's data onto the survivor grid.
    buddy_restore_s: f64,
    /// replicate + restore: everything the buddy path spends per failure.
    buddy_total_s: f64,
    /// Measured checkpoint/restart round trip (funnel + disk + scatter).
    ckpt_roundtrip_s: f64,
    /// The analytic model the paper's Figure 3(b) uses, as a cross-check.
    ckpt_analytic_s: f64,
    speedup: f64,
}

/// One size point: 4 ranks hold an `n × n` matrix on a 2×2 grid, rank 3
/// "dies", and both recovery paths rebuild the data on the 1×3 survivors.
fn measure(n: usize) -> SizeResult {
    const NB: usize = 64;
    let uni = Universe::new(4, 1, NetModel::gigabit_ethernet());
    // Per-rank (replicate, checkpoint, restore) virtual-time deltas.
    let deltas: Arc<Mutex<Vec<(f64, f64, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&deltas);
    uni.launch(4, None, "recovery-bench", move |comm| {
        let me = comm.rank();
        let s = Descriptor::square(n, NB, 2, 2);
        let d = Descriptor::new(n, n, NB, NB, 1, 3);
        let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * n + j) as f64);

        // With RESHAPE_TRACE set, each phase becomes a span under a per-size
        // root (trace id = N), stamped with the simulator's virtual clock.
        let root = if me == 0 {
            trace::begin(
                n as u64,
                0,
                format!("recovery n={n}"),
                "job",
                "recovery",
                comm.vtime(),
            )
        } else {
            0
        };

        let t0 = comm.vtime();
        let store = BuddyStore::replicate(&comm, std::slice::from_ref(&src));
        let t_rep = comm.vtime() - t0;
        if me == 0 {
            trace::complete(
                n as u64,
                root,
                "buddy_replicate",
                "redist",
                "recovery",
                t0,
                t0 + t_rep,
            );
        }

        // Checkpoint/restart round trip onto the survivors. All four ranks
        // take part in the funnel (the checkpoint is written while the
        // soon-to-die rank is still alive); only ranks 0..3 receive.
        let t0 = comm.vtime();
        let out = checkpoint_redistribute(&comm, s, d, Some(&src), &CheckpointParams::default())
            .expect("every rank is alive and in the source grid");
        let t_ck = comm.vtime() - t0;
        assert_eq!(out.is_some(), me < 3, "1x3 grid covers ranks 0..3");
        if me == 0 {
            trace::complete(
                n as u64,
                root,
                "ckpt_roundtrip",
                "redist",
                "recovery",
                t0,
                t0 + t_ck,
            );
        }

        // Buddy restore: rank 3 is dead from here on and sits out. The
        // survivors rebuild its panel from rank 0's ward copy, landing
        // directly in the shrunken layout — no disk, no rank-0 funnel.
        let mut t_rec = 0.0;
        if me != 3 {
            let survivors = [0usize, 1, 2];
            let mine = store.own_snapshot(0);
            let t0 = comm.vtime();
            let out = recover_matrix(&comm, &survivors, &mine, &store, 0, d)
                .expect("rank 3's buddy (rank 0) is alive");
            t_rec = comm.vtime() - t0;
            assert!(out.is_some(), "every survivor owns part of the 1x3 layout");
            if me == 0 {
                trace::complete(
                    n as u64,
                    root,
                    "buddy_restore",
                    "recovery",
                    "recovery",
                    t0,
                    t0 + t_rec,
                );
            }
        }
        if me == 0 {
            trace::end(root, comm.vtime());
        }
        sink.lock().expect("delta sink").push((t_rep, t_ck, t_rec));
    })
    .join_ok();

    let deltas = deltas.lock().expect("delta sink");
    let max = |f: &dyn Fn(&(f64, f64, f64)) -> f64| deltas.iter().map(f).fold(0.0, f64::max);
    let buddy_replicate_s = max(&|d| d.0);
    let ckpt_roundtrip_s = max(&|d| d.1);
    let buddy_restore_s = max(&|d| d.2);
    let buddy_total_s = buddy_replicate_s + buddy_restore_s;
    SizeResult {
        n,
        volume_mb: (n * n * 8) as f64 / 1e6,
        buddy_replicate_s,
        buddy_restore_s,
        buddy_total_s,
        ckpt_roundtrip_s,
        ckpt_analytic_s: checkpoint_cost(
            n,
            n,
            8,
            4,
            3,
            &NetModel::gigabit_ethernet(),
            &CheckpointParams::default(),
        ),
        speedup: ckpt_roundtrip_s / buddy_total_s,
    }
}

fn main() {
    reshape_bench::telemetry_from_args();
    let max_n: usize = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .and_then(|a| a.parse().ok())
        .unwrap_or(4096);
    let results: Vec<SizeResult> = [512usize, 1024, 2048, 4096]
        .iter()
        .filter(|&&n| n <= max_n)
        .map(|&n| measure(n))
        .collect();

    println!("Node-loss recovery: buddy shrink-to-survivors vs checkpoint/restart");
    println!("(4 ranks, one death, recover onto 3; virtual seconds, gigabit model)\n");
    let mut table = Table::new(vec![
        "N",
        "volume (MB)",
        "buddy replicate (s)",
        "buddy restore (s)",
        "buddy total (s)",
        "ckpt round trip (s)",
        "ckpt analytic (s)",
        "speedup",
    ]);
    for r in &results {
        table.row(vec![
            r.n.to_string(),
            format!("{:.1}", r.volume_mb),
            format!("{:.4}", r.buddy_replicate_s),
            format!("{:.4}", r.buddy_restore_s),
            format!("{:.4}", r.buddy_total_s),
            format!("{:.4}", r.ckpt_roundtrip_s),
            format!("{:.4}", r.ckpt_analytic_s),
            format!("{:.1}x", r.speedup),
        ]);
    }
    table.print();
    println!(
        "\nBoth paths replay the iterations since their last save point; with\n\
         equal save intervals that cost cancels, so the table is the whole\n\
         difference. The buddy path also never touches rank 0's disk, so the\n\
         gap widens with cluster size (the funnel serializes at one NIC)."
    );

    if let Some(path) = json_arg() {
        write_json(&path, &results);
    }
    // With RESHAPE_TRACE set, export the per-phase spans (replicate /
    // checkpoint round trip / restore, one trace per problem size).
    if trace::enabled() {
        trace::write_trace_files(&trace::drain_spans());
    }
    reshape_telemetry::flush();
}
