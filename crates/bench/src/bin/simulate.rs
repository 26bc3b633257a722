//! `simulate` — run an arbitrary workload through the ReSHAPE cluster
//! simulator from a JSON description.
//!
//! ```text
//! cargo run -p reshape-bench --bin simulate -- workload.json [--json out.json] [--summary-json out.json] [--top]
//! cargo run -p reshape-bench --bin simulate -- --nodes 10000 --jobs 1000000 [--seed S] [--summary-json out.json]
//! cargo run -p reshape-bench --bin simulate -- --print-example
//! ```
//!
//! Both run modes accept `--tie-break fifo|seeded:N`, which selects the
//! DES queue's ordering among simultaneous events: `fifo` (default)
//! reproduces the recorded-snapshot order, `seeded:N` permutes
//! same-timestamp events under seed `N` to flush order-dependent policy
//! assumptions (still fully deterministic per seed).
//!
//! The input names the cluster size, queue/remap policies, redistribution
//! mode, optional advance reservations, and the job list (arrival,
//! topology, initial configuration, performance model, priority). Output is
//! the turnaround table plus utilization; `--json` dumps the full
//! [`SimResult`](reshape_clustersim::SimResult), while `--summary-json`
//! writes just the run-summary table (makespan, utilization, turnaround
//! statistics, resize activity) as one flat JSON object for scripts that
//! only want the headline numbers.
//!
//! `--top` replays the run as a live terminal dashboard (pool occupancy,
//! per-job state and iteration-time sparkline, §3.1 decision feed),
//! refreshing on a sim-time cadence. With `RESHAPE_TRACE=trace.json` set,
//! the run also exports a Perfetto-loadable Chrome trace plus a
//! `trace.json.critpath.json` sidecar, and prints the per-job
//! critical-path attribution (compute / queue wait / spawn /
//! redistribution / rollback-replay shares of each turnaround).

use reshape_bench::{json_arg, write_json, Table};
use reshape_clustersim::{AppModel, ClusterSim, MachineParams, RedistMode, SimJob};
use reshape_core::{JobSpec, ProcessorConfig, QueuePolicy, RemapPolicy, TopologyPref};
use serde::Deserialize;

#[derive(Deserialize)]
struct WorkloadFile {
    total_procs: usize,
    #[serde(default = "default_queue")]
    queue_policy: QueuePolicy,
    #[serde(default = "default_remap")]
    remap_policy: RemapPolicy,
    #[serde(default = "default_redist")]
    redist_mode: RedistMode,
    /// `(start, end, procs)` advance reservations.
    #[serde(default)]
    reservations: Vec<(f64, f64, usize)>,
    jobs: Vec<JobFile>,
}

fn default_queue() -> QueuePolicy {
    QueuePolicy::Fcfs
}
fn default_remap() -> RemapPolicy {
    RemapPolicy::Paper
}
fn default_redist() -> RedistMode {
    RedistMode::Reshape
}

#[derive(Deserialize)]
struct JobFile {
    name: String,
    arrival: f64,
    iterations: usize,
    topology: TopologyPref,
    /// `[rows, cols]`.
    initial: (usize, usize),
    model: AppModel,
    #[serde(default)]
    priority: u8,
    #[serde(default, rename = "static")]
    static_: bool,
    #[serde(default)]
    cancel_at: Option<f64>,
    #[serde(default)]
    fail_at: Option<f64>,
    /// Owning tenant for federated/multi-tenant admission (0 = untenanted).
    #[serde(default)]
    tenant: u32,
}

const EXAMPLE: &str = r#"{
  "total_procs": 36,
  "queue_policy": "Fcfs",
  "remap_policy": "Paper",
  "redist_mode": "Reshape",
  "reservations": [],
  "jobs": [
    {
      "name": "LU",
      "arrival": 0.0,
      "iterations": 10,
      "topology": { "Grid": { "problem_size": 21000 } },
      "initial": [2, 3],
      "model": { "Lu": { "n": 21000 } }
    },
    {
      "name": "Master-worker",
      "arrival": 450.0,
      "iterations": 10,
      "priority": 2,
      "topology": { "AnyCount": { "min": 2, "max": 22, "step": 2 } },
      "initial": [1, 2],
      "model": { "MasterWorker": { "units": 20000, "unit_time": 0.0007375 } }
    }
  ]
}"#;

/// Parse `--summary-json <path>` from argv.
fn summary_json_arg(args: &[String]) -> Option<std::path::PathBuf> {
    args.iter()
        .position(|a| a == "--summary-json")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
}

/// Parse a `--flag <value>` numeric option.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let raw = args
        .iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("simulate: {flag} expects a number, got `{raw}`");
            std::process::exit(2);
        }
    }
}

/// Parse `--tie-break fifo|seeded:N`: the ordering of simultaneous DES
/// events. `fifo` (the default) reproduces the recorded-snapshot order;
/// `seeded:N` runs the same workload under a seeded permutation of
/// same-timestamp events to flush order-dependent policy assumptions.
fn tie_break_arg(args: &[String]) -> reshape_clustersim::TieBreak {
    let Some(raw) = args
        .iter()
        .position(|a| a == "--tie-break")
        .and_then(|i| args.get(i + 1))
    else {
        return reshape_clustersim::TieBreak::Fifo;
    };
    if raw == "fifo" {
        return reshape_clustersim::TieBreak::Fifo;
    }
    if let Some(seed) = raw.strip_prefix("seeded:") {
        if let Ok(s) = seed.parse() {
            return reshape_clustersim::TieBreak::Seeded(s);
        }
    }
    eprintln!("simulate: --tie-break expects `fifo` or `seeded:N`, got `{raw}`");
    std::process::exit(2);
}

/// The scale sweep (`--nodes N --jobs M`): a synthetic seeded job stream
/// through the DES core — no workload file, no per-rank threads, sized for
/// thousands of nodes and millions of jobs in one process.
fn run_scale_sweep(args: &[String], nodes: usize) {
    let jobs: u64 = flag_value(args, "--jobs").unwrap_or(10_000);
    let mut cfg = reshape_clustersim::ScaleConfig::new(nodes, jobs);
    if let Some(seed) = flag_value(args, "--seed") {
        cfg.seed = seed;
    }
    if let Some(pct) = flag_value(args, "--resizable") {
        cfg.resizable_percent = pct;
    }
    if let Some(iters) = flag_value(args, "--iters") {
        cfg.max_iterations = iters;
    }
    cfg.tie_break = tie_break_arg(args);
    let r = reshape_clustersim::run_scale(&cfg);
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["nodes".into(), r.nodes.to_string()]);
    table.row(vec!["jobs".into(), r.jobs.to_string()]);
    table.row(vec!["seed".into(), r.seed.to_string()]);
    table.row(vec![
        "finished / failed / cancelled".into(),
        format!(
            "{} / {} / {}",
            r.jobs_finished, r.jobs_failed, r.jobs_cancelled
        ),
    ]);
    table.row(vec![
        "expansions / shrinks".into(),
        format!("{} / {}", r.expansions, r.shrinks),
    ]);
    table.row(vec![
        "makespan (virtual s)".into(),
        format!("{:.0}", r.makespan),
    ]);
    table.row(vec![
        "utilization".into(),
        format!("{:.1}%", r.utilization * 100.0),
    ]);
    table.row(vec![
        "peak queue depth".into(),
        r.peak_queue_depth.to_string(),
    ]);
    table.row(vec!["records pruned".into(), r.records_pruned.to_string()]);
    table.row(vec![
        "events processed".into(),
        r.events_processed.to_string(),
    ]);
    table.row(vec![
        "wall (s) / events per sec".into(),
        format!("{:.2} / {:.0}", r.wall_seconds, r.events_per_sec),
    ]);
    table.print();
    if let Some(out) = summary_json_arg(args) {
        write_json(&out, &r);
    }
}

fn main() {
    reshape_bench::telemetry_from_args();
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--print-example") {
        println!("{EXAMPLE}");
        return;
    }
    let top = args.iter().any(|a| a == "--top");
    if top && reshape_telemetry::mode() == reshape_telemetry::Mode::Off {
        // The dashboard's decision feed reads the telemetry journal.
        reshape_telemetry::set_mode(reshape_telemetry::Mode::Text);
    }
    // Scale mode bypasses the workload file entirely: the job stream is
    // derived from the seed inside the DES core.
    if let Some(nodes) = flag_value(&args, "--nodes") {
        run_scale_sweep(&args, nodes);
        return;
    }
    let path = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| {
            eprintln!(
                "usage: simulate <workload.json> [--json out.json] [--top] [--tie-break fifo|seeded:N] | --print-example\n\
                 \x20      simulate --nodes N --jobs M [--seed S] [--resizable PCT] [--iters K] [--tie-break fifo|seeded:N] [--summary-json out.json]"
            );
            std::process::exit(2);
        });
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let wf: WorkloadFile = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("invalid workload file {path}: {e}");
        std::process::exit(2);
    });

    let jobs: Vec<SimJob> = wf
        .jobs
        .into_iter()
        .map(|j| {
            if let Some(t) = j.cancel_at {
                if t < j.arrival {
                    eprintln!(
                        "job '{}': cancel_at {t} precedes arrival {}",
                        j.name, j.arrival
                    );
                    std::process::exit(2);
                }
            }
            if let Some(t) = j.fail_at {
                if t < j.arrival {
                    eprintln!(
                        "job '{}': fail_at {t} precedes arrival {}",
                        j.name, j.arrival
                    );
                    std::process::exit(2);
                }
            }
            let mut spec = JobSpec::new(
                j.name,
                j.topology,
                ProcessorConfig::new(j.initial.0, j.initial.1),
                j.iterations,
            )
            .with_priority(j.priority);
            if j.static_ {
                spec = spec.static_job();
            }
            SimJob {
                spec,
                model: j.model,
                arrival: j.arrival,
                cancel_at: j.cancel_at,
                fail_at: j.fail_at,
                tenant: j.tenant,
            }
        })
        .collect();

    let mut sim = ClusterSim::new(wf.total_procs, MachineParams::system_x())
        .with_policy(wf.queue_policy)
        .with_remap_policy(wf.remap_policy)
        .with_redist_mode(wf.redist_mode)
        .with_des_tie_break(tie_break_arg(&args));
    for (s, e, p) in wf.reservations {
        sim = sim.with_reservation(s, e, p);
    }
    let result = sim.run(&jobs);

    if top {
        // Replay the completed run at ~16 frames/s, each frame sampling
        // cluster state at an evenly spaced virtual time. Deterministic
        // content (only the refresh pacing is wall-clock).
        use std::io::Write as _;
        let decisions = reshape_telemetry::snapshot_events();
        let frames = 48u32;
        for f in 0..=frames {
            let t = result.makespan * f as f64 / frames as f64;
            print!(
                "\x1b[2J\x1b[H{}",
                reshape_clustersim::dashboard::frame(&result, &decisions, t, 100)
            );
            std::io::stdout().flush().ok();
            std::thread::sleep(std::time::Duration::from_millis(60));
        }
        println!();
    }

    let mut table = Table::new(vec![
        "job",
        "arrival",
        "started",
        "finished",
        "turnaround",
        "redist (s)",
    ]);
    for j in &result.jobs {
        table.row(vec![
            j.name.clone(),
            format!("{:.0}", j.submitted),
            format!("{:.0}", j.started),
            format!("{:.0}", j.finished),
            format!("{:.1}", j.turnaround),
            format!("{:.1}", j.redist_total),
        ]);
    }
    table.print();
    println!(
        "utilization {:.1}%  makespan {:.0}s  ({} processors)",
        result.utilization * 100.0,
        result.makespan,
        result.total_procs
    );

    // End-of-run snapshot (SimResult::telemetry): the paper's aggregate
    // quantities — utilization, turnaround statistics, resize activity.
    let t = &result.telemetry;
    println!("\n-- run summary --");
    let mut summary = Table::new(vec!["metric", "value"]);
    summary.row(vec![
        "jobs finished / failed / cancelled".to_string(),
        format!(
            "{} / {} / {}",
            t.jobs_finished, t.jobs_failed, t.jobs_cancelled
        ),
    ]);
    summary.row(vec![
        "expansions / shrinks".to_string(),
        format!("{} / {}", t.expansions, t.shrinks),
    ]);
    summary.row(vec![
        "utilization".to_string(),
        format!("{:.1}%", t.utilization * 100.0),
    ]);
    summary.row(vec![
        "turnaround mean / p95 / max (s)".to_string(),
        format!(
            "{:.1} / {:.1} / {:.1}",
            t.mean_turnaround, t.p95_turnaround, t.max_turnaround
        ),
    ]);
    summary.row(vec![
        "compute / redistribution (s)".to_string(),
        format!(
            "{:.1} / {:.1}",
            t.compute_seconds_total, t.redist_seconds_total
        ),
    ]);
    summary.row(vec![
        "bytes redistributed".to_string(),
        t.bytes_redistributed.to_string(),
    ]);
    summary.print();

    // Publish cluster-level series (per-window utilization, queue wait,
    // resize counts) into the registry for the OpenMetrics exporter.
    result.publish_metrics(8);

    if let Some(out) = summary_json_arg(&args) {
        let flat = serde_json::json!({
            "makespan": result.makespan,
            "total_procs": result.total_procs,
            "jobs_finished": t.jobs_finished,
            "jobs_failed": t.jobs_failed,
            "jobs_cancelled": t.jobs_cancelled,
            "expansions": t.expansions,
            "shrinks": t.shrinks,
            "utilization": t.utilization,
            "mean_turnaround": t.mean_turnaround,
            "p95_turnaround": t.p95_turnaround,
            "max_turnaround": t.max_turnaround,
            "compute_seconds_total": t.compute_seconds_total,
            "redist_seconds_total": t.redist_seconds_total,
            "bytes_redistributed": t.bytes_redistributed,
        });
        write_json(&out, &flat);
    }

    // Causal trace: with RESHAPE_TRACE set, print the per-job critical-path
    // attribution and export the Chrome/Perfetto trace (+ the structured
    // `.critpath.json` sidecar for downstream tooling).
    if reshape_telemetry::trace::enabled() {
        let spans = reshape_telemetry::trace::drain_spans();
        let paths = reshape_telemetry::critpath::analyze(&spans);
        if !paths.is_empty() {
            println!("\n-- critical path (per job, seconds) --");
            print!("{}", reshape_telemetry::critpath::render_table(&paths));
        }
        reshape_telemetry::trace::write_trace_files(&spans);
    }

    if let Some(out) = json_arg() {
        write_json(&out, &result);
    }
    reshape_telemetry::flush();
}
