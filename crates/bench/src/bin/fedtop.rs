//! `fedtop` — live text dashboard for the federation control plane, and
//! the CI federation trace-smoke driver.
//!
//! ```text
//! cargo run -p reshape-bench --bin fedtop -- [--interval 2.0] [--windows 4] \
//!     [--flightrec flightrec.jsonl]
//! ```
//!
//! Drives the scripted fence scenario (the same one
//! `reshape_federation::sim`'s tests pin down): two 4-processor shards,
//! a 6-wide job that borrows across the pair, a partition that severs
//! them long enough for the suspicion timeout to fence the lease, and an
//! anti-entropy heal that repairs the ledger. A [`fedtop`] frame —
//! per-shard state, per-tenant quota bars, the live lease table — is
//! printed every `--interval` of virtual time and once more at the end.
//!
//! With `RESHAPE_TRACE=<path>` set, the run exports the Perfetto-loadable
//! causal trace in which the fenced lease's full chain (grant → partition
//! → suspect → epoch bump → fence → heal repair) is connected by parent
//! edges — CI validates it with `trace_check`. `--flightrec <path>` dumps
//! the control-plane flight recorder as JSONL. Per-tenant SLO series go
//! through the OpenMetrics exporter (`RESHAPE_METRICS`).

use reshape_core::{JobSpec, ProcessorConfig, TopologyPref};
use reshape_federation::sim::{run_with_fed, FedJob, FedSimConfig, PartitionPlan, SloSamples};
use reshape_federation::{fedtop, TenantConfig};

fn scripted_fence_scenario() -> FedSimConfig {
    let spec = |name: &str, procs, iters| {
        JobSpec::new(
            name,
            TopologyPref::AnyCount {
                min: 1,
                max: 64,
                step: 1,
            },
            ProcessorConfig::linear(procs),
            iters,
        )
    };
    let mk = |name: &str, procs, iters, arrival, work| FedJob {
        tenant: 0,
        spec: spec(name, procs, iters),
        arrival,
        work,
        fail_at: None,
        cancel_at: None,
    };
    // `big` borrows 2 procs from `fill`'s shard, then the pair is severed
    // long enough for suspicion to fence the lease; the heal repairs.
    let jobs = vec![mk("fill", 2, 30, 0.0, 4.0), mk("big", 6, 30, 1.0, 6.0)];
    let tenants = vec![TenantConfig::new(32, 1.0, 16)];
    let mut cfg = FedSimConfig::new(vec![4, 4], tenants, jobs);
    cfg.lease.min_spare = 0;
    cfg.lease.term = 60.0;
    cfg.lease.grace = 10.0;
    cfg.lease.suspicion = 5.0;
    cfg.partitions = vec![PartitionPlan {
        groups: vec![vec![0], vec![1]],
        t_start: 5.0,
        t_heal: 25.0,
    }];
    cfg
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let interval = get("--interval")
        .map(|v| v.parse::<f64>().expect("--interval takes virtual seconds"))
        .unwrap_or(2.0)
        .max(1e-6);
    let windows: usize = get("--windows")
        .map(|v| v.parse().expect("--windows takes a count"))
        .unwrap_or(4);
    let flightrec_out = get("--flightrec");

    let mut next_frame = 0.0f64;
    let mut samples = SloSamples::default();
    let (mut report, fed) = run_with_fed(scripted_fence_scenario(), |fed, t| {
        samples.record(fed, t);
        if t >= next_frame {
            print!("{}", fedtop::frame(fed, t));
            println!();
            next_frame = (t / interval).floor() * interval + interval;
        }
    });
    print!("{}", fedtop::frame(&fed, fed.now()));
    println!(
        "\nrun: {} submitted / {} finished · {} leases granted, {} fenced, {} reclaimed · \
         {} heal repairs · {} partitions healed",
        report.submitted,
        report.finished,
        report.leases_granted,
        report.leases_fenced,
        report.leases_reclaimed,
        report.heal_repairs,
        report.partitions_healed,
    );

    // Per-tenant SLO series (admit latency, queue depth, shed rate, quota
    // utilization) into the registry for the OpenMetrics exporter.
    report.slo.samples = samples;
    report.publish_metrics(windows);

    if let Some(path) = flightrec_out {
        let dump = fed.flightrec().dump_jsonl();
        std::fs::write(&path, dump).unwrap_or_else(|e| {
            eprintln!("fedtop: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "flight recorder: {} events ({} dropped) -> {path}",
            fed.flightrec().len(),
            fed.flightrec().dropped()
        );
    }

    // Causal trace: with RESHAPE_TRACE set, export the Chrome/Perfetto
    // trace (lease + shard-control traces) for trace_check.
    if reshape_telemetry::trace::enabled() {
        let spans = reshape_telemetry::trace::drain_spans();
        println!("trace: {} spans exported", spans.len());
        reshape_telemetry::trace::write_trace_files(&spans);
    }
    reshape_telemetry::flush();
}
