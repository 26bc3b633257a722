//! The benchmark's names: workloads, end-to-end metrics and the per-layer
//! ledger. `BENCHMARK.json` repeats the names, units and directions; the
//! smoke test fails if the two drift apart.

use std::collections::BTreeMap;

pub struct WorkloadDef {
    pub name: &'static str,
    /// Why the workload exists (one line, recorded in `BENCHMARK.json`).
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "des-paced",
        why: "Headline 10k-node/1M-job scale path at 0.7 load: the queue stays empty, so time goes to the event queue, SchedulerCore transitions on an uncontended pool and fold/prune; bypasses queue handling.",
    },
    WorkloadDef {
        name: "des-saturated",
        why: "Arrivals exceed capacity (1.25 load, 512 nodes, 30k jobs): the FCFS queue grows into the thousands and shrinks fire, so core queue handling does nearly all the work; mirror image of des-paced.",
    },
    WorkloadDef {
        name: "fed-steady",
        why: "First end-to-end federated jobs/s: 64 shards, 8 tenants, 200k jobs at 0.7 load, 1% wide jobs forcing leases; cost is router admit + core + WAL append + SLO sampling, and peak RSS tracks slo.samples.",
    },
    WorkloadDef {
        name: "fed-recover",
        why: "Same layers used the other way: 100 scripted shard kills make the WAL be read (decode + replay from genesis per recovery), plus 10 partitions; a WAL that speeds append but slows replay shows here.",
    },
    WorkloadDef {
        name: "resize-cycle",
        why: "Only workload where the data plane works: 8 jobs each spawn+merge, expand- and shrink-redistribute a 128 MiB block-cyclic matrix on 4 real rank threads; the control plane is idle.",
    },
];

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// How much worse than the parent's median, as a share of it, the metric
    /// may get before a change counts as a regression.
    pub bound: f64,
}

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Which end-to-end metric@workload the layer should move.
    pub moves: &'static str,
}

const fn e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEndDef {
    EndToEndDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
    }
}

/// `fail_ratio` is computed, printed and held exactly equal by `selfcheck`,
/// but is not listed here: the accepting contract wants metrics that are
/// never 0 and carries failures as `attempted`/`failed` instead.
pub const END_TO_END: &[EndToEndDef] = &[
    e("wall_s", "s", "lower", 0.25),
    e("jobs_per_s", "jobs/s", "higher", 0.25),
    e("virtual_s", "s", "lower", 0.05),
    e("peak_rss_mib", "MiB", "lower", 0.25),
    e("setup_s", "s", "lower", 0.25),
];

const DES: &str = "wall_s, jobs_per_s @ des-*";
const SAT: &str = "wall_s @ des-saturated; ~half of wall_s @ des-paced; jobs_per_s @ fed-steady";
const STEADY: &str = "jobs_per_s @ fed-steady";
const RECOVER: &str = "wall_s @ fed-recover";
const RESIZE_WALL: &str = "wall_s @ resize-cycle";
const RESIZE_VIRT: &str = "virtual_s @ resize-cycle";
const NONE: &str = "nothing end-to-end (tracing is off there)";

pub const PER_LAYER: &[LayerDef] = &[
    // clustersim::event
    m(
        "event.push_pop_ns",
        "ns",
        "lower",
        "wall_s @ des-paced, by at most push_pop_ns / des.ns_per_event",
    ),
    m(
        "event.peak_queued",
        "count",
        "lower",
        "sizes the event.push_pop_ns probe",
    ),
    // clustersim::des
    m("des.events", "count", "lower", DES),
    m("des.events_per_s", "1/s", "higher", DES),
    m("des.ns_per_event", "ns", "lower", DES),
    m("des.dispatch_self_ns_per_event", "ns", "lower", DES),
    m("des.driver_self_ns_per_event", "ns", "lower", DES),
    m(
        "des.peak_queue_depth",
        "count",
        "lower",
        "separates des-saturated from des-paced",
    ),
    m(
        "des.expansions",
        "count",
        "higher",
        "virtual_s @ des-* (model change only)",
    ),
    m(
        "des.shrinks",
        "count",
        "higher",
        "virtual_s @ des-saturated (model change only)",
    ),
    m(
        "des.records_pruned",
        "count",
        "higher",
        "peak_rss_mib @ des-*",
    ),
    m(
        "des.utilization",
        "ratio",
        "higher",
        "virtual_s @ des-* (model change only)",
    ),
    m(
        "des.replica_faithful",
        "flag",
        "higher",
        "validity of the des.* and core.* self-times",
    ),
    // core::core
    m("core.submit_calls", "count", "lower", SAT),
    m("core.submit_total_ms", "ms", "lower", SAT),
    m("core.submit_p50_ns", "ns", "lower", SAT),
    m("core.submit_p99_ns", "ns", "lower", SAT),
    m("core.resize_point_calls", "count", "lower", SAT),
    m("core.resize_point_total_ms", "ms", "lower", SAT),
    m("core.resize_point_p50_ns", "ns", "lower", SAT),
    m("core.resize_point_p99_ns", "ns", "lower", SAT),
    m("core.on_finished_calls", "count", "lower", SAT),
    m("core.on_finished_total_ms", "ms", "lower", SAT),
    m("core.on_finished_p50_ns", "ns", "lower", SAT),
    m("core.on_finished_p99_ns", "ns", "lower", SAT),
    m("core.fold_total_ms", "ms", "lower", DES),
    m("core.share", "ratio", "lower", SAT),
    // core::pool, core::policy
    m(
        "pool.alloc_release_ns",
        "ns",
        "lower",
        "wall_s @ des-paced (10k slots)",
    ),
    m(
        "policy.decide_ns",
        "ns",
        "lower",
        "wall_s @ des-* via core.resize_point_*",
    ),
    // core::wal
    m("wal.records", "count", "lower", "sizes the wal.* probes"),
    m("wal.bytes_per_record", "bytes", "lower", RECOVER),
    m("wal.append_ns", "ns", "lower", STEADY),
    m("wal.decode_ns_per_record", "ns", "lower", RECOVER),
    m("wal.replay_ns_per_record", "ns", "lower", RECOVER),
    m("wal.encode_ns_per_record", "ns", "lower", RECOVER),
    // federation::fed
    m("router.admit_ns", "ns", "lower", STEADY),
    m("router.queued", "count", "lower", STEADY),
    m("router.shed", "count", "lower", "fail_ratio @ fed-*"),
    m(
        "router.admit_wait_virtual_p99_s",
        "s",
        "lower",
        "virtual_s @ fed-*",
    ),
    m("fed.transitions", "count", "lower", STEADY),
    m("fed.us_per_transition", "us", "lower", STEADY),
    m("fed.event_p50_us", "us", "lower", STEADY),
    m("fed.event_p99_us", "us", "lower", STEADY),
    m(
        "fed.slo_samples",
        "count",
        "lower",
        "peak_rss_mib @ fed-steady",
    ),
    // federation::{lease,bus,shard}
    m(
        "lease.granted",
        "count",
        "lower",
        "wall_s @ fed-steady (its 1% wide jobs)",
    ),
    m(
        "lease.reclaimed",
        "count",
        "lower",
        "wall_s @ fed-steady (its 1% wide jobs)",
    ),
    m("lease.fenced", "count", "lower", RECOVER),
    m(
        "lease.cycle_us",
        "us",
        "lower",
        "wall_s @ fed-steady (its 1% wide jobs)",
    ),
    m("bus.partition_drops", "count", "lower", RECOVER),
    m("heal.repairs", "count", "lower", RECOVER),
    m("recover.count", "count", "lower", RECOVER),
    m("recover.differential_ms_each", "ms", "lower", RECOVER),
    m("recover.snapshot_ms", "ms", "lower", RECOVER),
    // telemetry
    m("telemetry.trace_tax_ratio", "ratio", "lower", NONE),
    m("telemetry.spans", "count", "lower", NONE),
    m("trace.overhead_ratio", "ratio", "lower", NONE),
    // redist::{plan2d,exec}, blockcyclic
    m("plan.plan2d_us", "us", "lower", RESIZE_WALL),
    m("plan.transfers", "count", "lower", RESIZE_VIRT),
    m("pack.ns_per_block", "ns", "lower", RESIZE_WALL),
    m("unpack.ns_per_block", "ns", "lower", RESIZE_WALL),
    m("pack.bytes_per_rank", "bytes", "lower", RESIZE_WALL),
    m("redist.expand_wall_ms", "ms", "lower", RESIZE_WALL),
    m("redist.expand_virtual_s", "s", "lower", RESIZE_VIRT),
    m("redist.shrink_wall_ms", "ms", "lower", RESIZE_WALL),
    m("redist.shrink_virtual_s", "s", "lower", RESIZE_VIRT),
    m("redist.bytes_moved", "bytes", "lower", RESIZE_VIRT),
    m("redist.host_gib_per_s", "GiB/s", "higher", RESIZE_WALL),
    m("transfer.derived_ms", "ms", "lower", RESIZE_WALL),
    // mpisim::spawn
    m("spawn.merge_wall_ms", "ms", "lower", RESIZE_WALL),
    m("spawn.merge_virtual_s", "s", "lower", RESIZE_VIRT),
    // core::{runtime,driver}
    m("runtime.init_ms", "ms", "lower", RESIZE_WALL),
    m("runtime.resize_point_idle_ms", "ms", "lower", RESIZE_WALL),
    m("runtime.expand_gap_ms", "ms", "lower", RESIZE_WALL),
    m("runtime.shrink_gap_ms", "ms", "lower", RESIZE_WALL),
    m("runtime.handshake_derived_ms", "ms", "lower", RESIZE_WALL),
];

/// One traced pass's per-layer values. Every ledger carries every name in
/// [`PER_LAYER`]; a layer the workload does not exercise stays 0.
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    pub fn new() -> Self {
        Ledger(PER_LAYER.iter().map(|d| (d.name, 0.0)).collect())
    }

    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a typo in a workload).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}
