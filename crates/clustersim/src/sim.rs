//! The discrete-event cluster simulator.
//!
//! Runs the *actual* [`SchedulerCore`] (queue, FCFS/backfill, Performance
//! Profiler, Remap Scheduler policy) against jobs whose iteration times come
//! from calibrated [`AppModel`]s and whose redistribution costs come from
//! real communication schedules. This is how the paper-scale experiments
//! (Figures 3–5, Tables 4–5: 36 processors, matrices up to 24000²) run in
//! milliseconds while exercising exactly the scheduling code a real cluster
//! would.

use std::cell::RefCell;
use std::rc::Rc;

use reshape_core::{
    Directive, EventKind, JobId, JobSpec, QueuePolicy, SchedEvent, SchedulerCore, StartAction,
};
use serde::{Deserialize, Serialize};

use crate::des::{ComponentId, EventHandler, SimCtx, Simulation};
use crate::perfmodel::{AppModel, MachineParams, RedistMode};

/// A job to simulate: scheduler-visible spec + performance model + arrival.
#[derive(Clone, Debug)]
pub struct SimJob {
    pub spec: JobSpec,
    pub model: AppModel,
    pub arrival: f64,
    /// Optional user cancellation time (absolute); queued jobs leave the
    /// queue then, running jobs terminate at their next resize point.
    pub cancel_at: Option<f64>,
    /// Optional failure-injection time: the job dies with an application
    /// error (the System Monitor path — resources reclaimed immediately).
    pub fail_at: Option<f64>,
    /// Owning tenant, consumed by the federation router when a workload is
    /// fed through multi-tenant admission. The single-cluster simulator
    /// ignores it entirely; `0` is the conventional "untenanted" id.
    pub tenant: u32,
}

/// Per-job outcome of a simulation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobOutcome {
    pub name: String,
    pub job: JobId,
    pub initial_procs: usize,
    pub submitted: f64,
    pub started: f64,
    pub finished: f64,
    /// Completion time minus submission time (the paper's Tables 4/5
    /// metric).
    pub turnaround: f64,
    /// Total seconds spent redistributing data.
    pub redist_total: f64,
    /// Total seconds spent computing iterations.
    pub compute_total: f64,
    /// `(time, procs)` allocation history.
    pub alloc_history: Vec<(f64, usize)>,
    /// Per-iteration records as seen by the Performance Profiler (one per
    /// resize point: configuration, iteration time, redistribution time
    /// paid just before it). The final iteration has no resize point and
    /// is therefore not recorded — exactly as in the real framework.
    pub iter_log: Vec<reshape_core::PerfRecord>,
}

/// End-of-run telemetry snapshot: the aggregate quantities the paper reports
/// (utilization, turnaround statistics, resize activity), computed from the
/// simulation itself — always populated, independent of the
/// `RESHAPE_TELEMETRY` mode.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SimTelemetry {
    pub jobs_finished: usize,
    pub jobs_failed: usize,
    pub jobs_cancelled: usize,
    pub expansions: usize,
    pub shrinks: usize,
    pub utilization: f64,
    /// Turnaround statistics over jobs that ran to completion.
    pub mean_turnaround: f64,
    pub p95_turnaround: f64,
    pub max_turnaround: f64,
    pub compute_seconds_total: f64,
    pub redist_seconds_total: f64,
    /// Network bytes moved by resizing redistributions (ReSHAPE mode only —
    /// the checkpoint baseline funnels through disk instead).
    pub bytes_redistributed: u64,
}

/// One fixed-width slice of simulated time in [`SimResult::window_series`]:
/// the cluster-level trends (utilization, queue pressure, resize activity)
/// that end-of-run scalars average away.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowSample {
    /// 0-based window index; the window spans `[start, end)`.
    pub index: usize,
    pub start: f64,
    pub end: f64,
    /// Mean fraction of cluster processors assigned to jobs in the window.
    pub utilization: f64,
    /// Queued-job-seconds accrued inside the window (sum over jobs of the
    /// overlap between their `[submitted, started)` interval and the
    /// window).
    pub queue_wait_s: f64,
    /// Mean number of queued jobs over the window (`queue_wait_s / width`).
    pub queue_depth: f64,
    /// Expansions + shrinks actuated inside the window.
    pub resizes: usize,
}

/// Complete result of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimResult {
    pub jobs: Vec<JobOutcome>,
    pub events: Vec<SchedEvent>,
    pub makespan: f64,
    /// Mean fraction of cluster cpu-seconds assigned to jobs over the
    /// makespan (the paper's utilization metric).
    pub utilization: f64,
    pub total_procs: usize,
    /// Aggregate observability snapshot (see [`SimTelemetry`]).
    #[serde(default)]
    pub telemetry: SimTelemetry,
}

impl SimResult {
    /// Busy-processor step series `(time, busy)` (Figures 4(b)/5(b)).
    pub fn busy_series(&self) -> Vec<(f64, usize)> {
        let mut busy = 0usize;
        let mut per_job: std::collections::HashMap<JobId, usize> = Default::default();
        let mut out = vec![(0.0, 0)];
        for e in &self.events {
            match &e.kind {
                EventKind::Started { config } => {
                    busy += config.procs();
                    per_job.insert(e.job, config.procs());
                }
                EventKind::Expanded { to, .. }
                | EventKind::Shrunk { to, .. }
                | EventKind::NodeFailed { to, .. } => {
                    let prev = per_job.insert(e.job, to.procs()).unwrap_or(0);
                    busy = busy + to.procs() - prev;
                }
                EventKind::ExpandFailed { from, .. } => {
                    // Failed expansion reverts the allocation to `from`.
                    let prev = per_job.insert(e.job, from.procs()).unwrap_or(0);
                    busy = busy + from.procs() - prev;
                }
                EventKind::Finished | EventKind::Failed { .. } | EventKind::Cancelled => {
                    busy -= per_job.remove(&e.job).unwrap_or(0);
                }
                EventKind::Submitted => continue,
            }
            out.push((e.time, busy));
        }
        out
    }

    /// Cluster-level time series: split the makespan into `nwindows` equal
    /// windows and report, per window, mean utilization, queue pressure,
    /// and resize activity. This is the feed for the OpenMetrics exporter
    /// ([`SimResult::publish_metrics`]) and for trend dashboards — scalar
    /// end-of-run aggregates hide exactly the transients (arrival bursts,
    /// backfill gaps) that resizing policies exist to absorb.
    ///
    /// # Panics
    ///
    /// Panics if `nwindows == 0`.
    pub fn window_series(&self, nwindows: usize) -> Vec<WindowSample> {
        assert!(nwindows > 0, "need at least one window");
        let span = self.makespan.max(f64::MIN_POSITIVE);
        let len = span / nwindows as f64;
        let busy = self.busy_series();

        // Integral of the busy step function over [a, b).
        let busy_integral = |a: f64, b: f64| -> f64 {
            let mut acc = 0.0;
            let mut cur = 0usize;
            let mut t = a;
            for &(st, p) in &busy {
                if st <= a {
                    cur = p;
                    continue;
                }
                if st >= b {
                    break;
                }
                acc += cur as f64 * (st - t);
                t = st;
                cur = p;
            }
            acc + cur as f64 * (b - t)
        };

        (0..nwindows)
            .map(|i| {
                let (start, end) = (i as f64 * len, (i + 1) as f64 * len);
                let queue_wait_s: f64 = self
                    .jobs
                    .iter()
                    .map(|j| (j.started.min(end) - j.submitted.max(start)).max(0.0))
                    .sum();
                // Half-open windows; the final one is closed so an event at
                // exactly `makespan` is not dropped.
                let in_window = |t: f64| t >= start && (t < end || (i + 1 == nwindows && t <= end));
                let resizes = self
                    .events
                    .iter()
                    .filter(|e| {
                        matches!(
                            e.kind,
                            EventKind::Expanded { .. } | EventKind::Shrunk { .. }
                        ) && in_window(e.time)
                    })
                    .count();
                WindowSample {
                    index: i,
                    start,
                    end,
                    utilization: busy_integral(start, end) / (self.total_procs as f64 * len),
                    queue_wait_s,
                    queue_depth: queue_wait_s / len,
                    resizes,
                }
            })
            .collect()
    }

    /// Publish the run into the global telemetry registry: overall gauges
    /// plus per-window labeled series (`reshape_sim_utilization{window="k"}`
    /// and friends) that `RESHAPE_METRICS` exports in OpenMetrics format.
    /// No-op when telemetry is off.
    pub fn publish_metrics(&self, nwindows: usize) {
        if !reshape_telemetry::enabled() {
            return;
        }
        reshape_telemetry::gauge_set("reshape_sim_makespan_seconds", self.makespan);
        reshape_telemetry::gauge_set("reshape_sim_utilization_overall", self.utilization);
        reshape_telemetry::gauge_set("reshape_sim_total_procs", self.total_procs as f64);
        reshape_telemetry::gauge_set(
            "reshape_sim_jobs_finished",
            self.telemetry.jobs_finished as f64,
        );
        reshape_telemetry::gauge_set(
            "reshape_sim_mean_turnaround_seconds",
            self.telemetry.mean_turnaround,
        );
        reshape_telemetry::gauge_set(
            "reshape_sim_bytes_redistributed",
            self.telemetry.bytes_redistributed as f64,
        );
        for w in self.window_series(nwindows) {
            let window = w.index.to_string();
            let labels = [("window", window.as_str())];
            reshape_telemetry::gauge_labeled("reshape_sim_utilization", &labels, w.utilization);
            reshape_telemetry::gauge_labeled(
                "reshape_sim_queue_wait_seconds",
                &labels,
                w.queue_wait_s,
            );
            reshape_telemetry::gauge_labeled("reshape_sim_queue_depth", &labels, w.queue_depth);
            reshape_telemetry::gauge_labeled("reshape_sim_resizes", &labels, w.resizes as f64);
        }
    }

    /// Render the run as an ASCII chart: one row per job showing its
    /// processor allocation over time (digit buckets 1-9, `#` for ≥ 10×
    /// scale overflow), plus a cluster-occupancy row — a terminal rendition
    /// of the paper's Figures 4/5.
    pub fn gantt(&self, width: usize) -> String {
        assert!(width >= 10, "need a few columns to draw anything");
        let span = self.makespan.max(1e-9);
        let name_w = self
            .jobs
            .iter()
            .map(|j| j.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let sample = |series: &[(f64, usize)], t: f64| -> usize {
            let mut cur = 0;
            for &(st, p) in series {
                if st > t {
                    break;
                }
                cur = p;
            }
            cur
        };
        let glyph = |p: usize| -> char {
            match p {
                0 => '.',
                1..=9 => (b'0' + p as u8) as char,
                10..=35 => (b'a' + (p - 10) as u8) as char,
                _ => '#',
            }
        };
        let mut out = String::new();
        for j in &self.jobs {
            out.push_str(&format!("{:>name_w$} |", j.name));
            for c in 0..width {
                let t = span * (c as f64 + 0.5) / width as f64;
                out.push(glyph(sample(&j.alloc_history, t)));
            }
            out.push('\n');
        }
        let busy = self.busy_series();
        out.push_str(&format!("{:>name_w$} |", "busy"));
        for c in 0..width {
            let t = span * (c as f64 + 0.5) / width as f64;
            out.push(glyph(sample(&busy, t)));
        }
        out.push('\n');
        out.push_str(&format!(
            "{:>name_w$} |0{:>pad$}",
            "t(s)",
            format!("{span:.0}"),
            pad = width - 1
        ));
        out.push('\n');
        out
    }
}

/// Simulator event payloads, all handled by the [`ClusterEngine`]. Under
/// the default FIFO tie-break, simultaneous events pop in the order they
/// were scheduled, which is the order the recorded snapshots were taken
/// under.
enum Ev {
    Arrival(usize),
    IterationEnd(JobId),
    Cancel(usize),
    Fail(usize),
}

/// One job's part of the run's trace.
#[derive(Default)]
struct Trail {
    /// `(time, procs)` allocation history.
    alloc: Vec<(f64, usize)>,
    expansions: usize,
    shrinks: usize,
}

struct JobSim {
    model: AppModel,
    iterations: usize,
    done: usize,
    last_iter_time: f64,
    last_redist: f64,
    redist_total: f64,
    compute_total: f64,
}

/// The simulator.
///
/// ```
/// use reshape_clustersim::{AppModel, ClusterSim, MachineParams, SimJob};
/// use reshape_core::{JobSpec, ProcessorConfig, TopologyPref};
///
/// let job = SimJob {
///     spec: JobSpec::new(
///         "LU",
///         TopologyPref::Grid { problem_size: 12000 },
///         ProcessorConfig::new(1, 2),
///         10,
///     ),
///     model: AppModel::Lu { n: 12000 },
///     arrival: 0.0,
///     cancel_at: None,
///     fail_at: None,
///     tenant: 0,
/// };
/// let result = ClusterSim::new(36, MachineParams::system_x()).run(&[job]);
/// assert_eq!(result.jobs.len(), 1);
/// // The idle cluster lets the job grow beyond its 2 initial processors.
/// assert!(result.jobs[0].alloc_history.iter().any(|&(_, p)| p > 2));
/// ```
pub struct ClusterSim {
    machine: MachineParams,
    total_procs: usize,
    policy: QueuePolicy,
    remap_policy: reshape_core::RemapPolicy,
    redist_mode: RedistMode,
    /// Advance reservations `(start, end, procs)` installed before the run.
    reservations: Vec<(f64, f64, usize)>,
    /// Per-slot speed factors (heterogeneous clusters); empty = homogeneous.
    slot_speeds: Vec<f64>,
    /// Ignore speeds when allocating (placement ablation).
    naive_placement: bool,
    /// Ordering of simultaneous events in the DES queue. [`TieBreak::Fifo`]
    /// (the default) reproduces the recorded-snapshot order; seeded
    /// tie-breaks permute simultaneous events to flush order-dependent
    /// policy assumptions.
    tie_break: crate::event::TieBreak,
}

impl ClusterSim {
    pub fn new(total_procs: usize, machine: MachineParams) -> Self {
        ClusterSim {
            machine,
            total_procs,
            policy: QueuePolicy::Fcfs,
            remap_policy: reshape_core::RemapPolicy::Paper,
            redist_mode: RedistMode::Reshape,
            reservations: Vec::new(),
            slot_speeds: Vec::new(),
            naive_placement: false,
            tie_break: crate::event::TieBreak::Fifo,
        }
    }

    /// Override the DES queue's tie-break among simultaneous events.
    /// `TieBreak::Seeded(s)` runs the same workload under a seeded
    /// permutation of same-timestamp events — the tool for proving a
    /// policy result doesn't lean on incidental push order. Results under
    /// different tie-breaks are *not* expected to be bitwise-identical
    /// (event interleavings legitimately differ), but every job must still
    /// reach the same terminal disposition and the run stays
    /// deterministic for a fixed seed.
    pub fn with_des_tie_break(mut self, tie: crate::event::TieBreak) -> Self {
        self.tie_break = tie;
        self
    }

    pub fn with_policy(mut self, policy: QueuePolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_remap_policy(mut self, policy: reshape_core::RemapPolicy) -> Self {
        self.remap_policy = policy;
        self
    }

    pub fn with_redist_mode(mut self, mode: RedistMode) -> Self {
        self.redist_mode = mode;
        self
    }

    /// Install an advance reservation of `procs` processors over
    /// `[start, end)` before the run.
    pub fn with_reservation(mut self, start: f64, end: f64, procs: usize) -> Self {
        self.reservations.push((start, end, procs));
        self
    }

    /// Model a heterogeneous cluster: one speed factor per slot (must match
    /// `total_procs`). Synchronous applications run at the pace of their
    /// slowest assigned slot; allocation hands out fast slots first.
    pub fn with_slot_speeds(mut self, speeds: Vec<f64>) -> Self {
        assert_eq!(speeds.len(), self.total_procs, "one speed per slot");
        self.slot_speeds = speeds;
        self
    }

    /// Placement ablation: allocate slots by id, ignoring speed factors.
    pub fn with_naive_placement(mut self) -> Self {
        self.naive_placement = true;
        self
    }

    /// Run the workload to completion and report outcomes.
    ///
    /// The `ClusterEngine` is the one component of a DES
    /// [`Simulation`]: arrivals, cancellations, failure injections and
    /// iteration ends all pop from its `(time, key, seq)` queue. The results
    /// are pinned as recorded digests in `tests/snapshots/des_results.txt`,
    /// re-checked by `tests/des_equivalence.rs`.
    pub fn run(&self, workload: &[SimJob]) -> SimResult {
        let engine = Rc::new(RefCell::new(ClusterEngine::new(self, workload)));
        let mut sim: Simulation<'_, Ev> = Simulation::with_tie_break(self.tie_break);
        assert_eq!(sim.add_component(engine.clone()), ENGINE);
        // Seed order sets the FIFO tie-break among simultaneous initial
        // events: per job, arrival, then cancel, then failure. It is the
        // order `des_results.txt` was recorded under.
        for (i, j) in workload.iter().enumerate() {
            sim.schedule(j.arrival, ENGINE, Ev::Arrival(i));
            if let Some(t) = j.cancel_at {
                assert!(t >= j.arrival, "cannot cancel before arrival");
                sim.schedule(t, ENGINE, Ev::Cancel(i));
            }
            if let Some(t) = j.fail_at {
                assert!(t >= j.arrival, "cannot fail before arrival");
                sim.schedule(t, ENGINE, Ev::Fail(i));
            }
        }
        sim.run();
        drop(sim);
        Rc::try_unwrap(engine)
            .unwrap_or_else(|_| unreachable!("simulation dropped its handler references"))
            .into_inner()
            .finish()
    }
}

/// The component id of the [`ClusterEngine`], the only component of a
/// [`ClusterSim::run`] simulation.
const ENGINE: ComponentId = 0;

impl EventHandler<Ev> for ClusterEngine<'_> {
    fn handle(&mut self, ev: Ev, ctx: &mut SimCtx<'_, Ev>) {
        let now = ctx.now();
        self.note_now(now);
        let mut push = |t: f64, e: Ev| ctx.schedule(t, ENGINE, e);
        match ev {
            Ev::Arrival(i) => self.on_arrival(i, now, &mut push),
            Ev::Cancel(i) => self.on_cancel(i, now, &mut push),
            Ev::Fail(i) => self.on_fail(i, now, &mut push),
            Ev::IterationEnd(id) => self.on_iteration_end(id, now, &mut push),
        }
        // The core keeps a bounded trace; the run keeps all of it.
        self.events.append(&mut self.core.drain_events());
    }
}

/// The shared transition logic of the cluster simulator: scheduler calls,
/// cost-model pricing, telemetry and trace emission, and end-of-run result
/// assembly. The DES component engine behind [`ClusterSim::run`] executes
/// exactly this code and emits follow-up events through the `push` sink in
/// program order, so identical pop orders yield byte-identical results,
/// floating point included — which is what lets the recorded snapshot
/// suite pin every field of every run to the bit.
struct ClusterEngine<'w> {
    cfg: &'w ClusterSim,
    workload: &'w [SimJob],
    core: SchedulerCore,
    sims: std::collections::HashMap<JobId, JobSim>,
    /// Map workload index -> JobId once submitted.
    submitted: Vec<Option<JobId>>,
    makespan: f64,
    bytes_redistributed: u64,
    /// The core's scheduling trace, drained after every event.
    events: Vec<SchedEvent>,
}

impl<'w> ClusterEngine<'w> {
    fn new(cfg: &'w ClusterSim, workload: &'w [SimJob]) -> Self {
        let mut core =
            SchedulerCore::new(cfg.total_procs, cfg.policy).with_remap_policy(cfg.remap_policy);
        if !cfg.slot_speeds.is_empty() {
            core = core.with_slot_speeds(cfg.slot_speeds.clone());
        }
        if cfg.naive_placement {
            core = core.with_alloc_order(reshape_core::AllocOrder::LowestId);
        }
        for &(start, end, procs) in &cfg.reservations {
            core.reserve(start, end, procs);
        }
        ClusterEngine {
            cfg,
            workload,
            core,
            sims: Default::default(),
            submitted: vec![None; workload.len()],
            makespan: 0.0,
            bytes_redistributed: 0,
            events: Vec::new(),
        }
    }

    /// Every dispatched event advances the observed makespan.
    fn note_now(&mut self, now: f64) {
        self.makespan = self.makespan.max(now);
    }

    /// Schedule the first iteration of every newly started job. On a
    /// heterogeneous cluster, iteration time stretches by the slowest
    /// assigned slot (synchronous SPMD pace).
    fn handle_starts(&mut self, starts: Vec<StartAction>, now: f64, push: &mut dyn FnMut(f64, Ev)) {
        for s in starts {
            let js = self
                .sims
                .get_mut(&s.job)
                .expect("started job was submitted");
            let t_iter =
                js.model.iter_time_at(0, s.config, &self.cfg.machine) / self.core.job_speed(s.job);
            js.last_iter_time = t_iter;
            js.compute_total += t_iter;
            if reshape_telemetry::trace::enabled() {
                use reshape_telemetry::trace;
                let c = trace::complete(
                    s.job.0,
                    trace::head(s.job.0),
                    "iter 0",
                    "compute",
                    "sim",
                    now,
                    now + t_iter,
                );
                trace::set_head(s.job.0, c);
            }
            push(now + t_iter, Ev::IterationEnd(s.job));
        }
    }

    fn on_arrival(&mut self, i: usize, now: f64, push: &mut dyn FnMut(f64, Ev)) {
        let j = &self.workload[i];
        let (id, starts) = self.core.submit(j.spec.clone(), now);
        self.submitted[i] = Some(id);
        self.sims.insert(
            id,
            JobSim {
                model: j.model.clone(),
                iterations: j.spec.iterations,
                done: 0,
                last_iter_time: 0.0,
                last_redist: 0.0,
                redist_total: 0.0,
                compute_total: 0.0,
            },
        );
        self.handle_starts(starts, now, push);
    }

    fn on_cancel(&mut self, i: usize, now: f64, push: &mut dyn FnMut(f64, Ev)) {
        if let Some(id) = self.submitted[i] {
            let starts = self.core.cancel(id, now);
            self.handle_starts(starts, now, push);
        }
    }

    fn on_fail(&mut self, i: usize, now: f64, push: &mut dyn FnMut(f64, Ev)) {
        if let Some(id) = self.submitted[i] {
            let starts = self.core.on_failed(id, "injected failure".into(), now);
            self.handle_starts(starts, now, push);
        }
    }

    fn on_iteration_end(&mut self, id: JobId, now: f64, push: &mut dyn FnMut(f64, Ev)) {
        let (iter_time, redist, done, iterations) = {
            let js = self.sims.get_mut(&id).expect("job exists");
            js.done += 1;
            (js.last_iter_time, js.last_redist, js.done, js.iterations)
        };
        if done >= iterations {
            let starts = self.core.on_finished(id, now);
            self.handle_starts(starts, now, push);
            return;
        }
        // Resize point: report the last iteration + the redistribution paid
        // before it. Capture the configuration *before* the directive is
        // applied — the redistribution runs between it and the new one.
        let pre = match self.core.job(id).map(|r| &r.state) {
            Some(reshape_core::JobState::Running { config }) => *config,
            // Cancelled mid-iteration: the check-in consumes the pending
            // Terminate and the job simply stops.
            _ => {
                let (d, starts) = self.core.resize_point(id, iter_time, redist, now);
                debug_assert!(matches!(d, Directive::Terminate | Directive::NoChange));
                self.handle_starts(starts, now, push);
                return;
            }
        };
        let (directive, starts) = self.core.resize_point(id, iter_time, redist, now);
        if directive == Directive::Terminate {
            self.handle_starts(starts, now, push);
            return;
        }
        let js = self.sims.get_mut(&id).expect("job exists");
        let expanded = matches!(directive, Directive::Expand { .. });
        let (next_cfg, price) = match directive {
            Directive::NoChange => (pre, None),
            Directive::Terminate => unreachable!("handled above"),
            Directive::Expand { to, .. } | Directive::Shrink { to } => {
                let mode = self.cfg.redist_mode;
                (
                    to,
                    Some(js.model.resize_cost(pre, to, &self.cfg.machine, mode)),
                )
            }
        };
        // The price includes the spawn of an expansion's new processes.
        let redist_cost = price.map_or(0.0, |p| p.total_seconds);
        // Only the message-based schedule has phases to decompose.
        let profile = price.filter(|_| self.cfg.redist_mode == RedistMode::Reshape);
        if redist_cost > 0.0 {
            self.core.note_redist_cost(id, pre, next_cfg, redist_cost);
        }
        if let Some(prof) = &profile {
            self.bytes_redistributed += prof.bytes;
            if reshape_telemetry::enabled() {
                reshape_telemetry::record(reshape_telemetry::Event::Redistribution {
                    time: now,
                    job: id.0,
                    from: pre.to_string(),
                    to: next_cfg.to_string(),
                    bytes: prof.bytes,
                    plan_steps: prof.plan_steps as usize,
                    transfers: prof.transfers as usize,
                    pack_seconds: prof.pack_seconds,
                    transfer_seconds: prof.transfer_seconds,
                    unpack_seconds: prof.unpack_seconds,
                    total_seconds: prof.total_seconds,
                });
            }
        }
        // Phase boundary: the next iteration belongs to a new computational
        // phase, so the profiler's timing history resets and the job
        // re-probes its sweet spot.
        if js.model.phase_at(done).1 {
            self.core.phase_change(id, now);
        }
        let speed = {
            // js borrows sims mutably; job_speed only reads core.
            let s = self.core.job_speed(id);
            if s > 0.0 {
                s
            } else {
                1.0
            }
        };
        let t_iter = js.model.iter_time_at(done, next_cfg, &self.cfg.machine) / speed;
        js.last_iter_time = t_iter;
        js.last_redist = redist_cost;
        js.redist_total += redist_cost;
        js.compute_total += t_iter;
        if reshape_telemetry::trace::enabled() {
            // Resize span chain under the decision the core just emitted
            // (and set as the job's trace head): decision → spawn →
            // redist(+phases) → next compute, all stamped with the
            // deterministic sim clock. The spawn is priced inside the redist
            // span, after its phases, so its own span is zero-length.
            use reshape_telemetry::trace;
            let jid = id.0;
            if expanded {
                let sp = trace::complete(
                    jid,
                    trace::head(jid),
                    format!("spawn {pre}->{next_cfg}"),
                    "spawn",
                    "sim",
                    now,
                    now,
                );
                trace::set_head(jid, sp);
            }
            if redist_cost > 0.0 {
                let r = trace::complete(
                    jid,
                    trace::head(jid),
                    format!("redist {pre}->{next_cfg}"),
                    "redist",
                    "sim",
                    now,
                    now + redist_cost,
                );
                if let Some(prof) = &profile {
                    let t1 = now + prof.pack_seconds;
                    let t2 = t1 + prof.transfer_seconds;
                    let t3 = (t2 + prof.unpack_seconds).min(now + redist_cost);
                    trace::complete(jid, r, "pack", "redist_pack", "sim", now, t1);
                    trace::complete(jid, r, "transfer", "redist_transfer", "sim", t1, t2);
                    trace::complete(jid, r, "unpack", "redist_unpack", "sim", t2, t3);
                }
                trace::set_head(jid, r);
            }
            let c = trace::complete(
                jid,
                trace::head(jid),
                format!("iter {done}"),
                "compute",
                "sim",
                now + redist_cost,
                now + redist_cost + t_iter,
            );
            trace::set_head(jid, c);
        }
        push(now + redist_cost + t_iter, Ev::IterationEnd(id));
        self.handle_starts(starts, now, push);
    }

    /// Assemble the [`SimResult`]: one pass over the run's trace gives every
    /// job's allocation history and resize counts and the run's tallies.
    fn finish(mut self) -> SimResult {
        self.events.append(&mut self.core.drain_events());
        let events = std::mem::take(&mut self.events);
        let mut t = SimTelemetry {
            bytes_redistributed: self.bytes_redistributed,
            ..Default::default()
        };
        let mut trails: std::collections::HashMap<JobId, Trail> = Default::default();
        for e in &events {
            let trail = trails.entry(e.job).or_default();
            let procs = match &e.kind {
                EventKind::Submitted => continue,
                EventKind::Started { config } => config.procs(),
                EventKind::Expanded { to, .. } => {
                    t.expansions += 1;
                    trail.expansions += 1;
                    to.procs()
                }
                EventKind::Shrunk { to, .. } => {
                    t.shrinks += 1;
                    trail.shrinks += 1;
                    to.procs()
                }
                EventKind::NodeFailed { to, .. } => to.procs(),
                EventKind::ExpandFailed { from, .. } => from.procs(),
                EventKind::Finished => {
                    t.jobs_finished += 1;
                    0
                }
                EventKind::Failed { .. } => {
                    t.jobs_failed += 1;
                    0
                }
                EventKind::Cancelled => {
                    t.jobs_cancelled += 1;
                    0
                }
            };
            trail.alloc.push((e.time, procs));
        }
        let mut jobs = Vec::new();
        for (i, j) in self.workload.iter().enumerate() {
            let id = self.submitted[i].expect("all workload jobs were submitted");
            let rec = self.core.job(id).expect("job exists");
            let js = &self.sims[&id];
            let started = rec.started_at.unwrap_or(f64::NAN);
            let finished = rec.finished_at.unwrap_or(f64::NAN);
            let Trail {
                alloc,
                expansions,
                shrinks,
            } = trails.remove(&id).unwrap_or_default();
            if reshape_telemetry::enabled() {
                let final_procs = alloc
                    .iter()
                    .rev()
                    .map(|&(_, p)| p)
                    .find(|&p| p > 0)
                    .unwrap_or(0);
                reshape_telemetry::record(reshape_telemetry::Event::JobTurnaround {
                    job: id.0,
                    name: j.spec.name.clone(),
                    submitted: j.arrival,
                    started,
                    finished,
                    turnaround: finished - j.arrival,
                    compute_seconds: js.compute_total,
                    redist_seconds: js.redist_total,
                    expansions,
                    shrinks,
                    final_procs,
                });
            }
            jobs.push(JobOutcome {
                name: j.spec.name.clone(),
                job: id,
                initial_procs: j.spec.initial.procs(),
                submitted: j.arrival,
                started,
                finished,
                turnaround: finished - j.arrival,
                redist_total: js.redist_total,
                compute_total: js.compute_total,
                alloc_history: alloc,
                iter_log: self
                    .core
                    .profiler()
                    .profile(id)
                    .map(|p| p.history().to_vec())
                    .unwrap_or_default(),
            });
        }
        let utilization = self.core.utilization(self.makespan);
        t.utilization = utilization;
        let mut turnarounds: Vec<f64> = jobs
            .iter()
            .filter(|j| j.turnaround.is_finite())
            .map(|j| j.turnaround)
            .collect();
        turnarounds.sort_by(|a, b| a.partial_cmp(b).expect("finite turnarounds"));
        if !turnarounds.is_empty() {
            let n = turnarounds.len();
            t.mean_turnaround = turnarounds.iter().sum::<f64>() / n as f64;
            t.p95_turnaround = turnarounds[((n as f64 * 0.95).ceil() as usize).max(1) - 1];
            t.max_turnaround = turnarounds[n - 1];
        }
        t.compute_seconds_total = jobs.iter().map(|j| j.compute_total).sum();
        t.redist_seconds_total = jobs.iter().map(|j| j.redist_total).sum();
        SimResult {
            jobs,
            events,
            makespan: self.makespan,
            utilization,
            total_procs: self.cfg.total_procs,
            telemetry: t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshape_core::{ProcessorConfig, TopologyPref};

    fn lu_job(n: usize, initial: (usize, usize), iters: usize, arrival: f64) -> SimJob {
        SimJob {
            spec: JobSpec::new(
                format!("LU{n}"),
                TopologyPref::Grid { problem_size: n },
                ProcessorConfig::new(initial.0, initial.1),
                iters,
            ),
            model: AppModel::Lu { n },
            arrival,
            cancel_at: None,
            fail_at: None,
            tenant: 0,
        }
    }

    #[test]
    fn single_job_expands_and_finishes_sooner_than_static() {
        let machine = MachineParams::system_x();
        let sim = ClusterSim::new(36, machine);
        let dynamic = sim.run(&[lu_job(12000, (1, 2), 10, 0.0)]);
        let mut static_job = lu_job(12000, (1, 2), 10, 0.0);
        static_job.spec = static_job.spec.static_job();
        let stat = sim.run(&[static_job]);
        assert!(
            dynamic.jobs[0].turnaround < stat.jobs[0].turnaround * 0.8,
            "dynamic {} should beat static {}",
            dynamic.jobs[0].turnaround,
            stat.jobs[0].turnaround
        );
        // The dynamic job actually grew.
        let max_procs = dynamic.jobs[0]
            .alloc_history
            .iter()
            .map(|&(_, p)| p)
            .max()
            .unwrap();
        assert!(
            max_procs > 2,
            "allocation history {:?}",
            dynamic.jobs[0].alloc_history
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let machine = MachineParams::system_x();
        let sim = ClusterSim::new(36, machine);
        let workload = vec![
            lu_job(12000, (1, 2), 10, 0.0),
            lu_job(8000, (2, 2), 10, 100.0),
        ];
        let a = sim.run(&workload);
        let b = sim.run(&workload);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.utilization, b.utilization);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.turnaround, y.turnaround);
            assert_eq!(x.alloc_history, y.alloc_history);
        }
    }

    #[test]
    fn telemetry_snapshot_summarizes_the_run() {
        let machine = MachineParams::system_x();
        let result = ClusterSim::new(36, machine).run(&[
            lu_job(12000, (1, 2), 10, 0.0),
            lu_job(8000, (2, 2), 10, 100.0),
        ]);
        let t = &result.telemetry;
        assert_eq!(t.jobs_finished, 2);
        assert_eq!(t.jobs_failed + t.jobs_cancelled, 0);
        assert!(t.expansions > 0, "idle cluster must trigger expansions");
        assert!(t.bytes_redistributed > 0, "expansions move data");
        assert_eq!(t.utilization, result.utilization);
        let turnarounds: Vec<f64> = result.jobs.iter().map(|j| j.turnaround).collect();
        let mean = turnarounds.iter().sum::<f64>() / turnarounds.len() as f64;
        assert!((t.mean_turnaround - mean).abs() < 1e-9);
        assert_eq!(
            t.max_turnaround,
            turnarounds.iter().cloned().fold(f64::MIN, f64::max)
        );
        assert!(t.p95_turnaround <= t.max_turnaround && t.p95_turnaround >= t.mean_turnaround);
        assert!(t.compute_seconds_total > 0.0 && t.redist_seconds_total > 0.0);
        // The snapshot round-trips with the rest of the result.
        let json = serde_json::to_string(&result).unwrap();
        let back: SimResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.telemetry, result.telemetry);
    }

    #[test]
    fn queued_job_waits_for_processors() {
        let machine = MachineParams::system_x();
        let sim = ClusterSim::new(4, machine);
        let result = sim.run(&[
            lu_job(8000, (2, 2), 3, 0.0),
            lu_job(8000, (2, 2), 3, 1.0), // must queue: cluster full
        ]);
        let a = &result.jobs[0];
        let b = &result.jobs[1];
        assert!(
            b.started >= a.finished - 1e-9,
            "B started {} before A finished {}",
            b.started,
            a.finished
        );
    }

    #[test]
    fn checkpoint_mode_costs_more_total_time() {
        let machine = MachineParams::system_x();
        let base = ClusterSim::new(36, machine);
        let fast = base.run(&[lu_job(12000, (1, 2), 10, 0.0)]);
        let slow = ClusterSim::new(36, machine)
            .with_redist_mode(RedistMode::Checkpoint)
            .run(&[lu_job(12000, (1, 2), 10, 0.0)]);
        assert!(
            slow.jobs[0].redist_total > 2.0 * fast.jobs[0].redist_total,
            "checkpoint redistribution {} should dwarf reshape {}",
            slow.jobs[0].redist_total,
            fast.jobs[0].redist_total
        );
    }

    #[test]
    fn utilization_improves_with_dynamic_scheduling() {
        let machine = MachineParams::system_x();
        let workload = || {
            vec![
                lu_job(12000, (2, 2), 10, 0.0),
                SimJob {
                    spec: JobSpec::new(
                        "MW",
                        TopologyPref::AnyCount {
                            min: 2,
                            max: 22,
                            step: 2,
                        },
                        ProcessorConfig::linear(2),
                        10,
                    ),
                    model: AppModel::MasterWorker {
                        units: 20000,
                        unit_time: 0.74e-3,
                    },
                    arrival: 50.0,
                    cancel_at: None,
                    fail_at: None,
                    tenant: 0,
                },
            ]
        };
        let dynamic = ClusterSim::new(36, machine).run(&workload());
        let static_run = {
            let jobs: Vec<SimJob> = workload()
                .into_iter()
                .map(|mut j| {
                    j.spec = j.spec.static_job();
                    j
                })
                .collect();
            ClusterSim::new(36, machine).run(&jobs)
        };
        assert!(
            dynamic.utilization > static_run.utilization,
            "dynamic {} <= static {}",
            dynamic.utilization,
            static_run.utilization
        );
    }

    #[test]
    fn reservation_carves_out_capacity_at_paper_scale() {
        // A 30-processor reservation window opens at t=600, when the LU
        // job has grown to ~12 processors: at its next resize point it must
        // shrink to within the 6 unreserved processors and stay there for
        // the whole window.
        let machine = MachineParams::system_x();
        let result = ClusterSim::new(36, machine)
            .with_reservation(600.0, 1e6, 30)
            .run(&[lu_job(21000, (2, 3), 10, 0.0)]);
        let lu = &result.jobs[0];
        // Find the first resize point after the window opens; from shortly
        // after it, the allocation must fit the unreserved capacity.
        let after_adjust: Vec<(f64, usize)> = lu
            .alloc_history
            .iter()
            .copied()
            .filter(|&(t, p)| t > 600.0 && p > 0)
            .collect();
        assert!(
            !after_adjust.is_empty() && after_adjust.iter().all(|&(_, p)| p <= 6),
            "LU must vacate reserved capacity: {:?}",
            lu.alloc_history
        );
        let shrank = lu
            .alloc_history
            .windows(2)
            .any(|w| w[1].1 < w[0].1 && w[1].1 > 0);
        assert!(shrank, "{:?}", lu.alloc_history);
    }

    #[test]
    fn high_priority_arrival_preempts_capacity_sooner() {
        // Two identical late arrivals, one submitted with priority: the
        // prioritized run must start it no later than the plain run.
        let machine = MachineParams::system_x();
        let mk = |priority: u8| {
            let mut jobs = vec![
                lu_job(21000, (2, 3), 10, 0.0),
                lu_job(12000, (2, 2), 10, 0.0),
            ];
            let mut late = lu_job(8000, (4, 4), 5, 300.0);
            late.spec = late.spec.with_priority(priority);
            jobs.push(late);
            jobs
        };
        let plain = ClusterSim::new(24, machine).run(&mk(0));
        let prio = ClusterSim::new(24, machine).run(&mk(9));
        let started = |r: &SimResult| r.jobs[2].started;
        assert!(
            started(&prio) <= started(&plain) + 1e-9,
            "prioritized start {} vs plain {}",
            started(&prio),
            started(&plain)
        );
    }

    #[test]
    fn phased_application_reprobes_after_phase_change() {
        // Phase 1: light work (sweet spot small). Phase 2: heavy work.
        // After the boundary the profiler resets and the job grows again —
        // without the reset, the phase-1 sweet-spot verdict would pin it.
        let machine = MachineParams::system_x();
        let job = SimJob {
            spec: JobSpec::new(
                "phased",
                TopologyPref::Grid { problem_size: 8000 },
                ProcessorConfig::new(1, 2),
                16,
            ),
            model: AppModel::Phased {
                phases: vec![
                    (8, AppModel::Lu { n: 8000 }),
                    (8, AppModel::Lu { n: 24000 }),
                ],
            },
            arrival: 0.0,
            cancel_at: None,
            fail_at: None,
            tenant: 0,
        };
        let result = ClusterSim::new(40, machine).run(&[job]);
        let lu = &result.jobs[0];
        // 16 iterations yield 15 resize-point records; the boundary reset
        // wiped the 8 phase-1 records, leaving only phase 2's.
        assert_eq!(
            lu.iter_log.len(),
            7,
            "phase change must clear phase-1 records: {:?}",
            lu.iter_log
        );
        // Phase-2 (LU-24000) iteration times are an order of magnitude
        // heavier than phase 1's — the log must contain only those.
        assert!(
            lu.iter_log.iter().all(|r| r.iter_time > 50.0),
            "only heavy-phase records expected: {:?}",
            lu.iter_log
        );
        // And the job kept growing in phase 2 (re-probe after reset): the
        // last recorded configuration is at least as large as the first
        // phase-2 one.
        let first = lu.iter_log.first().unwrap().config.procs();
        let last = lu.iter_log.last().unwrap().config.procs();
        assert!(
            last >= first,
            "phase 2 should re-expand from {first} (got {last}): {:?}",
            lu.iter_log
        );
    }

    #[test]
    fn phase_at_maps_iterations_to_phases() {
        let m = AppModel::Phased {
            phases: vec![(3, AppModel::Lu { n: 8000 }), (2, AppModel::Mm { n: 8000 })],
        };
        assert!(matches!(m.phase_at(0), (AppModel::Lu { .. }, false)));
        assert!(matches!(m.phase_at(2), (AppModel::Lu { .. }, false)));
        assert!(matches!(m.phase_at(3), (AppModel::Mm { .. }, true)));
        assert!(matches!(m.phase_at(4), (AppModel::Mm { .. }, false)));
        // Past the end: clamps to the last phase, no new boundary.
        assert!(matches!(m.phase_at(99), (AppModel::Mm { .. }, false)));
        // Single-phase models never report a boundary.
        assert!(!AppModel::Lu { n: 8000 }.phase_at(5).1);
    }

    #[test]
    fn gantt_renders_all_jobs_and_axis() {
        let machine = MachineParams::system_x();
        let result = ClusterSim::new(36, machine).run(&[
            lu_job(12000, (1, 2), 5, 0.0),
            lu_job(8000, (2, 2), 5, 100.0),
        ]);
        let chart = result.gantt(60);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2 + 2, "jobs + busy + axis");
        assert!(lines.iter().all(|l| l.contains('|')));
        // Busy row starts with the first job's 2 processors occupied (the
        // final sampled column lands mid-way through the last iteration, so
        // it is legitimately non-idle).
        let busy_row = lines[2].split('|').nth(1).unwrap();
        assert!(busy_row.starts_with('2'), "{busy_row}");
        // Every job row has at least one non-idle glyph.
        for l in &lines[..2] {
            let body = l.split('|').nth(1).unwrap();
            assert!(body.chars().any(|c| c != '.'), "{l}");
        }
        assert!(lines[3].contains("t(s)"));
    }

    #[test]
    fn heterogeneous_slots_slow_jobs_down() {
        let machine = MachineParams::system_x();
        // 4-slot cluster where two slots run at half speed. A 4-proc static
        // job must straddle the slow slots and pay for it.
        let uniform = ClusterSim::new(4, machine).run(&[{
            let mut j = lu_job(8000, (2, 2), 5, 0.0);
            j.spec = j.spec.static_job();
            j
        }]);
        let hetero = ClusterSim::new(4, machine)
            .with_slot_speeds(vec![1.0, 1.0, 0.5, 0.5])
            .run(&[{
                let mut j = lu_job(8000, (2, 2), 5, 0.0);
                j.spec = j.spec.static_job();
                j
            }]);
        assert!(
            (hetero.jobs[0].turnaround - 2.0 * uniform.jobs[0].turnaround).abs()
                < 1e-6 * uniform.jobs[0].turnaround,
            "slowest-slot pace: {} vs uniform {}",
            hetero.jobs[0].turnaround,
            uniform.jobs[0].turnaround
        );
    }

    #[test]
    fn speed_aware_placement_beats_naive() {
        let machine = MachineParams::system_x();
        // 8 slots: 4 fast, 4 half-speed (interleaved so id-order placement
        // inevitably grabs slow slots). One 4-proc job: speed-aware
        // allocation keeps it on the fast slots.
        let speeds = vec![1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5];
        let job = || {
            let mut j = lu_job(8000, (2, 2), 5, 0.0);
            j.spec = j.spec.static_job();
            j
        };
        let aware = ClusterSim::new(8, machine)
            .with_slot_speeds(speeds.clone())
            .run(&[job()]);
        let naive = ClusterSim::new(8, machine)
            .with_slot_speeds(speeds)
            .with_naive_placement()
            .run(&[job()]);
        assert!(
            naive.jobs[0].turnaround > 1.5 * aware.jobs[0].turnaround,
            "naive {} should be ~2x aware {}",
            naive.jobs[0].turnaround,
            aware.jobs[0].turnaround
        );
    }

    #[test]
    fn scripted_cancellation_frees_the_cluster() {
        let machine = MachineParams::system_x();
        let mut hog = lu_job(21000, (2, 3), 10, 0.0);
        hog.cancel_at = Some(500.0);
        let late = lu_job(12000, (2, 2), 5, 600.0);
        let result = ClusterSim::new(8, machine).run(&[hog, late]);
        let hog_out = &result.jobs[0];
        // The hog never ran to its natural completion (~2700s at 6-8 procs).
        assert!(
            hog_out.finished < 1500.0,
            "cancelled job should end early: {}",
            hog_out.finished
        );
        // The late arrival ran unobstructed.
        let late_out = &result.jobs[1];
        assert!(late_out.finished.is_finite());
        assert!(late_out.started < hog_out.finished + 2000.0);
        // Trace records the cancellation.
        assert!(result
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Cancelled)));
    }

    #[test]
    fn injected_failure_reclaims_resources_for_queued_work() {
        let machine = MachineParams::system_x();
        let mut flaky = lu_job(21000, (2, 3), 10, 0.0);
        flaky.fail_at = Some(300.0);
        let queued = lu_job(12000, (2, 3), 5, 10.0); // blocked on an 8-proc cluster
        let result = ClusterSim::new(8, machine).run(&[flaky, queued]);
        let f = &result.jobs[0];
        assert!(
            f.finished <= 300.0 + 1e-9,
            "failed at 300, got {}",
            f.finished
        );
        let q = &result.jobs[1];
        assert!(
            (q.started - 300.0).abs() < 1e-6,
            "queued job starts when the failure frees the cluster: {}",
            q.started
        );
        assert!(result
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Failed { .. })));
    }

    #[test]
    fn long_run_keeps_every_scheduling_event() {
        // Submit, start and finish per single-iteration job: 75 000 events,
        // past the core's default trace cap of 65 536.
        let n = 25_000;
        let jobs: Vec<SimJob> = (0..n).map(|i| lu_job(1000, (1, 1), 1, i as f64)).collect();
        let result = ClusterSim::new(4, MachineParams::system_x()).run(&jobs);
        assert_eq!(result.events.len(), 3 * n);
        assert_eq!(result.telemetry.jobs_finished, n);
        for j in &result.jobs {
            assert_eq!(
                j.alloc_history.iter().map(|&(_, p)| p).collect::<Vec<_>>(),
                [1, 0],
                "{} lost its history",
                j.name
            );
        }
        assert_eq!(result.busy_series().len(), 2 * n + 1);
    }

    #[test]
    fn busy_series_is_consistent_with_events() {
        let machine = MachineParams::system_x();
        let result = ClusterSim::new(36, machine)
            .run(&[lu_job(12000, (1, 2), 5, 0.0), lu_job(8000, (2, 2), 5, 10.0)]);
        let series = result.busy_series();
        assert_eq!(series.first(), Some(&(0.0, 0)));
        assert_eq!(
            series.last().map(|&(_, b)| b),
            Some(0),
            "cluster drains at the end"
        );
        for w in series.windows(2) {
            assert!(w[0].0 <= w[1].0, "series must be time-ordered");
        }
        let max_busy = series.iter().map(|&(_, b)| b).max().unwrap();
        assert!(max_busy <= 36);
    }

    #[test]
    fn window_series_tiles_the_makespan_consistently() {
        let machine = MachineParams::system_x();
        let result = ClusterSim::new(36, machine).run(&[
            lu_job(12000, (1, 2), 5, 0.0),
            lu_job(8000, (2, 2), 5, 10.0),
            lu_job(8000, (2, 2), 5, 11.0),
        ]);
        let windows = result.window_series(8);
        assert_eq!(windows.len(), 8);
        assert_eq!(windows[0].start, 0.0);
        assert!((windows[7].end - result.makespan).abs() < 1e-9);
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.index, i);
            assert!(
                w.utilization >= 0.0 && w.utilization <= 1.0 + 1e-9,
                "window {i}"
            );
            assert!(w.queue_wait_s >= 0.0);
            assert!((w.queue_depth - w.queue_wait_s / (w.end - w.start)).abs() < 1e-9);
        }
        // Windowed utilization must average back to the overall number.
        let mean: f64 = windows.iter().map(|w| w.utilization).sum::<f64>() / 8.0;
        assert!(
            (mean - result.utilization).abs() < 1e-6,
            "window mean {mean} vs overall {}",
            result.utilization
        );
        // Windowed resize counts must total the run's resize count.
        let resizes: usize = windows.iter().map(|w| w.resizes).sum();
        assert_eq!(
            resizes,
            result.telemetry.expansions + result.telemetry.shrinks
        );
        // Queue wait totals the per-job submit→start gaps.
        let waited: f64 = windows.iter().map(|w| w.queue_wait_s).sum();
        let expect: f64 = result.jobs.iter().map(|j| j.started - j.submitted).sum();
        assert!((waited - expect).abs() < 1e-6, "{waited} vs {expect}");
    }

    #[test]
    fn publish_metrics_feeds_the_openmetrics_exporter() {
        let machine = MachineParams::system_x();
        let result = ClusterSim::new(36, machine)
            .run(&[lu_job(12000, (1, 2), 5, 0.0), lu_job(8000, (2, 2), 5, 10.0)]);
        let before = reshape_telemetry::mode();
        reshape_telemetry::set_mode(reshape_telemetry::Mode::Metrics);
        result.publish_metrics(4);
        let text = reshape_telemetry::render_openmetrics(
            &reshape_telemetry::Registry::global().snapshot(),
        );
        reshape_telemetry::set_mode(before);
        assert!(
            text.contains("# TYPE reshape_sim_utilization gauge"),
            "{text}"
        );
        for w in 0..4 {
            assert!(text.contains(&format!("reshape_sim_utilization{{window=\"{w}\"}}")));
            assert!(text.contains(&format!("reshape_sim_queue_wait_seconds{{window=\"{w}\"}}")));
            assert!(text.contains(&format!("reshape_sim_resizes{{window=\"{w}\"}}")));
        }
        assert!(text.contains("reshape_sim_makespan_seconds "));
    }
}
