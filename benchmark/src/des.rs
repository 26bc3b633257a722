//! `des-paced` and `des-saturated`: `run_scale` on the discrete-event core.
//!
//! Untraced, the timed call is `run_scale` itself. The traced pass cannot
//! see inside `run_scale`, so it drives its own [`EventHandler`] on
//! [`Simulation`] with the same job stream and spans around the handler and
//! the `SchedulerCore` calls inside it: dispatch self-time is `sim.run()`
//! minus handler time, driver self-time is handler time minus core spans.
//! The replica copies `des.rs`'s seeded job-parameter and arrival-gap
//! arithmetic and reports `des.replica_faithful` = 1 only while its event
//! count and makespan bits still equal `run_scale`'s.
//!
//! An event of `des-paced` takes under a microsecond and the four clock
//! reads of its two spans cost a third of that, so the replica spans only
//! every n-th event (its handler and every core call in it), with n chosen
//! from the untraced run's ns per event so that spans cost about 5 % of the
//! run (9 on `des-paced`, 1 on `des-saturated`), and scales those totals by
//! n; call counts are exact, and the rare, long folds are always timed and
//! kept out of the scaled part.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::rc::Rc;

use reshape_clustersim::{
    run_scale, ComponentId, EventHandler, EventQueue, ScaleConfig, ScaleReport, SimCtx, Simulation,
};
use reshape_core::{
    decide, Directive, EventKind, JobId, JobSpec, JobState, ProcessorConfig, Profiler, QueuePolicy,
    Resize, ResourcePool, SchedulerCore, StartAction, SystemSnapshot, TopologyPref,
};

use crate::harness::{measure, repo_trace_tax, time, Checks, Identities, Opts, Outcome, Rep};
use crate::metrics::Ledger;
use crate::rng::{mix, u01, SplitMix64};
use crate::spans::{Open, Tracer, ROOT};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Paced,
    Saturated,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Paced => "des-paced",
            Kind::Saturated => "des-saturated",
        }
    }
}

fn config(kind: Kind, opts: &Opts) -> ScaleConfig {
    let cfg = match (kind, opts.tiny) {
        (Kind::Paced, false) => ScaleConfig::new(10_000, 1_000_000),
        (Kind::Paced, true) => ScaleConfig::new(64, 2_000),
        // Offered load 1.25, not the 1.05 first probed: at 1.05 the queue's
        // depth is a random walk around a small drift and the wall time of
        // 60 000 jobs moves +-17 % from seed to seed; at 1.25 the drift
        // dominates (+-4 %), the queue passes 5 700 and 12-27 shrinks fire.
        (Kind::Saturated, tiny) => ScaleConfig {
            resizable_percent: 30,
            max_iterations: 6,
            target_utilization: 1.25,
            ..ScaleConfig::new(
                if tiny { 64 } else { 512 },
                if tiny { 2_000 } else { 30_000 },
            )
        },
    };
    cfg.with_seed(opts.seed)
}

/// The same stream cut to a tenth of the jobs: warm-up and tracing-tax size.
fn tenth(cfg: &ScaleConfig) -> ScaleConfig {
    ScaleConfig {
        jobs: (cfg.jobs / 10).max(1),
        ..*cfg
    }
}

fn verify(kind: Kind, cfg: &ScaleConfig, r: &ScaleReport, checks: &mut Checks) {
    checks.add(
        "every job terminal",
        r.jobs_finished + r.jobs_failed + r.jobs_cancelled == cfg.jobs,
        format!(
            "{} finished + {} failed + {} cancelled of {}",
            r.jobs_finished, r.jobs_failed, r.jobs_cancelled, cfg.jobs
        ),
    );
    match kind {
        Kind::Paced => checks.add(
            "paced run expands",
            r.expansions > 0,
            format!("{} expansions", r.expansions),
        ),
        Kind::Saturated => checks.add(
            "saturated run queues and shrinks",
            r.peak_queue_depth > 0 && r.shrinks > 0,
            format!(
                "peak queue depth {}, {} shrinks",
                r.peak_queue_depth, r.shrinks
            ),
        ),
    }
}

pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let cfg = config(kind, opts);
    Outcome::of(
        kind.name(),
        cfg.jobs,
        opts,
        |tr, checks| traced(kind, &cfg, opts, tr, checks),
        // `run_scale` generates its stream as it goes, so set-up is the
        // reduced-size warm-up pass alone.
        |checks| {
            measure(
                opts,
                checks,
                || {
                    black_box(run_scale(&tenth(&cfg)));
                },
                |_, checks| {
                    let (wall_s, r) = time(|| run_scale(&cfg));
                    verify(kind, &cfg, &r, checks);
                    Rep {
                        wall_s,
                        submitted: cfg.jobs,
                        finished: r.jobs_finished,
                        virtual_s: r.makespan,
                        virtual_tolerance: 0.0,
                        signature: vec![r.events_processed, r.expansions, r.shrinks],
                    }
                },
            )
        },
    )
}

// ---------------------------------------------------------------------------
// The traced replica of `clustersim::des::ScaleDriver`
// ---------------------------------------------------------------------------

/// Flat spawn cost `run_scale` charges every actuated resize.
const SCALE_SPAWN_COST: f64 = 1.0;
/// Terminal records `run_scale` accumulates between folds.
const FOLD_THRESHOLD: usize = 16_384;
/// What the two spans of one spanned event cost, roughly, ns.
const SPANNED_EVENT_COST_NS: f64 = 400.0;
/// The share of the run the replica's spans may cost.
const SPAN_BUDGET: f64 = 0.05;

enum Ev {
    Arrival(u64),
    IterationEnd(JobId),
}

struct JobParams {
    procs: usize,
    iterations: usize,
    work: f64,
    resizable: bool,
}

fn job_params(cfg: &ScaleConfig, i: u64) -> JobParams {
    let h = mix(cfg.seed ^ mix(i.wrapping_add(1)));
    let resizable = h % 100 < cfg.resizable_percent as u64;
    let h2 = mix(h);
    let procs = if resizable { 2 } else { 1 + (h2 % 4) as usize };
    let iterations = 1 + (mix(h2) % cfg.max_iterations.max(1) as u64) as usize;
    let iter_time = 20.0 + u01(mix(h ^ 0xD1F3)) * 80.0;
    JobParams {
        procs,
        iterations,
        work: iter_time * procs as f64,
        resizable,
    }
}

fn mean_gap(cfg: &ScaleConfig) -> f64 {
    let rp = cfg.resizable_percent as f64 / 100.0;
    let mean_procs = rp * 2.0 + (1.0 - rp) * 2.5;
    let mean_iters = (1.0 + cfg.max_iterations.max(1) as f64) / 2.0;
    let cpu_seconds_per_job = mean_procs * mean_iters * 60.0;
    cpu_seconds_per_job / (cfg.target_utilization * cfg.nodes as f64)
}

fn spec_for(i: u64, p: &JobParams) -> JobSpec {
    let (min, step) = if p.resizable { (2, 2) } else { (1, 1) };
    let spec = JobSpec::new(
        format!("j{i}"),
        TopologyPref::AnyCount { min, max: 8, step },
        ProcessorConfig::linear(p.procs),
        p.iterations,
    );
    if p.resizable {
        spec
    } else {
        spec.static_job()
    }
}

struct LiveJob {
    work: f64,
    remaining: usize,
    last_redist: f64,
}

/// Span names of the replica.
struct Names {
    handle: u16,
    submit: u16,
    resize_point: u16,
    on_finished: u16,
    note_redist: u16,
    drain_events: u16,
    prune_terminal: u16,
}

struct Replica<'t> {
    cfg: ScaleConfig,
    me: ComponentId,
    core: SchedulerCore,
    live: HashMap<JobId, LiveJob>,
    mean_gap: f64,
    last_now: f64,
    terminal_since_fold: usize,
    finished: u64,
    /// Events scheduled and not yet handled, and its high-water mark: the
    /// population the event-queue probe is sized to.
    pending: usize,
    peak_pending: usize,
    /// Exact call counts of `submit`, `resize_point`, `on_finished`.
    calls: [u64; 3],
    handled: u64,
    /// One event in this many is spanned.
    stride: u64,
    /// Whether the event being handled is spanned, and its handler span.
    sampled: bool,
    parent: u32,
    /// Fold time that fell inside spanned handlers (not to be scaled).
    fold_in_sampled_ns: u64,
    tr: &'t mut Tracer,
    n: Names,
}

impl Replica<'_> {
    fn schedule(&mut self, ctx: &mut SimCtx<'_, Ev>, at: f64, ev: Ev) {
        ctx.schedule(at, self.me, ev);
        self.pending += 1;
        self.peak_pending = self.peak_pending.max(self.pending);
    }

    fn handle_starts(&mut self, starts: Vec<StartAction>, now: f64, ctx: &mut SimCtx<'_, Ev>) {
        for s in starts {
            let j = self
                .live
                .get_mut(&s.job)
                .expect("started job was submitted");
            j.last_redist = 0.0;
            let at = now + j.work / s.config.procs() as f64;
            self.schedule(ctx, at, Ev::IterationEnd(s.job));
        }
    }

    fn open(&mut self, name: u16) -> Option<Open> {
        self.sampled.then(|| self.tr.open(name, self.parent))
    }

    fn close(&mut self, span: Option<Open>) {
        if let Some(span) = span {
            self.tr.close(span);
        }
    }

    fn fold(&mut self) {
        let sp = self.tr.open(self.n.drain_events, self.parent);
        let events = self.core.drain_events();
        let mut fold_ns = self.tr.close(sp);
        let finished = events.iter().filter(|e| e.kind == EventKind::Finished);
        self.finished += finished.count() as u64;
        let sp = self.tr.open(self.n.prune_terminal, self.parent);
        black_box(self.core.prune_terminal());
        fold_ns += self.tr.close(sp);
        if self.sampled {
            self.fold_in_sampled_ns += fold_ns;
        }
        self.terminal_since_fold = 0;
    }

    fn on_event(&mut self, ev: Ev, ctx: &mut SimCtx<'_, Ev>) {
        let now = ctx.now();
        self.last_now = now;
        match ev {
            Ev::Arrival(i) => {
                let p = job_params(&self.cfg, i);
                let spec = spec_for(i, &p);
                self.calls[0] += 1;
                let sp = self.open(self.n.submit);
                let (id, starts) = self.core.submit(spec, now);
                self.close(sp);
                self.live.insert(
                    id,
                    LiveJob {
                        work: p.work,
                        remaining: p.iterations,
                        last_redist: 0.0,
                    },
                );
                self.handle_starts(starts, now, ctx);
                if i + 1 < self.cfg.jobs {
                    let u = u01(mix(self.cfg.seed ^ mix(i) ^ 0xA5A5));
                    let gap = -self.mean_gap * u.max(1e-12).ln();
                    self.schedule(ctx, now + gap, Ev::Arrival(i + 1));
                }
                if self.terminal_since_fold >= FOLD_THRESHOLD {
                    self.fold();
                }
            }
            Ev::IterationEnd(id) => {
                let (work, remaining) = {
                    let j = self.live.get_mut(&id).expect("iteration end for live job");
                    j.remaining -= 1;
                    (j.work, j.remaining)
                };
                if remaining == 0 {
                    self.calls[2] += 1;
                    let sp = self.open(self.n.on_finished);
                    let starts = self.core.on_finished(id, now);
                    self.close(sp);
                    self.live.remove(&id);
                    self.terminal_since_fold += 1;
                    self.handle_starts(starts, now, ctx);
                    return;
                }
                let config = match self.core.job(id).map(|r| &r.state) {
                    Some(JobState::Running { config }) => *config,
                    _ => unreachable!("live job {id:?} is not running"),
                };
                let iter_time = work / config.procs() as f64;
                let last_redist = self.live[&id].last_redist;
                self.calls[1] += 1;
                let sp = self.open(self.n.resize_point);
                let (directive, starts) = self.core.resize_point(id, iter_time, last_redist, now);
                self.close(sp);
                let (next_procs, redist) = match directive {
                    Directive::NoChange => (config.procs(), 0.0),
                    Directive::Terminate => {
                        self.live.remove(&id);
                        self.terminal_since_fold += 1;
                        self.handle_starts(starts, now, ctx);
                        return;
                    }
                    Directive::Expand { to, .. } | Directive::Shrink { to } => {
                        let sp = self.open(self.n.note_redist);
                        self.core.note_redist_cost(id, config, to, SCALE_SPAWN_COST);
                        self.close(sp);
                        (to.procs(), SCALE_SPAWN_COST)
                    }
                };
                self.live.get_mut(&id).expect("still live").last_redist = redist;
                let at = now + redist + work / next_procs as f64;
                self.schedule(ctx, at, Ev::IterationEnd(id));
                self.handle_starts(starts, now, ctx);
            }
        }
    }
}

impl EventHandler<Ev> for Replica<'_> {
    fn handle(&mut self, ev: Ev, ctx: &mut SimCtx<'_, Ev>) {
        self.pending -= 1;
        self.sampled = self.handled.is_multiple_of(self.stride);
        self.handled += 1;
        let sp = self.sampled.then(|| self.tr.open(self.n.handle, ROOT));
        self.parent = sp.as_ref().map_or(ROOT, |sp| sp.id);
        self.on_event(ev, ctx);
        self.close(sp);
    }
}

struct ReplicaReport {
    wall_s: f64,
    events: u64,
    makespan: f64,
    finished: u64,
    peak_pending: usize,
    calls: [u64; 3],
    stride: u64,
    /// Estimated handler and core time over all events, ns: `stride` times
    /// the spanned events' share, plus the folds, which are timed exactly.
    handler_ns: f64,
    core_ns: f64,
    /// What the spans themselves added to `wall_s`, ns.
    span_cost_ns: f64,
    /// How much too long every span reads, ns.
    inside_ns: f64,
    names: Names,
}

fn run_replica(cfg: &ScaleConfig, stride: u64, tr: &mut Tracer) -> ReplicaReport {
    let n = Names {
        handle: tr.name("des.handle"),
        submit: tr.name("core.submit"),
        resize_point: tr.name("core.resize_point"),
        on_finished: tr.name("core.on_finished"),
        note_redist: tr.name("core.note_redist_cost"),
        drain_events: tr.name("core.drain_events"),
        prune_terminal: tr.name("core.prune_terminal"),
    };
    let mut sim: Simulation<'_, Ev> = Simulation::with_tie_break(cfg.tie_break);
    let replica = Rc::new(RefCell::new(Replica {
        cfg: *cfg,
        me: 0,
        core: SchedulerCore::new(cfg.nodes, QueuePolicy::Fcfs),
        live: HashMap::new(),
        mean_gap: mean_gap(cfg),
        last_now: 0.0,
        terminal_since_fold: 0,
        finished: 0,
        pending: 0,
        peak_pending: 0,
        calls: [0; 3],
        handled: 0,
        stride,
        sampled: false,
        parent: ROOT,
        fold_in_sampled_ns: 0,
        tr,
        n,
    }));
    let me = sim.add_component(replica.clone());
    {
        let mut r = replica.borrow_mut();
        r.me = me;
        r.pending = 1;
    }
    sim.schedule(0.0, me, Ev::Arrival(0));
    let (wall_s, events) = time(|| sim.run());
    drop(sim);
    let mut r = Rc::try_unwrap(replica)
        .unwrap_or_else(|_| unreachable!("simulation dropped its handler references"))
        .into_inner();
    // Folds are timed exactly; the closing one runs after `sim.run()`,
    // outside the timed wall.
    let fold_ns = (r.tr.total_ns(r.n.drain_events) + r.tr.total_ns(r.n.prune_terminal)) as f64;
    let fold_spans = r.tr.calls(r.n.drain_events) + r.tr.calls(r.n.prune_terminal);
    (r.sampled, r.parent) = (false, ROOT);
    r.fold();

    // Spanned events, with the spans' own cost taken back out: each span
    // reads `inside_ns` too long, a handler also holds `pair_ns` per core
    // span inside it, and the run holds `pair_ns` per span.
    let (pair_ns, inside_ns) = Tracer::calibrate();
    let core_names = [
        r.n.submit,
        r.n.resize_point,
        r.n.on_finished,
        r.n.note_redist,
    ];
    let core_spans: u64 = core_names.iter().map(|&n| r.tr.calls(n)).sum();
    let core_measured: f64 = core_names.iter().map(|&n| r.tr.total_ns(n) as f64).sum();
    let handler_spans = r.tr.calls(r.n.handle);
    let handlers = r.tr.total_ns(r.n.handle) as f64
        - r.fold_in_sampled_ns as f64
        - handler_spans as f64 * inside_ns
        - core_spans as f64 * pair_ns;
    let core = core_measured - core_spans as f64 * inside_ns;
    let span_cost_ns = (handler_spans + core_spans + fold_spans) as f64 * pair_ns;
    ReplicaReport {
        wall_s,
        events,
        makespan: r.last_now,
        finished: r.finished,
        peak_pending: r.peak_pending,
        calls: r.calls,
        stride,
        handler_ns: stride as f64 * handlers + fold_ns,
        core_ns: stride as f64 * core + fold_ns,
        span_cost_ns,
        inside_ns,
        names: r.n,
    }
}

fn traced(
    kind: Kind,
    cfg: &ScaleConfig,
    opts: &Opts,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (Ledger, Identities) {
    let mut l = Ledger::new();

    // Warm up, then the untraced reference the replica is held against.
    black_box(run_scale(&tenth(cfg)));
    let (wall_u, r) = time(|| run_scale(cfg));
    verify(kind, cfg, &r, checks);

    let ns_per_event = wall_u * 1e9 / r.events_processed as f64;
    let stride = (SPANNED_EVENT_COST_NS / (SPAN_BUDGET * ns_per_event))
        .ceil()
        .max(1.0) as u64;
    let rep = run_replica(cfg, stride, tr);
    let n = &rep.names;
    let faithful = rep.events == r.events_processed
        && rep.makespan.to_bits() == r.makespan.to_bits()
        && rep.finished == r.jobs_finished;

    let events = r.events_processed as f64;
    l.set("des.events", events);
    l.set("des.events_per_s", events / wall_u);
    l.set("des.ns_per_event", ns_per_event);
    l.set("des.peak_queue_depth", r.peak_queue_depth as f64);
    l.set("des.expansions", r.expansions as f64);
    l.set("des.shrinks", r.shrinks as f64);
    l.set("des.records_pruned", r.records_pruned as f64);
    l.set("des.utilization", r.utilization);
    l.set("des.replica_faithful", if faithful { 1.0 } else { 0.0 });

    let rep_events = rep.events as f64;
    let dispatch_self = (rep.wall_s * 1e9 - rep.span_cost_ns - rep.handler_ns) / rep_events;
    let driver_self = (rep.handler_ns - rep.core_ns) / rep_events;
    l.set("des.dispatch_self_ns_per_event", dispatch_self);
    l.set("des.driver_self_ns_per_event", driver_self);
    for (label, id, calls) in [
        ("submit", n.submit, rep.calls[0]),
        ("resize_point", n.resize_point, rep.calls[1]),
        ("on_finished", n.on_finished, rep.calls[2]),
    ] {
        l.set(&format!("core.{label}_calls"), calls as f64);
        let spanned_ns = tr.total_ns(id) as f64 - tr.calls(id) as f64 * rep.inside_ns;
        l.set(
            &format!("core.{label}_total_ms"),
            rep.stride as f64 * spanned_ns / 1e6,
        );
        for (p, pct) in [("p50", 0.50), ("p99", 0.99)] {
            let ns = (tr.percentile_ns(id, pct) - rep.inside_ns).max(0.0);
            l.set(&format!("core.{label}_{p}_ns"), ns);
        }
    }
    // Every fold, the closing one after `sim.run()` included.
    l.set(
        "core.fold_total_ms",
        tr.total_ms(n.drain_events) + tr.total_ms(n.prune_terminal),
    );
    l.set(
        "core.share",
        rep.core_ns / (rep.wall_s * 1e9 - rep.span_cost_ns),
    );
    l.set("trace.overhead_ratio", rep.wall_s / wall_u);

    l.set("event.peak_queued", rep.peak_pending as f64);
    l.set(
        "event.push_pop_ns",
        probe_event_queue(rep.peak_pending, opts),
    );
    l.set("pool.alloc_release_ns", probe_pool(cfg, opts));
    l.set("policy.decide_ns", probe_policy(opts));

    // Repo tracing tax: a tenth of the stream with `reshape_telemetry::trace`
    // on (and drained) against the same tenth with it off.
    let small = tenth(cfg);
    repo_trace_tax(&mut l, || {
        black_box(run_scale(&small));
    });

    // How the parts add up: the traced pass's per-event parts against the
    // untraced run's ns per event.
    let parts = dispatch_self + driver_self + rep.core_ns / rep_events;
    let identities = vec![(
        "des.ns_per_event = dispatch_self + driver_self + core spans / events".to_string(),
        parts,
        l.get("des.ns_per_event"),
    )];
    (l, identities)
}

// ---------------------------------------------------------------------------
// Direct probes of single layers
// ---------------------------------------------------------------------------

/// Operations a probe times: `full`, or a hundredth of it at tiny scale.
fn probe_ops(full: u64, opts: &Opts) -> u64 {
    if opts.tiny {
        full / 100
    } else {
        full
    }
}

/// `EventQueue` push + pop, ns per pair, holding the queue at `population`
/// entries (the classic hold model: pop the earliest, push it back later).
fn probe_event_queue(population: usize, opts: &Opts) -> f64 {
    let ops = probe_ops(1_000_000, opts);
    let seed = opts.seed;
    let mut rng = SplitMix64::new(seed ^ 0xE7E7);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..population.max(1) as u64 {
        q.push(rng.range_f64(0.0, 100.0), i);
    }
    let gaps: Vec<f64> = (0..4096).map(|_| rng.range_f64(20.0, 100.0)).collect();
    let (secs, _) = time(|| {
        for i in 0..ops {
            let (t, payload) = q.pop().expect("population held constant");
            q.push(t + gaps[(i & 4095) as usize], payload);
        }
        black_box(q.len())
    });
    secs * 1e9 / ops as f64
}

/// `ResourcePool` allocate + release, ns per pair, with the stream's size
/// mix on a pool of the workload's node count held near 70 % occupancy.
fn probe_pool(cfg: &ScaleConfig, opts: &Opts) -> f64 {
    let ops = probe_ops(200_000, opts);
    let seed = opts.seed;
    let mut rng = SplitMix64::new(seed ^ 0x9001);
    let mut pool = ResourcePool::new(cfg.nodes);
    let mut held: VecDeque<Vec<usize>> = VecDeque::new();
    let target = cfg.nodes * 7 / 10;
    while pool.busy() < target {
        let n = job_params(cfg, rng.next_u64()).procs;
        held.push_back(pool.allocate(n).expect("below 70 % occupancy"));
    }
    let sizes: Vec<usize> = (0..4096)
        .map(|_| job_params(cfg, rng.next_u64()).procs)
        .collect();
    let (secs, _) = time(|| {
        for i in 0..ops {
            // Release the oldest grants down to the target, then allocate:
            // as many releases as allocations, occupancy pinned near 70 %.
            while pool.busy() > target {
                pool.release(&held.pop_front().expect("busy slots are held"));
            }
            let slots = pool.allocate(sizes[(i & 4095) as usize]);
            held.push_back(slots.expect("30 % of the pool is free"));
        }
        black_box(pool.idle())
    });
    secs * 1e9 / ops as f64
}

/// `decide` on a recorded profile: a resizable job that expanded 2 -> 4,
/// improved, and now checks in with idle processors and an empty queue.
fn probe_policy(opts: &Opts) -> f64 {
    let ops = probe_ops(1_000_000, opts);
    let spec = JobSpec::new(
        "probe",
        TopologyPref::AnyCount {
            min: 2,
            max: 8,
            step: 2,
        },
        ProcessorConfig::linear(2),
        6,
    );
    let (from, to) = (ProcessorConfig::linear(2), ProcessorConfig::linear(4));
    let job = JobId(0);
    let mut profiler = Profiler::new();
    profiler.record_iteration(job, from, 60.0, 0.0);
    profiler.record_resize(job, Resize::Expanded { from, to }, SCALE_SPAWN_COST);
    profiler.record_iteration(job, to, 31.0, SCALE_SPAWN_COST);
    let profile = profiler.profile(job).expect("recorded above");
    let sys = SystemSnapshot {
        idle_procs: 64,
        queue_head_need: None,
        remaining_iters: 3,
    };
    let (secs, _) = time(|| {
        for _ in 0..ops {
            black_box(decide(black_box(&spec), to, profile, black_box(&sys), 512));
        }
    });
    secs * 1e9 / ops as f64
}
