//! The discrete-event simulation core, modeled on the dslab idiom: a
//! [`Simulation`] owns the global [`EventQueue`] and a set of registered
//! [`EventHandler`] components; each pop advances the virtual clock and
//! dispatches the payload to its target component, which may schedule
//! follow-up events through the [`SimCtx`] it is handed.
//!
//! # Determinism contract
//!
//! The queue's pop order is a total order on `(time, tie-key, seq)` (see
//! [`crate::event`]): two runs that push the same events in the same
//! program order pop them in the same order, execute the same component
//! code against the same [`SchedulerCore`] state, and therefore produce
//! byte-identical results — floating point included, because the sequence
//! of arithmetic is identical. `tests/des_equivalence.rs` holds
//! `ClusterSim::run` to recorded digests of 260 runs on this basis.
//!
//! # Clock-source rules
//!
//! Components must stamp everything — scheduler calls, telemetry, trace
//! spans — with [`SimCtx::now`], never wall time, and may only schedule at
//! `time >= now` (the queue would still order a stale event correctly, but
//! causality back-edges are always bugs; [`SimCtx::schedule`] asserts).
//! Wall time exists solely *outside* the event loop, to report how fast
//! the simulator itself ran ([`ScaleReport::wall_seconds`]).
//!
//! # Scale path
//!
//! [`run_scale`] sweeps clusters of up to tens of thousands of nodes and
//! millions of jobs in one process: a single self-scheduling component
//! drives the real [`SchedulerCore`] (no per-rank threads). Both queues on
//! the path are logarithmic — the [`EventQueue`] in pending events, the
//! scheduler's job queue in waiting jobs — and each job's terminal state is
//! folded in the transition that retires it
//! ([`SchedulerCore::prune_terminal`], [`SchedulerCore::clear_events`]) so
//! memory stays bounded by the *live* job count, not the trace length.

use std::cell::RefCell;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::BuildHasherDefault;
use std::rc::Rc;

use reshape_core::{
    Directive, EventKind, IdHasher, JobId, JobSpec, JobState, ProcessorConfig, QueuePolicy,
    SchedulerCore, TopologyPref,
};
use serde::{Deserialize, Serialize};

use crate::event::{mix, EventQueue, TieBreak};

/// Index of a registered component; assigned sequentially by
/// [`Simulation::add_component`].
pub type ComponentId = usize;

/// A simulation component: receives the events addressed to it and may
/// schedule follow-ups via the context.
pub trait EventHandler<P> {
    fn handle(&mut self, payload: P, ctx: &mut SimCtx<'_, P>);
}

/// What a component sees while handling an event: the frozen virtual clock
/// and the scheduling surface of the global queue.
pub struct SimCtx<'q, P> {
    now: f64,
    queue: &'q mut EventQueue<(ComponentId, P)>,
}

impl<'q, P> SimCtx<'q, P> {
    /// The virtual time of the event being handled.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `payload` for `component` at absolute virtual time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the current event (causality back-edge)
    /// or is not finite.
    pub fn schedule(&mut self, time: f64, component: ComponentId, payload: P) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {now}",
            now = self.now
        );
        self.queue.push(time, (component, payload));
    }
}

/// The simulation facade: global event queue + registered components +
/// virtual clock.
pub struct Simulation<'a, P> {
    queue: EventQueue<(ComponentId, P)>,
    handlers: Vec<Rc<RefCell<dyn EventHandler<P> + 'a>>>,
    now: f64,
    processed: u64,
}

impl<'a, P> Default for Simulation<'a, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, P> Simulation<'a, P> {
    /// A simulation whose simultaneous events drain in scheduling order
    /// (FIFO tie-break — the order the recorded snapshots were taken
    /// under).
    pub fn new() -> Self {
        Self::with_tie_break(TieBreak::Fifo)
    }

    /// A simulation with an explicit tie-break policy;
    /// `TieBreak::Seeded(s)` gives a seeded total order among simultaneous
    /// events.
    pub fn with_tie_break(tie: TieBreak) -> Self {
        Simulation {
            queue: EventQueue::with_tie_break(tie),
            handlers: Vec::new(),
            now: 0.0,
            processed: 0,
        }
    }

    /// Register a component; events are addressed by the returned id.
    pub fn add_component(&mut self, handler: Rc<RefCell<dyn EventHandler<P> + 'a>>) -> ComponentId {
        self.handlers.push(handler);
        self.handlers.len() - 1
    }

    /// Schedule an event from outside any handler (seeding the run).
    pub fn schedule(&mut self, time: f64, component: ComponentId, payload: P) {
        assert!(time.is_finite(), "event time must be finite");
        self.queue.push(time, (component, payload));
    }

    /// The virtual clock: time of the last dispatched event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Events dispatched so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Events currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Dispatch the earliest event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((time, (component, payload))) = self.queue.pop() else {
            return false;
        };
        self.now = time;
        self.processed += 1;
        let handler = self.handlers[component].clone();
        let mut ctx = SimCtx {
            now: time,
            queue: &mut self.queue,
        };
        handler.borrow_mut().handle(payload, &mut ctx);
        true
    }

    /// Run until the queue drains; returns total events dispatched.
    pub fn run(&mut self) -> u64 {
        while self.step() {}
        self.processed
    }

    /// Run while the next event is stamped `<= until`; returns total
    /// events dispatched so far.
    pub fn run_until(&mut self, until: f64) -> u64 {
        while self.queue.peek_time().is_some_and(|t| t <= until) {
            self.step();
        }
        self.processed
    }
}

// ---------------------------------------------------------------------------
// Scale path: 10,000-node / 1,000,000-job sweeps
// ---------------------------------------------------------------------------

/// Configuration of a [`run_scale`] sweep. The seed fully determines the
/// synthetic job stream (sizes, lengths, arrival gaps), so a report is
/// reproducible bit for bit.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScaleConfig {
    /// Cluster processors.
    pub nodes: usize,
    /// Jobs in the arrival stream.
    pub jobs: u64,
    pub seed: u64,
    /// Percentage of jobs that are resizable master–worker style
    /// applications (the rest run statically).
    pub resizable_percent: u8,
    /// Iterations per job are drawn from `1..=max_iterations`.
    pub max_iterations: usize,
    /// Offered load: arrival gaps are paced so the stream demands about
    /// this fraction of the cluster's cpu-seconds.
    pub target_utilization: f64,
    /// Ordering among simultaneous events. [`TieBreak::Fifo`] is the
    /// recorded-baseline order; a seeded tie-break permutes same-timestamp
    /// events to flush order-dependent policy assumptions at scale.
    #[serde(default = "default_tie_break")]
    pub tie_break: TieBreak,
}

fn default_tie_break() -> TieBreak {
    TieBreak::Fifo
}

impl ScaleConfig {
    pub fn new(nodes: usize, jobs: u64) -> Self {
        ScaleConfig {
            nodes,
            jobs,
            seed: 1,
            resizable_percent: 10,
            max_iterations: 3,
            target_utilization: 0.7,
            tie_break: TieBreak::Fifo,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_tie_break(mut self, tie: TieBreak) -> Self {
        self.tie_break = tie;
        self
    }
}

/// Headline numbers of one [`run_scale`] sweep. Everything except
/// `wall_seconds`/`events_per_sec` is virtual and bit-deterministic for a
/// fixed config.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleReport {
    pub nodes: usize,
    pub jobs: u64,
    pub seed: u64,
    pub makespan: f64,
    pub utilization: f64,
    pub jobs_finished: u64,
    pub jobs_failed: u64,
    pub jobs_cancelled: u64,
    pub expansions: u64,
    pub shrinks: u64,
    pub peak_queue_depth: usize,
    /// Terminal-job records folded out of the scheduler mid-run to keep
    /// memory bounded.
    pub records_pruned: u64,
    pub events_processed: u64,
    pub wall_seconds: f64,
    pub events_per_sec: f64,
}

/// Flat spawn cost charged to every actuated resize in the scale sweep
/// (virtual seconds). The sweep's job mix carries no redistribution-priced
/// data (master–worker), so this stands in for process startup.
const SCALE_SPAWN_COST: f64 = 1.0;

#[derive(Debug)]
enum ScaleEv {
    Arrival(u64),
    /// A job finished an iteration; the redistribution cost it paid just
    /// before that iteration rides along.
    IterationEnd(JobId, f64),
}

fn u01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-job knobs, a pure function of `(seed, index)`.
struct ScaleJobParams {
    procs: usize,
    iterations: usize,
    /// Sequential work per iteration; iteration time is `work / procs`.
    work: f64,
    resizable: bool,
}

fn job_params(cfg: &ScaleConfig, i: u64) -> ScaleJobParams {
    let h = mix(cfg.seed ^ mix(i.wrapping_add(1)));
    let resizable = h % 100 < cfg.resizable_percent as u64;
    let h2 = mix(h);
    let procs = if resizable { 2 } else { 1 + (h2 % 4) as usize };
    let iterations = 1 + (mix(h2) % cfg.max_iterations.max(1) as u64) as usize;
    // Initial iteration time 20–100 virtual seconds.
    let iter_time = 20.0 + u01(mix(h ^ 0xD1F3)) * 80.0;
    ScaleJobParams {
        procs,
        iterations,
        work: iter_time * procs as f64,
        resizable,
    }
}

/// Mean arrival gap that offers `target_utilization` of the cluster's
/// cpu-seconds, from the job mix's expected demand.
fn mean_gap(cfg: &ScaleConfig) -> f64 {
    let rp = cfg.resizable_percent as f64 / 100.0;
    let mean_procs = rp * 2.0 + (1.0 - rp) * 2.5;
    let mean_iters = (1.0 + cfg.max_iterations.max(1) as f64) / 2.0;
    let mean_iter_time = 60.0;
    let cpu_seconds_per_job = mean_procs * mean_iters * mean_iter_time;
    cpu_seconds_per_job / (cfg.target_utilization * cfg.nodes as f64)
}

struct LiveScaleJob {
    work: f64,
    remaining: usize,
}

/// The single self-scheduling component of the scale sweep: arrival
/// source and per-job driver in one, against the real scheduler.
struct ScaleDriver {
    cfg: ScaleConfig,
    me: ComponentId,
    core: SchedulerCore,
    live: HashMap<JobId, LiveScaleJob, BuildHasherDefault<IdHasher>>,
    mean_gap: f64,
    last_now: f64,
    // Folded counters from the scheduler trace.
    finished: u64,
    failed: u64,
    cancelled: u64,
    expansions: u64,
    shrinks: u64,
    peak_queue_depth: usize,
    records_pruned: u64,
}

impl ScaleDriver {
    fn new(cfg: ScaleConfig) -> Self {
        ScaleDriver {
            mean_gap: mean_gap(&cfg),
            core: SchedulerCore::new(cfg.nodes, QueuePolicy::Fcfs),
            cfg,
            me: 0,
            live: HashMap::default(),
            last_now: 0.0,
            finished: 0,
            failed: 0,
            cancelled: 0,
            expansions: 0,
            shrinks: 0,
            peak_queue_depth: 0,
            records_pruned: 0,
        }
    }

    fn spec_for(&self, i: u64, p: &ScaleJobParams) -> JobSpec {
        let name = format!("j{i}");
        if p.resizable {
            JobSpec::new(
                name,
                TopologyPref::AnyCount {
                    min: 2,
                    max: 8,
                    step: 2,
                },
                ProcessorConfig::linear(p.procs),
                p.iterations,
            )
        } else {
            JobSpec::new(
                name,
                TopologyPref::AnyCount {
                    min: 1,
                    max: 8,
                    step: 1,
                },
                ProcessorConfig::linear(p.procs),
                p.iterations,
            )
            .static_job()
        }
    }

    /// Schedule the first iteration of newly started jobs.
    fn handle_starts(
        &mut self,
        starts: Vec<reshape_core::StartAction>,
        now: f64,
        ctx: &mut SimCtx<'_, ScaleEv>,
    ) {
        for s in starts {
            let work = self.live[&s.job].work;
            ctx.schedule(
                now + work / s.config.procs() as f64,
                self.me,
                ScaleEv::IterationEnd(s.job, 0.0),
            );
        }
    }

    /// Count the scheduler trace into counters, clear it in place and drop
    /// terminal-job state, so a million-job sweep holds only its live jobs.
    /// Called in every transition that retires a job: a fold visits only
    /// the events and the jobs retired since the last one.
    fn fold(&mut self) {
        for e in self.core.events() {
            match e.kind {
                EventKind::Finished => self.finished += 1,
                EventKind::Failed { .. } => self.failed += 1,
                EventKind::Cancelled => self.cancelled += 1,
                EventKind::Expanded { .. } => self.expansions += 1,
                EventKind::Shrunk { .. } => self.shrinks += 1,
                _ => {}
            }
        }
        self.core.clear_events();
        self.records_pruned += self.core.prune_terminal() as u64;
    }
}

impl EventHandler<ScaleEv> for ScaleDriver {
    fn handle(&mut self, ev: ScaleEv, ctx: &mut SimCtx<'_, ScaleEv>) {
        let now = ctx.now();
        self.last_now = now;
        match ev {
            ScaleEv::Arrival(i) => {
                let p = job_params(&self.cfg, i);
                let spec = self.spec_for(i, &p);
                let (id, starts) = self.core.submit(spec, now);
                self.live.insert(
                    id,
                    LiveScaleJob {
                        work: p.work,
                        remaining: p.iterations,
                    },
                );
                self.handle_starts(starts, now, ctx);
                self.peak_queue_depth = self.peak_queue_depth.max(self.core.queue_len());
                if i + 1 < self.cfg.jobs {
                    let gap =
                        -self.mean_gap * u01(mix(self.cfg.seed ^ mix(i) ^ 0xA5A5)).max(1e-12).ln();
                    ctx.schedule(now + gap, self.me, ScaleEv::Arrival(i + 1));
                }
            }
            ScaleEv::IterationEnd(id, last_redist) => {
                let Entry::Occupied(mut live) = self.live.entry(id) else {
                    unreachable!("iteration end for a job that is not live");
                };
                live.get_mut().remaining -= 1;
                let work = live.get().work;
                if live.get().remaining == 0 {
                    live.remove();
                    let starts = self.core.on_finished(id, now);
                    self.fold();
                    self.handle_starts(starts, now, ctx);
                    return;
                }
                let config = match self.core.job(id).map(|r| &r.state) {
                    Some(JobState::Running { config }) => *config,
                    _ => {
                        // Nothing in the scale stream cancels or fails jobs;
                        // a non-running record here would be a driver bug.
                        unreachable!("live job {id:?} is not running");
                    }
                };
                let iter_time = work / config.procs() as f64;
                let (directive, starts) = self.core.resize_point(id, iter_time, last_redist, now);
                let (next_procs, redist) = match directive {
                    Directive::NoChange => (config.procs(), 0.0),
                    Directive::Terminate => {
                        self.live.remove(&id);
                        self.fold();
                        self.handle_starts(starts, now, ctx);
                        return;
                    }
                    Directive::Expand { to, .. } | Directive::Shrink { to } => {
                        self.core.note_redist_cost(id, config, to, SCALE_SPAWN_COST);
                        (to.procs(), SCALE_SPAWN_COST)
                    }
                };
                ctx.schedule(
                    now + redist + work / next_procs as f64,
                    self.me,
                    ScaleEv::IterationEnd(id, redist),
                );
                self.handle_starts(starts, now, ctx);
            }
        }
    }
}

/// Sweep a synthetic seeded job stream through the real scheduler on the
/// DES core: single process, single thread, bounded memory; event-queue
/// operations are `O(log n)` in pending events and scheduler-queue
/// operations `O(log q)` in waiting jobs. See [`ScaleConfig`] /
/// [`ScaleReport`].
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    assert!(cfg.nodes >= 8, "need at least 8 nodes");
    let wall_start = std::time::Instant::now();
    let mut sim: Simulation<'_, ScaleEv> = Simulation::with_tie_break(cfg.tie_break);
    let driver = Rc::new(RefCell::new(ScaleDriver::new(*cfg)));
    let me = sim.add_component(driver.clone());
    driver.borrow_mut().me = me;
    if cfg.jobs > 0 {
        sim.schedule(0.0, me, ScaleEv::Arrival(0));
    }
    let events_processed = sim.run();
    drop(sim);
    let mut d = Rc::try_unwrap(driver)
        .unwrap_or_else(|_| unreachable!("simulation dropped its handler references"))
        .into_inner();
    d.fold();
    assert!(d.live.is_empty(), "every job must terminate");
    let makespan = d.last_now;
    let utilization = d.core.utilization(makespan);
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    ScaleReport {
        nodes: cfg.nodes,
        jobs: cfg.jobs,
        seed: cfg.seed,
        makespan,
        utilization,
        jobs_finished: d.finished,
        jobs_failed: d.failed,
        jobs_cancelled: d.cancelled,
        expansions: d.expansions,
        shrinks: d.shrinks,
        peak_queue_depth: d.peak_queue_depth,
        records_pruned: d.records_pruned,
        events_processed,
        wall_seconds,
        events_per_sec: events_processed as f64 / wall_seconds.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal two-component ping/pong: events route to the right
    /// handlers, the clock advances, and the queue drains.
    #[test]
    fn components_exchange_events_on_the_virtual_clock() {
        struct Ping {
            peer: ComponentId,
            seen: Rc<RefCell<Vec<(f64, u32)>>>,
        }
        impl EventHandler<u32> for Ping {
            fn handle(&mut self, n: u32, ctx: &mut SimCtx<'_, u32>) {
                self.seen.borrow_mut().push((ctx.now(), n));
                if n > 0 {
                    ctx.schedule(ctx.now() + 1.0, self.peer, n - 1);
                }
            }
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Simulation<'_, u32> = Simulation::new();
        let a = sim.add_component(Rc::new(RefCell::new(Ping {
            peer: 1,
            seen: seen.clone(),
        })));
        let b = sim.add_component(Rc::new(RefCell::new(Ping {
            peer: 0,
            seen: seen.clone(),
        })));
        assert_eq!((a, b), (0, 1));
        sim.schedule(0.0, a, 3);
        assert_eq!(sim.run(), 4);
        assert_eq!(sim.now(), 3.0);
        assert_eq!(*seen.borrow(), vec![(0.0, 3), (1.0, 2), (2.0, 1), (3.0, 0)]);
    }

    #[test]
    fn run_until_stops_at_the_horizon() {
        struct Tick;
        impl EventHandler<()> for Tick {
            fn handle(&mut self, _: (), ctx: &mut SimCtx<'_, ()>) {
                ctx.schedule(ctx.now() + 1.0, 0, ());
            }
        }
        let mut sim: Simulation<'_, ()> = Simulation::new();
        let c = sim.add_component(Rc::new(RefCell::new(Tick)));
        sim.schedule(0.0, c, ());
        let n = sim.run_until(5.0);
        assert_eq!(n, 6, "events at t=0..=5");
        assert_eq!(sim.now(), 5.0);
        assert_eq!(sim.queued(), 1, "the t=6 event stays queued");
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn causality_back_edges_are_rejected() {
        struct Bad;
        impl EventHandler<()> for Bad {
            fn handle(&mut self, _: (), ctx: &mut SimCtx<'_, ()>) {
                ctx.schedule(ctx.now() - 1.0, 0, ());
            }
        }
        let mut sim: Simulation<'_, ()> = Simulation::new();
        let c = sim.add_component(Rc::new(RefCell::new(Bad)));
        sim.schedule(5.0, c, ());
        sim.run();
    }

    #[test]
    fn scale_sweep_is_deterministic_and_complete() {
        let cfg = ScaleConfig::new(64, 400).with_seed(9);
        let a = run_scale(&cfg);
        let b = run_scale(&cfg);
        assert_eq!(a.jobs_finished + a.jobs_failed + a.jobs_cancelled, 400);
        assert_eq!(a.jobs_finished, b.jobs_finished);
        assert_eq!(a.makespan, b.makespan, "virtual results are bit-stable");
        assert_eq!(a.utilization, b.utilization);
        assert_eq!(a.events_processed, b.events_processed);
        assert!(a.utilization > 0.0 && a.utilization <= 1.0);
        assert!(
            a.events_processed >= 400 * 2,
            "arrival + at least one iteration each"
        );
    }

    #[test]
    fn scale_sweep_exercises_resizes_and_prunes_memory() {
        let cfg = ScaleConfig {
            resizable_percent: 50,
            ..ScaleConfig::new(128, 40_000).with_seed(3)
        };
        let r = run_scale(&cfg);
        assert_eq!(r.jobs_finished, 40_000, "{r:?}");
        assert!(
            r.expansions > 0,
            "resizable jobs on a paced cluster must expand: {r:?}"
        );
        assert!(
            r.records_pruned > 0,
            "a 40k-job sweep must fold terminal records mid-run: {r:?}"
        );
        assert!(r.events_per_sec > 0.0 && r.wall_seconds > 0.0);
    }

    /// The saturated regime — arrivals exceed capacity, so the FCFS queue
    /// grows into the thousands and the §3.1 shrink-for-queue rule fires —
    /// pinned to recorded values in the shape of the benchmark's
    /// `des-saturated` workload. A change to queue handling must reproduce
    /// every count and the makespan bit for bit.
    #[test]
    fn saturated_sweep_is_pinned() {
        let cfg = ScaleConfig {
            resizable_percent: 30,
            max_iterations: 6,
            target_utilization: 1.25,
            ..ScaleConfig::new(512, 30_000)
        }
        .with_seed(31337);
        let r = run_scale(&cfg);
        assert_eq!(r.jobs_finished, 30_000, "{r:?}");
        assert_eq!(r.events_processed, 135_189, "{r:?}");
        assert_eq!(r.expansions, 192, "{r:?}");
        assert_eq!(r.shrinks, 17, "{r:?}");
        assert_eq!(r.peak_queue_depth, 6_230, "{r:?}");
        assert_eq!(
            r.makespan.to_bits(),
            29498.395341898144_f64.to_bits(),
            "{r:?}"
        );
    }

    /// The default sweep at 500 nodes and 5 000 jobs, seed 42, pinned to
    /// recorded values: every count, the makespan and the utilization bit
    /// for bit.
    #[test]
    fn default_sweep_is_pinned() {
        let r = run_scale(&ScaleConfig::new(500, 5_000).with_seed(42));
        assert_eq!(r.jobs_finished, 5_000, "{r:?}");
        assert_eq!(r.events_processed, 14_973, "{r:?}");
        assert_eq!(r.expansions + r.shrinks, 520, "{r:?}");
        assert_eq!(
            r.makespan.to_bits(),
            4528.515063116382_f64.to_bits(),
            "{r:?}"
        );
        assert_eq!(
            r.utilization.to_bits(),
            0.6444349204443196_f64.to_bits(),
            "{r:?}"
        );
    }
}
