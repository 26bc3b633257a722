//! Model-based differential test for the scheduler's job queue.
//!
//! The reference model keeps the queue the plainest way there is: a `Vec`
//! in admission order, a new job inserted before the first entry of
//! strictly lower priority, admission restarting from the head after every
//! start. Seeded op sequences drive it beside the real [`SchedulerCore`]
//! through the public API only; after every op the queue order and the
//! started-job sequence must agree. Priorities are mixed and the pool is
//! small, so the queue runs hundreds deep — the regime the scenario sweeps
//! (flat priorities, queues of 2–8) never reach.

use std::collections::BTreeMap;

use reshape_core::{
    Directive, JobId, JobSpec, ProcessorConfig, QueuePolicy, ReservationId, SchedulerCore,
    StartAction, TopologyPref,
};
use reshape_mpisim::SplitMix64;

const POOL: usize = 16;

trait Below {
    fn below(&mut self, n: usize) -> usize;
}

impl Below for SplitMix64 {
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

struct Queued {
    priority: u8,
    need: usize,
    binding: Option<ReservationId>,
}

struct Window {
    id: ReservationId,
    start: f64,
    end: f64,
    procs: usize,
}

/// The reference: queue order, idle count and who holds what — nothing of
/// the remap policy, whose directives it is told.
struct Model {
    policy: QueuePolicy,
    idle: usize,
    queue: Vec<JobId>,
    specs: BTreeMap<JobId, Queued>,
    /// Processors held per running job.
    held: BTreeMap<JobId, usize>,
    windows: Vec<Window>,
}

impl Model {
    fn available_for(&self, id: JobId, now: f64) -> usize {
        let entitled = self.specs[&id].binding;
        let withheld: usize = self
            .windows
            .iter()
            .filter(|w| now >= w.start && now < w.end && Some(w.id) != entitled)
            .map(|w| w.procs)
            .sum();
        self.idle.saturating_sub(withheld)
    }

    fn submit(&mut self, id: JobId, q: Queued) {
        let pos = self
            .queue
            .iter()
            .position(|j| self.specs[j].priority < q.priority)
            .unwrap_or(self.queue.len());
        self.queue.insert(pos, id);
        self.specs.insert(id, q);
    }

    /// The job left the system, from the queue or from its processors.
    fn retire(&mut self, id: JobId) {
        self.queue.retain(|&j| j != id);
        self.idle += self.held.remove(&id).unwrap_or(0);
    }

    fn admit(&mut self, now: f64) -> Vec<JobId> {
        let mut started = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            let id = self.queue[i];
            let need = self.specs[&id].need;
            if need <= self.available_for(id, now) {
                self.queue.remove(i);
                self.idle -= need;
                self.held.insert(id, need);
                started.push(id);
                i = 0;
            } else {
                match self.policy {
                    QueuePolicy::Fcfs => break,
                    QueuePolicy::Backfill => i += 1,
                }
            }
        }
        started
    }
}

fn spec(procs: usize, priority: u8) -> JobSpec {
    JobSpec::new(
        "",
        TopologyPref::AnyCount {
            min: 1,
            max: POOL,
            step: 1,
        },
        ProcessorConfig::linear(procs),
        1_000,
    )
    .with_priority(priority)
}

/// A random active job — one that never left the queue, or a running one —
/// and whether it was still queued.
fn pick_active(rng: &mut SplitMix64, queue: &[JobId], running: &[JobId]) -> Option<(JobId, bool)> {
    let from_queue = running.is_empty() || rng.below(2) == 0;
    if from_queue && !queue.is_empty() {
        Some((queue[rng.below(queue.len())], true))
    } else if !running.is_empty() {
        Some((running[rng.below(running.len())], false))
    } else {
        None
    }
}

#[derive(Default)]
struct Coverage {
    peak_queue: usize,
    shrinks: usize,
    reserved_starts: usize,
    queued_failures: usize,
}

fn run(seed: u64, policy: QueuePolicy, ops: usize, cov: &mut Coverage) {
    let mut rng = SplitMix64::new(seed);
    let mut core = SchedulerCore::new(POOL, policy);
    let mut m = Model {
        policy,
        idle: POOL,
        queue: Vec::new(),
        specs: BTreeMap::new(),
        held: BTreeMap::new(),
        windows: Vec::new(),
    };
    let mut now = 0.0;
    for op in 0..ops {
        now += rng.below(3) as f64;
        let running: Vec<JobId> = m.held.keys().copied().collect();
        // `None`: the op runs no admission pass. `Some(actions)`: it ran one.
        let mut got: Option<Vec<StartAction>> = None;
        match rng.below(100) {
            0..=54 => {
                let q = Queued {
                    priority: rng.below(4) as u8,
                    need: 1 + rng.below(8),
                    binding: (!m.windows.is_empty() && rng.below(8) == 0)
                        .then(|| m.windows[rng.below(m.windows.len())].id),
                };
                let s = spec(q.need, q.priority);
                let (id, started) = match q.binding {
                    Some(r) => core.submit_reserved(s, r, now),
                    None => core.submit(s, now),
                };
                m.submit(id, q);
                got = Some(started);
            }
            55..=64 if !running.is_empty() => {
                let id = running[rng.below(running.len())];
                m.retire(id);
                got = Some(core.on_finished(id, now));
            }
            65..=69 => {
                let Some((id, was_queued)) = pick_active(&mut rng, &m.queue, &running) else {
                    continue;
                };
                cov.queued_failures += was_queued as usize;
                m.retire(id);
                got = Some(core.on_failed(id, "injected".into(), now));
            }
            70..=77 => {
                let Some((id, _)) = pick_active(&mut rng, &m.queue, &running) else {
                    continue;
                };
                m.retire(id);
                got = Some(core.cancel(id, now));
            }
            78..=89 if !running.is_empty() => {
                let id = running[rng.below(running.len())];
                let held = m.held[&id];
                // Around ideal speedup, so expansions sometimes pay off and
                // sometimes revert.
                let iter_time = 100.0 / held as f64 * (0.5 + rng.below(100) as f64 / 100.0);
                let (directive, started) = core.resize_point(id, iter_time, 0.0, now);
                match directive {
                    Directive::Expand { to, new_slots } => {
                        assert_eq!(new_slots.len(), to.procs() - held);
                        m.idle -= to.procs() - held;
                        m.held.insert(id, to.procs());
                        assert!(started.is_empty());
                    }
                    Directive::Shrink { to } => {
                        cov.shrinks += 1;
                        m.idle += held - to.procs();
                        m.held.insert(id, to.procs());
                        got = Some(started);
                    }
                    Directive::NoChange => assert!(started.is_empty()),
                    Directive::Terminate => panic!("{id} is running in the model"),
                }
            }
            90..=93 => {
                let start = now + rng.below(20) as f64;
                let end = start + 1.0 + rng.below(60) as f64;
                let procs = 1 + rng.below(POOL / 2);
                let id = core.reserve(start, end, procs);
                m.windows.push(Window {
                    id,
                    start,
                    end,
                    procs,
                });
            }
            94..=96 if !m.windows.is_empty() => {
                let w = m.windows.remove(rng.below(m.windows.len()));
                core.cancel_reservation(w.id);
            }
            _ => got = Some(core.try_schedule(now)),
        }

        let ctx = format!("seed {seed} {policy:?} op {op} t={now}");
        if let Some(started) = got {
            let started: Vec<JobId> = started.iter().map(|a| a.job).collect();
            let expected = m.admit(now);
            cov.reserved_starts += expected
                .iter()
                .filter(|id| m.specs[id].binding.is_some())
                .count();
            assert_eq!(started, expected, "started jobs diverged: {ctx}");
        }
        assert_eq!(
            core.snapshot().queue,
            m.queue,
            "queue order diverged: {ctx}"
        );
        assert_eq!(core.queue_len(), m.queue.len(), "{ctx}");
        assert_eq!(
            core.queue_head_need(),
            m.queue.first().map(|id| m.specs[id].need),
            "{ctx}"
        );
        assert_eq!(core.idle_procs(), m.idle, "{ctx}");
        cov.peak_queue = cov.peak_queue.max(m.queue.len());
        // Keep the per-op snapshot proportional to the live jobs.
        core.clear_events();
        core.prune_terminal();
    }
}

/// 256 seeds; every sixteenth runs long enough for the queue to reach the
/// hundreds, the rest stay short and cover more early states.
fn sweep(policy: QueuePolicy) {
    let mut cov = Coverage::default();
    for seed in 0..256u64 {
        let ops = if seed % 16 == 0 { 900 } else { 200 };
        run(seed, policy, ops, &mut cov);
    }
    assert!(
        cov.peak_queue >= 200,
        "queue only reached {}",
        cov.peak_queue
    );
    assert!(cov.shrinks > 0, "no resize point shrank");
    assert!(cov.reserved_starts > 0, "no reservation-bound job started");
    assert!(cov.queued_failures > 0, "no still-queued job failed");
}

#[test]
fn fcfs_queue_matches_the_reference_model() {
    sweep(QueuePolicy::Fcfs);
}

#[test]
fn backfill_queue_matches_the_reference_model() {
    sweep(QueuePolicy::Backfill);
}
