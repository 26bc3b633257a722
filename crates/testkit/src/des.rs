//! DES-backed scenario executor: the same seeded workloads, fault
//! schedules, and oracles as [`crate::harness::Driver`], driven by the
//! discrete-event queue from `reshape-clustersim` instead of the legacy
//! scan over pending events.
//!
//! The legacy driver recomputes "earliest of the next submission or the
//! earliest check-in, ties to the submission then to the lowest job id" on
//! every step. [`DesHarness`] encodes exactly that order on
//! [`EventQueue::push_keyed`]:
//!
//! * every submission is queued up-front at its arrival time with key `0`
//!   (arrivals are non-decreasing and pushed in index order, so the FIFO
//!   `seq` tie keeps submissions in submission order);
//! * a check-in for job `j` is queued with key `1 + j.0` — job ids start
//!   at 1, so any simultaneous submission outranks it, and simultaneous
//!   check-ins drain lowest-id first.
//!
//! A job has exactly one *valid* pending check-in at a time; re-pacing
//! (cancel → `now + 0.01`, hang → watchdog deadline, node loss → survivor
//! pace) bumps a per-job generation counter, and pops whose generation is
//! stale are skipped without counting as transitions. The equivalence is
//! proven by `tests/des_sweep.rs`: the full 256-seed sweep must produce
//! identical [`RunStats`] and bitwise-identical core snapshots from both
//! executors.

use std::collections::BTreeMap;

use reshape_clustersim::EventQueue;
use reshape_core::{Directive, JobId, JobState, SchedulerCore, StartAction};

use crate::harness::{stats, RunStats, MAX_TRANSITIONS, WATCHDOG_DEADLINE};
use crate::oracle;
use crate::scenario::{generate, Fault, Scenario};

/// One event on the harness clock.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Submit scenario job `index`.
    Submit(usize),
    /// Check-in (or watchdog deadline) for a running job. `gen` is the
    /// pacing generation it was scheduled under; a mismatch means the job
    /// was re-paced (or removed) after this event was queued, and the pop
    /// is ignored.
    Checkin { job: JobId, gen: u64 },
}

/// Per-running-job bookkeeping of the simulated application side.
struct Live {
    plan: usize,
    checkins: usize,
    expand_fault_armed: bool,
    hung: bool,
    /// Pacing generation of the job's one valid pending check-in.
    gen: u64,
}

/// [`crate::harness::Driver`] on the DES event queue. Same construction
/// shape: [`DesHarness::new`] takes a scenario and a caller-prepared core,
/// [`DesHarness::step`] performs one oracle-checked transition,
/// [`DesHarness::finish`] drains the run and applies the trace oracle.
pub struct DesHarness<'a> {
    sc: &'a Scenario,
    core: SchedulerCore,
    live: BTreeMap<JobId, Live>,
    ids: Vec<Option<JobId>>,
    queue: EventQueue<Ev>,
    transitions: usize,
    hangs_injected: usize,
    watchdog_kills: usize,
    node_losses_survived: usize,
}

impl<'a> DesHarness<'a> {
    pub fn new(sc: &'a Scenario, core: SchedulerCore) -> Self {
        let mut queue = EventQueue::new();
        for (i, plan) in sc.jobs.iter().enumerate() {
            queue.push_keyed(plan.arrival, 0, Ev::Submit(i));
        }
        DesHarness {
            sc,
            core,
            live: BTreeMap::new(),
            ids: vec![None; sc.jobs.len()],
            queue,
            transitions: 0,
            hangs_injected: 0,
            watchdog_kills: 0,
            node_losses_survived: 0,
        }
    }

    /// Transitions executed so far (stale pops excluded).
    pub fn transitions(&self) -> usize {
        self.transitions
    }

    pub fn core(&self) -> &SchedulerCore {
        &self.core
    }

    /// Execute one transition. `Ok(true)` means progress was made,
    /// `Ok(false)` means the event queue is drained.
    pub fn step(&mut self) -> Result<bool, String> {
        loop {
            let Some((now, ev)) = self.queue.pop() else {
                return Ok(false);
            };
            match ev {
                Ev::Submit(index) => {
                    self.transition_guard()?;
                    let plan = &self.sc.jobs[index];
                    let (id, starts) = self.core.submit(plan.spec.clone(), now);
                    self.ids[index] = Some(id);
                    self.register(&starts, now);
                    break;
                }
                Ev::Checkin { job, gen } => {
                    // Stale pacing generation: the job was re-paced or went
                    // terminal after this event was queued.
                    if self.live.get(&job).is_none_or(|l| l.gen != gen) {
                        continue;
                    }
                    self.transition_guard()?;
                    self.checkin(job, now)?;
                    break;
                }
            }
        }
        oracle::check_invariants(&self.core).map_err(|e| self.fail(e))?;
        Ok(true)
    }

    /// Run the remaining transitions and the end-of-run trace oracle.
    /// Returns the statistics and the final core.
    pub fn finish(mut self) -> Result<(RunStats, SchedulerCore), String> {
        while self.step()? {}
        let need: BTreeMap<JobId, (u8, usize)> = self
            .ids
            .iter()
            .zip(&self.sc.jobs)
            .filter_map(|(id, p)| id.map(|id| (id, (p.spec.priority, p.spec.initial.procs()))))
            .collect();
        oracle::check_trace(&self.core, self.core.events(), &need, self.sc.policy)
            .map_err(|e| self.fail(e))?;
        let mut st = stats(self.transitions, self.core.events());
        st.hangs_injected = self.hangs_injected;
        st.watchdog_kills = self.watchdog_kills;
        if st.node_losses_survived != self.node_losses_survived {
            return Err(self.fail(format!(
                "node-loss accounting diverged: {} reported, {} in the trace",
                self.node_losses_survived, st.node_losses_survived
            )));
        }
        Ok((st, self.core))
    }

    fn transition_guard(&mut self) -> Result<(), String> {
        self.transitions += 1;
        if self.transitions > MAX_TRANSITIONS {
            return Err(self.fail(format!(
                "no progress after {MAX_TRANSITIONS} transitions — livelock"
            )));
        }
        Ok(())
    }

    fn fail(&self, msg: String) -> String {
        format!("seed {}: {}", self.sc.seed, msg)
    }

    /// Re-pace `id`: bump its generation and queue the one valid pending
    /// check-in at `at`, ranked below simultaneous submissions and among
    /// simultaneous check-ins by job id.
    fn pace(&mut self, id: JobId, at: f64) {
        let l = self.live.get_mut(&id).expect("pacing a live job");
        l.gen += 1;
        let gen = l.gen;
        self.queue.push_keyed(at, 1 + id.0, Ev::Checkin { job: id, gen });
    }

    /// Record scheduler-started jobs as live applications and queue their
    /// first check-ins.
    fn register(&mut self, starts: &[StartAction], now: f64) {
        for s in starts {
            let plan = self
                .ids
                .iter()
                .position(|i| *i == Some(s.job))
                .expect("started job was submitted");
            let work = self.sc.jobs[plan].work;
            self.live.insert(
                s.job,
                Live {
                    plan,
                    checkins: 0,
                    expand_fault_armed: true,
                    hung: false,
                    gen: 0,
                },
            );
            self.pace(s.job, now + work / s.config.procs() as f64);
        }
    }

    /// Process one application check-in (or watchdog deadline), firing any
    /// due fault. Mirrors `Driver::checkin` transition for transition.
    fn checkin(&mut self, id: JobId, now: f64) -> Result<(), String> {
        let (plan_idx, checkins, armed, hung) = {
            let l = self.live.get_mut(&id).expect("checkin for live job");
            if !l.hung {
                l.checkins += 1;
            }
            (l.plan, l.checkins, l.expand_fault_armed, l.hung)
        };
        let plan = &self.sc.jobs[plan_idx];

        if hung {
            let starts = self
                .core
                .on_failed(id, "hung: missed watchdog heartbeat deadline".into(), now);
            self.live.remove(&id);
            self.register(&starts, now);
            self.watchdog_kills += 1;
            return Ok(());
        }

        // A job cancelled at an earlier check-in comes back one more time to
        // pick up its Terminate directive, like a real driver would.
        let config = match self.core.job(id).map(|r| r.state.clone()) {
            Some(JobState::Running { config }) => config,
            _ => {
                let (d, starts) = self.core.resize_point(id, 0.0, 0.0, now);
                self.register(&starts, now);
                if d != Directive::Terminate {
                    return Err(format!("{id}: expected Terminate after cancel, got {d:?}"));
                }
                self.live.remove(&id);
                return Ok(());
            }
        };

        match plan.fault {
            Some(Fault::FailAtCheckin(k)) if k == checkins => {
                let starts = self.core.on_failed(id, "injected node failure".into(), now);
                self.live.remove(&id);
                self.register(&starts, now);
                return Ok(());
            }
            Some(Fault::CancelAtCheckin(k)) if k == checkins => {
                let starts = self.core.cancel(id, now);
                self.register(&starts, now);
                // One more check-in to receive Terminate.
                self.pace(id, now + 0.01);
                return Ok(());
            }
            Some(Fault::HangAtCheckin(k)) if k == checkins => {
                self.live.get_mut(&id).expect("still live").hung = true;
                self.pace(id, now + WATCHDOG_DEADLINE);
                self.hangs_injected += 1;
                return Ok(());
            }
            Some(Fault::NodeLoss { checkin: k, buddy_intact }) if k == checkins => {
                if buddy_intact && config.procs() > 1 {
                    let dead = [*self
                        .core
                        .job(id)
                        .expect("running job holds slots")
                        .slots
                        .last()
                        .expect("running job holds at least one slot")];
                    let to = reshape_core::ProcessorConfig::new(1, config.procs() - 1);
                    let starts = self.core.on_node_failed(id, &dead, to, now);
                    self.register(&starts, now);
                    self.node_losses_survived += 1;
                    self.pace(id, now + plan.work / to.procs() as f64);
                } else {
                    let starts =
                        self.core
                            .on_failed(id, "node lost with its buddy".into(), now);
                    self.live.remove(&id);
                    self.register(&starts, now);
                }
                return Ok(());
            }
            _ => {}
        }

        let iter_time = plan.work / config.procs() as f64;
        let (directive, starts) = self.core.resize_point(id, iter_time, 0.0, now);
        self.register(&starts, now);
        if let Directive::Expand { .. } = directive {
            if armed && matches!(plan.fault, Some(Fault::ExpandFailure)) {
                let starts = self.core.on_expand_failed(id, now);
                self.register(&starts, now);
                self.live.get_mut(&id).expect("still live").expand_fault_armed = false;
            }
        }

        if checkins >= plan.spec.iterations {
            let starts = self.core.on_finished(id, now);
            self.live.remove(&id);
            self.register(&starts, now);
        } else {
            let procs = match self.core.job(id).map(|r| r.state.clone()) {
                Some(JobState::Running { config }) => config.procs(),
                _ => config.procs(),
            };
            self.pace(id, now + plan.work / procs as f64);
        }
        Ok(())
    }
}

/// Expand `seed` and drive it through the DES executor. The counterpart of
/// [`crate::harness::run_seed`].
pub fn run_seed_des(seed: u64) -> Result<RunStats, String> {
    let sc = generate(seed);
    let core = SchedulerCore::new(sc.total_procs, sc.policy);
    DesHarness::new(&sc, core).finish().map(|(st, _)| st)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn des_executor_completes_a_seeded_run() {
        let st = run_seed_des(42).expect("clean run");
        assert!(st.transitions > 0);
        assert!(st.starts > 0);
    }

    #[test]
    fn stale_checkins_do_not_count_as_transitions() {
        // A cancel re-paces the job to now + 0.01, invalidating the
        // previously queued check-in; the stale pop must be skipped
        // silently, so transition counts match the legacy driver's.
        for seed in 0..64 {
            let sc = generate(seed);
            let a = crate::harness::Driver::new(&sc, SchedulerCore::new(sc.total_procs, sc.policy))
                .finish()
                .expect("legacy run");
            let b = DesHarness::new(&sc, SchedulerCore::new(sc.total_procs, sc.policy))
                .finish()
                .expect("DES run");
            assert_eq!(a.0.transitions, b.0.transitions, "seed {seed}");
        }
    }
}
