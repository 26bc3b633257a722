//! The scheduler invariant oracle.
//!
//! Two layers of checks:
//!
//! * [`check_invariants`] — structural soundness of the live scheduler
//!   state, evaluated after every transition: no processor leaked or
//!   double-allocated, allocation sizes match configurations, pool
//!   accounting consistent.
//! * [`check_trace`] — admission-order and termination properties judged
//!   from the full event trace once a run ends: FCFS never starts a job
//!   past a waiting earlier one; backfill only bypasses a job that could
//!   not have fit; every job reaches a terminal state; the cluster drains
//!   back to fully idle.
//!
//! Both assume a reservation-free workload (what the scenario generator
//! produces); priorities may be mixed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use reshape_core::{EventKind, JobId, JobState, QueuePolicy, SchedEvent, SchedulerCore};

/// Structural invariants of the live scheduler state. Returns a
/// description of the first violation found.
pub fn check_invariants(core: &SchedulerCore) -> Result<(), String> {
    // Owned, not total: a federated core may have lent native slots away
    // (they count neither idle nor busy) or borrowed foreign ones (minted
    // at ids >= total). For a standalone core owned == total and the
    // checks reduce to their classic forms.
    let owned = core.owned_procs();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    for (id, rec) in core.jobs() {
        match rec.state {
            JobState::Running { config } => {
                if rec.slots.len() != config.procs() {
                    return Err(format!(
                        "{id}: running on {} but holds {} slots",
                        config,
                        rec.slots.len()
                    ));
                }
                for &s in &rec.slots {
                    if !core.slot_owned(s) {
                        return Err(format!(
                            "{id}: slot {s} not owned by this pool (lent away or never minted)"
                        ));
                    }
                    if !seen.insert(s) {
                        return Err(format!("{id}: slot {s} double-allocated"));
                    }
                }
            }
            _ => {
                if !rec.slots.is_empty() {
                    return Err(format!(
                        "{id}: not running but still holds {} slots",
                        rec.slots.len()
                    ));
                }
            }
        }
    }
    if seen.len() != core.busy_procs() {
        return Err(format!(
            "processor leak: jobs hold {} slots but the pool counts {} busy",
            seen.len(),
            core.busy_procs()
        ));
    }
    if core.idle_procs() + core.busy_procs() != owned {
        return Err(format!(
            "pool accounting broken: idle {} + busy {} != owned {owned} \
             (total {}, lent {}, borrowed {})",
            core.idle_procs(),
            core.busy_procs(),
            core.total_procs(),
            core.lent_procs(),
            core.borrowed_procs()
        ));
    }
    Ok(())
}

/// End-of-run checks: every job terminal, cluster drained, and the event
/// trace respects the queue policy's admission order. `need` maps each job
/// to its `(priority, initial processor request)`.
pub fn check_trace(
    core: &SchedulerCore,
    events: &[SchedEvent],
    need: &BTreeMap<JobId, (u8, usize)>,
    policy: QueuePolicy,
) -> Result<(), String> {
    for (id, rec) in core.jobs() {
        if !rec.state.is_terminal() {
            return Err(format!("{id} never terminated (state {:?})", rec.state));
        }
    }
    if core.idle_procs() != core.total_procs() {
        return Err(format!(
            "cluster did not drain: {} of {} idle at end",
            core.idle_procs(),
            core.total_procs()
        ));
    }
    check_admission_order(events, need, policy, core.total_procs())
}

/// Replay the trace, tracking who is queued and how many processors are
/// busy, and judge every `Started` event against the queue policy.
///
/// Queue order is higher priority first, then submission order (JobIds are
/// assigned in submission order) — "earlier" below means ahead in that
/// order. For FCFS a start while an earlier job waits is always a
/// violation; for backfill it is legal only if the bypassed job could not
/// have fit the idle processors at that instant — exactly the check
/// `try_schedule` makes, so any divergence is a scheduler bug, not model
/// drift.
fn check_admission_order(
    events: &[SchedEvent],
    need: &BTreeMap<JobId, (u8, usize)>,
    policy: QueuePolicy,
    total: usize,
) -> Result<(), String> {
    let key = |job: JobId| {
        need.get(&job)
            .map(|&(priority, _)| (Reverse(priority), job))
            .ok_or_else(|| format!("{job} missing from need map"))
    };
    let mut queued: BTreeSet<(Reverse<u8>, JobId)> = BTreeSet::new();
    let mut running: BTreeMap<JobId, usize> = BTreeMap::new();
    let mut busy = 0usize;
    for e in events {
        match &e.kind {
            EventKind::Submitted => {
                queued.insert(key(e.job)?);
            }
            EventKind::Started { config } => {
                let started = key(e.job)?;
                queued.remove(&started);
                let idle = total - busy;
                for (_, earlier) in queued.range(..started) {
                    let earlier_need = need[earlier].1;
                    match policy {
                        QueuePolicy::Fcfs => {
                            return Err(format!(
                                "FCFS violated at t={}: {} started while {earlier} waited",
                                e.time, e.job
                            ));
                        }
                        QueuePolicy::Backfill => {
                            if earlier_need <= idle {
                                return Err(format!(
                                    "backfill violated at t={}: {} started while {earlier} \
                                     (need {earlier_need} <= idle {idle}) waited",
                                    e.time, e.job
                                ));
                            }
                        }
                    }
                }
                busy += config.procs();
                running.insert(e.job, config.procs());
            }
            EventKind::Expanded { to, .. }
            | EventKind::Shrunk { to, .. }
            | EventKind::NodeFailed { to, .. } => {
                let prev = running.insert(e.job, to.procs()).unwrap_or(0);
                busy = busy + to.procs() - prev;
            }
            EventKind::ExpandFailed { from, .. } => {
                let prev = running.insert(e.job, from.procs()).unwrap_or(0);
                busy = busy + from.procs() - prev;
            }
            EventKind::Finished | EventKind::Failed { .. } | EventKind::Cancelled => {
                queued.remove(&key(e.job)?);
                busy -= running.remove(&e.job).unwrap_or(0);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshape_core::{JobSpec, ProcessorConfig, TopologyPref};

    fn spec(procs: usize) -> JobSpec {
        JobSpec::new(
            "t",
            TopologyPref::AnyCount {
                min: procs,
                max: 64,
                step: 1,
            },
            ProcessorConfig::linear(procs),
            3,
        )
        .static_job()
    }

    #[test]
    fn healthy_core_passes() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        let (_a, _) = core.submit(spec(4), 0.0);
        check_invariants(&core).unwrap();
        let (_b, _) = core.submit(spec(8), 0.1); // queues behind a
        check_invariants(&core).unwrap();
    }

    #[test]
    fn planted_leak_is_caught() {
        let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs);
        core.chaos_skip_release_on_failure(true);
        let (a, _) = core.submit(spec(4), 0.0);
        core.on_failed(a, "injected".into(), 1.0);
        let err = check_invariants(&core).unwrap_err();
        assert!(err.contains("leak"), "unexpected message: {err}");
    }

    #[test]
    fn fcfs_bypass_is_flagged() {
        // Hand-built illegal trace: job 2 starts while job 1 waits.
        let mk = |job, kind| SchedEvent {
            time: 0.0,
            job: JobId(job),
            kind,
        };
        let events = vec![
            mk(1, EventKind::Submitted),
            mk(2, EventKind::Submitted),
            mk(
                2,
                EventKind::Started {
                    config: ProcessorConfig::linear(2),
                },
            ),
        ];
        let mut need = BTreeMap::new();
        need.insert(JobId(1), (0, 2));
        need.insert(JobId(2), (0, 2));
        let err = check_admission_order(&events, &need, QueuePolicy::Fcfs, 8).unwrap_err();
        assert!(err.contains("FCFS violated"));
        // The same trace is also an illegal backfill (job 1 would have fit).
        let err = check_admission_order(&events, &need, QueuePolicy::Backfill, 8).unwrap_err();
        assert!(err.contains("backfill violated"));
        // ... but a legal backfill when job 1 cannot fit.
        need.insert(JobId(1), (0, 16));
        check_admission_order(&events, &need, QueuePolicy::Backfill, 8).unwrap();
    }

    #[test]
    fn priority_bypass_is_flagged() {
        // Job 1 (priority 0) was submitted first, but job 2 (priority 5)
        // queues ahead of it: starting job 1 while job 2 fits is illegal.
        let mk = |job, kind| SchedEvent {
            time: 0.0,
            job: JobId(job),
            kind,
        };
        let events = vec![
            mk(1, EventKind::Submitted),
            mk(2, EventKind::Submitted),
            mk(
                1,
                EventKind::Started {
                    config: ProcessorConfig::linear(2),
                },
            ),
        ];
        let mut need = BTreeMap::new();
        need.insert(JobId(1), (0, 2));
        need.insert(JobId(2), (5, 2));
        let err = check_admission_order(&events, &need, QueuePolicy::Fcfs, 8).unwrap_err();
        assert!(err.contains("FCFS violated"));
        let err = check_admission_order(&events, &need, QueuePolicy::Backfill, 8).unwrap_err();
        assert!(err.contains("backfill violated"));
        // With flat priorities the same trace is plain submission order.
        need.insert(JobId(2), (0, 2));
        check_admission_order(&events, &need, QueuePolicy::Fcfs, 8).unwrap();
    }
}
