//! The Remap Scheduler's expand/shrink policy (paper §3.1).
//!
//! A decision to **expand** is made iff
//! 1. there are enough idle processors for the next configuration, and
//! 2. no jobs are waiting in the queue, and
//! 3. the previous expansion improved the iteration time, or the job has
//!    never been expanded.
//!
//! A decision to **shrink** is made iff the job has previously run on a
//! smaller set and
//! 1. the last expansion yielded no performance benefit (revert to the
//!    previous configuration — this is the sweet-spot detector), or
//! 2. jobs are waiting in the queue: shrink to the largest previously
//!    visited configuration that frees enough processors to start the first
//!    queued job; if none frees enough, shrink all the way to the smallest
//!    visited configuration and let the next application's resize point
//!    contribute the rest.

use serde::{Deserialize, Serialize};

use crate::job::JobSpec;
use crate::profiler::{JobProfile, Resize};
use crate::topology::ProcessorConfig;

/// What the cluster looks like when a job checks in at a resize point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemSnapshot {
    /// Idle processors available for expansion.
    pub idle_procs: usize,
    /// Processor request of the first queued job, if any.
    pub queue_head_need: Option<usize>,
    /// Outer iterations the job still has to run (0 when unknown) — used by
    /// the cost-benefit policy to amortize redistribution cost.
    pub remaining_iters: usize,
}

/// The Remap Scheduler's verdict for one resize point.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RemapDecision {
    /// Grow to `to`; the scheduler grants the additional processors.
    Expand { to: ProcessorConfig },
    /// Shrink to `to` (a previously visited configuration), relinquishing
    /// the difference.
    Shrink { to: ProcessorConfig },
    /// Continue on the current configuration.
    NoChange,
}

/// Remap-policy variant. [`RemapPolicy::Paper`] is the policy of §3.1;
/// the others are ablations of its two key design decisions (see the
/// `ablation_policy` bench).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RemapPolicy {
    /// The paper's policy: probe upward while improving, revert
    /// unprofitable expansions, shrink for queued work.
    #[default]
    Paper,
    /// Expand whenever processors are idle — even past the sweet spot and
    /// even with jobs waiting. Shrinks only to revert a failed expansion.
    GreedyExpand,
    /// Never give processors back: expansion as in the paper, but ignore
    /// queued jobs and never revert.
    NeverShrink,
    /// The paper's §4.1.2 suggestion implemented: expand only when the
    /// estimated iteration-time gain over the job's *remaining* iterations
    /// exceeds the redistribution cost. The gain estimate is optimistic
    /// (ideal speedup), so the policy still probes unknown configurations;
    /// the cost estimate is the profiler's measured redistribution cost for
    /// the transition (or, unmeasured, the cost of the most similar known
    /// transition) — "with ReSHAPE we save a record of actual
    /// redistribution costs ... which allows for more informed decisions".
    CostBenefit,
}

/// Decide expand/shrink/no-change for a resizable job at a resize point,
/// under the paper's policy.
pub fn decide(
    spec: &JobSpec,
    current: ProcessorConfig,
    profile: &JobProfile,
    sys: &SystemSnapshot,
    max_procs: usize,
) -> RemapDecision {
    decide_with(RemapPolicy::Paper, spec, current, profile, sys, max_procs)
}

/// [`decide`] parameterized by policy variant.
pub fn decide_with(
    policy: RemapPolicy,
    spec: &JobSpec,
    current: ProcessorConfig,
    profile: &JobProfile,
    sys: &SystemSnapshot,
    max_procs: usize,
) -> RemapDecision {
    if !spec.resizable {
        return RemapDecision::NoChange;
    }

    // Shrink rule 1: revert an unprofitable expansion (sweet spot found).
    if policy != RemapPolicy::NeverShrink {
        if let Some(Resize::Expanded { from, to }) = profile.last_resize() {
            if to == current && profile.last_expansion_improved() == Some(false) {
                return RemapDecision::Shrink { to: from };
            }
        }
    }

    // Shrink rule 2: make room for queued work (CostBenefit keeps the
    // paper's cooperative shrinking; it only gates *expansions*).
    if matches!(policy, RemapPolicy::Paper | RemapPolicy::CostBenefit) {
        if let Some(need) = sys.queue_head_need {
            let pts = profile.shrink_points(current);
            if let Some(pt) = pts.iter().find(|pt| pt.frees + sys.idle_procs >= need) {
                return RemapDecision::Shrink { to: pt.config };
            }
            if let Some(smallest) = profile.smallest_visited() {
                if smallest.procs() < current.procs() {
                    return RemapDecision::Shrink { to: smallest };
                }
            }
            return RemapDecision::NoChange;
        }
    }

    // Expand rule: idle processors, empty queue (Paper), still improving
    // (Paper/NeverShrink); GreedyExpand grows whenever anything is idle.
    let improving = match policy {
        RemapPolicy::GreedyExpand => true,
        _ => profile.last_expansion_improved().unwrap_or(true),
    };
    if improving {
        if let Some(next) = spec.topology.next_config(current, max_procs) {
            let delta = next.procs() - current.procs();
            if delta <= sys.idle_procs
                && (policy != RemapPolicy::CostBenefit
                    || expansion_pays_off(profile, current, next, sys.remaining_iters))
            {
                return RemapDecision::Expand { to: next };
            }
        }
    }
    RemapDecision::NoChange
}

/// Cost-benefit test: optimistic per-iteration gain (ideal speedup from the
/// measured time at `current`) times the remaining iterations must exceed
/// the redistribution cost. Without a cost record for this transition, fall
/// back to the largest cost the job has ever measured (conservative);
/// without any record at all, probe optimistically as the paper's base
/// policy does.
fn expansion_pays_off(
    profile: &JobProfile,
    current: ProcessorConfig,
    next: ProcessorConfig,
    remaining_iters: usize,
) -> bool {
    let Some(t_cur) = profile.time_at(current) else {
        return true;
    };
    let t_next_est = profile
        .time_at(next)
        .unwrap_or(t_cur * current.procs() as f64 / next.procs() as f64);
    let gain_per_iter = t_cur - t_next_est;
    if gain_per_iter <= 0.0 {
        return false;
    }
    let cost = profile.redist_cost(current, next).or_else(|| {
        profile
            .visited()
            .flat_map(|a| profile.visited().map(move |b| (a, b)))
            .filter_map(|(a, b)| profile.redist_cost(a, b))
            .fold(None, |acc: Option<f64>, c| {
                Some(acc.map_or(c, |m| m.max(c)))
            })
    });
    match cost {
        Some(c) => gain_per_iter * remaining_iters.max(1) as f64 > c,
        None => true, // nothing measured yet: probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::profiler::Profiler;
    use crate::topology::TopologyPref;

    fn cfg(r: usize, c: usize) -> ProcessorConfig {
        ProcessorConfig::new(r, c)
    }

    fn lu_spec() -> JobSpec {
        JobSpec::new(
            "LU",
            TopologyPref::Grid {
                problem_size: 12000,
            },
            cfg(1, 2),
            10,
        )
    }

    fn idle(n: usize) -> SystemSnapshot {
        SystemSnapshot {
            idle_procs: n,
            queue_head_need: None,
            remaining_iters: 5,
        }
    }

    #[test]
    fn fresh_job_expands_when_idle_and_no_queue() {
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(1, 2), 129.63, 0.0);
        let d = decide(&lu_spec(), cfg(1, 2), p.profile(j).unwrap(), &idle(30), 48);
        assert_eq!(d, RemapDecision::Expand { to: cfg(2, 2) });
    }

    #[test]
    fn no_expansion_without_idle_processors() {
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(1, 2), 129.63, 0.0);
        let d = decide(&lu_spec(), cfg(1, 2), p.profile(j).unwrap(), &idle(1), 48);
        // 1x2 -> 2x2 needs 2 more processors; only 1 idle.
        assert_eq!(d, RemapDecision::NoChange);
    }

    #[test]
    fn no_expansion_when_queue_nonempty() {
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(1, 2), 129.63, 0.0);
        let sys = SystemSnapshot {
            idle_procs: 30,
            queue_head_need: Some(100), // cannot be satisfied, but blocks expansion
            remaining_iters: 5,
        };
        let d = decide(&lu_spec(), cfg(1, 2), p.profile(j).unwrap(), &sys, 48);
        assert_eq!(d, RemapDecision::NoChange);
    }

    #[test]
    fn unprofitable_expansion_reverts() {
        // The Figure 3(a) trajectory: 12 -> 16 degraded, so revert to 12.
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(3, 4), 69.85, 0.0);
        p.record_resize(
            j,
            crate::profiler::Resize::Expanded {
                from: cfg(3, 4),
                to: cfg(4, 4),
            },
            4.41,
        );
        p.record_iteration(j, cfg(4, 4), 74.91, 4.41);
        let d = decide(&lu_spec(), cfg(4, 4), p.profile(j).unwrap(), &idle(30), 48);
        assert_eq!(d, RemapDecision::Shrink { to: cfg(3, 4) });
    }

    #[test]
    fn held_at_sweet_spot_after_revert() {
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(3, 4), 69.85, 0.0);
        p.record_resize(
            j,
            crate::profiler::Resize::Expanded {
                from: cfg(3, 4),
                to: cfg(4, 4),
            },
            4.41,
        );
        p.record_iteration(j, cfg(4, 4), 74.91, 4.41);
        p.record_resize(
            j,
            crate::profiler::Resize::Shrunk {
                from: cfg(4, 4),
                to: cfg(3, 4),
            },
            4.41,
        );
        p.record_iteration(j, cfg(3, 4), 69.85, 4.41);
        // Last expansion (3x4 -> 4x4) did not improve: expansion stays
        // blocked even with the whole cluster idle.
        let d = decide(&lu_spec(), cfg(3, 4), p.profile(j).unwrap(), &idle(36), 48);
        assert_eq!(d, RemapDecision::NoChange);
    }

    #[test]
    fn shrinks_to_largest_config_that_frees_enough() {
        let mut p = Profiler::new();
        let j = JobId(1);
        for (c, t) in [
            (cfg(1, 2), 129.6),
            (cfg(2, 2), 112.5),
            (cfg(2, 3), 82.3),
            (cfg(3, 3), 79.6),
        ] {
            p.record_iteration(j, c, t, 0.0);
        }
        let sys = SystemSnapshot {
            idle_procs: 0,
            queue_head_need: Some(3),
            remaining_iters: 5,
        };
        let d = decide(&lu_spec(), cfg(3, 3), p.profile(j).unwrap(), &sys, 48);
        // 2x3 frees 3 procs — the largest visited config that satisfies the
        // queued job (2x2 would free 5, needlessly hurting this job).
        assert_eq!(d, RemapDecision::Shrink { to: cfg(2, 3) });
    }

    #[test]
    fn idle_procs_count_toward_queued_need() {
        let mut p = Profiler::new();
        let j = JobId(1);
        for (c, t) in [(cfg(2, 2), 112.5), (cfg(2, 3), 82.3)] {
            p.record_iteration(j, c, t, 0.0);
        }
        let sys = SystemSnapshot {
            idle_procs: 2,
            queue_head_need: Some(4),
            remaining_iters: 5,
        };
        // Shrinking 2x3 -> 2x2 frees 2; with 2 idle that covers the need.
        let d = decide(&lu_spec(), cfg(2, 3), p.profile(j).unwrap(), &sys, 48);
        assert_eq!(d, RemapDecision::Shrink { to: cfg(2, 2) });
    }

    #[test]
    fn falls_back_to_smallest_when_cannot_free_enough() {
        let mut p = Profiler::new();
        let j = JobId(1);
        for (c, t) in [(cfg(1, 2), 129.6), (cfg(2, 2), 112.5), (cfg(2, 3), 82.3)] {
            p.record_iteration(j, c, t, 0.0);
        }
        let sys = SystemSnapshot {
            idle_procs: 0,
            queue_head_need: Some(30),
            remaining_iters: 5,
        };
        let d = decide(&lu_spec(), cfg(2, 3), p.profile(j).unwrap(), &sys, 48);
        assert_eq!(d, RemapDecision::Shrink { to: cfg(1, 2) });
    }

    #[test]
    fn job_at_starting_size_cannot_shrink() {
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(1, 2), 129.6, 0.0);
        let sys = SystemSnapshot {
            idle_procs: 0,
            queue_head_need: Some(4),
            remaining_iters: 5,
        };
        let d = decide(&lu_spec(), cfg(1, 2), p.profile(j).unwrap(), &sys, 48);
        assert_eq!(d, RemapDecision::NoChange);
    }

    #[test]
    fn static_jobs_never_resize() {
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(1, 2), 129.6, 0.0);
        let d = decide(
            &lu_spec().static_job(),
            cfg(1, 2),
            p.profile(j).unwrap(),
            &idle(36),
            48,
        );
        assert_eq!(d, RemapDecision::NoChange);
    }

    #[test]
    fn re_expansion_allowed_after_queue_shrink() {
        // W1 behaviour: LU shrinks for queued jobs, then grows back once the
        // cluster drains (its last *expansion* had improved).
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(2, 2), 112.5, 0.0);
        p.record_resize(
            j,
            crate::profiler::Resize::Expanded {
                from: cfg(2, 2),
                to: cfg(2, 3),
            },
            7.7,
        );
        p.record_iteration(j, cfg(2, 3), 82.3, 7.7);
        p.record_resize(
            j,
            crate::profiler::Resize::Shrunk {
                from: cfg(2, 3),
                to: cfg(2, 2),
            },
            7.7,
        );
        p.record_iteration(j, cfg(2, 2), 112.5, 7.7);
        let d = decide(&lu_spec(), cfg(2, 2), p.profile(j).unwrap(), &idle(36), 48);
        assert_eq!(d, RemapDecision::Expand { to: cfg(2, 3) });
    }

    #[test]
    fn cost_benefit_blocks_unamortizable_expansion() {
        // Measured: 1x2 -> 2x2 cost 8 s, gain per iteration ~1 s. With only
        // 3 iterations left the expansion cannot pay for itself.
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(2, 2), 10.0, 0.0);
        p.record_resize(
            j,
            crate::profiler::Resize::Expanded {
                from: cfg(2, 2),
                to: cfg(2, 3),
            },
            8.0,
        );
        p.record_iteration(j, cfg(2, 3), 9.0, 8.0);
        // Gain to next config (3x3, est. 9*6/9 = 6 s/iter → 3 s/iter gain):
        // amortized over `remaining` iterations against the measured 8 s.
        let sys_few = SystemSnapshot {
            idle_procs: 30,
            queue_head_need: None,
            remaining_iters: 2, // 2 * 3 = 6 < 8 → hold
        };
        let d = decide_with(
            RemapPolicy::CostBenefit,
            &lu_spec(),
            cfg(2, 3),
            p.profile(j).unwrap(),
            &sys_few,
            48,
        );
        assert_eq!(d, RemapDecision::NoChange);
        let sys_many = SystemSnapshot {
            remaining_iters: 5, // 5 * 3 = 15 > 8 → expand
            ..sys_few
        };
        let d = decide_with(
            RemapPolicy::CostBenefit,
            &lu_spec(),
            cfg(2, 3),
            p.profile(j).unwrap(),
            &sys_many,
            48,
        );
        assert_eq!(d, RemapDecision::Expand { to: cfg(3, 3) });
    }

    #[test]
    fn cost_benefit_probes_when_nothing_is_measured() {
        // First resize point: no redistribution cost on record — behave
        // like the paper's optimistic probe.
        let mut p = Profiler::new();
        let j = JobId(2);
        p.record_iteration(j, cfg(1, 2), 100.0, 0.0);
        let sys = SystemSnapshot {
            idle_procs: 30,
            queue_head_need: None,
            remaining_iters: 9,
        };
        let d = decide_with(
            RemapPolicy::CostBenefit,
            &lu_spec(),
            cfg(1, 2),
            p.profile(j).unwrap(),
            &sys,
            48,
        );
        assert_eq!(d, RemapDecision::Expand { to: cfg(2, 2) });
    }

    #[test]
    fn expansion_capped_by_max_procs() {
        let mut p = Profiler::new();
        let j = JobId(1);
        p.record_iteration(j, cfg(6, 6), 40.0, 0.0);
        // Next config 6x8 = 48 > cap 36.
        let d = decide(&lu_spec(), cfg(6, 6), p.profile(j).unwrap(), &idle(36), 36);
        assert_eq!(d, RemapDecision::NoChange);
    }
}
