//! Property tests: under arbitrary event sequences, the scheduler never
//! loses or double-books a processor, and job states stay consistent.

use std::collections::HashSet;

use proptest::prelude::*;
use reshape_core::{
    JobId, JobSpec, JobState, ProcessorConfig, QueuePolicy, RemapPolicy, SchedulerCore,
    TopologyPref,
};

#[derive(Clone, Debug)]
enum Op {
    /// Submit a grid job with the given initial square-ish size index.
    Submit { size: usize, priority: u8 },
    /// Finish the i-th live job (mod live count).
    Finish { pick: usize },
    /// Fail the i-th live job.
    Fail { pick: usize },
    /// Resize point for the i-th running job with some iteration time.
    Resize { pick: usize, iter_time: f64 },
    /// Install a reservation for `procs` over a window starting now.
    Reserve { procs: usize, len: f64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4, 0u8..3).prop_map(|(size, priority)| Op::Submit { size, priority }),
        (0usize..8).prop_map(|pick| Op::Finish { pick }),
        (0usize..8).prop_map(|pick| Op::Fail { pick }),
        (0usize..8, 1.0f64..200.0).prop_map(|(pick, iter_time)| Op::Resize { pick, iter_time }),
        (1usize..12, 10.0f64..500.0).prop_map(|(procs, len)| Op::Reserve { procs, len }),
    ]
}

/// Initial configurations whose divisibility works for problem size 7200.
const SIZES: [(usize, usize); 4] = [(1, 2), (2, 2), (2, 3), (3, 4)];

fn check_invariants(core: &SchedulerCore) {
    let total = core.total_procs();
    assert_eq!(
        core.busy_procs() + core.idle_procs(),
        total,
        "slot count conserved"
    );
    // Every slot assigned to exactly one running job; none out of range.
    let mut seen: HashSet<usize> = HashSet::new();
    let mut busy = 0usize;
    for (id, rec) in core.jobs() {
        match &rec.state {
            JobState::Running { config } => {
                assert_eq!(
                    rec.slots.len(),
                    config.procs(),
                    "{id}: slots must match configuration"
                );
                for &s in &rec.slots {
                    assert!(s < total, "{id}: slot {s} out of range");
                    assert!(seen.insert(s), "{id}: slot {s} double-booked");
                }
                busy += rec.slots.len();
            }
            _ => assert!(rec.slots.is_empty(), "{id}: non-running job holds slots"),
        }
    }
    assert_eq!(busy, core.busy_procs(), "busy count matches slot ownership");
}

fn live_jobs(core: &SchedulerCore) -> Vec<JobId> {
    let mut v: Vec<JobId> = core
        .jobs()
        .filter(|(_, r)| r.state.is_active())
        .map(|(id, _)| *id)
        .collect();
    v.sort();
    v
}

fn running_jobs(core: &SchedulerCore) -> Vec<JobId> {
    let mut v: Vec<JobId> = core
        .jobs()
        .filter(|(_, r)| matches!(r.state, JobState::Running { .. }))
        .map(|(id, _)| *id)
        .collect();
    v.sort();
    v
}

fn run_ops(total: usize, policy: QueuePolicy, remap: RemapPolicy, ops: Vec<Op>) {
    let mut core = SchedulerCore::new(total, policy).with_remap_policy(remap);
    let mut now = 0.0;
    for op in ops {
        now += 1.0;
        match op {
            Op::Submit { size, priority } => {
                let (r, c) = SIZES[size % SIZES.len()];
                let spec = JobSpec::new(
                    "p",
                    TopologyPref::Grid { problem_size: 7200 },
                    ProcessorConfig::new(r, c),
                    1000,
                )
                .with_priority(priority);
                core.submit(spec, now);
            }
            Op::Finish { pick } => {
                let live = live_jobs(&core);
                if !live.is_empty() {
                    core.on_finished(live[pick % live.len()], now);
                }
            }
            Op::Fail { pick } => {
                let live = live_jobs(&core);
                if !live.is_empty() {
                    core.on_failed(live[pick % live.len()], "injected".into(), now);
                }
            }
            Op::Resize { pick, iter_time } => {
                let running = running_jobs(&core);
                if !running.is_empty() {
                    core.resize_point(running[pick % running.len()], iter_time, 0.0, now);
                }
            }
            Op::Reserve { procs, len } => {
                let procs = procs.min(total);
                core.reserve(now, now + len, procs);
            }
        }
        check_invariants(&core);
    }
    // Drain: finish everything, pool must be whole again.
    for id in live_jobs(&core) {
        now += 1.0;
        core.on_finished(id, now);
        check_invariants(&core);
    }
    assert_eq!(
        core.idle_procs(),
        total,
        "all processors returned at the end"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scheduler_conserves_slots_fcfs(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        run_ops(16, QueuePolicy::Fcfs, RemapPolicy::Paper, ops);
    }

    #[test]
    fn scheduler_conserves_slots_backfill(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        run_ops(12, QueuePolicy::Backfill, RemapPolicy::Paper, ops);
    }

    #[test]
    fn scheduler_conserves_slots_greedy(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        run_ops(20, QueuePolicy::Fcfs, RemapPolicy::GreedyExpand, ops);
    }

    #[test]
    fn scheduler_conserves_slots_never_shrink(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        run_ops(16, QueuePolicy::Backfill, RemapPolicy::NeverShrink, ops);
    }

    #[test]
    fn utilization_is_a_fraction(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut core = SchedulerCore::new(10, QueuePolicy::Fcfs);
        let mut now = 0.0;
        for op in ops {
            now += 1.0;
            if let Op::Submit { size, priority } = op {
                let (r, c) = SIZES[size % SIZES.len()];
                let spec = JobSpec::new(
                    "u",
                    TopologyPref::Grid { problem_size: 7200 },
                    ProcessorConfig::new(r, c),
                    10,
                )
                .with_priority(priority);
                core.submit(spec, now);
            }
        }
        let u = core.utilization(now + 1.0);
        prop_assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    }
}
