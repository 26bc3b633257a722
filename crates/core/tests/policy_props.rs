//! Property tests for the §3.1 remap decision (`core::policy`): over random
//! profile trajectories,
//!
//! * the decision is *monotone in idle processors* — granting the scheduler
//!   more idle capacity can never flip an expansion into a shrink (an
//!   expansion stays exactly the same expansion);
//! * a non-empty queue never yields an expansion (the paper's rule 2:
//!   expand only when no jobs are waiting).

use proptest::collection::vec;
use proptest::prelude::*;
use reshape_core::{
    decide, JobId, JobSpec, ProcessorConfig, Profiler, RemapDecision, Resize, SystemSnapshot,
    TopologyPref,
};

/// Replay a random walk along the job's configuration chain, recording
/// iterations and resizes, and return (profiler, current configuration).
fn build_profile(
    spec: &JobSpec,
    moves: &[(u8, f64)],
    max_procs: usize,
) -> (Profiler, ProcessorConfig) {
    let chain = spec.topology.chain_from(spec.initial, max_procs);
    let job = JobId(1);
    let mut prof = Profiler::new();
    let mut pos = 0usize;
    prof.record_iteration(job, chain[0], 100.0, 0.0);
    for &(mv, t) in moves {
        match mv {
            1 if pos + 1 < chain.len() => {
                prof.record_resize(
                    job,
                    Resize::Expanded {
                        from: chain[pos],
                        to: chain[pos + 1],
                    },
                    1.0,
                );
                pos += 1;
                prof.record_iteration(job, chain[pos], t, 1.0);
            }
            2 if pos > 0 => {
                prof.record_resize(
                    job,
                    Resize::Shrunk {
                        from: chain[pos],
                        to: chain[pos - 1],
                    },
                    1.0,
                );
                pos -= 1;
                prof.record_iteration(job, chain[pos], t, 1.0);
            }
            _ => prof.record_iteration(job, chain[pos], t, 0.0),
        }
    }
    (prof, chain[pos])
}

fn spec() -> JobSpec {
    JobSpec::new(
        "LU",
        TopologyPref::Grid { problem_size: 8000 },
        ProcessorConfig::new(1, 2),
        10,
    )
}

const MAX_PROCS: usize = 40;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn more_idle_processors_never_flip_expand_to_shrink(
        moves in vec((0u8..3, 1.0f64..200.0), 0..12),
        idle in 0usize..40,
        extra in 1usize..60,
    ) {
        let spec = spec();
        let (prof, current) = build_profile(&spec, &moves, MAX_PROCS);
        let profile = prof.profile(JobId(1)).expect("recorded");
        let base = decide(
            &spec,
            current,
            profile,
            &SystemSnapshot { idle_procs: idle, queue_head_need: None, remaining_iters: 5 },
            MAX_PROCS,
        );
        let richer = decide(
            &spec,
            current,
            profile,
            &SystemSnapshot { idle_procs: idle + extra, queue_head_need: None, remaining_iters: 5 },
            MAX_PROCS,
        );
        if let RemapDecision::Expand { to } = &base {
            // With more idle capacity the same expansion must stand.
            prop_assert_eq!(
                &richer,
                &RemapDecision::Expand { to: *to },
                "idle {} -> {} changed the expansion", idle, idle + extra
            );
        }
        // And regardless of the base decision, extra idle capacity never
        // *introduces* a shrink: shrink triggers (unprofitable expansion,
        // queued demand) do not depend on idle processors growing.
        if !matches!(base, RemapDecision::Shrink { .. }) {
            prop_assert!(
                !matches!(richer, RemapDecision::Shrink { .. }),
                "adding {} idle processors introduced a shrink", extra
            );
        }
    }

    #[test]
    fn nonempty_queue_never_yields_expansion(
        moves in vec((0u8..3, 1.0f64..200.0), 0..12),
        idle in 0usize..40,
        need in 1usize..64,
    ) {
        let spec = spec();
        let (prof, current) = build_profile(&spec, &moves, MAX_PROCS);
        let profile = prof.profile(JobId(1)).expect("recorded");
        let d = decide(
            &spec,
            current,
            profile,
            &SystemSnapshot { idle_procs: idle, queue_head_need: Some(need), remaining_iters: 5 },
            MAX_PROCS,
        );
        prop_assert!(
            !matches!(d, RemapDecision::Expand { .. }),
            "expanded past a queued job needing {}: {:?}", need, d
        );
    }
}
