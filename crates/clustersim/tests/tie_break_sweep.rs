//! Seeded tie-break sweep: run the same workloads under FIFO and several
//! seeded orderings of simultaneous DES events and demand that nothing a
//! policy *promises* depends on incidental push order.
//!
//! What must hold across tie-breaks: every job reaches the same terminal
//! disposition (finished / failed / cancelled), all jobs terminate, and
//! each seeded ordering is itself bit-deterministic (two runs under the
//! same tie seed are identical). What may legitimately differ: event
//! interleavings, and therefore makespans and turnarounds, because
//! simultaneous events drain in a different (but still seeded) order.
//!
//! This is the PR-7 follow-up sweep: the DES queue grew
//! `TieBreak::Seeded` precisely so hidden ordering assumptions could be
//! flushed; `simulate --tie-break seeded:N` exposes the same knob on the
//! command line.

use reshape_clustersim::{
    random_workload_with_faults, run_scale, workload1, workload2, ClusterSim, MachineParams,
    ScaleConfig, SimJob, SimResult, TieBreak,
};
use reshape_core::EventKind;

fn digest(result: &SimResult) -> String {
    let json = serde_json::to_string(result).expect("serialize SimResult");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Terminal dispositions as a sorted multiset keyed by `(arrival, name)`
/// — stable run-to-run identity even when internal job ids were assigned
/// in a different order or names repeat within a workload.
fn dispositions(result: &SimResult) -> Vec<(u64, String, &'static str)> {
    let mut out: Vec<(u64, String, &'static str)> = result
        .jobs
        .iter()
        .map(|j| {
            let term = result
                .events
                .iter()
                .filter(|e| e.job == j.job)
                .find_map(|e| match e.kind {
                    EventKind::Finished => Some("finished"),
                    EventKind::Failed { .. } => Some("failed"),
                    EventKind::Cancelled => Some("cancelled"),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("job {} has no terminal event", j.name));
            (j.submitted.to_bits(), j.name.clone(), term)
        })
        .collect();
    out.sort();
    out
}

fn run_with(jobs: &[SimJob], procs: usize, tie: TieBreak) -> SimResult {
    ClusterSim::new(procs, MachineParams::system_x())
        .with_des_tie_break(tie)
        .run(jobs)
}

/// Fault-heavy random workloads plus both paper workloads, each under
/// FIFO and three seeded permutations: dispositions must be invariant
/// and every seeded ordering must replay bitwise.
#[test]
fn tie_break_sweep_leaves_job_dispositions_invariant() {
    let mut workloads: Vec<(String, Vec<SimJob>, usize)> = Vec::new();
    for seed in [1u64, 7, 42, 101] {
        let w = random_workload_with_faults(seed, 6, 36);
        workloads.push((format!("random+faults seed {seed}"), w.jobs, w.total_procs));
    }
    let w1 = workload1();
    workloads.push(("W1".into(), w1.jobs, w1.total_procs));
    let w2 = workload2();
    workloads.push(("W2".into(), w2.jobs, w2.total_procs));

    for (label, jobs, procs) in &workloads {
        let baseline = run_with(jobs, *procs, TieBreak::Fifo);
        let want = dispositions(&baseline);
        let terminal = baseline.telemetry.jobs_finished
            + baseline.telemetry.jobs_failed
            + baseline.telemetry.jobs_cancelled;
        assert_eq!(
            terminal,
            jobs.len(),
            "{label}: FIFO run left jobs non-terminal"
        );
        for tie_seed in [1u64, 0xDEAD_BEEF, 0x5EED_0001] {
            let tie = TieBreak::Seeded(tie_seed);
            let a = run_with(jobs, *procs, tie);
            let b = run_with(jobs, *procs, tie);
            assert_eq!(
                digest(&a),
                digest(&b),
                "{label}: tie seed {tie_seed:#x} must replay bitwise"
            );
            assert_eq!(
                dispositions(&a),
                want,
                "{label}: tie seed {tie_seed:#x} changed a job's terminal disposition — \
                 a policy is leaning on incidental event push order"
            );
            let t =
                a.telemetry.jobs_finished + a.telemetry.jobs_failed + a.telemetry.jobs_cancelled;
            assert_eq!(
                t,
                jobs.len(),
                "{label}: tie seed {tie_seed:#x} left jobs non-terminal"
            );
        }
    }
}

/// The scale path honours the same knob: a seeded ordering still
/// terminates every job and replays bit-identically (virtual fields only
/// — wall-clock fields are excluded by comparing the virtual metrics).
#[test]
fn scale_sweep_honours_seeded_tie_break() {
    let fifo = run_scale(&ScaleConfig::new(64, 400).with_seed(9));
    for tie_seed in [2u64, 77] {
        let cfg = ScaleConfig::new(64, 400)
            .with_seed(9)
            .with_tie_break(TieBreak::Seeded(tie_seed));
        let a = run_scale(&cfg);
        let b = run_scale(&cfg);
        for r in [&a, &b] {
            assert_eq!(
                r.jobs_finished + r.jobs_failed + r.jobs_cancelled,
                400,
                "tie seed {tie_seed}: every job must terminate"
            );
        }
        assert_eq!(
            a.makespan.to_bits(),
            b.makespan.to_bits(),
            "tie seed {tie_seed}"
        );
        assert_eq!(
            a.utilization.to_bits(),
            b.utilization.to_bits(),
            "tie seed {tie_seed}"
        );
        assert_eq!(
            (
                a.jobs_finished,
                a.jobs_failed,
                a.jobs_cancelled,
                a.expansions,
                a.shrinks
            ),
            (
                b.jobs_finished,
                b.jobs_failed,
                b.jobs_cancelled,
                b.expansions,
                b.shrinks
            ),
            "tie seed {tie_seed}: seeded scale run must replay identically"
        );
        // The job stream is seed-derived, not order-derived: totals match
        // the FIFO baseline even though interleavings differ.
        assert_eq!(
            a.jobs_finished + a.jobs_failed + a.jobs_cancelled,
            fifo.jobs_finished + fifo.jobs_failed + fifo.jobs_cancelled,
        );
    }
}
