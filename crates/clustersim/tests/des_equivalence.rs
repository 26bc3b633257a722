//! Recorded snapshot suite for the DES engine behind
//! [`ClusterSim::run`].
//!
//! Every pinned run is kept as a **recorded snapshot**: an FNV-1a digest
//! of the run's serialized `SimResult` (decision outcomes, event feed,
//! makespan, utilization, telemetry snapshot — every `f64` to the last
//! bit), committed at
//! `tests/snapshots/des_results.txt` and re-checked here. Any engine
//! change that perturbs a single bit of any of the 260 pinned runs fails
//! the sweep.
//!
//! To re-record after an *intentional* behaviour change:
//!
//! ```text
//! RESHAPE_BLESS=1 cargo test -p reshape-clustersim --test des_equivalence
//! ```
//!
//! and commit the rewritten snapshot file (the bless run fails the suite
//! on purpose so a stale green is impossible).

use std::collections::BTreeMap;

use reshape_clustersim::{
    random_workload_with_faults, workload1, workload2, ClusterSim, MachineParams, RedistMode,
    SimResult, Workload,
};

const SNAPSHOT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/snapshots/des_results.txt"
);

/// FNV-1a over the serialized result: cheap, stable, and any bit flip in
/// any field (floating point included) changes the digest.
fn digest(result: &SimResult) -> String {
    let json = serde_json::to_string(result).expect("serialize SimResult");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn recorded() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(SNAPSHOT_PATH)
        .unwrap_or_else(|e| panic!("cannot read {SNAPSHOT_PATH}: {e}"));
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, hash) = l.rsplit_once(' ').expect("snapshot line: <label> <digest>");
            (label.to_string(), hash.to_string())
        })
        .collect()
}

/// Every pinned run, in snapshot-file order: the 256-seed random
/// workload+fault sweep plus the paper workloads under both
/// redistribution pricings and the static ablation.
fn pinned_runs() -> Vec<(String, SimResult)> {
    let machine = MachineParams::system_x();
    let mut runs = Vec::new();
    for seed in 0..256u64 {
        let n_jobs = 2 + (seed % 7) as usize;
        let procs = 8 + (seed % 5) as usize * 8;
        let w = random_workload_with_faults(seed, n_jobs, procs);
        let r = ClusterSim::new(w.total_procs, machine).run(&w.jobs);
        assert_eq!(
            r.telemetry.jobs_finished + r.telemetry.jobs_failed + r.telemetry.jobs_cancelled,
            n_jobs,
            "seed {seed}: every job must reach a terminal state"
        );
        runs.push((format!("seed-{seed}"), r));
    }
    let paper: Vec<(&str, Workload, RedistMode)> = vec![
        ("W1/reshape", workload1(), RedistMode::Reshape),
        ("W1/checkpoint", workload1(), RedistMode::Checkpoint),
        ("W2/reshape", workload2(), RedistMode::Reshape),
        ("W1-static", workload1().as_static(), RedistMode::Reshape),
    ];
    for (label, w, mode) in paper {
        let sim = ClusterSim::new(w.total_procs, machine).with_redist_mode(mode);
        runs.push((label.to_string(), sim.run(&w.jobs)));
    }
    runs
}

/// The 256-seed sweep plus the paper workloads must reproduce the
/// recorded results bitwise.
#[test]
fn des_matches_recorded_snapshots() {
    let runs = pinned_runs();
    if std::env::var("RESHAPE_BLESS").is_ok() {
        let mut out = String::from(
            "# FNV-1a digests of serialized SimResults; re-record with\n\
             # RESHAPE_BLESS=1 cargo test -p reshape-clustersim --test des_equivalence\n",
        );
        for (label, r) in &runs {
            out.push_str(&format!("{label} {}\n", digest(r)));
        }
        std::fs::write(SNAPSHOT_PATH, out).expect("write snapshot file");
        panic!("snapshots re-recorded at {SNAPSHOT_PATH}; inspect the diff and commit");
    }
    let want = recorded();
    assert_eq!(want.len(), runs.len(), "snapshot count mismatch");
    let mut diverged = Vec::new();
    for (label, r) in &runs {
        let got = digest(r);
        match want.get(label) {
            Some(w) if *w == got => {}
            Some(w) => diverged.push(format!("{label}: recorded {w}, got {got}")),
            None => diverged.push(format!("{label}: missing from snapshot file")),
        }
    }
    assert!(
        diverged.is_empty(),
        "{} runs diverged from recorded snapshots:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

/// The sweep is only a proof if it covers the interesting transitions:
/// cancellations, failures, expansions, and shrinks must all occur
/// somewhere in the 256 seeds.
#[test]
fn sweep_exercises_fault_and_resize_paths() {
    let machine = MachineParams::system_x();
    let mut cancelled = 0usize;
    let mut failed = 0usize;
    let mut expanded = 0usize;
    let mut shrunk = 0usize;
    for seed in 0..256u64 {
        let w =
            random_workload_with_faults(seed, 2 + (seed % 7) as usize, 8 + (seed % 5) as usize * 8);
        let r = ClusterSim::new(w.total_procs, machine).run(&w.jobs);
        cancelled += r.telemetry.jobs_cancelled;
        failed += r.telemetry.jobs_failed;
        expanded += r.telemetry.expansions;
        shrunk += r.telemetry.shrinks;
    }
    assert!(cancelled > 10, "sweep must cancel jobs, got {cancelled}");
    assert!(failed > 10, "sweep must fail jobs, got {failed}");
    assert!(expanded > 100, "sweep must expand jobs, got {expanded}");
    assert!(shrunk > 10, "sweep must shrink jobs, got {shrunk}");
}

/// Determinism differential on a fresh seed: CI passes
/// `TESTKIT_SEED=$GITHUB_RUN_ID`, and two runs of the same workload must
/// be bitwise-identical (the property the recorded snapshots pin for the
/// fixed seeds).
#[test]
fn env_seed_replays_deterministically() {
    let seed: u64 = match std::env::var("TESTKIT_SEED") {
        Ok(s) => s.trim().parse().expect("TESTKIT_SEED must be an integer"),
        Err(_) => return, // fixed-seed snapshots cover the default case
    };
    let machine = MachineParams::system_x();
    let w = random_workload_with_faults(seed, 2 + (seed % 7) as usize, 8 + (seed % 5) as usize * 8);
    let sim = ClusterSim::new(w.total_procs, machine);
    let a = digest(&sim.run(&w.jobs));
    let b = digest(&sim.run(&w.jobs));
    assert_eq!(a, b, "seed {seed}: two runs of the same workload diverged");
}
