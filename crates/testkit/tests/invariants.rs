//! The seeded fault-schedule sweep (ISSUE acceptance: ≥ 200 schedules
//! through the invariant oracle) plus the planted-bug demonstration that
//! the oracle has teeth.

use reshape_core::{QueuePolicy, SchedulerCore};
use reshape_testkit::scenario::Fault;
use reshape_testkit::{generate, run_scenario_on, run_seed, RunStats};

/// 256 seeded workload/fault schedules, every scheduler transition checked
/// by the invariant oracle and every trace checked for admission order.
/// On failure the message carries the seed; reproduce with
/// `TESTKIT_SEED=<seed> cargo test -p reshape-testkit seed_from_env`.
#[test]
fn two_hundred_fifty_six_seeded_schedules_hold_invariants() {
    let mut agg = RunStats::default();
    for seed in 0..256u64 {
        let st = run_seed(seed).unwrap_or_else(|e| panic!("TESTKIT FAILURE [{e}]"));
        agg.transitions += st.transitions;
        agg.starts += st.starts;
        agg.expansions += st.expansions;
        agg.shrinks += st.shrinks;
        agg.expand_failures += st.expand_failures;
        agg.job_failures += st.job_failures;
        agg.cancellations += st.cancellations;
        agg.hangs_injected += st.hangs_injected;
        agg.watchdog_kills += st.watchdog_kills;
        agg.node_losses_survived += st.node_losses_survived;
    }
    // The sweep must genuinely exercise the recovery machinery, not just
    // pass vacuously.
    assert!(agg.starts >= 256, "too few starts: {agg:?}");
    assert!(agg.expansions > 50, "expansion path unexercised: {agg:?}");
    assert!(agg.shrinks > 10, "shrink path unexercised: {agg:?}");
    assert!(
        agg.expand_failures > 10,
        "expand-failure path unexercised: {agg:?}"
    );
    assert!(agg.job_failures > 20, "failure path unexercised: {agg:?}");
    assert!(agg.cancellations > 20, "cancel path unexercised: {agg:?}");
    assert!(agg.hangs_injected > 0, "hang path unexercised: {agg:?}");
    assert_eq!(
        agg.hangs_injected, agg.watchdog_kills,
        "every hang must be watchdog-killed and no healthy job killed: {agg:?}"
    );
    assert!(
        agg.node_losses_survived > 10,
        "forced-shrink path unexercised: {agg:?}"
    );
}

/// One extra seed taken from the environment — CI passes
/// `TESTKIT_SEED=$GITHUB_RUN_ID` so every pipeline run probes a fresh
/// point of the space; the seed is printed so a red run is reproducible.
#[test]
fn seed_from_env() {
    let seed: u64 = match std::env::var("TESTKIT_SEED") {
        Ok(s) => s.trim().parse().expect("TESTKIT_SEED must be an integer"),
        Err(_) => return, // fixed-seed sweep covers the default case
    };
    println!("testkit: running environment seed {seed}");
    run_seed(seed)
        .unwrap_or_else(|e| panic!("TESTKIT FAILURE [{e}] — reproduce with TESTKIT_SEED={seed}"));
}

/// Acceptance check: deliberately break processor reclamation (the chaos
/// hook makes `on_failed` leak the dead job's slots) and assert the oracle
/// catches it. A sweep that cannot fail proves nothing.
#[test]
fn oracle_catches_planted_reclamation_bug() {
    // Find seeds whose schedules contain a job failure; the planted leak
    // only manifests when `on_failed` runs.
    let mut caught = 0;
    let mut with_failures = 0;
    for seed in 0..64u64 {
        let sc = generate(seed);
        if !sc
            .jobs
            .iter()
            .any(|j| matches!(j.fault, Some(Fault::FailAtCheckin(_))))
        {
            continue;
        }
        with_failures += 1;
        let mut core = SchedulerCore::new(sc.total_procs, sc.policy);
        core.chaos_skip_release_on_failure(true);
        let err = run_scenario_on(&sc, core).expect_err("planted pool leak must trip the oracle");
        assert!(
            err.contains("leak") || err.contains("drain"),
            "seed {seed}: oracle tripped for the wrong reason: {err}"
        );
        caught += 1;
    }
    assert!(
        with_failures >= 5,
        "generator produced too few failure schedules"
    );
    assert_eq!(caught, with_failures, "every leaking run must be caught");
}

/// The harness itself is deterministic: same seed, same statistics.
#[test]
fn runs_are_reproducible() {
    for seed in [3u64, 17, 99] {
        let a = run_seed(seed).expect("clean run");
        let b = run_seed(seed).expect("clean run");
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed} diverged");
    }
}

/// Both queue policies appear across the sweep (the admission-order oracle
/// has distinct FCFS and backfill branches — make sure both execute).
#[test]
fn sweep_covers_both_policies() {
    let mut fcfs = 0;
    let mut backfill = 0;
    for seed in 0..64u64 {
        match generate(seed).policy {
            QueuePolicy::Fcfs => fcfs += 1,
            QueuePolicy::Backfill => backfill += 1,
        }
    }
    assert!(
        fcfs > 10 && backfill > 10,
        "policy mix skewed: {fcfs}/{backfill}"
    );
}
