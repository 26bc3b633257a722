//! Seeded end-to-end survival drills: real node crashes on the simulated
//! cluster, driven through the full runtime (heartbeat detection, buddy
//! restore, rollback + replay, forced shrink), plus the transactional
//! redistribution rollback differential. The scheduler-level 256-seed
//! sweep lives in `invariants.rs`; these run the data plane for real, so
//! the seed counts are smaller but every run spawns actual rank threads.

use reshape_testkit::{run_survival, run_txn_rollback};

/// A spread of seeded node-loss drills. Each drill's internal oracle
/// demands survival iff the victim's buddy is intact and bitwise equality
/// with a fault-free baseline; here we additionally require the sweep to
/// exercise *both* outcomes.
#[test]
fn seeded_node_loss_drills_hold_the_survival_oracle() {
    let mut survived = 0;
    let mut fatal = 0;
    for seed in 0..12u64 {
        let rep = run_survival(seed).unwrap_or_else(|e| panic!("TESTKIT FAILURE [{e}]"));
        if rep.survived {
            survived += 1;
        } else {
            fatal += 1;
        }
    }
    assert!(
        survived > 0 && fatal > 0,
        "drill mix degenerate: {survived} survived, {fatal} fatal"
    );
}

/// Mid-redistribution deaths must roll the transaction back bitwise on
/// every survivor, across seeded layouts and victims.
#[test]
fn seeded_mid_redistribution_deaths_roll_back() {
    for seed in 0..12u64 {
        run_txn_rollback(seed).unwrap_or_else(|e| panic!("TESTKIT FAILURE [{e}]"));
    }
}

/// One extra seed taken from the environment — CI passes
/// `TESTKIT_SEED=$GITHUB_RUN_ID` so every pipeline run probes a fresh
/// point of the space; the seed is printed so a red run is reproducible.
#[test]
fn survival_seed_from_env() {
    let seed: u64 = match std::env::var("TESTKIT_SEED") {
        Ok(s) => s.trim().parse().expect("TESTKIT_SEED must be an integer"),
        Err(_) => return, // fixed-seed drills cover the default case
    };
    println!("testkit: running environment survival seed {seed}");
    run_survival(seed)
        .unwrap_or_else(|e| panic!("TESTKIT FAILURE [{e}] — reproduce with TESTKIT_SEED={seed}"));
    run_txn_rollback(seed)
        .unwrap_or_else(|e| panic!("TESTKIT FAILURE [{e}] — reproduce with TESTKIT_SEED={seed}"));
}
