//! The 256-seed partition chaos sweep: every seeded federation scenario
//! with scripted network partitions layered on — cross-group lease
//! traffic silently dropped, lenders fencing leases behind suspicion
//! timeouts, anti-entropy digests reconciling the ledger at heal — must
//! keep the global processor ledger (epoch rules included) exact after
//! every transition, and drain to quiescence once the last partition
//! heals. On failure the seed is in the message; set `TESTKIT_FAULT_DIR`
//! to also get the partition schedule and per-shard WAL streams on disk.

use reshape_testkit::{run_partition_chaos, run_planted_stale_epoch_grant};

#[test]
fn two_hundred_fifty_six_partition_chaos_seeds_hold_the_ledger() {
    let mut started = 0u64;
    let mut healed = 0u64;
    let mut fenced = 0u64;
    let mut repairs = 0u64;
    let mut fixups = 0u64;
    let mut evicts = 0u64;
    let mut escrows = 0u64;
    let mut leases = 0u64;
    let mut kills = 0u64;
    let mut recoveries = 0u64;
    let mut checks = 0u64;
    for seed in 0..256u64 {
        let rep = run_partition_chaos(seed).unwrap_or_else(|e| panic!("TESTKIT FAILURE [{e}]"));
        started += rep.report.partitions_started;
        healed += rep.report.partitions_healed;
        fenced += rep.report.leases_fenced;
        repairs += rep.report.heal_repairs;
        fixups += rep.report.heal_repairs_recovery_fixup;
        evicts += rep.report.heal_repairs_evict_stale_borrow;
        escrows += rep.report.heal_repairs_return_escrow;
        leases += rep.report.leases_granted;
        kills += rep.report.shard_kills;
        recoveries += rep.report.shard_recoveries;
        checks += rep.ledger_checks;
    }
    println!(
        "partition sweep: started={started} healed={healed} fenced={fenced} \
         repairs={repairs} (fixup={fixups} evict={evicts} escrow={escrows}) \
         leases={leases} kills={kills} checks={checks}"
    );
    // The sweep must actually exercise every partition arm, not skate
    // past it: real splits (each matched by a heal), real fences, real
    // heal repairs — on top of the base scenario's kills and lending.
    assert_eq!(started, healed, "every partition must heal");
    assert!(started > 300, "partition arm unexercised: {started}");
    assert!(fenced > 30, "fencing arm unexercised: {fenced}");
    assert!(
        repairs > 10,
        "anti-entropy repair arm unexercised: {repairs}"
    );
    // Every repair kind individually, with the exact decomposition: each
    // run already proves its kinds sum to its total, so the sweep-wide
    // sums must too — and all three paths (recovery fixup, evict-stale-
    // borrow, return-escrow) must fire somewhere in the sweep.
    assert_eq!(
        fixups + evicts + escrows,
        repairs,
        "repair kinds must decompose the total"
    );
    assert!(fixups > 0, "recovery-fixup repair arm unexercised");
    assert!(evicts > 0, "evict-stale-borrow repair arm unexercised");
    assert!(escrows > 0, "return-escrow repair arm unexercised");
    assert!(leases > 100, "lending arm unexercised: {leases}");
    assert_eq!(kills, recoveries, "every kill must be recovered");
    assert!(
        checks > 256 * 50,
        "ledger oracle ran suspiciously rarely: {checks} checks"
    );
}

/// The sweep's green is only as good as its oracle: a borrower attaching
/// a grant that was minted under an epoch its lender has since fenced
/// must be flagged, by name.
#[test]
fn planted_stale_epoch_grant_is_caught_by_the_ledger_oracle() {
    let msg = run_planted_stale_epoch_grant().expect("oracle must catch the stale-epoch attach");
    assert!(msg.contains("epoch fence"), "unexpected violation: {msg}");
    println!("ledger oracle flagged: {msg}");
}

/// One extra partition drill on a seed from the environment — CI passes
/// `TESTKIT_SEED=$GITHUB_RUN_ID` so every pipeline run probes a fresh
/// point of the space.
#[test]
fn partition_chaos_seed_from_env() {
    let seed: u64 = match std::env::var("TESTKIT_SEED") {
        Ok(s) => s.trim().parse().expect("TESTKIT_SEED must be an integer"),
        Err(_) => return, // fixed-seed sweep covers the default case
    };
    println!("testkit: partition chaos drill on environment seed {seed}");
    run_partition_chaos(seed)
        .unwrap_or_else(|e| panic!("TESTKIT FAILURE [{e}] — reproduce with TESTKIT_SEED={seed}"));
}

/// The scheduled long-chaos sweep: `TESTKIT_SWEEP=N` widens the sweep to
/// `N` seeds starting past the fixed range (the per-PR sweep covers
/// 0..256; this probes fresh space on a cron cadence). Not run unless the
/// variable is set.
#[test]
fn partition_long_sweep_from_env() {
    let n: u64 = match std::env::var("TESTKIT_SWEEP") {
        Ok(s) => s.trim().parse().expect("TESTKIT_SWEEP must be an integer"),
        Err(_) => return,
    };
    println!("testkit: long partition sweep over {n} seeds");
    for seed in 256..256 + n {
        run_partition_chaos(seed).unwrap_or_else(|e| {
            panic!("TESTKIT FAILURE [{e}] — reproduce with TESTKIT_SEED={seed}")
        });
    }
}
