//! Partition chaos drills: the federation sweep of [`crate::federation`]
//! with seeded **network partitions** layered on top — scripted splits
//! that silently drop cross-group lease traffic, suspicion timeouts short
//! enough that lenders actually fence, and (on half the seeds) exponential
//! retransmit pacing on the bus.
//!
//! The drills reuse the global ledger oracle
//! ([`crate::federation::check_ledger`]), which under partitions also
//! enforces the epoch rules: a lender's fencing epoch never regresses
//! below a lease it minted, a fenced lease proves the epoch advanced, the
//! borrower's journaled mint epoch matches the grant, and **no attachment
//! created at or after a fence may live**.
//! [`run_planted_stale_epoch_grant`] proves that last rule has teeth: a
//! backdoor attaches a stale-epoch grant across the fence and the oracle
//! must flag it.
//!
//! Every partition artifact derives from its own [`SplitMix64`] streams
//! (`seed ^ 0xFED0_0006` for schedules, `seed ^ 0xFED0_0007` for
//! retransmit pacing), so the partition-free federation scenarios of
//! [`crate::federation::generate_federation`] stay bitwise identical.

use reshape_core::{Backoff, JobSpec, ProcessorConfig, TopologyPref};
use reshape_federation::sim::{FedSimConfig, PartitionPlan};
use reshape_federation::{Federation, FederationConfig, TenantConfig};

use crate::federation::{check_ledger, generate_federation, run_chaos, FedChaosReport};
use crate::rng::SplitMix64;

/// Generate a seeded federation scenario with partitions: the base
/// scenario of [`generate_federation`] (same seed, bitwise identical),
/// plus 1–3 scripted bipartitions whose windows straddle the suspicion
/// timeout, a suspicion short enough to fire inside those windows, and
/// exponential retransmit pacing on half the seeds.
pub fn generate_partition(seed: u64) -> FedSimConfig {
    let mut cfg = generate_federation(seed);
    let n_shards = cfg.shard_procs.len();

    let mut part = SplitMix64::new(seed ^ 0xFED0_0006);
    // Short suspicion so fences fire well inside partition windows; still
    // long enough that transient splits heal un-fenced on some seeds.
    cfg.lease.suspicion = part.f64_range(2.0, 8.0);
    let n_parts = part.usize_range(1, 3);
    for _ in 0..n_parts {
        // A random bipartition of the shards; a degenerate draw (everyone
        // on one side) falls back to isolating shard 0.
        let mut g0 = Vec::new();
        let mut g1 = Vec::new();
        for s in 0..n_shards {
            if part.chance(1, 2) {
                g0.push(s);
            } else {
                g1.push(s);
            }
        }
        if g0.is_empty() || g1.is_empty() {
            g0 = vec![0];
            g1 = (1..n_shards).collect();
        }
        let t_start = part.f64_range(1.0, 30.0);
        let duration = part.f64_range(1.0, 30.0);
        cfg.partitions.push(PartitionPlan {
            groups: vec![g0, g1],
            t_start,
            t_heal: t_start + duration,
        });
    }

    let mut retx = SplitMix64::new(seed ^ 0xFED0_0007);
    if retx.chance(1, 2) {
        cfg.bus.retx_backoff = Some(Backoff {
            base: cfg.bus.rto,
            factor: retx.f64_range(1.3, 2.5),
            max: cfg.bus.rto * retx.f64_range(3.0, 8.0),
            jitter_frac: retx.f64_range(0.0, 0.2),
        });
    }
    cfg
}

/// Run one seeded partition chaos drill: the federation scenario with
/// partitions injected, the global ledger oracle (epoch rules included)
/// evaluated after **every** event, and the end-of-run acceptance of the
/// federation sweep — terminal accounting exact, every WAL replay equal
/// to its crash snapshot, every lease resolved, full quiescence after the
/// last heal.
pub fn run_partition_chaos(seed: u64) -> Result<FedChaosReport, String> {
    run_chaos(seed, generate_partition(seed), "partition")
}

// ----------------------------------------------------------------------
// Oracle sensitivity: the planted stale-epoch grant
// ----------------------------------------------------------------------

/// Drive a two-shard federation through grant → partition → fence → heal
/// with the stale-epoch backdoor armed: the borrower attaches the grant
/// when it is finally redelivered after the heal, even though the lender
/// fenced the lease long before. Returns the violation the ledger oracle
/// raised (it must mention the epoch fence), or `Err` if the oracle never
/// noticed.
pub fn run_planted_stale_epoch_grant() -> Result<String, String> {
    let tenants = vec![TenantConfig::new(64, 1.0, 16)];
    let mut fcfg = FederationConfig::new(vec![4, 4], tenants);
    fcfg.lease.min_spare = 0;
    fcfg.lease.term = 60.0;
    fcfg.lease.grace = 30.0;
    fcfg.lease.suspicion = 5.0;
    fcfg.lease.retry_backoff = 1000.0; // exactly one grant in the run
    let mut fed = Federation::new(fcfg);
    fed.chaos_plant_stale_epoch_attach();

    // Sever the shards before the grant is minted: the Grant frame dies on
    // the wire and keeps retransmitting into the partition.
    fed.inject_partition(vec![vec![0], vec![1]], 0.5, 20.0);
    fed.run_timers(0.6);

    let spec = |name: &str, procs| {
        JobSpec::new(
            name,
            TopologyPref::AnyCount {
                min: 1,
                max: 64,
                step: 1,
            },
            ProcessorConfig::linear(procs),
            100,
        )
    };
    fed.submit(0, 0, spec("fill", 2), 0.7);
    fed.submit(0, 1, spec("big", 6), 1.0);
    if fed.leases().next().is_none() {
        return Err("scenario failed to mint a lease".into());
    }
    if let Err(e) = check_ledger(&fed) {
        return Ok(e);
    }
    // Pump timers through fence (t≈6) and heal (t=20): the redelivered
    // grant attaches across the fence and the oracle must flag it.
    let mut t = 0.0;
    for _ in 0..512 {
        let Some(next) = fed.next_timer() else { break };
        t = next.max(t);
        fed.run_timers(t);
        if let Err(e) = check_ledger(&fed) {
            return Ok(e);
        }
        if t > 40.0 {
            break;
        }
    }
    Err("ledger oracle never flagged the planted stale-epoch attach".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_adds_partitions() {
        let a = format!("{:?}", generate_partition(3));
        let b = format!("{:?}", generate_partition(3));
        assert_eq!(a, b);
        let cfg = generate_partition(3);
        assert!(!cfg.partitions.is_empty());
        for p in &cfg.partitions {
            assert!(p.t_heal > p.t_start);
            assert!(p.groups.iter().all(|g| !g.is_empty()));
        }
    }

    #[test]
    fn partition_streams_do_not_perturb_the_base_scenario() {
        // Everything except the partition-owned knobs (schedules,
        // suspicion, retransmit pacing) must be bitwise identical to the
        // partition-free generator on the same seed.
        for seed in [0u64, 7, 99] {
            let mut with = generate_partition(seed);
            let base = generate_federation(seed);
            with.partitions.clear();
            with.lease.suspicion = base.lease.suspicion;
            with.bus.retx_backoff = None;
            assert_eq!(format!("{with:?}"), format!("{base:?}"), "seed {seed}");
        }
    }

    #[test]
    fn one_partition_seed_end_to_end() {
        let rep = run_partition_chaos(11).unwrap_or_else(|e| panic!("TESTKIT FAILURE [{e}]"));
        assert!(rep.ledger_checks > 0);
        assert!(rep.quiesced);
    }

    #[test]
    fn planted_stale_epoch_attach_is_caught() {
        let msg = run_planted_stale_epoch_grant().expect("oracle must catch the stale attach");
        assert!(
            msg.contains("epoch fence"),
            "violation must name the epoch fence: {msg}"
        );
    }
}
