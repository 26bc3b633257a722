//! # reshape-testkit — deterministic verification harness
//!
//! Everything the fault-injection work needs to be *checked*, not just
//! exercised:
//!
//! * [`rng::SplitMix64`] — one-u64-seed generator; every artifact of a run
//!   derives from the seed, so failures reproduce from the printed seed.
//! * [`scenario`] — seeded workload + fault-schedule generation across the
//!   paper's application classes (grid / 1-D / master–worker, resizable
//!   and static) with fail/cancel/expansion-failure faults.
//! * [`oracle`] — the scheduler invariant oracle: no processor leaked or
//!   double-allocated, pool accounting exact, FCFS/backfill admission
//!   order respected, every job terminal and the cluster drained.
//! * [`harness`] — drives a [`reshape_core::SchedulerCore`] through a
//!   scenario on the discrete-event queue from `reshape-clustersim`, fires
//!   the faults, and runs the oracle after every transition; the
//!   step-able [`harness::Driver`] lets drills stop and splice in a
//!   different core mid-run. `tests/harness_pins.rs` holds its runs over
//!   the full seed sweep to recorded digests.
//! * [`crashrestart`] — kills the scheduler at a seeded transition,
//!   recovers a fresh core from the write-ahead log's durable text form,
//!   asserts exact snapshot equality, and finishes the run on the
//!   recovered core demanding the uninterrupted run's final state.
//! * [`differential`] — runs the independent redistribution paths (planned
//!   / naive / general / checkpoint, 2-D and 1-D) on identical inputs and
//!   demands bitwise-equal results; under a dead rank, all fault-checked
//!   variants must abort without moving data.
//! * [`federation`] — multi-shard chaos drills: seeded federations (shard
//!   kills, lease expiries, wire chaos) checked after every transition by
//!   a global ledger oracle — every processor owned by exactly one shard
//!   or escrowed under exactly one lease, and every live lease journaled
//!   in the WALs that must know it; `tests/federation.rs` sweeps 256
//!   seeds and proves the oracle catches a planted double grant.
//! * [`partition`] — the federation drills under seeded **network
//!   partitions**: scripted splits sever the lease bus, suspicion
//!   timeouts make lenders bump their WAL-persisted epochs and fence
//!   outstanding leases, and anti-entropy digests reconcile the ledger at
//!   heal; the oracle additionally proves no lease is honored across an
//!   epoch fence, and `tests/partition.rs` proves it catches a planted
//!   stale-epoch attach.
//! * [`survival`] — end-to-end node-loss drills on the simulated cluster:
//!   a seeded crash mid-iteration must be survived iff the victim's buddy
//!   is intact (with the final matrix bitwise-equal to a fault-free run),
//!   and a seeded crash mid-redistribution must abort the transactional
//!   executor with the old layout bitwise intact.
//!
//! To reproduce a CI failure locally:
//!
//! ```text
//! TESTKIT_SEED=<printed seed> cargo test -p reshape-testkit seed_from_env
//! ```

pub mod crashrestart;
pub mod differential;
pub mod federation;
pub mod harness;
pub mod oracle;
pub mod partition;
pub mod rng;
pub mod scenario;
pub mod survival;

pub use crashrestart::{run_crash_restart, CrashReport};
pub use federation::{
    check_ledger, generate_federation, run_federation_chaos, run_planted_double_grant,
    run_planted_double_grant_with_fed, FedChaosReport,
};
pub use harness::{run_scenario, run_scenario_on, run_seed, Driver, RunStats};
pub use oracle::{check_invariants, check_trace};
pub use partition::{generate_partition, run_partition_chaos, run_planted_stale_epoch_grant};
pub use rng::SplitMix64;
pub use scenario::{generate, Fault, JobPlan, Scenario};
pub use survival::{run_survival, run_txn_rollback, SurvivalReport};
