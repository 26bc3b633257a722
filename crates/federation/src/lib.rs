//! # reshape-federation — federated scheduler shards
//!
//! Scales the single [`reshape_core::SchedulerCore`] to a partitioned
//! cluster: the node pool is split across N shards, each running its own
//! deterministic core journaling to its own CRC-checked WAL, fronted by a
//! router that admits jobs by tenant with quotas, fair-share weights and
//! bounded queues. Three mechanisms make the federation robust:
//!
//! * **Leased lending** ([`lease`], [`bus`]) — an idle shard lends
//!   processors to a starved one under an expiring lease. The lender
//!   journals the escrow *before* the grant hits the wire; the borrower
//!   evicts at the expiry and the lender force-reclaims a grace period
//!   later, so a crashed or hung borrower can never strand capacity and
//!   no processor is ever owned by two shards — even across a
//!   crash-restart of either side.
//! * **Per-shard recovery** ([`shard`], [`Federation::recover_shard`]) —
//!   killing any shard at any transition and replaying its WAL restores
//!   its exact pre-crash state (asserted field for field against the dead
//!   core), while
//!   surviving shards keep admitting and completing work and traffic for
//!   the dead shard is buffered and replayed in order.
//! * **Overload control** ([`Federation`] brownout) — per-tenant quotas
//!   shed excess load at the router; a shard whose queue depth (or
//!   recovery lag) crosses a threshold stops granting expansions until
//!   the backlog drains below a low-water mark, with hysteresis.
//! * **Partition tolerance** ([`bus::PartitionSchedule`], epoch fencing,
//!   anti-entropy heal) — scripted partitions silently drop cross-group
//!   traffic; a lender that cannot reach a borrower past a suspicion
//!   timeout bumps its monotonic, WAL-persisted epoch and *fences* every
//!   lease minted under older epochs (never honored or extended again);
//!   at heal, formerly-severed shards exchange FNV-1a-summarized ledger
//!   digests and reconcile deterministically — stale borrows are evicted
//!   and unattached escrow returned, every repair journaled as an
//!   explicit WAL record.
//!
//! Observability rides along without perturbing any of the above:
//! * **Causal tracing** ([`fed`] + `reshape_telemetry::trace`) — every
//!   lease gets its own trace whose spans follow the full lifecycle
//!   (grant → bus delivery → attach → expiry/fence/reclaim → heal
//!   repair), with parent edges carried *in-band* on bus frames
//!   ([`lease::TracedMsg`]); every shard gets a control-plane trace
//!   (epoch bumps, outages, WAL recovery, digest exchange, brownouts).
//!   Span ids are inert metadata — zero when tracing is off, never fed
//!   into control flow — so chaos sweeps stay bitwise identical with
//!   tracing on.
//! * **Flight recorder** ([`flightrec`]) — a bounded ring of structured
//!   control-plane events with virtual timestamps, dumped as JSONL when
//!   the testkit ledger oracle trips.
//! * **Per-tenant SLO metrics** — admit-latency histograms, queue depth,
//!   shed counts and quota utilization labeled `{tenant}`, shard metrics
//!   labeled `{shard}`, through the OpenMetrics exporter; [`fedtop`]
//!   renders the same state as a live text dashboard.

pub mod bus;
pub mod fed;
pub mod fedtop;
pub mod flightrec;
pub mod lease;
pub mod shard;
pub mod sim;
pub mod tenant;

pub use bus::{Bus, BusConfig, BusEvent, PartitionSchedule, PartitionState};
pub use fed::{
    BrownoutConfig, BrownoutReason, Federation, FederationConfig, HealRepairKind, Notice,
};
pub use flightrec::{FlightEvent, FlightRecorder};
pub use lease::{digest_hash, DigestEntry, Lease, LeaseConfig, LeaseMsg, LeasePhase, TracedMsg};
pub use shard::{RecoverReport, Shard};
pub use sim::{FedJob, FedReport, FedSimConfig, KillPlan, PartitionPlan, SloSeries, TenantReport};
pub use tenant::TenantConfig;
