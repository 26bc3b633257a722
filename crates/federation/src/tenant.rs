//! Multi-tenant admission state: quotas, fair-share weights, per-tenant
//! router queues.

use std::collections::VecDeque;

use reshape_core::JobSpec;

/// Static admission policy for one tenant.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantConfig {
    /// Hard ceiling on the sum of processor footprints of this tenant's
    /// in-flight (admitted, not yet terminal) jobs. Submissions over the
    /// quota wait in the router queue.
    pub quota_procs: usize,
    /// Fair-share weight: when the router drains its queue it admits from
    /// the tenant minimizing `in_flight_procs / weight`.
    pub weight: f64,
    /// Router-queue depth bound; submissions past it are shed outright.
    pub max_queue: usize,
}

impl TenantConfig {
    pub fn new(quota_procs: usize, weight: f64, max_queue: usize) -> Self {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "weight must be positive"
        );
        TenantConfig {
            quota_procs,
            weight,
            max_queue,
        }
    }
}

/// A submission parked at the router (quota exhausted or no live shard).
#[derive(Clone, Debug)]
pub(crate) struct QueuedJob {
    pub tag: u64,
    pub spec: JobSpec,
    pub queued_at: f64,
}

/// Live admission state for one tenant.
#[derive(Debug)]
pub(crate) struct TenantState {
    pub cfg: TenantConfig,
    /// Sum of initial-processor footprints of in-flight jobs.
    pub in_flight_procs: usize,
    pub queued: VecDeque<QueuedJob>,
    pub submitted: u64,
    pub admitted: u64,
    pub shed: u64,
    pub finished: u64,
}

impl TenantState {
    pub fn new(cfg: TenantConfig) -> Self {
        TenantState {
            cfg,
            in_flight_procs: 0,
            queued: VecDeque::new(),
            submitted: 0,
            admitted: 0,
            shed: 0,
            finished: 0,
        }
    }

    /// Fair-share key: processors in flight per unit weight. Lower drains
    /// first.
    pub fn share(&self) -> f64 {
        self.in_flight_procs as f64 / self.cfg.weight
    }
}
