//! Analytic cost evaluation of redistribution schedules.
//!
//! The paper's Performance Profiler records *measured* redistribution times;
//! the cluster simulator and the Figure 2(b) harness need the same numbers
//! without actually moving terabytes. Because the schedule is
//! contention-free, a step's duration is the *maximum* single message cost
//! in that step (all messages proceed in parallel on disjoint links), plus
//! pack/unpack at memory bandwidth on the busiest endpoint. The evaluators
//! price the same lowered schedule the executor runs, in one walk
//! ([`RedistCost::add_2d`] and its crate-private core).

use reshape_mpisim::NetModel;

use crate::exec::{lower_2d, Schedule};
use crate::plan1d::{lower_1d, Redist1d};
use crate::plan2d::Redist2d;

/// Memory bandwidth assumed for packing/unpacking message buffers
/// (bytes/second). A conservative figure for the paper's PowerPC 970 era.
pub const PACK_BANDWIDTH: f64 = 2.0e9;

/// Evaluated cost of a redistribution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RedistCost {
    /// Number of communication steps in the schedule.
    pub steps: usize,
    /// Bytes that actually cross the network.
    pub network_bytes: usize,
    /// Individual moves (messages and local copies) in the schedule.
    pub transfers: usize,
    /// Per-step packing on the busiest sender, summed over the steps.
    pub pack_seconds: f64,
    /// Per-step latency, overheads and wire time of the largest message,
    /// summed over the steps.
    pub transfer_seconds: f64,
    /// Per-step unpacking on the busiest receiver.
    pub unpack_seconds: f64,
    /// Modeled wall-clock seconds for the whole redistribution.
    pub seconds: f64,
}

impl RedistCost {
    /// Add `plan`'s cost, as [`evaluate_2d`] prices it, onto this one. The
    /// counts and the phase split accumulate step by step, so pricing
    /// several arrays onto one cost sums their phases in schedule order;
    /// `seconds` adds the plan's own total.
    pub fn add_2d(&mut self, plan: &Redist2d, elem_size: usize, net: &NetModel) {
        self.add(&lower_2d(plan), elem_size, net, Sum::PerStep);
    }

    /// Price `sched`'s steps onto this cost. A step takes the wire time of
    /// its largest message plus packing and unpacking its largest move;
    /// `order` is how those terms join the schedule's running total.
    pub(crate) fn add(
        &mut self,
        sched: &Schedule<'_>,
        elem_size: usize,
        net: &NetModel,
        order: Sum,
    ) {
        let (src_cols, dst_cols) = (sched.src.npcol, sched.dst.npcol);
        let mut seconds = 0.0;
        for step in sched.steps.iter() {
            let (mut max_wire, mut max_touch) = (0usize, 0usize);
            for mv in step {
                let bytes = mv.elems() * elem_size;
                max_touch = max_touch.max(bytes);
                // Both endpoints on one rank is a local copy, off the wire.
                if mv.src.0 * src_cols + mv.src.1 != mv.dst.0 * dst_cols + mv.dst.1 {
                    max_wire = max_wire.max(bytes);
                    self.network_bytes += bytes;
                }
            }
            self.transfers += step.len();
            let wire = if max_wire > 0 {
                net.latency + 2.0 * net.overhead + max_wire as f64 / net.bandwidth
            } else {
                0.0
            };
            // Pack on the sender + unpack on the receiver.
            let touch = 2.0 * max_touch as f64 / PACK_BANDWIDTH;
            seconds = match order {
                Sum::PerStep => seconds + (wire + touch),
                Sum::PerTerm => seconds + wire + touch,
            };
            let half = max_touch as f64 / PACK_BANDWIDTH;
            self.pack_seconds += half;
            self.transfer_seconds += wire;
            self.unpack_seconds += half;
        }
        self.steps += sched.steps.len();
        self.seconds += seconds;
    }
}

/// How a step's wire and touch terms join a schedule's total. The two
/// orders round differently, and each evaluator keeps the one its recorded
/// prices were taken under.
#[derive(Clone, Copy)]
pub(crate) enum Sum {
    /// Add the step's terms together, then the step to the total.
    PerStep,
    /// Add each term to the total in turn.
    PerTerm,
}

/// Price a whole schedule.
pub(crate) fn evaluate(
    sched: &Schedule<'_>,
    elem_size: usize,
    net: &NetModel,
    order: Sum,
) -> RedistCost {
    let mut cost = RedistCost::default();
    cost.add(sched, elem_size, net, order);
    cost
}

/// Cost of a 1-D schedule moving elements of `elem_size` bytes under `net`.
pub fn evaluate_1d(plan: &Redist1d, elem_size: usize, net: &NetModel) -> RedistCost {
    evaluate(&lower_1d(plan), elem_size, net, Sum::PerStep)
}

/// Cost of a checkerboard schedule.
pub fn evaluate_2d(plan: &Redist2d, elem_size: usize, net: &NetModel) -> RedistCost {
    evaluate(&lower_2d(plan), elem_size, net, Sum::PerStep)
}

/// Throughput degradation per extra concurrent sender targeting one
/// receiver within a step (TCP-incast-style congestion on switched
/// Ethernet: simultaneous bursts at a single port overflow its buffer and
/// collapse aggregate goodput). The contention-free schedule keeps the
/// concurrency at 1 and never pays this.
pub const INCAST_PENALTY: f64 = 0.5;

/// Contention-aware cost of a 2-D plan: within a step, each process
/// serializes its own sends and receives, and a receiver hit by `k`
/// *concurrent* senders drains its bytes at `bandwidth / (1 +
/// INCAST_PENALTY·(k−1))`. For partial-permutation steps (the paper's
/// schedules) every `k = 1` and this coincides with [`evaluate_2d`]; for
/// the naive single-burst baseline it exposes the incast the circulant
/// schedule exists to avoid.
pub fn evaluate_2d_contended(plan: &Redist2d, elem_size: usize, net: &NetModel) -> RedistCost {
    use std::collections::HashMap;
    let mut cost = RedistCost {
        steps: plan.steps.len(),
        network_bytes: plan.network_bytes(elem_size),
        ..RedistCost::default()
    };
    for step in &plan.steps {
        let mut sent: HashMap<usize, (usize, usize)> = HashMap::new(); // rank -> (bytes, msgs)
        let mut recvd: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut max_touch = 0usize;
        for t in step {
            let bytes = plan.transfer_elems(t) * elem_size;
            max_touch = max_touch.max(bytes);
            let (s, d) = (plan.src_rank(t.src), plan.dst_rank(t.dst));
            if s != d {
                let e = sent.entry(s).or_insert((0, 0));
                e.0 += bytes;
                e.1 += 1;
                let e = recvd.entry(d).or_insert((0, 0));
                e.0 += bytes;
                e.1 += 1;
            }
        }
        let send_time = sent
            .values()
            .map(|&(bytes, msgs)| bytes as f64 / net.bandwidth + msgs as f64 * net.overhead)
            .fold(0.0, f64::max);
        let recv_time = recvd
            .values()
            .map(|&(bytes, msgs)| {
                let incast = 1.0 + INCAST_PENALTY * (msgs.saturating_sub(1)) as f64;
                bytes as f64 * incast / net.bandwidth + msgs as f64 * net.overhead
            })
            .fold(0.0, f64::max);
        let wire = send_time.max(recv_time);
        if wire > 0.0 {
            cost.seconds += net.latency + wire;
            cost.transfer_seconds += net.latency + wire;
        }
        if max_touch > 0 {
            cost.seconds += 2.0 * max_touch as f64 / PACK_BANDWIDTH;
        }
        cost.transfers += step.len();
        cost.pack_seconds += max_touch as f64 / PACK_BANDWIDTH;
        cost.unpack_seconds += max_touch as f64 / PACK_BANDWIDTH;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan_1d, plan_2d};
    use reshape_blockcyclic::Descriptor;

    #[test]
    fn identity_costs_only_memory_traffic() {
        let plan = plan_1d(1000, 10, 4, 4);
        let c = evaluate_1d(&plan, 8, &NetModel::gigabit_ethernet());
        assert_eq!(c.network_bytes, 0);
        // Only pack/unpack time remains.
        assert!(c.seconds < 1e-3);
    }

    #[test]
    fn cost_grows_with_matrix_size() {
        let net = NetModel::gigabit_ethernet();
        let small = plan_2d(
            Descriptor::square(1000, 10, 2, 2),
            Descriptor::square(1000, 10, 2, 4),
        );
        let large = plan_2d(
            Descriptor::square(4000, 10, 2, 2),
            Descriptor::square(4000, 10, 2, 4),
        );
        let cs = evaluate_2d(&small, 8, &net).seconds;
        let cl = evaluate_2d(&large, 8, &net).seconds;
        assert!(
            cl > cs * 4.0,
            "16x the data should cost well over 4x: {cs} vs {cl}"
        );
    }

    #[test]
    fn cost_decreases_with_more_processors() {
        // Paper Figure 2(b): for a fixed matrix, redistribution cost falls
        // as the (source) processor count grows, because per-process volume
        // shrinks and steps run in parallel.
        let net = NetModel::gigabit_ethernet();
        let n = 8000;
        let from_small = plan_2d(
            Descriptor::square(n, 100, 1, 2),
            Descriptor::square(n, 100, 2, 2),
        );
        let from_large = plan_2d(
            Descriptor::square(n, 100, 4, 5),
            Descriptor::square(n, 100, 5, 5),
        );
        let c_small = evaluate_2d(&from_small, 8, &net).seconds;
        let c_large = evaluate_2d(&from_large, 8, &net).seconds;
        assert!(
            c_small > c_large,
            "expanding from 2 procs ({c_small}s) should cost more than from 20 ({c_large}s)"
        );
    }

    #[test]
    fn network_bytes_match_plan() {
        let plan = plan_2d(
            Descriptor::square(64, 4, 2, 2),
            Descriptor::square(64, 4, 2, 4),
        );
        let c = evaluate_2d(&plan, 8, &NetModel::gigabit_ethernet());
        assert_eq!(c.network_bytes, plan.network_bytes(8));
        assert_eq!(c.steps, plan.steps.len());
    }

    #[test]
    fn ideal_network_still_charges_memory() {
        let plan = plan_1d(1 << 20, 1 << 10, 2, 4);
        let c = evaluate_1d(&plan, 8, &NetModel::ideal());
        assert!(c.seconds > 0.0, "pack/unpack is never free");
    }
}
