//! Analytic per-application performance models, calibrated to the paper's
//! testbed (System X: 2.3 GHz PowerPC 970 nodes, MPICH2 over Gigabit
//! Ethernet).
//!
//! The cluster simulator runs the *real* ReSHAPE scheduler/profiler/policy
//! code; only the applications are replaced by these models, which map a
//! processor configuration to an iteration time. Redistribution costs are
//! *not* modeled here — they come from the actual communication schedules
//! built by `reshape-redist`, priced under the network model.
//!
//! Calibration targets (see EXPERIMENTS.md): LU iteration times of Figure
//! 3(a) scale, the ~19% improvement for LU-24000 going 16→20 processors
//! (Figure 2a), and the per-application static iteration times implied by
//! Tables 4 and 5.

use reshape_blockcyclic::Descriptor;
use reshape_core::ProcessorConfig;
use reshape_mpisim::NetModel;
use reshape_redist::{checkpoint_cost, plan_2d, CheckpointParams, RedistCost};
use serde::{Deserialize, Serialize};

/// Machine constants for the modeled cluster.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MachineParams {
    /// Effective per-processor compute rate (flops/s).
    pub rate: f64,
    /// Per-panel pipeline/synchronization cost charged per grid dimension
    /// process per elimination step (absorbs ring-broadcast fill, sync skew
    /// and node sharing — the reason real LU curves flatten and turn).
    pub panel_latency: f64,
    /// Network latency (s) and bandwidth (bytes/s).
    pub latency: f64,
    pub bandwidth: f64,
    /// Checkpoint disk parameters for the baseline redistribution mode.
    pub disk_write_bw: f64,
    pub disk_read_bw: f64,
    /// Effective link efficiency during schedule-based redistribution,
    /// when many streams cross the switch concurrently (TCP/eager-protocol
    /// overhead; calibrated so LU-12000's measured per-expansion costs of
    /// Figure 3(a) — 8.0 s down to 4.4 s — reproduce). The single-stream
    /// checkpoint funnel runs at full wire speed.
    pub redist_efficiency: f64,
}

impl MachineParams {
    /// The paper's System X partition.
    pub fn system_x() -> Self {
        MachineParams {
            rate: 4.4e9,
            panel_latency: 10e-3,
            latency: 50e-6,
            bandwidth: 125e6,
            disk_write_bw: 100e6,
            disk_read_bw: 110e6,
            redist_efficiency: 0.35,
        }
    }

    pub fn net(&self) -> NetModel {
        NetModel {
            latency: self.latency,
            bandwidth: self.bandwidth,
            overhead: 5e-6,
            spawn_overhead: 0.25,
        }
    }

    /// Network model with bandwidth derated by [`Self::redist_efficiency`]
    /// — the effective speed of many-stream redistribution traffic.
    pub fn redist_net(&self) -> NetModel {
        NetModel {
            bandwidth: self.bandwidth * self.redist_efficiency,
            ..self.net()
        }
    }

    pub fn checkpoint_params(&self) -> CheckpointParams {
        CheckpointParams {
            disk_write_bw: self.disk_write_bw,
            disk_read_bw: self.disk_read_bw,
        }
    }
}

/// Block size used by the grid workloads' distributed matrices (the paper's
/// problem sizes are all multiples of 100... and of nothing smaller that
/// divides every grid dimension, so 100 keeps schedules small and exact).
pub const MODEL_BLOCK: usize = 100;

/// How resizing redistributions are priced (the three bars of Figure 3(b)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RedistMode {
    /// ReSHAPE's message-based contention-free redistribution.
    Reshape,
    /// File-based checkpoint/restart through a single node.
    Checkpoint,
}

/// Phase-decomposed cost of one modeled resize (see
/// [`AppModel::resize_cost`]). The phase fields decompose `total_seconds`
/// minus the spawn overhead.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct RedistProfile {
    /// Bytes that cross the network, over all redistributed arrays.
    pub bytes: u64,
    /// Communication steps over all redistributed arrays.
    pub plan_steps: u64,
    /// Individual block transfers over all redistributed arrays.
    pub transfers: u64,
    pub pack_seconds: f64,
    pub transfer_seconds: f64,
    pub unpack_seconds: f64,
    /// Modeled wall-clock total, including spawn overhead on expansion.
    pub total_seconds: f64,
}

/// Performance model of one workload application.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum AppModel {
    /// Blocked LU factorization of an `n × n` matrix per iteration.
    Lu { n: usize },
    /// SUMMA multiply of `n × n` matrices per iteration.
    Mm { n: usize },
    /// `sweeps` dense-Jacobi sweeps on an `n × n` system per iteration
    /// (1-D column distribution; allreduce-dominated communication).
    Jacobi { n: usize, sweeps: usize },
    /// A batch of `batch` 2-D FFTs of an `n × n` image per iteration
    /// (1-D distribution; transpose/all-to-all communication).
    Fft { n: usize, batch: usize },
    /// `units` fixed-time work units per iteration; rank 0 is the master.
    MasterWorker { units: usize, unit_time: f64 },
    /// Measured profile: iteration time looked up by processor count
    /// (linear interpolation between known points, clamped at the ends).
    /// Used to drive the scheduler with the paper's own measured LU data.
    Table { points: Vec<(usize, f64)> },
    /// A multi-phase application (paper intro: "applications that consist
    /// of multiple phases, some of which are more computationally intense
    /// than others"): each phase runs `iters` outer iterations under its
    /// own model. At a phase boundary the scheduler's profiler resets and
    /// the job re-probes for the new phase's sweet spot.
    Phased { phases: Vec<(usize, AppModel)> },
}

impl AppModel {
    /// The model governing iteration `iter` (identity for single-phase
    /// models), plus whether `iter` is the first iteration of a new phase.
    pub fn phase_at(&self, iter: usize) -> (&AppModel, bool) {
        match self {
            AppModel::Phased { phases } => {
                assert!(!phases.is_empty(), "phased model needs phases");
                let mut start = 0;
                for (i, (len, model)) in phases.iter().enumerate() {
                    if iter < start + len {
                        return (model, iter == start && i > 0);
                    }
                    start += len;
                }
                // Past the declared phases: stay in the last one.
                (&phases[phases.len() - 1].1, false)
            }
            other => (other, false),
        }
    }

    /// Modeled time of iteration `iter` on `cfg` (phase-aware).
    pub fn iter_time_at(&self, iter: usize, cfg: ProcessorConfig, m: &MachineParams) -> f64 {
        self.phase_at(iter).0.iter_time(cfg, m)
    }

    /// Modeled time of one outer iteration on `cfg`.
    pub fn iter_time(&self, cfg: ProcessorConfig, m: &MachineParams) -> f64 {
        let p = cfg.procs() as f64;
        match *self {
            AppModel::Lu { n } => {
                let nf = n as f64;
                let flops = 2.0 / 3.0 * nf.powi(3);
                let steps = (n / MODEL_BLOCK) as f64;
                let row_panel = nf / cfg.rows as f64 * MODEL_BLOCK as f64 * 8.0;
                let col_panel = nf / cfg.cols as f64 * MODEL_BLOCK as f64 * 8.0;
                flops / (p * m.rate)
                    + steps * (row_panel + col_panel) / m.bandwidth
                    + steps * (cfg.rows + cfg.cols) as f64 * m.panel_latency
            }
            AppModel::Mm { n } => {
                let nf = n as f64;
                let flops = 2.0 * nf.powi(3);
                let steps = (n / MODEL_BLOCK) as f64;
                let row_panel = nf / cfg.rows as f64 * MODEL_BLOCK as f64 * 8.0;
                let col_panel = nf / cfg.cols as f64 * MODEL_BLOCK as f64 * 8.0;
                flops / (p * m.rate)
                    + steps * (row_panel + col_panel) / m.bandwidth
                    + steps * (cfg.rows + cfg.cols) as f64 * m.panel_latency
            }
            AppModel::Jacobi { n, sweeps } => {
                let nf = n as f64;
                let per_sweep = 2.0 * nf * nf / (p * m.rate)
                    + 2.0 * (p.log2().ceil().max(1.0)) * (m.latency + nf * 8.0 / m.bandwidth);
                sweeps as f64 * per_sweep
            }
            AppModel::Fft { n, batch } => {
                let nf = n as f64;
                let compute = 10.0 * nf * nf * nf.log2() / (p * m.rate);
                // Two transposes of two planes: 4 · n²·8/p bytes per proc,
                // plus per-peer message latencies.
                let transpose =
                    4.0 * (nf * nf * 8.0 / p) / m.bandwidth + 4.0 * (p - 1.0) * (m.latency + 5e-4);
                batch as f64 * (compute + transpose)
            }
            AppModel::MasterWorker { units, unit_time } => {
                let workers = (cfg.procs().saturating_sub(1)).max(1) as f64;
                units as f64 * unit_time / workers + units as f64 / 50.0 * 2.0 * m.latency / workers
            }
            AppModel::Table { ref points } => {
                assert!(!points.is_empty(), "empty measured profile");
                let procs = cfg.procs();
                let mut pts = points.clone();
                pts.sort_by_key(|&(p, _)| p);
                if procs <= pts[0].0 {
                    return pts[0].1;
                }
                if procs >= pts[pts.len() - 1].0 {
                    return pts[pts.len() - 1].1;
                }
                for w in pts.windows(2) {
                    let ((p0, t0), (p1, t1)) = (w[0], w[1]);
                    if procs >= p0 && procs <= p1 {
                        let f = (procs - p0) as f64 / (p1 - p0) as f64;
                        return t0 + f * (t1 - t0);
                    }
                }
                unreachable!("interpolation covers the range")
            }
            // Callers that know the iteration use `iter_time_at`; a bare
            // query reports the first phase.
            AppModel::Phased { ref phases } => phases[0].1.iter_time(cfg, m),
        }
    }

    /// The global data the application must redistribute on a resize, as
    /// `(m, n, mb, nb)` descriptors — empty for master–worker.
    pub fn data_shapes(&self) -> Vec<(usize, usize, usize, usize)> {
        match *self {
            AppModel::Lu { n } | AppModel::Mm { n } => {
                let b = MODEL_BLOCK.min(n).max(1);
                // LU redistributes its matrix; MM its three (A, B, C) — but
                // the paper redistributes "the global data", and for cost
                // shape it is the dominant O(n²) volume that matters; MM
                // carries 3 arrays.
                let count = if matches!(self, AppModel::Mm { .. }) {
                    3
                } else {
                    1
                };
                vec![(n, n, b, b); count]
            }
            AppModel::Jacobi { n, .. } => {
                let b = MODEL_BLOCK.min(n).max(1);
                vec![(n, n, n, b), (1, n, 1, b), (1, n, 1, b)]
            }
            AppModel::Fft { n, .. } => {
                let b = MODEL_BLOCK.min(n).max(1);
                vec![(n, n, n, b), (n, n, n, b)]
            }
            AppModel::MasterWorker { .. } => Vec::new(),
            AppModel::Table { .. } => vec![(12000, 12000, MODEL_BLOCK, MODEL_BLOCK)],
            // The redistributed global data persists across phases, so its
            // shape is the first phase's; a workload whose phases carry
            // *different* global arrays should model them as separate jobs.
            AppModel::Phased { ref phases } => phases[0].1.data_shapes(),
        }
    }

    /// What resizing from `from` to `to` costs under `mode`: the data moved
    /// over the *actual* contention-free schedules priced under the network
    /// model ([`RedistMode::Reshape`]), or funnelled through the checkpoint
    /// file ([`RedistMode::Checkpoint`]), plus the process spawn once on an
    /// expansion. Only a schedule has pack / transfer / unpack phases and
    /// plan-shape counts; a checkpoint price carries its total alone.
    pub fn resize_cost(
        &self,
        from: ProcessorConfig,
        to: ProcessorConfig,
        m: &MachineParams,
        mode: RedistMode,
    ) -> RedistProfile {
        if from == to {
            return RedistProfile::default();
        }
        let mut prof = match mode {
            RedistMode::Reshape => {
                let net = m.redist_net();
                let mut cost = RedistCost::default();
                for (rows, cols, mb, nb) in self.data_shapes() {
                    let src = Descriptor::new(rows, cols, mb, nb, from.rows, from.cols);
                    let dst = Descriptor::new(rows, cols, mb, nb, to.rows, to.cols);
                    cost.add_2d(&plan_2d(src, dst), 8, &net);
                }
                RedistProfile {
                    bytes: cost.network_bytes as u64,
                    plan_steps: cost.steps as u64,
                    transfers: cost.transfers as u64,
                    pack_seconds: cost.pack_seconds,
                    transfer_seconds: cost.transfer_seconds,
                    unpack_seconds: cost.unpack_seconds,
                    total_seconds: cost.seconds,
                }
            }
            RedistMode::Checkpoint => {
                let (net, params) = (m.net(), m.checkpoint_params());
                let mut total = 0.0;
                for (rows, cols, _, _) in self.data_shapes() {
                    total +=
                        checkpoint_cost(rows, cols, 8, from.procs(), to.procs(), &net, &params);
                }
                RedistProfile {
                    total_seconds: total,
                    ..RedistProfile::default()
                }
            }
        };
        if to.procs() > from.procs() {
            prof.total_seconds += m.net().spawn_overhead;
        }
        prof
    }

    /// [`Self::resize_cost`] under [`RedistMode::Reshape`]. Feeds the
    /// redistribution audit records in the telemetry journal.
    pub fn redist_profile(
        &self,
        from: ProcessorConfig,
        to: ProcessorConfig,
        m: &MachineParams,
    ) -> RedistProfile {
        self.resize_cost(from, to, m, RedistMode::Reshape)
    }

    /// Total of [`Self::resize_cost`] under [`RedistMode::Checkpoint`].
    pub fn checkpoint_redist_cost(
        &self,
        from: ProcessorConfig,
        to: ProcessorConfig,
        m: &MachineParams,
    ) -> f64 {
        self.resize_cost(from, to, m, RedistMode::Checkpoint)
            .total_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(r: usize, c: usize) -> ProcessorConfig {
        ProcessorConfig::new(r, c)
    }

    #[test]
    fn lu_large_problems_benefit_more_from_processors() {
        // Figure 2(a): bigger matrices keep improving; small ones flatten.
        let m = MachineParams::system_x();
        let lu24 = AppModel::Lu { n: 24000 };
        let t16 = lu24.iter_time(cfg(4, 4), &m);
        let t20 = lu24.iter_time(cfg(4, 5), &m);
        let gain = (t16 - t20) / t16;
        assert!(
            gain > 0.10 && gain < 0.25,
            "24000: 16->20 should improve ~19% (paper), got {:.1}%",
            gain * 100.0
        );
    }

    #[test]
    fn lu_small_problem_turns_over() {
        // 8000 should stop improving somewhere below 40 processors, giving
        // the sweet-spot detector something to find.
        let m = MachineParams::system_x();
        let lu8 = AppModel::Lu { n: 8000 };
        let t20 = lu8.iter_time(cfg(4, 5), &m);
        let t25 = lu8.iter_time(cfg(5, 5), &m);
        let t40 = lu8.iter_time(cfg(5, 8), &m);
        assert!(t25 < t20, "still improving at 20->25: {t20} -> {t25}");
        assert!(
            t40 > t25 * 0.98,
            "by 40 procs the curve must have flattened/turned: {t25} -> {t40}"
        );
    }

    #[test]
    fn lu_iteration_times_are_in_paper_range() {
        // Figure 3(a): LU 12000 on 2 procs took ~130 s/iteration.
        let m = MachineParams::system_x();
        let t2 = AppModel::Lu { n: 12000 }.iter_time(cfg(1, 2), &m);
        assert!(
            t2 > 80.0 && t2 < 220.0,
            "LU-12000 on 2 procs should be O(100 s), got {t2}"
        );
    }

    #[test]
    fn jacobi_and_fft_scale_down_with_processors() {
        let m = MachineParams::system_x();
        let j = AppModel::Jacobi {
            n: 8000,
            sweeps: 30000,
        };
        assert!(j.iter_time(cfg(1, 8), &m) < j.iter_time(cfg(1, 4), &m));
        let f = AppModel::Fft { n: 8192, batch: 17 };
        assert!(f.iter_time(cfg(1, 16), &m) < f.iter_time(cfg(1, 2), &m));
    }

    #[test]
    fn master_worker_scales_with_workers() {
        let m = MachineParams::system_x();
        let mw = AppModel::MasterWorker {
            units: 20000,
            unit_time: 0.74e-3,
        };
        let t2 = mw.iter_time(cfg(1, 2), &m);
        assert!(
            (t2 - 14.8).abs() < 1.0,
            "1 worker ~14.8 s/iter (Table 4), got {t2}"
        );
        let t4 = mw.iter_time(cfg(1, 4), &m);
        assert!(t4 < t2 / 2.5, "3 workers should be ~3x faster");
    }

    #[test]
    fn table_model_interpolates_and_clamps() {
        let t = AppModel::Table {
            points: vec![(2, 129.63), (4, 112.52), (6, 82.31)],
        };
        let m = MachineParams::system_x();
        assert_eq!(t.iter_time(cfg(1, 2), &m), 129.63);
        assert_eq!(t.iter_time(cfg(1, 1), &m), 129.63); // clamp low
        assert_eq!(t.iter_time(cfg(1, 6), &m), 82.31);
        assert_eq!(t.iter_time(cfg(1, 8), &m), 82.31); // clamp high
        let mid = t.iter_time(cfg(1, 3), &m);
        assert!((mid - (129.63 + 112.52) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn redist_cost_decreases_with_processor_count() {
        // Figure 2(b): expanding from a larger set costs less.
        let m = MachineParams::system_x();
        let lu = AppModel::Lu { n: 8000 };
        let early = lu
            .resize_cost(cfg(1, 2), cfg(2, 2), &m, RedistMode::Reshape)
            .total_seconds;
        let late = lu
            .resize_cost(cfg(4, 5), cfg(5, 5), &m, RedistMode::Reshape)
            .total_seconds;
        assert!(
            early > late,
            "redistribution from 2 procs ({early}) should cost more than from 20 ({late})"
        );
    }

    #[test]
    fn redist_cost_increases_with_matrix_size() {
        let m = MachineParams::system_x();
        let small = AppModel::Lu { n: 8000 }
            .resize_cost(cfg(2, 2), cfg(2, 4), &m, RedistMode::Reshape)
            .total_seconds;
        let large = AppModel::Lu { n: 24000 }
            .resize_cost(cfg(2, 2), cfg(2, 4), &m, RedistMode::Reshape)
            .total_seconds;
        assert!(large > 4.0 * small);
    }

    #[test]
    fn redist_profile_phases_sum_to_resize_cost() {
        let m = MachineParams::system_x();
        let lu = AppModel::Lu { n: 8000 };
        let (from, to) = (cfg(2, 2), cfg(2, 3));
        let prof = lu.redist_profile(from, to, &m);
        assert!(prof.bytes > 0);
        assert!(prof.plan_steps > 0 && prof.transfers >= prof.plan_steps);
        let phase_sum = prof.pack_seconds
            + prof.transfer_seconds
            + prof.unpack_seconds
            + m.redist_net().spawn_overhead; // expansion pays the spawn
        assert!(
            (phase_sum - prof.total_seconds).abs() < 1e-9 * prof.total_seconds.max(1.0),
            "phases {phase_sum} != total {}",
            prof.total_seconds
        );
        assert!(
            (prof.total_seconds
                - lu.resize_cost(from, to, &m, RedistMode::Reshape)
                    .total_seconds)
                .abs()
                < 1e-12,
            "profile total must match resize_cost"
        );
        // Identity resize is free.
        let idp = lu.redist_profile(from, from, &m);
        assert_eq!(idp.bytes, 0);
        assert_eq!(idp.total_seconds, 0.0);
    }

    #[test]
    fn checkpoint_redist_is_much_slower() {
        // Figure 3(b): checkpointing is 4.5-14.5x more expensive.
        let m = MachineParams::system_x();
        let lu = AppModel::Lu { n: 12000 };
        let rd = lu
            .resize_cost(cfg(2, 2), cfg(2, 3), &m, RedistMode::Reshape)
            .total_seconds;
        let ck = lu.checkpoint_redist_cost(cfg(2, 2), cfg(2, 3), &m);
        let ratio = ck / rd;
        assert!(
            ratio > 3.0 && ratio < 40.0,
            "checkpoint/redistribution ratio {ratio} out of the paper's band"
        );
    }

    #[test]
    fn master_worker_has_no_redist_cost() {
        let m = MachineParams::system_x();
        let mw = AppModel::MasterWorker {
            units: 20000,
            unit_time: 1e-3,
        };
        // No data: only the spawn overhead on expansion, nothing on shrink.
        assert_eq!(
            mw.resize_cost(cfg(1, 4), cfg(1, 2), &m, RedistMode::Reshape)
                .total_seconds,
            0.0
        );
        assert!(
            mw.resize_cost(cfg(1, 2), cfg(1, 4), &m, RedistMode::Reshape)
                .total_seconds
                <= 0.3
        );
    }
}
