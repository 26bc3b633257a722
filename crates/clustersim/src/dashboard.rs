//! Live terminal dashboard for `simulate --top`.
//!
//! Renders one frame of cluster state at a virtual time `t`: pool
//! occupancy, per-job state/allocation/iteration-time sparkline, and the
//! most recent §3.1 remap decisions. The renderer is a pure function of
//! `(SimResult, decisions, t)` — the simulation runs to completion first
//! and the dashboard replays it on a sim-time cadence, which keeps the
//! display deterministic and testable.

use reshape_core::EventKind;
use reshape_telemetry::Event;

use crate::sim::{JobOutcome, SimResult};

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Map a value series onto spark glyphs, scaled to the series' own range.
fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() {
        return String::new();
    }
    let shown = &values[values.len().saturating_sub(width)..];
    let lo = shown.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = shown.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(1e-12);
    shown
        .iter()
        .map(|&v| {
            let idx = (((v - lo) / range) * (SPARK.len() - 1) as f64).round() as usize;
            SPARK[idx.min(SPARK.len() - 1)]
        })
        .collect()
}

/// Step-sample a `(time, value)` series at `t`.
fn sample(series: &[(f64, usize)], t: f64) -> usize {
    let mut cur = 0;
    for &(st, v) in series {
        if st > t {
            break;
        }
        cur = v;
    }
    cur
}

/// Job lifecycle state at virtual time `t`, reconstructed from the
/// scheduler event trace.
fn state_at(result: &SimResult, j: &JobOutcome, t: f64) -> &'static str {
    if t < j.submitted {
        return "-";
    }
    for e in &result.events {
        if e.job != j.job || e.time > t {
            continue;
        }
        match e.kind {
            EventKind::Finished => return "done",
            EventKind::Failed { .. } => return "failed",
            EventKind::Cancelled => return "cancelled",
            _ => {}
        }
    }
    if j.started.is_finite() && t >= j.started {
        "running"
    } else {
        "queued"
    }
}

/// How far through its iteration log a job is at `t` (progress proxy: the
/// profiler records carry no timestamps, so the window interpolates over
/// the job's running interval).
fn iters_known_by(j: &JobOutcome, t: f64) -> usize {
    if !j.started.is_finite() || t < j.started || j.iter_log.is_empty() {
        return 0;
    }
    let end = if j.finished.is_finite() {
        j.finished
    } else {
        j.started + 1.0
    };
    let frac = ((t - j.started) / (end - j.started).max(1e-12)).clamp(0.0, 1.0);
    ((frac * j.iter_log.len() as f64).ceil() as usize).min(j.iter_log.len())
}

/// Render one dashboard frame at virtual time `t`, `width` columns wide.
pub fn frame(result: &SimResult, decisions: &[Event], t: f64, width: usize) -> String {
    use std::fmt::Write as _;
    let width = width.max(60);
    let mut out = String::new();
    let busy = sample(&result.busy_series(), t);
    let total = result.total_procs.max(1);
    let bar_w = 20usize;
    let filled = (busy * bar_w + total / 2) / total;
    let bar: String = (0..bar_w)
        .map(|i| if i < filled { '#' } else { '.' })
        .collect();
    let _ = writeln!(
        out,
        "reshape --top   t={t:9.1}s / {:.1}s   pool {busy:>3}/{total} [{bar}]   util {:.2}",
        result.makespan, result.utilization
    );
    let name_w = result
        .jobs
        .iter()
        .map(|j| j.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let spark_w = width.saturating_sub(name_w + 40).clamp(8, 32);
    let _ = writeln!(
        out,
        "{:>4}  {:<name_w$}  {:<9}  {:>5}  {:>9}  trend",
        "job", "name", "state", "procs", "iter(s)"
    );
    for j in &result.jobs {
        let known = iters_known_by(j, t);
        let times: Vec<f64> = j.iter_log[..known].iter().map(|r| r.iter_time).collect();
        let last = times.last().copied();
        let _ = writeln!(
            out,
            "{:>4}  {:<name_w$}  {:<9}  {:>5}  {:>9}  {}",
            j.job.0,
            j.name,
            state_at(result, j, t),
            sample(&j.alloc_history, t),
            last.map_or_else(|| "-".into(), |v| format!("{v:.2}")),
            sparkline(&times, spark_w),
        );
    }
    let _ = writeln!(out, "-- decisions (\u{a7}3.1) --");
    let mut feed: Vec<&Event> = decisions
        .iter()
        .filter(|e| matches!(e, Event::ResizeDecision { time, .. } if *time <= t))
        .collect();
    let keep = feed.len().saturating_sub(5);
    feed.drain(..keep);
    if feed.is_empty() {
        let _ = writeln!(out, "  (none yet)");
    }
    for e in feed {
        if let Event::ResizeDecision {
            time,
            job,
            from,
            decision,
            to,
            iter_time,
            redist_time,
            ..
        } = e
        {
            let target = to.as_deref().unwrap_or("-");
            let _ = writeln!(
                out,
                "  t={time:9.1}  job {job:<3}  {from:>5} {decision:<9} {target:<5}  iter={iter_time:.2}  redist={redist_time:.2}"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfmodel::{AppModel, MachineParams};
    use crate::sim::{ClusterSim, SimJob};
    use reshape_core::{JobSpec, ProcessorConfig, TopologyPref};

    fn run() -> SimResult {
        let job = SimJob {
            spec: JobSpec::new(
                "LU12000",
                TopologyPref::Grid {
                    problem_size: 12000,
                },
                ProcessorConfig::new(1, 2),
                10,
            ),
            model: AppModel::Lu { n: 12000 },
            arrival: 0.0,
            cancel_at: None,
            fail_at: None,
            tenant: 0,
        };
        ClusterSim::new(16, MachineParams::system_x()).run(&[job])
    }

    #[test]
    fn frame_shows_running_then_done() {
        let r = run();
        let mid = frame(&r, &[], r.makespan * 0.5, 100);
        assert!(mid.contains("LU12000"), "{mid}");
        assert!(mid.contains("running"), "{mid}");
        let end = frame(&r, &[], r.makespan + 1.0, 100);
        assert!(end.contains("done"), "{end}");
        // Before arrival, the pool is empty and the job not yet queued.
        let pre = frame(&r, &[], -1.0, 100);
        assert!(pre.contains("pool   0/16"), "{pre}");
    }

    #[test]
    fn decision_feed_is_time_filtered() {
        let r = run();
        let d = vec![Event::ResizeDecision {
            time: r.makespan * 0.9,
            job: 1,
            from: "1x2".into(),
            decision: "expand".into(),
            to: Some("2x2".into()),
            idle_procs: 12,
            queue_len: 0,
            queue_head_need: None,
            last_expansion_improved: None,
            iter_time: 4.2,
            redist_time: 0.5,
            remaining_iters: 7,
        }];
        let early = frame(&r, &d, r.makespan * 0.1, 100);
        assert!(early.contains("(none yet)"), "{early}");
        let late = frame(&r, &d, r.makespan, 100);
        assert!(late.contains("expand"), "{late}");
        assert!(late.contains("2x2"), "{late}");
    }

    #[test]
    fn sparkline_scales_to_range() {
        assert_eq!(sparkline(&[], 8), "");
        let s = sparkline(&[1.0, 2.0, 3.0], 8);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
    }
}
