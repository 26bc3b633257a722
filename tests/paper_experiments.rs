//! Assertions over the paper's experiments: each figure/table harness's
//! underlying computation must reproduce the paper's qualitative (and,
//! where stated, quantitative) findings. These tests pin the claims that
//! EXPERIMENTS.md reports.

use reshape::clustersim::{
    fig3a_job, fig3b_jobs, workload1, workload2, AppModel, ClusterSim, MachineParams, RedistMode,
};
use reshape::core::{ProcessorConfig, TopologyPref};

fn machine() -> MachineParams {
    MachineParams::system_x()
}

// ---------------------------------------------------------------- Table 2

#[test]
fn table2_chains_match_paper() {
    let cases: Vec<(usize, (usize, usize), usize, &str)> = vec![
        (8000, (1, 2), 40, "1x2 2x2 2x4 4x4 4x5 5x5 5x8"),
        (
            12000,
            (1, 2),
            48,
            "1x2 2x2 2x3 3x3 3x4 4x4 4x5 5x5 5x6 6x6 6x8",
        ),
        (14000, (2, 2), 49, "2x2 2x4 4x4 4x5 5x5 5x7 7x7"),
        (16000, (2, 2), 40, "2x2 2x4 4x4 4x5 5x5 5x8"),
        (20000, (2, 2), 40, "2x2 2x4 4x4 4x5 5x5 5x8"),
    ];
    for (n, start, cap, expect) in cases {
        let chain = TopologyPref::Grid { problem_size: n }
            .chain_from(ProcessorConfig::new(start.0, start.1), cap);
        let got: Vec<String> = chain.iter().map(|c| c.to_string()).collect();
        assert_eq!(got.join(" "), expect, "problem size {n}");
    }
}

// ------------------------------------------------------------- Figure 2(a)

#[test]
fn fig2a_lu_24000_improves_about_19_percent_from_16_to_20() {
    let lu = AppModel::Lu { n: 24000 };
    let t16 = lu.iter_time(ProcessorConfig::new(4, 4), &machine());
    let t20 = lu.iter_time(ProcessorConfig::new(4, 5), &machine());
    let gain = (t16 - t20) / t16 * 100.0;
    assert!(
        (10.0..25.0).contains(&gain),
        "paper reports 19.1%, model gives {gain:.1}%"
    );
}

#[test]
fn fig2a_small_problems_flatten_big_problems_keep_improving() {
    let m = machine();
    // 8000 gains little late in its chain...
    let lu8 = AppModel::Lu { n: 8000 };
    let late_gain = {
        let a = lu8.iter_time(ProcessorConfig::new(5, 5), &m);
        let b = lu8.iter_time(ProcessorConfig::new(5, 8), &m);
        (a - b) / a
    };
    // ...while 24000 still gains substantially at the same transition.
    let lu24 = AppModel::Lu { n: 24000 };
    let big_gain = {
        let a = lu24.iter_time(ProcessorConfig::new(5, 5), &m);
        let b = lu24.iter_time(ProcessorConfig::new(5, 8), &m);
        (a - b) / a
    };
    assert!(
        big_gain > late_gain + 0.05,
        "24000 gains {big_gain:.2}, 8000 gains {late_gain:.2}"
    );
}

// ------------------------------------------------------------- Figure 2(b)

#[test]
fn fig2b_redist_cost_monotone_in_n_and_antitone_in_p() {
    let m = machine();
    // Antitone in processor count along the 12000 chain.
    let lu12 = AppModel::Lu { n: 12000 };
    let chain = TopologyPref::Grid {
        problem_size: 12000,
    }
    .chain_from(ProcessorConfig::new(1, 2), 48);
    let costs: Vec<f64> = chain
        .windows(2)
        .map(|w| {
            lu12.resize_cost(w[0], w[1], &m, RedistMode::Reshape)
                .total_seconds
        })
        .collect();
    for w in costs.windows(2) {
        assert!(
            w[1] <= w[0] * 1.15,
            "redistribution cost should broadly fall along the chain: {costs:?}"
        );
    }
    // Monotone in matrix size for a fixed transition.
    let c8 = AppModel::Lu { n: 8000 }
        .resize_cost(
            ProcessorConfig::new(2, 2),
            ProcessorConfig::new(2, 4),
            &m,
            RedistMode::Reshape,
        )
        .total_seconds;
    let c24 = AppModel::Lu { n: 24000 }
        .resize_cost(
            ProcessorConfig::new(2, 2),
            ProcessorConfig::new(2, 4),
            &m,
            RedistMode::Reshape,
        )
        .total_seconds;
    assert!(c24 > 4.0 * c8);
}

#[test]
fn fig2b_absolute_scale_matches_paper_band() {
    // Paper Figure 2(b): costs range from under a second up to ~23 s for
    // the 24000 matrix at small processor counts.
    let m = machine();
    let worst = AppModel::Lu { n: 24000 }
        .resize_cost(
            ProcessorConfig::new(2, 4),
            ProcessorConfig::new(4, 4),
            &m,
            RedistMode::Reshape,
        )
        .total_seconds;
    assert!(
        (5.0..40.0).contains(&worst),
        "24000 first expansion should be O(10 s), got {worst:.1}"
    );
}

// ------------------------------------------------------------- Figure 3(a)

#[test]
fn fig3a_trajectory_and_deltas_match_paper() {
    let result = ClusterSim::new(36, machine()).run(&[fig3a_job()]);
    let job = &result.jobs[0];
    let procs: Vec<usize> = job.alloc_history.iter().map(|&(_, p)| p).collect();
    assert_eq!(procs, vec![2, 4, 6, 9, 12, 16, 12, 0]);
    // The paper's iteration-time column.
    let times: Vec<f64> = job.iter_log.iter().map(|r| r.iter_time).collect();
    let expect = [129.63, 112.52, 82.31, 79.61, 69.85, 74.91, 69.85];
    for (i, e) in expect.iter().enumerate() {
        assert!(
            (times[i] - e).abs() < 1e-6,
            "iteration {i}: {} vs {e}",
            times[i]
        );
    }
    // Redistribution costs decrease along the trajectory, as in the paper
    // (8.00, 7.74, 5.25, 4.86, 4.41).
    let redists: Vec<f64> = job.iter_log[1..6].iter().map(|r| r.redist_time).collect();
    assert!(redists[0] > redists[4], "{redists:?}");
    assert!(
        redists.iter().all(|&r| (0.5..12.0).contains(&r)),
        "costs should be paper-magnitude: {redists:?}"
    );
}

// ------------------------------------------------------------- Figure 3(b)

#[test]
fn fig3b_checkpoint_vs_reshape_ratios_in_paper_band() {
    // Paper: LU 8.3x, MM 4.5x, Jacobi 14.5x, FFT 7.9x; MW identical.
    let m = machine();
    for job in fig3b_jobs() {
        let reshape_run = ClusterSim::new(36, m).run(std::slice::from_ref(&job));
        let ckpt_run = ClusterSim::new(36, m)
            .with_redist_mode(RedistMode::Checkpoint)
            .run(std::slice::from_ref(&job));
        let r = reshape_run.jobs[0].redist_total;
        let c = ckpt_run.jobs[0].redist_total;
        match job.spec.name.as_str() {
            "Master-worker" => {
                assert!((c - r).abs() < 1.0, "MW: ckpt {c} vs reshape {r}")
            }
            name => {
                let ratio = c / r;
                assert!(
                    (3.0..30.0).contains(&ratio),
                    "{name}: checkpoint/reshape ratio {ratio:.1} outside the paper band"
                );
            }
        }
    }
}

#[test]
fn fig3b_dynamic_beats_static_for_grid_apps() {
    let m = machine();
    for job in fig3b_jobs() {
        if job.spec.name == "Master-worker" {
            continue; // MW starts at its only size here.
        }
        let dynamic = ClusterSim::new(36, m).run(std::slice::from_ref(&job));
        let mut s = job.clone();
        s.spec = s.spec.static_job();
        let stat = ClusterSim::new(36, m).run(std::slice::from_ref(&s));
        assert!(
            dynamic.jobs[0].turnaround < stat.jobs[0].turnaround,
            "{}: dynamic {} >= static {}",
            job.spec.name,
            dynamic.jobs[0].turnaround,
            stat.jobs[0].turnaround
        );
    }
}

// ----------------------------------------------------- Figure 4 / Table 4

#[test]
fn table4_dynamic_improves_turnaround_and_utilization() {
    let m = machine();
    let w = workload1();
    let dynamic = ClusterSim::new(w.total_procs, m).run(&w.jobs);
    let stat = ClusterSim::new(w.total_procs, m).run(&w.as_static().jobs);
    // Every resizable app improves; MW (finished before processors freed)
    // stays put — the paper's Table 4 shows -0.53 s, i.e. a wash.
    for name in ["LU", "MM", "Jacobi", "2D FFT"] {
        let d = dynamic.jobs.iter().find(|j| j.name == name).unwrap();
        let s = stat.jobs.iter().find(|j| j.name == name).unwrap();
        assert!(
            d.turnaround < s.turnaround,
            "{name}: {} vs {}",
            d.turnaround,
            s.turnaround
        );
    }
    let mw_d = dynamic
        .jobs
        .iter()
        .find(|j| j.name == "Master-worker")
        .unwrap();
    let mw_s = stat
        .jobs
        .iter()
        .find(|j| j.name == "Master-worker")
        .unwrap();
    assert!((mw_d.turnaround - mw_s.turnaround).abs() < 5.0);
    // Utilization jumps by double digits (paper: 39.7% -> 70.7%).
    assert!(
        dynamic.utilization - stat.utilization > 0.10,
        "static {:.3} dynamic {:.3}",
        stat.utilization,
        dynamic.utilization
    );
}

#[test]
fn fig4a_lu_expands_to_fill_drained_cluster() {
    // Paper: "As there were no other running or queued jobs in the system
    // after t=2764 seconds, the LU application expanded to the maximum
    // number of processors."
    let w = workload1();
    let result = ClusterSim::new(w.total_procs, machine()).run(&w.jobs);
    let lu = result.jobs.iter().find(|j| j.name == "LU").unwrap();
    let max_lu = lu.alloc_history.iter().map(|&(_, p)| p).max().unwrap();
    assert!(
        max_lu >= 20,
        "LU should grow large once the cluster drains: {:?}",
        lu.alloc_history
    );
}

#[test]
fn fig4b_dynamic_keeps_more_processors_busy() {
    let w = workload1();
    let m = machine();
    let dynamic = ClusterSim::new(w.total_procs, m).run(&w.jobs);
    let stat = ClusterSim::new(w.total_procs, m).run(&w.as_static().jobs);
    let peak = |r: &reshape::clustersim::SimResult| {
        r.busy_series().iter().map(|&(_, b)| b).max().unwrap_or(0)
    };
    assert!(
        peak(&dynamic) > peak(&stat),
        "dynamic should reach higher occupancy"
    );
    assert!(peak(&dynamic) <= w.total_procs);
}

// ----------------------------------------------------- Figure 5 / Table 5

#[test]
fn table5_gains_are_modest() {
    let w = workload2();
    let m = machine();
    let dynamic = ClusterSim::new(w.total_procs, m).run(&w.jobs);
    let stat = ClusterSim::new(w.total_procs, m).run(&w.as_static().jobs);
    for (d, s) in dynamic.jobs.iter().zip(&stat.jobs) {
        let rel = (s.turnaround - d.turnaround) / s.turnaround;
        assert!(
            (-0.02..0.35).contains(&rel),
            "{}: W2 improvements must be modest, got {:.1}%",
            d.name,
            rel * 100.0
        );
    }
    // The statically scheduled FFT is identical in both runs (paper: 0.00).
    let f_d = dynamic.jobs.iter().find(|j| j.name == "2D FFT").unwrap();
    let f_s = stat.jobs.iter().find(|j| j.name == "2D FFT").unwrap();
    assert!((f_d.turnaround - f_s.turnaround).abs() < 1e-6);
}

#[test]
fn fig5a_running_jobs_shrink_for_arrivals() {
    // Paper: LU shrinks to accommodate the master-worker arrival at t=560.
    let w = workload2();
    let result = ClusterSim::new(w.total_procs, machine()).run(&w.jobs);
    let lu = result.jobs.iter().find(|j| j.name == "LU").unwrap();
    let shrank = lu
        .alloc_history
        .windows(2)
        .any(|x| x[1].1 < x[0].1 && x[1].1 > 0);
    assert!(
        shrank,
        "LU should shrink for queued arrivals: {:?}",
        lu.alloc_history
    );
}
