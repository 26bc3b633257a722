//! End-to-end integration tests: every paper workload runs as a genuinely
//! resizable application through the full stack (runtime scheduler core →
//! resize library → spawn/merge → redistribution → distributed kernels).

use std::time::Duration;

use reshape::core::runtime::ReshapeRuntime;
use reshape::core::{JobSpec, JobState, ProcessorConfig, QueuePolicy, TopologyPref};
use reshape::mpisim::{NetModel, Universe};

fn finish(runtime: &ReshapeRuntime, job: reshape::core::JobId) -> (JobState, Vec<ProcessorConfig>) {
    let state = runtime.wait_for(job, Duration::from_secs(120)).unwrap();
    let core = runtime.core().lock();
    let visited = core
        .profiler()
        .profile(job)
        .map(|p| p.visited().collect())
        .unwrap_or_default();
    (state, visited)
}

#[test]
fn resizable_lu_grows_and_finishes() {
    let runtime = ReshapeRuntime::new(Universe::new(16, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let spec = JobSpec::new(
        "LU",
        TopologyPref::Grid { problem_size: 48 },
        ProcessorConfig::new(1, 2),
        8,
    );
    let job = runtime.submit(spec, reshape::apps::lu_app(48, 4, 1.0e6));
    let (state, visited) = finish(&runtime, job);
    assert!(matches!(state, JobState::Finished { .. }), "{state:?}");
    assert!(
        visited.len() >= 3,
        "LU should expand repeatedly: {visited:?}"
    );
    assert_eq!(runtime.core().lock().idle_procs(), 16);
}

#[test]
fn resizable_mm_grows_and_finishes() {
    let runtime = ReshapeRuntime::new(Universe::new(9, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let spec = JobSpec::new(
        "MM",
        TopologyPref::Grid { problem_size: 24 },
        ProcessorConfig::new(1, 2),
        6,
    );
    let job = runtime.submit(spec, reshape::apps::mm_app(24, 4, 1.0e6));
    let (state, visited) = finish(&runtime, job);
    assert!(matches!(state, JobState::Finished { .. }), "{state:?}");
    assert!(visited.len() >= 2, "{visited:?}");
}

#[test]
fn resizable_jacobi_state_survives_resizes() {
    // jacobi_app's iterate x persists across resizes; divergence would make
    // the run panic inside the solver's arithmetic or change convergence.
    let runtime = ReshapeRuntime::new(Universe::new(8, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let spec = JobSpec::new(
        "Jacobi",
        TopologyPref::Linear {
            problem_size: 32,
            even_only: true,
        },
        ProcessorConfig::linear(2),
        10,
    );
    let job = runtime.submit(spec, reshape::apps::jacobi_app(32, 4, 3, 1.0e5));
    let (state, visited) = finish(&runtime, job);
    assert!(matches!(state, JobState::Finished { .. }), "{state:?}");
    assert!(visited.len() >= 2, "{visited:?}");
}

#[test]
fn resizable_fft_runs_on_power_of_two_counts() {
    let runtime = ReshapeRuntime::new(Universe::new(8, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let spec = JobSpec::new(
        "FFT",
        TopologyPref::Linear {
            problem_size: 32,
            even_only: true,
        },
        ProcessorConfig::linear(2),
        6,
    );
    let job = runtime.submit(spec, reshape::apps::fft_app(32, 4, 1.0e6));
    let (state, visited) = finish(&runtime, job);
    assert!(matches!(state, JobState::Finished { .. }), "{state:?}");
    assert!(!visited.is_empty());
}

#[test]
fn resizable_master_worker_has_no_data_to_move() {
    let runtime = ReshapeRuntime::new(Universe::new(8, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let spec = JobSpec::new(
        "MW",
        TopologyPref::AnyCount {
            min: 2,
            max: 8,
            step: 2,
        },
        ProcessorConfig::linear(2),
        6,
    );
    let job = runtime.submit(spec, reshape::apps::mw_app(200, 1e-4, 16));
    let (state, visited) = finish(&runtime, job);
    assert!(matches!(state, JobState::Finished { .. }), "{state:?}");
    assert!(!visited.is_empty());
}

#[test]
fn two_jobs_share_a_small_cluster() {
    let runtime = ReshapeRuntime::new(Universe::new(4, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let mk = |name: &str| {
        JobSpec::new(
            name,
            TopologyPref::Grid { problem_size: 16 },
            ProcessorConfig::new(1, 2),
            4,
        )
    };
    let a = runtime.submit(mk("A"), reshape::apps::lu_app(16, 2, 1.0e6));
    let b = runtime.submit(mk("B"), reshape::apps::lu_app(16, 2, 1.0e6));
    assert!(matches!(
        runtime.wait_for(a, Duration::from_secs(120)).unwrap(),
        JobState::Finished { .. }
    ));
    assert!(matches!(
        runtime.wait_for(b, Duration::from_secs(120)).unwrap(),
        JobState::Finished { .. }
    ));
    assert_eq!(runtime.core().lock().idle_procs(), 4);
}

#[test]
fn backfill_lets_small_jobs_jump_blocked_queue() {
    let runtime = ReshapeRuntime::new(
        Universe::new(4, 1, NetModel::ideal()),
        QueuePolicy::Backfill,
    );
    // Fill the cluster, then queue a 4-proc job (blocked) and a 2-proc job
    // (backfillable only if the big one can't run).
    let mk = |name: &str, rows: usize, cols: usize, iters: usize| {
        JobSpec::new(
            name,
            TopologyPref::Grid { problem_size: 16 },
            ProcessorConfig::new(rows, cols),
            iters,
        )
        .static_job()
    };
    let hog = runtime.submit(mk("hog", 2, 2, 8), reshape::apps::lu_app(16, 2, 1.0e6));
    let big = runtime.submit(mk("big", 2, 2, 2), reshape::apps::lu_app(16, 2, 1.0e6));
    let small = runtime.submit(mk("small", 1, 2, 2), reshape::apps::lu_app(16, 2, 1.0e6));
    for j in [hog, big, small] {
        assert!(matches!(
            runtime.wait_for(j, Duration::from_secs(120)).unwrap(),
            JobState::Finished { .. }
        ));
    }
}

#[test]
fn single_iteration_job_has_no_resize_points() {
    // One iteration means the loop ends before any resize point — the job
    // must finish cleanly at its initial size.
    let runtime = ReshapeRuntime::new(Universe::new(8, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let spec = JobSpec::new(
        "one-shot",
        TopologyPref::Grid { problem_size: 16 },
        ProcessorConfig::new(2, 2),
        1,
    );
    let job = runtime.submit(spec, reshape::apps::lu_app(16, 2, 1.0e6));
    let (state, visited) = finish(&runtime, job);
    assert!(matches!(state, JobState::Finished { .. }), "{state:?}");
    // The Performance Profiler only hears from jobs at resize points, and a
    // single-iteration job has none — faithful to the paper's design.
    assert!(visited.is_empty(), "{visited:?}");
    assert_eq!(runtime.core().lock().idle_procs(), 8);
}

#[test]
fn job_at_top_of_chain_cannot_expand() {
    // Problem size 8 on a 2x4 grid: the chain (…, 2x4, 4x4, 4x8, 8x8) is
    // capped by the 8-processor cluster, so the job holds its size.
    let runtime = ReshapeRuntime::new(Universe::new(8, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let spec = JobSpec::new(
        "maxed",
        TopologyPref::Grid { problem_size: 8 },
        ProcessorConfig::new(2, 4),
        4,
    );
    let job = runtime.submit(spec, reshape::apps::lu_app(8, 2, 1.0e6));
    let (state, visited) = finish(&runtime, job);
    assert!(matches!(state, JobState::Finished { .. }), "{state:?}");
    assert_eq!(visited, vec![ProcessorConfig::new(2, 4)]);
}

#[test]
fn high_priority_job_starts_before_earlier_submission() {
    // Fill the cluster with a static hog, queue a low- then a
    // high-priority job: the high one must run first.
    let runtime = ReshapeRuntime::new(Universe::new(4, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let mk = |name: &str, prio: u8| {
        JobSpec::new(
            name,
            TopologyPref::Grid { problem_size: 16 },
            ProcessorConfig::new(2, 2),
            3,
        )
        .static_job()
        .with_priority(prio)
    };
    let hog = runtime.submit(mk("hog", 0), reshape::apps::lu_app(16, 2, 1.0e6));
    let low = runtime.submit(mk("low", 0), reshape::apps::lu_app(16, 2, 1.0e6));
    let high = runtime.submit(mk("high", 7), reshape::apps::lu_app(16, 2, 1.0e6));
    for j in [hog, low, high] {
        assert!(matches!(
            runtime.wait_for(j, Duration::from_secs(120)).unwrap(),
            JobState::Finished { .. }
        ));
    }
    let core = runtime.core().lock();
    let started = |j| core.job(j).unwrap().started_at.unwrap();
    assert!(
        started(high) <= started(low),
        "high started {} after low {}",
        started(high),
        started(low)
    );
}

#[test]
fn phased_app_reprobes_in_real_mode() {
    // Phase 1 (iterations 0-4): sweet spot at 4 procs (more is worse).
    // Phase 2 (5+): bigger is strictly better. Without the phase-change
    // notification the phase-1 "expansion didn't help" verdict would pin
    // the job at 4 forever.
    use reshape::blockcyclic::{Descriptor, DistMatrix};
    use reshape::core::driver::AppDef;
    let runtime = ReshapeRuntime::new(Universe::new(12, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let n = 24usize;
    let app = AppDef::new(
        move |grid| {
            let desc = Descriptor::square(n, 2, grid.nprow(), grid.npcol());
            vec![DistMatrix::from_fn(
                desc,
                grid.myrow(),
                grid.mycol(),
                |_, _| 1.0,
            )]
        },
        |grid, _mats, iter| {
            let p = grid.nprow() * grid.npcol();
            let t = if iter < 5 {
                // Light phase: flat beyond 4 processors.
                match p {
                    1 | 2 => 8.0 / p as f64,
                    4 => 3.0,
                    _ => 5.0,
                }
            } else {
                // Heavy phase: scales all the way up.
                200.0 / p as f64
            };
            grid.comm().advance(t);
        },
    )
    .with_phase_starts(vec![5]);
    let spec = JobSpec::new(
        "phased",
        TopologyPref::Grid { problem_size: n },
        ProcessorConfig::new(1, 2),
        14,
    );
    let job = runtime.submit(spec, app);
    let state = runtime.wait_for(job, Duration::from_secs(120)).unwrap();
    assert!(matches!(state, JobState::Finished { .. }), "{state:?}");
    let core = runtime.core().lock();
    let prof = core.profiler().profile(job).unwrap();
    // Post-reset history only contains phase-2 records, and the job grew
    // past its phase-1 sweet spot of 4 processors.
    let max_procs = prof
        .history()
        .iter()
        .map(|r| r.config.procs())
        .max()
        .unwrap();
    assert!(
        max_procs > 4,
        "heavy phase should re-expand past the old sweet spot: {:?}",
        prof.history()
    );
}

#[test]
fn churn_many_jobs_through_a_small_cluster() {
    // Six mixed jobs (LU, MW, Jacobi) churn through a 10-processor cluster
    // with staggered submissions: every job must finish, the pool must end
    // whole, and at least one resize must have occurred along the way.
    let runtime = ReshapeRuntime::new(
        Universe::new(10, 1, NetModel::ideal()),
        QueuePolicy::Backfill,
    );
    let mut jobs = Vec::new();
    for round in 0..2 {
        jobs.push(runtime.submit(
            JobSpec::new(
                format!("LU-{round}"),
                TopologyPref::Grid { problem_size: 24 },
                ProcessorConfig::new(1, 2),
                4,
            ),
            reshape::apps::lu_app(24, 4, 1.0e6),
        ));
        jobs.push(runtime.submit(
            JobSpec::new(
                format!("MW-{round}"),
                TopologyPref::AnyCount {
                    min: 2,
                    max: 8,
                    step: 2,
                },
                ProcessorConfig::linear(2),
                3,
            ),
            reshape::apps::mw_app(100, 1e-4, 16),
        ));
        jobs.push(runtime.submit(
            JobSpec::new(
                format!("Jacobi-{round}"),
                TopologyPref::Linear {
                    problem_size: 16,
                    even_only: true,
                },
                ProcessorConfig::linear(2),
                4,
            ),
            reshape::apps::jacobi_app(16, 2, 2, 1.0e5),
        ));
        std::thread::sleep(Duration::from_millis(15));
    }
    for j in &jobs {
        let state = runtime.wait_for(*j, Duration::from_secs(120)).unwrap();
        assert!(matches!(state, JobState::Finished { .. }), "{j}: {state:?}");
    }
    let core = runtime.core().lock();
    assert_eq!(core.idle_procs(), 10, "pool whole after churn");
    use reshape::core::EventKind;
    let resizes = core
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Expanded { .. } | EventKind::Shrunk { .. }
            )
        })
        .count();
    assert!(resizes > 0, "expected some resizing during churn");
}

#[test]
fn cancelled_running_job_terminates_cooperatively() {
    // A long-running job is cancelled mid-run: its processes exit at the
    // next resize point, its processors return, and a queued job starts.
    let runtime = ReshapeRuntime::new(Universe::new(4, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let long = runtime.submit(
        JobSpec::new(
            "long",
            TopologyPref::Grid { problem_size: 16 },
            ProcessorConfig::new(2, 2),
            500, // would run a long time if not cancelled
        )
        .static_job(),
        reshape::apps::lu_app(16, 2, 1.0e6),
    );
    let queued = runtime.submit(
        JobSpec::new(
            "queued",
            TopologyPref::Grid { problem_size: 16 },
            ProcessorConfig::new(2, 2),
            2,
        )
        .static_job(),
        reshape::apps::lu_app(16, 2, 1.0e6),
    );
    // Let it get going, then cancel.
    std::thread::sleep(Duration::from_millis(30));
    runtime.cancel(long);
    let state = runtime.wait_for(long, Duration::from_secs(60)).unwrap();
    assert!(matches!(state, JobState::Cancelled { .. }), "{state:?}");
    assert!(matches!(
        runtime.wait_for(queued, Duration::from_secs(60)).unwrap(),
        JobState::Finished { .. }
    ));
    assert_eq!(runtime.core().lock().idle_procs(), 4);
}

#[test]
fn non_rank0_failure_is_attributed_by_node() {
    // A worker rank (not rank 0) panics: the System Monitor attributes the
    // failure to the job through node occupancy and reclaims resources
    // immediately, without waiting for rank 0's receive timeout.
    use reshape::blockcyclic::{Descriptor, DistMatrix};
    use reshape::core::driver::AppDef;
    let runtime = ReshapeRuntime::new(Universe::new(4, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let app = AppDef::new(
        |grid| {
            let desc = Descriptor::square(8, 2, grid.nprow(), grid.npcol());
            vec![DistMatrix::from_fn(
                desc,
                grid.myrow(),
                grid.mycol(),
                |_, _| 0.0,
            )]
        },
        |grid, _m, it| {
            if it == 1 && grid.comm().rank() == 3 {
                panic!("worker rank failure");
            }
            grid.comm().advance(0.01);
        },
    );
    let spec = JobSpec::new(
        "flaky-worker",
        TopologyPref::Grid { problem_size: 8 },
        ProcessorConfig::new(2, 2),
        5,
    )
    .static_job();
    let job = runtime.submit(spec, app);
    // The monitor should mark the job failed well before the 120 s
    // deadlock timeout that would otherwise be the only signal.
    let state = runtime.wait_for(job, Duration::from_secs(30)).unwrap();
    assert!(
        matches!(state, JobState::Failed { ref reason, .. } if reason.contains("worker rank")),
        "{state:?}"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if runtime.core().lock().idle_procs() == 4 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "resources never reclaimed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn real_mode_iteration_times_scale_like_the_model() {
    // Cross-check the two modes: run a real LU app under the
    // Gigabit-Ethernet virtual clock at 2 and at 8 processors and verify
    // the virtual iteration time improves, as the analytic model predicts
    // for compute-dominated sizes.
    let time_at = |procs: (usize, usize)| -> f64 {
        let runtime = ReshapeRuntime::new(
            Universe::new(8, 1, NetModel::gigabit_ethernet()),
            QueuePolicy::Fcfs,
        );
        let spec = JobSpec::new(
            "LU-x",
            TopologyPref::Grid { problem_size: 48 },
            ProcessorConfig::new(procs.0, procs.1),
            3,
        )
        .static_job();
        // Low rate makes modeled compute dominate the (small) messages.
        let job = runtime.submit(spec, reshape::apps::lu_app(48, 4, 1.0e6));
        runtime.wait_for(job, Duration::from_secs(60)).unwrap();
        let core = runtime.core().lock();
        let prof = core.profiler().profile(job).unwrap();
        prof.time_at(ProcessorConfig::new(procs.0, procs.1))
            .unwrap()
    };
    let t2 = time_at((1, 2));
    let t8 = time_at((2, 4));
    assert!(
        t8 < t2 * 0.5,
        "8 procs ({t8:.4}s) should be well under half of 2 procs ({t2:.4}s)"
    );
}

#[test]
fn advanced_api_manual_orchestration() {
    // The paper's Advanced Functional API: the application itself calls
    // contact_scheduler and actuates the directive (Figure 1(b)'s state
    // machine), instead of letting resize() do it. Here a 6-rank job asks
    // the scheduler at each step; when a second job queues, the scheduler
    // orders a shrink, the app redistributes and the surplus ranks depart.
    use reshape::blockcyclic::{Descriptor, DistMatrix};
    use reshape::core::driver::{AppDef, DriverShared, ResizeContext, Resolution, SchedulerLink};
    use reshape::core::{Directive, JobId, SchedulerCore};
    use std::sync::{Arc, Mutex};

    struct CoreLink(Mutex<SchedulerCore>);
    impl SchedulerLink for CoreLink {
        fn resize_point(&self, job: JobId, it: f64, rt: f64, now: f64) -> Directive {
            self.0.lock().unwrap().resize_point(job, it, rt, now).0
        }
        fn note_redist(&self, job: JobId, f: ProcessorConfig, t: ProcessorConfig, s: f64) {
            self.0.lock().unwrap().note_redist_cost(job, f, t, s);
        }
        fn finished(&self, job: JobId, now: f64) {
            self.0.lock().unwrap().on_finished(job, now);
        }
    }

    let n = 24usize;
    let mut core = SchedulerCore::new(6, QueuePolicy::Fcfs);
    let spec = JobSpec::new(
        "advanced",
        TopologyPref::Grid { problem_size: n },
        ProcessorConfig::new(2, 3),
        100,
    );
    let (job, starts) = core.submit(spec, 0.0);
    assert_eq!(starts.len(), 1);
    // Seed the profile so the shrink rule has a visited smaller config
    // ("applications can only shrink to configurations on which they have
    // previously run").
    core.profiler_mut()
        .record_iteration(job, ProcessorConfig::new(1, 2), 50.0, 0.0);
    // A competitor queues, demanding 2 processors.
    let spec_b = JobSpec::new(
        "queued",
        TopologyPref::Grid { problem_size: n },
        ProcessorConfig::new(1, 2),
        1,
    );
    let (_b, s) = core.submit(spec_b, 1.0);
    assert!(s.is_empty(), "cluster is full; B must queue");
    let link = Arc::new(CoreLink(Mutex::new(core)));

    let uni = Universe::new(6, 1, NetModel::ideal());
    let link2 = Arc::clone(&link);
    uni.launch(6, None, "advanced", move |comm| {
        let shared = Arc::new(DriverShared {
            job,
            app: AppDef::new(|_| Vec::new(), |_, _, _| {}),
            iterations: 100,
            link: link2.clone() as Arc<dyn SchedulerLink>,
            slots_per_node: 1,
            survivable: false,
        });
        let mut ctx = ResizeContext::attach(
            Arc::clone(&shared),
            comm.clone(),
            ProcessorConfig::new(2, 3),
        );
        let desc = Descriptor::square(n, 2, 2, 3);
        let mut mats = vec![DistMatrix::from_fn(
            desc,
            ctx.grid().myrow(),
            ctx.grid().mycol(),
            |i, j| (i * n + j) as f64,
        )];
        // One modeled iteration, then the manual resize-point protocol.
        comm.advance(40.0);
        let t = ctx.log(40.0);
        match ctx.contact_scheduler(t) {
            Directive::Shrink { to } => {
                assert_eq!(to, ProcessorConfig::new(1, 2));
                match ctx.shrink_processors(to, &mut mats) {
                    Resolution::Depart => {
                        assert!(comm.rank() >= 2, "only surplus ranks depart");
                    }
                    Resolution::Resized => {
                        assert!(comm.rank() < 2);
                        // Data survived the manual redistribution.
                        let d = mats[0].desc;
                        for li in 0..mats[0].local_rows() {
                            let gi = d.local_to_global_row(li, mats[0].myrow);
                            for lj in 0..mats[0].local_cols() {
                                let gj = d.local_to_global_col(lj, mats[0].mycol);
                                assert_eq!(mats[0].get_local(li, lj), (gi * n + gj) as f64);
                            }
                        }
                    }
                    Resolution::Continue => unreachable!(),
                }
            }
            other => panic!("expected a shrink directive for the queued job, got {other:?}"),
        }
    })
    .join_ok();
}

#[test]
fn static_jobs_never_change_size() {
    let runtime = ReshapeRuntime::new(Universe::new(16, 1, NetModel::ideal()), QueuePolicy::Fcfs);
    let spec = JobSpec::new(
        "static-LU",
        TopologyPref::Grid { problem_size: 24 },
        ProcessorConfig::new(2, 2),
        5,
    )
    .static_job();
    let job = runtime.submit(spec, reshape::apps::lu_app(24, 4, 1.0e6));
    let (state, visited) = finish(&runtime, job);
    assert!(matches!(state, JobState::Finished { .. }));
    assert_eq!(visited, vec![ProcessorConfig::new(2, 2)]);
}
