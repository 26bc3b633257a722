//! Seeded end-to-end survival drills.
//!
//! The scheduler-level sweep ([`crate::harness`]) models node losses as
//! `on_node_failed` calls; these drills run the real thing: a survivable
//! job on a simulated cluster ([`reshape_mpisim::Universe`]) with a node
//! crash injected at a seeded virtual time, driven by the full runtime
//! (heartbeat detection, buddy restore, rollback + replay, forced shrink).
//!
//! Two oracles:
//!
//! * [`run_survival`] — the job survives **iff** the dead rank's buddy is
//!   intact, and a surviving run's final matrix is *bitwise identical* to
//!   a fault-free run of the same seed (rollback + deterministic replay
//!   reproduce the exact floats).
//! * [`run_txn_rollback`] — a rank killed *mid-redistribution* aborts the
//!   transactional executor on every survivor with the old layout
//!   bit-for-bit intact (the differential check on the rolled-back state).
//!
//! Failures carry the seed; reproduce with
//! `TESTKIT_SEED=<seed> cargo test -p reshape-testkit survival_seed_from_env`.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_core::driver::AppDef;
use reshape_core::runtime::ReshapeRuntime;
use reshape_core::{JobSpec, JobState, ProcessorConfig, QueuePolicy, TopologyPref};
use reshape_mpisim::{Comm, NetModel, NodeId, Universe};
use reshape_redist::{plan_2d, txn_redistribute_2d};

use crate::rng::SplitMix64;

/// What one survival drill did.
#[derive(Clone, Copy, Debug)]
pub struct SurvivalReport {
    /// The drill's node loss left the victim's buddy alive.
    pub buddy_intact: bool,
    /// The job reached `Finished` (always equals `buddy_intact` — the
    /// oracle inside [`run_survival`] enforces it).
    pub survived: bool,
}

/// Drive one seeded survivable job through a node crash and judge the
/// outcome. See the module docs for the oracle.
pub fn run_survival(seed: u64) -> Result<SurvivalReport, String> {
    let mut rng = SplitMix64::new(seed);
    let n = *rng.pick(&[8usize, 12, 16]);
    let iters = rng.usize_range(4, 8);
    let victim = rng.usize_range(0, 3);
    let buddy_intact = rng.chance(2, 3);
    // The 2x2 job advances 10/4 virtual seconds per iteration; land the
    // crash squarely inside a seeded mid-run iteration.
    let crash_iter = rng.usize_range(1, iters - 2);
    let crash_at = (crash_iter as f64 + 0.5) * 2.5;
    let fail = |msg: String| {
        dump_fault_schedule(
            &format!("survival-seed-{seed}.txt"),
            &format!(
                "kind=survival\nseed={seed}\nn={n}\niters={iters}\nvictim={victim}\n\
                 buddy_intact={buddy_intact}\ncrash_at={crash_at}\nerror={msg}\n"
            ),
        );
        format!("seed {seed} (survival): {msg}")
    };

    // Fault-free baseline of the same app: the survival oracle demands
    // bitwise equality against it.
    let baseline = run_job(n, iters, &[])
        .map_err(|e| fail(format!("baseline run failed: {e}")))?
        .1;
    if baseline.len() != n * n {
        return Err(fail("baseline gather incomplete".into()));
    }

    let mut crashes = vec![(victim as u32, crash_at)];
    if !buddy_intact {
        // The ring buddy of old rank `r` is `(r + 1) % 4`; with one slot
        // per node and slots granted in rank order, rank and node indices
        // coincide.
        crashes.push((((victim + 1) % 4) as u32, crash_at));
    }
    let (state, survived_mat) =
        run_job(n, iters, &crashes).map_err(|e| fail(format!("faulted run failed: {e}")))?;

    let survived = matches!(state, JobState::Finished { .. });
    if survived != buddy_intact {
        return Err(fail(format!(
            "survival oracle violated: buddy_intact={buddy_intact} but job ended {state:?}"
        )));
    }
    if buddy_intact {
        if survived_mat.len() != baseline.len() {
            return Err(fail(format!(
                "final gather has {} elements, baseline {}",
                survived_mat.len(),
                baseline.len()
            )));
        }
        for (i, (a, b)) in survived_mat.iter().zip(&baseline).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(fail(format!(
                    "element {i} diverged after recovery: {a} != {b}"
                )));
            }
        }
    } else if !matches!(state, JobState::Failed { .. }) {
        return Err(fail(format!(
            "expected Failed after losing a buddy pair, got {state:?}"
        )));
    }
    Ok(SurvivalReport {
        buddy_intact,
        survived,
    })
}

/// Run one survivable 2x2 job on a 4-node universe, crashing the given
/// nodes, and return its terminal state plus the matrix gathered on the
/// final iteration (empty when the job died first). The app evolves every
/// element deterministically per iteration, so a botched rollback/replay
/// shows up in the data.
fn run_job(n: usize, iters: usize, crashes: &[(u32, f64)]) -> Result<(JobState, Vec<f64>), String> {
    let uni = Universe::new(4, 1, NetModel::ideal());
    for &(node, at) in crashes {
        uni.inject_node_crash(NodeId(node), at);
    }
    let rt = ReshapeRuntime::new(uni, QueuePolicy::Fcfs);
    let spec = JobSpec::new(
        "survival-drill",
        TopologyPref::Grid { problem_size: n },
        ProcessorConfig::new(2, 2),
        iters,
    )
    .static_job()
    .survivable();
    let captured: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let cap = Arc::clone(&captured);
    let app = AppDef::new(
        move |grid| {
            let desc = Descriptor::square(n, 2, grid.nprow(), grid.npcol());
            vec![DistMatrix::from_fn(
                desc,
                grid.myrow(),
                grid.mycol(),
                |i, j| (i * n + j) as f64,
            )]
        },
        move |grid, mats, it| {
            for v in mats[0].local_data_mut() {
                *v = *v * 1.5 + (it + 1) as f64;
            }
            let p = (grid.nprow() * grid.npcol()) as f64;
            grid.comm().advance(10.0 / p);
            if it + 1 == iters {
                if let Some(full) = mats[0].gather(grid) {
                    *cap.lock().expect("capture mutex") = full;
                }
            }
        },
    );
    let job = rt.submit(spec, app);
    let state = rt
        .wait_for(job, Duration::from_secs(60))
        .map_err(|e| format!("job never terminated: {e:?}"))?;
    // The pool must drain completely: survivors' slots at termination plus
    // the dead slots at the forced shrink.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if rt.core().lock().idle_procs() == 4 {
            break;
        }
        if std::time::Instant::now() >= deadline {
            return Err("resources never reclaimed".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let full = captured.lock().expect("capture mutex").clone();
    Ok((state, full))
}

/// Kill a seeded rank mid-redistribution and demand the transactional
/// executor aborts with every survivor's source panel bitwise intact.
pub fn run_txn_rollback(seed: u64) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed ^ 0x7D15_7A11);
    let m = rng.usize_range(8, 20);
    let n = rng.usize_range(8, 20);
    let mb = rng.usize_range(1, 3);
    let nb = rng.usize_range(1, 3);
    let dst_grid = *rng.pick(&[(1usize, 2usize), (2, 1), (1, 3), (3, 1), (1, 4)]);
    let victim = rng.usize_range(0, 3);
    let fail = |msg: String| {
        dump_fault_schedule(
            &format!("txn-rollback-seed-{seed}.txt"),
            &format!(
                "kind=txn-rollback\nseed={seed}\nm={m}\nn={n}\nmb={mb}\nnb={nb}\n\
                 dst_grid={dst_grid:?}\nvictim={victim}\nerror={msg}\n"
            ),
        );
        format!("seed {seed} (txn-rollback): {msg}")
    };

    let uni = Universe::new(4, 1, NetModel::ideal());
    // Crash at t=0: the victim dies at its first communicator checkpoint,
    // mid-plan, after some peers may already hold its payloads.
    uni.inject_node_crash(NodeId(victim as u32), 0.0);
    let violations: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let viol = Arc::clone(&violations);
    let h = uni.launch(4, None, "txn-rollback", move |comm| {
        let s = Descriptor::new(m, n, mb, nb, 2, 2);
        let d = Descriptor::new(m, n, mb, nb, dst_grid.0, dst_grid.1);
        let plan = plan_2d(s, d);
        let me = comm.rank();
        let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * 1_000_003 + j) as f64);
        let before: Vec<u64> = src.local_data().iter().map(|v| v.to_bits()).collect();
        let res = txn_redistribute_2d(&comm, &plan, Some(&src));
        if me == victim {
            unreachable!("the victim crashes inside the executor");
        }
        let report = |msg: String| viol.lock().expect("violation mutex").push(msg);
        if res.is_ok() {
            report(format!(
                "rank {me}: transaction committed despite the death"
            ));
        }
        let after: Vec<u64> = src.local_data().iter().map(|v| v.to_bits()).collect();
        if before != after {
            report(format!(
                "rank {me}: abort did not leave the old layout intact"
            ));
        }
        survivor_sync(&comm, &(0..4).filter(|&r| r != victim).collect::<Vec<_>>());
    });
    let failed = h
        .join()
        .into_iter()
        .filter(|(_, s)| matches!(s, reshape_mpisim::ProcStatus::Failed(_)))
        .count();
    uni.clear_faults();
    if failed != 1 {
        return Err(fail(format!(
            "{failed} processes died; expected only the victim"
        )));
    }
    let violations = violations.lock().expect("violation mutex");
    if let Some(v) = violations.first() {
        return Err(fail(v.clone()));
    }
    Ok(())
}

/// When `TESTKIT_FAULT_DIR` is set, persist the failing drill's fault
/// schedule there so CI can upload it as an artifact. Best-effort: a
/// write failure must never mask the drill's own error.
fn dump_fault_schedule(name: &str, contents: &str) {
    let Ok(dir) = std::env::var("TESTKIT_FAULT_DIR") else {
        return;
    };
    let dir = std::path::Path::new(&dir);
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let _ = std::fs::write(dir.join(name), contents);
}

/// Keep survivors registered until everyone has finished asserting, so
/// none of them looks dead to a peer still mid-check.
fn survivor_sync(comm: &Comm, survivors: &[usize]) {
    const TAG_SYNC: u32 = 7_700_000;
    let me = comm.rank();
    let root = survivors[0];
    let mut buf: Vec<u64> = Vec::new();
    if me == root {
        for &r in &survivors[1..] {
            comm.recv_into(r, TAG_SYNC, &mut buf);
        }
        for &r in &survivors[1..] {
            comm.send(r, TAG_SYNC, &[1u64]);
        }
    } else {
        comm.send(root, TAG_SYNC, &[me as u64]);
        comm.recv_into(root, TAG_SYNC, &mut buf);
    }
}
