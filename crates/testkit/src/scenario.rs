//! Seeded workload + fault-schedule generation.
//!
//! A [`Scenario`] is everything one harness run needs: cluster size, queue
//! policy, a job mix drawn from the paper's application classes (grid,
//! 1-D, master–worker; resizable and static), and a per-job fault schedule
//! (fail at a check-in, cancel at a check-in, or a spawn failure on the
//! job's next expansion). Identical seeds produce identical scenarios.

use reshape_core::{JobSpec, ProcessorConfig, QueuePolicy, TopologyPref};

use crate::rng::SplitMix64;

/// One injected fault for one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The job's processes die at its `n`-th check-in (1-based): the System
    /// Monitor reports a failure and the scheduler must reclaim.
    FailAtCheckin(usize),
    /// The user cancels the job at its `n`-th check-in.
    CancelAtCheckin(usize),
    /// The next expansion the Remap Scheduler grants is not actuated
    /// (spawn returned too few processes); the job reverts.
    ExpandFailure,
    /// The job goes silent at its `n`-th check-in (livelock/deadlock): it
    /// stops reaching resize points without its processes dying. The
    /// harness's watchdog model must declare it hung and reclaim.
    HangAtCheckin(usize),
    /// One node under the job dies at its `n`-th check-in. When
    /// `buddy_intact` the driver's shrink-to-survivors recovery succeeds:
    /// the harness reports a forced shrink (`on_node_failed`) and the job
    /// continues at the degraded size. Otherwise the dead rank's buddy died
    /// with it, redundancy is lost, and the job fails outright.
    NodeLoss { checkin: usize, buddy_intact: bool },
}

/// One job of the workload.
#[derive(Clone, Debug)]
pub struct JobPlan {
    pub spec: JobSpec,
    /// Submission time (non-decreasing across the workload).
    pub arrival: f64,
    /// Per-iteration sequential work; iteration time is `work / procs`, so
    /// expansions always look profitable to the §3.1 policy and the
    /// generated schedules exercise the expand path heavily.
    pub work: f64,
    pub fault: Option<Fault>,
}

/// A complete seeded harness input.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub seed: u64,
    pub total_procs: usize,
    pub policy: QueuePolicy,
    pub jobs: Vec<JobPlan>,
}

/// Expand `seed` into a scenario. Every draw comes from one SplitMix64
/// stream, so the mapping is a pure function of the seed.
pub fn generate(seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed);
    let total_procs = rng.usize_range(4, 64);
    let policy = if rng.chance(1, 2) {
        QueuePolicy::Fcfs
    } else {
        QueuePolicy::Backfill
    };
    let njobs = rng.usize_range(1, 12);
    let mut arrival = 0.0;
    let mut jobs = Vec::with_capacity(njobs);
    for i in 0..njobs {
        // Mix burst arrivals (contention from the start, FCFS/backfill
        // pressure) with staggered ones (later jobs land on a cluster the
        // early jobs have already expanded into — the only way the §3.1
        // shrink-for-queue rule can fire).
        arrival += if rng.chance(1, 2) {
            rng.f64_range(0.0, 2.0)
        } else {
            rng.f64_range(5.0, 40.0)
        };
        let iterations = rng.usize_range(1, 6);
        let spec = gen_spec(&mut rng, i, iterations);
        let fault = gen_fault(&mut rng, &spec, iterations);
        // A job scheduled to survive a node loss must have opted into the
        // recovery machinery, like a real submission would.
        let spec = if matches!(
            fault,
            Some(Fault::NodeLoss {
                buddy_intact: true,
                ..
            })
        ) {
            spec.survivable()
        } else {
            spec
        };
        jobs.push(JobPlan {
            spec,
            arrival,
            work: rng.f64_range(50.0, 200.0),
            fault,
        });
    }
    Scenario {
        seed,
        total_procs,
        policy,
        jobs,
    }
}

/// Draw a job spec from the paper's application classes. Initial
/// configurations are kept at ≤ 4 processors so every job fits even the
/// smallest generated cluster (4) — a job that can never start would make
/// the all-jobs-terminate invariant vacuously unfalsifiable.
fn gen_spec(rng: &mut SplitMix64, index: usize, iterations: usize) -> JobSpec {
    let spec = match rng.range(0, 2) {
        0 => {
            let ps = *rng.pick(&[8000usize, 12000, 16000, 24000]);
            let initial = if rng.chance(1, 2) {
                ProcessorConfig::new(1, 2)
            } else {
                ProcessorConfig::new(2, 2)
            };
            JobSpec::new(
                format!("grid{index}"),
                TopologyPref::Grid { problem_size: ps },
                initial,
                iterations,
            )
        }
        1 => {
            let even_only = rng.chance(1, 2);
            JobSpec::new(
                format!("lin{index}"),
                TopologyPref::Linear {
                    problem_size: 8000,
                    even_only,
                },
                ProcessorConfig::linear(*rng.pick(&[2usize, 4])),
                iterations,
            )
        }
        _ => JobSpec::new(
            format!("mw{index}"),
            TopologyPref::AnyCount {
                min: 2,
                max: 16,
                step: 2,
            },
            ProcessorConfig::linear(2),
            iterations,
        ),
    };
    // Priorities stay flat (the queue-model test in `reshape-core` mixes
    // them); ~1 in 5 jobs is statically scheduled as in the paper's mixed
    // workloads.
    if rng.chance(1, 5) {
        spec.static_job()
    } else {
        spec
    }
}

fn gen_fault(rng: &mut SplitMix64, spec: &JobSpec, iterations: usize) -> Option<Fault> {
    if !rng.chance(1, 4) {
        return None;
    }
    Some(match rng.range(0, 4) {
        0 => Fault::FailAtCheckin(rng.usize_range(1, iterations)),
        1 => Fault::CancelAtCheckin(rng.usize_range(1, iterations)),
        2 => Fault::HangAtCheckin(rng.usize_range(1, iterations)),
        3 => Fault::NodeLoss {
            checkin: rng.usize_range(1, iterations),
            buddy_intact: rng.chance(3, 4),
        },
        _ if spec.resizable => Fault::ExpandFailure,
        // Static jobs never expand; give them a failure instead so the
        // fault still fires.
        _ => Fault::FailAtCheckin(rng.usize_range(1, iterations)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(123);
        let b = generate(123);
        assert_eq!(a.total_procs, b.total_procs);
        assert_eq!(a.jobs.len(), b.jobs.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.spec.name, y.spec.name);
            assert_eq!(x.spec.initial, y.spec.initial);
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.work, y.work);
            assert_eq!(x.fault, y.fault);
        }
    }

    #[test]
    fn every_job_fits_the_cluster() {
        for seed in 0..100 {
            let sc = generate(seed);
            for j in &sc.jobs {
                assert!(
                    j.spec.initial.procs() <= sc.total_procs,
                    "seed {seed}: job {} needs {} of {}",
                    j.spec.name,
                    j.spec.initial.procs(),
                    sc.total_procs
                );
            }
        }
    }

    #[test]
    fn fault_mix_is_exercised() {
        let (mut fails, mut cancels, mut expands, mut hangs) = (0, 0, 0, 0);
        let (mut losses_survivable, mut losses_fatal) = (0, 0);
        for seed in 0..300 {
            for j in generate(seed).jobs {
                match j.fault {
                    Some(Fault::FailAtCheckin(_)) => fails += 1,
                    Some(Fault::CancelAtCheckin(_)) => cancels += 1,
                    Some(Fault::ExpandFailure) => expands += 1,
                    Some(Fault::HangAtCheckin(_)) => hangs += 1,
                    Some(Fault::NodeLoss {
                        buddy_intact: true, ..
                    }) => losses_survivable += 1,
                    Some(Fault::NodeLoss {
                        buddy_intact: false,
                        ..
                    }) => losses_fatal += 1,
                    None => {}
                }
            }
        }
        assert!(fails > 0 && cancels > 0 && expands > 0 && hangs > 0);
        assert!(
            losses_survivable > 0 && losses_fatal > 0,
            "node-loss mix unexercised: {losses_survivable}/{losses_fatal}"
        );
    }
}
