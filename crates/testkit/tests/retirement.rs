//! Retirement equivalence: pruning terminal jobs changes no answer.
//!
//! Twin cores take the same stream of transitions; one of them calls
//! `prune_terminal()` at random record boundaries. Two things must hold:
//!
//! * every transition returns the same value on both twins;
//! * the twins' snapshots agree on every live job — queued, running, or
//!   cancelled with its `Terminate` still owed — and so does the snapshot of
//!   a core recovered from the pruning twin's WAL.
//!
//! The streams are the WAL of every crash-restart scenario (seeds 0..256) and
//! a `run_scale`-shaped stream: Poisson arrivals of static and resizable jobs
//! on a loaded cluster, with resize points, priced redistributions and
//! completions. Between records both twins are also probed with transitions
//! on job ids that are already terminal (or were never submitted), which
//! must get the answers a terminal record (or no record) gets.

use std::collections::BTreeMap;

use reshape_clustersim::EventQueue;
use reshape_core::{
    CoreSnapshot, Directive, JobId, JobSpec, JobState, ProcessorConfig, QueuePolicy, SchedulerCore,
    TopologyPref, Wal, WalRecord,
};
use reshape_testkit::{generate, Driver, SplitMix64};

/// Issue `rec` as the public call it journals; the rendering of what the
/// call returned.
fn call(core: &mut SchedulerCore, rec: &WalRecord) -> String {
    match rec.clone() {
        WalRecord::Submit { spec, now } => format!("{:?}", core.submit(spec, now)),
        WalRecord::TrySchedule { now } => format!("{:?}", core.try_schedule(now)),
        WalRecord::ResizePoint {
            job,
            iter_time,
            redist_time,
            now,
        } => format!("{:?}", core.resize_point(job, iter_time, redist_time, now)),
        WalRecord::PhaseChange { job, now } => format!("{:?}", core.phase_change(job, now)),
        WalRecord::NoteRedist {
            job,
            from,
            to,
            seconds,
        } => format!("{:?}", core.note_redist_cost(job, from, to, seconds)),
        WalRecord::Finished { job, now } => format!("{:?}", core.on_finished(job, now)),
        WalRecord::Failed { job, reason, now } => {
            format!("{:?}", core.on_failed(job, reason, now))
        }
        WalRecord::NodeFailed {
            job,
            dead_slots,
            to,
            now,
        } => format!("{:?}", core.on_node_failed(job, &dead_slots, to, now)),
        WalRecord::ExpandFailed { job, now } => format!("{:?}", core.on_expand_failed(job, now)),
        WalRecord::Cancel { job, now } => format!("{:?}", core.cancel(job, now)),
        WalRecord::Tick { now } => format!("{:?}", core.utilization(now)),
        other => unreachable!("no stream here holds {other:?}"),
    }
}

/// A transition on a job that is not live: an id whose record is terminal
/// on the never-pruned twin, or one that was never submitted.
fn probe(rng: &mut SplitMix64, whole: &SchedulerCore, submitted: u64) -> Option<WalRecord> {
    let now = whole.last_tick();
    let job = if submitted > 0 && rng.chance(3, 4) {
        let id = JobId(rng.range(1, submitted));
        match whole.job(id) {
            Some(rec) if rec.state.is_terminal() => id,
            _ => return None,
        }
    } else {
        // Never submitted: only calls that cannot create state for it.
        let id = JobId(submitted + rng.range(1, 3));
        return Some(if rng.chance(1, 2) {
            WalRecord::ResizePoint {
                job: id,
                iter_time: 1.0,
                redist_time: 0.0,
                now,
            }
        } else {
            WalRecord::Cancel { job: id, now }
        });
    };
    let c = ProcessorConfig::linear(2);
    Some(match rng.range(0, 7) {
        0 => WalRecord::ResizePoint {
            job,
            iter_time: 1.0,
            redist_time: 0.0,
            now,
        },
        1 => WalRecord::Finished { job, now },
        2 => WalRecord::Cancel { job, now },
        3 => WalRecord::Failed {
            job,
            reason: "probe".into(),
            now,
        },
        4 => WalRecord::ExpandFailed { job, now },
        5 => WalRecord::NoteRedist {
            job,
            from: c,
            to: ProcessorConfig::linear(4),
            seconds: 1.0,
        },
        6 => WalRecord::PhaseChange { job, now },
        _ => WalRecord::NodeFailed {
            job,
            dead_slots: vec![0],
            to: ProcessorConfig::linear(1),
            now,
        },
    })
}

/// The snapshot restricted to live jobs: records, profiles and bindings of
/// jobs that are queued, running, or owed a `Terminate`.
fn live_view(core: &SchedulerCore) -> CoreSnapshot {
    let mut s = core.snapshot();
    let pending = s.pending_cancel.clone();
    s.jobs
        .retain(|id, rec| rec.state.is_active() || pending.contains(id));
    let live = s.jobs.clone();
    s.profiles.retain(|id, _| live.contains_key(id));
    s.bindings.retain(|id, _| live.contains_key(id));
    s
}

/// The first line at which two snapshot renderings differ.
fn first_difference(got: &CoreSnapshot, want: &CoreSnapshot) -> String {
    let (got, want) = (format!("{got:#?}"), format!("{want:#?}"));
    got.lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .map(|(n, (g, w))| format!("line {}: `{}` vs `{}`", n + 1, g.trim(), w.trim()))
        .unwrap_or_else(|| "renderings differ in length".into())
}

/// How often the pruning twin prunes, the snapshots are compared, and a
/// recovery from the pruning twin's WAL is checked (one in `n` records).
struct Cadence {
    prune: u64,
    compare: u64,
    recover: u64,
}

/// Drive twin cores through `stream` (a WAL, genesis first); see the module
/// docs.
fn twins(label: &str, seed: u64, stream: &[WalRecord], every: Cadence) -> Result<(), String> {
    let fail = |msg: String| format!("{label}: {msg}");
    let genesis = || {
        let mut wal = Wal::in_memory();
        wal.append(stream[0].clone());
        SchedulerCore::recover(wal).expect("a genesis record alone recovers")
    };
    let (mut whole, mut pruned) = (genesis(), genesis());
    let mut rng = SplitMix64::new(seed ^ 0x2E71_2E5E);
    let mut submitted = 0u64;
    let compare = |whole: &SchedulerCore, pruned: &SchedulerCore, at: usize| {
        let want = live_view(whole);
        let got = live_view(pruned);
        if got != want {
            return Err(fail(format!(
                "after record {at}, the pruned twin's live jobs differ: {}",
                first_difference(&got, &want)
            )));
        }
        Ok(())
    };
    let recover = |whole: &SchedulerCore, pruned: &SchedulerCore, at: usize| {
        let text = pruned.wal().expect("twins journal").encode();
        let core = SchedulerCore::recover(Wal::decode(&text).expect("own WAL decodes"))
            .map_err(|e| fail(format!("recovery after record {at} failed: {e:?}")))?;
        let (got, want) = (live_view(&core), live_view(whole));
        if got != want {
            return Err(fail(format!(
                "after record {at}, the core recovered from the pruned twin's WAL \
                 differs on live jobs: {}",
                first_difference(&got, &want)
            )));
        }
        Ok(())
    };
    for (at, rec) in stream.iter().enumerate().skip(1) {
        same_answer(&mut whole, &mut pruned, rec, "record", at).map_err(fail)?;
        if matches!(rec, WalRecord::Submit { .. }) {
            submitted += 1;
        }
        if rng.chance(1, 4) {
            if let Some(p) = probe(&mut rng, &whole, submitted) {
                same_answer(&mut whole, &mut pruned, &p, "probe", at).map_err(fail)?;
            }
        }
        if rng.range(1, every.prune) == 1 {
            pruned.prune_terminal();
            if rng.range(1, every.compare) == 1 {
                compare(&whole, &pruned, at)?;
            }
        }
        if rng.range(1, every.recover) == 1 {
            recover(&whole, &pruned, at)?;
        }
    }
    let end = stream.len() - 1;
    compare(&whole, &pruned, end)?;
    recover(&whole, &pruned, end)?;
    Ok(())
}

/// Issue `rec` on both twins and demand the same answer.
fn same_answer(
    whole: &mut SchedulerCore,
    pruned: &mut SchedulerCore,
    rec: &WalRecord,
    what: &str,
    at: usize,
) -> Result<(), String> {
    let (want, got) = (call(whole, rec), call(pruned, rec));
    if got != want {
        return Err(format!(
            "{what} {rec:?} after record {at}: the pruned twin returned {got}, \
             the never-pruned twin {want}"
        ));
    }
    Ok(())
}

/// The WAL of crash-restart scenario `seed`, run uninterrupted.
fn scenario_stream(seed: u64) -> Vec<WalRecord> {
    let sc = generate(seed);
    let core = SchedulerCore::new(sc.total_procs, sc.policy).with_wal(Wal::in_memory());
    let (_, core) = Driver::new(&sc, core)
        .finish()
        .unwrap_or_else(|e| panic!("scenario run failed: {e}"));
    core.wal().expect("attached").records().to_vec()
}

enum Ev {
    Arrival(u64),
    /// A job finished an iteration, having paid `redist` seconds before it.
    IterationEnd(JobId, f64),
}

/// A `run_scale`-shaped stream: `jobs` Poisson arrivals at 0.9 load of 64
/// processors, one in three jobs resizable (2 processors, may grow to 8)
/// and the rest static on 1–4; every iteration end is a resize point, every
/// actuated resize prices its redistribution, and the last iteration
/// finishes the job.
fn scale_stream(seed: u64, jobs: u64) -> Vec<WalRecord> {
    const PROCS: usize = 64;
    let mut core = SchedulerCore::new(PROCS, QueuePolicy::Fcfs).with_wal(Wal::in_memory());
    let mut rng = SplitMix64::new(seed);
    let mean_gap = 2.5 * 2.0 * 60.0 / (0.9 * PROCS as f64);
    let mut queue = EventQueue::new();
    let mut arrival = 0.0;
    for i in 0..jobs {
        queue.push_keyed(arrival, 0, Ev::Arrival(i));
        arrival += -mean_gap * rng.f64_range(0.0, 1.0).max(1e-12).ln();
    }
    // job -> (sequential work per iteration, iterations left)
    let mut live: BTreeMap<JobId, (f64, usize)> = BTreeMap::new();
    let start = |queue: &mut EventQueue<Ev>, live: &BTreeMap<JobId, (f64, usize)>, now, starts| {
        for s in starts {
            let s: reshape_core::StartAction = s;
            let work = live[&s.job].0;
            queue.push_keyed(
                now + work / s.config.procs() as f64,
                1 + s.job.0,
                Ev::IterationEnd(s.job, 0.0),
            );
        }
    };
    while let Some((now, ev)) = queue.pop() {
        match ev {
            Ev::Arrival(i) => {
                let resizable = rng.chance(1, 3);
                let procs = if resizable { 2 } else { rng.usize_range(1, 4) };
                let iterations = rng.usize_range(1, 3);
                let spec = JobSpec::new(
                    format!("j{i}"),
                    TopologyPref::AnyCount {
                        min: if resizable { 2 } else { 1 },
                        max: 8,
                        step: if resizable { 2 } else { 1 },
                    },
                    ProcessorConfig::linear(procs),
                    iterations,
                );
                let spec = if resizable { spec } else { spec.static_job() };
                let work = rng.f64_range(20.0, 100.0) * procs as f64;
                let (id, starts) = core.submit(spec, now);
                live.insert(id, (work, iterations));
                start(&mut queue, &live, now, starts);
            }
            Ev::IterationEnd(id, redist) => {
                let (work, left) = live.get_mut(&id).expect("live job");
                *left -= 1;
                let work = *work;
                if *left == 0 {
                    live.remove(&id);
                    let starts = core.on_finished(id, now);
                    start(&mut queue, &live, now, starts);
                    continue;
                }
                let config = match core.job(id).map(|r| &r.state) {
                    Some(JobState::Running { config }) => *config,
                    other => unreachable!("live job {id:?} in state {other:?}"),
                };
                let (d, starts) = core.resize_point(id, work / config.procs() as f64, redist, now);
                let (procs, redist) = match d {
                    Directive::NoChange => (config.procs(), 0.0),
                    Directive::Expand { to, .. } | Directive::Shrink { to } => {
                        core.note_redist_cost(id, config, to, 1.0);
                        (to.procs(), 1.0)
                    }
                    Directive::Terminate => unreachable!("nothing cancels in this stream"),
                };
                queue.push_keyed(
                    now + redist + work / procs as f64,
                    1 + id.0,
                    Ev::IterationEnd(id, redist),
                );
                start(&mut queue, &live, now, starts);
            }
        }
    }
    assert!(live.is_empty(), "every job finishes");
    core.wal().expect("attached").records().to_vec()
}

#[test]
fn pruning_twin_gives_the_same_answers() {
    let mut failures = Vec::new();
    for seed in 0..256u64 {
        let stream = scenario_stream(seed);
        let every = Cadence {
            prune: 4,
            compare: 1,
            recover: 16,
        };
        if let Err(e) = twins(&format!("seed {seed}"), seed, &stream, every) {
            failures.push(e);
        }
    }
    let stream = scale_stream(31337, 3_000);
    let every = Cadence {
        prune: 64,
        compare: 4,
        recover: 4_096,
    };
    if let Err(e) = twins("scale stream", 31337, &stream, every) {
        failures.push(e);
    }
    assert!(
        failures.is_empty(),
        "{} streams diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
