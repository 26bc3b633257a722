//! `resize-cycle`: real resizes on rank threads through `ReshapeRuntime`.
//!
//! Each job starts 1x2 on a 4-node universe with one block-cyclic matrix
//! and an app that only advances the virtual clock: an iteration on 4
//! processors is modelled 20 % slower than on 2, so the paper's policy
//! expands 1x2 -> 2x2 after the first iteration, sees no gain, and reverts.
//! Every job is therefore exactly one spawn+merge, one expand
//! redistribution and one shrink redistribution.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_core::driver::AppDef;
use reshape_core::runtime::ReshapeRuntime;
use reshape_core::{
    EventKind, JobId, JobSpec, JobState, ProcessorConfig, QueuePolicy, TopologyPref,
};
use reshape_mpisim::{NetModel, Universe};
use reshape_redist::{plan_2d, redistribute_2d};
use reshape_telemetry::trace;

use crate::harness::{measure, time, Checks, Identities, Opts, Outcome, Rep};
use crate::metrics::Ledger;
use crate::rng::SplitMix64;
use crate::spans::{Tracer, ROOT};
use crate::stats;

pub const NAME: &str = "resize-cycle";

/// Timed jobs per rep; one more runs first, as warm-up, inside set-up.
const JOBS: usize = 8;
const ITERATIONS: usize = 6;
/// Rank threads of the universe: the smallest 2-D expansion (1x2 -> 2x2).
const NODES: usize = 4;
/// A job's virtual duration is not bit-deterministic: the runtime stamps
/// submissions from a process-wide counter, and the driver's GO/ABORT
/// handshake retransmits on a wall-clock timer, each retransmit costing
/// rank 0 a few virtual microseconds of a ~310 s job.
const VIRTUAL_TOLERANCE: f64 = 1e-6;

#[derive(Clone, Copy)]
struct Shape {
    /// Matrix order: one `n x n` `f64` matrix per job.
    n: usize,
    nb: usize,
}

impl Shape {
    fn of(tiny: bool) -> Shape {
        if tiny {
            Shape { n: 256, nb: 16 }
        } else {
            Shape { n: 4096, nb: 64 }
        }
    }
}

/// Per-job generated inputs: virtual seconds of one iteration on 2
/// processors (4 processors take 1.2x that) and the matrix's base value.
#[derive(Clone, Copy)]
struct JobInput {
    t2: f64,
    base: f64,
}

/// `JOBS + 1` inputs from the seed; index 0 is the warm-up job.
fn job_inputs(seed: u64) -> Vec<JobInput> {
    let mut rng = SplitMix64::new(seed);
    (0..=JOBS)
        .map(|_| JobInput {
            t2: 50.0 * rng.range_f64(0.99, 1.01),
            base: rng.next_f64(),
        })
        .collect()
}

/// Matrix element `(i, j)`: injective in `(i, j)`, so a misplaced element
/// cannot go unnoticed after a redistribution round trip.
fn element(n: usize, base: f64, i: usize, j: usize) -> f64 {
    base + (i * n + j) as f64
}

/// One wall stamp from rank 0's closures (traced pass only).
#[derive(Clone, Copy)]
struct Stamp {
    /// `None` for the init closure, `Some(iteration)` for iterate.
    iter: Option<usize>,
    procs: usize,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Clone)]
struct Probe {
    epoch: Instant,
    stamps: Arc<Mutex<Vec<Stamp>>>,
}

impl Probe {
    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, stamp: Stamp) {
        self.stamps.lock().expect("stamp sink").push(stamp);
    }
}

/// The benchmark's app. `corrupt` is raised by any rank whose panel differs
/// from the generator on the last iteration; `probe` is `Some` only in the
/// traced pass.
fn app(shape: Shape, input: JobInput, corrupt: Arc<AtomicBool>, probe: Option<Probe>) -> AppDef {
    let Shape { n, nb } = shape;
    let JobInput { t2, base } = input;
    let init_probe = probe.clone();
    AppDef::new(
        move |grid| {
            let start_ns = init_probe.as_ref().map(Probe::ns);
            let desc = Descriptor::square(n, nb, grid.nprow(), grid.npcol());
            let m = DistMatrix::from_fn(desc, grid.myrow(), grid.mycol(), |i, j| {
                element(n, base, i, j)
            });
            if let (Some(p), Some(start_ns), 0) = (&init_probe, start_ns, grid.comm().rank()) {
                p.push(Stamp {
                    iter: None,
                    procs: grid.nprow() * grid.npcol(),
                    start_ns,
                    end_ns: p.ns(),
                });
            }
            vec![m]
        },
        move |grid, mats, iter| {
            let start_ns = probe.as_ref().map(Probe::ns);
            let procs = grid.nprow() * grid.npcol();
            grid.comm().advance(if procs == 2 { t2 } else { 1.2 * t2 });
            if iter + 1 == ITERATIONS {
                let m = &mats[0];
                let cols = m.local_cols();
                let intact = m
                    .local_data()
                    .chunks(cols.max(1))
                    .enumerate()
                    .all(|(li, row)| {
                        let gi = m.desc.local_to_global_row(li, m.myrow);
                        row.iter().enumerate().all(|(lj, v)| {
                            let gj = m.desc.local_to_global_col(lj, m.mycol);
                            v.to_bits() == element(n, base, gi, gj).to_bits()
                        })
                    });
                if !intact {
                    corrupt.store(true, Ordering::Relaxed);
                }
            }
            if let (Some(p), Some(start_ns), 0) = (&probe, start_ns, grid.comm().rank()) {
                p.push(Stamp {
                    iter: Some(iter),
                    procs,
                    start_ns,
                    end_ns: p.ns(),
                });
            }
        },
    )
}

fn new_runtime() -> ReshapeRuntime {
    let universe = Universe::new(NODES, 1, NetModel::gigabit_ethernet());
    ReshapeRuntime::new(universe, QueuePolicy::Fcfs)
}

struct JobRun {
    id: JobId,
    /// Virtual seconds from start to `Finished`, or `None` if it did not
    /// finish or its panels came back wrong.
    virtual_s: Option<f64>,
    submit: Instant,
    done: Instant,
}

/// Submit one job and wait for it.
fn run_job(
    rt: &ReshapeRuntime,
    shape: Shape,
    index: usize,
    input: JobInput,
    probe: Option<Probe>,
) -> JobRun {
    let corrupt = Arc::new(AtomicBool::new(false));
    let spec = JobSpec::new(
        format!("resize-{index}"),
        TopologyPref::Grid {
            problem_size: shape.n,
        },
        ProcessorConfig::new(1, 2),
        ITERATIONS,
    );
    let app = app(shape, input, Arc::clone(&corrupt), probe);
    let submit = Instant::now();
    let id = rt.submit(spec, app);
    let state = rt.wait_for(id, Duration::from_secs(120));
    let done = Instant::now();
    let started_at = rt.core().lock().job(id).and_then(|r| r.started_at);
    let virtual_s = match (state, started_at) {
        (Ok(JobState::Finished { at }), Some(start)) if !corrupt.load(Ordering::Relaxed) => {
            Some(at - start)
        }
        _ => None,
    };
    JobRun {
        id,
        virtual_s,
        submit,
        done,
    }
}

/// Each job's scheduler events must hold exactly one `Expanded` and one
/// `Shrunk`. Drains the runtime's event trace.
fn check_resizes(rt: &ReshapeRuntime, jobs: &[JobRun], checks: &mut Checks) {
    let events = rt.drain_events();
    let bad: Vec<String> = jobs
        .iter()
        .filter_map(|j| {
            let count = |f: fn(&EventKind) -> bool| {
                events
                    .iter()
                    .filter(|e| e.job == j.id && f(&e.kind))
                    .count()
            };
            let expanded = count(|k| matches!(k, EventKind::Expanded { .. }));
            let shrunk = count(|k| matches!(k, EventKind::Shrunk { .. }));
            (expanded != 1 || shrunk != 1)
                .then(|| format!("{}: {expanded} expanded, {shrunk} shrunk", j.id))
        })
        .collect();
    checks.add(
        "each job expands once and shrinks once",
        bad.is_empty(),
        if bad.is_empty() {
            format!("{} jobs", jobs.len())
        } else {
            bad.join("; ")
        },
    );
}

fn run_jobs(
    rt: &ReshapeRuntime,
    shape: Shape,
    inputs: &[JobInput],
    probe: Option<&Probe>,
) -> Vec<JobRun> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, &input)| run_job(rt, shape, i, input, probe.cloned()))
        .collect()
}

pub fn run(opts: &Opts) -> Outcome {
    let shape = Shape::of(opts.tiny);
    Outcome::of(
        NAME,
        JOBS as u64,
        opts,
        |tr, checks| traced(shape, opts, tr, checks),
        |checks| {
            measure(
                opts,
                checks,
                || {
                    // Set-up: generate the inputs, stand the runtime up and
                    // run the warm-up job on it.
                    let inputs = job_inputs(opts.seed);
                    let rt = new_runtime();
                    black_box(run_job(&rt, shape, 0, inputs[0], None).virtual_s);
                    rt.drain_events();
                    (rt, inputs)
                },
                |(rt, inputs), checks| {
                    let (wall_s, jobs) = time(|| run_jobs(rt, shape, &inputs[1..], None));
                    check_resizes(rt, &jobs, checks);
                    let finished: Vec<f64> = jobs.iter().filter_map(|j| j.virtual_s).collect();
                    Rep {
                        wall_s,
                        submitted: JOBS as u64,
                        finished: finished.len() as u64,
                        virtual_s: finished.iter().sum(),
                        virtual_tolerance: VIRTUAL_TOLERANCE,
                        signature: Vec::new(),
                    }
                },
            )
        },
    )
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

fn traced(shape: Shape, opts: &Opts, tr: &mut Tracer, checks: &mut Checks) -> (Ledger, Identities) {
    let mut l = Ledger::new();
    let inputs = job_inputs(opts.seed);
    let rt = new_runtime();
    run_job(&rt, shape, 0, inputs[0], None);

    // Untraced reference, then the same jobs with stamping closures.
    let (wall_u, jobs_u) = time(|| run_jobs(&rt, shape, &inputs[1..], None));
    check_resizes(&rt, &jobs_u, checks);
    let probe = Probe {
        epoch: tr.epoch(),
        stamps: Arc::default(),
    };
    let (wall_t, jobs_t) = time(|| run_jobs(&rt, shape, &inputs[1..], Some(&probe)));
    check_resizes(&rt, &jobs_t, checks);
    checks.add(
        "every traced job finishes intact",
        jobs_t.iter().chain(&jobs_u).all(|j| j.virtual_s.is_some()),
        format!("{} jobs", jobs_t.len() + jobs_u.len()),
    );
    l.set("trace.overhead_ratio", wall_t / wall_u);

    // Rebuild each job's timeline from rank 0's stamps: launch (submit to
    // the first iterate call), then one gap after every iteration but the
    // last, classed by how the processor count changed across it.
    let names = GapNames {
        job: tr.name("resize.job"),
        launch: tr.name("runtime.launch"),
        init: tr.name("app.init"),
        iterate: tr.name("app.iterate"),
        idle: tr.name("runtime.gap.idle"),
        expand: tr.name("runtime.gap.expand"),
        shrink: tr.name("runtime.gap.shrink"),
    };
    let stamps = std::mem::take(&mut *probe.stamps.lock().expect("stamp sink"));
    let to_ns = |t: Instant| t.duration_since(probe.epoch).as_nanos() as u64;
    for j in &jobs_t {
        let (from, to) = (to_ns(j.submit), to_ns(j.done));
        let mine: Vec<Stamp> = stamps
            .iter()
            .copied()
            .filter(|s| s.start_ns >= from && s.end_ns <= to)
            .collect();
        record_job(tr, &names, from, to, &mine);
    }
    let mean_ms = |tr: &Tracer, name: u16| tr.total_ms(name) / (tr.calls(name) as f64).max(1.0);
    let (init, idle) = (mean_ms(tr, names.launch), mean_ms(tr, names.idle));
    let (expand, shrink) = (mean_ms(tr, names.expand), mean_ms(tr, names.shrink));
    l.set("runtime.init_ms", init);
    l.set("runtime.resize_point_idle_ms", idle);
    l.set("runtime.expand_gap_ms", expand);
    l.set("runtime.shrink_gap_ms", shrink);
    checks.add(
        "stamps show one expand and one shrink gap per job",
        tr.calls(names.expand) == JOBS as u64 && tr.calls(names.shrink) == JOBS as u64,
        format!(
            "{} expand, {} shrink, {} idle gaps",
            tr.calls(names.expand),
            tr.calls(names.shrink),
            tr.calls(names.idle)
        ),
    );

    drop(rt);

    // Repo tracing tax on one job, on a runtime of its own: rank threads
    // hand their spans over as they exit, so drain until none arrive.
    let rt = new_runtime();
    run_job(&rt, shape, 0, inputs[0], None);
    let (off, _) = time(|| run_job(&rt, shape, 0, inputs[0], None));
    trace::set_enabled(true);
    let (on, _) = time(|| run_job(&rt, shape, 0, inputs[0], None));
    drop(rt);
    let mut spans = 0;
    for _ in 0..50 {
        let arrived = trace::drain_spans().len();
        spans += arrived;
        if arrived == 0 && spans > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    trace::set_enabled(false);
    l.set("telemetry.trace_tax_ratio", on / off);
    l.set("telemetry.spans", spans as f64);

    probe_data_plane(shape, inputs[0].base, &mut l, checks);
    probe_spawn(&mut l);
    l.set(
        "runtime.handshake_derived_ms",
        expand
            - l.get("spawn.merge_wall_ms")
            - l.get("plan.plan2d_us") / 1e3
            - l.get("redist.expand_wall_ms"),
    );

    let identities = vec![(
        "job wall = runtime.init + 3 x idle gap + expand gap + shrink gap".to_string(),
        init + 3.0 * idle + expand + shrink,
        mean_ms(tr, names.job),
    )];
    (l, identities)
}

struct GapNames {
    job: u16,
    launch: u16,
    init: u16,
    iterate: u16,
    idle: u16,
    expand: u16,
    shrink: u16,
}

fn record_job(tr: &mut Tracer, n: &GapNames, from: u64, to: u64, stamps: &[Stamp]) {
    let job = tr.open_at(n.job, ROOT, from);
    let parent = job.id;
    let mut iters: Vec<&Stamp> = stamps.iter().filter(|s| s.iter.is_some()).collect();
    iters.sort_by_key(|s| s.iter);
    for s in stamps.iter().filter(|s| s.iter.is_none()) {
        tr.record(n.init, parent, s.start_ns, s.end_ns);
    }
    if let Some(first) = iters.first() {
        tr.record(n.launch, parent, from, first.start_ns);
    }
    for s in &iters {
        tr.record(n.iterate, parent, s.start_ns, s.end_ns);
    }
    for w in iters.windows(2) {
        let name = match w[1].procs.cmp(&w[0].procs) {
            std::cmp::Ordering::Greater => n.expand,
            std::cmp::Ordering::Less => n.shrink,
            std::cmp::Ordering::Equal => n.idle,
        };
        tr.record(name, parent, w[0].end_ns, w[1].start_ns);
    }
    tr.close_at(job, to);
}

/// Direct calls on a 4-rank universe with the workload's matrix: `plan_2d`,
/// `get_block`/`set_block` over rank (0,0)'s blocks, and `redistribute_2d`
/// 1x2 -> 2x2 and back, timed on rank 0.
fn probe_data_plane(shape: Shape, base: f64, l: &mut Ledger, checks: &mut Checks) {
    let Shape { n, nb } = shape;
    let narrow = Descriptor::square(n, nb, 1, 2);
    let wide = Descriptor::square(n, nb, 2, 2);

    const PLANS: usize = 20;
    let (plan_s, _) = time(|| {
        for _ in 0..PLANS {
            black_box(plan_2d(black_box(narrow), black_box(wide)));
        }
    });
    let expand = plan_2d(narrow, wide);
    l.set("plan.plan2d_us", plan_s * 1e6 / PLANS as f64);
    l.set(
        "plan.transfers",
        expand.steps.iter().map(Vec::len).sum::<usize>() as f64,
    );
    l.set("redist.bytes_moved", expand.network_bytes(8) as f64);

    // Pack and unpack: rank (0,0) of the 1x2 grid owns every block row and
    // the even block columns.
    let src = DistMatrix::from_fn(narrow, 0, 0, |i, j| element(n, base, i, j));
    let mut dst = DistMatrix::<f64>::new(narrow, 0, 0);
    let nblocks = n.div_ceil(nb);
    let mine: Vec<(usize, usize)> = (0..nblocks)
        .flat_map(|bi| (0..nblocks).step_by(2).map(move |bj| (bi, bj)))
        .collect();
    let (pack_s, packed) = time(|| {
        mine.iter()
            .map(|&(bi, bj)| src.get_block(bi, bj))
            .collect::<Vec<Vec<f64>>>()
    });
    let (unpack_s, _) = time(|| {
        for (&(bi, bj), blk) in mine.iter().zip(&packed) {
            dst.set_block(bi, bj, blk);
        }
        black_box(dst.local_data().len())
    });
    checks.add(
        "pack then unpack reproduces the panel",
        src.local_data() == dst.local_data(),
        format!("{} blocks", mine.len()),
    );
    let pack_ns = pack_s * 1e9 / mine.len() as f64;
    let unpack_ns = unpack_s * 1e9 / mine.len() as f64;
    l.set("pack.ns_per_block", pack_ns);
    l.set("unpack.ns_per_block", unpack_ns);
    l.set(
        "pack.bytes_per_rank",
        packed.iter().map(|b| b.len() * 8).sum::<usize>() as f64,
    );
    drop((src, dst, packed));

    // The round trip on real rank threads.
    #[derive(Default)]
    struct Timing {
        expand_wall_s: f64,
        expand_virtual_s: f64,
        shrink_wall_s: f64,
        shrink_virtual_s: f64,
    }
    let shrink = plan_2d(wide, narrow);
    let sink: Arc<Mutex<Timing>> = Arc::default();
    let out = Arc::clone(&sink);
    let intact = Arc::new(AtomicBool::new(true));
    let intact_flag = Arc::clone(&intact);
    let uni = Universe::new(NODES, 1, NetModel::gigabit_ethernet());
    let plans = Arc::new((expand, shrink));
    let block = nb * nb;
    let plans_for_ranks = Arc::clone(&plans);
    uni.launch(NODES, None, "bench-redist", move |comm| {
        let (expand, shrink) = &*plans_for_ranks;
        let me = comm.rank();
        let src =
            (me < 2).then(|| DistMatrix::from_fn(narrow, 0, me, |i, j| element(n, base, i, j)));
        // Rank 0's own call is what gets timed; the barriers only keep the
        // two directions apart.
        comm.barrier();
        let (t, v) = (Instant::now(), comm.vtime());
        let grown = redistribute_2d(&comm, expand, src.as_ref());
        let (expand_wall_s, expand_virtual_s) = (t.elapsed().as_secs_f64(), comm.vtime() - v);
        comm.barrier();
        let (t, v) = (Instant::now(), comm.vtime());
        let back = redistribute_2d(&comm, shrink, grown.as_ref());
        let (shrink_wall_s, shrink_virtual_s) = (t.elapsed().as_secs_f64(), comm.vtime() - v);
        comm.barrier();
        if let (Some(a), Some(b)) = (&src, &back) {
            if a.local_data() != b.local_data() {
                intact_flag.store(false, Ordering::Relaxed);
            }
        }
        if me == 0 {
            *out.lock().expect("timing sink") = Timing {
                expand_wall_s,
                expand_virtual_s,
                shrink_wall_s,
                shrink_virtual_s,
            };
        }
    })
    .join_ok();
    let t = sink.lock().expect("timing sink");
    checks.add(
        "redistribution round trip is bit-exact",
        intact.load(Ordering::Relaxed),
        "1x2 -> 2x2 -> 1x2 on 4 ranks".to_string(),
    );
    l.set("redist.expand_wall_ms", t.expand_wall_s * 1e3);
    l.set("redist.expand_virtual_s", t.expand_virtual_s);
    l.set("redist.shrink_wall_ms", t.shrink_wall_s * 1e3);
    l.set("redist.shrink_virtual_s", t.shrink_virtual_s);
    l.set(
        "redist.host_gib_per_s",
        l.get("redist.bytes_moved") / (1u64 << 30) as f64 / t.expand_wall_s,
    );
    // Rank 0 packs every transfer it sources and unpacks every one it sinks.
    let (expand, _) = &*plans;
    let blocks_of = |pick: fn(&reshape_redist::Transfer2d) -> (usize, usize)| {
        expand
            .steps
            .iter()
            .flatten()
            .filter(|t| pick(t) == (0, 0))
            .map(|t| expand.transfer_elems(t))
            .sum::<usize>() as f64
            / block as f64
    };
    let packed_ms = blocks_of(|t| t.src) * pack_ns / 1e6;
    let unpacked_ms = blocks_of(|t| t.dst) * unpack_ns / 1e6;
    l.set(
        "transfer.derived_ms",
        t.expand_wall_s * 1e3 - packed_ms - unpacked_ms,
    );
}

/// `spawn_merge(2, ..)` + barrier from 2 parents; median of five universes.
fn probe_spawn(l: &mut Ledger) {
    let mut walls = Vec::new();
    let mut virtuals = Vec::new();
    for _ in 0..5 {
        let uni = Universe::new(NODES, 1, NetModel::gigabit_ethernet());
        let sink: Arc<Mutex<(f64, f64)>> = Arc::default();
        let out = Arc::clone(&sink);
        uni.launch(2, None, "bench-spawn", move |comm| {
            comm.barrier();
            let (t, v) = (Instant::now(), comm.vtime());
            let bigger = comm.spawn_merge(2, None, "bench-spawned", |ctx| {
                ctx.parent.merge().barrier();
            });
            bigger.barrier();
            if comm.rank() == 0 {
                *out.lock().expect("spawn sink") = (t.elapsed().as_secs_f64(), comm.vtime() - v);
            }
        })
        .join_ok();
        uni.join_spawned();
        let (wall, virt) = *sink.lock().expect("spawn sink");
        walls.push(wall);
        virtuals.push(virt);
    }
    l.set("spawn.merge_wall_ms", stats::median(&walls) * 1e3);
    l.set("spawn.merge_virtual_s", stats::median(&virtuals));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_jobs() {
        let bits = |seed| -> Vec<(u64, u64)> {
            job_inputs(seed)
                .iter()
                .map(|j| (j.t2.to_bits(), j.base.to_bits()))
                .collect()
        };
        assert_eq!(bits(31337), bits(31337));
        assert_ne!(bits(31337), bits(424242));
        assert_eq!(bits(1).len(), JOBS + 1);
    }
}
