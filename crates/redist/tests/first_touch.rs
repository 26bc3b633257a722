//! First-touch cost of the redistribution data plane.
//!
//! A redistribution's fresh memory is its new panels, and the kernel maps
//! each of their pages in on its first write: one minor page fault per page
//! (4 KiB where transparent huge pages are off or `madvise`). The process's
//! minor-fault count (field 10 of `/proc/self/stat`), read between two
//! barriers around one `redistribute`, counts those pages exactly, where
//! wall-clock on a shared VM cannot. One `#[test]`, in its own binary, so
//! nothing else faults while it counts.
//!
//! Every panel a row builds or returns stays alive until the whole test
//! ends: glibc raises its mmap threshold when a large block is freed, and a
//! later row's panels would then come from memory an earlier row touched.

use std::sync::{Arc, Mutex};

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_mpisim::{NetModel, Universe};
use reshape_redist::{plan_2d, redistribute, Commit};

const N: usize = 1024;
const NB: usize = 64;

/// Minor page faults of this process so far.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name, field 2, is parenthesized and may hold spaces; field
    // 10 is the eighth after it.
    let after = &stat[stat.rfind(')').expect("field 2 ends with ')'") + 1..];
    after
        .split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .expect("minflt field")
}

/// Minor faults of one `redistribute` of an `N x N` `f64` matrix from grid
/// `sg` to grid `dg`, each source rank lending its panel or, if
/// `hand_over`, handing it over. Its panels go to `keep`.
fn faults(
    sg: (usize, usize),
    dg: (usize, usize),
    hand_over: bool,
    keep: &Arc<Mutex<Vec<DistMatrix<f64>>>>,
) -> u64 {
    let (s, d) = (
        Descriptor::square(N, NB, sg.0, sg.1),
        Descriptor::square(N, NB, dg.0, dg.1),
    );
    let (p, q) = (sg.0 * sg.1, dg.0 * dg.1);
    let ranks = p.max(q);
    let plan = Arc::new(plan_2d(s, d));
    let counted = Arc::new(Mutex::new(0));
    let (sink, keep) = (Arc::clone(&counted), Arc::clone(keep));
    Universe::new(ranks, 1, NetModel::ideal())
        .launch(ranks, None, "first-touch", move |comm| {
            let me = comm.rank();
            let src = (me < p)
                .then(|| DistMatrix::from_fn(s, me / sg.1, me % sg.1, |i, j| (i * N + j) as f64));
            // Rank 0 reads the counter between two barriers, so no rank has
            // started moving data yet, and again once every rank has
            // entered the barrier after the move.
            comm.barrier();
            let before = minor_faults();
            comm.barrier();
            let (out, src) = match src {
                Some(mat) if hand_over => (redistribute(&comm, &plan, mat, Commit::Direct), None),
                src => (
                    redistribute(&comm, &plan, src.as_ref(), Commit::Direct),
                    src,
                ),
            };
            let out = out.expect("all alive");
            comm.barrier();
            if me == 0 {
                *sink.lock().expect("count lock") = minor_faults() - before;
            }
            assert_eq!(out.is_some(), me < q);
            keep.lock()
                .expect("keep lock")
                .extend(src.into_iter().chain(out));
        })
        .join_ok();
    let n = *counted.lock().expect("count lock");
    n
}

#[test]
fn redistribution_first_touches_within_its_budget() {
    // (direction, source grid, destination grid, handed over, ceiling): the
    // recorded counts + 2 %. The new panels are the whole matrix, 8 MiB or
    // 2048 pages of 4 KiB. Lent, every rank builds its panel fresh, so each
    // of those pages is faulted in during the move: 2056-2062 expanding and
    // 2051 shrinking. Handed over, the two ranks that stay rebuild theirs in
    // place: expanding, only the two new ranks fault their panels in, and
    // shrinking, only the half of each grown panel that is new, 1024-1026
    // both ways.
    let keep = Arc::new(Mutex::new(Vec::new()));
    for (name, sg, dg, hand_over, ceiling) in [
        ("expand 1x2 -> 2x2, lent", (1, 2), (2, 2), false, 2100),
        ("shrink 2x2 -> 1x2, lent", (2, 2), (1, 2), false, 2100),
        ("expand 1x2 -> 2x2, handed over", (1, 2), (2, 2), true, 1050),
        ("shrink 2x2 -> 1x2, handed over", (2, 2), (1, 2), true, 1050),
    ] {
        let n = faults(sg, dg, hand_over, &keep);
        println!("{name}: {n} minor faults");
        assert!(n <= ceiling, "{name}: {n} minor faults, budget {ceiling}");
    }
}
