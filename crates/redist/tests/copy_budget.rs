//! Copy budget of the redistribution data plane.
//!
//! A counting `#[global_allocator]` around one `redistribute` gives the
//! bytes every rank thread allocates between two barriers, as a multiple of
//! the matrix's bytes. The new panel alone is 1.0; every extra buffer an
//! element passes through on its way adds the share of the matrix it
//! carries. The ratio is fixed by the plan, not by machine load, so it gates
//! copies where wall-clock on a shared VM cannot. One `#[test]`, in its own
//! binary, so nothing else allocates while it counts. The ceilings are the
//! recorded ratios plus 1 %.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_mpisim::{NetModel, Universe};
use reshape_redist::{plan_2d, redistribute, Commit};

static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts the bytes every `alloc` asks for. A `realloc` counts its whole new
/// size: a growing buffer is usually moved, and its contents copied, so a
/// `Vec` that doubles its way up costs what it touched, not only its final
/// capacity.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const N: usize = 1024;
const NB: usize = 64;

/// Bytes allocated by one `redistribute` of an `N x N` `f64` matrix from
/// grid `sg` to grid `dg` in mode `commit`, over the matrix's bytes.
fn ratio(sg: (usize, usize), dg: (usize, usize), commit: Commit) -> f64 {
    let (s, d) = (
        Descriptor::square(N, NB, sg.0, sg.1),
        Descriptor::square(N, NB, dg.0, dg.1),
    );
    let (p, q) = (sg.0 * sg.1, dg.0 * dg.1);
    let ranks = p.max(q);
    let plan = Arc::new(plan_2d(s, d));
    let counted = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&counted);
    Universe::new(ranks, 1, NetModel::ideal())
        .launch(ranks, None, "copy-budget", move |comm| {
            let me = comm.rank();
            let src = (me < p)
                .then(|| DistMatrix::from_fn(s, me / sg.1, me % sg.1, |i, j| (i * N + j) as f64));
            // Rank 0 reads the counter between two barriers, so no rank has
            // started moving data yet, and again once every rank has
            // entered the barrier after the move.
            comm.barrier();
            let before = BYTES.load(Relaxed);
            comm.barrier();
            let out = redistribute(&comm, &plan, src.as_ref(), commit).expect("all alive");
            comm.barrier();
            if me == 0 {
                sink.store(BYTES.load(Relaxed) - before, Relaxed);
            }
            assert_eq!(out.is_some(), me < q);
        })
        .join_ok();
    counted.load(Relaxed) as f64 / (N * N * std::mem::size_of::<f64>()) as f64
}

#[test]
fn redistribution_stays_inside_its_copy_budget() {
    // (direction, source grid, destination grid, mode, ceiling): the
    // recorded 1.0008 both ways, + 1 %. That is the new panel alone: remote
    // moves are lent and copied once, straight from the sender's panel, in
    // both modes. Packing each remote move into its message read 1.5008,
    // the copying executor 3.0006 and 3.5005, and the staged mode's packed
    // payloads and shadow buffers 3.0011 both ways.
    for (name, sg, dg, commit, ceiling) in [
        ("expand 1x2 -> 2x2", (1, 2), (2, 2), Commit::Direct, 1.011),
        ("shrink 2x2 -> 1x2", (2, 2), (1, 2), Commit::Direct, 1.011),
        (
            "staged expand 1x2 -> 2x2",
            (1, 2),
            (2, 2),
            Commit::Staged,
            1.011,
        ),
        (
            "staged shrink 2x2 -> 1x2",
            (2, 2),
            (1, 2),
            Commit::Staged,
            1.011,
        ),
    ] {
        let r = ratio(sg, dg, commit);
        println!("{name}: {r:.4} x the matrix's bytes allocated");
        assert!(
            r <= ceiling,
            "{name}: {r:.4} x the matrix, budget {ceiling}"
        );
    }
}
