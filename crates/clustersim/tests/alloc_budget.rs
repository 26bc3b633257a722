//! Allocation budget of the DES scale path.
//!
//! A counting `#[global_allocator]` around `run_scale` gives allocations and
//! allocated bytes per job — counts that a seed fixes and machine load does
//! not move, which wall-clock on a shared VM cannot offer. One `#[test]`, in
//! its own binary, so nothing else allocates while it counts. The ceilings
//! are the recorded values plus 2 %; a change that allocates more per job
//! fails here whatever the clock says, and one that allocates less should
//! lower them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use reshape_clustersim::{run_scale, ScaleConfig};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts every `alloc` and `realloc` call, and the bytes each one asked for
/// beyond what the block already had.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations and allocated bytes per job of one `run_scale`.
fn per_job(cfg: &ScaleConfig) -> (f64, f64) {
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let r = run_scale(cfg);
    let calls = CALLS.load(Relaxed) - calls;
    let bytes = BYTES.load(Relaxed) - bytes;
    assert_eq!(r.jobs_finished, cfg.jobs, "{r:?}");
    (
        calls as f64 / cfg.jobs as f64,
        bytes as f64 / cfg.jobs as f64,
    )
}

#[test]
fn run_scale_stays_inside_its_allocation_budget() {
    // `saturated_sweep_is_pinned`'s shape: a queue thousands deep.
    let saturated = ScaleConfig {
        resizable_percent: 30,
        max_iterations: 6,
        target_utilization: 1.25,
        ..ScaleConfig::new(512, 30_000)
    }
    .with_seed(31337);
    // The headline path at a twentieth of its size: an empty queue, folds.
    let paced = ScaleConfig::new(2_000, 50_000).with_seed(31337);

    // (shape, allocations per job, bytes per job), recorded + 2 %.
    for (name, cfg, max_allocs, max_bytes) in [
        ("saturated", saturated, 6.94, 1384.0),
        ("paced", paced, 6.73, 686.0),
    ] {
        let (allocs, bytes) = per_job(&cfg);
        println!("{name}: {allocs:.3} allocations and {bytes:.1} bytes per job");
        assert!(
            allocs <= max_allocs,
            "{name}: {allocs:.3} allocations per job, budget {max_allocs}"
        );
        assert!(
            bytes <= max_bytes,
            "{name}: {bytes:.1} bytes per job, budget {max_bytes}"
        );
    }
}
