//! Allocation budget of the DES scale path.
//!
//! A counting `#[global_allocator]` around `run_scale` gives allocations and
//! allocated bytes per job and the peak of live bytes during the run —
//! counts that a seed fixes and machine load does not move, which wall-clock
//! on a shared VM cannot offer. One `#[test]`, in its own binary, so nothing
//! else allocates while it counts. The ceilings are the recorded values plus
//! 2 %; a change that allocates or holds more fails here whatever the clock
//! says, and one that allocates or holds less should lower them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use reshape_clustersim::{run_scale, ScaleConfig};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Counts every `alloc` and `realloc` call and the bytes each one asked for
/// beyond what the block already had, and tracks live bytes and their peak.
struct Counting;

/// `bytes` more are live.
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        grow(new_size.saturating_sub(layout.size()));
        LIVE.fetch_sub(layout.size().saturating_sub(new_size) as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations and allocated bytes per job of one `run_scale`, and the peak
/// of live bytes above what was live before it.
fn per_job(cfg: &ScaleConfig) -> (f64, f64, u64) {
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let r = run_scale(cfg);
    let calls = CALLS.load(Relaxed) - calls;
    let bytes = BYTES.load(Relaxed) - bytes;
    let peak = PEAK.load(Relaxed) - base;
    assert_eq!(r.jobs_finished, cfg.jobs, "{r:?}");
    (
        calls as f64 / cfg.jobs as f64,
        bytes as f64 / cfg.jobs as f64,
        peak,
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

    // (shape, allocations per job, bytes per job, peak live bytes),
    // recorded + 2 %: saturated 6.797 / 723.3 / 5 456 932, paced 6.592 /
    // 307.2 / 967 016. The driver read 6.800 / 1 357.0 / 15 101 684 and
    // 6.596 / 672.8 / 5 955 772 while it folded once 4 096 jobs had ended,
    // and only on an arrival.
    for (name, cfg, max_allocs, max_bytes, max_peak) in [
        ("saturated", saturated, 6.94, 738.0, 5_567_000),
        ("paced", paced, 6.73, 314.0, 987_000),
    ] {
        let (allocs, bytes, peak) = per_job(&cfg);
        let peak_mib = peak as f64 / (1 << 20) as f64;
        println!(
            "{name}: {allocs:.3} allocations and {bytes:.1} bytes per job, \
             peak {peak} live bytes ({peak_mib:.3} MiB)"
        );
        assert!(
            allocs <= max_allocs,
            "{name}: {allocs:.3} allocations per job, budget {max_allocs}"
        );
        assert!(
            bytes <= max_bytes,
            "{name}: {bytes:.1} bytes per job, budget {max_bytes}"
        );
        assert!(
            peak <= max_peak,
            "{name}: peak {peak} live bytes, budget {max_peak}"
        );
    }
}
