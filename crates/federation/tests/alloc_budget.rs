//! Allocation budget of a federation run.
//!
//! A counting `#[global_allocator]` around `run_with_fed` on the `fed-steady`
//! benchmark's tiny shape (the one `federation_pins.rs` pins: 16 shards of
//! 32 processors, 8 tenants, 2 000 jobs, 1 % wide jobs, bus latency 0) gives
//! allocations and allocated bytes per job and the peak of live bytes above
//! the input — counts that a seed fixes and machine load does not move. One
//! `#[test]`, in its own binary, so nothing else allocates while it counts,
//! and only in release: debug builds allocate in their `debug_assert!` checks.
//! The ceilings are the recorded values plus 2 %; a change that allocates
//! more fails here whatever the clock says, and one that allocates less
//! should lower them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use reshape_core::ctrl::SplitMix64;
use reshape_core::{JobSpec, ProcessorConfig, TopologyPref};
use reshape_federation::sim::{run_with_fed, FedJob, FedSimConfig};
use reshape_federation::TenantConfig;

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

const SHARDS: usize = 16;
const SHARD_PROCS: usize = 32;
const TENANTS: u64 = 8;
const JOBS: usize = 2_000;
const WIDE_PERMILLE: u64 = 10;

/// Uniform float in `[lo, hi)`, as the testkit's generators draw it.
fn f64_range(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    lo + unit * (hi - lo)
}

/// `federation_pins.rs`'s `steady_tiny(16, seed, Some(0.0))`, draw for draw:
/// 2 000 Poisson arrivals at 0.7 load of 1-4-processor jobs (10 %
/// resizable) and 1 % static 34-processor jobs that fit no shard and must
/// borrow.
fn steady_tiny(seed: u64) -> FedSimConfig {
    let wide = WIDE_PERMILLE as f64 / 1000.0;
    let wide_procs = SHARD_PROCS + 2;
    let cpu_s = (1.0 - wide) * 2.5 * 3.0 * 60.0 + wide * wide_procs as f64 * 4.5 * 60.0;
    let mean_gap = cpu_s / (0.7 * (SHARDS * SHARD_PROCS) as f64);

    let mut rng = SplitMix64::new(seed);
    let mut arrival = 0.0;
    let jobs = (0..JOBS)
        .map(|i| {
            let is_wide = rng.next_u64() % 1000 < WIDE_PERMILLE;
            let tenant = (rng.next_u64() % TENANTS) as u32;
            let resizable = rng.next_u64() % 100 < 10;
            let (procs, iterations) = if is_wide {
                (wide_procs, 4 + (rng.next_u64() % 2) as usize)
            } else {
                (
                    1 + (rng.next_u64() % 4) as usize,
                    1 + (rng.next_u64() % 5) as usize,
                )
            };
            let iter_time = f64_range(&mut rng, 20.0, 100.0);
            let spec = JobSpec::new(
                format!("j{i}"),
                TopologyPref::AnyCount {
                    min: 1,
                    max: 64,
                    step: 1,
                },
                ProcessorConfig::linear(procs),
                iterations,
            );
            let job = FedJob {
                tenant,
                spec: if resizable && !is_wide {
                    spec
                } else {
                    spec.static_job()
                },
                arrival,
                work: iter_time * procs as f64,
                fail_at: None,
                cancel_at: None,
            };
            arrival += -mean_gap * f64_range(&mut rng, 0.0, 1.0).max(1e-12).ln();
            job
        })
        .collect();
    let tenant = TenantConfig::new(SHARDS * SHARD_PROCS, 1.0, 1 << 20);
    let mut cfg = FedSimConfig::new(
        vec![SHARD_PROCS; SHARDS],
        vec![tenant; TENANTS as usize],
        jobs,
    );
    cfg.bus.latency = 0.0;
    cfg
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds allocate in their debug_assert! checks; run with --release"
)]
fn steady_run_stays_inside_its_allocation_budget() {
    let cfg = steady_tiny(31337);
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let (report, fed) = run_with_fed(cfg, |_, _| {});
    let calls = CALLS.load(Relaxed) - calls;
    let bytes = BYTES.load(Relaxed) - bytes;
    let peak = PEAK.load(Relaxed) - base;
    assert_eq!(report.finished, JOBS as u64, "{report:?}");
    // As `federation_pins.rs` documents for this stream at bus latency 0.
    assert_eq!(report.leases_granted, 24, "{report:?}");
    drop(fed);

    let allocs = calls as f64 / JOBS as f64;
    let bytes = bytes as f64 / JOBS as f64;
    let peak_mib = peak as f64 / (1 << 20) as f64;
    println!(
        "steady: {allocs:.3} allocations and {bytes:.1} bytes per job, \
         peak {peak} live bytes ({peak_mib:.3} MiB)"
    );
    // Recorded: 8.836 allocations, 1 594.3 bytes, 962 742 peak; the first
    // two ceilings are these + 2 %, the peak's is 958 902 + 2 %, read while
    // each shard's tidy dropped its event buffer (11.034 allocations and
    // 2 156.8 bytes then; a shard now keeps one buffer, cleared in place).
    // The driver read 12.046, 2 259.7 and 1 170 587 while it kept a
    // per-event SLO series in every run and cloned each job's name to
    // submit it.
    let (max_allocs, max_bytes, max_peak) = (9.02, 1627.0, 978_100);
    assert!(
        allocs <= max_allocs,
        "{allocs:.3} allocations per job, budget {max_allocs}"
    );
    assert!(
        bytes <= max_bytes,
        "{bytes:.1} bytes per job, budget {max_bytes}"
    );
    assert!(
        peak <= max_peak,
        "peak {peak} live bytes, budget {max_peak}"
    );
}
