//! Crash-restart drills over the scheduler's write-ahead log.
//!
//! One drill per seed:
//!
//! 1. run the seeded scenario uninterrupted on a plain core — the
//!    **baseline** final state;
//! 2. rerun it on a WAL-attached core and "crash" the scheduler at a
//!    seeded transition index (the applications keep running — the
//!    [`crate::harness::Driver`]'s live bookkeeping and pending event
//!    queue survive the crash, like the paper's decoupled resize library);
//! 3. serialize the WAL to its on-disk text format and parse it back —
//!    the recovery input is exactly what a restarted scheduler would read;
//! 4. [`SchedulerCore::recover`] and assert the recovered core is in the
//!    crashed core's state, field for field ([`SchedulerCore::same_state`]);
//! 5. splice the recovered core into the still-running scenario, drive it
//!    to completion under the invariant + trace oracles, and assert the
//!    final state equals the baseline's.
//!
//! Snapshots ([`SchedulerCore::snapshot`]) are built only to word a
//! failure: the first line at which the two renderings differ.
//!
//! On failure with `TESTKIT_FAULT_DIR` set, the WAL stream is dumped to
//! `$TESTKIT_FAULT_DIR/crash-seed-<seed>.wal` for offline replay, with a
//! JSON rendering beside it (`crash-seed-<seed>.wal.json`) for reading.

use reshape_core::wal::Wal;
use reshape_core::SchedulerCore;

use crate::harness::{Driver, RunStats};
use crate::rng::SplitMix64;
use crate::scenario::generate;

/// What one crash-restart drill did.
#[derive(Clone, Copy, Debug)]
pub struct CrashReport {
    /// Transition index the scheduler was killed at.
    pub crash_at: usize,
    /// WAL records the recovery replayed.
    pub wal_records: usize,
    /// Statistics of the post-recovery run (equal to the baseline's).
    pub stats: RunStats,
}

/// Write a failing run's WAL twice: `<stem>.wal`, the wire text a replay
/// reads, and `<stem>.wal.json`, the same records as JSON lines for a
/// person to read (salvaged, so a damaged stream still shows its good
/// prefix).
pub(crate) fn write_wal_artifact(stem: &str, text: &str) -> std::io::Result<()> {
    std::fs::write(format!("{stem}.wal"), text)?;
    std::fs::write(
        format!("{stem}.wal.json"),
        Wal::decode_salvage(text).0.dump_json(),
    )
}

/// Run the crash-restart drill for `seed`. See the module docs for the
/// protocol. The error string carries the seed and, when `TESTKIT_FAULT_DIR`
/// is set, the path of the dumped WAL.
pub fn run_crash_restart(seed: u64) -> Result<CrashReport, String> {
    let sc = generate(seed);
    let fail = |msg: String| format!("seed {seed} (crash-restart): {msg}");

    // Baseline: the same scenario, never interrupted.
    let (baseline_stats, baseline) =
        Driver::new(&sc, SchedulerCore::new(sc.total_procs, sc.policy))
            .finish()
            .map_err(|e| fail(format!("baseline run failed: {e}")))?;

    // Crash index: anywhere in the run, from "immediately after the first
    // transition" to "one before the end" (seeded, so reproducible).
    let total = baseline_stats.transitions;
    let crash_at = if total <= 1 {
        1
    } else {
        SplitMix64::new(seed ^ 0xC4A5_4357).usize_range(1, total - 1)
    };

    // Run to the crash point with the WAL attached.
    let mut driver = Driver::new(
        &sc,
        SchedulerCore::new(sc.total_procs, sc.policy).with_wal(Wal::in_memory()),
    );
    while driver.transitions() < crash_at {
        match driver.step() {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => return Err(fail(format!("pre-crash run failed: {e}"))),
        }
    }

    // The "crash": all in-memory scheduler state is gone; only the WAL
    // text survives. Encode → decode round-trips the durable form.
    let wal = driver
        .core_mut()
        .take_wal()
        .expect("WAL was attached before the run");
    let text = wal.encode();
    let dump = |why: &str| -> String {
        let mut msg = fail(why.to_string());
        if let Ok(dir) = std::env::var("TESTKIT_FAULT_DIR") {
            let stem = format!("{dir}/crash-seed-{seed}");
            let _ = std::fs::create_dir_all(&dir);
            match write_wal_artifact(&stem, &text) {
                Ok(()) => msg.push_str(&format!(" [WAL dumped to {stem}.wal and .wal.json]")),
                Err(e) => msg.push_str(&format!(" [WAL dump failed: {e}]")),
            }
        }
        msg
    };
    let decoded = Wal::decode(&text).map_err(|e| dump(&format!("WAL reparse failed: {e:?}")))?;
    let wal_records = decoded.len();
    let recovered =
        SchedulerCore::recover(decoded).map_err(|e| dump(&format!("recovery failed: {e:?}")))?;

    // Exact state equality with the core that wrote the log.
    if !recovered.same_state(driver.core()) {
        return Err(dump(&format!(
            "recovered state differs from the crashed core's: {}",
            first_difference(&recovered, driver.core())
        )));
    }

    // Splice the recovered scheduler into the still-running scenario and
    // finish under the oracles.
    driver.swap_core(recovered);
    let (stats, final_core) = driver
        .finish()
        .map_err(|e| dump(&format!("post-recovery run failed: {e}")))?;

    // The interrupted-and-recovered run must land on the baseline's exact
    // final state: recovery is invisible to scheduling outcomes.
    if !final_core.same_state(&baseline) {
        return Err(dump(&format!(
            "final state after recovery diverged from the uninterrupted run: {}",
            first_difference(&final_core, &baseline)
        )));
    }

    Ok(CrashReport {
        crash_at,
        wal_records,
        stats,
    })
}

/// Word a state mismatch: the first line at which the two cores' snapshot
/// renderings differ.
fn first_difference(got: &SchedulerCore, want: &SchedulerCore) -> String {
    let got = format!("{:#?}", got.snapshot());
    let want = format!("{:#?}", want.snapshot());
    let mut lines = got.lines().zip(want.lines()).enumerate();
    match lines.find(|(_, (g, w))| g != w) {
        Some((n, (g, w))) => format!(
            "snapshot line {}: got `{}`, want `{}`",
            n + 1,
            g.trim(),
            w.trim()
        ),
        None => format!(
            "snapshots of {} and {} lines",
            got.lines().count(),
            want.lines().count()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshape_core::wal::WalRecord;
    use reshape_core::QueuePolicy;

    #[test]
    fn a_state_mismatch_names_its_first_differing_line() {
        let a = SchedulerCore::new(4, QueuePolicy::Fcfs);
        let mut b = SchedulerCore::new(4, QueuePolicy::Fcfs);
        b.bump_epoch(1.0);
        assert!(!a.same_state(&b));
        let msg = first_difference(&a, &b);
        assert!(
            msg.contains("last_tick: 0.0") && msg.contains("1.0"),
            "{msg}"
        );
    }

    #[test]
    fn wal_artifact_is_a_replayable_file_and_a_readable_one() {
        let mut wal = Wal::in_memory();
        wal.append(WalRecord::Tick { now: 1.0 });
        wal.append(WalRecord::Tick { now: f64::NAN });
        let mut text = wal.encode();
        text.push_str("00000000 damaged tail\nmore\n");

        let dir = std::env::temp_dir().join(format!("reshape-wal-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stem = format!("{}/seed-7", dir.display());
        write_wal_artifact(&stem, &text).unwrap();
        assert_eq!(
            std::fs::read_to_string(format!("{stem}.wal")).unwrap(),
            text
        );
        assert_eq!(
            std::fs::read_to_string(format!("{stem}.wal.json")).unwrap(),
            "{\"type\":\"tick\",\"now\":1.0}\n{\"type\":\"tick\",\"now\":null}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
