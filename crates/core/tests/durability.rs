//! Integration-level WAL durability drills: a scripted mixed history
//! (submissions, resize points, reservations, cancellation, failure,
//! completion) must recover from the WAL's durable *text* form into a core
//! whose snapshot equals the writer's, including under NaN failure
//! timestamps and on a heterogeneous pool whose genesis carries slot
//! speeds. The seeded many-schedule version of this lives in
//! `reshape-testkit`'s crash-restart sweep; these are the hand-written
//! corner cases.

use reshape_core::wal::Wal;
use reshape_core::{JobSpec, ProcessorConfig, QueuePolicy, SchedulerCore, TopologyPref};

fn spec(name: &str, iters: usize) -> JobSpec {
    JobSpec::new(
        name,
        TopologyPref::Grid { problem_size: 8000 },
        ProcessorConfig::new(1, 2),
        iters,
    )
}

/// Round-trip the WAL through its on-disk text encoding and recover.
fn recover_from_text(core: &mut SchedulerCore) -> SchedulerCore {
    let wal = core.take_wal().expect("WAL attached");
    let text = wal.encode();
    let decoded = Wal::decode(&text).expect("durable WAL text reparses");
    SchedulerCore::recover(decoded).expect("recovery succeeds")
}

#[test]
fn scripted_mixed_history_recovers_exactly() {
    let mut core = SchedulerCore::new(12, QueuePolicy::Backfill).with_wal(Wal::in_memory());
    let (a, _) = core.submit(spec("a", 5), 0.0);
    let (b, _) = core.submit(spec("b", 3), 1.0);
    let (c, _) = core.submit(spec("c", 2), 2.0);
    core.resize_point(a, 10.0, 0.0, 3.0);
    core.resize_point(b, 8.0, 0.5, 4.0);
    let _rsv = core.reserve(50.0, 80.0, 4);
    core.resize_point(a, 9.0, 0.0, 5.0);
    core.cancel(c, 6.0);
    core.resize_point(c, 0.0, 0.0, 6.5); // delivers Terminate
    core.on_failed(b, "node died".into(), 7.0);
    core.on_finished(a, 9.0);

    let recovered = recover_from_text(&mut core);
    assert_eq!(recovered.snapshot(), core.snapshot());
    // The WAL stays attached after recovery, so the restarted scheduler
    // keeps journaling.
    assert!(recovered.wal().is_some());
}

#[test]
fn node_failed_record_replays_to_equal_snapshot() {
    let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs).with_wal(Wal::in_memory());
    let spec_a = JobSpec::new(
        "survivor",
        TopologyPref::Grid { problem_size: 8000 },
        ProcessorConfig::new(2, 2),
        6,
    )
    .survivable();
    let (a, s) = core.submit(spec_a, 0.0);
    core.resize_point(a, 10.0, 0.0, 1.0);
    // A node dies under the job; the driver recovered onto 2 survivors and
    // reports the forced shrink.
    let dead: Vec<usize> = s[0].slots[..2].to_vec();
    core.on_node_failed(a, &dead, ProcessorConfig::new(1, 2), 2.0);
    // Life goes on at the degraded size: another resize point, then done.
    core.resize_point(a, 11.0, 0.0, 3.0);
    core.on_finished(a, 9.0);

    let recovered = recover_from_text(&mut core);
    assert_eq!(recovered.snapshot(), core.snapshot());
}

#[test]
fn nan_failure_timestamps_are_sanitized_for_replay() {
    let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs).with_wal(Wal::in_memory());
    let (a, _) = core.submit(spec("a", 5), 0.0);
    core.resize_point(a, 10.0, 0.0, 1.0);
    // The threaded runtime's monitor stamps failures with NaN when no
    // virtual clock is available; serde_json cannot represent NaN, so the
    // logger must clamp it before the record hits the stream.
    core.on_failed(a, "monitor-detected crash".into(), f64::NAN);

    let wal_text = core.wal().expect("WAL attached").encode();
    assert!(
        !wal_text.to_lowercase().contains("nan"),
        "non-finite timestamp leaked into the WAL: {wal_text}"
    );
    let recovered = recover_from_text(&mut core);
    assert_eq!(recovered.snapshot(), core.snapshot());
}

#[test]
fn heterogeneous_pool_genesis_survives_recovery() {
    let speeds: Vec<f64> = (0..8).map(|i| 1.0 + 0.25 * (i % 3) as f64).collect();
    let mut core = SchedulerCore::new(8, QueuePolicy::Fcfs)
        .with_slot_speeds(speeds)
        .with_wal(Wal::in_memory());
    let (a, _) = core.submit(spec("het", 4), 0.0);
    core.resize_point(a, 12.0, 0.0, 1.0);

    let recovered = recover_from_text(&mut core);
    assert_eq!(recovered.snapshot(), core.snapshot());
    for s in 0..8 {
        assert_eq!(
            recovered.slot_speed(s),
            core.slot_speed(s),
            "slot {s} speed lost in the genesis record"
        );
    }
}

/// Sixty short job lives, one at a time on 16 slots: submit, start, four
/// resize points, finish. The journal holds a recorded number of records;
/// a transition that journals one record more or fewer moves it.
#[test]
fn short_job_lives_journal_a_pinned_record_count() {
    let mut core = SchedulerCore::new(16, QueuePolicy::Fcfs).with_wal(Wal::in_memory());
    let mut now = 0.0;
    for j in 0..60 {
        let spec = JobSpec::new(
            format!("wal-bench-{j}"),
            TopologyPref::Grid { problem_size: 8000 },
            ProcessorConfig::new(2, 2),
            6,
        );
        let (id, _) = core.submit(spec, now);
        core.try_schedule(now);
        now += 1.0;
        for it in 0..4 {
            core.resize_point(id, 10.0 - it as f64, 0.5, now);
            now += 1.0;
        }
        core.on_finished(id, now);
        now += 1.0;
    }
    assert_eq!(
        core.wal().expect("WAL attached").encode().lines().count(),
        421
    );
    let recovered = recover_from_text(&mut core);
    assert_eq!(recovered.snapshot(), core.snapshot());
}
