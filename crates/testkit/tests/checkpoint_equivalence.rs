//! Checkpoint equivalence: compacting a core's WAL changes no answer.
//!
//! For every input stream (a WAL, genesis first) and a few record
//! boundaries `k`:
//!
//! 1. the *writer* is the core recovered from the stream's first `k`
//!    records, WAL attached;
//! 2. [`compact`] runs on the writer, and a *restored* core is recovered
//!    from the writer's WAL text; the two must be `same_state` and hold the
//!    same WAL text;
//! 3. both take the stream's remaining records as the public calls they
//!    journal, and every call must return the same value on both — so no
//!    decision may depend on how a restored core's hash maps were rebuilt;
//! 4. at the end the two are `same_state` again, and so is a core recovered
//!    from the writer's final WAL (the checkpoint plus the whole suffix);
//! 5. compacting both once more writes the same checkpoint line, so its
//!    encoding does not depend on hash-map order.
//!
//! The streams are the WAL of every crash-restart scenario (seeds 0..256)
//! and the final shard WALs of the 256 `generate_partition` seeds, which carry
//! the federation's lease, epoch and heal records.

use reshape_core::{SchedulerCore, Wal, WalRecord};
use reshape_federation::sim::run_with_fed;
use reshape_testkit::{generate, generate_partition, Driver};

/// Compact `core`'s WAL in place.
fn compact(core: &mut SchedulerCore) {
    core.compact_wal();
}

/// Issue `rec` as the public call it journals; the rendering of what the
/// call returned.
fn call(core: &mut SchedulerCore, rec: &WalRecord) -> String {
    match rec.clone() {
        WalRecord::Submit { spec, now } => format!("{:?}", core.submit(spec, now)),
        WalRecord::SubmitReserved {
            spec,
            reservation,
            now,
        } => format!("{:?}", core.submit_reserved(spec, reservation, now)),
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
        WalRecord::Reserve { start, end, procs } => {
            format!("{:?}", core.reserve(start, end, procs))
        }
        WalRecord::CancelReservation { id } => format!("{:?}", core.cancel_reservation(id)),
        WalRecord::Tick { now } => format!("{:?}", core.utilization(now)),
        WalRecord::LendGrant { lease, slots, now } => {
            format!("{:?}", core.lend_grant(lease, slots.len(), now))
        }
        WalRecord::LendReclaim { lease, now } => format!("{:?}", core.lend_reclaim(lease, now)),
        WalRecord::BorrowAttach {
            lease,
            global_slots,
            lender_epoch,
            now,
        } => format!(
            "{:?}",
            core.borrow_attach(lease, &global_slots, lender_epoch, now)
        ),
        WalRecord::BorrowEvict { lease, now } => format!("{:?}", core.borrow_evict(lease, now)),
        WalRecord::PauseExpansion { on, now } => format!("{:?}", core.set_expand_paused(on, now)),
        WalRecord::EpochBump { now, .. } => format!("{:?}", core.bump_epoch(now)),
        WalRecord::HealRepair { lease, action, now } => {
            format!("{:?}", core.journal_heal_repair(lease, action, now))
        }
        other => unreachable!("not a transition: {other:?}"),
    }
}

/// The core recovered from `text`.
fn recover(text: &str) -> Result<SchedulerCore, String> {
    let wal = Wal::decode(text).map_err(|e| format!("decode: {e}"))?;
    SchedulerCore::recover(wal).map_err(|e| format!("recover: {e}"))
}

fn wal_text(core: &SchedulerCore) -> String {
    core.wal().expect("the cores journal").encode()
}

/// One pass of the module doc's protocol, compacting after record `k`.
fn pass(stream: &[WalRecord], k: usize) -> Result<(), String> {
    let mut prefix = Wal::in_memory();
    for rec in &stream[..k] {
        prefix.append(rec.clone());
    }
    let mut writer = recover(&prefix.encode())?;
    compact(&mut writer);
    let mut restored = recover(&wal_text(&writer))?;
    if !restored.same_state(&writer) {
        return Err(format!("after record {k}: the restored core differs"));
    }
    if wal_text(&restored) != wal_text(&writer) {
        return Err(format!("after record {k}: the restored WAL text differs"));
    }
    for (at, rec) in stream.iter().enumerate().skip(k) {
        let (want, got) = (call(&mut writer, rec), call(&mut restored, rec));
        if got != want {
            return Err(format!(
                "compacted after record {k}: {rec:?} at record {at} returned {got} on the \
                 restored core, {want} on the writer"
            ));
        }
    }
    if !restored.same_state(&writer) || wal_text(&restored) != wal_text(&writer) {
        return Err(format!(
            "compacted after record {k}: the cores differ at the end"
        ));
    }
    if !recover(&wal_text(&writer))?.same_state(&writer) {
        return Err(format!(
            "compacted after record {k}: recovering the final WAL differs from the writer"
        ));
    }
    // The restored core rebuilt its hash maps in its own order; a canonical
    // checkpoint line does not show it.
    compact(&mut writer);
    compact(&mut restored);
    if wal_text(&restored) != wal_text(&writer) {
        return Err(format!(
            "compacted after record {k}: the final checkpoints differ"
        ));
    }
    Ok(())
}

/// Every pass over one stream: right after genesis, at three interior
/// boundaries, and after the last record.
fn passes(label: &str, stream: &[WalRecord]) -> Result<(), String> {
    let n = stream.len();
    let mut cuts = vec![1, n / 4, n / 2, 3 * n / 4, n];
    cuts.retain(|&k| k >= 1);
    cuts.dedup();
    for k in cuts {
        pass(stream, k).map_err(|e| format!("{label}: {e}"))?;
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
    core.wal().expect("attached").records()
}

#[test]
fn crash_restart_streams_compact_to_an_equivalent_core() {
    let failures: Vec<String> = (0..256u64)
        .filter_map(|seed| passes(&format!("seed {seed}"), &scenario_stream(seed)).err())
        .collect();
    assert!(
        failures.is_empty(),
        "{} streams diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn partition_shard_streams_compact_to_an_equivalent_core() {
    let mut failures = Vec::new();
    let mut leases = 0usize;
    for seed in 0..256u64 {
        let (_, fed) = run_with_fed(generate_partition(seed), |_, _| {});
        for sh in fed.shards() {
            let text = match sh.core().and_then(|c| c.wal()) {
                Some(w) => w.encode(),
                None => sh.down_wal().unwrap_or_default().to_string(),
            };
            let stream = Wal::decode(&text)
                .expect("a final shard WAL decodes")
                .records();
            leases += stream
                .iter()
                .filter(|r| matches!(r, WalRecord::LendGrant { .. }))
                .count();
            if let Err(e) = passes(&format!("seed {seed} shard {}", sh.id()), &stream) {
                failures.push(e);
            }
        }
    }
    assert!(leases > 0, "no stream carries a lease grant");
    assert!(
        failures.is_empty(),
        "{} streams diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
