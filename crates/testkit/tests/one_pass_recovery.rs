//! `SchedulerCore::recover_salvage` — the one-pass recovery a restarting
//! federation shard runs — against the two-step `Wal::decode_salvage` +
//! `SchedulerCore::recover`, on the final shard WALs of 64
//! `generate_partition` seeds: clean, cut at 8 evenly spaced points, with
//! 8 evenly spaced single-byte flips and with a damaged genesis line. Both
//! must give the same error, or the same salvage report, recovered state
//! and attached WAL text. `wal_recovery_pins.rs` holds the two-step
//! outcomes to recorded digests.

use reshape_core::{SchedulerCore, Wal, WalSalvage};
use reshape_federation::sim::run_with_fed;
use reshape_testkit::generate_partition;

type Outcome = Result<(String, String, Option<WalSalvage>), String>;

fn rendered(core: SchedulerCore, salvage: Option<WalSalvage>) -> Outcome {
    let wal = core
        .wal()
        .expect("recovery keeps the WAL attached")
        .encode();
    Ok((format!("{:?}", core.snapshot()), wal, salvage))
}

fn two_step(text: &str) -> Outcome {
    let (wal, salvage) = Wal::decode_salvage(text);
    let core = SchedulerCore::recover(wal).map_err(|e| e.to_string())?;
    rendered(core, salvage)
}

fn one_pass(text: &str) -> Outcome {
    let (core, salvage) = SchedulerCore::recover_salvage(text).map_err(|e| e.to_string())?;
    rendered(core, salvage)
}

/// The clean text and its damaged forms.
fn forms(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let flip = |pos: usize| {
        let mut b = bytes.to_vec();
        b[pos] ^= 0x01;
        String::from_utf8_lossy(&b).into_owned()
    };
    let mut out = vec![text.to_string(), flip(14)];
    for k in 1..=8 {
        let at = bytes.len() * k / 9;
        out.push(String::from_utf8_lossy(&bytes[..at]).into_owned());
        out.push(flip(at));
    }
    out
}

#[test]
fn one_pass_recovery_matches_decode_then_recover() {
    let (mut salvaged, mut refused) = (0, 0);
    for seed in 0..64u64 {
        let (_, fed) = run_with_fed(generate_partition(seed), |_, _| {});
        for sh in fed.shards() {
            let Some(wal) = sh.core().and_then(|c| c.wal()) else {
                continue;
            };
            for text in forms(&wal.encode()) {
                let want = two_step(&text);
                match &want {
                    Ok((_, _, Some(_))) => salvaged += 1,
                    Err(_) => refused += 1,
                    Ok(_) => {}
                }
                assert!(
                    one_pass(&text) == want,
                    "seed {seed} shard {}: one-pass recovery differs on {} bytes",
                    sh.id(),
                    text.len()
                );
            }
        }
    }
    assert!(
        salvaged > 0 && refused > 0,
        "{salvaged} salvaged, {refused} refused"
    );
}
