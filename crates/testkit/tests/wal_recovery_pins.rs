//! Recorded outcomes of recovering damaged WAL text.
//!
//! The inputs are the final shard WALs of the 256 `generate_partition`
//! seeds; between them they carry every record kind the federation writes,
//! lease grants and attaches, epoch bumps and heal repairs included. Each
//! WAL is recovered with `Wal::decode_salvage` + `SchedulerCore::recover`
//! in eighteen forms:
//!
//! * the clean text;
//! * 8 truncations, evenly spaced through the text (most leave a torn
//!   final line, which recovery drops);
//! * 8 single-byte flips at the same spacing (each damages one interior
//!   line, which recovery salvages up to, or a torn tail);
//! * one flip inside the genesis line, which nothing can recover from.
//!
//! Each outcome is the error text, or the recovered record count, the
//! salvage line, reason and quarantined length, and an FNV-1a digest of
//! the recovered core's `snapshot()` `Debug` plus its re-encoded WAL. One
//! seed's outcomes are hashed into one digest, committed at
//! `tests/snapshots/wal_recovery_runs.txt`, so a change to the line codec,
//! the salvage scan or replay that moves one error message, one salvage
//! line or one bit of recovered state fails here.
//!
//! To re-record after an *intentional* behaviour change:
//!
//! ```text
//! RESHAPE_BLESS=1 cargo test -p reshape-testkit --test wal_recovery_pins
//! ```
//!
//! and commit the rewritten snapshot file (the bless run fails the test on
//! purpose so a stale green is impossible).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use reshape_core::{SchedulerCore, Wal};
use reshape_federation::sim::run_with_fed;
use reshape_testkit::generate_partition;

const SNAPSHOT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/snapshots/wal_recovery_runs.txt"
);

/// Damaged forms per WAL besides the clean text: this many truncations and
/// this many byte flips.
const CUTS: usize = 8;

fn fnv1a(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Recover `text` the way a restarting shard does and render the outcome.
fn outcome(text: &str) -> String {
    let (wal, salvage) = Wal::decode_salvage(text);
    let salvage = match &salvage {
        Some(s) => format!("{} {:?} {}", s.line, s.reason, s.quarantined.len()),
        None => "none".to_string(),
    };
    match SchedulerCore::recover(wal) {
        Err(e) => format!("err {e}"),
        Ok(core) => {
            let wal = core.wal().expect("recovery keeps the WAL attached");
            let state = format!("{:?}\n{}", core.snapshot(), wal.encode());
            format!(
                "ok records={} salvage={salvage} state={}",
                wal.len(),
                fnv1a(&state)
            )
        }
    }
}

/// `bytes` with `pos`'s low bit flipped, as text (a flip that breaks UTF-8
/// becomes a replacement character, which the checksum rejects as well).
fn flipped(bytes: &[u8], pos: usize) -> String {
    let mut b = bytes.to_vec();
    b[pos] ^= 0x01;
    String::from_utf8_lossy(&b).into_owned()
}

/// Every outcome for one WAL, one line each.
fn outcomes(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = format!("clean {}\n", outcome(text));
    for k in 1..=CUTS {
        let cut = bytes.len() * k / (CUTS + 1);
        let torn = String::from_utf8_lossy(&bytes[..cut]);
        writeln!(out, "cut@{cut} {}", outcome(&torn)).unwrap();
    }
    for k in 1..=CUTS {
        let pos = bytes.len() * k / (CUTS + 1);
        writeln!(out, "flip@{pos} {}", outcome(&flipped(bytes, pos))).unwrap();
    }
    // Inside the genesis payload: past the checksum and the `open` tag.
    writeln!(out, "genesis {}", outcome(&flipped(bytes, 14))).unwrap();
    out
}

fn runs() -> Vec<(String, String)> {
    let mut kinds = BTreeMap::new();
    let mut runs = Vec::new();
    for seed in 0..256u64 {
        let (_, fed) = run_with_fed(generate_partition(seed), |_, _| {});
        let mut all = String::new();
        for sh in fed.shards() {
            let text = sh
                .core()
                .and_then(|c| c.wal())
                .map(|w| w.encode())
                .unwrap_or_else(|| sh.down_wal().unwrap_or_default().to_string());
            for line in text.lines() {
                let tag = line.split(' ').nth(1).unwrap_or("").to_string();
                *kinds.entry(tag).or_insert(0usize) += 1;
            }
            writeln!(all, "shard {} ({} bytes)", sh.id(), text.len()).unwrap();
            let shard = outcomes(&text);
            for line in shard.lines() {
                let kind = if line.contains(" err ") {
                    "err"
                } else if line.contains("salvage=none") {
                    "whole or torn"
                } else {
                    "salvaged"
                };
                *kinds.entry(kind.to_string()).or_insert(0) += 1;
            }
            all.push_str(&shard);
        }
        runs.push((format!("part-seed-{seed}"), fnv1a(&all)));
    }
    // The inputs must carry the federation's own records, not only the
    // scheduler's, and the damage must reach every recovery outcome.
    for tag in [
        "open", "sub", "lg", "lr", "ba", "be", "epoch", "heal", "err", "salvaged",
    ] {
        assert!(
            kinds.get(tag).is_some_and(|&n| n > 0),
            "no `{tag}` among the inputs and outcomes: {kinds:?}"
        );
    }
    runs
}

fn recorded() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(SNAPSHOT_PATH)
        .unwrap_or_else(|e| panic!("cannot read {SNAPSHOT_PATH}: {e}"));
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, hash) = l.rsplit_once(' ').expect("snapshot line: <label> <digest>");
            (label.to_string(), hash.to_string())
        })
        .collect()
}

#[test]
fn wal_recovery_outcomes_match_recorded_digests() {
    let runs = runs();
    if std::env::var("RESHAPE_BLESS").is_ok() {
        let mut out = String::from(
            "# FNV-1a digests of each generate_partition seed's WAL recovery outcomes\n\
             # (clean, truncated, byte-flipped, damaged genesis); re-record with\n\
             # RESHAPE_BLESS=1 cargo test -p reshape-testkit --test wal_recovery_pins\n",
        );
        for (label, d) in &runs {
            out.push_str(&format!("{label} {d}\n"));
        }
        std::fs::write(SNAPSHOT_PATH, out).expect("write snapshot file");
        panic!("snapshots re-recorded at {SNAPSHOT_PATH}; inspect the diff and commit");
    }
    let want = recorded();
    assert_eq!(want.len(), runs.len(), "snapshot count mismatch");
    let diverged: Vec<String> = runs
        .iter()
        .filter(|(label, got)| want.get(label) != Some(got))
        .map(|(label, got)| format!("{label}: recorded {:?}, got {got}", want.get(label)))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} seeds diverged from recorded digests:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}
