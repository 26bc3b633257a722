//! Recorded digests of the scenario executor's runs.
//!
//! For every seed of the 256-seed sweep, [`Driver`] runs the generated
//! scenario on a fresh core; the run's [`reshape_testkit::RunStats`] and the
//! final [`reshape_core::CoreSnapshot`] are rendered with `Debug` and hashed
//! with FNV-1a. The digests are committed at
//! `tests/snapshots/harness_runs.txt`, so any executor change that moves a
//! transition count, an event, or one bit of a virtual time fails here.
//!
//! Maps the core keeps in hash order are rendered sorted before hashing, so
//! a hasher change does not move a digest.
//!
//! To re-record after an *intentional* behaviour change:
//!
//! ```text
//! RESHAPE_BLESS=1 cargo test -p reshape-testkit --test harness_pins
//! ```
//!
//! and commit the rewritten snapshot file (the bless run fails the test on
//! purpose so a stale green is impossible). With `TESTKIT_SEED` set, that
//! seed is also run twice and must digest the same both times.

use std::collections::BTreeMap;

use reshape_core::SchedulerCore;
use reshape_testkit::{generate, Driver};

const SNAPSHOT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/snapshots/harness_runs.txt"
);

/// Debug fields whose contents are in hash-map order.
const HASH_ORDERED: &[&str] = &["redist_costs: {"];

/// Rewrite every `field: {k: v, ...}` named in [`HASH_ORDERED`] with its
/// entries sorted, so the rendering does not depend on the hasher.
fn sort_hash_maps(text: &str) -> String {
    let mut out = text.to_string();
    for field in HASH_ORDERED {
        let mut from = 0;
        while let Some(at) = out[from..].find(field) {
            let open = from + at + field.len();
            let (mut depth, mut close, mut entries, mut start) = (0usize, open, Vec::new(), open);
            for (i, c) in out[open..].char_indices() {
                let i = open + i;
                match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' if depth > 0 => depth -= 1,
                    '}' if depth > 0 => depth -= 1,
                    '}' => {
                        close = i;
                        break;
                    }
                    ',' if depth == 0 => {
                        entries.push(out[start..i].trim().to_string());
                        start = i + 1;
                    }
                    _ => {}
                }
            }
            let last = out[start..close].trim();
            if !last.is_empty() {
                entries.push(last.to_string());
            }
            entries.sort();
            out.replace_range(open..close, &entries.join(", "));
            from = open;
        }
    }
    out
}

/// FNV-1a over one run's rendering.
fn fnv1a(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Run `seed` to completion and digest its statistics and final snapshot.
fn digest(seed: u64) -> String {
    let sc = generate(seed);
    let (stats, core) = Driver::new(&sc, SchedulerCore::new(sc.total_procs, sc.policy))
        .finish()
        .unwrap_or_else(|e| panic!("executor run failed: {e}"));
    fnv1a(&sort_hash_maps(&format!("{stats:?}{:?}", core.snapshot())))
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
fn executor_runs_match_recorded_digests() {
    assert_eq!(
        sort_hash_maps("x redist_costs: {(b, c): 2.0, (a, { d }): 1.0} y redist_costs: {} z"),
        "x redist_costs: {(a, { d }): 1.0, (b, c): 2.0} y redist_costs: {} z"
    );
    let runs: Vec<(String, String)> = (0..256u64)
        .map(|seed| (format!("seed-{seed}"), digest(seed)))
        .collect();
    if std::env::var("RESHAPE_BLESS").is_ok() {
        let mut out = String::from(
            "# FNV-1a digests of each seed's RunStats and final CoreSnapshot; re-record with\n\
             # RESHAPE_BLESS=1 cargo test -p reshape-testkit --test harness_pins\n",
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
        "{} runs diverged from recorded digests:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
    if let Ok(s) = std::env::var("TESTKIT_SEED") {
        let seed: u64 = s.trim().parse().expect("TESTKIT_SEED must be an integer");
        assert_eq!(digest(seed), digest(seed), "seed {seed}: two runs diverged");
    }
}
