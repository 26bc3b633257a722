//! The tracing-invisibility drill: with causal tracing enabled, seeded
//! federation and partition chaos runs must be **bitwise identical** to
//! their tracing-off twins — same report (SLO series included), same
//! final WAL streams shard for shard, same flight-recorder timeline.
//! Span ids are inert metadata: they must never reach control flow, a
//! clock, or an RNG on the virtual path.

use reshape_federation::sim::{run_with_fed, FedSimConfig, SloSamples};
use reshape_telemetry::trace;
use reshape_testkit::{generate_federation, generate_partition};

/// Everything observable about a run: the full report, with the SLO series
/// its hook recorded, every shard's final WAL text, and the flight-recorder
/// dump.
fn fingerprint(cfg: FedSimConfig) -> String {
    let mut samples = SloSamples::default();
    let (mut report, fed) = run_with_fed(cfg, |fed, t| samples.record(fed, t));
    report.slo.samples = samples;
    let mut out = format!("{report:?}\n");
    for sh in fed.shards() {
        let wal = sh
            .core()
            .and_then(|c| c.wal())
            .map(|w| w.encode())
            .unwrap_or_default();
        out.push_str(&wal);
        out.push('\n');
    }
    out.push_str(&fed.flightrec().dump_jsonl());
    out
}

#[test]
fn tracing_is_invisible_to_federation_and_partition_sweeps() {
    let generators = [
        generate_federation as fn(u64) -> FedSimConfig,
        generate_partition as fn(u64) -> FedSimConfig,
    ];
    for seed in [0u64, 3, 7, 11, 42, 99, 173, 255] {
        for (gi, gen) in generators.iter().enumerate() {
            trace::reset();
            trace::set_enabled(false);
            let off = fingerprint(gen(seed));
            trace::set_enabled(true);
            let on = fingerprint(gen(seed));
            let spans = trace::drain_spans();
            trace::set_enabled(false);
            trace::reset();
            assert!(
                !spans.is_empty(),
                "seed {seed} gen {gi}: tracing-on run must record spans"
            );
            assert_eq!(off, on, "seed {seed} gen {gi}: tracing perturbed the run");
        }
    }
}
