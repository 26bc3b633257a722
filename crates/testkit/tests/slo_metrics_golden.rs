//! Golden file of `FedReport::publish_metrics`' OpenMetrics output.
//!
//! One seeded `generate_federation` run (seed 2: six tenants, router
//! queueing and sheds), its samples recorded through the run's hook,
//! publishes its per-tenant SLO series over 8 windows;
//! the rendered registry must match `tests/snapshots/fed_slo_metrics.prom`
//! byte for byte, so a change to how the series is stored or folded into
//! windows cannot move one gauge bit.
//!
//! This test sets the process-global telemetry mode, so it lives alone in
//! its own test binary: nothing else in this process runs a federation
//! while recording is on.
//!
//! To re-record after an *intentional* change:
//!
//! ```text
//! RESHAPE_BLESS=1 cargo test -p reshape-testkit --test slo_metrics_golden
//! ```
//!
//! and commit the rewritten file (the bless run fails on purpose).

use reshape_federation::sim::{run_with, SloSamples};
use reshape_telemetry::{render_openmetrics, set_mode, Mode, Registry};
use reshape_testkit::generate_federation;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/snapshots/fed_slo_metrics.prom"
);

#[test]
fn published_slo_metrics_match_golden_file() {
    set_mode(Mode::Off);
    let mut samples = SloSamples::default();
    let mut report = run_with(generate_federation(2), |fed, t| samples.record(fed, t));
    report.slo.samples = samples;
    assert!(
        report.shed > 0 && report.router_queued > 0,
        "seed 2 must queue and shed"
    );

    Registry::global().reset();
    set_mode(Mode::Metrics);
    report.publish_metrics(8);
    let got = render_openmetrics(&Registry::global().snapshot());
    set_mode(Mode::Off);
    Registry::global().reset();

    if std::env::var("RESHAPE_BLESS").is_ok() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden file");
        panic!("golden re-recorded at {GOLDEN_PATH}; inspect the diff and commit");
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH}: {e}"));
    assert_eq!(
        got, want,
        "publish_metrics output drifted from {GOLDEN_PATH}"
    );
}
