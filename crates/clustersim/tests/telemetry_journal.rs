//! Telemetry-journal determinism for [`ClusterSim::run`].
//!
//! This test flips the process-global telemetry mode and drains the
//! process-global journal, so it lives alone in its own integration-test
//! binary: any sibling test running a simulation on another thread would
//! write into the journal it is comparing. (A telemetry handle owned by the
//! simulation, instead of a global, is the real fix.)

use reshape_clustersim::{random_workload_with_faults, ClusterSim, MachineParams};

/// The telemetry journal — resize decisions, redistribution records, job
/// turnarounds — must drain identically across two runs of the same
/// workload: same record kinds in the same order with the same payloads.
#[test]
fn telemetry_journal_is_identical_between_runs() {
    let machine = MachineParams::system_x();
    let before = reshape_telemetry::mode();
    reshape_telemetry::set_mode(reshape_telemetry::Mode::Text);
    let drain_for = |jobs: &[reshape_clustersim::SimJob]| -> Vec<String> {
        let _ = reshape_telemetry::drain_journal(); // discard stale records
        let sim = ClusterSim::new(36, machine);
        let _ = sim.run(jobs);
        reshape_telemetry::drain_journal()
            .into_iter()
            .map(|e| serde_json::to_string(&e).expect("serialize journal record"))
            .collect()
    };
    for seed in [3u64, 17, 99] {
        let w = random_workload_with_faults(seed, 5, 36);
        let first = drain_for(&w.jobs);
        let second = drain_for(&w.jobs);
        assert!(!first.is_empty(), "telemetry must record something");
        assert_eq!(first, second, "seed {seed}: journal records diverged");
    }
    reshape_telemetry::set_mode(before);
}
