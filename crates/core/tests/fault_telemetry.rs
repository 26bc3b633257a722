//! Telemetry under fault injection: a spawn shortfall and a node crash must
//! leave a visible trail — `spawn_fault` / `recovery` journal events, the
//! fault counters, and a JSONL export in which every line still parses and
//! carries the `type` tag the CI validator keys on.
//!
//! Both fault scenarios live in one test function: the telemetry mode,
//! registry, and journal are process-global, and this integration binary is
//! the only place in `reshape-core` that turns recording on.

use std::time::Duration;

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_core::driver::AppDef;
use reshape_core::runtime::ReshapeRuntime;
use reshape_core::{JobSpec, JobState, ProcessorConfig, QueuePolicy, TopologyPref};
use reshape_mpisim::{NetModel, NodeId, Universe};
use reshape_telemetry::Event;

fn toy(n: usize, per_iter: f64) -> AppDef {
    AppDef::new(
        move |grid| {
            let desc = Descriptor::square(n, 2, grid.nprow(), grid.npcol());
            vec![DistMatrix::from_fn(
                desc,
                grid.myrow(),
                grid.mycol(),
                |i, j| (i + j) as f64,
            )]
        },
        move |grid, _m, _it| {
            let p = (grid.nprow() * grid.npcol()) as f64;
            grid.comm().advance(per_iter / p);
        },
    )
}

#[test]
fn injected_faults_leave_a_complete_telemetry_trail() {
    reshape_telemetry::set_mode(reshape_telemetry::Mode::Json);
    reshape_telemetry::drain_journal();

    // Scenario 1 — every expansion spawn is denied: the job must finish on
    // its original configuration, journaling the spawn fault and the
    // revert-expansion recovery along the way.
    {
        let uni = Universe::new(8, 1, NetModel::ideal());
        // Deny every attempt the driver will make, so the
        // expansion is ultimately reverted (not rescued by a retry).
        uni.inject_spawn_cap(0);
        uni.inject_spawn_cap(0);
        uni.inject_spawn_cap(0);
        let rt = ReshapeRuntime::new(uni, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "short-grant",
            TopologyPref::Grid { problem_size: 8 },
            ProcessorConfig::new(1, 2),
            5,
        );
        let job = rt.submit(spec, toy(8, 1.0));
        let state = rt.wait_for(job, Duration::from_secs(30)).unwrap();
        assert!(matches!(state, JobState::Finished { .. }), "{state:?}");
        // Scenario teardown: drop any unconsumed injected faults so they
        // cannot leak into runtime shutdown (or a later scenario).
        rt.universe().clear_faults();
    }

    // Scenario 2 — a node crash kills a static job mid-run: the monitor
    // reports the failure and the scheduler reclaims, journaling the
    // reclaim recovery.
    {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.inject_node_crash(NodeId(1), 0.5);
        let rt = ReshapeRuntime::new(uni, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "crashy",
            TopologyPref::Grid { problem_size: 8 },
            ProcessorConfig::new(2, 2),
            50,
        )
        .static_job();
        let job = rt.submit(spec, toy(8, 1.0));
        let state = rt.wait_for(job, Duration::from_secs(30)).unwrap();
        assert!(matches!(state, JobState::Failed { .. }), "{state:?}");
        // The transition that failed the job returned its slots.
        assert_eq!(
            rt.core().lock().idle_procs(),
            4,
            "crashed job never reclaimed"
        );
        rt.universe().clear_faults();
    }

    // The journal saw both fault kinds and both recovery actions.
    let events = reshape_telemetry::snapshot_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::SpawnFault { requested, granted, .. }
                if granted < requested)),
        "no spawn_fault event journaled"
    );
    let recovery_action = |want: &str| {
        events.iter().any(
            |e| matches!(e, Event::Recovery { action, freed, .. } if action == want && *freed > 0),
        )
    };
    assert!(
        recovery_action("revert_failed_expansion"),
        "no revert_failed_expansion recovery journaled"
    );
    assert!(
        recovery_action("reclaim_failed_job"),
        "no reclaim_failed_job recovery journaled"
    );

    // The fault counters moved.
    for name in [
        "mpisim.spawn_shortfalls",
        "core.expand_failures",
        "core.job_failures",
    ] {
        assert!(
            reshape_telemetry::counter(name).get() > 0,
            "counter {name} never incremented"
        );
    }

    // The JSONL export still honors the schema the CI validator checks:
    // every line is a JSON object with a `type` tag, the fault/recovery
    // records are present, and the final line is the metrics summary.
    let jsonl = reshape_telemetry::json_lines();
    let mut kinds = std::collections::BTreeSet::new();
    for line in jsonl.lines() {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("unparseable telemetry line ({e}): {line}"));
        let ty = v
            .get("type")
            .and_then(|t| t.as_str())
            .unwrap_or_else(|| panic!("telemetry line missing type tag: {line}"));
        kinds.insert(ty.to_string());
    }
    for required in ["spawn_fault", "recovery", "metrics"] {
        assert!(
            kinds.contains(required),
            "JSONL missing {required}: {kinds:?}"
        );
    }
    assert!(
        jsonl
            .lines()
            .last()
            .unwrap()
            .contains("\"type\":\"metrics\""),
        "metrics summary is not the final JSONL line"
    );

    reshape_telemetry::set_mode(reshape_telemetry::Mode::Off);
}
