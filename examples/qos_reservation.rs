//! Quality-of-service scheduling and advance reservations — the paper's
//! §5 future work, implemented on top of the same Remap Scheduler
//! machinery.
//!
//! Scenario: a long LU job grows into a 36-processor cluster. Then
//! 1. a *high-priority* job arrives and jumps the queue — the LU shrinks
//!    for it at its next resize point;
//! 2. an *advance reservation* window opens and the scheduler squeezes the
//!    running jobs out of the reserved capacity, starting the reservation
//!    owner's job the moment it is submitted against the window.
//!
//! ```text
//! cargo run --example qos_reservation
//! ```

use reshape::clustersim::{AppModel, ClusterSim, MachineParams, SimJob};
use reshape::core::{EventKind, JobSpec, ProcessorConfig, TopologyPref};

fn lu(n: usize, initial: (usize, usize), iters: usize, arrival: f64) -> SimJob {
    SimJob {
        spec: JobSpec::new(
            format!("LU-{n}"),
            TopologyPref::Grid { problem_size: n },
            ProcessorConfig::new(initial.0, initial.1),
            iters,
        ),
        model: AppModel::Lu { n },
        arrival,
        cancel_at: None,
        fail_at: None,
        tenant: 0,
    }
}

fn main() {
    let machine = MachineParams::system_x();

    // --- Part 1: priority preemption via resizing -----------------------
    println!("== priority: a high-priority arrival shrinks the running job ==");
    // A 16-processor cluster: the background LU grows into all of it, so
    // the urgent arrival can only start if the LU gives processors back.
    let mut urgent = lu(8000, (2, 4), 3, 400.0);
    urgent.spec = urgent.spec.with_priority(9);
    urgent.spec.name = "URGENT".into();
    let result = ClusterSim::new(16, machine).run(&[lu(21000, (2, 3), 10, 0.0), urgent]);
    for j in &result.jobs {
        println!(
            "  {:<8} arrival {:>5.0}s  started {:>5.0}s  turnaround {:>7.1}s",
            j.name, j.submitted, j.started, j.turnaround
        );
    }
    let urgent_out = &result.jobs[1];
    let wait = urgent_out.started - urgent_out.submitted;
    println!("  URGENT waited {wait:.0}s for processors");
    let lu_shrank = result
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Shrunk { .. }) && e.time >= 400.0);
    assert!(
        lu_shrank,
        "the running LU should have shrunk for the arrival"
    );

    // --- Part 2: advance reservation ------------------------------------
    println!("\n== reservation: a 20-processor window at t=800 ==");
    let sim = ClusterSim::new(36, machine).with_reservation(800.0, 4000.0, 20);
    // The background job would happily take the whole cluster...
    let background = lu(21000, (2, 3), 10, 0.0);
    // ...but must squeeze down once the window opens.
    let result = sim.run(std::slice::from_ref(&background));
    println!("  background allocation history:");
    for &(t, p) in &result.jobs[0].alloc_history {
        println!("    t={t:>7.0}s  {p:>2} processors");
    }
    let after: Vec<usize> = result.jobs[0]
        .alloc_history
        .iter()
        .filter(|&&(t, p)| t > 800.0 && p > 0)
        .map(|&(_, p)| p)
        .collect();
    assert!(
        after.iter().all(|&p| p <= 16),
        "background job must leave 20 processors for the reservation"
    );
    println!("\nqos_reservation OK: priorities preempt via resizing; reservations are honored");
}
