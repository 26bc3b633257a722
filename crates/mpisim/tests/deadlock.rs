//! Deadlock detection: a mismatched communication pattern must fail fast
//! with a diagnostic naming the blocked receive, not hang the suite.
//!
//! Runs as its own test binary so the shortened timeout (set before any
//! receive runs) cannot leak into other tests.

use reshape_mpisim::{NetModel, ProcStatus, Universe};

#[test]
fn blocked_receive_panics_with_context() {
    // SAFETY: set before any thread reads it (OnceLock initializes on the
    // first blocking receive below).
    unsafe { std::env::set_var("RESHAPE_MPISIM_TIMEOUT_SECS", "2") };

    let uni = Universe::new(2, 1, NetModel::ideal());
    let h = uni.launch(2, None, "deadlock", |comm| {
        if comm.rank() == 0 {
            // Rank 1 never sends on tag 77: this receive can never match.
            let _: Vec<u64> = comm.recv(1, 77);
        }
        // Rank 1 exits immediately.
    });
    let statuses = h.join();
    let rank0 = &statuses[0];
    match &rank0.1 {
        ProcStatus::Failed(msg) => {
            assert!(
                msg.contains("did not complete") && msg.contains("from 1 tag 77"),
                "diagnostic should name the blocked receive: {msg}"
            );
        }
        other => panic!("expected a deadlock panic, got {other:?}"),
    }
}
