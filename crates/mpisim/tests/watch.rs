//! A blocked receive sleeps until its answer exists: a message that
//! matches, or, for a watched receive (`Comm::recv_or_failed`), its
//! sender's exit. It does not wake to look in between.
//!
//! Rank 1 sleeps 300 ms of wall time before each of its three steps: a
//! send on tag 1, a send on tag 2, and its exit. Rank 0 meanwhile makes
//! three receives and counts the voluntary context switches of its own
//! thread (`/proc/thread-self/status`) across each one:
//!
//! * (a) a watched receive of tag 1;
//! * (b) a plain receive of tag 2;
//! * (c) a watched receive of tag 3, which rank 1 never sends; it must
//!   fail once rank 1 has exited.
//!
//! A receive that sleeps until its answer switches once or twice; one
//! that polls every millisecond switches about 300 times.

#![cfg(target_os = "linux")]

use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use reshape_mpisim::{NetModel, Universe};

/// Most voluntary context switches one blocked receive may take.
const MAX_SWITCHES: u64 = 5;

/// Voluntary context switches of the calling thread so far.
fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("thread status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("a voluntary_ctxt_switches line")
        .trim()
        .parse()
        .expect("a count")
}

/// Switches across each of rank 0's receives (a), (b) and (c), and
/// whether (c) failed.
struct Run {
    switches: [u64; 3],
    c_failed: bool,
}

/// The scenario runs once; every test reads its outcome.
fn run() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| {
        let out: &'static Mutex<Option<Run>> = Box::leak(Box::new(Mutex::new(None)));
        Universe::new(2, 1, NetModel::ideal())
            .launch(2, None, "watch", move |comm| {
                let step = || std::thread::sleep(Duration::from_millis(300));
                if comm.rank() == 1 {
                    step();
                    comm.send(0, 1, &[1u64]);
                    step();
                    comm.send(0, 2, &[2u64]);
                    step();
                    return;
                }
                let mut switches = [0; 3];
                let before = voluntary_switches();
                let a: Vec<u64> = comm.recv_or_failed(1, 1).expect("rank 1 sends tag 1");
                switches[0] = voluntary_switches() - before;
                assert_eq!(a, [1]);
                let before = voluntary_switches();
                let b: Vec<u64> = comm.recv(1, 2);
                switches[1] = voluntary_switches() - before;
                assert_eq!(b, [2]);
                let before = voluntary_switches();
                let c = comm.recv_or_failed::<u64>(1, 3);
                switches[2] = voluntary_switches() - before;
                *out.lock().unwrap() = Some(Run {
                    switches,
                    c_failed: c.is_err(),
                });
            })
            .join_ok();
        let run = out.lock().unwrap().take();
        run.expect("rank 0 recorded its receives")
    })
}

/// (a) Before watched receives woke on their sender's exit, they looked at
/// the sender every millisecond: 265 to 280 switches over four runs.
#[test]
fn a_watched_receive_sleeps_until_its_message() {
    let n = run().switches[0];
    assert!(n <= MAX_SWITCHES, "(a) took {n} voluntary context switches");
}

/// (b) A plain receive always slept until its message.
#[test]
fn a_plain_receive_sleeps_until_its_message() {
    let n = run().switches[1];
    assert!(n <= MAX_SWITCHES, "(b) took {n} voluntary context switches");
}

/// (c) Before watched receives woke on their sender's exit: 278 to 280
/// switches over four runs, and `Err` after 301 ms.
#[test]
fn a_watched_receive_sleeps_until_its_sender_exits() {
    let run = run();
    assert!(run.c_failed, "(c) must fail: its sender exited");
    let n = run.switches[2];
    assert!(n <= MAX_SWITCHES, "(c) took {n} voluntary context switches");
}
