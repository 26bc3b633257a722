//! Scoped loans (`Comm::lending`): charged exactly like a send, never
//! returned to a lender whose slice a borrower could still read, and failed
//! by a dead borrower or lender as a fault-aware send and receive are.
//!
//! Every in-process test holds `SERIAL`: the charging test turns on the
//! global telemetry counters and reads their deltas, which a neighbour's
//! traffic would blur.

use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use reshape_mpisim::{NetModel, NodeId, ProcStatus, Universe};
use reshape_telemetry::Mode;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The bytes of `0..n` as `u64`s, as a receiver sees them.
fn bytes_of_range(n: u64) -> Vec<u8> {
    (0..n).flat_map(u64::to_ne_bytes).collect()
}

/// Sender clock bits, messages and bytes on its communicator, receiver
/// clock bits, and the `mpisim.{msgs,bytes}_sent` deltas, of one message of
/// `ELEMS` of a 1000-element panel: lent, or sent as a copy.
fn charges(lent: bool) -> [u64; 6] {
    const ELEMS: usize = 600;
    let sink: Arc<Mutex<[u64; 4]>> = Arc::default();
    let panel_at = Arc::new(AtomicU64::new(0));
    let (out, at) = (Arc::clone(&sink), Arc::clone(&panel_at));
    let msgs = reshape_telemetry::counter("mpisim.msgs_sent");
    let bytes = reshape_telemetry::counter("mpisim.bytes_sent");
    let before = (msgs.get(), bytes.get());
    Universe::new(2, 1, NetModel::gigabit_ethernet())
        .launch(2, None, "lend-charges", move |comm| {
            if comm.rank() == 0 {
                comm.advance(0.5);
                let panel: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
                at.store(panel.as_ptr() as u64, SeqCst);
                if lent {
                    comm.lending(|loans| loans.lend(1, 4, &panel, ELEMS))
                        .expect("the borrower is alive");
                } else {
                    comm.send(1, 4, &panel[..ELEMS]);
                }
                let mut o = out.lock().unwrap();
                o[0] = comm.vtime().to_bits();
                o[1] = comm.stats().msgs_sent();
                o[2] = comm.stats().bytes_sent();
            } else {
                let (ptr, len) = comm.recv_with(0, 4, |b| (b.as_ptr() as u64, b.len()));
                let whole = ptr == at.load(SeqCst) && len == 8000;
                assert_eq!(whole, lent, "a loan arrives as the lender's whole panel");
                out.lock().unwrap()[3] = comm.vtime().to_bits();
            }
        })
        .join_ok();
    let [a, b, c, d] = *sink.lock().unwrap();
    [a, b, c, d, msgs.get() - before.0, bytes.get() - before.1]
}

#[test]
fn a_loan_is_charged_exactly_like_a_send_of_its_elements() {
    let _serial = serial();
    reshape_telemetry::set_mode(Mode::Metrics);
    let (copied, lent) = (charges(false), charges(true));
    reshape_telemetry::set_mode(Mode::Off);
    assert_eq!(lent, copied, "same clocks, CommStats and mpisim counters");
    assert_eq!(lent[1..3], [1, 4800]);
    assert_eq!(lent[4..], [1, 4800]);
}

#[test]
fn a_lender_that_panics_waits_for_its_borrower_to_copy() {
    let _serial = serial();
    let lent = Arc::new(AtomicBool::new(false));
    let copied = Arc::new(AtomicBool::new(false));
    Universe::new(2, 1, NetModel::ideal())
        .launch(2, None, "lend-unwind", move |comm| {
            if comm.rank() == 0 {
                let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // Freed by the unwind, so only the scope's wait keeps it
                    // alive for the borrower.
                    let panel: Vec<u64> = (0..4096).collect();
                    comm.lending(|loans| {
                        loans
                            .lend(1, 3, &panel, panel.len())
                            .expect("the borrower is alive");
                        lent.store(true, SeqCst);
                        panic!("lender fails inside the scope");
                    })
                }));
                assert!(unwound.is_err(), "the panic goes on after the wait");
                assert!(
                    copied.load(SeqCst),
                    "scope unwound before the borrower copied"
                );
            } else {
                // Receive only once the lender is panicking, and hold the
                // payload a while: a scope that did not wait would have
                // unwound, and freed the panel, before `copied` is set.
                while !lent.load(SeqCst) {
                    std::thread::yield_now();
                }
                let got = comm.recv_with(0, 3, |b| {
                    std::thread::sleep(Duration::from_millis(50));
                    let got = b.to_vec();
                    copied.store(true, SeqCst);
                    got
                });
                assert_eq!(got, bytes_of_range(4096), "the borrower reads intact data");
            }
        })
        .join_ok();
}

#[test]
fn a_borrower_that_exits_without_receiving_returns_its_loans() {
    let _serial = serial();
    let lent = Arc::new(AtomicBool::new(false));
    Universe::new(2, 1, NetModel::ideal())
        .launch(2, None, "lend-dead", move |comm| {
            if comm.rank() == 0 {
                let panel: Vec<u64> = (0..64).collect();
                comm.lending(|loans| {
                    loans.lend(1, 1, &panel, 64).expect("the borrower is alive");
                    comm.send(1, 2, &[0u8]);
                    loans.lend(1, 3, &panel, 64).expect("the borrower is alive");
                    lent.store(true, SeqCst);
                });
            } else {
                // Tag 1's loan is set aside in the unexpected queue while
                // this receive looks for tag 2; tag 3's is still in the
                // channel when the rank exits. Teardown drops both.
                let _: Vec<u8> = comm.recv(0, 2);
                while !lent.load(SeqCst) {
                    std::thread::yield_now();
                }
            }
        })
        .join_ok();
}

#[test]
fn a_lend_to_a_crashed_node_fails_and_its_loan_is_back_at_once() {
    let _serial = serial();
    let returned = Arc::new(AtomicBool::new(false));
    let uni = Universe::new(2, 1, NetModel::ideal());
    uni.inject_node_crash(NodeId(1), 0.0);
    uni.launch(2, None, "lend-crashed", move |comm| {
        if comm.rank() == 0 {
            let panel: Vec<u64> = (0..64).collect();
            let lent = comm.lending(|loans| loans.lend(1, 1, &panel, 64));
            assert_eq!(lent, Err(()), "the borrower's node is down");
            assert_eq!(comm.stats().msgs_sent(), 1, "a failed lend is charged");
            returned.store(true, SeqCst);
        } else {
            // The borrower lives on without touching its communicator, so a
            // loan left out would hold the lender's scope until it exits.
            let deadline = Instant::now() + Duration::from_secs(30);
            while !returned.load(SeqCst) {
                assert!(
                    Instant::now() < deadline,
                    "the scope waits on a failed loan"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    })
    .join_ok();
}

#[test]
fn a_lender_that_crashes_between_two_lends_waits_for_the_first() {
    let _serial = serial();
    let copied = Arc::new(AtomicBool::new(false));
    let uni = Universe::new(3, 1, NetModel::ideal());
    uni.inject_node_crash(NodeId(0), 1.0);
    let statuses = uni
        .launch(3, None, "lend-crash", move |comm| match comm.rank() {
            0 => {
                let panel: Vec<u64> = (0..4096).collect();
                comm.lending(|loans| {
                    loans
                        .lend(1, 1, &panel, panel.len())
                        .expect("the borrower is alive");
                    comm.advance(2.0); // crosses this node's crash at t = 1
                    let _ = loans.lend(2, 2, &panel, panel.len());
                });
                unreachable!("the crash unwinds out of the scope");
            }
            1 => {
                // Hold the payload a while: a scope that did not wait would
                // have unwound, and freed the panel, before `copied` is set.
                let got = comm.recv_with_or_failed(0, 1, |b| {
                    std::thread::sleep(Duration::from_millis(50));
                    let got = b.to_vec();
                    copied.store(true, SeqCst);
                    got
                });
                assert_eq!(got, Ok(bytes_of_range(4096)), "the lent bytes, exactly");
            }
            _ => {
                let got = comm.recv_with_or_failed(0, 2, <[u8]>::to_vec);
                assert_eq!(got, Err(()), "the lender died before its second lend");
                assert!(
                    copied.load(SeqCst),
                    "the lender died before its first loan was back"
                );
            }
        })
        .join();
    let outcomes: Vec<&ProcStatus> = statuses.iter().map(|(_, s)| s).collect();
    assert!(
        matches!(outcomes[0], ProcStatus::Failed(m) if m.contains("node 0 crashed")),
        "the lender dies of its crash, not of an abort or its own asserts: {outcomes:?}"
    );
    assert_eq!(outcomes[1..], [&ProcStatus::Finished; 2]);
}

/// Set in the child process of the timeout test.
const CHILD: &str = "RESHAPE_LOAN_TIMEOUT_CHILD";

#[test]
fn a_loan_that_never_comes_back_aborts_the_lender() {
    if std::env::var_os(CHILD).is_some() {
        // The borrower stays alive and never receives; the lender panics
        // inside its scope, and must abort rather than unwind past the loan.
        Universe::new(2, 1, NetModel::ideal())
            .launch(2, None, "lend-timeout", |comm| {
                if comm.rank() == 0 {
                    let panel = [7u64; 16];
                    comm.lending(|loans| {
                        loans.lend(1, 1, &panel, 16).expect("the borrower is alive");
                        panic!("lender fails with a loan out");
                    });
                } else {
                    loop {
                        std::thread::park();
                    }
                }
            })
            .join();
        unreachable!("the lender's timeout aborts the process");
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .args([
            "a_loan_that_never_comes_back_aborts_the_lender",
            "--exact",
            "--nocapture",
        ])
        .env(CHILD, "1")
        .env("RESHAPE_MPISIM_TIMEOUT_SECS", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start the child test");
    // A lender that unwinds past its loan leaves the child wedged on the
    // parked borrower instead of aborting: bound the wait.
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll the child").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill the wedged child");
            panic!("the lender neither aborted nor returned within 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child
        .wait_with_output()
        .expect("collect the child's stderr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "child must not pass: {stderr}");
    assert!(
        stderr.contains("1 loan(s) not returned within 1s; aborting"),
        "abort message missing: {stderr}"
    );
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(out.status.signal(), Some(6), "SIGABRT, not an unwind");
    }
}
