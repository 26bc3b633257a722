//! Recorded values of the data plane at fixed shapes: the number of
//! transfers one plan schedules, the virtual cost of one planned expansion,
//! and the virtual costs of the node-loss recovery round trip. All are fixed
//! by the plan and the network model, so a change that moves one sends
//! different messages or charges them differently.

use std::sync::{Arc, Mutex};

use reshape_blockcyclic::{recover_matrix, BuddyStore, Descriptor, DistMatrix};
use reshape_mpisim::{NetModel, Universe};
use reshape_redist::{checkpoint_redistribute, plan_2d, redistribute_2d, CheckpointParams};

const NB: usize = 64;

#[test]
fn plan_2d_transfer_count_is_pinned() {
    let plan = plan_2d(
        Descriptor::square(4096, NB, 3, 4),
        Descriptor::square(4096, NB, 4, 4),
    );
    assert_eq!(plan.steps.iter().map(Vec::len).sum::<usize>(), 48);
}

/// 768² doubles move from a 2×2 to a 2×3 grid over Gigabit Ethernet; the
/// slowest rank's virtual time for the call is pinned.
#[test]
fn planned_expansion_virtual_time_is_pinned() {
    let n = 768;
    let (src_desc, dst_desc) = (
        Descriptor::square(n, NB, 2, 2),
        Descriptor::square(n, NB, 2, 3),
    );
    let uni = Universe::new(6, 1, NetModel::gigabit_ethernet());
    let deltas = Arc::new(Mutex::new(Vec::new()));
    let sink = deltas.clone();
    uni.launch(6, None, "expand", move |comm| {
        let me = comm.rank();
        let src = (me < 4)
            .then(|| DistMatrix::from_fn(src_desc, me / 2, me % 2, |i, j| (i * n + j) as f64));
        let t0 = comm.vtime();
        let out = redistribute_2d(&comm, &plan_2d(src_desc, dst_desc), src.as_ref());
        assert!(out.is_some());
        sink.lock().unwrap().push(comm.vtime() - t0);
    })
    .join_ok();
    let slowest = deltas.lock().unwrap().iter().fold(0.0f64, |a, &b| a.max(b));
    assert_eq!(
        slowest.to_bits(),
        0.009512183999999998_f64.to_bits(),
        "{slowest}"
    );
}

/// 512² doubles on a 2×2 grid: every rank replicates its panel to its
/// buddy, the checkpoint funnel rebuilds the matrix onto 1×3, and, with
/// rank 3 lost, the survivors restore onto 1×3 from their own panels and
/// rank 3's buddy copy. The slowest rank's virtual time of each phase is
/// pinned.
#[test]
fn recovery_round_trip_virtual_times_are_pinned() {
    let n = 512;
    let uni = Universe::new(4, 1, NetModel::gigabit_ethernet());
    let deltas = Arc::new(Mutex::new(Vec::new()));
    let sink = deltas.clone();
    uni.launch(4, None, "recovery", move |comm| {
        let me = comm.rank();
        let s = Descriptor::square(n, NB, 2, 2);
        let d = Descriptor::new(n, n, NB, NB, 1, 3);
        let src = DistMatrix::from_fn(s, me / 2, me % 2, |i, j| (i * n + j) as f64);
        let t0 = comm.vtime();
        let store = BuddyStore::replicate(&comm, std::slice::from_ref(&src));
        let replicate = comm.vtime() - t0;
        let t0 = comm.vtime();
        let out =
            checkpoint_redistribute(&comm, s, d, Some(&src), &CheckpointParams::default(), None);
        let checkpoint = comm.vtime() - t0;
        assert_eq!(out.is_some(), me < 3);
        let mut restore = 0.0;
        if me != 3 {
            let t0 = comm.vtime();
            recover_matrix(&comm, &[0, 1, 2], &store.own_snapshot(0), &store, 0, d)
                .expect("rank 3's buddy is alive")
                .expect("every survivor owns part of the 1x3 layout");
            restore = comm.vtime() - t0;
        }
        sink.lock().unwrap().push([replicate, checkpoint, restore]);
    })
    .join_ok();
    let deltas = deltas.lock().unwrap();
    let slowest = |k: usize| deltas.iter().map(|d| d[k]).fold(0.0f64, f64::max);
    let got = [slowest(0), slowest(1), slowest(2)];
    let want = [
        0.0042543039999999996_f64,
        0.07598199733333334,
        0.011554336000000012,
    ];
    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{got:?}");
}
