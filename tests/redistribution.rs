//! Cross-crate redistribution integrity: data survives the exact expansion
//! chains of the paper's Table 2, through both the contention-free
//! schedules and the checkpoint baseline, including real process spawning.

use reshape::blockcyclic::{Descriptor, DistMatrix};
use reshape::core::{ProcessorConfig, TopologyPref};
use reshape::mpisim::{NetModel, Universe};
use reshape::redist::{
    checkpoint_redistribute, evaluate_2d, plan_2d, redistribute_2d, CheckpointParams,
};

/// Walk a whole Table-2-style chain on a fixed communicator, verifying the
/// matrix after every redistribution step.
#[test]
fn data_survives_a_full_configuration_chain() {
    // Problem size 40 with max 20 procs: chain 1x2 -> 2x2 -> 2x4 -> 4x4 -> 4x5.
    let pref = TopologyPref::Grid { problem_size: 40 };
    let chain = pref.chain_from(ProcessorConfig::new(1, 2), 20);
    assert!(chain.len() >= 4, "need a real chain, got {chain:?}");
    let max = chain.last().unwrap().procs();
    let n = 40usize;

    let chain2 = chain.clone();
    Universe::new(max, 1, NetModel::ideal())
        .launch(max, None, "chain", move |comm| {
            let value = |i: usize, j: usize| (i * 7919 + j * 13) as f64;
            let first = chain2[0];
            let me = comm.rank();
            let mut cur: Option<DistMatrix<f64>> = (me < first.procs()).then(|| {
                let d = Descriptor::square(n, 2, first.rows, first.cols);
                DistMatrix::from_fn(d, me / first.cols, me % first.cols, value)
            });
            for w in chain2.windows(2) {
                let (from, to) = (w[0], w[1]);
                let src = Descriptor::square(n, 2, from.rows, from.cols);
                let dst = Descriptor::square(n, 2, to.rows, to.cols);
                let plan = plan_2d(src, dst);
                cur = redistribute_2d(&comm, &plan, cur.as_ref());
                if let Some(m) = &cur {
                    for li in 0..m.local_rows() {
                        let gi = dst.local_to_global_row(li, m.myrow);
                        for lj in 0..m.local_cols() {
                            let gj = dst.local_to_global_col(lj, m.mycol);
                            assert_eq!(
                                m.get_local(li, lj),
                                value(gi, gj),
                                "corruption at ({gi},{gj}) after {from} -> {to}"
                            );
                        }
                    }
                }
            }
            // And shrink all the way back down in one hop.
            let last = *chain2.last().unwrap();
            let src = Descriptor::square(n, 2, last.rows, last.cols);
            let dst = Descriptor::square(n, 2, first.rows, first.cols);
            let plan = plan_2d(src, dst);
            let back = redistribute_2d(&comm, &plan, cur.as_ref());
            if me < first.procs() {
                let m = back.expect("rank stays in the small grid");
                for li in 0..m.local_rows() {
                    let gi = dst.local_to_global_row(li, m.myrow);
                    for lj in 0..m.local_cols() {
                        let gj = dst.local_to_global_col(lj, m.mycol);
                        assert_eq!(m.get_local(li, lj), value(gi, gj));
                    }
                }
            }
        })
        .join_ok();
}

/// Checkpoint and schedule-based redistribution must produce identical
/// destination panels.
#[test]
fn checkpoint_and_schedule_agree() {
    Universe::new(6, 1, NetModel::ideal())
        .launch(6, None, "agree", |comm| {
            let src_d = Descriptor::square(24, 2, 2, 3);
            let dst_d = Descriptor::square(24, 2, 1, 4);
            let me = comm.rank();
            let src = DistMatrix::from_fn(src_d, me / 3, me % 3, |i, j| (i * 100 + j) as f64);
            let via_plan = redistribute_2d(&comm, &plan_2d(src_d, dst_d), Some(&src));
            let via_ckpt = checkpoint_redistribute(
                &comm,
                src_d,
                dst_d,
                Some(&src),
                &CheckpointParams::default(),
            )
            .expect("every rank is alive and in the source grid");
            match (via_plan, via_ckpt) {
                (Some(a), Some(b)) => assert_eq!(a.local_data(), b.local_data()),
                (None, None) => assert!(me >= 4),
                other => panic!("presence mismatch on rank {me}: {:?}", other.0.is_some()),
            }
        })
        .join_ok();
}

/// Expansion through actual process spawning: the virtual-time cost of the
/// real execution must track the analytic evaluator's estimate.
#[test]
fn real_execution_cost_tracks_evaluator() {
    let n = 512usize;
    let uni = Universe::new(8, 1, NetModel::gigabit_ethernet());
    let h = uni.launch(2, None, "cost", move |comm| {
        let src_d = Descriptor::square(n, 16, 1, 2);
        let dst_d = Descriptor::square(n, 16, 2, 2);
        let a = DistMatrix::from_fn(src_d, 0, comm.rank(), |i, j| (i + j) as f64);
        let merged = comm.spawn_merge(2, None, "grow", move |ctx| {
            let merged = ctx.parent.merge();
            let plan = plan_2d(src_d, dst_d);
            redistribute_2d::<f64>(&merged, &plan, None).expect("child gets panel");
        });
        let plan = plan_2d(src_d, dst_d);
        let t0 = merged.vtime();
        redistribute_2d(&merged, &plan, Some(&a)).expect("parent keeps panel");
        let measured = merged.vtime() - t0;
        let estimate = evaluate_2d(&plan, 8, &NetModel::gigabit_ethernet()).seconds;
        // The evaluator assumes lock-step steps; the execution pipelines, so
        // allow a generous band — they must agree within ~5x either way.
        assert!(
            measured < estimate * 5.0 + 0.01 && estimate < measured * 5.0 + 0.01,
            "measured {measured} vs estimated {estimate}"
        );
    });
    h.join_ok();
    uni.join_spawned();
}

/// Redistribution of several matrices back-to-back (as the resize library
/// does for an application with multiple registered arrays).
#[test]
fn multiple_arrays_redistribute_independently() {
    Universe::new(4, 1, NetModel::ideal())
        .launch(4, None, "multi", |comm| {
            let src_d = Descriptor::square(16, 2, 2, 2);
            let dst_d = Descriptor::square(16, 2, 1, 4);
            let me = comm.rank();
            let mats: Vec<DistMatrix<f64>> = (0..3)
                .map(|k| {
                    DistMatrix::from_fn(src_d, me / 2, me % 2, move |i, j| {
                        (k * 1000 + i * 16 + j) as f64
                    })
                })
                .collect();
            let plan = plan_2d(src_d, dst_d);
            for (k, m) in mats.iter().enumerate() {
                let out = redistribute_2d(&comm, &plan, Some(m)).expect("all ranks in dst");
                for li in 0..out.local_rows() {
                    let gi = dst_d.local_to_global_row(li, out.myrow);
                    for lj in 0..out.local_cols() {
                        let gj = dst_d.local_to_global_col(lj, out.mycol);
                        assert_eq!(out.get_local(li, lj), (k * 1000 + gi * 16 + gj) as f64);
                    }
                }
            }
        })
        .join_ok();
}
