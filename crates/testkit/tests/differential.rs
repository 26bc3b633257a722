//! Differential sweep: every redistribution path must agree bitwise on
//! seeded random layouts, and every fault-checked variant must abort
//! cleanly when a rank is dead.

use reshape_testkit::differential::{
    dead_rank_aborts_2d, differential_1d, differential_2d, executor_traffic, gen_case_2d,
    TrafficPath,
};
use reshape_testkit::SplitMix64;

#[test]
fn seeded_2d_cases_agree_across_all_paths() {
    let mut rng = SplitMix64::new(0xD1FF);
    for i in 0..12 {
        let case = gen_case_2d(&mut rng);
        differential_2d(&case).unwrap_or_else(|e| panic!("case {i}: {e}"));
    }
}

#[test]
fn seeded_1d_cases_agree_across_both_paths() {
    let mut rng = SplitMix64::new(0x1D1D);
    for i in 0..12 {
        let n = rng.usize_range(1, 120);
        let b = rng.usize_range(1, 6);
        let p = rng.usize_range(1, 5);
        let q = rng.usize_range(1, 5);
        differential_1d(n, b, p, q)
            .unwrap_or_else(|e| panic!("case {i} (n={n} b={b} {p}->{q}): {e}"));
    }
}

#[test]
fn dead_rank_aborts_every_checked_path() {
    dead_rank_aborts_2d().unwrap();
}

/// Per rank: messages sent, payload bytes sent, and the bits of the virtual
/// clock on return, recorded on the commit before the executors were merged.
/// A change here means some path sends different messages or sends them in a
/// different order — a model change, not a refactor.
#[test]
fn executor_traffic_is_pinned() {
    type Rank = (u64, u64, u64);
    #[rustfmt::skip]
    let pinned: [(TrafficPath, &[Rank]); 7] = [
        (TrafficPath::PlannedExpand, &[(2, 576, 0x3f123f50558b805a), (2, 504, 0x3f20552691d3ec40), (3, 768, 0x3f137dada2319013), (2, 448, 0x3f11fa9825eae500), (0, 0, 0x3f204c8f8bdfd8d5), (0, 0, 0x3f2032ca7a039e93)]),
        (TrafficPath::PlannedShrink, &[(1, 288, 0x3f21e96a1a02be2a), (1, 288, 0x3f291ee88110ea3d), (2, 504, 0x3f1690bb23ad0358), (1, 256, 0x3f11fa9825eae500), (2, 512, 0x3eed8fbb7cf6d43c), (2, 448, 0x3eec7cdabe7466d2)]),
        (TrafficPath::Naive, &[(2, 576, 0x3f10552691d3ec40), (2, 504, 0x3f10552691d3ec40), (3, 768, 0x3f138edbae19b6e9), (2, 448, 0x3f1043f885ebc569), (0, 0, 0x3f136c7f9649693c), (0, 0, 0x3f15457b4e18d680)]),
        (TrafficPath::General2d, &[(5, 720, 0x3f23418c78850823), (5, 720, 0x3f23418c78850823), (5, 864, 0x3f2b1ed08bda4f7e), (5, 864, 0x3f2b1ed08bda4f7e), (0, 0, 0x3f30d644a350b025), (0, 0, 0x3f30d644a350b025)]),
        (TrafficPath::Planned1d, &[(4, 80, 0x3f28550b752921e3), (3, 72, 0x3f211d674c9df0f6), (3, 72, 0x3f2f8a89dc374df6), (0, 0, 0x3f1123d89114ff86), (0, 0, 0x3f2075a1a056d5ae)]),
        (TrafficPath::General1d, &[(3, 152, 0x3f12b81c1943d16f), (3, 136, 0x3f2088f56dbc015f), (0, 0, 0x3f20918c73b014cb), (0, 0, 0x3f27be73d4ca2d72)]),
        (TrafficPath::TxnCommit, &[(7, 616, 0x3f2ad3a717c2a595), (7, 544, 0x3f297daa7abd6074), (8, 808, 0x3f2ad5ccd93faa6f), (7, 488, 0x3f2b7fb84703ca91), (5, 40, 0x3f2c29a3b4c7eab3), (5, 40, 0x3f2cd38f228c0ad5)]),
    ];
    for (path, want) in pinned {
        assert_eq!(executor_traffic(path), want, "{path:?} traffic moved");
    }
}
