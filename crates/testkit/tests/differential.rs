//! Differential sweep: every redistribution path must agree bitwise on
//! seeded random layouts, and every fault-checked variant must abort
//! cleanly when a rank is dead.

use reshape_testkit::differential::{
    dead_rank_aborts_2d, differential_1d, differential_2d, executor_traffic, gen_case_1d,
    gen_case_2d, path_digest, Case, Path, TrafficPath, DEAD_RANK_PATHS, PATHS_1D, PATHS_2D,
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
    let pinned: [(TrafficPath, &[Rank]); 5] = [
        (TrafficPath::PlannedExpand, &[(2, 576, 0x3f123f50558b805a), (2, 504, 0x3f20552691d3ec40), (3, 768, 0x3f137dada2319013), (2, 448, 0x3f11fa9825eae500), (0, 0, 0x3f204c8f8bdfd8d5), (0, 0, 0x3f2032ca7a039e93)]),
        (TrafficPath::PlannedShrink, &[(1, 288, 0x3f21e96a1a02be2a), (1, 288, 0x3f291ee88110ea3d), (2, 504, 0x3f1690bb23ad0358), (1, 256, 0x3f11fa9825eae500), (2, 512, 0x3eed8fbb7cf6d43c), (2, 448, 0x3eec7cdabe7466d2)]),
        (TrafficPath::Naive, &[(2, 576, 0x3f10552691d3ec40), (2, 504, 0x3f10552691d3ec40), (3, 768, 0x3f138edbae19b6e9), (2, 448, 0x3f1043f885ebc569), (0, 0, 0x3f136c7f9649693c), (0, 0, 0x3f15457b4e18d680)]),
        (TrafficPath::Planned1d, &[(4, 80, 0x3f28550b752921e3), (3, 72, 0x3f211d674c9df0f6), (3, 72, 0x3f2f8a89dc374df6), (0, 0, 0x3f1123d89114ff86), (0, 0, 0x3f2075a1a056d5ae)]),
        (TrafficPath::TxnCommit, &[(7, 616, 0x3f2ad3a717c2a595), (7, 544, 0x3f297daa7abd6074), (8, 808, 0x3f2ad5ccd93faa6f), (7, 488, 0x3f2b7fb84703ca91), (5, 40, 0x3f2c29a3b4c7eab3), (5, 40, 0x3f2cd38f228c0ad5)]),
    ];
    for (path, want) in pinned {
        assert_eq!(executor_traffic(path), want, "{path:?} traffic moved");
    }
}

/// FNV digests of every path's output image, per-rank traffic and dead-rank
/// verdicts (see `path_digest`) over the seeded cases the sweeps above draw
/// and the dead-rank matrix, recorded at the commit that still had eleven
/// redistribution entry points. Only the code behind each `Path` may change
/// under this table; a moved digest means a path computes or sends
/// something else.
#[test]
fn path_digests_are_pinned() {
    let mut rng = SplitMix64::new(0xD1FF);
    let cases_2d: Vec<Case> = (0..12).map(|_| Case::TwoD(gen_case_2d(&mut rng))).collect();
    let mut rng = SplitMix64::new(0x1D1D);
    let cases_1d: Vec<Case> = (0..12).map(|_| Case::OneD(gen_case_1d(&mut rng))).collect();
    #[rustfmt::skip]
    let pinned: [(Path, &[u64]); 13] = [
        (Path::Planned2d, &[0xd8fd3f254cca6c85, 0x492ce9a4afb4a84c, 0xa66e4bc9b4e790d5, 0xf16e5eacbdc30c6b, 0x6ae8224086f4fd65, 0xa2ec0a980c7baa90, 0x9ee953fee81e6c8e, 0x2da5ee0f3343081e, 0xe1620b36f1b60d18, 0x4ce39c9ff767ab40, 0x60d13157466ab5b1, 0xcc85771a9f19a92e]),
        (Path::Naive2d, &[0xd8fd3f254cca6c85, 0x492ce9a4afb4a84c, 0xa66e4bc9b4e790d5, 0xf16e5eacbdc30c6b, 0x26a964853002223b, 0x4ef7a10472cb391a, 0x9ee953fee81e6c8e, 0xdc954d9943f73a44, 0xc95b552f89b773eb, 0x4ce39c9ff767ab40, 0x60d13157466ab5b1, 0x5ca611b8e561bb89]),
        (Path::Txn2d, &[0x5a0441679f0007cf, 0x1c1b0b9e67675fa4, 0x486cecdd527c7d06, 0xcc50453d3ec142aa, 0xcf3e2d62943c9061, 0x8e241b30fa99b013, 0x009e03b845d196a4, 0x6b624c644a564468, 0x1e23c390681b1bba, 0x4333756f7c40fd90, 0xb13adacf2bc019d6, 0x29e8703c88edc61b]),
        (Path::TryPlanned2d, &[0xd8fd3f254cca6c85, 0x492ce9a4afb4a84c, 0xa66e4bc9b4e790d5, 0xf16e5eacbdc30c6b, 0x6ae8224086f4fd65, 0xa2ec0a980c7baa90, 0x9ee953fee81e6c8e, 0x2da5ee0f3343081e, 0xe1620b36f1b60d18, 0x4ce39c9ff767ab40, 0x60d13157466ab5b1, 0xcc85771a9f19a92e]),
        (Path::Checkpoint, &[0x965fd2d7f8e727b9, 0x0e6b1bf70bda90fa, 0xc0ba21e486637dba, 0x0eb1c7887760243a, 0xbd48ca0ab389bbfe, 0xb0a2c8e630dae751, 0x3c7391ee7224114a, 0xb4a83c957fc15886, 0xbef20c62aaf808ab, 0xb1178ecabfde8f11, 0xc4249f114e83211b, 0x1952aa73d532a501]),
        (Path::TryCheckpoint, &[0x965fd2d7f8e727b9, 0x0e6b1bf70bda90fa, 0xc0ba21e486637dba, 0x0eb1c7887760243a, 0xbd48ca0ab389bbfe, 0xb0a2c8e630dae751, 0x3c7391ee7224114a, 0xb4a83c957fc15886, 0xbef20c62aaf808ab, 0xb1178ecabfde8f11, 0xc4249f114e83211b, 0x1952aa73d532a501]),
        (Path::Binning, &[0x6c4a70bb808a9264, 0x0ece44b5b4053b18, 0x1d10052f62304c51, 0x9da88810cae8e4a6, 0x0ab8daae19f9b3e5, 0x778e193871f7c1cb, 0xc978c49c1431f9e3, 0xdb5d263604bbf87e, 0xc1a471ac17b30889, 0x789b5ec6098ce1c0, 0x48997c3b02fac4fc, 0x5c9f7fd1ecbcc397]),
        (Path::Planned1d, &[0xd94dc19effa675fe, 0x7dbeef909f3cb443, 0x47c10d508fb06fa3, 0x4ccc9570b8bc99df, 0x7549b9a554918857, 0x5bafe84102957be9, 0x4c01539270c6b4de, 0x5f5e043afc0b9787, 0x3d28824c5a37ab4c, 0xde0e3cccf1e1282b, 0xd6cfecf0fd5fc0da, 0x7fad3688eb443bc8]),
        (Path::TryPlanned1d, &[0xd94dc19effa675fe, 0x7dbeef909f3cb443, 0x47c10d508fb06fa3, 0x4ccc9570b8bc99df, 0x7549b9a554918857, 0x5bafe84102957be9, 0x4c01539270c6b4de, 0x5f5e043afc0b9787, 0x3d28824c5a37ab4c, 0xde0e3cccf1e1282b, 0xd6cfecf0fd5fc0da, 0x7fad3688eb443bc8]),
        (Path::TryPlanned2d, &[0xe7b5390586f8effe]),
        (Path::TryCheckpoint, &[0xe7b5390586f8effe]),
        (Path::Txn2d, &[0x1087920616141818]),
        (Path::TryPlanned1d, &[0xe7b5390586f8effe]),
    ];
    let mut got: Vec<(Path, Vec<u64>)> = Vec::new();
    for path in PATHS_2D {
        got.push((
            path,
            cases_2d.iter().map(|c| path_digest(path, c)).collect(),
        ));
    }
    for path in PATHS_1D {
        got.push((
            path,
            cases_1d.iter().map(|c| path_digest(path, c)).collect(),
        ));
    }
    for path in DEAD_RANK_PATHS {
        got.push((path, vec![path_digest(path, &Case::DeadRank)]));
    }
    let table: String = got
        .iter()
        .map(|(path, ds)| {
            let ds: Vec<String> = ds.iter().map(|d| format!("{d:#018x}")).collect();
            format!("        (Path::{path:?}, &[{}]),\n", ds.join(", "))
        })
        .collect();
    let want: Vec<(Path, Vec<u64>)> = pinned.iter().map(|(p, d)| (*p, d.to_vec())).collect();
    assert!(
        got == want,
        "path digests moved; this run's table:\n{table}"
    );
}
