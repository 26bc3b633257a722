//! Recorded digests of every resize price the simulator and the figures read.
//!
//! Each line of `tests/snapshots/pricing.txt` is one FNV-1a digest over the
//! `to_bits()` of every field of every price in its group, taken in a fixed
//! order, so a refactor of the pricing path that reassociates one addition
//! anywhere fails here. The groups:
//!
//! * `redist_profile` and `checkpoint_redist_cost` of each distinct
//!   application model in the paper workloads (W1, W2, Figure 3(a) and
//!   Figure 3(b)), over every ordered pair of a fixed ladder of grid shapes;
//! * `evaluate_2d` and `evaluate_2d_contended` over `plan_2d` and
//!   `plan_naive_2d` of two matrices on the same pairs;
//! * `evaluate_2d` over a small `(n, b, p, q)` grid of 1-D arrays, each the
//!   `1 × n` matrix on a `1 × p` grid going to `1 × q`.
//!
//! To re-record after an *intentional* pricing change:
//!
//! ```text
//! RESHAPE_BLESS=1 cargo test -p reshape-clustersim --test pricing_pins
//! ```
//!
//! and commit the rewritten snapshot file (the bless run fails the test on
//! purpose so a stale green is impossible).

use std::collections::BTreeMap;

use reshape_blockcyclic::Descriptor;
use reshape_clustersim::{fig3a_job, fig3b_jobs, workload1, workload2, AppModel, MachineParams};
use reshape_core::ProcessorConfig;
use reshape_redist::{evaluate_2d, evaluate_2d_contended, plan_2d, plan_naive_2d, RedistCost};

const SNAPSHOT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/pricing.txt");

/// Grid shapes `(rows, cols)`, linear and 2-D, small to large.
const LADDER: &[(usize, usize)] = &[
    (1, 1),
    (1, 2),
    (1, 4),
    (2, 2),
    (2, 3),
    (1, 8),
    (3, 3),
    (2, 5),
    (3, 4),
    (4, 4),
    (4, 5),
    (6, 6),
];

/// FNV-1a over a stream of 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn cost(&mut self, c: &RedistCost) {
        self.word(c.steps as u64);
        self.word(c.network_bytes as u64);
        self.word(c.seconds.to_bits());
    }

    fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

fn pairs() -> impl Iterator<Item = (ProcessorConfig, ProcessorConfig)> {
    LADDER.iter().flat_map(|&(fr, fc)| {
        LADDER
            .iter()
            .map(move |&(tr, tc)| (ProcessorConfig::new(fr, fc), ProcessorConfig::new(tr, tc)))
    })
}

/// Each distinct model of the paper workloads, keyed by its `Debug` text.
fn models() -> BTreeMap<String, AppModel> {
    workload1()
        .jobs
        .into_iter()
        .chain(workload2().jobs)
        .chain(std::iter::once(fig3a_job()))
        .chain(fig3b_jobs())
        .map(|j| (format!("{:?}", j.model), j.model))
        .collect()
}

fn digests() -> Vec<(String, String)> {
    let m = MachineParams::system_x();
    let net = m.redist_net();
    let mut out = Vec::new();
    for (name, model) in models() {
        let (mut prof_h, mut ckpt_h) = (Fnv::new(), Fnv::new());
        for (from, to) in pairs() {
            let p = model.redist_profile(from, to, &m);
            for w in [p.bytes, p.plan_steps, p.transfers] {
                prof_h.word(w);
            }
            for s in [
                p.pack_seconds,
                p.transfer_seconds,
                p.unpack_seconds,
                p.total_seconds,
            ] {
                prof_h.word(s.to_bits());
            }
            ckpt_h.word(model.checkpoint_redist_cost(from, to, &m).to_bits());
        }
        out.push((format!("redist_profile {name}"), prof_h.hex()));
        out.push((format!("checkpoint_redist_cost {name}"), ckpt_h.hex()));
    }
    for (m_rows, n_cols, mb, nb) in [(12000, 12000, 100, 100), (1000, 700, 30, 45)] {
        let (mut sched, mut naive) = ([Fnv::new(); 2], [Fnv::new(); 2]);
        for (from, to) in pairs() {
            let src = Descriptor::new(m_rows, n_cols, mb, nb, from.rows, from.cols);
            let dst = Descriptor::new(m_rows, n_cols, mb, nb, to.rows, to.cols);
            let (plan, flat) = (plan_2d(src, dst), plan_naive_2d(src, dst));
            sched[0].cost(&evaluate_2d(&plan, 8, &net));
            sched[1].cost(&evaluate_2d_contended(&plan, 8, &net));
            naive[0].cost(&evaluate_2d(&flat, 8, &net));
            naive[1].cost(&evaluate_2d_contended(&flat, 8, &net));
        }
        let shape = format!("{m_rows}x{n_cols}/{mb}x{nb}");
        out.push((format!("evaluate_2d plan_2d {shape}"), sched[0].hex()));
        out.push((
            format!("evaluate_2d_contended plan_2d {shape}"),
            sched[1].hex(),
        ));
        out.push((format!("evaluate_2d plan_naive_2d {shape}"), naive[0].hex()));
        out.push((
            format!("evaluate_2d_contended plan_naive_2d {shape}"),
            naive[1].hex(),
        ));
    }
    let mut fixed = Fnv::new();
    for n in [1, 97, 1000, 4099] {
        for b in [1, 7, 100] {
            for p in 1..=6 {
                for q in 1..=6 {
                    let view = |procs| Descriptor::new(1, n, 1, b, 1, procs);
                    fixed.cost(&evaluate_2d(&plan_2d(view(p), view(q)), 8, &net));
                }
            }
        }
    }
    // The label names the 1-D pricing this group was recorded under; it is
    // kept so the snapshot stays byte-identical.
    out.push(("evaluate_1d plan_1d".to_string(), fixed.hex()));
    out
}

fn recorded() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(SNAPSHOT_PATH)
        .unwrap_or_else(|e| panic!("cannot read {SNAPSHOT_PATH}: {e}"));
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, hash) = l.rsplit_once(' ').expect("snapshot line: <label> <digest>");
            (label.to_string(), hash.to_string())
        })
        .collect()
}

#[test]
fn prices_match_recorded_digests() {
    let runs = digests();
    if std::env::var("RESHAPE_BLESS").is_ok() {
        let mut out = String::from(
            "# FNV-1a digests of resize prices (every field's bits); re-record with\n\
             # RESHAPE_BLESS=1 cargo test -p reshape-clustersim --test pricing_pins\n",
        );
        for (label, d) in &runs {
            out.push_str(&format!("{label} {d}\n"));
        }
        std::fs::write(SNAPSHOT_PATH, out).expect("write snapshot file");
        panic!("snapshots re-recorded at {SNAPSHOT_PATH}; inspect the diff and commit");
    }
    let want = recorded();
    assert_eq!(want.len(), runs.len(), "snapshot count mismatch");
    let diverged: Vec<String> = runs
        .iter()
        .filter(|(label, got)| want.get(label) != Some(got))
        .map(|(label, got)| format!("{label}: recorded {:?}, got {got}", want.get(label)))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} price groups diverged from recorded digests:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}
