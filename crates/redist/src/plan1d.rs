//! 1-D block-cyclic redistribution schedules (Park et al., table-based).
//!
//! An `n`-element array in blocks of `b` lives block-cyclically on `p`
//! processes: block `k` belongs to source process `k mod p`. It must move to
//! the layout over `q` processes where block `k` belongs to `k mod q`.
//!
//! The destination-processor table is periodic with period `L = lcm(p, q)`
//! blocks and has generalized-circulant structure: the `j`-th block-row of
//! source `s` (blocks `s + j·p + m·L` for all `m`) goes to destination
//! `(s + j·p) mod q`. Fixing `j` and sweeping `s` hits destinations that are
//! distinct **mod q**, so slicing the sources into groups of `q` yields
//! steps that are partial permutations: every process sends at most one
//! message and receives at most one message per step — a contention-free
//! schedule. All blocks moving between one (source, destination) pair in a
//! step travel in a single coalesced message.
//!
//! This is the per-dimension planner: [`plan_2d`](crate::plan_2d) and
//! [`plan_naive_2d`](crate::plan_naive_2d) cross a row plan with a column
//! plan, and a 1-D array moves along `plan_2d`'s plan over its `1 × n` view.

/// One coalesced message of a schedule step: `src` (rank in the old layout)
/// sends the listed global block indices to `dst` (rank in the new layout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transfer1d {
    pub src: usize,
    pub dst: usize,
    /// Global block indices carried by this message, ascending.
    pub blocks: Vec<usize>,
}

/// A complete 1-D redistribution schedule.
#[derive(Clone, Debug)]
pub struct Redist1d {
    /// Total elements.
    pub n: usize,
    /// Block size in elements (unchanged by the move, as in the paper).
    pub b: usize,
    /// Source process count.
    pub p: usize,
    /// Destination process count.
    pub q: usize,
    /// Schedule: `steps[t]` is the set of messages of step `t`, each step a
    /// partial permutation of processes.
    pub steps: Vec<Vec<Transfer1d>>,
}

impl Redist1d {
    /// Total number of blocks (the last one possibly partial).
    pub fn nblocks(&self) -> usize {
        self.n.div_ceil(self.b)
    }

    /// Element count of global block `k` (handles the ragged last block).
    pub fn block_len(&self, k: usize) -> usize {
        let start = k * self.b;
        assert!(start < self.n, "block {k} out of range");
        (self.n - start).min(self.b)
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

/// Build the contention-free schedule for moving an `n`-element array with
/// block size `b` from `p` to `q` processes.
///
/// Blocks whose source and destination rank coincide still appear in the
/// schedule (the executor turns them into local copies); they are assigned
/// to steps like any other transfer so step-permutation invariants hold
/// uniformly.
pub fn plan_1d(n: usize, b: usize, p: usize, q: usize) -> Redist1d {
    assert!(b > 0 && p > 0 && q > 0, "degenerate redistribution");
    let nblocks = n.div_ceil(b);
    let period = lcm(p, q);
    // j indexes the block-rows of the source table within one period.
    let rows_per_period = period / p;
    // Sources are sliced into ⌈p/q⌉ groups of ≤ q to keep destinations
    // distinct within a step.
    let src_groups = p.div_ceil(q);
    let mut steps: Vec<Vec<Transfer1d>> = Vec::with_capacity(rows_per_period * src_groups);
    for j in 0..rows_per_period {
        for r in 0..src_groups {
            let mut step = Vec::new();
            for s in (r * q)..((r + 1) * q).min(p) {
                // Blocks of source s in block-row j across all periods.
                let first = s + j * p;
                if first >= nblocks {
                    continue;
                }
                let blocks: Vec<usize> = (first..nblocks).step_by(period).collect();
                if blocks.is_empty() {
                    continue;
                }
                let dst = first % q;
                step.push(Transfer1d {
                    src: s,
                    dst,
                    blocks,
                });
            }
            if !step.is_empty() {
                steps.push(step);
            }
        }
    }
    Redist1d { n, b, p, q, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Check the two core schedule invariants: completeness (every block
    /// moved exactly once, to the right place) and contention-freedom
    /// (per-step partial permutation).
    fn check_schedule(plan: &Redist1d) {
        let nblocks = plan.nblocks();
        let mut moved = vec![false; nblocks];
        for step in &plan.steps {
            let mut senders = HashSet::new();
            let mut receivers = HashSet::new();
            for t in step {
                assert!(
                    senders.insert(t.src),
                    "source {} sends twice in a step",
                    t.src
                );
                assert!(
                    receivers.insert(t.dst),
                    "destination {} receives twice in a step",
                    t.dst
                );
                for &k in &t.blocks {
                    assert!(k < nblocks);
                    assert_eq!(k % plan.p, t.src, "block {k} not owned by its sender");
                    assert_eq!(k % plan.q, t.dst, "block {k} sent to the wrong owner");
                    assert!(!moved[k], "block {k} moved twice");
                    moved[k] = true;
                }
            }
        }
        assert!(moved.iter().all(|&m| m), "some block was never moved");
    }

    #[test]
    fn expand_2_to_4() {
        let plan = plan_1d(16, 2, 2, 4);
        check_schedule(&plan);
        // p <= q: one source group, lcm/p = 2 block-rows → ≤ 2 steps.
        assert!(plan.steps.len() <= 2);
    }

    #[test]
    fn shrink_4_to_2() {
        let plan = plan_1d(16, 2, 4, 2);
        check_schedule(&plan);
        // p > q: sources sliced into 2 groups per block-row.
        for step in &plan.steps {
            assert!(step.len() <= 2, "no more than q messages per step");
        }
    }

    #[test]
    fn coprime_counts() {
        let plan = plan_1d(35, 1, 5, 7);
        check_schedule(&plan);
    }

    #[test]
    fn identical_counts_is_pure_local() {
        let plan = plan_1d(12, 2, 3, 3);
        check_schedule(&plan);
        // Every transfer is src == dst (layout unchanged).
        for step in &plan.steps {
            for t in step {
                assert_eq!(t.src, t.dst);
            }
        }
    }

    #[test]
    fn ragged_last_block() {
        let plan = plan_1d(10, 4, 2, 3);
        check_schedule(&plan);
        assert_eq!(plan.nblocks(), 3);
        assert_eq!(plan.block_len(2), 2);
        assert_eq!(plan.block_len(0), 4);
    }

    #[test]
    fn single_source_fanout() {
        let plan = plan_1d(64, 4, 1, 8);
        check_schedule(&plan);
        // One source: every step has exactly one message.
        for step in &plan.steps {
            assert_eq!(step.len(), 1);
        }
    }

    #[test]
    fn fan_in_to_one() {
        let plan = plan_1d(64, 4, 8, 1);
        check_schedule(&plan);
        // One destination: each step carries exactly one message.
        for step in &plan.steps {
            assert_eq!(step.len(), 1);
        }
    }

    #[test]
    fn message_coalescing_across_periods() {
        // lcm(2,3)=6 blocks per period; 24 blocks = 4 periods. Each
        // transfer must carry its block from all 4 periods in one message.
        let plan = plan_1d(24, 1, 2, 3);
        check_schedule(&plan);
        for step in &plan.steps {
            for t in step {
                assert_eq!(t.blocks.len(), 4, "blocks from all periods coalesced");
            }
        }
    }

    #[test]
    fn fewer_blocks_than_procs() {
        let plan = plan_1d(3, 1, 8, 2);
        check_schedule(&plan);
    }

    proptest! {
        #[test]
        fn schedules_are_complete_and_contention_free(
            n in 1usize..4000,
            b in 1usize..32,
            p in 1usize..13,
            q in 1usize..13,
        ) {
            check_schedule(&plan_1d(n, b, p, q));
        }

        #[test]
        fn step_count_is_bounded(
            b in 1usize..8,
            p in 1usize..13,
            q in 1usize..13,
        ) {
            // With enough data the step count equals (lcm/p) * ceil(p/q):
            // the table height times the source-group slicing.
            let period = {
                fn gcd(a: usize, b: usize) -> usize { if b == 0 { a } else { gcd(b, a % b) } }
                p / gcd(p, q) * q
            };
            let n = period * b * 2; // two full periods
            let plan = plan_1d(n, b, p, q);
            prop_assert_eq!(plan.steps.len(), (period / p) * p.div_ceil(q));
        }
    }
}
