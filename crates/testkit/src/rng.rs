//! The harness's view of the workspace's SplitMix64
//! ([`reshape_mpisim::SplitMix64`]): the same stream, plus the integer
//! range helpers the generators draw with. Trivially reproducible from a
//! printed seed — exactly what a failure report needs.

/// Deterministic 64-bit generator. Every harness artifact (workload, fault
/// schedule, matrix contents) derives from one of these, so a failing run
/// is reproduced by its seed alone.
#[derive(Clone, Debug)]
pub struct SplitMix64(reshape_mpisim::SplitMix64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(reshape_mpisim::SplitMix64::new(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Modulo bias is irrelevant
    /// at the ranges the generators use (≤ a few hundred).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// Bernoulli draw with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.range(0, den - 1) < num
    }

    /// Uniform float in `[lo, hi)`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_range(0, items.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn range_is_inclusive_and_bounded() {
        let mut r = SplitMix64::new(7);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            let v = r.range(3, 6);
            assert!((3..=6).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 6;
        }
        assert!(seen_lo && seen_hi);
    }
}
