//! The benchmark's only source of randomness: SplitMix64 (Steele, Lea &
//! Flood). Every generated input — the federation job stream, the resize
//! app's iteration times and matrix contents — is a pure function of
//! `--seed` through this file, so the programs under test receive only
//! generated inputs.

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output function of `x + GOLDEN`. Bit-identical to the
/// private `clustersim::event::mix`, which the `des-*` replica needs to
/// regenerate `run_scale`'s job stream.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map 64 random bits to a uniform `f64` in `[0, 1)` (53-bit mantissa).
pub fn u01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = mix(self.0);
        self.0 = self.0.wrapping_add(GOLDEN);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        u01(self.next_u64())
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at the `n <= 100` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_sequence() {
        // First outputs of the canonical SplitMix64 seeded with 0.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn floats_stay_in_unit_interval() {
        let mut r = SplitMix64::new(42);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
