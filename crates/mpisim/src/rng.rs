//! SplitMix64: the seed-expansion generator of Steele, Lea & Flood
//! ("Fast splittable pseudorandom number generators", OOPSLA 2014). One
//! `u64` of state, full period, and trivially reproducible from a printed
//! seed. This is the workspace's one copy: every seeded fault stream and
//! every testkit generator draws from it.

/// Deterministic 64-bit generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Bernoulli draw with probability `p`. Always consumes one draw.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}
