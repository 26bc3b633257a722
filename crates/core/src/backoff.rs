//! Shared deterministic retry backoff.
//!
//! Two retry paths used to hand-roll the same schedule: the resize
//! driver's spawn-shortfall retry (its private `SPAWN_BACKOFF`) and the
//! federation lease bus's retransmit timer
//! ([`crate::ctrl::seq::SeqSender`]). Both now share this one pure
//! function: exponential growth from a base interval, a hard cap, and
//! optional ± jitter derived from a SplitMix64 hash of `(key, attempt)` —
//! no RNG state, so every participant that knows the key computes the
//! identical delay and a replay reproduces the schedule bit for bit.

/// A deterministic exponential backoff schedule with seeded jitter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Backoff {
    /// Delay charged after the first failed attempt (seconds).
    pub base: f64,
    /// Multiplier applied for each further attempt (1.0 = fixed interval).
    pub factor: f64,
    /// Hard ceiling on a single delay (seconds).
    pub max: f64,
    /// ± fraction of deterministic jitter applied to each delay, hashed
    /// from `(key, attempt)` so contending retriers de-synchronize while
    /// every observer of one key computes the identical delay.
    pub jitter_frac: f64,
}

impl Backoff {
    /// A fixed-interval schedule: every attempt waits exactly `interval`.
    /// This is the classic RTO timer expressed as a degenerate backoff.
    pub fn fixed(interval: f64) -> Self {
        assert!(
            interval > 0.0 && interval.is_finite(),
            "backoff interval must be positive"
        );
        Backoff {
            base: interval,
            factor: 1.0,
            max: interval,
            jitter_frac: 0.0,
        }
    }

    /// Delay (seconds) charged after failed attempt `attempt` (1-based).
    /// Pure function of `(self, key, attempt)`: exponential in the
    /// attempt, capped at `max`, then jittered by the hash of the inputs.
    pub fn delay(&self, key: u64, attempt: usize) -> f64 {
        let raw = (self.base * self.factor.powi(attempt as i32 - 1))
            .min(self.max)
            .max(0.0);
        if self.jitter_frac <= 0.0 {
            return raw;
        }
        // SplitMix64 finalizer over (key, attempt) for deterministic jitter.
        let mut z = key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        raw * (1.0 + self.jitter_frac * (2.0 * u - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_schedule_never_grows() {
        let b = Backoff::fixed(1.5);
        for attempt in 1..20 {
            assert_eq!(b.delay(9, attempt), 1.5);
        }
    }

    #[test]
    fn exponential_growth_respects_the_cap() {
        let b = Backoff {
            base: 0.5,
            factor: 2.0,
            max: 8.0,
            jitter_frac: 0.0,
        };
        assert_eq!(b.delay(0, 1), 0.5);
        assert_eq!(b.delay(0, 2), 1.0);
        assert_eq!(b.delay(0, 3), 2.0);
        assert_eq!(b.delay(0, 5), 8.0);
        assert_eq!(b.delay(0, 50), 8.0, "the cap is hard");
    }

    #[test]
    fn jitter_is_seed_stable_and_bounded() {
        let b = Backoff {
            base: 1.0,
            factor: 2.0,
            max: 16.0,
            jitter_frac: 0.25,
        };
        for key in 0..64u64 {
            for attempt in 1..10 {
                let d1 = b.delay(key, attempt);
                let d2 = b.delay(key, attempt);
                assert_eq!(d1.to_bits(), d2.to_bits(), "schedule must be pure");
                let raw = (b.base * b.factor.powi(attempt as i32 - 1)).min(b.max);
                assert!(
                    (d1 - raw).abs() <= raw * b.jitter_frac + 1e-12,
                    "jitter out of band: {d1} vs raw {raw}"
                );
            }
        }
        // Distinct keys de-synchronize.
        assert_ne!(b.delay(1, 3).to_bits(), b.delay(2, 3).to_bits());
    }
}
