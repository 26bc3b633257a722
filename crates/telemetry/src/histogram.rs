//! Fixed-bucket geometric histograms with quantile summaries.
//!
//! Buckets are geometric with ratio 2 starting at [`MIN_BOUND`]: bucket 0
//! covers `(-inf, MIN_BOUND]`, bucket `i` covers
//! `(MIN_BOUND * 2^(i-1), MIN_BOUND * 2^i]`, and the last bucket is the
//! `+inf` overflow. With 64 buckets the covered range spans from
//! nanoseconds to centuries, which fits every duration and size the
//! scheduler records. Bucket placement uses exact doubling (no `log2`
//! rounding), so values that land precisely on a boundary are assigned
//! deterministically — the unit tests rely on this.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Number of buckets, including the overflow bucket.
pub const BUCKETS: usize = 64;

/// Upper bound of the first bucket (1 nanosecond when recording seconds).
pub const MIN_BOUND: f64 = 1e-9;

/// Inclusive upper bound of bucket `i`. The last bucket is unbounded.
///
/// # Panics
///
/// Panics if `i >= BUCKETS`.
pub fn bucket_upper_bound(i: usize) -> f64 {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i == BUCKETS - 1 {
        f64::INFINITY
    } else {
        MIN_BOUND * 2f64.powi(i as i32)
    }
}

/// Bucket index for a recorded value. NaN goes to the overflow bucket.
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() {
        return BUCKETS - 1;
    }
    let mut bound = MIN_BOUND;
    for i in 0..BUCKETS - 1 {
        if v <= bound {
            return i;
        }
        bound *= 2.0;
    }
    BUCKETS - 1
}

#[derive(Debug)]
struct HistData {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Concurrent histogram. Recording takes a short uncontended lock; every
/// recording site is gated on [`crate::enabled`], so the lock is never
/// touched when telemetry is off.
#[derive(Debug, Default)]
pub struct Histogram {
    inner: Mutex<HistData>,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&self, v: f64) {
        let mut d = self.inner.lock();
        d.buckets[bucket_index(v)] += 1;
        d.count += 1;
        d.sum += v;
        if v < d.min {
            d.min = v;
        }
        if v > d.max {
            d.max = v;
        }
    }

    /// Merge a snapshot (e.g. shipped from another process or rank) into
    /// this live histogram. Strict: the snapshot must be empty or have
    /// exactly [`BUCKETS`] buckets — anything else means it came from an
    /// incompatible layout and silently re-bucketing would corrupt
    /// quantiles, so it is refused.
    pub fn merge(&self, other: &HistogramSnapshot) -> Result<(), MergeError> {
        if other.count == 0 {
            return Ok(());
        }
        if other.buckets.len() != BUCKETS {
            return Err(MergeError::BucketMismatch {
                expected: BUCKETS,
                got: other.buckets.len(),
            });
        }
        let mut d = self.inner.lock();
        for (b, &o) in d.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        d.count += other.count;
        d.sum += other.sum;
        if other.min < d.min {
            d.min = other.min;
        }
        if other.max > d.max {
            d.max = other.max;
        }
        Ok(())
    }

    /// Consistent point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let d = self.inner.lock();
        HistogramSnapshot {
            buckets: d.buckets.to_vec(),
            count: d.count,
            sum: d.sum,
            min: if d.count == 0 { 0.0 } else { d.min },
            max: if d.count == 0 { 0.0 } else { d.max },
        }
    }
}

/// Why two histograms cannot be combined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// The two sides disagree on bucket layout.
    BucketMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::BucketMismatch { expected, got } => write!(
                f,
                "histogram bucket layout mismatch: expected {expected} buckets, got {got}"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Serializable copy of a [`Histogram`]. Empty snapshots report 0 for every
/// statistic and act as the identity under [`HistogramSnapshot::merge`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Quantile estimate: the upper bound of the bucket where the
    /// cumulative count first reaches `ceil(q * count)`, clamped to the
    /// observed `[min, max]`. Exact when all observations share a bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                if i + 1 >= self.buckets.len() {
                    return self.max;
                }
                return bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Strict variant of [`merge`](Self::merge): refuses snapshots whose
    /// bucket layouts disagree (both non-empty with different lengths)
    /// instead of silently resizing.
    pub fn try_merge(&mut self, other: &HistogramSnapshot) -> Result<(), MergeError> {
        if other.count == 0 {
            return Ok(());
        }
        if self.count > 0 && self.buckets.len() != other.buckets.len() {
            return Err(MergeError::BucketMismatch {
                expected: self.buckets.len(),
                got: other.buckets.len(),
            });
        }
        self.merge(other);
        Ok(())
    }

    /// Merge another snapshot into this one. Bucket counts, totals, and
    /// min/max merge exactly (and associatively); the floating `sum`
    /// accumulates in recording order, so it is associative only up to
    /// rounding — the proptest below pins both properties down.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "count={} mean={:.3e} min={:.3e} max={:.3e} p50={:.3e} p95={:.3e} p99={:.3e}",
            self.count,
            self.mean(),
            self.min,
            self.max,
            self.quantile(0.5),
            self.quantile(0.95),
            self.quantile(0.99)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        // Values exactly on a bound belong to the bucket they bound.
        assert_eq!(bucket_index(MIN_BOUND), 0);
        for k in 1..20 {
            let bound = MIN_BOUND * 2f64.powi(k);
            assert_eq!(bucket_index(bound), k as usize, "at bound 2^{k}");
            // Just above a bound spills into the next bucket.
            assert_eq!(bucket_index(bound * 1.0001), k as usize + 1);
        }
    }

    #[test]
    fn degenerate_values_have_a_home() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
        assert_eq!(bucket_index(f64::NAN), BUCKETS - 1);
    }

    #[test]
    fn upper_bounds_double() {
        assert_eq!(bucket_upper_bound(0), MIN_BOUND);
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_upper_bound(i), 2.0 * bucket_upper_bound(i - 1));
        }
        assert!(bucket_upper_bound(BUCKETS - 1).is_infinite());
    }

    #[test]
    fn quantiles_of_uniform_spread() {
        let h = Histogram::new();
        // 100 observations in strictly increasing buckets 10..20.
        for k in 10..20 {
            for _ in 0..10 {
                h.record(MIN_BOUND * 2f64.powi(k));
            }
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 = 50th observation = 5th group = bucket 14's bound.
        assert_eq!(s.quantile(0.5), bucket_upper_bound(14));
        // p95 lands in the last group (bucket 19), p100 = max.
        assert_eq!(s.quantile(0.95), bucket_upper_bound(19));
        assert_eq!(s.quantile(1.0), bucket_upper_bound(19));
        assert_eq!(s.min, MIN_BOUND * 2f64.powi(10));
        assert_eq!(s.max, MIN_BOUND * 2f64.powi(19));
    }

    #[test]
    fn quantile_clamps_to_observed_range() {
        let h = Histogram::new();
        h.record(3e-9); // bucket 2, upper bound 4e-9 > max
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 3e-9);
        assert_eq!(s.quantile(0.99), 3e-9);
        assert_eq!(s.mean(), 3e-9);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        // Every quantile of an empty distribution is 0, including the
        // extremes — no NaNs, no panics.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0.0, "q={q}");
        }
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::new();
        h.record(0.037);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0.037, "q={q}");
        }
        assert_eq!(s.mean(), 0.037);
        assert_eq!(s.min, 0.037);
        assert_eq!(s.max, 0.037);
    }

    #[test]
    fn all_samples_in_overflow_bucket_report_max() {
        // Everything past the last finite bound lands in the +inf bucket;
        // quantiles cannot use a bucket bound there and must fall back to
        // the observed max (finite, not +inf).
        let h = Histogram::new();
        let huge = bucket_upper_bound(BUCKETS - 2) * 4.0;
        for k in 0..10 {
            h.record(huge * (1.0 + k as f64));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.buckets[BUCKETS - 1], 10, "all in overflow");
        assert_eq!(s.buckets[..BUCKETS - 1].iter().sum::<u64>(), 0);
        for q in [0.1, 0.5, 0.99, 1.0] {
            let v = s.quantile(q);
            assert!(v.is_finite(), "q={q} gave {v}");
            assert_eq!(v, s.max, "q={q}");
        }
        assert_eq!(s.max, huge * 10.0);
    }

    #[test]
    fn live_merge_combines_ranks() {
        let local = Histogram::new();
        local.record(0.5);
        let remote = Histogram::new();
        remote.record(2.0);
        remote.record(8.0);
        local.merge(&remote.snapshot()).unwrap();
        let s = local.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.sum, 10.5);
    }

    #[test]
    fn live_merge_rejects_foreign_bucket_layout() {
        let h = Histogram::new();
        h.record(1.0);
        let alien = HistogramSnapshot {
            buckets: vec![1; 16],
            count: 1,
            sum: 1.0,
            min: 1.0,
            max: 1.0,
        };
        let err = h.merge(&alien).unwrap_err();
        assert_eq!(
            err,
            MergeError::BucketMismatch {
                expected: BUCKETS,
                got: 16
            }
        );
        assert!(err.to_string().contains("expected 64 buckets, got 16"));
        // The refused merge left the histogram untouched.
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn live_merge_accepts_empty_snapshot_of_any_shape() {
        let h = Histogram::new();
        h.record(1.0);
        let empty = HistogramSnapshot::default(); // zero buckets, zero count
        h.merge(&empty).unwrap();
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn try_merge_rejects_mismatched_nonempty_snapshots() {
        let mut a = HistogramSnapshot {
            buckets: vec![1; 8],
            count: 1,
            sum: 1.0,
            min: 1.0,
            max: 1.0,
        };
        let b = HistogramSnapshot {
            buckets: vec![1; 4],
            count: 1,
            sum: 2.0,
            min: 2.0,
            max: 2.0,
        };
        assert_eq!(
            a.try_merge(&b).unwrap_err(),
            MergeError::BucketMismatch {
                expected: 8,
                got: 4
            }
        );
        // Identity cases still succeed: empty other, or empty self.
        a.try_merge(&HistogramSnapshot::default()).unwrap();
        let mut fresh = HistogramSnapshot::default();
        fresh.try_merge(&b).unwrap();
        assert_eq!(fresh.count, 1);
    }

    #[test]
    fn quantiles_stable_under_merge() {
        // Quantile estimates after merging two halves equal the estimates
        // of recording the whole stream into one histogram — the property
        // a cross-rank aggregation needs to report honest p95s.
        let evens: Vec<f64> = (10..20)
            .step_by(2)
            .map(|k| MIN_BOUND * 2f64.powi(k))
            .collect();
        let odds: Vec<f64> = (11..20)
            .step_by(2)
            .map(|k| MIN_BOUND * 2f64.powi(k))
            .collect();
        let mut merged = snap_of(&evens);
        merged.try_merge(&snap_of(&odds)).unwrap();
        let all: Vec<f64> = evens.iter().chain(odds.iter()).copied().collect();
        let whole = snap_of(&all);
        for q in [0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    fn snap_of(values: &[f64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    proptest! {
        /// Merging is associative: bucket counts, count, min and max are
        /// exactly equal; the floating-point sum agrees within rounding.
        #[test]
        fn merge_is_associative(
            a in proptest::collection::vec(1e-9f64..1e3, 0..40),
            b in proptest::collection::vec(1e-9f64..1e3, 0..40),
            c in proptest::collection::vec(1e-9f64..1e3, 0..40),
        ) {
            let (sa, sb, sc) = (snap_of(&a), snap_of(&b), snap_of(&c));

            let mut left = sa.clone();
            left.merge(&sb);
            left.merge(&sc);

            let mut bc = sb.clone();
            bc.merge(&sc);
            let mut right = sa.clone();
            right.merge(&bc);

            prop_assert_eq!(&left.buckets, &right.buckets);
            prop_assert_eq!(left.count, right.count);
            prop_assert_eq!(left.min, right.min);
            prop_assert_eq!(left.max, right.max);
            let tol = 1e-9 * (1.0 + left.sum.abs());
            prop_assert!((left.sum - right.sum).abs() <= tol,
                "sums diverged: {} vs {}", left.sum, right.sum);
        }

        /// Merging all parts equals recording everything in one histogram
        /// (counter semantics: plain addition).
        #[test]
        fn merge_equals_single_recording(
            a in proptest::collection::vec(1e-9f64..1e3, 0..40),
            b in proptest::collection::vec(1e-9f64..1e3, 0..40),
        ) {
            let mut merged = snap_of(&a);
            merged.merge(&snap_of(&b));
            let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
            let whole = snap_of(&all);
            prop_assert_eq!(&merged.buckets, &whole.buckets);
            prop_assert_eq!(merged.count, whole.count);
            prop_assert_eq!(merged.min, whole.min);
            prop_assert_eq!(merged.max, whole.max);
        }
    }
}
