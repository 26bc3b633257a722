//! Median and quartiles, self-contained so the benchmark does not depend
//! on `reshape-perfbase`. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! the rule the accepting driver applies to run-to-run spread.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)`. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let q = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        // Computed after the clamp, as Python does: it may leave 0..=4.
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `p` in `[0, 1]`: nearest-rank percentile (0 for no samples).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n => v[((n - 1) as f64 * p).round() as usize],
    }
}

/// `p` in `[0, 1]`: nearest-rank percentile of unsorted integer samples.
pub fn percentile_u32(samples: &mut [u32], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let k = ((samples.len() - 1) as f64 * p).round() as usize;
    *samples.select_nth_unstable(k).1 as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([5, 1, 9, 2, 7], n=4) == [1.5, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 2.0, 7.0]), (1.5, 5.0, 8.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), 3.0);
    }
}
