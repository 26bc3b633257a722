//! Sequential reference implementations used to verify the distributed
//! kernels. Deliberately simple and obviously correct.

/// In-place LU factorization without pivoting: `a` (row-major `n × n`)
/// becomes `L\U` with unit lower diagonal. The distributed kernels operate
/// on diagonally dominant matrices, for which pivot-free LU is stable.
pub fn lu_nopivot(a: &mut [f64], n: usize) {
    assert_eq!(a.len(), n * n);
    for k in 0..n {
        let pivot = a[k * n + k];
        assert!(
            pivot.abs() > 1e-300,
            "zero pivot at {k}; matrix not diagonally dominant?"
        );
        for i in (k + 1)..n {
            a[i * n + k] /= pivot;
            let lik = a[i * n + k];
            for j in (k + 1)..n {
                a[i * n + j] -= lik * a[k * n + j];
            }
        }
    }
}

/// Dense row-major matrix multiply `c = a * b` for `n × n`.
pub fn matmul(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// One Jacobi sweep on `Ax = b`: returns the updated `x`.
pub fn jacobi_sweep(a: &[f64], b: &[f64], x: &[f64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n];
    for i in 0..n {
        let mut s = 0.0;
        for j in 0..n {
            if j != i {
                s += a[i * n + j] * x[j];
            }
        }
        out[i] = (b[i] - s) / a[i * n + i];
    }
    out
}

/// Direct O(n²) DFT of a complex sequence (reference for FFT tests).
pub fn dft(re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = re.len();
    let mut or_ = vec![0.0; n];
    let mut oi = vec![0.0; n];
    for k in 0..n {
        for t in 0..n {
            let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            let (s, c) = ang.sin_cos();
            or_[k] += re[t] * c - im[t] * s;
            oi[k] += re[t] * s + im[t] * c;
        }
    }
    (or_, oi)
}

/// Iterative radix-2 Cooley–Tukey FFT, in place. `n` must be a power of two.
pub fn fft_inplace(re: &mut [f64], im: &mut [f64], inverse: bool) {
    let n = re.len();
    assert_eq!(n, im.len());
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (wsin, wcos) = ang.sin_cos();
        for start in (0..n).step_by(len) {
            let mut wr = 1.0;
            let mut wi = 0.0;
            for k in 0..len / 2 {
                let (er, ei) = (re[start + k], im[start + k]);
                let (or_, oi) = (re[start + k + len / 2], im[start + k + len / 2]);
                let tr = or_ * wr - oi * wi;
                let ti = or_ * wi + oi * wr;
                re[start + k] = er + tr;
                im[start + k] = ei + ti;
                re[start + k + len / 2] = er - tr;
                im[start + k + len / 2] = ei - ti;
                let nwr = wr * wcos - wi * wsin;
                wi = wr * wsin + wi * wcos;
                wr = nwr;
            }
        }
        len <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f64;
        for v in re.iter_mut() {
            *v *= inv;
        }
        for v in im.iter_mut() {
            *v *= inv;
        }
    }
}

/// A reproducible diagonally dominant test matrix.
pub fn test_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            if i != j {
                let v = next();
                a[i * n + j] = v;
                row_sum += v.abs();
            }
        }
        a[i * n + i] = row_sum + 1.0; // strict diagonal dominance
    }
    a
}

/// The same matrix element-by-element, for distributed `from_fn` builders.
/// Must agree exactly with [`test_matrix`].
pub fn test_matrix_at(n: usize, seed: u64) -> impl Fn(usize, usize) -> f64 {
    let full = test_matrix(n, seed);
    move |i, j| full[i * n + j]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_reconstructs_matrix() {
        let n = 12;
        let a0 = test_matrix(n, 7);
        let mut a = a0.clone();
        lu_nopivot(&mut a, n);
        // Rebuild A = L * U and compare.
        let mut rebuilt = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { a[i * n + k] };
                    let u = if k <= j { a[k * n + j] } else { 0.0 };
                    if k <= i {
                        s += l * u;
                    }
                }
                rebuilt[i * n + j] = s;
            }
        }
        for (x, y) in rebuilt.iter().zip(&a0) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn jacobi_converges_on_dominant_system() {
        let n = 16;
        let a = test_matrix(n, 3);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a[i * n + j] * x_true[j]).sum())
            .collect();
        let mut x = vec![0.0; n];
        for _ in 0..200 {
            x = jacobi_sweep(&a, &b, &x, n);
        }
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8, "{xi} vs {ti}");
        }
    }

    #[test]
    fn fft_matches_dft() {
        let n = 32;
        let re0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let im0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
        let (dr, di) = dft(&re0, &im0);
        let mut re = re0.clone();
        let mut im = im0.clone();
        fft_inplace(&mut re, &mut im, false);
        for k in 0..n {
            assert!((re[k] - dr[k]).abs() < 1e-9, "re[{k}]");
            assert!((im[k] - di[k]).abs() < 1e-9, "im[{k}]");
        }
    }

    #[test]
    fn fft_round_trip() {
        let n = 64;
        let re0: Vec<f64> = (0..n).map(|i| (i * i % 17) as f64).collect();
        let im0 = vec![0.0; n];
        let mut re = re0.clone();
        let mut im = im0.clone();
        fft_inplace(&mut re, &mut im, false);
        fft_inplace(&mut re, &mut im, true);
        for k in 0..n {
            assert!((re[k] - re0[k]).abs() < 1e-9);
            assert!(im[k].abs() < 1e-9);
        }
    }

    #[test]
    fn matmul_identity() {
        let n = 8;
        let a = test_matrix(n, 1);
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        assert_eq!(matmul(&a, &eye, n), a);
    }

    #[test]
    fn test_matrix_is_deterministic_and_dominant() {
        let a = test_matrix(10, 42);
        let b = test_matrix(10, 42);
        assert_eq!(a, b);
        let f = test_matrix_at(10, 42);
        assert_eq!(f(3, 7), a[37]);
        for i in 0..10 {
            let off: f64 = (0..10)
                .filter(|&j| j != i)
                .map(|j| a[i * 10 + j].abs())
                .sum();
            assert!(a[i * 10 + i] > off);
        }
    }
}
