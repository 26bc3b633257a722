//! Distributed 2-D FFT (paper Table 1: "A 2D fast fourier transform
//! application used for image transformation").
//!
//! The `n × n` complex image (separate re/im planes) is distributed in
//! block-cyclic column panels over a `1 × P` grid, so each column is fully
//! local. A 2-D transform is: FFT every column, transpose (the
//! all-to-all-personalized exchange that dominates communication), FFT
//! every column again, and transpose back so the result has the natural
//! orientation.

use reshape_blockcyclic::{g2l, l2g, numroc, DistMatrix};
use reshape_grid::GridContext;

use crate::seq::fft_inplace;

/// Transpose a square block-cyclic matrix on a `1 × P` grid, returning a
/// matrix with the same descriptor. Collective.
pub fn transpose(grid: &GridContext, m: &DistMatrix<f64>) -> DistMatrix<f64> {
    let d = m.desc;
    assert_eq!(d.m, d.n, "transpose here is square-only");
    assert_eq!(d.nprow, 1, "transpose expects a 1-D column distribution");
    let n = d.n;
    let p = d.npcol;
    let comm = grid.comm();
    let me = grid.mycol();
    let lcols = m.local_cols();

    // Element (i, gj) moves to (gj, i): its new owner is the owner of
    // column i. Send buckets ordered by (i ascending, local j ascending) —
    // the receiver reconstructs the order from the block-cyclic maps.
    let mut buckets: Vec<Vec<f64>> = (0..p).map(|_| Vec::new()).collect();
    for i in 0..n {
        let (dst, _) = g2l(i, d.nb, p);
        let bucket = &mut buckets[dst];
        for lj in 0..lcols {
            bucket.push(m.get_local(i, lj));
        }
    }
    let received = comm.alltoallv(&buckets);

    let mut out = DistMatrix::<f64>::new(d, 0, me);
    let my_cols = numroc(n, d.nb, me, p);
    for (src, data) in received.iter().enumerate() {
        // src sent, for each i I own (ascending), its columns gj (ascending
        // local order): value lands at out[gj, local(i)].
        let src_cols = numroc(n, d.nb, src, p);
        let mut idx = 0;
        for li_of_i in 0..my_cols {
            let i = l2g(li_of_i, d.nb, me, p);
            debug_assert_eq!(g2l(i, d.nb, p).0, me);
            for src_lj in 0..src_cols {
                let gj = l2g(src_lj, d.nb, src, p);
                out.set_local(gj, li_of_i, data[idx]);
                idx += 1;
            }
        }
        assert_eq!(idx, data.len(), "transpose payload from {src} mismatched");
    }
    out
}

/// In-place-ish distributed 2-D FFT of the complex plane `(re, im)`.
/// `inverse` selects the inverse transform (with 1/n² normalization
/// applied through the two 1-D passes). Collective.
pub fn fft2d(
    grid: &GridContext,
    re: &mut DistMatrix<f64>,
    im: &mut DistMatrix<f64>,
    inverse: bool,
) {
    let d = re.desc;
    assert_eq!(im.desc, d, "re/im planes must share a distribution");
    assert_eq!(d.nprow, 1, "fft2d expects a 1-D column distribution");
    assert!(d.m.is_power_of_two(), "image side must be a power of two");

    let n = d.m;
    let mut col_re = vec![0.0; n];
    let mut col_im = vec![0.0; n];
    let mut pass = |re: &mut DistMatrix<f64>, im: &mut DistMatrix<f64>| {
        let lcols = re.local_cols();
        for lj in 0..lcols {
            for i in 0..n {
                col_re[i] = re.get_local(i, lj);
                col_im[i] = im.get_local(i, lj);
            }
            fft_inplace(&mut col_re, &mut col_im, inverse);
            for i in 0..n {
                re.set_local(i, lj, col_re[i]);
                im.set_local(i, lj, col_im[i]);
            }
        }
    };

    // Columns, transpose, columns (now transforming the original rows),
    // transpose back.
    pass(re, im);
    *re = transpose(grid, re);
    *im = transpose(grid, im);
    pass(re, im);
    *re = transpose(grid, re);
    *im = transpose(grid, im);
}

/// Modeled floating-point work of one 2-D FFT: `10 · n² · log2(n)`
/// (5 flops per butterfly, two 1-D passes over n² points).
pub fn fft_flops(n: usize) -> f64 {
    10.0 * (n as f64).powi(2) * (n as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use reshape_blockcyclic::Descriptor;
    use reshape_mpisim::{NetModel, Universe};

    fn image(n: usize) -> (Vec<f64>, Vec<f64>) {
        let re: Vec<f64> = (0..n * n)
            .map(|x| ((x * 37 + 11) % 101) as f64 / 50.0 - 1.0)
            .collect();
        let im: Vec<f64> = (0..n * n)
            .map(|x| ((x * 17 + 3) % 89) as f64 / 44.0 - 1.0)
            .collect();
        (re, im)
    }

    /// Sequential reference 2-D DFT (columns then rows, matching fft2d's
    /// final orientation).
    fn dft2d(re: &[f64], im: &[f64], n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut tr = vec![0.0; n * n];
        let mut ti = vec![0.0; n * n];
        // Column transforms.
        for j in 0..n {
            let col_r: Vec<f64> = (0..n).map(|i| re[i * n + j]).collect();
            let col_i: Vec<f64> = (0..n).map(|i| im[i * n + j]).collect();
            let (fr, fi) = seq::dft(&col_r, &col_i);
            for i in 0..n {
                tr[i * n + j] = fr[i];
                ti[i * n + j] = fi[i];
            }
        }
        // Row transforms.
        let mut or_ = vec![0.0; n * n];
        let mut oi = vec![0.0; n * n];
        for i in 0..n {
            let (fr, fi) = seq::dft(&tr[i * n..(i + 1) * n], &ti[i * n..(i + 1) * n]);
            or_[i * n..(i + 1) * n].copy_from_slice(&fr);
            oi[i * n..(i + 1) * n].copy_from_slice(&fi);
        }
        (or_, oi)
    }

    fn check_fft(n: usize, nb: usize, p: usize) {
        Universe::new(p, 1, NetModel::ideal())
            .launch(p, None, "fft", move |comm| {
                let grid = GridContext::new(&comm, 1, p);
                let d = Descriptor::new(n, n, n, nb, 1, p);
                let (re_full, im_full) = image(n);
                let rf = re_full.clone();
                let if_ = im_full.clone();
                let mut re = DistMatrix::from_fn(d, 0, grid.mycol(), move |i, j| rf[i * n + j]);
                let mut im = DistMatrix::from_fn(d, 0, grid.mycol(), move |i, j| if_[i * n + j]);
                fft2d(&grid, &mut re, &mut im, false);
                let gr = re.gather(&grid);
                let gi = im.gather(&grid);
                if comm.rank() == 0 {
                    let (gr, gi) = (gr.unwrap(), gi.unwrap());
                    let (er, ei) = dft2d(&re_full, &im_full, n);
                    for k in 0..n * n {
                        assert!(
                            (gr[k] - er[k]).abs() < 1e-6 && (gi[k] - ei[k]).abs() < 1e-6,
                            "fft2d mismatch at {k}: ({}, {}) vs ({}, {})",
                            gr[k],
                            gi[k],
                            er[k],
                            ei[k]
                        );
                    }
                }
            })
            .join_ok();
    }

    #[test]
    fn transpose_round_trip_and_correctness() {
        let n = 16;
        let p = 4;
        Universe::new(p, 1, NetModel::ideal())
            .launch(p, None, "transpose", move |comm| {
                let grid = GridContext::new(&comm, 1, p);
                let d = Descriptor::new(n, n, n, 2, 1, p);
                let m = DistMatrix::from_fn(d, 0, grid.mycol(), |i, j| (i * n + j) as f64);
                let t = transpose(&grid, &m);
                // Check t[i,j] == m[j,i] on owned elements.
                for lj in 0..t.local_cols() {
                    let gj = d.local_to_global_col(lj, grid.mycol());
                    for i in 0..n {
                        assert_eq!(t.get_local(i, lj), (gj * n + i) as f64);
                    }
                }
                let back = transpose(&grid, &t);
                assert_eq!(back.local_data(), m.local_data());
            })
            .join_ok();
    }

    #[test]
    fn matches_reference_single_process() {
        check_fft(8, 2, 1);
    }

    #[test]
    fn matches_reference_two_processes() {
        check_fft(16, 2, 2);
    }

    #[test]
    fn matches_reference_four_processes() {
        check_fft(16, 4, 4);
    }

    #[test]
    fn forward_inverse_round_trip() {
        let n = 32;
        let p = 4;
        Universe::new(p, 1, NetModel::ideal())
            .launch(p, None, "fft-rt", move |comm| {
                let grid = GridContext::new(&comm, 1, p);
                let d = Descriptor::new(n, n, n, 4, 1, p);
                let mut re =
                    DistMatrix::from_fn(d, 0, grid.mycol(), |i, j| ((i * 7 + j * 3) % 23) as f64);
                let mut im = DistMatrix::<f64>::new(d, 0, grid.mycol());
                let re0 = re.local_data().to_vec();
                fft2d(&grid, &mut re, &mut im, false);
                fft2d(&grid, &mut re, &mut im, true);
                for (a, b) in re.local_data().iter().zip(&re0) {
                    assert!((a - b).abs() < 1e-8, "{a} vs {b}");
                }
                for v in im.local_data() {
                    assert!(v.abs() < 1e-8);
                }
            })
            .join_ok();
    }
}
