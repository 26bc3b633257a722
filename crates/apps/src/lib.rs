//! # reshape-apps — the paper's five workload applications
//!
//! Table 1 of the ReSHAPE paper evaluates five iterative applications; all
//! five are implemented here over the simulated MPI substrate and verified
//! against sequential references:
//!
//! | Paper | Here |
//! |---|---|
//! | LU factorization (`PDGETRF`) | [`lu::lu_factorize`] (pivot-free; no pivoted variant ships) |
//! | Matrix multiplication (`PDGEMM`) | [`mm::summa`] |
//! | Synthetic master–worker | [`masterworker::master_worker_round`] |
//! | Iterative dense Jacobi solver | [`jacobi::jacobi_sweep`] |
//! | 2-D FFT image transform | [`fft::fft2d`] |
//!
//! The `*_app` factories wrap each kernel as a resizable
//! [`AppDef`]: one outer iteration performs
//! the kernel on genuinely distributed data *and* advances the virtual
//! clock by a modeled compute time `flops / (rate · p)`, so schedulers see
//! realistic iteration-time scaling even at test-size problems while all
//! data movement (panel broadcasts, allreduces, transposes,
//! redistributions) is real.

pub mod fft;
pub mod jacobi;
pub mod lu;
pub mod masterworker;
pub mod mm;
pub mod seq;

use reshape_blockcyclic::{Descriptor, DistMatrix};
use reshape_core::driver::AppDef;

/// Effective per-processor compute rate (flops/s) used for modeled compute
/// time. Roughly a PowerPC 970's sustained DGEMM rate, matching the paper's
/// System X nodes.
pub const DEFAULT_RATE: f64 = 1.5e9;

/// Cheap strictly-diagonally-dominant element generator (no global
/// materialization, usable at any problem size).
pub fn dominant_elem(n: usize) -> impl Fn(usize, usize) -> f64 + Clone + Send + Sync + 'static {
    move |i, j| {
        if i == j {
            n as f64
        } else {
            // Pseudo-random in [-0.5, 0.5), deterministic in (i, j).
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((j as u64).wrapping_mul(0xC2B2AE3D27D4EB4F));
            let h = (h ^ (h >> 29)).wrapping_mul(0xBF58476D1CE4E5B9);
            ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        }
    }
}

/// Overwrite a distributed matrix's local panel from a global-index
/// formula.
pub fn refill(m: &mut DistMatrix<f64>, f: impl Fn(usize, usize) -> f64) {
    let d = m.desc;
    let (pr, pc) = (m.myrow, m.mycol);
    for li in 0..m.local_rows() {
        let gi = d.local_to_global_row(li, pr);
        for lj in 0..m.local_cols() {
            let gj = d.local_to_global_col(lj, pc);
            m.set_local(li, lj, f(gi, gj));
        }
    }
}

/// Resizable LU workload: each outer iteration performs one full
/// factorization of a fresh `n × n` matrix (paper: "a single job consisted
/// of ten iterations of the task, e.g., ten LU factorizations").
pub fn lu_app(n: usize, nb: usize, rate: f64) -> AppDef {
    let elem = dominant_elem(n);
    let init_elem = elem.clone();
    AppDef::new(
        move |grid| {
            let desc = Descriptor::square(n, nb, grid.nprow(), grid.npcol());
            vec![DistMatrix::from_fn(
                desc,
                grid.myrow(),
                grid.mycol(),
                &init_elem,
            )]
        },
        move |grid, mats, _iter| {
            refill(&mut mats[0], &elem);
            lu::lu_factorize(grid, &mut mats[0]);
            let p = (grid.nprow() * grid.npcol()) as f64;
            grid.comm().advance(lu::lu_flops(n) / (rate * p));
            if grid.comm().rank() == 0 {
                reshape_telemetry::incr("apps.iterations.lu", 1);
            }
        },
    )
}

/// Resizable matrix-multiplication workload (`C = A · B` per iteration).
pub fn mm_app(n: usize, nb: usize, rate: f64) -> AppDef {
    let elem = dominant_elem(n);
    let init_elem = elem.clone();
    AppDef::new(
        move |grid| {
            let desc = Descriptor::square(n, nb, grid.nprow(), grid.npcol());
            let a = DistMatrix::from_fn(desc, grid.myrow(), grid.mycol(), &init_elem);
            let b = DistMatrix::from_fn(desc, grid.myrow(), grid.mycol(), |i, j| init_elem(j, i));
            let c = DistMatrix::new(desc, grid.myrow(), grid.mycol());
            vec![a, b, c]
        },
        move |grid, mats, _iter| {
            let (ab, c) = mats.split_at_mut(2);
            refill(&mut c[0], |_, _| 0.0);
            mm::summa(grid, &ab[0], &ab[1], &mut c[0]);
            let p = (grid.nprow() * grid.npcol()) as f64;
            grid.comm().advance(mm::mm_flops(n) / (rate * p));
            if grid.comm().rank() == 0 {
                reshape_telemetry::incr("apps.iterations.mm", 1);
            }
        },
    )
}

/// Resizable Jacobi workload: the iterate `x` persists (and is
/// redistributed) across resizes; each outer iteration is a fixed number of
/// sweeps.
pub fn jacobi_app(n: usize, nb: usize, sweeps_per_iter: usize, rate: f64) -> AppDef {
    let elem = dominant_elem(n);
    let init_elem = elem.clone();
    AppDef::new(
        move |grid| {
            let p = grid.npcol();
            let a_desc = Descriptor::new(n, n, n, nb, 1, p);
            let v_desc = Descriptor::new(1, n, 1, nb, 1, p);
            let a = DistMatrix::from_fn(a_desc, 0, grid.mycol(), &init_elem);
            let b = DistMatrix::from_fn(v_desc, 0, grid.mycol(), |_, j| (j % 13) as f64 - 6.0);
            let x = DistMatrix::new(v_desc, 0, grid.mycol());
            vec![a, x, b]
        },
        move |grid, mats, _iter| {
            let (a, rest) = mats.split_at_mut(1);
            let (x, b) = rest.split_at_mut(1);
            for _ in 0..sweeps_per_iter {
                jacobi::jacobi_sweep(grid, &a[0], &mut x[0], &b[0]);
            }
            let p = (grid.nprow() * grid.npcol()) as f64;
            grid.comm()
                .advance(sweeps_per_iter as f64 * jacobi::jacobi_flops(n) / (rate * p));
            if grid.comm().rank() == 0 {
                reshape_telemetry::incr("apps.iterations.jacobi", 1);
            }
        },
    )
}

/// Resizable 2-D FFT workload: each outer iteration transforms a fresh
/// `n × n` image (forward).
pub fn fft_app(n: usize, nb: usize, rate: f64) -> AppDef {
    AppDef::new(
        move |grid| {
            let p = grid.npcol();
            let d = Descriptor::new(n, n, n, nb, 1, p);
            let re = DistMatrix::from_fn(d, 0, grid.mycol(), |i, j| {
                ((i * 31 + j * 7) % 251) as f64 / 125.0 - 1.0
            });
            let im = DistMatrix::new(d, 0, grid.mycol());
            vec![re, im]
        },
        move |grid, mats, _iter| {
            let (re, im) = mats.split_at_mut(1);
            refill(&mut im[0], |_, _| 0.0);
            refill(&mut re[0], |i, j| {
                ((i * 31 + j * 7) % 251) as f64 / 125.0 - 1.0
            });
            fft::fft2d(grid, &mut re[0], &mut im[0], false);
            let p = (grid.nprow() * grid.npcol()) as f64;
            grid.comm().advance(fft::fft_flops(n) / (rate * p));
            if grid.comm().rank() == 0 {
                reshape_telemetry::incr("apps.iterations.fft", 1);
            }
        },
    )
}

/// Resizable master–worker workload: no global data, `units` fixed-time
/// work units per iteration.
pub fn mw_app(units: usize, unit_time: f64, chunk: usize) -> AppDef {
    AppDef::new(
        |_grid| Vec::new(),
        move |grid, _mats, _iter| {
            masterworker::master_worker_round(grid.comm(), units, unit_time, chunk);
            if grid.comm().rank() == 0 {
                reshape_telemetry::incr("apps.iterations.mw", 1);
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominant_elem_is_dominant_and_deterministic() {
        let f = dominant_elem(100);
        let g = dominant_elem(100);
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(f(i, j), g(i, j));
                if i != j {
                    assert!(f(i, j).abs() <= 0.5);
                } else {
                    assert_eq!(f(i, j), 100.0);
                }
            }
        }
    }

    #[test]
    fn refill_covers_local_panel() {
        let d = Descriptor::square(8, 2, 2, 2);
        let mut m = DistMatrix::<f64>::new(d, 1, 0);
        refill(&mut m, |i, j| (i * 8 + j) as f64);
        for li in 0..m.local_rows() {
            let gi = d.local_to_global_row(li, 1);
            for lj in 0..m.local_cols() {
                let gj = d.local_to_global_col(lj, 0);
                assert_eq!(m.get_local(li, lj), (gi * 8 + gj) as f64);
            }
        }
    }
}
