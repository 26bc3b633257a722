//! Distributed blocked LU factorization (the paper's `PDGETRF` workload).
//!
//! Right-looking LU over a 2-D block-cyclic matrix with square `nb × nb`
//! blocks: at step `k` the owner of diagonal block `(k,k)` factors it and
//! broadcasts it along its process row and column; the owning process
//! column forms the `L` panel, the owning row forms the `U` panel; panels
//! are broadcast row-/column-wise and every process updates its trailing
//! blocks. Pivoting is omitted (the workloads use strictly diagonally
//! dominant matrices, for which pivot-free LU is stable) — the
//! communication structure, which is what ReSHAPE's experiments measure,
//! matches the pivoted ScaLAPACK routine.

use reshape_blockcyclic::DistMatrix;
use reshape_grid::GridContext;

/// Factor the diagonal block in place (no pivoting).
fn factor_diag(a: &mut [f64], nb: usize) {
    for k in 0..nb {
        let pivot = a[k * nb + k];
        for i in (k + 1)..nb {
            a[i * nb + k] /= pivot;
            let l = a[i * nb + k];
            for j in (k + 1)..nb {
                a[i * nb + j] -= l * a[k * nb + j];
            }
        }
    }
}

/// Solve `X · U = A` for X (U upper triangular, non-unit) in place.
fn trsm_right_upper(a: &mut [f64], u: &[f64], nb: usize) {
    for r in 0..nb {
        for c in 0..nb {
            let mut s = a[r * nb + c];
            for t in 0..c {
                s -= a[r * nb + t] * u[t * nb + c];
            }
            a[r * nb + c] = s / u[c * nb + c];
        }
    }
}

/// Solve `L · Y = A` for Y (L unit lower triangular) in place.
fn trsm_left_unit_lower(a: &mut [f64], l: &[f64], nb: usize) {
    for c in 0..nb {
        for r in 0..nb {
            let mut s = a[r * nb + c];
            for t in 0..r {
                s -= l[r * nb + t] * a[t * nb + c];
            }
            a[r * nb + c] = s;
        }
    }
}

/// `C -= A · B` for `nb × nb` blocks.
fn gemm_sub(c: &mut [f64], a: &[f64], b: &[f64], nb: usize) {
    for i in 0..nb {
        for k in 0..nb {
            let aik = a[i * nb + k];
            if aik == 0.0 {
                continue;
            }
            let crow = &mut c[i * nb..(i + 1) * nb];
            let brow = &b[k * nb..(k + 1) * nb];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv -= aik * bv;
            }
        }
    }
}

/// My local trailing block-row indices `> k`.
fn my_block_rows(n_blocks: usize, k: usize, nprow: usize, myrow: usize) -> Vec<usize> {
    ((k + 1)..n_blocks)
        .filter(|bi| bi % nprow == myrow)
        .collect()
}

fn my_block_cols(n_blocks: usize, k: usize, npcol: usize, mycol: usize) -> Vec<usize> {
    ((k + 1)..n_blocks)
        .filter(|bj| bj % npcol == mycol)
        .collect()
}

/// In-place distributed LU factorization: on return `a` holds `L\U` (unit
/// lower diagonal). Collective over `grid`.
///
/// # Panics
///
/// Requires a square matrix with square blocks and `n % nb == 0` (the
/// paper's experiments enforce exactly this divisibility, Table 2).
pub fn lu_factorize(grid: &GridContext, a: &mut DistMatrix<f64>) {
    let d = a.desc;
    assert_eq!(d.m, d.n, "LU needs a square matrix");
    assert_eq!(d.mb, d.nb, "LU needs square blocks");
    assert_eq!(d.m % d.nb, 0, "block size must divide the matrix");
    assert_eq!((d.nprow, d.npcol), (grid.nprow(), grid.npcol()));
    let nb = d.nb;
    let n_blocks = d.m / nb;
    let (myrow, mycol) = (grid.myrow(), grid.mycol());

    for k in 0..n_blocks {
        let prow = k % d.nprow;
        let pcol = k % d.npcol;
        let i_own_diag = (myrow, mycol) == (prow, pcol);

        // Step 1: factor the diagonal block and share it with the owning
        // process column (for the L panel) and row (for the U panel).
        let diag = if i_own_diag {
            let mut blk = a.get_block(k, k);
            factor_diag(&mut blk, nb);
            a.set_block(k, k, &blk);
            blk
        } else {
            Vec::new()
        };
        let diag_for_col = if mycol == pcol {
            grid.col_bcast(prow, &diag)
        } else {
            Vec::new()
        };
        let diag_for_row = if myrow == prow {
            grid.row_bcast(pcol, &diag)
        } else {
            Vec::new()
        };

        // Step 2: L panel on the owning process column.
        let l_rows = my_block_rows(n_blocks, k, d.nprow, myrow);
        if mycol == pcol {
            for &bi in &l_rows {
                let mut blk = a.get_block(bi, k);
                trsm_right_upper(&mut blk, &diag_for_col, nb);
                a.set_block(bi, k, &blk);
            }
        }

        // Step 3: U panel on the owning process row.
        let u_cols = my_block_cols(n_blocks, k, d.npcol, mycol);
        if myrow == prow {
            for &bj in &u_cols {
                let mut blk = a.get_block(k, bj);
                trsm_left_unit_lower(&mut blk, &diag_for_row, nb);
                a.set_block(k, bj, &blk);
            }
        }

        // Step 4: broadcast the panels. Each process receives exactly the
        // L blocks for its local block rows (they live in its process row)
        // and the U blocks for its local block columns.
        let l_panel: Vec<f64> = if mycol == pcol {
            let mut buf = Vec::with_capacity(l_rows.len() * nb * nb);
            for &bi in &l_rows {
                buf.extend_from_slice(&a.get_block(bi, k));
            }
            grid.row_bcast(pcol, &buf)
        } else {
            grid.row_bcast(pcol, &[])
        };
        let u_panel: Vec<f64> = if myrow == prow {
            let mut buf = Vec::with_capacity(u_cols.len() * nb * nb);
            for &bj in &u_cols {
                buf.extend_from_slice(&a.get_block(k, bj));
            }
            grid.col_bcast(prow, &buf)
        } else {
            grid.col_bcast(prow, &[])
        };
        assert_eq!(l_panel.len(), l_rows.len() * nb * nb, "L panel size");
        assert_eq!(u_panel.len(), u_cols.len() * nb * nb, "U panel size");

        // Step 5: trailing update of every local block (bi > k, bj > k).
        for (ri, &bi) in l_rows.iter().enumerate() {
            let l_blk = &l_panel[ri * nb * nb..(ri + 1) * nb * nb];
            for (ci, &bj) in u_cols.iter().enumerate() {
                let u_blk = &u_panel[ci * nb * nb..(ci + 1) * nb * nb];
                let mut c_blk = a.get_block(bi, bj);
                gemm_sub(&mut c_blk, l_blk, u_blk, nb);
                a.set_block(bi, bj, &c_blk);
            }
        }
    }
}

/// Modeled floating-point work of one LU factorization (for virtual-time
/// accounting): `2/3 · n³`.
pub fn lu_flops(n: usize) -> f64 {
    2.0 / 3.0 * (n as f64).powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use reshape_blockcyclic::Descriptor;
    use reshape_mpisim::{NetModel, Universe};

    fn check_lu(n: usize, nb: usize, pr: usize, pc: usize, seed: u64) {
        let p = pr * pc;
        Universe::new(p, 1, NetModel::ideal())
            .launch(p, None, "lu", move |comm| {
                let grid = GridContext::new(&comm, pr, pc);
                let desc = Descriptor::square(n, nb, pr, pc);
                let f = seq::test_matrix_at(n, seed);
                let mut a = DistMatrix::from_fn(desc, grid.myrow(), grid.mycol(), f);
                lu_factorize(&grid, &mut a);
                let full = a.gather(&grid);
                if comm.rank() == 0 {
                    let full = full.unwrap();
                    let mut reference = seq::test_matrix(n, seed);
                    seq::lu_nopivot(&mut reference, n);
                    for i in 0..n {
                        for j in 0..n {
                            let (x, y) = (full[i * n + j], reference[i * n + j]);
                            assert!(
                                (x - y).abs() < 1e-8 * (1.0 + y.abs()),
                                "LU mismatch at ({i},{j}): {x} vs {y}"
                            );
                        }
                    }
                }
            })
            .join_ok();
    }

    #[test]
    fn matches_sequential_on_single_process() {
        check_lu(16, 4, 1, 1, 1);
    }

    #[test]
    fn matches_sequential_on_row_grid() {
        check_lu(24, 4, 1, 3, 2);
    }

    #[test]
    fn matches_sequential_on_square_grid() {
        check_lu(24, 4, 2, 2, 3);
    }

    #[test]
    fn matches_sequential_on_rectangular_grid() {
        check_lu(36, 6, 2, 3, 4);
    }

    #[test]
    fn matches_sequential_with_many_blocks_per_proc() {
        check_lu(48, 4, 2, 2, 5);
    }

    #[test]
    fn single_block_matrix() {
        check_lu(8, 8, 1, 1, 6);
    }

    #[test]
    fn flops_formula() {
        assert!((lu_flops(100) - 2.0 / 3.0 * 1e6).abs() < 1.0);
    }
}
