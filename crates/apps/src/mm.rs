//! SUMMA distributed matrix multiplication (the paper's `PDGEMM` workload).
//!
//! `C = A · B` over 2-D block-cyclic matrices: at step `k` the process
//! column owning block column `k` of `A` broadcasts its panel along process
//! rows, the process row owning block row `k` of `B` broadcasts its panel
//! along process columns, and every process rank-1-updates its local `C`
//! blocks.

use reshape_blockcyclic::DistMatrix;
use reshape_grid::GridContext;

/// `C += A · B` distributed; all three matrices square `n × n` with the
/// same square blocking on the same grid. Collective.
pub fn summa(
    grid: &GridContext,
    a: &DistMatrix<f64>,
    b: &DistMatrix<f64>,
    c: &mut DistMatrix<f64>,
) {
    let d = a.desc;
    assert_eq!(d.m, d.n, "SUMMA here is square-only");
    assert_eq!(d.mb, d.nb, "square blocks required");
    assert_eq!(d.m % d.nb, 0, "block size must divide the matrix");
    assert_eq!(b.desc, d, "B must match A's distribution");
    assert_eq!(c.desc, d, "C must match A's distribution");
    let nb = d.nb;
    let n_blocks = d.m / nb;
    let (myrow, mycol) = (grid.myrow(), grid.mycol());

    let my_rows: Vec<usize> = (0..n_blocks).filter(|bi| bi % d.nprow == myrow).collect();
    let my_cols: Vec<usize> = (0..n_blocks).filter(|bj| bj % d.npcol == mycol).collect();

    for k in 0..n_blocks {
        let pcol = k % d.npcol; // owner column of A[:,k]
        let prow = k % d.nprow; // owner row of B[k,:]
                                // Panel of A: blocks A[bi, k] for my block rows.
        let a_panel: Vec<f64> = if mycol == pcol {
            let mut buf = Vec::with_capacity(my_rows.len() * nb * nb);
            for &bi in &my_rows {
                buf.extend_from_slice(&a.get_block(bi, k));
            }
            grid.row_bcast(pcol, &buf)
        } else {
            grid.row_bcast(pcol, &[])
        };
        // Panel of B: blocks B[k, bj] for my block columns.
        let b_panel: Vec<f64> = if myrow == prow {
            let mut buf = Vec::with_capacity(my_cols.len() * nb * nb);
            for &bj in &my_cols {
                buf.extend_from_slice(&b.get_block(k, bj));
            }
            grid.col_bcast(prow, &buf)
        } else {
            grid.col_bcast(prow, &[])
        };
        assert_eq!(a_panel.len(), my_rows.len() * nb * nb);
        assert_eq!(b_panel.len(), my_cols.len() * nb * nb);

        // Local update: C[bi,bj] += A[bi,k] * B[k,bj].
        for (ri, &bi) in my_rows.iter().enumerate() {
            let a_blk = &a_panel[ri * nb * nb..(ri + 1) * nb * nb];
            let l0 = (bi / d.nprow) * nb;
            for (ci, &bj) in my_cols.iter().enumerate() {
                let b_blk = &b_panel[ci * nb * nb..(ci + 1) * nb * nb];
                let c0 = (bj / d.npcol) * nb;
                for i in 0..nb {
                    for t in 0..nb {
                        let av = a_blk[i * nb + t];
                        if av == 0.0 {
                            continue;
                        }
                        for j in 0..nb {
                            let cur = c.get_local(l0 + i, c0 + j);
                            c.set_local(l0 + i, c0 + j, cur + av * b_blk[t * nb + j]);
                        }
                    }
                }
            }
        }
    }
}

/// Modeled floating-point work of one `n × n` multiply: `2 · n³`.
pub fn mm_flops(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use reshape_blockcyclic::Descriptor;
    use reshape_mpisim::{NetModel, Universe};

    fn check_mm(n: usize, nb: usize, pr: usize, pc: usize) {
        let p = pr * pc;
        Universe::new(p, 1, NetModel::ideal())
            .launch(p, None, "mm", move |comm| {
                let grid = GridContext::new(&comm, pr, pc);
                let desc = Descriptor::square(n, nb, pr, pc);
                let fa = move |i: usize, j: usize| ((i * 13 + j * 7) % 10) as f64 - 4.5;
                let fb = move |i: usize, j: usize| ((i * 5 + j * 11) % 9) as f64 - 4.0;
                let a = DistMatrix::from_fn(desc, grid.myrow(), grid.mycol(), fa);
                let b = DistMatrix::from_fn(desc, grid.myrow(), grid.mycol(), fb);
                let mut c = DistMatrix::new(desc, grid.myrow(), grid.mycol());
                summa(&grid, &a, &b, &mut c);
                let full = c.gather(&grid);
                if comm.rank() == 0 {
                    let full = full.unwrap();
                    let fa_full: Vec<f64> = (0..n * n).map(|x| fa(x / n, x % n)).collect();
                    let fb_full: Vec<f64> = (0..n * n).map(|x| fb(x / n, x % n)).collect();
                    let reference = seq::matmul(&fa_full, &fb_full, n);
                    for i in 0..n * n {
                        assert!(
                            (full[i] - reference[i]).abs() < 1e-9,
                            "C[{i}]: {} vs {}",
                            full[i],
                            reference[i]
                        );
                    }
                }
            })
            .join_ok();
    }

    #[test]
    fn single_process() {
        check_mm(12, 4, 1, 1);
    }

    #[test]
    fn square_grid() {
        check_mm(16, 4, 2, 2);
    }

    #[test]
    fn rectangular_grid() {
        check_mm(24, 4, 2, 3);
    }

    #[test]
    fn column_grid() {
        check_mm(16, 4, 1, 4);
    }

    #[test]
    fn many_blocks_per_process() {
        check_mm(32, 4, 2, 2);
    }
}
