//! Distributed blocked LU factorization **with partial pivoting** — the
//! full `PDGETRF` semantics.
//!
//! [`crate::lu::lu_factorize`] omits pivoting (safe for the workloads'
//! diagonally dominant matrices); this variant implements the pivoted
//! panel factorization for general matrices:
//!
//! * per panel column: the owning process column finds the max-|value|
//!   pivot below the diagonal (allgather of local candidates along the
//!   process column), the pivot row index is shared along process rows,
//!   and the two *full* global rows are swapped eagerly (local swap when
//!   both live on one process row, a point-to-point exchange between the
//!   two process rows otherwise);
//! * elimination proceeds column by column inside the panel (pivot row
//!   segment broadcast down the process column);
//! * the trailing update is the same row/column panel-broadcast GEMM as
//!   the unpivoted kernel.
//!
//! Returns the pivot vector `piv` with `piv[g] = r` meaning "at step `g`,
//! global rows `g` and `r` were swapped" (the `IPIV` convention).

use reshape_blockcyclic::{g2l, DistMatrix};
use reshape_grid::GridContext;
use reshape_mpisim::ReduceOp;

/// In-place pivoted LU: on return `a` holds `L\U` of `P·A` (unit lower
/// diagonal) and the returned vector records the row interchanges.
/// Collective over `grid`.
pub fn lu_factorize_pivoted(grid: &GridContext, a: &mut DistMatrix<f64>) -> Vec<usize> {
    let d = a.desc;
    assert_eq!(d.m, d.n, "LU needs a square matrix");
    assert_eq!(d.mb, d.nb, "LU needs square blocks");
    assert_eq!(d.m % d.nb, 0, "block size must divide the matrix");
    assert_eq!((d.nprow, d.npcol), (grid.nprow(), grid.npcol()));
    let nb = d.nb;
    let n = d.m;
    let n_blocks = n / nb;
    let (myrow, mycol) = (grid.myrow(), grid.mycol());
    let mut piv = Vec::with_capacity(n);

    for k in 0..n_blocks {
        let prow = k % d.nprow;
        let pcol = k % d.npcol;
        let col_lo = k * nb;
        let col_hi = col_lo + nb;

        // ---- pivoted panel factorization (columns col_lo..col_hi) ----
        for gj in col_lo..col_hi {
            // 1. Pivot search in column gj, rows gj..n (owners: process
            //    column pcol).
            let pivot_row = if mycol == pcol {
                let (_, lj) = g2l(gj, nb, d.npcol);
                // Local best (|value|, global row).
                let mut best = (f64::NEG_INFINITY, usize::MAX);
                for li in 0..a.local_rows() {
                    let gi = d.local_to_global_row(li, myrow);
                    if gi >= gj {
                        let v = a.get_local(li, lj).abs();
                        if v > best.0 || (v == best.0 && gi < best.1) {
                            best = (v, gi);
                        }
                    }
                }
                // Combine along the process column: max |value|, ties to
                // the smallest row index.
                let cands = grid.col_comm().allgather(&[best.0, best.1 as f64]);
                let mut win = (f64::NEG_INFINITY, usize::MAX);
                for c in &cands {
                    let (v, gi) = (c[0], c[1] as usize);
                    if v > win.0 || (v == win.0 && gi < win.1) {
                        win = (v, gi);
                    }
                }
                assert!(win.0 > 0.0, "matrix is singular: zero pivot column at {gj}");
                win.1
            } else {
                0
            };
            // Share the pivot row with every process column.
            let pivot_row = grid.row_bcast(pcol, &[pivot_row as u64])[0] as usize;
            piv.push(pivot_row);

            // 2. Swap full global rows gj <-> pivot_row (every process
            //    column handles its own segment).
            if pivot_row != gj {
                swap_global_rows(grid, a, gj, pivot_row);
            }

            // 3. Elimination below gj within the panel. The pivot row's
            //    panel segment (columns gj..col_hi) comes down the process
            //    column from its owner row.
            if mycol == pcol {
                let (own_r, lpi) = g2l(gj, nb, d.nprow);
                let seg: Vec<f64> = if myrow == own_r {
                    (gj..col_hi)
                        .map(|c| a.get_local(lpi, g2l(c, nb, d.npcol).1))
                        .collect()
                } else {
                    Vec::new()
                };
                let seg = grid.col_bcast(own_r, &seg);
                let pivot_val = seg[0];
                for li in 0..a.local_rows() {
                    let gi = d.local_to_global_row(li, myrow);
                    if gi > gj {
                        let (_, lj) = g2l(gj, nb, d.npcol);
                        let l = a.get_local(li, lj) / pivot_val;
                        a.set_local(li, lj, l);
                        for (off, c) in (gj + 1..col_hi).enumerate() {
                            let (_, lc) = g2l(c, nb, d.npcol);
                            let cur = a.get_local(li, lc);
                            a.set_local(li, lc, cur - l * seg[off + 1]);
                        }
                    }
                }
            }
            grid.barrier();
        }

        // ---- U row panel + trailing update (as in the unpivoted kernel) --
        let my_rows: Vec<usize> = ((k + 1)..n_blocks)
            .filter(|bi| bi % d.nprow == myrow)
            .collect();
        let my_cols: Vec<usize> = ((k + 1)..n_blocks)
            .filter(|bj| bj % d.npcol == mycol)
            .collect();

        // Diagonal block (now factored in place) broadcast along its row
        // for the U panel TRSM.
        let diag = if (myrow, mycol) == (prow, pcol) {
            a.get_block(k, k)
        } else {
            Vec::new()
        };
        let diag_for_row = if myrow == prow {
            grid.row_bcast(pcol, &diag)
        } else {
            Vec::new()
        };
        if myrow == prow {
            for &bj in &my_cols {
                let mut blk = a.get_block(k, bj);
                trsm_left_unit_lower(&mut blk, &diag_for_row, nb);
                a.set_block(k, bj, &blk);
            }
        }

        // Panel broadcasts.
        let l_panel: Vec<f64> = if mycol == pcol {
            let mut buf = Vec::with_capacity(my_rows.len() * nb * nb);
            for &bi in &my_rows {
                buf.extend_from_slice(&a.get_block(bi, k));
            }
            grid.row_bcast(pcol, &buf)
        } else {
            grid.row_bcast(pcol, &[])
        };
        let u_panel: Vec<f64> = if myrow == prow {
            let mut buf = Vec::with_capacity(my_cols.len() * nb * nb);
            for &bj in &my_cols {
                buf.extend_from_slice(&a.get_block(k, bj));
            }
            grid.col_bcast(prow, &buf)
        } else {
            grid.col_bcast(prow, &[])
        };

        for (ri, &bi) in my_rows.iter().enumerate() {
            let l_blk = &l_panel[ri * nb * nb..(ri + 1) * nb * nb];
            for (ci, &bj) in my_cols.iter().enumerate() {
                let u_blk = &u_panel[ci * nb * nb..(ci + 1) * nb * nb];
                let mut c_blk = a.get_block(bi, bj);
                gemm_sub(&mut c_blk, l_blk, u_blk, nb);
                a.set_block(bi, bj, &c_blk);
            }
        }
    }
    piv
}

/// Swap two full global rows across the grid. Each process column swaps its
/// local segments; if the rows live on different process rows, the two
/// exchange segments point-to-point along the process column.
fn swap_global_rows(grid: &GridContext, a: &mut DistMatrix<f64>, r1: usize, r2: usize) {
    let d = a.desc;
    let (p1, l1) = g2l(r1, d.mb, d.nprow);
    let (p2, l2) = g2l(r2, d.mb, d.nprow);
    let myrow = grid.myrow();
    const TAG_SWAP: u32 = 900;
    if p1 == p2 {
        if myrow == p1 {
            for lj in 0..a.local_cols() {
                let t = a.get_local(l1, lj);
                a.set_local(l1, lj, a.get_local(l2, lj));
                a.set_local(l2, lj, t);
            }
        }
    } else if myrow == p1 || myrow == p2 {
        let (my_l, peer) = if myrow == p1 { (l1, p2) } else { (l2, p1) };
        let mine: Vec<f64> = (0..a.local_cols())
            .map(|lj| a.get_local(my_l, lj))
            .collect();
        let theirs = grid.col_comm().sendrecv(peer, peer, TAG_SWAP, &mine);
        for (lj, v) in theirs.into_iter().enumerate() {
            a.set_local(my_l, lj, v);
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

#[cfg(test)]
mod tests {
    use super::*;
    use reshape_blockcyclic::Descriptor;
    use reshape_mpisim::{NetModel, Universe};

    /// A general (NOT diagonally dominant) deterministic test matrix that
    /// genuinely needs pivoting.
    pub(super) fn hard_elem(n: usize, seed: u64) -> impl Fn(usize, usize) -> f64 + Clone {
        move |i, j| {
            let h = (i as u64 + 1)
                .wrapping_mul(0x9E3779B97F4A7C15 ^ seed)
                .wrapping_add((j as u64 + 1).wrapping_mul(0xC2B2AE3D27D4EB4F));
            let h = (h ^ (h >> 29)).wrapping_mul(0xBF58476D1CE4E5B9);
            let v = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            // Make early diagonal entries tiny so pivoting is exercised.
            if i == j && i < n / 2 {
                v * 1e-8
            } else {
                v
            }
        }
    }

    /// Verify `L · U == P · A` by reconstruction.
    fn check_pivoted(n: usize, nb: usize, pr: usize, pc: usize, seed: u64) {
        let p = pr * pc;
        Universe::new(p, 1, NetModel::ideal())
            .launch(p, None, "plu", move |comm| {
                let grid = GridContext::new(&comm, pr, pc);
                let desc = Descriptor::square(n, nb, pr, pc);
                let f = hard_elem(n, seed);
                let mut a = DistMatrix::from_fn(desc, grid.myrow(), grid.mycol(), f.clone());
                let piv = lu_factorize_pivoted(&grid, &mut a);
                assert_eq!(piv.len(), n);
                let full = a.gather(&grid);
                if comm.rank() == 0 {
                    let lu = full.unwrap();
                    // Apply the recorded interchanges to the original.
                    let mut pa: Vec<f64> = (0..n * n).map(|x| f(x / n, x % n)).collect();
                    for (g, &r) in piv.iter().enumerate() {
                        if r != g {
                            for j in 0..n {
                                pa.swap(g * n + j, r * n + j);
                            }
                        }
                    }
                    // Reconstruct L*U and compare with P*A.
                    let mut scale = 0.0f64;
                    for v in &pa {
                        scale = scale.max(v.abs());
                    }
                    for i in 0..n {
                        for j in 0..n {
                            let mut s = 0.0;
                            for t in 0..=i.min(j) {
                                let l = if t == i { 1.0 } else { lu[i * n + t] };
                                s += l * lu[t * n + j];
                            }
                            let err = (s - pa[i * n + j]).abs();
                            assert!(
                                err < 1e-9 * scale.max(1.0) * n as f64,
                                "reconstruction off at ({i},{j}): {s} vs {}",
                                pa[i * n + j]
                            );
                        }
                    }
                }
            })
            .join_ok();
    }

    #[test]
    fn pivoted_single_process() {
        check_pivoted(12, 3, 1, 1, 1);
    }

    #[test]
    fn pivoted_square_grid() {
        check_pivoted(16, 4, 2, 2, 2);
    }

    #[test]
    fn pivoted_rectangular_grid() {
        check_pivoted(24, 4, 2, 3, 3);
    }

    #[test]
    fn pivoted_row_grid() {
        check_pivoted(18, 3, 3, 1, 4);
    }

    #[test]
    fn pivoted_many_blocks() {
        check_pivoted(32, 4, 2, 2, 5);
    }

    #[test]
    fn pivots_are_actually_used() {
        // With tiny leading diagonal entries, at least one interchange must
        // pick a row other than the diagonal.
        let n = 16;
        Universe::new(4, 1, NetModel::ideal())
            .launch(4, None, "plu-used", move |comm| {
                let grid = GridContext::new(&comm, 2, 2);
                let desc = Descriptor::square(n, 4, 2, 2);
                let f = hard_elem(n, 9);
                let mut a = DistMatrix::from_fn(desc, grid.myrow(), grid.mycol(), f);
                let piv = lu_factorize_pivoted(&grid, &mut a);
                assert!(
                    piv.iter().enumerate().any(|(g, &r)| r != g),
                    "expected nontrivial interchanges: {piv:?}"
                );
            })
            .join_ok();
    }

    #[test]
    fn agrees_with_unpivoted_on_dominant_matrices() {
        // On a strictly diagonally dominant matrix, pivoting never fires
        // only when the diagonal dominates its column below; our generator
        // guarantees dominance, so interchanges may still occur in theory —
        // instead check both factorizations solve the same system: verify
        // L·U == P·A for the pivoted and L·U == A for the unpivoted.
        let n = 16;
        Universe::new(4, 1, NetModel::ideal())
            .launch(4, None, "plu-dom", move |comm| {
                let grid = GridContext::new(&comm, 2, 2);
                let desc = Descriptor::square(n, 4, 2, 2);
                let f = crate::dominant_elem(n);
                let mut a1 = DistMatrix::from_fn(desc, grid.myrow(), grid.mycol(), &f);
                let mut a2 = a1.clone();
                let piv = lu_factorize_pivoted(&grid, &mut a1);
                crate::lu::lu_factorize(&grid, &mut a2);
                // Column dominance of dominant_elem: diagonal is n, off
                // entries ≤ 0.5 — the diagonal always wins the pivot search,
                // so both factorizations must be identical.
                assert!(piv.iter().enumerate().all(|(g, &r)| r == g), "{piv:?}");
                for (x, y) in a1.local_data().iter().zip(a2.local_data()) {
                    assert!((x - y).abs() < 1e-12, "{x} vs {y}");
                }
            })
            .join_ok();
    }
}

/// Solve `A·x = b` from a pivoted factorization (`lu` holding `L\U` of
/// `P·A`, `piv` the interchanges): apply `P` to `b`, forward-substitute
/// through `L`, back-substitute through `U`. `b` is replicated on every
/// process; the returned `x` is replicated too. Collective over `grid`.
///
/// The substitutions walk rows in order (they are inherently sequential);
/// each row's dot product is computed in parallel across the owning process
/// row and combined with a small reduction — adequate for validation and
/// moderate sizes.
pub fn lu_solve(grid: &GridContext, lu: &DistMatrix<f64>, piv: &[usize], b: &[f64]) -> Vec<f64> {
    let d = lu.desc;
    let n = d.m;
    assert_eq!(b.len(), n, "right-hand side length mismatch");
    assert_eq!(piv.len(), n, "pivot vector length mismatch");
    let (myrow, mycol) = (grid.myrow(), grid.mycol());

    // Apply the interchanges to b.
    let mut y: Vec<f64> = b.to_vec();
    for (g, &r) in piv.iter().enumerate() {
        if r != g {
            y.swap(g, r);
        }
    }

    // Forward substitution: y_i -= sum_{j<i} L_ij * y_j (L unit lower).
    for i in 0..n {
        let (own_r, li) = g2l(i, d.nb, d.nprow);
        let partial = if myrow == own_r {
            // Sum over my owned columns j < i.
            let mut s = 0.0;
            for lj in 0..lu.local_cols() {
                let gj = d.local_to_global_col(lj, mycol);
                if gj < i {
                    s += lu.get_local(li, lj) * y[gj];
                }
            }
            s
        } else {
            0.0
        };
        // Reduce the partials across the owning process row, then share the
        // updated y_i with everyone via the full communicator.
        let total = if myrow == own_r {
            grid.row_comm().allreduce(ReduceOp::Sum, &[partial])[0]
        } else {
            0.0
        };
        let root = grid.pnum(own_r, 0);
        let yi = grid.comm().bcast(
            root,
            &if grid.comm().rank() == root {
                vec![y[i] - total]
            } else {
                vec![]
            },
        )[0];
        y[i] = yi;
    }

    // Back substitution: x_i = (y_i - sum_{j>i} U_ij x_j) / U_ii.
    let mut x = y;
    for i in (0..n).rev() {
        let (own_r, li) = g2l(i, d.nb, d.nprow);
        let partial = if myrow == own_r {
            let mut s = 0.0;
            for lj in 0..lu.local_cols() {
                let gj = d.local_to_global_col(lj, mycol);
                if gj > i {
                    s += lu.get_local(li, lj) * x[gj];
                }
            }
            s
        } else {
            0.0
        };
        let (diag_owner_col, ldj) = g2l(i, d.nb, d.npcol);
        let (total, uii) = if myrow == own_r {
            let total = grid.row_comm().allreduce(ReduceOp::Sum, &[partial])[0];
            let uii = if mycol == diag_owner_col {
                lu.get_local(li, ldj)
            } else {
                0.0
            };
            let uii = grid.row_comm().allreduce(ReduceOp::Sum, &[uii])[0];
            (total, uii)
        } else {
            (0.0, 0.0)
        };
        let root = grid.pnum(own_r, 0);
        let xi = grid.comm().bcast(
            root,
            &if grid.comm().rank() == root {
                vec![(x[i] - total) / uii]
            } else {
                vec![]
            },
        )[0];
        x[i] = xi;
    }
    x
}

#[cfg(test)]
mod solve_tests {
    use super::*;
    use reshape_blockcyclic::Descriptor;
    use reshape_mpisim::{NetModel, Universe};

    fn check_solve(n: usize, nb: usize, pr: usize, pc: usize, seed: u64) {
        let p = pr * pc;
        Universe::new(p, 1, NetModel::ideal())
            .launch(p, None, "lusolve", move |comm| {
                let grid = GridContext::new(&comm, pr, pc);
                let desc = Descriptor::square(n, nb, pr, pc);
                let f = super::tests::hard_elem(n, seed);
                let mut a = DistMatrix::from_fn(desc, grid.myrow(), grid.mycol(), f.clone());
                // Known solution: x_true = [1, -1, 2, -2, ...].
                let x_true: Vec<f64> = (0..n)
                    .map(|i| {
                        if i % 2 == 0 {
                            (i / 2 + 1) as f64
                        } else {
                            -((i / 2 + 1) as f64)
                        }
                    })
                    .collect();
                let b: Vec<f64> = (0..n)
                    .map(|i| (0..n).map(|j| f(i, j) * x_true[j]).sum())
                    .collect();
                let piv = lu_factorize_pivoted(&grid, &mut a);
                let x = lu_solve(&grid, &a, &piv, &b);
                let scale: f64 = x_true.iter().map(|v| v.abs()).fold(1.0, f64::max);
                for (xi, ti) in x.iter().zip(&x_true) {
                    assert!((xi - ti).abs() < 1e-6 * scale * n as f64, "{xi} vs {ti}");
                }
            })
            .join_ok();
    }

    #[test]
    fn solve_single_process() {
        check_solve(12, 3, 1, 1, 11);
    }

    #[test]
    fn solve_square_grid() {
        check_solve(16, 4, 2, 2, 12);
    }

    #[test]
    fn solve_rectangular_grid() {
        check_solve(24, 4, 2, 3, 13);
    }

    #[test]
    fn solve_column_grid() {
        check_solve(12, 3, 1, 3, 14);
    }
}
