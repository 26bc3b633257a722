//! # reshape-grid — BLACS-style process grids over reshape-mpisim
//!
//! ReSHAPE's resizing library is built on BLACS (the ScaLAPACK
//! communication layer): applications view their processor set as an
//! `R × C` grid, identified by a *context*; resizing exits the old context
//! and creates a new one over the expanded or shrunk processor set.
//!
//! [`GridContext`] reproduces that abstraction: it wraps a communicator in a
//! row-major process grid, exposes coordinate queries (`myrow`/`mycol`,
//! `pcoord`, `pnum`), scoped communicators for row and column operations,
//! and scoped broadcasts (the `xGEBS2D`/`xGEBR2D` pattern used by
//! ScaLAPACK-style algorithms).

use reshape_mpisim::{Comm, Pod};

/// A process grid context: `nprow × npcol` ranks in row-major order over a
/// communicator. Analogous to a BLACS context handle.
///
/// Creating a context is collective over the communicator. "Exiting" a
/// context is simply dropping it; the underlying communicator (and the
/// processes) live on, which is exactly how ReSHAPE shrink/expand rebuilds
/// grids over changing processor sets.
///
/// ```
/// use reshape_grid::GridContext;
/// use reshape_mpisim::{NetModel, Universe};
///
/// Universe::new(6, 1, NetModel::ideal())
///     .launch(6, None, "doc", |comm| {
///         let grid = GridContext::new(&comm, 2, 3);
///         assert_eq!(grid.pnum(grid.myrow(), grid.mycol()), comm.rank());
///         // Row-scoped broadcast from column 0.
///         let data = if grid.mycol() == 0 { vec![grid.myrow() as u64] } else { vec![] };
///         assert_eq!(grid.row_bcast(0, &data), vec![grid.myrow() as u64]);
///     })
///     .join_ok();
/// ```
pub struct GridContext {
    comm: Comm,
    nprow: usize,
    npcol: usize,
    row_comm: Comm,
    col_comm: Comm,
}

impl GridContext {
    /// Build an `nprow × npcol` row-major grid over `comm`. Collective.
    ///
    /// # Panics
    ///
    /// Panics unless `nprow * npcol == comm.size()`.
    pub fn new(comm: &Comm, nprow: usize, npcol: usize) -> Self {
        assert!(
            nprow * npcol == comm.size(),
            "grid {nprow}x{npcol} does not match communicator size {}",
            comm.size()
        );
        let myrow = comm.rank() / npcol;
        let mycol = comm.rank() % npcol;
        // Row communicator: all ranks with my row index, ordered by column.
        let row_comm = comm
            .split(Some(myrow as u32), mycol as i64)
            .expect("row split always assigns a color");
        let col_comm = comm
            .split(Some(mycol as u32), myrow as i64)
            .expect("column split always assigns a color");
        if comm.rank() == 0 {
            reshape_telemetry::incr("grid.contexts_built", 1);
        }
        GridContext {
            comm: comm.clone(),
            nprow,
            npcol,
            row_comm,
            col_comm,
        }
    }

    /// The grid's underlying communicator (all `nprow * npcol` ranks).
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Grid height (process rows).
    pub fn nprow(&self) -> usize {
        self.nprow
    }

    /// Grid width (process columns).
    pub fn npcol(&self) -> usize {
        self.npcol
    }

    /// This process's row coordinate.
    pub fn myrow(&self) -> usize {
        self.comm.rank() / self.npcol
    }

    /// This process's column coordinate.
    pub fn mycol(&self) -> usize {
        self.comm.rank() % self.npcol
    }

    /// Rank of the process at `(prow, pcol)` (BLACS `BLACS_PNUM`).
    pub fn pnum(&self, prow: usize, pcol: usize) -> usize {
        assert!(
            prow < self.nprow && pcol < self.npcol,
            "coordinate out of grid"
        );
        prow * self.npcol + pcol
    }

    /// Grid coordinates of `rank` (BLACS `BLACS_PCOORD`).
    pub fn pcoord(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.comm.size(), "rank out of grid");
        (rank / self.npcol, rank % self.npcol)
    }

    /// Communicator spanning this process's grid row (ranks ordered by
    /// column coordinate).
    pub fn row_comm(&self) -> &Comm {
        &self.row_comm
    }

    /// Communicator spanning this process's grid column (ranks ordered by
    /// row coordinate).
    pub fn col_comm(&self) -> &Comm {
        &self.col_comm
    }

    /// Broadcast within this process's grid row, rooted at column `root_col`
    /// (the ScaLAPACK row-scope `xGEBS2D`/`xGEBR2D` pair).
    pub fn row_bcast<T: Pod>(&self, root_col: usize, data: &[T]) -> Vec<T> {
        self.row_comm.bcast(root_col, data)
    }

    /// Broadcast within this process's grid column, rooted at row
    /// `root_row`.
    pub fn col_bcast<T: Pod>(&self, root_row: usize, data: &[T]) -> Vec<T> {
        self.col_comm.bcast(root_row, data)
    }

    /// Barrier over the whole grid ("all" scope).
    pub fn barrier(&self) {
        self.comm.barrier();
    }
}

impl std::fmt::Debug for GridContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridContext")
            .field("nprow", &self.nprow)
            .field("npcol", &self.npcol)
            .field("myrow", &self.myrow())
            .field("mycol", &self.mycol())
            .finish()
    }
}

/// Choose the "nearly-square" factorization `r × c = p` with `r ≤ c` and the
/// smallest `c - r` — the grid shape the paper prefers for LU and MM.
///
/// ```
/// assert_eq!(reshape_grid::nearly_square(20), (4, 5));
/// assert_eq!(reshape_grid::nearly_square(36), (6, 6));
/// ```
pub fn nearly_square(p: usize) -> (usize, usize) {
    assert!(p > 0);
    let mut best = (1, p);
    let mut r = 1;
    while r * r <= p {
        if p.is_multiple_of(r) {
            best = (r, p / r);
        }
        r += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshape_mpisim::{NetModel, Universe};

    fn on_grid(
        p: usize,
        nprow: usize,
        npcol: usize,
        f: impl Fn(GridContext) + Send + Sync + 'static,
    ) {
        Universe::new(p, 1, NetModel::ideal())
            .launch(p, None, "grid", move |comm| {
                f(GridContext::new(&comm, nprow, npcol));
            })
            .join_ok();
    }

    #[test]
    fn coordinates_are_row_major() {
        on_grid(6, 2, 3, |g| {
            let rank = g.comm().rank();
            assert_eq!(g.myrow(), rank / 3);
            assert_eq!(g.mycol(), rank % 3);
            assert_eq!(g.pnum(g.myrow(), g.mycol()), rank);
            assert_eq!(g.pcoord(rank), (g.myrow(), g.mycol()));
        });
    }

    #[test]
    fn row_and_col_comm_shapes() {
        on_grid(6, 2, 3, |g| {
            assert_eq!(g.row_comm().size(), 3);
            assert_eq!(g.row_comm().rank(), g.mycol());
            assert_eq!(g.col_comm().size(), 2);
            assert_eq!(g.col_comm().rank(), g.myrow());
        });
    }

    #[test]
    fn row_bcast_reaches_whole_row_only() {
        on_grid(6, 2, 3, |g| {
            // Root column 1 broadcasts its row index.
            let data = if g.mycol() == 1 {
                vec![g.myrow() as u64]
            } else {
                vec![]
            };
            let got = g.row_bcast(1, &data);
            assert_eq!(got, vec![g.myrow() as u64]);
        });
    }

    #[test]
    fn col_bcast_reaches_whole_column() {
        on_grid(6, 3, 2, |g| {
            let data = if g.myrow() == 2 {
                vec![g.mycol() as f64 * 10.0]
            } else {
                vec![]
            };
            let got = g.col_bcast(2, &data);
            assert_eq!(got, vec![g.mycol() as f64 * 10.0]);
        });
    }

    #[test]
    fn single_process_grid() {
        on_grid(1, 1, 1, |g| {
            assert_eq!((g.myrow(), g.mycol()), (0, 0));
            assert_eq!(g.row_bcast(0, &[5u8]), vec![5]);
        });
    }

    #[test]
    fn one_dimensional_grids() {
        on_grid(4, 1, 4, |g| {
            assert_eq!(g.myrow(), 0);
            assert_eq!(g.col_comm().size(), 1);
        });
        on_grid(4, 4, 1, |g| {
            assert_eq!(g.mycol(), 0);
            assert_eq!(g.row_comm().size(), 1);
        });
    }

    #[test]
    #[should_panic(expected = "does not match communicator size")]
    fn mismatched_grid_rejected() {
        on_grid(4, 2, 3, |_| {});
    }

    #[test]
    fn nearly_square_factorizations() {
        assert_eq!(nearly_square(1), (1, 1));
        assert_eq!(nearly_square(2), (1, 2));
        assert_eq!(nearly_square(4), (2, 2));
        assert_eq!(nearly_square(6), (2, 3));
        assert_eq!(nearly_square(12), (3, 4));
        assert_eq!(nearly_square(16), (4, 4));
        assert_eq!(nearly_square(20), (4, 5));
        assert_eq!(nearly_square(30), (5, 6));
        assert_eq!(nearly_square(36), (6, 6));
        assert_eq!(nearly_square(7), (1, 7)); // prime
    }

    #[test]
    fn grid_rebuild_after_expansion() {
        // The ReSHAPE expand path: 2 ranks on a 1x2 grid spawn 2 more and
        // rebuild as 2x2.
        let uni = Universe::new(4, 1, NetModel::ideal());
        let h = uni.launch(2, None, "grow", |comm| {
            let g = GridContext::new(&comm, 1, 2);
            g.barrier();
            drop(g); // exit old context
            let bigger = comm.spawn_merge(2, None, "new", |ctx| {
                let merged = ctx.parent.merge();
                let g2 = GridContext::new(&merged, 2, 2);
                assert_eq!(g2.myrow(), 1); // children land in row 1
                g2.barrier();
            });
            let g2 = GridContext::new(&bigger, 2, 2);
            assert_eq!(g2.myrow(), 0);
            g2.barrier();
        });
        h.join_ok();
        uni.join_spawned();
    }
}
