//! # reshape-blockcyclic — ScaLAPACK-style 2-D block-cyclic distributions
//!
//! ReSHAPE targets "structured applications that have two-dimensional data
//! arrays distributed across a two-dimensional processor grid" in the
//! block-cyclic layout ScaLAPACK uses. This crate provides the index
//! arithmetic (`numroc`, global↔local maps, ownership) and a distributed
//! matrix container [`DistMatrix`] over a [`reshape_grid::GridContext`].
//!
//! All index math lives in pure functions so the redistribution planner
//! (crate `reshape-redist`) can reason about layouts without touching any
//! communicator, and so properties can be tested exhaustively.

use std::ops::Range;

use reshape_grid::GridContext;
use reshape_mpisim::Pod;

use index::local_runs;

pub mod buddy;
pub mod index;

pub use buddy::{recover_matrix, BuddyStore};
pub use index::{g2l, l2g, numroc, owner};

/// Shape and distribution parameters of a 2-D block-cyclic matrix
/// (ScaLAPACK array-descriptor equivalent, with the source process fixed at
/// grid coordinate (0,0) as in the paper's experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Descriptor {
    /// Global rows.
    pub m: usize,
    /// Global columns.
    pub n: usize,
    /// Row block size.
    pub mb: usize,
    /// Column block size.
    pub nb: usize,
    /// Process-grid rows.
    pub nprow: usize,
    /// Process-grid columns.
    pub npcol: usize,
}

impl Descriptor {
    pub fn new(m: usize, n: usize, mb: usize, nb: usize, nprow: usize, npcol: usize) -> Self {
        assert!(mb > 0 && nb > 0, "block sizes must be positive");
        assert!(nprow > 0 && npcol > 0, "grid must be non-empty");
        Descriptor {
            m,
            n,
            mb,
            nb,
            nprow,
            npcol,
        }
    }

    /// A square matrix with square blocks.
    pub fn square(n: usize, nb: usize, nprow: usize, npcol: usize) -> Self {
        Self::new(n, n, nb, nb, nprow, npcol)
    }

    /// Rows stored locally by process row `prow`.
    pub fn local_rows(&self, prow: usize) -> usize {
        numroc(self.m, self.mb, prow, self.nprow)
    }

    /// Columns stored locally by process column `pcol`.
    pub fn local_cols(&self, pcol: usize) -> usize {
        numroc(self.n, self.nb, pcol, self.npcol)
    }

    /// Grid coordinates of the owner of global element `(i, j)`.
    pub fn owner_of(&self, i: usize, j: usize) -> (usize, usize) {
        (owner(i, self.mb, self.nprow), owner(j, self.nb, self.npcol))
    }

    /// Map a global element to `((prow, pcol), (local row, local col))`.
    pub fn global_to_local(&self, i: usize, j: usize) -> ((usize, usize), (usize, usize)) {
        let (pr, li) = g2l(i, self.mb, self.nprow);
        let (pc, lj) = g2l(j, self.nb, self.npcol);
        ((pr, pc), (li, lj))
    }

    /// Global row index of local row `li` on process row `prow`.
    pub fn local_to_global_row(&self, li: usize, prow: usize) -> usize {
        l2g(li, self.mb, prow, self.nprow)
    }

    /// Global column index of local column `lj` on process column `pcol`.
    pub fn local_to_global_col(&self, lj: usize, pcol: usize) -> usize {
        l2g(lj, self.nb, pcol, self.npcol)
    }

    /// Total elements (sanity checks / cost models).
    pub fn elements(&self) -> usize {
        self.m * self.n
    }
}

/// The locally owned panel of a block-cyclic distributed matrix, stored
/// row-major.
///
/// ```
/// use reshape_blockcyclic::{Descriptor, DistMatrix};
/// // An 8x8 matrix in 2x2 blocks on a 2x2 grid: each rank holds 4x4.
/// let desc = Descriptor::square(8, 2, 2, 2);
/// let m = DistMatrix::from_fn(desc, 0, 1, |i, j| (i * 8 + j) as f64);
/// assert_eq!(m.local_rows(), 4);
/// assert_eq!(m.local_cols(), 4);
/// // Global element (0, 2) lives in block column 1 -> grid column 1.
/// assert_eq!(m.get_global(0, 2), Some(2.0));
/// assert_eq!(m.get_global(0, 0), None); // owned by grid column 0
/// ```
#[derive(Clone, Debug)]
pub struct DistMatrix<T> {
    pub desc: Descriptor,
    pub myrow: usize,
    pub mycol: usize,
    lrows: usize,
    lcols: usize,
    data: Vec<T>,
}

impl<T: Pod + Default> DistMatrix<T> {
    /// Zero-initialized local panel for grid position `(myrow, mycol)`.
    pub fn new(desc: Descriptor, myrow: usize, mycol: usize) -> Self {
        Self::build(desc, myrow, mycol, |lrows, lcols| {
            vec![T::default(); lrows * lcols]
        })
    }

    /// Fill from a function of the *global* indices — every rank evaluates
    /// `f` only on the elements it owns, so construction is embarrassingly
    /// parallel (how the paper's workloads initialize their matrices).
    ///
    /// Each element is written once, from a table of the panel's global
    /// column runs built once per panel and one global row index per local
    /// row: no zeroing pass and no index division per element.
    pub fn from_fn(
        desc: Descriptor,
        myrow: usize,
        mycol: usize,
        f: impl Fn(usize, usize) -> T,
    ) -> Self {
        Self::build(desc, myrow, mycol, |lrows, lcols| {
            let cols = col_runs(&desc, mycol);
            let mut data = Vec::with_capacity(lrows * lcols);
            for gi in local_runs(desc.m, desc.mb, myrow, desc.nprow).flatten() {
                for run in &cols {
                    data.extend(run.clone().map(|gj| f(gi, gj)));
                }
            }
            data
        })
    }

    /// The panel at `(myrow, mycol)` of `desc`, its elements made by `fill`
    /// from its local shape.
    fn build(
        desc: Descriptor,
        myrow: usize,
        mycol: usize,
        fill: impl FnOnce(usize, usize) -> Vec<T>,
    ) -> Self {
        assert!(
            myrow < desc.nprow && mycol < desc.npcol,
            "position outside grid"
        );
        let lrows = desc.local_rows(myrow);
        let lcols = desc.local_cols(mycol);
        reshape_telemetry::incr("blockcyclic.panels_built", 1);
        reshape_telemetry::incr("blockcyclic.panel_elems", (lrows * lcols) as u64);
        let data = fill(lrows, lcols);
        debug_assert_eq!(data.len(), lrows * lcols, "panel filled to its shape");
        DistMatrix {
            desc,
            myrow,
            mycol,
            lrows,
            lcols,
            data,
        }
    }

    /// Hand this panel's allocation over to the panel at `(myrow, mycol)` of
    /// `desc`: `f` takes the elements and returns the new panel's, in the
    /// same `Vec` where it rebuilds them in place. An `Err` from `f` comes
    /// back as it is, and the panel is gone.
    ///
    /// # Panics
    ///
    /// Panics if the position lies outside `desc`'s grid, or if `f` returns
    /// a `Vec` of another length than the new panel's.
    pub fn rebuild<E>(
        self,
        desc: Descriptor,
        myrow: usize,
        mycol: usize,
        f: impl FnOnce(Vec<T>) -> Result<Vec<T>, E>,
    ) -> Result<Self, E> {
        let data = f(self.data)?;
        Ok(Self::build(desc, myrow, mycol, |lrows, lcols| {
            assert_eq!(data.len(), lrows * lcols, "panel size mismatch");
            data
        }))
    }

    /// Build for the caller's position on `grid`.
    pub fn on_grid(desc: Descriptor, grid: &GridContext) -> Self {
        assert_eq!(
            (desc.nprow, desc.npcol),
            (grid.nprow(), grid.npcol()),
            "descriptor grid shape must match the context"
        );
        Self::new(desc, grid.myrow(), grid.mycol())
    }

    pub fn local_rows(&self) -> usize {
        self.lrows
    }

    pub fn local_cols(&self) -> usize {
        self.lcols
    }

    pub fn local_data(&self) -> &[T] {
        &self.data
    }

    pub fn local_data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Replace the local panel wholesale (used by redistribution).
    pub fn set_local_data(&mut self, data: Vec<T>) {
        assert_eq!(data.len(), self.lrows * self.lcols, "panel size mismatch");
        self.data = data;
    }

    #[inline]
    pub fn get_local(&self, li: usize, lj: usize) -> T {
        self.data[li * self.lcols + lj]
    }

    #[inline]
    pub fn set_local(&mut self, li: usize, lj: usize, v: T) {
        self.data[li * self.lcols + lj] = v;
    }

    /// Copy out the locally owned block with *global block coordinates*
    /// `(bi, bj)` as a row-major buffer of its true size,
    /// `min(mb, m − bi·mb) × min(nb, n − bj·nb)`: a block of a ragged last
    /// block row or column is smaller than `mb × nb`.
    ///
    /// # Panics
    ///
    /// Panics unless this panel owns the block (`bi % nprow == myrow` and
    /// `bj % npcol == mycol`) and the block lies inside the matrix.
    pub fn get_block(&self, bi: usize, bj: usize) -> Vec<T> {
        let (rows, cols) = self.block_at(bi, bj);
        let mut out = Vec::with_capacity(rows.len() * cols.len());
        for r in rows {
            out.extend_from_slice(&self.data[r * self.lcols..][cols.clone()]);
        }
        out
    }

    /// Overwrite the locally owned block `(bi, bj)` from a row-major buffer
    /// of its true size (inverse of [`DistMatrix::get_block`], with the same
    /// panics, and one more on a buffer of another size).
    pub fn set_block(&mut self, bi: usize, bj: usize, blk: &[T]) {
        let (rows, cols) = self.block_at(bi, bj);
        assert_eq!(
            blk.len(),
            rows.len() * cols.len(),
            "block buffer size mismatch"
        );
        for (r, from) in rows.zip(blk.chunks_exact(cols.len())) {
            self.data[r * self.lcols..][cols.clone()].copy_from_slice(from);
        }
    }

    /// The local rows and columns of owned block `(bi, bj)`.
    fn block_at(&self, bi: usize, bj: usize) -> (Range<usize>, Range<usize>) {
        let d = &self.desc;
        assert_eq!(bi % d.nprow, self.myrow, "block row {bi} not owned");
        assert_eq!(bj % d.npcol, self.mycol, "block col {bj} not owned");
        assert!(
            bi * d.mb < d.m && bj * d.nb < d.n,
            "block ({bi}, {bj}) outside the matrix"
        );
        let (l0, c0) = ((bi / d.nprow) * d.mb, (bj / d.npcol) * d.nb);
        let rows = d.mb.min(d.m - bi * d.mb);
        let cols = d.nb.min(d.n - bj * d.nb);
        (l0..l0 + rows, c0..c0 + cols)
    }

    /// Value of global element `(i, j)` if this rank owns it.
    pub fn get_global(&self, i: usize, j: usize) -> Option<T> {
        let ((pr, pc), (li, lj)) = self.desc.global_to_local(i, j);
        if (pr, pc) == (self.myrow, self.mycol) {
            Some(self.get_local(li, lj))
        } else {
            None
        }
    }

    /// Set global element `(i, j)` if owned; returns whether it was.
    pub fn set_global(&mut self, i: usize, j: usize, v: T) -> bool {
        let ((pr, pc), (li, lj)) = self.desc.global_to_local(i, j);
        if (pr, pc) == (self.myrow, self.mycol) {
            self.set_local(li, lj, v);
            true
        } else {
            false
        }
    }

    /// Gather the full matrix (row-major `m × n`) on grid rank 0.
    /// Collective over the grid; debug/verification use only.
    pub fn gather(&self, grid: &GridContext) -> Option<Vec<T>> {
        let comm = grid.comm();
        let parts = comm.gather(0, &self.data);
        parts.map(|parts| {
            let d = &self.desc;
            let mut full = vec![T::default(); d.m * d.n];
            for (rank, part) in parts.iter().enumerate() {
                let (pr, pc) = grid.pcoord(rank);
                let want = d.local_rows(pr) * d.local_cols(pc);
                assert_eq!(part.len(), want, "rank {rank} sent a wrong-sized panel");
                let mut at = 0;
                for run in panel_runs(d, pr, &col_runs(d, pc)) {
                    full[run.clone()].copy_from_slice(&part[at..at + run.len()]);
                    at += run.len();
                }
            }
            full
        })
    }

    /// Scatter a replicated row-major `m × n` matrix from grid rank 0 into
    /// the distribution. Collective; debug/verification use only.
    pub fn scatter_from(desc: Descriptor, grid: &GridContext, full: Option<&[T]>) -> Self {
        let comm = grid.comm();
        let parts: Option<Vec<Vec<T>>> = if comm.rank() == 0 {
            let full = full.expect("root must supply the matrix");
            assert_eq!(full.len(), desc.m * desc.n, "matrix size mismatch");
            Some(
                (0..comm.size())
                    .map(|rank| {
                        let (pr, pc) = grid.pcoord(rank);
                        let mut part =
                            Vec::with_capacity(desc.local_rows(pr) * desc.local_cols(pc));
                        for run in panel_runs(&desc, pr, &col_runs(&desc, pc)) {
                            part.extend_from_slice(&full[run]);
                        }
                        part
                    })
                    .collect(),
            )
        } else {
            None
        };
        let mine = comm.scatter(0, parts.as_deref());
        let mut m = Self::new(desc, grid.myrow(), grid.mycol());
        m.set_local_data(mine);
        m
    }
}

/// Process column `pcol`'s global column runs of `d`, one per local block
/// column: the table its panels are filled and read through.
fn col_runs(d: &Descriptor, pcol: usize) -> Vec<Range<usize>> {
    local_runs(d.n, d.nb, pcol, d.npcol).collect()
}

/// The panel of process row `prow` whose column runs are `cols`, as runs of
/// the row-major `m × n` matrix, in the panel's row-major order.
fn panel_runs<'a>(
    d: &'a Descriptor,
    prow: usize,
    cols: &'a [Range<usize>],
) -> impl Iterator<Item = Range<usize>> + 'a {
    local_runs(d.m, d.mb, prow, d.nprow)
        .flatten()
        .flat_map(move |gi| {
            cols.iter()
                .map(move |c| gi * d.n + c.start..gi * d.n + c.end)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshape_mpisim::{NetModel, Universe};

    #[test]
    fn descriptor_local_shapes_cover_matrix() {
        let d = Descriptor::new(10, 7, 3, 2, 2, 3);
        let rows: usize = (0..2).map(|p| d.local_rows(p)).sum();
        let cols: usize = (0..3).map(|p| d.local_cols(p)).sum();
        assert_eq!(rows, 10);
        assert_eq!(cols, 7);
    }

    #[test]
    fn from_fn_places_by_global_index() {
        let d = Descriptor::square(8, 2, 2, 2);
        for pr in 0..2 {
            for pc in 0..2 {
                let m = DistMatrix::from_fn(d, pr, pc, |i, j| (i * 100 + j) as f64);
                for li in 0..m.local_rows() {
                    for lj in 0..m.local_cols() {
                        let gi = d.local_to_global_row(li, pr);
                        let gj = d.local_to_global_col(lj, pc);
                        assert_eq!(m.get_local(li, lj), (gi * 100 + gj) as f64);
                        assert_eq!(m.get_global(gi, gj), Some((gi * 100 + gj) as f64));
                    }
                }
            }
        }
    }

    #[test]
    fn get_global_returns_none_for_foreign_elements() {
        let d = Descriptor::square(4, 1, 2, 2);
        let m = DistMatrix::<f64>::new(d, 0, 0);
        // (1,1) belongs to (1,1) under 1x1 blocks on a 2x2 grid.
        assert!(m.get_global(1, 1).is_none());
        assert!(m.get_global(0, 0).is_some());
    }

    #[test]
    fn gather_reconstructs_global_matrix() {
        let uni = Universe::new(6, 1, NetModel::ideal());
        uni.launch(6, None, "gather", |comm| {
            let grid = GridContext::new(&comm, 2, 3);
            let d = Descriptor::new(9, 11, 2, 3, 2, 3);
            let m =
                DistMatrix::from_fn(d, grid.myrow(), grid.mycol(), |i, j| (i * 1000 + j) as f64);
            let full = m.gather(&grid);
            if comm.rank() == 0 {
                let full = full.unwrap();
                for i in 0..9 {
                    for j in 0..11 {
                        assert_eq!(full[i * 11 + j], (i * 1000 + j) as f64);
                    }
                }
            } else {
                assert!(full.is_none());
            }
        })
        .join_ok();
    }

    #[test]
    fn scatter_then_gather_round_trips() {
        let uni = Universe::new(4, 1, NetModel::ideal());
        uni.launch(4, None, "scatter", |comm| {
            let grid = GridContext::new(&comm, 2, 2);
            let d = Descriptor::new(5, 6, 2, 2, 2, 2);
            let full: Option<Vec<f64>> = if comm.rank() == 0 {
                Some((0..30).map(|x| x as f64).collect())
            } else {
                None
            };
            let m = DistMatrix::scatter_from(d, &grid, full.as_deref());
            let back = m.gather(&grid);
            if comm.rank() == 0 {
                assert_eq!(back.unwrap(), (0..30).map(|x| x as f64).collect::<Vec<_>>());
            }
        })
        .join_ok();
    }

    /// Rank (0,0) of a 1536² matrix in 64² blocks on a 2×2 grid walks all
    /// of its blocks through `get_block` (the executor's pack) and
    /// `set_block` (its unpack): 144 blocks, 4 718 592 bytes, and the
    /// unpacked panel equals the source.
    #[test]
    fn block_walk_packs_the_whole_panel() {
        let n = 1536;
        let d = Descriptor::square(n, 64, 2, 2);
        let src = DistMatrix::from_fn(d, 0, 0, |i, j| (i * n + j) as f64);
        let mut dst = DistMatrix::<f64>::new(d, 0, 0);
        let mut blocks = 0;
        let mut bytes = 0;
        for bi in (0..n.div_ceil(64)).step_by(2) {
            for bj in (0..n.div_ceil(64)).step_by(2) {
                let blk = src.get_block(bi, bj);
                blocks += 1;
                bytes += blk.len() * std::mem::size_of::<f64>();
                dst.set_block(bi, bj, &blk);
            }
        }
        assert_eq!((blocks, bytes), (144, 4_718_592));
        assert_eq!(dst.local_data(), src.local_data());
    }

    /// A block of a ragged last block row or column is its true size: in a
    /// 4 × 5 matrix in 2 × 2 blocks, block (0, 2) is the one column 4 of
    /// rows 0 and 1, and writing it back touches nothing else.
    #[test]
    fn ragged_edge_blocks_are_their_true_size() {
        let d = Descriptor::new(4, 5, 2, 2, 1, 1);
        let mut m = DistMatrix::from_fn(d, 0, 0, |i, j| (10 * i + j) as u64);
        assert_eq!(m.get_block(0, 2), [4, 14]);
        assert_eq!(m.get_block(1, 2), [24, 34]);
        m.set_block(0, 2, &[40, 140]);
        for i in 0..4 {
            for j in 0..5 {
                let want = match (i, j) {
                    (0, 4) => 40,
                    (1, 4) => 140,
                    _ => (10 * i + j) as u64,
                };
                assert_eq!(m.get_local(i, j), want, "element ({i}, {j})");
            }
        }
        // A ragged corner, on a 2 × 2 grid: 5 × 5 in 2 × 2 blocks, block
        // (2, 2) is the one element (4, 4), held by position (0, 0).
        let d = Descriptor::square(5, 2, 2, 2);
        let m = DistMatrix::from_fn(d, 0, 0, |i, j| (10 * i + j) as u64);
        assert_eq!(m.get_block(2, 2), [44]);
        assert_eq!(m.get_block(0, 2), [4, 14]);
    }

    #[test]
    #[should_panic(expected = "block col 1 not owned")]
    fn a_block_of_another_panel_is_refused() {
        let d = Descriptor::square(8, 2, 2, 2);
        DistMatrix::<f64>::new(d, 0, 0).get_block(0, 1);
    }

    #[test]
    #[should_panic(expected = "panel size mismatch")]
    fn set_local_data_validates_size() {
        let d = Descriptor::square(4, 2, 2, 2);
        let mut m = DistMatrix::<f64>::new(d, 0, 0);
        m.set_local_data(vec![0.0; 3]);
    }
}
