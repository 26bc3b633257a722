//! 1-D block-cyclic distributed vectors.
//!
//! The paper's redistribution library handles "generic one- and
//! two-dimensional block-cyclic data redistribution algorithms for global
//! arrays"; [`DistVector`] is the 1-D global array: `n` elements in blocks
//! of `nb` over `p` processes (process `k` owns blocks `k, k+p, …`).

use crate::index::{g2l, l2g, local_runs, numroc};
use reshape_mpisim::Pod;

/// The locally owned part of a 1-D block-cyclic vector.
#[derive(Clone, Debug, PartialEq)]
pub struct DistVector<T> {
    /// Global length.
    pub n: usize,
    /// Block size.
    pub nb: usize,
    /// Process count of the distribution.
    pub nprocs: usize,
    /// This part's process coordinate.
    pub iproc: usize,
    data: Vec<T>,
}

impl<T: Pod + Default> DistVector<T> {
    /// Zero-initialized local part for process `iproc` of `nprocs`.
    pub fn new(n: usize, nb: usize, iproc: usize, nprocs: usize) -> Self {
        assert!(nb > 0 && nprocs > 0 && iproc < nprocs);
        let len = numroc(n, nb, iproc, nprocs);
        DistVector {
            n,
            nb,
            nprocs,
            iproc,
            data: vec![T::default(); len],
        }
    }

    /// Fill from a function of the global index. Each element is written
    /// once, walking the part's global runs block by block: no zeroing pass
    /// and no index division per element.
    pub fn from_fn(
        n: usize,
        nb: usize,
        iproc: usize,
        nprocs: usize,
        f: impl Fn(usize) -> T,
    ) -> Self {
        let mut data = Vec::with_capacity(numroc(n, nb, iproc, nprocs));
        for run in local_runs(n, nb, iproc, nprocs) {
            data.extend(run.map(&f));
        }
        DistVector {
            n,
            nb,
            nprocs,
            iproc,
            data,
        }
    }

    pub fn local_len(&self) -> usize {
        self.data.len()
    }

    pub fn local_data(&self) -> &[T] {
        &self.data
    }

    pub fn local_data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    #[inline]
    pub fn get_local(&self, l: usize) -> T {
        self.data[l]
    }

    #[inline]
    pub fn set_local(&mut self, l: usize, v: T) {
        self.data[l] = v;
    }

    /// Value of global element `g` if owned by this part.
    pub fn get_global(&self, g: usize) -> Option<T> {
        let (p, l) = g2l(g, self.nb, self.nprocs);
        (p == self.iproc).then(|| self.data[l])
    }

    /// Global index of local element `l`.
    pub fn global_index(&self, l: usize) -> usize {
        l2g(l, self.nb, self.iproc, self.nprocs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_partition_the_vector() {
        let n = 23;
        let nb = 3;
        let p = 4;
        let mut seen = vec![false; n];
        for ip in 0..p {
            let v = DistVector::from_fn(n, nb, ip, p, |g| g as f64);
            for l in 0..v.local_len() {
                let g = v.global_index(l);
                assert_eq!(v.get_local(l), g as f64);
                assert_eq!(v.get_global(g), Some(g as f64));
                assert!(!seen[g], "element {g} owned twice");
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn foreign_elements_are_none() {
        let v = DistVector::<f64>::new(10, 2, 0, 2);
        assert!(v.get_global(0).is_some()); // block 0 -> proc 0
        assert!(v.get_global(2).is_none()); // block 1 -> proc 1
    }
}
