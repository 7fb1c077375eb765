//! Shared test fixtures for the symbolic layer.

use mf_sparse::{CooMatrix, CscMatrix, Permutation};

/// The 6x6 example of Figure 1 of the paper: assembly-tree supernodes
/// {1,2}, {3,4}, {5,6} (0-based: {0,1}, {2,3}, {4,5}).
pub(crate) fn figure1_matrix() -> CscMatrix {
    let mut coo = CooMatrix::new_symmetric(6);
    for i in 0..6 {
        coo.push(i, i, 4.0).unwrap();
    }
    for &(i, j) in
        &[(1, 0), (4, 0), (5, 0), (4, 1), (5, 1), (3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (5, 4)]
    {
        coo.push(i, j, -1.0).unwrap();
    }
    coo.to_csc()
}

/// Symmetric tridiagonal matrix of order `n` (etree is a path).
pub(crate) fn tridiag(n: usize) -> CscMatrix {
    let mut coo = CooMatrix::new_symmetric(n);
    for i in 0..n {
        coo.push(i, i, 2.0).unwrap();
    }
    for i in 1..n {
        coo.push(i, i - 1, -1.0).unwrap();
    }
    coo.to_csc()
}

/// Elimination tree of `a` in its own labels.
pub(crate) fn natural_etree(a: &CscMatrix) -> Vec<usize> {
    crate::etree::etree(a, &Permutation::identity(a.ncols()))
}
