//! Compressed sparse column storage.

use crate::error::SparseError;
use crate::perm::Permutation;

/// Symmetry tag carried by a matrix.
///
/// `Symmetric` matrices store their *full* pattern (both triangles) but the
/// tag tells the solver layers to use an LDLᵀ-style factorization and the
/// paper's irregular symmetric type-2 blocking; `General` selects LU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Symmetry {
    /// Unsymmetric (LU) matrix.
    General,
    /// Structurally and numerically symmetric (LDLᵀ) matrix.
    Symmetric,
}

impl Symmetry {
    /// Short tag used in reports, mirroring Table 1 of the paper.
    pub fn tag(self) -> &'static str {
        match self {
            Symmetry::General => "UNS",
            Symmetry::Symmetric => "SYM",
        }
    }
}

/// A sparse matrix in compressed sparse column form.
///
/// Invariants (checked by [`CscMatrix::validate`], maintained by all
/// constructors in this crate):
/// * `col_ptr.len() == ncols + 1`, `col_ptr[0] == 0`, non-decreasing;
/// * `row_idx.len() == values.len() == col_ptr[ncols]`;
/// * within each column, row indices are strictly increasing and `< nrows`.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
    symmetry: Symmetry,
}

impl CscMatrix {
    /// Builds a matrix from raw CSC arrays.
    ///
    /// Debug builds assert the CSC invariants; use [`CscMatrix::validate`]
    /// when the arrays come from an untrusted source.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
        symmetry: Symmetry,
    ) -> Self {
        let m = CscMatrix { nrows, ncols, col_ptr, row_idx, values, symmetry };
        debug_assert!(m.validate().is_ok(), "invalid CSC arrays: {:?}", m.validate());
        m
    }

    /// Checks all CSC invariants, returning a descriptive error on failure.
    pub fn validate(&self) -> Result<(), SparseError> {
        if self.col_ptr.len() != self.ncols + 1 || self.col_ptr[0] != 0 {
            return Err(SparseError::Parse { line: 0, msg: "bad col_ptr shape".into() });
        }
        if *self.col_ptr.last().unwrap() != self.row_idx.len()
            || self.row_idx.len() != self.values.len()
        {
            return Err(SparseError::Parse { line: 0, msg: "nnz mismatch".into() });
        }
        for j in 0..self.ncols {
            if self.col_ptr[j] > self.col_ptr[j + 1] {
                return Err(SparseError::Parse { line: 0, msg: "col_ptr not monotone".into() });
            }
            let col = &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]];
            for w in col.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::Parse {
                        line: 0,
                        msg: format!("rows in column {j} not strictly increasing"),
                    });
                }
            }
            if let Some(&last) = col.last() {
                if last >= self.nrows {
                    return Err(SparseError::IndexOutOfBounds {
                        row: last,
                        col: j,
                        nrows: self.nrows,
                        ncols: self.ncols,
                    });
                }
            }
        }
        Ok(())
    }

    /// Identity-pattern `n x n` matrix with the given diagonal value.
    pub fn identity(n: usize, diag: f64) -> Self {
        CscMatrix::from_raw_parts(
            n,
            n,
            (0..=n).collect(),
            (0..n).collect(),
            vec![diag; n],
            Symmetry::Symmetric,
        )
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (full pattern, both triangles for symmetric).
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Symmetry tag.
    pub fn symmetry(&self) -> Symmetry {
        self.symmetry
    }

    /// Column pointer array (`ncols + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices, column-major.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Stored values, column-major, aligned with [`CscMatrix::row_idx`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Range of positions of column `j` in `row_idx` / `values`.
    pub fn col_range(&self, j: usize) -> std::ops::Range<usize> {
        self.col_ptr[j]..self.col_ptr[j + 1]
    }

    /// Row indices of column `j`.
    pub fn rows_in_col(&self, j: usize) -> &[usize] {
        &self.row_idx[self.col_range(j)]
    }

    /// Values of column `j`.
    pub fn vals_in_col(&self, j: usize) -> &[f64] {
        let r = self.col_range(j);
        &self.values[r]
    }

    /// Value at `(i, j)`, or 0 if the position is not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let r = self.col_range(j);
        match self.row_idx[r.clone()].binary_search(&i) {
            Ok(k) => self.values[r.start + k],
            Err(_) => 0.0,
        }
    }

    /// Transposed copy (CSC of Aᵀ, equivalently CSR of A).
    pub fn transpose(&self) -> CscMatrix {
        let mut cnt = vec![0usize; self.nrows + 1];
        for &r in &self.row_idx {
            cnt[r + 1] += 1;
        }
        for i in 0..self.nrows {
            cnt[i + 1] += cnt[i];
        }
        let mut next = cnt.clone();
        let mut rows = vec![0usize; self.nnz()];
        let mut vals = vec![0f64; self.nnz()];
        for j in 0..self.ncols {
            for p in self.col_range(j) {
                let i = self.row_idx[p];
                let q = next[i];
                next[i] += 1;
                rows[q] = j;
                vals[q] = self.values[p];
            }
        }
        CscMatrix::from_raw_parts(self.ncols, self.nrows, cnt, rows, vals, self.symmetry)
    }

    /// Pattern of `A + Aᵀ` (values summed; diagonal kept as stored).
    ///
    /// Orderings for unsymmetric matrices run on this symmetrized pattern,
    /// as MUMPS does.
    pub fn symmetrized(&self) -> CscMatrix {
        assert_eq!(self.nrows, self.ncols, "symmetrized() needs a square matrix");
        let at = self.transpose();
        let n = self.ncols;
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut rows = Vec::with_capacity(2 * self.nnz());
        let mut vals = Vec::with_capacity(2 * self.nnz());
        col_ptr.push(0);
        for j in 0..n {
            let (a, av) = (self.rows_in_col(j), self.vals_in_col(j));
            let (b, bv) = (at.rows_in_col(j), at.vals_in_col(j));
            let (mut p, mut q) = (0, 0);
            while p < a.len() || q < b.len() {
                let ra = a.get(p).copied().unwrap_or(usize::MAX);
                let rb = b.get(q).copied().unwrap_or(usize::MAX);
                if ra < rb {
                    rows.push(ra);
                    vals.push(av[p]);
                    p += 1;
                } else if rb < ra {
                    rows.push(rb);
                    vals.push(bv[q]);
                    q += 1;
                } else {
                    rows.push(ra);
                    vals.push(if ra == j { av[p] } else { av[p] + bv[q] });
                    p += 1;
                    q += 1;
                }
            }
            col_ptr.push(rows.len());
        }
        CscMatrix::from_raw_parts(n, n, col_ptr, rows, vals, Symmetry::Symmetric)
    }

    /// Symmetric permutation `P A Pᵀ`: entry `(i, j)` moves to
    /// `(perm.new_of(i), perm.new_of(j))`.
    pub fn permute_symmetric(&self, perm: &Permutation) -> CscMatrix {
        assert_eq!(self.nrows, self.ncols);
        assert_eq!(perm.len(), self.ncols);
        let n = self.ncols;
        let mut cnt = vec![0usize; n + 1];
        for j in 0..n {
            cnt[perm.new_of(j) + 1] += self.col_range(j).len();
        }
        for j in 0..n {
            cnt[j + 1] += cnt[j];
        }
        let col_ptr = cnt.clone();
        let mut rows = vec![0usize; self.nnz()];
        let mut vals = vec![0f64; self.nnz()];
        let mut next = cnt;
        for j in 0..n {
            let nj = perm.new_of(j);
            for p in self.col_range(j) {
                let q = next[nj];
                next[nj] += 1;
                rows[q] = perm.new_of(self.row_idx[p]);
                vals[q] = self.values[p];
            }
        }
        // Sort rows within each permuted column.
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for j in 0..n {
            let r = col_ptr[j]..col_ptr[j + 1];
            scratch.clear();
            scratch.extend(rows[r.clone()].iter().copied().zip(vals[r.clone()].iter().copied()));
            scratch.sort_unstable_by_key(|&(i, _)| i);
            for (k, &(i, v)) in scratch.iter().enumerate() {
                rows[r.start + k] = i;
                vals[r.start + k] = v;
            }
        }
        CscMatrix::from_raw_parts(n, n, col_ptr, rows, vals, self.symmetry)
    }

    /// Dense matrix-vector product `y = A x` (for residual checks in tests).
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0f64; self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for p in self.col_range(j) {
                y[self.row_idx[p]] += self.values[p] * xj;
            }
        }
        y
    }

    /// True if every stored off-diagonal `(i, j)` has a stored `(j, i)`.
    pub fn is_structurally_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        // Row `i`, read down the columns in order, must spell column `i`:
        // one cursor per column, no transposed copy.
        let mut next = self.col_ptr[..self.ncols].to_vec();
        for j in 0..self.ncols {
            for &i in self.rows_in_col(j) {
                if next[i] == self.col_ptr[i + 1] || self.row_idx[next[i]] != j {
                    return false;
                }
                next[i] += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CscMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut coo = CooMatrix::new(3, 3);
        for &(i, j, v) in &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)] {
            coo.push(i, j, v).unwrap();
        }
        coo.to_csc()
    }

    #[test]
    fn get_and_ranges() {
        let a = sample();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(2, 0), 4.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.nnz(), 5);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn transpose_round_trip() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let a = sample();
        let y = a.mul_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![1.0 + 6.0, 6.0, 4.0 + 15.0]);
    }

    #[test]
    fn symmetrized_pattern_is_symmetric() {
        let a = sample();
        let s = a.symmetrized();
        assert!(s.is_structurally_symmetric());
        // (0,2) and (2,0) both stored with summed value 2 + 4 = 6.
        assert_eq!(s.get(0, 2), 6.0);
        assert_eq!(s.get(2, 0), 6.0);
    }

    #[test]
    fn permute_symmetric_preserves_entries() {
        let a = sample();
        let p = Permutation::from_new_order(vec![2, 0, 1]).unwrap();
        let b = a.permute_symmetric(&p);
        assert!(b.validate().is_ok());
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(b.get(p.new_of(i), p.new_of(j)), a.get(i, j));
            }
        }
    }

    #[test]
    fn identity_is_valid() {
        let i = CscMatrix::identity(4, 2.0);
        assert_eq!(i.nnz(), 4);
        assert!(i.is_structurally_symmetric());
        assert_eq!(i.get(2, 2), 2.0);
    }
}
