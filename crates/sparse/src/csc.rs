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
    ///
    /// Two counting passes, `O(n + nnz)`: every entry is bucketed under
    /// its new row (the source read in storage order), then the buckets
    /// are emptied in ascending new-row order into the new columns, which
    /// leaves every column's rows ascending.
    ///
    /// # Panics
    /// If the matrix is not square or `perm` has another length.
    pub fn permute_symmetric(&self, perm: &Permutation) -> CscMatrix {
        let n = self.ncols;
        assert_eq!(self.nrows, n, "permute_symmetric needs a square matrix");
        assert_eq!(perm.len(), n, "permute_symmetric: permutation length differs from the order");
        let nnz = self.nnz();
        // Pass 1: entry `(i, j)` goes to bucket `new_of(i)` as
        // `(new_of(j), value)`; `next[i]` is the cursor of old row `i`.
        let mut next = vec![0usize; n];
        for &i in &self.row_idx {
            next[i] += 1;
        }
        let mut bucket_ptr = Vec::with_capacity(n + 1);
        bucket_ptr.push(0);
        for r in 0..n {
            let (i, start) = (perm.old_of(r), bucket_ptr[r]);
            bucket_ptr.push(start + next[i]);
            next[i] = start;
        }
        let mut buckets = vec![(0usize, 0f64); nnz];
        for j in 0..n {
            let new_j = perm.new_of(j);
            for p in self.col_range(j) {
                let q = &mut next[self.row_idx[p]];
                buckets[*q] = (new_j, self.values[p]);
                *q += 1;
            }
        }
        // Pass 2: empty the buckets, in new-row order, into the new columns.
        let mut col_ptr = Vec::with_capacity(n + 1);
        col_ptr.push(0);
        for new_j in 0..n {
            col_ptr.push(col_ptr[new_j] + self.col_range(perm.old_of(new_j)).len());
        }
        next.copy_from_slice(&col_ptr[..n]);
        let (mut rows, mut vals) = (vec![0usize; nnz], vec![0f64; nnz]);
        for (r, bucket) in bucket_ptr.windows(2).enumerate() {
            for &(new_j, v) in &buckets[bucket[0]..bucket[1]] {
                let p = &mut next[new_j];
                (rows[*p], vals[*p]) = (r, v);
                *p += 1;
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// Random square matrix with the edge shapes of `permute_symmetric`:
    /// a dense column (and, when symmetric, its dense row), columns left
    /// empty, and values whose bits tell entries apart (`-0.0` included).
    fn random_square(n: usize, sym: Symmetry, rng: &mut SmallRng) -> CscMatrix {
        let mut cells = std::collections::BTreeMap::new();
        let mut put = |i: usize, j: usize, v: f64| {
            cells.insert((j, i), v);
            if sym == Symmetry::Symmetric {
                cells.insert((i, j), v);
            }
        };
        if n > 0 {
            let dense = rng.gen_range(0..n);
            for i in 0..n {
                put(i, dense, if i % 5 == 0 { -0.0 } else { i as f64 + 0.5 });
            }
            for _ in 0..2 * n {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if j % 3 != 1 && i % 3 != 1 {
                    put(i, j, rng.gen::<f64>() - 0.5);
                }
            }
        }
        let mut col_ptr = vec![0; n + 1];
        for &(j, _) in cells.keys() {
            col_ptr[j + 1] += 1;
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let rows = cells.keys().map(|&(_, i)| i).collect();
        let vals = cells.values().copied().collect();
        CscMatrix::from_raw_parts(n, n, col_ptr, rows, vals, sym)
    }

    fn random_permutation(n: usize, rng: &mut SmallRng) -> Permutation {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Permutation::from_elimination_order(order).unwrap()
    }

    #[test]
    fn permute_symmetric_matches_entrywise_reference() {
        let mut rng = SmallRng::seed_from_u64(20);
        for n in [0, 1, 2, 3, 7, 16, 41] {
            for sym in [Symmetry::General, Symmetry::Symmetric] {
                let a = random_square(n, sym, &mut rng);
                let p = random_permutation(n, &mut rng);
                let b = a.permute_symmetric(&p);
                assert!(b.validate().is_ok(), "n={n}: {:?}", b.validate());
                assert_eq!((b.nrows(), b.ncols(), b.nnz()), (n, n, a.nnz()));
                assert_eq!(b.symmetry(), sym);
                for j in 0..n {
                    for i in 0..n {
                        let (want, got) = (a.get(i, j), b.get(p.new_of(i), p.new_of(j)));
                        assert_eq!(got.to_bits(), want.to_bits(), "n={n} ({i},{j})");
                    }
                    assert_eq!(b.col_range(p.new_of(j)).len(), a.col_range(j).len());
                }
                assert_eq!(b.permute_symmetric(&p.inverse()), a);
            }
        }
    }

    #[test]
    fn permute_symmetric_moves_values_with_their_entries() {
        // Two matrices of one pattern: the permuted patterns agree and
        // every value arrives bit for bit, whatever it is.
        let mut rng = SmallRng::seed_from_u64(21);
        let a = random_square(23, Symmetry::General, &mut rng);
        let odd = [f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE / 2.0, 1.0 + f64::EPSILON];
        let vals: Vec<f64> =
            (0..a.nnz()).map(|k| odd[k % odd.len()] * (1 + k / 5) as f64).collect();
        let b = CscMatrix::from_raw_parts(
            23,
            23,
            a.col_ptr().to_vec(),
            a.row_idx().to_vec(),
            vals,
            Symmetry::General,
        );
        let p = random_permutation(23, &mut rng);
        let (pa, pb) = (a.permute_symmetric(&p), b.permute_symmetric(&p));
        assert_eq!((pa.col_ptr(), pa.row_idx()), (pb.col_ptr(), pb.row_idx()));
        for j in 0..23 {
            for (&i, &v) in b.rows_in_col(j).iter().zip(b.vals_in_col(j)) {
                let col = pb.col_range(p.new_of(j));
                let k = pb.row_idx()[col.clone()].binary_search(&p.new_of(i)).unwrap();
                assert_eq!(pb.values()[col.start + k].to_bits(), v.to_bits());
            }
        }
    }

    /// The sort-based `P A Pᵀ` the counting passes replaced: each new
    /// column's rows mapped, sorted as `(new_row << 32) | position` keys,
    /// and rows and values gathered in key order.
    fn permute_by_sorting(a: &CscMatrix, perm: &Permutation) -> CscMatrix {
        let n = a.ncols();
        let (mut col_ptr, mut rows, mut vals) = (vec![0], Vec::new(), Vec::new());
        for new_j in 0..n {
            let src = a.col_range(perm.old_of(new_j));
            let (src_rows, src_vals) = (&a.row_idx()[src.clone()], &a.values()[src]);
            let mut keys: Vec<u64> = src_rows
                .iter()
                .enumerate()
                .map(|(k, &i)| ((perm.new_of(i) as u64) << 32) | k as u64)
                .collect();
            keys.sort_unstable();
            rows.extend(keys.iter().map(|&key| (key >> 32) as usize));
            vals.extend(keys.iter().map(|&key| src_vals[key as u32 as usize]));
            col_ptr.push(rows.len());
        }
        CscMatrix::from_raw_parts(n, n, col_ptr, rows, vals, a.symmetry())
    }

    proptest::proptest! {
        #[test]
        fn permute_symmetric_equals_the_sorting_reference(
            n in 0usize..90,
            symmetric in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let sym = if symmetric { Symmetry::Symmetric } else { Symmetry::General };
            let a = random_square(n, sym, &mut rng);
            let p = random_permutation(n, &mut rng);
            let (got, want) = (a.permute_symmetric(&p), permute_by_sorting(&a, &p));
            proptest::prop_assert_eq!(got.col_ptr(), want.col_ptr());
            proptest::prop_assert_eq!(got.row_idx(), want.row_idx());
            let bits = |m: &CscMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&got), bits(&want));
            proptest::prop_assert_eq!(got.symmetry(), sym);
        }
    }

    #[test]
    #[should_panic(expected = "permutation length differs")]
    fn permute_symmetric_rejects_a_short_permutation() {
        sample().permute_symmetric(&Permutation::identity(2));
    }

    #[test]
    fn identity_is_valid() {
        let i = CscMatrix::identity(4, 2.0);
        assert_eq!(i.nnz(), 4);
        assert!(i.is_structurally_symmetric());
        assert_eq!(i.get(2, 2), 2.0);
    }
}
