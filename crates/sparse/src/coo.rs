//! Coordinate (triplet) format builder.

use crate::csc::{CscMatrix, Symmetry};
use crate::error::SparseError;

/// A sparse matrix under construction, stored as `(row, col, value)` triplets.
///
/// This is the assembly format: entries may be pushed in any order and
/// duplicates are *summed* during conversion to [`CscMatrix`], matching the
/// behaviour of finite-element assembly and of the Matrix Market convention.
#[derive(Debug, Clone)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    symmetry: Symmetry,
}

impl CooMatrix {
    /// Creates an empty builder for an `nrows x ncols` general matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            symmetry: Symmetry::General,
        }
    }

    /// Creates an empty builder for an `n x n` symmetric matrix.
    ///
    /// Only one triangle needs to be pushed; conversion mirrors entries so
    /// the resulting [`CscMatrix`] stores the full pattern while keeping the
    /// `Symmetric` tag (the solver layers use the tag to pick LDLᵀ vs LU).
    pub fn new_symmetric(n: usize) -> Self {
        CooMatrix { symmetry: Symmetry::Symmetric, ..CooMatrix::new(n, n) }
    }

    /// Pre-allocates room for `additional` more triplets.
    pub fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
        self.cols.reserve(additional);
        self.vals.reserve(additional);
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Symmetry tag this builder was created with.
    pub fn symmetry(&self) -> Symmetry {
        self.symmetry
    }

    /// Pushes one entry; returns an error if it is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, val: f64) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
    }

    /// Converts to compressed sparse column format, summing duplicates.
    ///
    /// For symmetric builders, off-diagonal entries are mirrored so that the
    /// stored pattern is structurally symmetric.
    pub fn to_csc(&self) -> CscMatrix {
        let mirror = self.symmetry == Symmetry::Symmetric;
        let extra = if mirror {
            self.rows.iter().zip(&self.cols).filter(|(r, c)| r != c).count()
        } else {
            0
        };
        let nnz_in = self.vals.len() + extra;

        // Counting sort by column.
        let mut col_counts = vec![0usize; self.ncols + 1];
        for (&r, &c) in self.rows.iter().zip(&self.cols) {
            col_counts[c + 1] += 1;
            if mirror && r != c {
                col_counts[r + 1] += 1;
            }
        }
        for j in 0..self.ncols {
            col_counts[j + 1] += col_counts[j];
        }
        let col_ptr_unmerged = col_counts.clone();
        let mut next = col_counts;
        let mut row_idx = vec![0usize; nnz_in];
        let mut values = vec![0f64; nnz_in];
        for ((&r, &c), &v) in self.rows.iter().zip(&self.cols).zip(&self.vals) {
            let p = next[c];
            next[c] += 1;
            row_idx[p] = r;
            values[p] = v;
            if mirror && r != c {
                let p = next[r];
                next[r] += 1;
                row_idx[p] = c;
                values[p] = v;
            }
        }

        // Sort each column by row index and merge duplicates.
        let mut out_ptr = Vec::with_capacity(self.ncols + 1);
        let mut out_rows = Vec::with_capacity(nnz_in);
        let mut out_vals = Vec::with_capacity(nnz_in);
        out_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for j in 0..self.ncols {
            let (lo, hi) = (col_ptr_unmerged[j], col_ptr_unmerged[j + 1]);
            scratch.clear();
            scratch.extend(row_idx[lo..hi].iter().copied().zip(values[lo..hi].iter().copied()));
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut k = 0;
            while k < scratch.len() {
                let (r, mut v) = scratch[k];
                k += 1;
                while k < scratch.len() && scratch[k].0 == r {
                    v += scratch[k].1;
                    k += 1;
                }
                out_rows.push(r);
                out_vals.push(v);
            }
            out_ptr.push(out_rows.len());
        }

        CscMatrix::from_raw_parts(
            self.nrows,
            self.ncols,
            out_ptr,
            out_rows,
            out_vals,
            self.symmetry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_out_of_bounds_is_rejected() {
        let mut coo = CooMatrix::new(2, 3);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 3, 1.0).is_err());
        assert!(coo.push(1, 2, 1.0).is_ok());
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.5).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        let csc = coo.to_csc();
        assert_eq!(csc.nnz(), 2);
        assert_eq!(csc.col_range(0).len(), 2);
        assert_eq!(csc.values()[0], 3.5);
    }

    #[test]
    fn symmetric_builder_mirrors_pattern() {
        let mut coo = CooMatrix::new_symmetric(3);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 2.0).unwrap();
        coo.push(2, 2, 2.0).unwrap();
        coo.push(2, 0, 1.0).unwrap(); // lower triangle only
        let csc = coo.to_csc();
        assert_eq!(csc.nnz(), 5);
        // column 0 holds rows {0, 2}; column 2 holds rows {0, 2}
        assert_eq!(csc.rows_in_col(0), &[0, 2]);
        assert_eq!(csc.rows_in_col(2), &[0, 2]);
        assert_eq!(csc.symmetry(), Symmetry::Symmetric);
    }

    #[test]
    fn columns_are_sorted() {
        let mut coo = CooMatrix::new(4, 4);
        for &(r, c) in &[(3usize, 1usize), (0, 1), (2, 1), (1, 1)] {
            coo.push(r, c, 1.0).unwrap();
        }
        let csc = coo.to_csc();
        assert_eq!(csc.rows_in_col(1), &[0, 1, 2, 3]);
    }
}
