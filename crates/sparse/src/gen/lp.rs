//! Linear-programming normal-equations generator (GUPTA3 family).

use crate::csc::{CscMatrix, Symmetry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds the pattern of `B Bᵀ` for a random sparse LP constraint matrix
/// `B` (`m x ncols`), the structure family of GUPTA3 (`A·Aᵀ` of a linear
/// program).
///
/// LP constraint matrices mix many sparse columns with a few dense ones;
/// the dense columns make `B Bᵀ` locally very dense, which is what gives
/// GUPTA3 its extreme nnz/n ratio (~278 in the paper) and its shallow, fat
/// assembly trees.
///
/// The result is built column by column straight into CSC. `B`'s columns
/// are drawn first (the RNG stream depends on nothing else), then
/// transposed into the ascending list of columns holding each row. Result
/// column `j` collects the rows that share a column of `B` with `j`,
/// deduplicated with a stamp array while `j`'s columns are walked in
/// ascending order, so the first column holding both rows gives the
/// coupling `-1/|col|`. The column is then sorted, and its diagonal is the
/// column's absolute sum (in row order, with a placeholder `1.0` at the
/// diagonal) plus one, which makes the matrix diagonally dominant.
///
/// * `m` — number of constraints = order of the result.
/// * `ncols` — number of LP variables (columns of `B`).
/// * `col_nnz` — entries per sparse column.
/// * `dense_cols` — number of dense columns; each touches `dense_frac * m`
///   random rows.
pub fn lp_normal_equations(
    m: usize,
    ncols: usize,
    col_nnz: usize,
    dense_cols: usize,
    dense_frac: f64,
    seed: u64,
) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    // The pattern of B, column by column.
    let (mut b_ptr, mut b_rows) = (vec![0], Vec::new());
    for c in 0..ncols {
        let k =
            if c < dense_cols { ((m as f64 * dense_frac) as usize).max(2) } else { col_nnz.max(2) };
        let mut rows: Vec<usize> = (0..k).map(|_| rng.gen_range(0..m)).collect();
        // Bias sparse columns towards locality so BBᵀ has banded structure
        // in addition to the dense blocks (LP staircase structure).
        if c >= dense_cols {
            let base = rng.gen_range(0..m);
            for r in rows.iter_mut() {
                *r = (base + *r % (4 * col_nnz + 1)) % m;
            }
        }
        rows.sort_unstable();
        rows.dedup();
        b_rows.extend(rows);
        b_ptr.push(b_rows.len());
    }
    let zeros = vec![0.0; b_rows.len()];
    let b = CscMatrix::from_raw_parts(m, ncols, b_ptr, b_rows, zeros, Symmetry::General);
    // Column r of Bᵀ: the ascending list of the columns of B holding row r.
    let bt = b.transpose();
    // Column j of B Bᵀ: the rows sharing a column of B with j. The first
    // such column (j's columns are walked in ascending order) gives the
    // coupling -1/|col|; `stamp[i] == j` marks row i as already met.
    let mut stamp = vec![usize::MAX; m];
    let mut coupling = vec![0f64; m];
    let mut col_ptr = Vec::with_capacity(m + 1);
    col_ptr.push(0);
    let (mut row_idx, mut values) = (Vec::new(), Vec::new());
    for j in 0..m {
        let start = row_idx.len();
        stamp[j] = j;
        row_idx.push(j);
        for &c in bt.rows_in_col(j) {
            let rows = b.rows_in_col(c);
            for &i in rows {
                if stamp[i] != j {
                    stamp[i] = j;
                    coupling[i] = -1.0 / (rows.len() as f64);
                    row_idx.push(i);
                }
            }
        }
        let rows = &mut row_idx[start..];
        rows.sort_unstable();
        // The diagonal starts as a placeholder 1.0 and becomes the column's
        // absolute sum plus one, so the matrix is diagonally dominant.
        values.extend(rows.iter().map(|&i| if i == j { 1.0 } else { coupling[i] }));
        let col = &mut values[start..];
        let off: f64 = col.iter().map(|x| x.abs()).sum();
        col[rows.binary_search(&j).unwrap()] = off + 1.0;
        col_ptr.push(row_idx.len());
    }
    CscMatrix::from_raw_parts(m, m, col_ptr, row_idx, values, Symmetry::Symmetric)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_is_symmetric_and_dense_enough() {
        let a = lp_normal_equations(300, 600, 3, 4, 0.2, 42);
        assert_eq!(a.nrows(), 300);
        assert!(a.is_structurally_symmetric());
        // Dense columns should push average degree well above the sparse base.
        assert!(a.nnz() as f64 / a.nrows() as f64 > 8.0, "nnz/n = {}", a.nnz() as f64 / 300.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = lp_normal_equations(100, 200, 3, 2, 0.1, 7);
        let b = lp_normal_equations(100, 200, 3, 2, 0.1, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn diagonally_dominant() {
        let a = lp_normal_equations(120, 240, 3, 2, 0.15, 3);
        for j in 0..a.ncols() {
            let off: f64 = a
                .rows_in_col(j)
                .iter()
                .zip(a.vals_in_col(j))
                .filter(|(&i, _)| i != j)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.get(j, j) > off);
        }
    }
}
