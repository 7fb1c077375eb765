//! Regular-grid finite-element / finite-difference generators.

use crate::csc::{CscMatrix, Symmetry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Coupling stencil for grid generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stencil {
    /// 5-point (2-D) / 7-point (3-D) finite differences.
    Star,
    /// 9-point (2-D) / 27-point (3-D) finite elements (full neighbour box).
    Box,
}

/// Calls `f` with the index and coordinates of every grid point, in
/// ascending index order (`z`, then `y`, then `x`).
fn for_each_point([nx, ny, nz]: [usize; 3], mut f: impl FnMut(usize, [usize; 3])) {
    let mut i = 0;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                f(i, [x, y, z]);
                i += 1;
            }
        }
    }
}

/// The coordinates within one step of `c` on an axis of length `n`.
fn around(c: usize, n: usize) -> std::ops::Range<usize> {
    c.saturating_sub(1)..(c + 2).min(n)
}

/// Stored entries of grid point `p`'s column: its stencil neighbours and
/// the diagonal.
fn column_len([nx, ny, nz]: [usize; 3], [x, y, z]: [usize; 3], stencil: Stencil) -> usize {
    let spans = [around(x, nx).len(), around(y, ny).len(), around(z, nz).len()];
    match stencil {
        Stencil::Star => spans.iter().sum::<usize>() - 2,
        Stencil::Box => spans.iter().product(),
    }
}

/// Calls `f` with the index of every stencil neighbour of grid point
/// `(x, y, z)`, in ascending index order (`dz`, then `dy`, then `dx`).
fn for_each_neighbour(
    [nx, ny, nz]: [usize; 3],
    [x, y, z]: [usize; 3],
    stencil: Stencil,
    mut f: impl FnMut(usize),
) {
    for zz in around(z, nz) {
        for yy in around(y, ny) {
            for xx in around(x, nx) {
                let moved = (xx != x) as u8 + (yy != y) as u8 + (zz != z) as u8;
                if moved == 0 || (stencil == Stencil::Star && moved != 1) {
                    continue;
                }
                f((zz * ny + yy) * nx + xx);
            }
        }
    }
}

/// Symmetric positive-definite matrix on an `nx x ny` grid: the
/// single-layer `grid3d` with `Symmetry::Symmetric`.
///
/// `Stencil::Star` gives the classic 5-point Laplacian; `Stencil::Box` the
/// 9-point FEM coupling. Values are diagonally dominant so that pivoting is
/// never an issue in the numeric tests.
pub fn grid2d(nx: usize, ny: usize, stencil: Stencil) -> CscMatrix {
    grid3d(nx, ny, 1, stencil, Symmetry::Symmetric, 0)
}

/// Matrix on an `nx x ny x nz` grid.
///
/// With `Symmetry::Symmetric` the result is SPD (diagonally dominant
/// Laplacian-like); with `Symmetry::General` the off-diagonal couplings are
/// perturbed asymmetrically (convection-like), producing an unsymmetric
/// matrix with a structurally symmetric pattern, as in the ULTRASOUND3 and
/// XENON2 problems.
///
/// The CSC arrays are built directly. Column `j` holds `j`'s stencil
/// neighbours and `j` itself, so counting the stencil points inside the
/// grid gives `col_ptr`. A row-major fill then writes row `i`'s entries (each
/// neighbour's coupling, then the diagonal `deg + 1`) through a cursor
/// per column. Rows reach every column in ascending order, so no column is
/// sorted, and the `General` couplings are drawn from the RNG in row-major,
/// neighbour order.
pub fn grid3d(
    nx: usize,
    ny: usize,
    nz: usize,
    stencil: Stencil,
    sym: Symmetry,
    seed: u64,
) -> CscMatrix {
    let n = nx * ny * nz;
    let dims = [nx, ny, nz];
    let mut col_ptr = Vec::with_capacity(n + 1);
    col_ptr.push(0);
    let mut nnz = 0;
    for_each_point(dims, |_, p| {
        nnz += column_len(dims, p, stencil);
        col_ptr.push(nnz);
    });
    let mut row_idx = vec![0usize; nnz];
    let mut values = vec![0f64; nnz];
    let mut next = col_ptr[..n].to_vec();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut put = |i: usize, j: usize, v: f64| {
        row_idx[next[j]] = i;
        values[next[j]] = v;
        next[j] += 1;
    };
    for_each_point(dims, |i, p| {
        let mut deg = 0.0;
        for_each_neighbour(dims, p, stencil, |j| {
            deg += 1.0;
            let v = match sym {
                Symmetry::Symmetric => -1.0,
                // Asymmetric convection perturbation.
                Symmetry::General => -1.0 + 0.4 * rng.gen::<f64>(),
            };
            put(i, j, v);
        });
        put(i, i, deg + 1.0);
    });
    CscMatrix::from_raw_parts(n, n, col_ptr, row_idx, values, sym)
}

/// Thin 3-D grid ("2.5-D" shell), the structure family of plate/shell FEM
/// models such as MSDOOR and SHIP_003: large in two dimensions, a few
/// layers in the third, with full box coupling.
pub fn shell3d(nx: usize, ny: usize, layers: usize) -> CscMatrix {
    grid3d(nx, ny, layers.max(1), Stencil::Box, Symmetry::Symmetric, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2d_star_is_5_point() {
        let a = grid2d(4, 4, Stencil::Star);
        assert_eq!(a.nrows(), 16);
        // Interior node 5 has 4 neighbours + diagonal.
        assert_eq!(a.rows_in_col(5).len(), 5);
        assert!(a.is_structurally_symmetric());
    }

    #[test]
    fn grid2d_box_is_9_point() {
        let a = grid2d(4, 4, Stencil::Box);
        assert_eq!(a.rows_in_col(5).len(), 9);
    }

    #[test]
    fn grid3d_box_interior_has_27() {
        let a = grid3d(4, 4, 4, Stencil::Box, Symmetry::Symmetric, 0);
        // Node (1,1,1) = 21 is interior.
        assert_eq!(a.rows_in_col(21).len(), 27);
        assert!(a.is_structurally_symmetric());
    }

    #[test]
    fn grid3d_unsymmetric_values_pattern_symmetric() {
        let a = grid3d(3, 3, 3, Stencil::Star, Symmetry::General, 7);
        assert!(a.is_structurally_symmetric());
        assert_eq!(a.symmetry(), Symmetry::General);
        // Values differ across the diagonal somewhere.
        let asym = (0..a.ncols()).any(|j| {
            a.rows_in_col(j).iter().any(|&i| i != j && (a.get(i, j) - a.get(j, i)).abs() > 1e-12)
        });
        assert!(asym);
    }

    #[test]
    fn grid_is_diagonally_dominant() {
        let a = grid2d(5, 5, Stencil::Box);
        for j in 0..a.ncols() {
            let off: f64 = a
                .rows_in_col(j)
                .iter()
                .zip(a.vals_in_col(j))
                .filter(|(&i, _)| i != j)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.get(j, j) > off, "column {j} not dominant");
        }
    }

    #[test]
    fn shell_is_thin() {
        let a = shell3d(10, 8, 2);
        assert_eq!(a.nrows(), 160);
        assert!(a.is_structurally_symmetric());
    }
}
