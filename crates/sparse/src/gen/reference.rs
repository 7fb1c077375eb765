//! The COO generators that the grid and LP families replaced, kept as
//! test fixtures: every entry went through `CooMatrix::to_csc` and its
//! per-column sort. The direct CSC generators must reproduce them bit for
//! bit, which the property tests below check on random shapes and seeds.

use crate::coo::CooMatrix;
use crate::csc::{CscMatrix, Symmetry};
use crate::gen::grid::Stencil;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn idx3(nx: usize, ny: usize, x: usize, y: usize, z: usize) -> usize {
    (z * ny + y) * nx + x
}

/// The COO `grid2d`.
fn grid2d(nx: usize, ny: usize, stencil: Stencil) -> CscMatrix {
    let n = nx * ny;
    let mut coo = CooMatrix::new_symmetric(n);
    coo.reserve(n * 5);
    for y in 0..ny {
        for x in 0..nx {
            let i = y * nx + x;
            let mut deg = 0.0;
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    if stencil == Stencil::Star && dx != 0 && dy != 0 {
                        continue;
                    }
                    let (xx, yy) = (x as i64 + dx, y as i64 + dy);
                    if xx < 0 || yy < 0 || xx >= nx as i64 || yy >= ny as i64 {
                        continue;
                    }
                    let j = (yy as usize) * nx + xx as usize;
                    deg += 1.0;
                    if j < i {
                        coo.push(i, j, -1.0).unwrap();
                    }
                }
            }
            coo.push(i, i, deg + 1.0).unwrap();
        }
    }
    coo.to_csc()
}

/// The COO `grid3d`.
fn grid3d(
    nx: usize,
    ny: usize,
    nz: usize,
    stencil: Stencil,
    sym: Symmetry,
    seed: u64,
) -> CscMatrix {
    let n = nx * ny * nz;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo =
        if sym == Symmetry::Symmetric { CooMatrix::new_symmetric(n) } else { CooMatrix::new(n, n) };
    coo.reserve(n * if stencil == Stencil::Box { 27 } else { 7 });
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx3(nx, ny, x, y, z);
                let mut deg = 0.0;
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            if dx == 0 && dy == 0 && dz == 0 {
                                continue;
                            }
                            if stencil == Stencil::Star && dx.abs() + dy.abs() + dz.abs() != 1 {
                                continue;
                            }
                            let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                            if xx < 0
                                || yy < 0
                                || zz < 0
                                || xx >= nx as i64
                                || yy >= ny as i64
                                || zz >= nz as i64
                            {
                                continue;
                            }
                            let j = idx3(nx, ny, xx as usize, yy as usize, zz as usize);
                            deg += 1.0;
                            match sym {
                                Symmetry::Symmetric => {
                                    if j < i {
                                        coo.push(i, j, -1.0).unwrap();
                                    }
                                }
                                Symmetry::General => {
                                    // Asymmetric convection perturbation.
                                    let v = -1.0 + 0.4 * rng.gen::<f64>();
                                    coo.push(i, j, v).unwrap();
                                }
                            }
                        }
                    }
                }
                coo.push(i, i, deg + 1.0).unwrap();
            }
        }
    }
    coo.to_csc()
}

/// The COO `lp_normal_equations`: per-row hash sets, then a second COO
/// round trip for the diagonal.
fn lp_normal_equations(
    m: usize,
    ncols: usize,
    col_nnz: usize,
    dense_cols: usize,
    dense_frac: f64,
    seed: u64,
) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Columns of B as row-index lists.
    let mut cols: Vec<Vec<usize>> = Vec::with_capacity(ncols);
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
        cols.push(rows);
    }
    // Pattern of B Bᵀ: clique over the rows of each column.
    let mut coo = CooMatrix::new_symmetric(m);
    for i in 0..m {
        coo.push(i, i, 1.0).unwrap();
    }
    let mut seen: Vec<std::collections::HashSet<usize>> = vec![Default::default(); m];
    for rows in &cols {
        for (a, &i) in rows.iter().enumerate() {
            for &j in &rows[a + 1..] {
                if seen[j].insert(i) {
                    coo.push(j, i, -1.0 / (rows.len() as f64)).unwrap();
                }
            }
        }
    }
    let csc = coo.to_csc();
    // Make it diagonally dominant for numeric tests.
    let mut coo2 = CooMatrix::new_symmetric(m);
    for j in 0..m {
        for (&i, &v) in csc.rows_in_col(j).iter().zip(csc.vals_in_col(j)) {
            if i > j {
                coo2.push(i, j, v).unwrap();
            } else if i == j {
                let off: f64 = csc.vals_in_col(j).iter().map(|x| x.abs()).sum();
                coo2.push(j, j, off + 1.0).unwrap();
            }
        }
    }
    coo2.to_csc()
}

fn assert_bit_identical(got: &CscMatrix, want: &CscMatrix) {
    let bits = |m: &CscMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()));
    prop_assert_eq!(got.col_ptr(), want.col_ptr());
    prop_assert_eq!(got.row_idx(), want.row_idx());
    prop_assert_eq!(bits(got), bits(want));
    prop_assert_eq!(got.symmetry(), want.symmetry());
}

fn stencil(star: bool) -> Stencil {
    if star {
        Stencil::Star
    } else {
        Stencil::Box
    }
}

proptest! {
    #[test]
    fn grid3d_equals_the_coo_reference(
        nx in 1usize..8,
        ny in 1usize..8,
        nz in 1usize..8,
        star in any::<bool>(),
        symmetric in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let sym = if symmetric { Symmetry::Symmetric } else { Symmetry::General };
        let got = crate::gen::grid3d(nx, ny, nz, stencil(star), sym, seed);
        assert_bit_identical(&got, &grid3d(nx, ny, nz, stencil(star), sym, seed));
    }

    #[test]
    fn grid2d_equals_the_coo_reference_and_the_single_layer_grid3d(
        nx in 1usize..8,
        ny in 1usize..8,
        star in any::<bool>(),
    ) {
        let got = crate::gen::grid2d(nx, ny, stencil(star));
        assert_bit_identical(&got, &grid2d(nx, ny, stencil(star)));
        let layer = crate::gen::grid3d(nx, ny, 1, stencil(star), Symmetry::Symmetric, 0);
        assert_bit_identical(&got, &layer);
    }

    #[test]
    fn lp_normal_equations_equals_the_coo_reference(
        m in 2usize..200,
        ncols in 0usize..400,
        col_nnz in 1usize..6,
        dense_cols in 0usize..4,
        dense_frac in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let got = crate::gen::lp_normal_equations(m, ncols, col_nnz, dense_cols, dense_frac, seed);
        let want = lp_normal_equations(m, ncols, col_nnz, dense_cols, dense_frac, seed);
        assert_bit_identical(&got, &want);
    }
}
