//! Golden matrices: the refactoring oracle of the `mf-sparse` generators.
//!
//! Every table of the paper starts from a generated matrix, so a rewrite
//! of a generator for speed must reproduce it bit for bit: no entry, row
//! order or rounding of a value may move. Each entry pins an FNV-1a
//! digest of `col_ptr`, `row_idx`, the bits of `values` and the symmetry
//! tag. The digests were taken from the generators as they stood when
//! every family went through `CooMatrix::to_csc` (GUPTA3's `A·Aᵀ` through
//! per-row hash sets and a second COO round trip); the grid and LP
//! families now build CSC directly, and these numbers are what is left of
//! the COO path outside the `mf-sparse` differential tests.
//!
//! After an intentional change of behaviour, run
//!
//! ```bash
//! cargo test --release --test generator_goldens -- --nocapture
//! ```
//!
//! and paste the tables it prints on failure.

use multifrontal::prelude::*;
use multifrontal::sparse::gen::grid::{grid2d, grid3d};

fn digest(a: &CscMatrix) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut word = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for &p in a.col_ptr() {
        word(p as u64);
    }
    for &r in a.row_idx() {
        word(r as u64);
    }
    for v in a.values() {
        word(v.to_bits());
    }
    word((a.symmetry() == Symmetry::Symmetric) as u64);
    h
}

/// Panics with the table in source form when `got` differs from `want`.
fn compare<const K: usize>(what: &str, want: &[[u64; K]], got: &[[u64; K]]) {
    if want == got {
        return;
    }
    let rows: Vec<String> = got
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(|d| format!("{d:#018x}")).collect();
            format!("    [{}],", cells.join(", "))
        })
        .collect();
    let first = want.iter().zip(got).position(|(w, g)| w != g).unwrap_or(want.len().min(got.len()));
    panic!(
        "{what}: first difference in row {first}; the generators now produce\n{}",
        rows.join("\n")
    );
}

/// Rows follow `ALL_PAPER_MATRICES`; columns are scale ×1 and ×0.05.
const PAPER: [[u64; 2]; 8] = [
    [0xdb73404c769770f4, 0xec7d4cccfea82ddf],
    [0x2a95c94cc2607968, 0x9459fa28e9d4e395],
    [0x8cc68d20a5c77b93, 0x0a99b00f1e52430b],
    [0x0a8cfc302f9ed37c, 0x37d12327a9634e05],
    [0x4525f7e2bc45f357, 0xcc8a68769756d55d],
    [0xbd8af3693e10e37e, 0xe9edc6d8c2125ee6],
    [0xc235b7c3836868bb, 0x985564c3117d7237],
    [0xc16850ebcd9e97c4, 0x4f4381e3c379b5a6],
];

#[test]
fn paper_matrices_at_two_scales() {
    let got: Vec<[u64; 2]> = ALL_PAPER_MATRICES
        .iter()
        .map(|m| [digest(&m.instantiate_scaled(1.0)), digest(&m.instantiate_scaled(0.05))])
        .collect();
    compare("paper matrices", &PAPER, &got);
}

/// GUPTA3 at ×2: twice the constraints, the same eight dense columns.
const GUPTA3_X2: [[u64; 1]; 1] = [[0x9332f84fa686db69]];

#[test]
fn gupta3_at_twice_the_scale() {
    compare("GUPTA3 x2", &GUPTA3_X2, &[[digest(&PaperMatrix::Gupta3.instantiate_scaled(2.0))]]);
}

/// The benchmark's solve instances: `grid3d(26,26,26,Box,General)` at
/// seeds 7 and 42, `grid2d(300,300,Star)`, then their smoke sizes
/// `grid3d(8,8,8,Box,General)` at seeds 7 and 42 and `grid2d(40,40,Star)`.
const BENCH: [[u64; 1]; 6] = [
    [0x5c93addb9a80261a],
    [0x6d4c47c4ff8574b6],
    [0x5ff035f266b6f283],
    [0x6c1c16b361d42594],
    [0x4c6dace0e366b527],
    [0x132842f445ad0457],
];

#[test]
fn benchmark_instances() {
    let fat = |n, seed| grid3d(n, n, n, Stencil::Box, Symmetry::General, seed);
    let got = [
        [digest(&fat(26, 7))],
        [digest(&fat(26, 42))],
        [digest(&grid2d(300, 300, Stencil::Star))],
        [digest(&fat(8, 7))],
        [digest(&fat(8, 42))],
        [digest(&grid2d(40, 40, Stencil::Star))],
    ];
    compare("benchmark instances", &BENCH, &got);
}
