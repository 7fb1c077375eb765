//! Golden factorizations: the refactoring oracle of the numeric path.
//!
//! A rewrite of the front pipeline for speed (kernels, assembly,
//! extend-add, factor storage) must reproduce the numbers bit for bit.
//! Each row pins an FNV-1a digest over the bit patterns of `f.solve(b)`
//! for a fixed `b` — the solve reads exactly the strict-lower `L`, `D`
//! and `U`, in a fixed order, so any moved factor bit moves the digest —
//! plus `stats.{active_peak, stack_peak, factor_entries}`. The values
//! were taken from the driver as it stood before PR 19 (square fronts
//! with both triangles of a symmetric front kept current, four factor
//! matrices per front, square contribution blocks in separate `Vec`s).
//!
//! After an intentional change of the arithmetic, run
//!
//! ```bash
//! cargo test --release -p mf-frontal --test factor_goldens -- --nocapture
//! ```
//!
//! and paste the table it prints on failure.

use mf_frontal::Factorization;
use mf_order::OrderingKind;
use mf_sparse::gen::grid::{grid2d, grid3d, Stencil};
use mf_sparse::gen::paper::ALL_PAPER_MATRICES;
use mf_sparse::{CscMatrix, Symmetry};
use mf_symbolic::split::split_large_masters;
use mf_symbolic::AmalgamationOptions;

/// `[digest of x, active_peak, stack_peak, factor_entries]`.
type Row = [u64; 4];

fn row(a: &CscMatrix, kind: OrderingKind, split_at: Option<u64>) -> Row {
    let perm = kind.compute(a);
    let mut s = mf_symbolic::analyze(a, &perm, &AmalgamationOptions::default());
    if let Some(max_master) = split_at {
        let report = split_large_masters(&mut s.tree, max_master);
        assert!(report.nodes_split > 0, "the split instance must actually split");
    }
    let f = Factorization::from_symbolic(a, &s).expect("factorize");
    let b: Vec<f64> =
        (0..a.nrows()).map(|i| ((i * 2654435761) % 1000) as f64 / 100.0 - 5.0).collect();
    let mut h: u64 = 0xcbf29ce484222325;
    for x in f.solve(&b) {
        for byte in x.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x100000001b3);
        }
    }
    [h, f.stats.active_peak, f.stats.stack_peak, f.stats.factor_entries]
}

/// Panics with the table in source form when `got` differs from `want`.
fn compare(what: &str, want: &[Row], got: &[Row]) {
    if want == got {
        return;
    }
    let rows: Vec<String> = got
        .iter()
        .map(|r| format!("    [{:#018x}, {}, {}, {}],", r[0], r[1], r[2], r[3]))
        .collect();
    let first = want.iter().zip(got).position(|(w, g)| w != g).unwrap_or(want.len().min(got.len()));
    panic!("{what}: first difference in row {first}; the driver now produces\n{}", rows.join("\n"));
}

/// `grid2d(300,300,Star)`/AMD (the `solve_thin` instance), `grid2d(40,40,
/// Star)`/AMD, `grid3d(8³ and 16³, Box, General, 3)`/METIS, and the
/// symmetric `grid3d(16³, Box)`/METIS (a 256-pivot root separator
/// through the blocked LDLᵀ kernel).
const GRIDS: [Row; 5] = [
    [0x39da1d3940b0cfd2, 762921, 389044, 5272882],
    [0x9ff5990fe9a7b7c5, 10975, 3745, 36193],
    [0xe2b504e16c1787ac, 76781, 25852, 92120],
    [0x97d46354eaf8c305, 1110113, 406096, 1988116],
    [0x185d1075fdb0cc2e, 556096, 203736, 996106],
];

#[test]
fn grids() {
    let general = |n| grid3d(n, n, n, Stencil::Box, Symmetry::General, 3);
    let got = [
        row(&grid2d(300, 300, Stencil::Star), OrderingKind::Amd, None),
        row(&grid2d(40, 40, Stencil::Star), OrderingKind::Amd, None),
        row(&general(8), OrderingKind::Metis, None),
        row(&general(16), OrderingKind::Metis, None),
        row(&grid3d(16, 16, 16, Stencil::Box, Symmetry::Symmetric, 3), OrderingKind::Metis, None),
    ];
    compare("grids", &GRIDS, &got);
}

/// `grid3d(12³, Box)`/METIS split at 2000 master entries: symmetric,
/// then `General` with seed 5 — chains whose tail links factor on the
/// Schur complement their head left behind.
const SPLIT: [Row; 2] =
    [[0xb631b763fddd629e, 183612, 91806, 289066], [0x44c669f997e5ee4b, 472392, 236196, 576404]];

#[test]
fn split_trees() {
    let got = [Symmetry::Symmetric, Symmetry::General]
        .map(|sym| row(&grid3d(12, 12, 12, Stencil::Box, sym, 5), OrderingKind::Metis, Some(2000)));
    compare("split trees", &SPLIT, &got);
}

/// The symmetric paper matrices at scale 0.05 under AMD, in
/// `ALL_PAPER_MATRICES` order.
const PAPER_SYMMETRIC: [Row; 4] = [
    [0xf73fe7baa93a81cf, 16888, 8373, 19266],
    [0xcdf990d50ebcd9c8, 2912, 1427, 2402],
    [0x6de7182aed5b0015, 14978, 8308, 22465],
    [0x90223ad560097186, 15888, 6977, 23085],
];

#[test]
fn symmetric_paper_matrices() {
    let got: Vec<Row> = ALL_PAPER_MATRICES
        .iter()
        .filter(|m| !m.is_unsymmetric())
        .map(|m| row(&m.instantiate_scaled(0.05), OrderingKind::Amd, None))
        .collect();
    compare("symmetric paper matrices", &PAPER_SYMMETRIC, &got);
}
