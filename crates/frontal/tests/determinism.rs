//! Determinism suite: the factorization bytes must not depend on *how*
//! the work was scheduled or *which* SIMD path computed it.
//!
//! Four independent axes are pinned by construction and verified here:
//!
//! * **driver** — the tree-parallel driver runs the sequential driver's
//!   front pipeline and keeps its child order, so its factors are the
//!   sequential ones;
//! * **rayon pool width** — tree tasks partition the assembly tree, and
//!   each front's trailing sweep partitions columns disjointly, so no
//!   cross-thread reduction exists whose order could vary;
//! * **cores-per-front budget** — kernel dispatch keys on the pivot
//!   count only, and the parallel trailing sweep is partition-invariant;
//! * **SIMD level** — every microkernel (scalar, AVX2+FMA, AVX-512F)
//!   computes each output element by the same fused-multiply-add chain,
//!   so forcing the scalar fallback reproduces the vectorized bits.
//!
//! The suite runs all eight paper matrices (four symmetric → LDLᵀ, four
//! unsymmetric → LU) at a reduced scale, comparing full-content digests
//! ([`Factorization::content_digest`], which hashes the exact bit
//! patterns of every factor block).

use mf_frontal::numeric::{Factorization, NumericOptions};
use mf_frontal::parallel::factorize_parallel_with;
use mf_frontal::{gemm, FactorError};
use mf_order::OrderingKind;
use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};
use mf_sparse::CscMatrix;
use mf_symbolic::{AmalgamationOptions, SymbolicAnalysis};
use proptest::prelude::*;

/// Reduced instantiation scale: big enough that root fronts cross the
/// blocked-kernel threshold on several matrices, small enough that the
/// full 8x3 sweep stays in debug-test budget.
const SCALE: f64 = 0.08;

fn analyzed(m: PaperMatrix) -> (CscMatrix, SymbolicAnalysis) {
    let a = m.instantiate_scaled(SCALE);
    let perm = OrderingKind::Amd.compute(&a);
    let s = mf_symbolic::analyze(&a, &perm, &AmalgamationOptions::default());
    (a, s)
}

fn parallel_digest(a: &CscMatrix, s: &SymbolicAnalysis, width: usize) -> Result<u64, FactorError> {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("pool");
    let opts = NumericOptions { cores_per_front: width };
    pool.install(|| factorize_parallel_with(a, s, &opts)).map(|f| f.content_digest())
}

#[test]
fn factors_bit_identical_across_pool_widths() {
    for m in ALL_PAPER_MATRICES {
        let (a, s) = analyzed(m);
        let base = parallel_digest(&a, &s, 1).unwrap_or_else(|e| panic!("{}: {e}", m.name()));
        for width in [2, 8] {
            let got = parallel_digest(&a, &s, width).unwrap();
            assert_eq!(got, base, "{} differs at pool width {width}", m.name());
        }
    }
}

#[test]
fn tree_parallel_factors_equal_the_sequential_ones() {
    // Both drivers run one front pipeline, and a parent absorbs its
    // children last to first whichever driver stacked them: the bytes are
    // equal, not merely the residuals. One LDLᵀ and one LU instance.
    for m in [PaperMatrix::Ship003, PaperMatrix::TwoTone] {
        let (a, s) = analyzed(m);
        let sequential = Factorization::from_symbolic(&a, &s).unwrap().content_digest();
        for width in [1, 2, 8] {
            let got = parallel_digest(&a, &s, width).unwrap();
            assert_eq!(
                got,
                sequential,
                "{} differs from sequential at pool width {width}",
                m.name()
            );
        }
    }
}

#[test]
fn sequential_driver_ignores_cores_per_front() {
    for m in ALL_PAPER_MATRICES {
        let (a, s) = analyzed(m);
        let base = Factorization::from_symbolic(&a, &s).unwrap().content_digest();
        for cores in [2, 8] {
            let opts = NumericOptions { cores_per_front: cores };
            let got = Factorization::from_symbolic_with(&a, &s, &opts).unwrap().content_digest();
            assert_eq!(got, base, "{} differs at cores_per_front={cores}", m.name());
        }
    }
}

#[test]
fn forced_scalar_path_matches_simd_bits() {
    // One symmetric (LDLᵀ) and one unsymmetric (LU) instance; the digest
    // covers every front, so any per-element divergence between the
    // scalar and vectorized microkernels would surface.
    for m in [PaperMatrix::Ship003, PaperMatrix::TwoTone] {
        let (a, s) = analyzed(m);
        gemm::force_simd(Some(gemm::SimdLevel::Scalar));
        let scalar = Factorization::from_symbolic(&a, &s).map(|f| f.content_digest());
        gemm::force_simd(None);
        let scalar = scalar.unwrap();
        let auto = Factorization::from_symbolic(&a, &s).unwrap().content_digest();
        assert_eq!(
            scalar,
            auto,
            "{}: scalar fallback diverges from {} bits",
            m.name(),
            gemm::active_simd().name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The packed microkernel path must equal the naive triple loop
    /// *exactly* (bit-for-bit), for arbitrary tile shapes including the
    /// masked edge cases around the MR/NR register-tile boundaries.
    #[test]
    fn packed_gemm_equals_naive_triple_loop(
        m in 1usize..48,
        n in 1usize..40,
        kc in 1usize..32,
        seed in 0u64..1_000_000,
    ) {
        let lcg = |s: &mut u64| {
            *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((*s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut st = seed | 1;
        let a: Vec<f64> = (0..m * kc).map(|_| lcg(&mut st)).collect();
        let b: Vec<f64> = (0..kc * n).map(|_| lcg(&mut st)).collect();
        let c0: Vec<f64> = (0..m * n).map(|_| lcg(&mut st)).collect();

        let mut expect = c0.clone();
        gemm::gemm_sub_naive(m, n, kc, &a, m, &b, kc, &mut expect, m);

        let mut got = c0;
        let mut ws = gemm::GemmWorkspace::new();
        let ap = gemm::pack_a(&mut ws, &a, m, m, kc);
        let mut bp = Vec::new();
        gemm::pack_b(&mut bp, &b, kc, kc, n);
        gemm::gemm_sub_packed(&ap, &bp, n, &mut got, m);

        for (i, (x, y)) in got.iter().zip(&expect).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "({}x{}x{}) mismatch at {}: {} vs {}", m, n, kc, i, x, y
            );
        }
    }
}
