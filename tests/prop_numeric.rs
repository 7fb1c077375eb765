//! Property-based validation of the numeric pipeline: random sparse,
//! diagonally dominant systems must factorize and solve accurately for
//! every combination of symmetry, ordering and amalgamation setting.

use multifrontal::prelude::*;
use proptest::prelude::*;

/// Random diagonally dominant matrix: a random sparse pattern whose
/// diagonal exceeds the absolute row/column sums, so the
/// restricted-pivoting kernels are numerically safe by construction.
fn dd_matrix(n: usize, extra_edges: &[(usize, usize)], sym: bool, seed: u64) -> CscMatrix {
    let val = |i: usize, j: usize| -> f64 {
        // Deterministic pseudo-random value in [-1, 1).
        let h = (i as u64)
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add((j as u64).wrapping_mul(0xc2b2ae3d27d4eb4f))
            .wrapping_add(seed);
        ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    let mut coo = if sym { CooMatrix::new_symmetric(n) } else { CooMatrix::new(n, n) };
    let mut offsum = vec![0.0f64; n];
    let mut seen = std::collections::HashSet::new();
    for &(a, b) in extra_edges {
        let (i, j) = (a % n, b % n);
        if i == j || !seen.insert((i.min(j), i.max(j))) {
            continue;
        }
        let v = val(i, j);
        if sym {
            coo.push(i.max(j), i.min(j), v).unwrap();
            offsum[i] += v.abs();
            offsum[j] += v.abs();
        } else {
            coo.push(i, j, v).unwrap();
            let w = val(j, i);
            coo.push(j, i, w).unwrap();
            offsum[i] += v.abs() + w.abs();
            offsum[j] += v.abs() + w.abs();
        }
    }
    for (i, &off) in offsum.iter().enumerate() {
        coo.push(i, i, off + 1.0).unwrap();
    }
    coo.to_csc()
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 48271) % 541) as f64 / 27.0 - 10.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_symmetric_systems_solve(
        n in 5usize..60,
        edges in prop::collection::vec((0usize..60, 0usize..60), 1..150),
        seed in any::<u64>(),
        merge in 0usize..8,
    ) {
        let a = dd_matrix(n, &edges, true, seed);
        let opts = AmalgamationOptions { always_merge_npiv: merge, max_fill_ratio: 0.1, ..AmalgamationOptions::default() };
        for kind in [OrderingKind::Amd, OrderingKind::Metis] {
            let perm = kind.compute(&a);
            let f = Factorization::new(&a, &perm, &opts).unwrap();
            let b = rhs(n);
            let x = f.solve(&b);
            let r = Factorization::residual_inf(&a, &x, &b);
            prop_assert!(r < 1e-9, "{}: residual {r:e}", kind.name());
        }
    }

    #[test]
    fn random_unsymmetric_systems_solve(
        n in 5usize..60,
        edges in prop::collection::vec((0usize..60, 0usize..60), 1..150),
        seed in any::<u64>(),
    ) {
        let a = dd_matrix(n, &edges, false, seed);
        let perm = OrderingKind::Amf.compute(&a);
        let f = Factorization::new(&a, &perm, &AmalgamationOptions::default()).unwrap();
        let b = rhs(n);
        let x = f.solve(&b);
        let r = Factorization::residual_inf(&a, &x, &b);
        prop_assert!(r < 1e-9, "residual {r:e}");
    }

    #[test]
    fn split_threshold_never_changes_the_solution(
        n in 10usize..50,
        edges in prop::collection::vec((0usize..50, 0usize..50), 20..120),
        seed in any::<u64>(),
        threshold in 4u64..400,
    ) {
        let a = dd_matrix(n, &edges, true, seed);
        let perm = OrderingKind::Amd.compute(&a);
        let b = rhs(n);
        let plain = Factorization::new(&a, &perm, &AmalgamationOptions::default()).unwrap();
        let x0 = plain.solve(&b);
        let mut s = analyze(&a, &perm, &AmalgamationOptions::default());
        multifrontal::symbolic::split::split_large_masters(&mut s.tree, threshold);
        prop_assert!(s.tree.validate().is_ok());
        let f = Factorization::from_symbolic(&a, &s).unwrap();
        let x1 = f.solve(&b);
        let d = x0.iter().zip(&x1).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);
        prop_assert!(d < 1e-9, "splitting changed the answer by {d:e}");
    }

    #[test]
    fn factor_entry_accounting_is_exact(
        n in 5usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 1..80),
        sym in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let a = dd_matrix(n, &edges, sym, seed);
        let s = analyze(&a, &Permutation::identity(n), &AmalgamationOptions::default());
        let f = Factorization::from_symbolic(&a, &s).unwrap();
        let par = multifrontal::frontal::parallel::factorize_parallel(&a, &s).unwrap();
        // The factor area holds the tree's factor entries and nothing
        // else, for both drivers: `f·p + p(f−p)` words a front for LU, the
        // packed `f·p − p(p−1)/2` of an LDLᵀ panel.
        for g in [&f, &par] {
            prop_assert_eq!(g.stats.factor_entries, s.tree.total_factor_entries());
            prop_assert_eq!(g.area_len() as u64, s.tree.total_factor_entries());
        }
        // And the numeric stack peak equals the symbolic model.
        let model = multifrontal::symbolic::seqstack::sequential_peak(
            &s.tree,
            multifrontal::symbolic::seqstack::AssemblyDiscipline::FrontThenFree,
        );
        prop_assert_eq!(f.stats.active_peak, model);
    }
}
