//! Property-based validation of the symbolic layer: tree invariants,
//! column counts against a naive oracle, stack analysis monotonicity,
//! permutation algebra.

use multifrontal::prelude::*;
use multifrontal::symbolic::colcount::col_counts;
use multifrontal::symbolic::etree::{etree, postorder, NONE};
use multifrontal::symbolic::seqstack::{
    apply_liu_order, sequential_peak, traversal_peak, AssemblyDiscipline,
};
use proptest::prelude::*;

/// Random connected-ish symmetric pattern.
fn pattern(n: usize, edges: &[(usize, usize)]) -> CscMatrix {
    let mut coo = CooMatrix::new_symmetric(n);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
        if i > 0 {
            coo.push(i, i - 1, -1.0).unwrap(); // keep it connected
        }
    }
    let mut seen = std::collections::HashSet::new();
    for &(a, b) in edges {
        let (i, j) = (a % n, b % n);
        if i != j && seen.insert((i.min(j), i.max(j))) && (i as i64 - j as i64).abs() > 1 {
            coo.push(i.max(j), i.min(j), -0.5).unwrap();
        }
    }
    coo.to_csc()
}

/// The shapes the analysis has a special path for. Kind 0: connected,
/// symmetric (`pattern`). Kind 1: the same couplings stored one-sided in a
/// `General` matrix, so the pattern is unsymmetric and `analyze` takes the
/// `A + Aᵀ` path. Kind 2: two blocks never linked plus isolated columns,
/// one of them stored without its diagonal (a forest). Kind 3: diagonal only.
fn shaped(kind: usize, n: usize, edges: &[(usize, usize)]) -> CscMatrix {
    match kind % 4 {
        0 => pattern(n, edges),
        1 => {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 4.0).unwrap();
            }
            let mut seen = std::collections::HashSet::new();
            for (k, &(a, b)) in edges.iter().enumerate() {
                let (i, j) = (a % n, b % n);
                if i != j && seen.insert((i, j)) {
                    coo.push(i, j, -0.25 - k as f64).unwrap();
                }
            }
            coo.to_csc()
        }
        2 => {
            let (half, used) = (n / 2, n - n / 4);
            let mut coo = CooMatrix::new_symmetric(n);
            for i in 0..n - 1 {
                coo.push(i, i, 4.0).unwrap();
            }
            let mut seen = std::collections::HashSet::new();
            for &(a, b) in edges {
                let (i, j) = (a % used, b % used);
                if i != j && (i < half) == (j < half) && seen.insert((i.min(j), i.max(j))) {
                    coo.push(i.max(j), i.min(j), -0.5).unwrap();
                }
            }
            coo.to_csc()
        }
        _ => CscMatrix::identity(n, 2.0),
    }
}

/// What `analyze` builds its tree on: `a`, or `A + Aᵀ` when the pattern
/// is unsymmetric.
fn symmetric_form(a: &CscMatrix) -> CscMatrix {
    if a.is_structurally_symmetric() {
        a.clone()
    } else {
        a.symmetrized()
    }
}

/// Arg-sorts the first `n` keys into an elimination order.
fn permutation(n: usize, keys: &[usize]) -> Permutation {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (keys[i], i));
    Permutation::from_elimination_order(idx).unwrap()
}

/// Naive symbolic elimination: the strictly lower pattern of every
/// column of `L`.
fn naive_fill(a: &CscMatrix) -> Vec<std::collections::BTreeSet<usize>> {
    let n = a.ncols();
    let mut adj: Vec<std::collections::BTreeSet<usize>> =
        (0..n).map(|j| a.rows_in_col(j).iter().copied().filter(|&i| i > j).collect()).collect();
    for j in 0..n {
        let nbrs: Vec<usize> = adj[j].iter().copied().collect();
        for (x, &p) in nbrs.iter().enumerate() {
            for &q in &nbrs[x + 1..] {
                adj[p].insert(q);
            }
        }
    }
    adj
}

fn naive_col_counts(a: &CscMatrix) -> Vec<usize> {
    naive_fill(a).iter().map(|col| col.len() + 1).collect()
}

/// The etree by its definition: the first sub-diagonal entry of each
/// column of `L`.
fn naive_etree(a: &CscMatrix) -> Vec<usize> {
    naive_fill(a).iter().map(|col| col.first().copied().unwrap_or(NONE)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn analysis_invariants_hold(
        n in 3usize..80,
        edges in prop::collection::vec((0usize..80, 0usize..80), 0..200),
        always_merge in 0usize..10,
        ratio in 0.0f64..0.5,
    ) {
        let a = pattern(n, &edges);
        let opts = AmalgamationOptions { always_merge_npiv: always_merge, max_fill_ratio: ratio, ..AmalgamationOptions::default() };
        let s = analyze(&a, &Permutation::identity(n), &opts);
        prop_assert!(s.tree.validate().is_ok(), "{:?}", s.tree.validate());
        prop_assert_eq!(s.tree.n, n);
        prop_assert_eq!(s.tree.nodes.iter().map(|nd| nd.npiv).sum::<usize>(), n);
        // Factor entries are at least the lower-triangle nonzeros of A.
        let tri_nnz = (a.nnz() + n) / 2;
        prop_assert!(s.tree.total_factor_entries() >= tri_nnz as u64);
    }

    #[test]
    fn col_counts_match_naive_oracle(
        kind in 0usize..4,
        n in 3usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..80),
        keys in prop::collection::vec(0usize..1000, 40..41),
    ) {
        // Counts read through a random ordering are the counts of the
        // materialised permuted matrix.
        let a = symmetric_form(&shaped(kind, n, &edges));
        let p = permutation(n, &keys);
        let parent = etree(&a, &p);
        let counts = col_counts(&a, &p, &parent, &postorder(&parent));
        prop_assert_eq!(counts, naive_col_counts(&a.permute_symmetric(&p)));
    }

    #[test]
    fn etree_through_an_ordering_is_the_etree_of_the_permuted_matrix(
        kind in 0usize..4,
        n in 3usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..80),
        keys in prop::collection::vec(0usize..1000, 40..41),
    ) {
        let a = symmetric_form(&shaped(kind, n, &edges));
        let p = permutation(n, &keys);
        let pa = a.permute_symmetric(&p);
        let parent = etree(&a, &p);
        prop_assert_eq!(&parent, &etree(&pa, &Permutation::identity(n)));
        prop_assert_eq!(&parent, &naive_etree(&pa));
        // The postorder is a bijection that puts children first, in
        // increasing index order among siblings.
        let post = postorder(&parent);
        let rank = Permutation::from_elimination_order(post).unwrap();
        for j in 0..n {
            if parent[j] != NONE {
                prop_assert!(rank.new_of(j) < rank.new_of(parent[j]));
            }
            for k in j + 1..n {
                if parent[j] == parent[k] {
                    prop_assert!(rank.new_of(j) < rank.new_of(k));
                }
            }
        }
    }

    #[test]
    fn analysis_under_a_random_ordering(
        kind in 0usize..4,
        n in 3usize..60,
        edges in prop::collection::vec((0usize..60, 0usize..60), 0..150),
        keys in prop::collection::vec(0usize..1000, 60..61),
    ) {
        let a = shaped(kind, n, &edges);
        let p = permutation(n, &keys);
        let s = analyze(&a, &p, &AmalgamationOptions::none());
        prop_assert!(s.tree.validate().is_ok(), "{:?}", s.tree.validate());
        prop_assert_eq!(s.tree.sym, a.symmetry());
        prop_assert_eq!(s.tree.nodes.iter().map(|nd| nd.npiv).sum::<usize>(), n);
        // Without amalgamation the tree holds exactly the factor of the
        // permuted pattern it was built on.
        let l: usize =
            naive_col_counts(&symmetric_form(&a).permute_symmetric(&s.perm)).iter().sum();
        prop_assert_eq!(s.tree.total_factor_entries(), match a.symmetry() {
            Symmetry::Symmetric => l as u64,
            Symmetry::General => (2 * l - n) as u64,
        });
    }

    #[test]
    fn liu_order_never_hurts(
        n in 3usize..80,
        edges in prop::collection::vec((0usize..80, 0usize..80), 0..200),
    ) {
        let a = pattern(n, &edges);
        let mut s = analyze(&a, &Permutation::identity(n), &AmalgamationOptions::default());
        let before = sequential_peak(&s.tree, AssemblyDiscipline::FrontThenFree);
        let after = apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
        prop_assert!(after <= before, "Liu order increased the peak: {after} > {before}");
        prop_assert!(s.tree.validate().is_ok());
    }

    #[test]
    fn traversal_peak_of_a_postorder_is_the_closed_form(
        kind in 0usize..4,
        n in 3usize..80,
        edges in prop::collection::vec((0usize..80, 0usize..80), 0..200),
    ) {
        let a = shaped(kind, n, &edges);
        let mut s = analyze(&a, &Permutation::identity(n), &AmalgamationOptions::default());
        for liu in [false, true] {
            if liu {
                apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
            }
            let t = &s.tree;
            prop_assert_eq!(
                traversal_peak(t, &t.topo_order()).active,
                sequential_peak(t, AssemblyDiscipline::FrontThenFree),
                "Liu order applied: {}", liu
            );
        }
    }

    #[test]
    fn splitting_invariants_hold(
        n in 3usize..80,
        edges in prop::collection::vec((0usize..80, 0usize..80), 0..200),
        threshold in 1u64..2_000,
    ) {
        let a = pattern(n, &edges);
        let mut s = analyze(&a, &Permutation::identity(n), &AmalgamationOptions::default());
        let factors_before = s.tree.total_factor_entries();
        multifrontal::symbolic::split::split_large_masters(&mut s.tree, threshold);
        prop_assert!(s.tree.validate().is_ok(), "{:?}", s.tree.validate());
        // Factor entries are invariant under chain splitting.
        prop_assert_eq!(s.tree.total_factor_entries(), factors_before);
        // Every master respects the threshold (single-pivot nodes are the
        // unavoidable exception).
        for v in 0..s.tree.len() {
            prop_assert!(
                s.tree.master_entries(v) <= threshold || s.tree.nodes[v].npiv == 1,
                "node {v}: master {} > {threshold}",
                s.tree.master_entries(v)
            );
        }
    }

    #[test]
    fn permutation_algebra(
        keys in prop::collection::vec(0usize..1000, 1..50),
    ) {
        let p = permutation(keys.len(), &keys);
        let inv = p.inverse();
        prop_assert_eq!(p.then(&inv), Permutation::identity(p.len()));
        prop_assert_eq!(inv.then(&p), Permutation::identity(p.len()));
        for i in 0..p.len() {
            prop_assert_eq!(p.new_of(p.old_of(i)), i);
        }
    }

    #[test]
    fn front_structures_are_consistent(
        kind in 0usize..4,
        n in 3usize..50,
        edges in prop::collection::vec((0usize..50, 0usize..50), 0..100),
    ) {
        // Built as the numeric layer builds them: on `A` read through the
        // ordering, plus its transpose for an unsymmetric tree (kind 1
        // stores couplings one-sided, so only the two together hold
        // `A + Aᵀ`).
        let a = shaped(kind, n, &edges);
        let s = analyze(&a, &Permutation::identity(n), &AmalgamationOptions::default());
        let at = (s.tree.sym == Symmetry::General).then(|| a.transpose());
        let fs = multifrontal::symbolic::frontstruct::front_structures(
            &s.tree,
            &a,
            at.as_ref(),
            &s.perm,
        );
        for v in 0..s.tree.len() {
            let nd = &s.tree.nodes[v];
            prop_assert_eq!(fs.rows[v].len(), nd.nfront);
            // Sorted, pivots first.
            prop_assert!(fs.rows[v].windows(2).all(|w| w[0] < w[1]));
            for (k, &r) in fs.rows[v][..nd.npiv].iter().enumerate() {
                prop_assert_eq!(r, nd.first_col + k);
            }
        }
    }
}
