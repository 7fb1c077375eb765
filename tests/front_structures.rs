//! Front structures read from the numeric layer's `P·A·Pᵀ` (and its
//! transpose, for an unsymmetric tree) are the ones built on the permuted
//! `A + Aᵀ` the tree was analysed on.
//!
//! The reference is the construction as it ran when the analysis returned
//! that pattern, kept here as a test-local twin: stamp the pivots, the
//! pattern's rows below the pivot block and the children's contribution
//! blocks, then sort the tail. Covered: the 32 Table-2 cells, a `circuit`
//! (unsymmetric pattern) and an `lp_normal_equations` instance, and a tree
//! after `split_large_masters`, whose chain tails inherit their child's
//! contribution block.

use multifrontal::prelude::*;
use multifrontal::sparse::gen::circuit::circuit;
use multifrontal::sparse::gen::lp::lp_normal_equations;
use multifrontal::symbolic::frontstruct::front_structures;
use multifrontal::symbolic::split::split_large_masters;

/// The pattern `analyze` builds its tree on: `a`, or `A + Aᵀ` when the
/// pattern is unsymmetric.
fn symmetric_form(a: &CscMatrix) -> CscMatrix {
    if a.is_structurally_symmetric() {
        a.clone()
    } else {
        a.symmetrized()
    }
}

/// The variable lists built on `pattern = P(A + Aᵀ)Pᵀ`.
fn reference(tree: &AssemblyTree, pattern: &CscMatrix) -> Vec<Vec<usize>> {
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); tree.len()];
    let mut stamp = vec![usize::MAX; tree.n];
    for v in tree.topo_order() {
        let nd = &tree.nodes[v];
        if tree.is_chain_tail(v) {
            let ch = nd.children[0];
            rows[v] = rows[ch][tree.nodes[ch].npiv..].to_vec();
            continue;
        }
        let span = tree.chain_npiv(v);
        let mut list: Vec<usize> = (nd.first_col..nd.first_col + span).collect();
        for &c in &list {
            stamp[c] = v;
        }
        for c in nd.first_col..nd.first_col + span {
            for &i in pattern.rows_in_col(c) {
                if i >= nd.first_col + span && stamp[i] != v {
                    stamp[i] = v;
                    list.push(i);
                }
            }
        }
        for &ch in &nd.children {
            for &i in &rows[ch][tree.nodes[ch].npiv..] {
                if stamp[i] != v && i >= nd.first_col + nd.npiv {
                    stamp[i] = v;
                    list.push(i);
                }
            }
        }
        list[nd.npiv..].sort_unstable();
        rows[v] = list;
    }
    rows
}

/// Asserts that the numeric layer's construction matches the reference.
fn check(a: &CscMatrix, s: &SymbolicAnalysis, what: &str) {
    let pa = a.permute_symmetric(&s.perm);
    let pat = (s.tree.sym == Symmetry::General).then(|| pa.transpose());
    let got = front_structures(&s.tree, &pa, pat.as_ref()).rows;
    let want = reference(&s.tree, &symmetric_form(a).permute_symmetric(&s.perm));
    assert_eq!(got, want, "{what}");
    for (v, list) in got.iter().enumerate() {
        assert_eq!(list.len(), s.tree.nodes[v].nfront, "{what}: front {v}");
    }
}

#[test]
fn paper_matrices_under_all_four_orderings() {
    for m in ALL_PAPER_MATRICES {
        let a = m.instantiate();
        for k in ALL_ORDERINGS {
            let s = analyze(&a, &k.compute(&a), &AmalgamationOptions::default());
            check(&a, &s, &format!("{} / {k:?}", m.name()));
        }
    }
}

#[test]
fn generator_instances() {
    let circ = circuit(900, 3, 4, 0.1, 11);
    assert!(!circ.is_structurally_symmetric(), "the circuit must take the A + Aᵀ path");
    let lp = lp_normal_equations(400, 800, 3, 4, 0.1, 13);
    for (name, a) in [("circuit", circ), ("lp", lp)] {
        let s = analyze(&a, &OrderingKind::Amd.compute(&a), &AmalgamationOptions::default());
        check(&a, &s, name);
    }
}

#[test]
fn a_split_tree() {
    let a = PaperMatrix::TwoTone.instantiate();
    let mut s = analyze(&a, &OrderingKind::Amd.compute(&a), &AmalgamationOptions::default());
    let report = split_large_masters(&mut s.tree, 20_000);
    assert!(report.nodes_split > 0, "the threshold must split some master");
    assert!((0..s.tree.len()).any(|v| s.tree.is_chain_tail(v)));
    check(&a, &s, "TWOTONE / AMD, split");
}
