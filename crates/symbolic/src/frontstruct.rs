//! Explicit per-front variable lists for the numeric factorization,
//! built from the matrix as the caller holds it, read through the
//! ordering (no permuted copy is made).

use crate::tree::AssemblyTree;
use mf_sparse::{CscMatrix, Permutation};

/// Row/column index lists of every front.
///
/// `rows[id]` is the sorted list of global (post-ordered) variable indices
/// of front `id`; its first `npiv` entries are the pivot columns and the
/// tail is the contribution-block variable set.
#[derive(Debug, Clone)]
pub struct FrontStructures {
    /// Variable lists, indexed by node id.
    pub rows: Vec<Vec<usize>>,
}

impl FrontStructures {
    /// The contribution-block part of front `id`.
    pub fn cb_rows(&self, tree: &AssemblyTree, id: usize) -> &[usize] {
        &self.rows[id][tree.nodes[id].npiv..]
    }
}

/// Computes the explicit variable list of every front, bottom-up:
/// `rows(v) = pivots(v) ∪ pattern(A + Aᵀ) of the pivot columns ∪
/// CB(children)`, all under the analysis' permutation `perm`.
///
/// `a` is the matrix as the caller holds it, read through `perm`: new
/// column `c` is column `perm.old_of(c)` of `a`, whose row `i` is new row
/// `perm.new_of(i)`. `at` is `aᵀ` for a `General` tree, whose pattern may
/// be unsymmetric, and `None` for a `Symmetric` one (such a matrix stores
/// both triangles, so `a` alone holds the pattern). The rows of column
/// `c` of `P(A + Aᵀ)Pᵀ` are the union of the rows of that column in the
/// two, which the stamp below merges; the tail of every list is sorted,
/// so the order the entries are read in does not show.
///
/// For a consistent symbolic analysis the computed length equals the
/// tree's `nfront`; this is asserted in debug builds and relied on by the
/// dense kernels.
pub fn front_structures(
    tree: &AssemblyTree,
    a: &CscMatrix,
    at: Option<&CscMatrix>,
    perm: &Permutation,
) -> FrontStructures {
    let n = tree.n;
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); tree.len()];
    let mut stamp = vec![usize::MAX; n];
    for v in tree.topo_order() {
        let nd = &tree.nodes[v];
        let mut list: Vec<usize> = Vec::with_capacity(nd.nfront);
        if tree.is_chain_tail(v) {
            // A tail link of a split chain inherits its single child's CB
            // verbatim: the elimination continues on the Schur complement,
            // nothing new is assembled.
            let ch = nd.children[0];
            let cb = &rows[ch][tree.nodes[ch].npiv..];
            debug_assert_eq!(cb.len(), nd.nfront);
            debug_assert_eq!(cb.first().copied(), Some(nd.first_col));
            rows[v] = cb.to_vec();
            continue;
        }
        // Pivots first (they are the smallest indices of the front). A
        // chain head assembles the *whole* original front, so its variable
        // list spans the pivots of every tail link above it as well.
        let span = tree.chain_npiv(v);
        for c in nd.first_col..nd.first_col + nd.npiv {
            stamp[c] = v;
            list.push(c);
        }
        for c in nd.first_col + nd.npiv..nd.first_col + span {
            stamp[c] = v;
            list.push(c);
        }
        // Original-matrix entries below the pivot block (of the full chain).
        for c in nd.first_col..nd.first_col + span {
            let oc = perm.old_of(c);
            let transposed = at.map_or(&[][..], |t| t.rows_in_col(oc));
            for i in a.rows_in_col(oc).iter().chain(transposed).map(|&i| perm.new_of(i)) {
                if i >= nd.first_col + span && stamp[i] != v {
                    stamp[i] = v;
                    list.push(i);
                }
            }
        }
        // Children contribution blocks.
        for &ch in &nd.children {
            for &i in &rows[ch][tree.nodes[ch].npiv..] {
                if stamp[i] != v {
                    debug_assert!(
                        i >= nd.first_col + nd.npiv || i >= nd.first_col,
                        "child CB index {i} below parent pivots"
                    );
                    if i >= nd.first_col + nd.npiv {
                        stamp[i] = v;
                        list.push(i);
                    }
                }
            }
        }
        list[tree.nodes[v].npiv..].sort_unstable();
        debug_assert_eq!(
            list.len(),
            tree.nodes[v].nfront,
            "front {v}: structure length {} != nfront {}",
            list.len(),
            tree.nodes[v].nfront
        );
        rows[v] = list;
    }
    FrontStructures { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AmalgamationOptions, SymbolicAnalysis};
    use mf_sparse::{Permutation, Symmetry};

    /// The structures over `a` read as the numeric layer reads it.
    fn structures(a: &CscMatrix, s: &SymbolicAnalysis) -> FrontStructures {
        let at = (s.tree.sym == Symmetry::General).then(|| a.transpose());
        front_structures(&s.tree, a, at.as_ref(), &s.perm)
    }

    #[test]
    fn figure1_front_structures() {
        let a = crate::testmat::figure1_matrix();
        let s = crate::analyze(&a, &Permutation::identity(6), &AmalgamationOptions::none());
        let fs = structures(&a, &s);
        assert_eq!(s.tree.len(), 3);
        // Node {0,1}: front {0,1,4,5}; node {2,3}: {2,3,4,5}; root {4,5}.
        assert_eq!(fs.rows[0], vec![0, 1, 4, 5]);
        assert_eq!(fs.rows[1], vec![2, 3, 4, 5]);
        assert_eq!(fs.rows[2], vec![4, 5]);
        assert_eq!(fs.cb_rows(&s.tree, 0), &[4, 5]);
    }

    #[test]
    fn lengths_match_nfront_on_grid() {
        let a = mf_sparse::gen::grid::grid2d(10, 10, mf_sparse::gen::grid::Stencil::Box);
        let p = mf_order_for_test(&a);
        let s = crate::analyze(&a, &p, &AmalgamationOptions::default());
        let fs = structures(&a, &s);
        for v in 0..s.tree.len() {
            assert_eq!(fs.rows[v].len(), s.tree.nodes[v].nfront, "node {v}");
            // Pivot prefix.
            let nd = &s.tree.nodes[v];
            for (k, &r) in fs.rows[v][..nd.npiv].iter().enumerate() {
                assert_eq!(r, nd.first_col + k);
            }
            // Sorted CB tail.
            let cb = fs.cb_rows(&s.tree, v);
            assert!(cb.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// A deterministic non-trivial permutation without depending on
    /// mf-order from unit tests (dev-dependency cycle avoidance): reverse
    /// Cuthill-McKee-ish = plain reversal.
    fn mf_order_for_test(a: &mf_sparse::CscMatrix) -> Permutation {
        let n = a.ncols();
        Permutation::from_new_order((0..n).map(|i| n - 1 - i).collect()).unwrap()
    }

    #[test]
    fn cb_rows_subset_of_parent_front() {
        let a = mf_sparse::gen::grid::grid2d(8, 8, mf_sparse::gen::grid::Stencil::Star);
        let s = crate::analyze(&a, &Permutation::identity(64), &AmalgamationOptions::default());
        let fs = structures(&a, &s);
        for v in 0..s.tree.len() {
            if let Some(p) = s.tree.nodes[v].parent {
                for &i in fs.cb_rows(&s.tree, v) {
                    assert!(fs.rows[p].contains(&i), "cb var {i} of {v} missing in parent {p}");
                }
            }
        }
    }
}
