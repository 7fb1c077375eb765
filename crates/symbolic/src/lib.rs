//! Symbolic analysis for the multifrontal method.
//!
//! From a sparse pattern and a fill-reducing ordering this crate derives
//! everything the factorization and the schedulers need *before* any
//! number is touched:
//!
//! 1. the **elimination tree** ([`etree`]) of the permuted matrix, read
//!    through the ordering without forming `P A Pᵀ`, and its postorder;
//! 2. exact **column counts** of the factor ([`colcount`]): the
//!    Gilbert–Ng–Peyton skeleton count, `O(nnz · α)`, through the same
//!    ordering;
//! 3. fundamental supernodes, relaxed **amalgamation** ([`amalg`]), and the
//!    resulting **assembly tree** ([`tree::AssemblyTree`]) with per-front
//!    sizes, contribution-block sizes and flop counts;
//! 4. the **static chain-splitting** of nodes with large master parts
//!    ([`split`]), the paper's Section 6 tree modification;
//! 5. **sequential stack analysis** ([`seqstack`]): Liu-style optimal child
//!    ordering and the resulting stack peak, used both to order leaf
//!    subtrees in the pool (Section 5.2) and as a reference point;
//! 6. explicit per-front index lists ([`frontstruct`]), built by the
//!    numeric factorization from the tree and the permuted matrix it holds.
//!
//! All symbolic quantities are counted in *entries* (f64 words), matching
//! the unit of the paper's tables ("millions of entries").

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // stamped set algorithms index by design
pub mod amalg;
pub mod colcount;
pub mod etree;
pub mod frontstruct;
pub mod seqstack;
pub mod split;
#[cfg(test)]
pub(crate) mod testmat;
pub mod tree;

pub use amalg::AmalgamationOptions;
pub use tree::{AssemblyTree, FrontNode};

use mf_sparse::{CscMatrix, Permutation};

/// Result of [`analyze`]: the assembly tree together with the *total*
/// permutation it is expressed in. No copy of the matrix is kept: the
/// numeric layer permutes the matrix it factors by [`SymbolicAnalysis::perm`].
#[derive(Debug, Clone)]
pub struct SymbolicAnalysis {
    /// The amalgamated assembly tree; its column indices are positions
    /// under [`SymbolicAnalysis::perm`].
    pub tree: AssemblyTree,
    /// Total permutation to apply (fill-reducing ordering composed with
    /// the etree postorder relabeling).
    pub perm: Permutation,
}

/// One-call symbolic analysis.
///
/// Reads `a` through the fill-reducing ordering `p` instead of permuting
/// it: structural symmetry is decided on `a` itself (a symmetric
/// permutation cannot change it; an unsymmetric pattern is replaced by
/// `A + Aᵀ`, as MUMPS does), the elimination tree and the column counts
/// of `P A Pᵀ` are computed through `p`, and both are relabelled by an
/// etree postorder so supernode pivots are contiguous — a topological
/// relabelling changes neither. Fundamental supernodes are then
/// amalgamated into the assembly tree. The matrix is never permuted: the
/// result holds the tree and the total permutation only.
///
/// # Panics
/// If `a` is not square or `p` is not a permutation of its columns.
pub fn analyze(a: &CscMatrix, p: &Permutation, opts: &AmalgamationOptions) -> SymbolicAnalysis {
    let n = a.ncols();
    assert_eq!(a.nrows(), n, "analyze needs a square matrix");
    assert_eq!(p.len(), n, "analyze: the ordering's length differs from the matrix order");
    let sym = a.symmetry();
    let symmetrized;
    let a = if a.is_structurally_symmetric() {
        a
    } else {
        symmetrized = a.symmetrized();
        &symmetrized
    };
    let parent = etree::etree(a, p);
    let post = etree::postorder(&parent);
    let counts = colcount::col_counts(a, p, &parent, &post);
    // Relabel both by the postorder: column `post[k]` becomes column `k`.
    let p2 = Permutation::from_elimination_order(post).expect("postorder is a bijection");
    let post = p2.elimination_order();
    let parent: Vec<usize> = post
        .iter()
        .map(|&j| if parent[j] == etree::NONE { etree::NONE } else { p2.new_of(parent[j]) })
        .collect();
    let counts: Vec<usize> = post.iter().map(|&j| counts[j]).collect();
    debug_assert!(etree::is_postordered(&parent));
    let tree = amalg::build_assembly_tree(&parent, &counts, sym, opts);
    SymbolicAnalysis { tree, perm: p.then(&p2) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "analyze needs a square matrix")]
    fn analyze_rejects_a_rectangular_matrix() {
        let mut coo = mf_sparse::CooMatrix::new(3, 2);
        coo.push(2, 1, 1.0).unwrap();
        analyze(&coo.to_csc(), &Permutation::identity(2), &AmalgamationOptions::default());
    }

    #[test]
    #[should_panic(expected = "the ordering's length differs from the matrix order")]
    fn analyze_rejects_an_ordering_of_another_length() {
        let a = testmat::figure1_matrix();
        analyze(&a, &Permutation::identity(5), &AmalgamationOptions::default());
    }
}
