//! Exact column counts of the Cholesky factor: the Gilbert–Ng–Peyton
//! skeleton count, `O(nnz · α(n))`, without forming the factor's pattern.

use crate::etree::NONE;
use mf_sparse::{CscMatrix, Permutation};

/// Exact nonzero count of every column of `L` (diagonal included) for
/// `P A Pᵀ`, read through `p` as [`crate::etree::etree`] reads it. `a` is
/// structurally symmetric, `parent` is the elimination tree of `P A Pᵀ`
/// and `post` a postorder of it; the counts are in `parent`'s labels.
///
/// Row `i` of `L` is the union of the etree paths from the columns
/// `j < i` with `A(i, j) != 0` up to `i`: its *row subtree*. Column `j`
/// gains an entry from every row subtree it is a leaf of and loses what
/// two consecutive leaves share above their least common ancestor, so it
/// is enough to visit the columns in postorder, recognise leaves by the
/// first-descendant test (`first[j] > maxfirst[i]`), find the ancestor in
/// a path-compressed disjoint-set forest, and sum the resulting deltas up
/// the tree. No entry of `L` outside `A` is ever touched.
pub fn col_counts(a: &CscMatrix, p: &Permutation, parent: &[usize], post: &[usize]) -> Vec<usize> {
    let n = parent.len();
    assert_eq!(a.ncols(), n, "col_counts: the tree has another order than the matrix");
    // first[j]: postorder rank of j's first descendant. Deltas can dip
    // below zero before they are summed, hence signed.
    let mut first = vec![NONE; n];
    let mut delta = vec![0isize; n];
    for (k, &leaf) in post.iter().enumerate() {
        if first[leaf] == NONE {
            delta[leaf] = 1; // a leaf of the etree: its own diagonal
        }
        let mut j = leaf;
        while j != NONE && first[j] == NONE {
            first[j] = k;
            j = parent[j];
        }
    }
    let mut maxfirst = vec![0usize; n]; // 1 + largest first[] seen in row i, 0 for none
    let mut prevleaf = vec![NONE; n]; // previous leaf of row subtree i
    let mut ancestor: Vec<usize> = (0..n).collect();
    for &j in post {
        if parent[j] != NONE {
            delta[parent[j]] -= 1; // j is not a root
        }
        for &r in a.rows_in_col(p.old_of(j)) {
            let i = p.new_of(r);
            if i <= j || first[j] < maxfirst[i] {
                continue; // not below the diagonal, or not a leaf of row subtree i
            }
            maxfirst[i] = first[j] + 1;
            let jprev = std::mem::replace(&mut prevleaf[i], j);
            delta[j] += 1;
            if jprev != NONE {
                // Least common ancestor of the two leaves, then compress.
                let mut q = jprev;
                while q != ancestor[q] {
                    q = ancestor[q];
                }
                let mut s = jprev;
                while s != q {
                    s = std::mem::replace(&mut ancestor[s], q);
                }
                delta[q] -= 1;
            }
        }
        if parent[j] != NONE {
            ancestor[j] = parent[j];
        }
    }
    // parent[j] > j, so index order sums children before parents.
    for j in 0..n {
        if parent[j] != NONE {
            delta[parent[j]] += delta[j];
        }
    }
    delta.into_iter().map(|d| usize::try_from(d).expect("column counts are positive")).collect()
}

/// Total factor entries `Σ counts[j]` (one triangle).
pub fn factor_entries(counts: &[usize]) -> u64 {
    counts.iter().map(|&c| c as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::postorder;
    use crate::testmat::natural_etree;
    use mf_sparse::CooMatrix;

    fn natural_counts(a: &CscMatrix) -> Vec<usize> {
        let parent = natural_etree(a);
        col_counts(a, &Permutation::identity(a.ncols()), &parent, &postorder(&parent))
    }

    fn dense_l_counts(a: &CscMatrix) -> Vec<usize> {
        // Reference: naive symbolic elimination.
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
        (0..n).map(|j| adj[j].len() + 1).collect()
    }

    #[test]
    fn matches_naive_on_figure1() {
        let a = crate::testmat::figure1_matrix();
        let counts = natural_counts(&a);
        assert_eq!(counts, dense_l_counts(&a));
        assert_eq!(counts, vec![4, 3, 4, 3, 2, 1]);
    }

    #[test]
    fn matches_naive_on_random_grid() {
        let a = mf_sparse::gen::grid::grid2d(7, 6, mf_sparse::gen::grid::Stencil::Box);
        assert_eq!(natural_counts(&a), dense_l_counts(&a));
    }

    #[test]
    fn diagonal_matrix_counts_are_one() {
        let a = CscMatrix::identity(5, 1.0);
        assert_eq!(natural_counts(&a), vec![1; 5]);
    }

    #[test]
    fn tridiagonal_counts_are_two_except_last() {
        let n = 6;
        let mut coo = CooMatrix::new_symmetric(n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 1..n {
            coo.push(i, i - 1, -1.0).unwrap();
        }
        let a = coo.to_csc();
        let c = natural_counts(&a);
        assert_eq!(c, vec![2, 2, 2, 2, 2, 1]);
        assert_eq!(factor_entries(&c), 11);
    }
}
