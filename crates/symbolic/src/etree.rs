//! Elimination tree of a structurally symmetric pattern (Liu's algorithm).

use mf_sparse::{CscMatrix, Permutation};

/// Parent pointer of a forest; `NONE` marks a root.
pub const NONE: usize = usize::MAX;

/// Computes the elimination tree of `P A Pᵀ` for a square, structurally
/// symmetric `a`, without forming the permuted matrix: column `j` of it is
/// column `p.old_of(j)` of `a` with its rows mapped through `p.new_of`.
/// `parent[j]` is the smallest `i > j` with `L(i, j) != 0`, or [`NONE`]
/// for a root. Runs Liu's algorithm with path compression (virtual
/// ancestors), `O(nnz · α(n))`.
pub fn etree(a: &CscMatrix, p: &Permutation) -> Vec<usize> {
    let n = a.ncols();
    assert_eq!(a.nrows(), n, "etree needs a square matrix");
    assert_eq!(p.len(), n, "etree: permutation length differs from the order");
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for j in 0..n {
        for &r in a.rows_in_col(p.old_of(j)) {
            // Entries above the diagonal of column j = row j entries (by
            // structural symmetry); walk from each k < j towards the root.
            let mut k = p.new_of(r);
            if k >= j {
                continue;
            }
            while ancestor[k] != NONE && ancestor[k] != j {
                let next = ancestor[k];
                ancestor[k] = j; // path compression
                k = next;
            }
            if ancestor[k] == NONE {
                ancestor[k] = j;
                parent[k] = j;
            }
        }
    }
    parent
}

/// Postorder of a parent-pointer forest: children are visited before their
/// parent, and the subtree of every node is contiguous in the output.
/// Children are visited in increasing index order, making the result
/// deterministic.
pub fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    // Child lists threaded through `head`/`next`; slot `n` heads the list
    // of roots. Filling from the highest index down leaves every list in
    // increasing order.
    let mut head = vec![NONE; n + 1];
    let mut next = vec![NONE; n];
    for j in (0..n).rev() {
        let list = if parent[j] == NONE { n } else { parent[j] };
        next[j] = head[list];
        head[list] = j;
    }
    let mut post = Vec::with_capacity(n);
    // Iterative DFS that unlinks each child as it descends (trees can be
    // deep: AMF on band matrices produces O(n)-depth chains).
    let mut stack: Vec<usize> = Vec::new();
    let mut root = head[n];
    while root != NONE {
        stack.push(root);
        while let Some(&v) = stack.last() {
            let c = head[v];
            if c != NONE {
                head[v] = next[c];
                stack.push(c);
            } else {
                post.push(v);
                stack.pop();
            }
        }
        root = next[root];
    }
    debug_assert_eq!(post.len(), n);
    post
}

/// True if `parent` is already postordered: every parent index is larger
/// than all indices in its subtree (equivalently `parent[j] > j` for all
/// non-roots, plus contiguity of subtrees).
pub fn is_postordered(parent: &[usize]) -> bool {
    // Postordered means: parents come after their children (parent[j] > j)
    // and every subtree is contiguous, i.e. the descendants of j are
    // exactly j - size(j) + 1 ..= j.
    let n = parent.len();
    let mut size = vec![1usize; n];
    let mut first: Vec<usize> = (0..n).collect();
    for j in 0..n {
        let p = parent[j];
        if p != NONE {
            if p <= j {
                return false;
            }
            size[p] += size[j];
            first[p] = first[p].min(first[j]);
        }
    }
    (0..n).all(|j| first[j] == j + 1 - size[j])
}

/// Number of children of every node.
pub fn child_counts(parent: &[usize]) -> Vec<usize> {
    let mut nc = vec![0usize; parent.len()];
    for &p in parent {
        if p != NONE {
            nc[p] += 1;
        }
    }
    nc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmat::{figure1_matrix, natural_etree};
    use mf_sparse::CooMatrix;

    #[test]
    fn figure1_etree() {
        let a = figure1_matrix();
        let parent = natural_etree(&a);
        assert_eq!(parent, vec![1, 4, 3, 4, 5, NONE]);
    }

    #[test]
    fn tridiagonal_etree_is_a_path() {
        let mut coo = CooMatrix::new_symmetric(5);
        for i in 0..5 {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 1..5 {
            coo.push(i, i - 1, -1.0).unwrap();
        }
        let parent = natural_etree(&coo.to_csc());
        assert_eq!(parent, vec![1, 2, 3, 4, NONE]);
    }

    #[test]
    fn diagonal_matrix_is_a_forest_of_singletons() {
        let a = mf_sparse::CscMatrix::identity(4, 1.0);
        let parent = natural_etree(&a);
        assert_eq!(parent, vec![NONE; 4]);
        let post = postorder(&parent);
        assert_eq!(post.len(), 4);
    }

    #[test]
    fn postorder_parents_after_children() {
        let a = figure1_matrix();
        let parent = natural_etree(&a);
        let post = postorder(&parent);
        let mut pos = [0usize; 6];
        for (k, &v) in post.iter().enumerate() {
            pos[v] = k;
        }
        for j in 0..6 {
            if parent[j] != NONE {
                assert!(pos[parent[j]] > pos[j]);
            }
        }
    }

    #[test]
    fn figure1_is_already_postordered() {
        let a = figure1_matrix();
        let parent = natural_etree(&a);
        assert!(is_postordered(&parent));
    }

    #[test]
    fn deep_tree_does_not_overflow() {
        // Path of 200_000 nodes: recursive postorder would blow the stack.
        let n = 200_000;
        let parent: Vec<usize> = (0..n).map(|j| if j + 1 < n { j + 1 } else { NONE }).collect();
        let post = postorder(&parent);
        assert_eq!(post[0], 0);
        assert_eq!(post[n - 1], n - 1);
    }
}
