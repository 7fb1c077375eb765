//! Ordering-quality statistics.
//!
//! Lightweight measures used by the tests and the experiment reports to
//! characterize what each ordering did to the problem, independent of the
//! heavier symbolic analysis in `mf-symbolic`.

use mf_sparse::{Graph, Permutation};

/// Exact fill-in of an elimination order, by naive symbolic elimination.
///
/// Quadratic in the worst case — intended for matrices up to a few
/// thousand nodes (tests, examples, reports), not production runs.
pub fn exact_fill(g: &Graph, p: &Permutation) -> u64 {
    let n = g.n();
    let mut adj: Vec<std::collections::BTreeSet<usize>> =
        (0..n).map(|i| g.neighbors(i).iter().copied().collect()).collect();
    let mut eliminated = vec![false; n];
    let mut fill = 0u64;
    for &v in p.elimination_order() {
        let nbrs: Vec<usize> = adj[v].iter().copied().filter(|&w| !eliminated[w]).collect();
        for (a, &x) in nbrs.iter().enumerate() {
            for &y in &nbrs[a + 1..] {
                if adj[x].insert(y) {
                    adj[y].insert(x);
                    fill += 1;
                }
            }
        }
        eliminated[v] = true;
        adj[v].clear();
    }
    fill
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::gen::grid::{grid2d, Stencil};
    use mf_sparse::Graph;

    #[test]
    fn all_orderings_beat_reversed_natural_fill_on_grid() {
        let a = grid2d(13, 13, Stencil::Star);
        let g = Graph::from_matrix(&a);
        let id = Permutation::identity(g.n());
        let base = exact_fill(&g, &id);
        for kind in crate::ALL_ORDERINGS {
            let p = kind.compute_on_graph(&g);
            let f = exact_fill(&g, &p);
            assert!(f < base, "{}: {f} !< natural {base}", kind.name());
        }
        // Sanity: orderings are actually distinct permutations.
        let ps: Vec<_> = crate::ALL_ORDERINGS.iter().map(|k| k.compute_on_graph(&g)).collect();
        assert!(ps.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn compute_on_matrix_handles_unsymmetric_input() {
        let a = mf_sparse::gen::circuit::circuit(300, 3, 2, 0.1, 9);
        for kind in crate::ALL_ORDERINGS {
            let p = kind.compute(&a);
            assert_eq!(p.len(), 300, "{}", kind.name());
        }
    }
}
