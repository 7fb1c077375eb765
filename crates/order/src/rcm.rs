//! Reverse Cuthill–McKee ordering.
//!
//! Not part of the paper's sweep, but the standard bandwidth-reducing
//! baseline: it produces long, thin elimination trees (nearly chains),
//! the opposite extreme from nested dissection's wide ones — useful for
//! stress-testing the schedulers on degenerate topologies and as a
//! reference point in the ordering benchmarks.

use mf_sparse::{Graph, LevelStructure, Permutation};
use std::collections::VecDeque;

/// Computes the reverse Cuthill–McKee ordering of `g`: BFS from a
/// pseudo-peripheral node, neighbors visited by increasing degree, final
/// order reversed.
pub fn rcm(g: &Graph) -> Permutation {
    let n = g.n();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut levels = LevelStructure::new(n);
    let mut queue = VecDeque::new();
    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        let root = levels.pseudo_peripheral(g, seed, &|_| true);
        let root = if visited[root] { seed } else { root };
        visited[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> =
                g.neighbors(v).iter().copied().filter(|&w| !visited[w]).collect();
            nbrs.sort_by_key(|&w| (g.degree(w), w));
            for w in nbrs {
                visited[w] = true;
                queue.push_back(w);
            }
        }
    }
    order.reverse();
    debug_assert_eq!(order.len(), n);
    Permutation::from_elimination_order(order).expect("RCM visits every node once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::envelope;
    use mf_sparse::gen::grid::{grid2d, Stencil};
    use mf_sparse::{CooMatrix, Graph};

    #[test]
    fn covers_all_nodes() {
        let a = grid2d(9, 7, Stencil::Box);
        let g = Graph::from_matrix(&a);
        let p = rcm(&g);
        assert_eq!(p.len(), 63);
    }

    #[test]
    fn reduces_envelope_on_shuffled_grid() {
        // Scramble a grid, then check RCM shrinks the envelope back.
        let a = grid2d(12, 12, Stencil::Star);
        let n = a.nrows();
        let scramble = Permutation::from_new_order((0..n).map(|i| (i * 89) % n).collect()).unwrap();
        let b = a.permute_symmetric(&scramble);
        let g = Graph::from_matrix(&b);
        let before = envelope(&g, &Permutation::identity(n));
        let after = envelope(&g, &rcm(&g));
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut coo = CooMatrix::new_symmetric(7);
        for i in 0..7 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push(1, 0, 1.0).unwrap();
        coo.push(5, 4, 1.0).unwrap();
        let g = Graph::from_matrix(&coo.to_csc());
        let p = rcm(&g);
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn deterministic() {
        let a = grid2d(10, 11, Stencil::Box);
        let g = Graph::from_matrix(&a);
        assert_eq!(rcm(&g), rcm(&g));
    }

    #[test]
    fn path_graph_orders_end_to_end() {
        // On a path, RCM yields a monotone walk: bandwidth 1.
        let mut coo = CooMatrix::new_symmetric(8);
        for i in 0..8 {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 1..8 {
            coo.push(i, i - 1, -1.0).unwrap();
        }
        let g = Graph::from_matrix(&coo.to_csc());
        let p = rcm(&g);
        for v in 0..8 {
            for &w in g.neighbors(v) {
                assert!((p.new_of(v) as i64 - p.new_of(w) as i64).abs() == 1);
            }
        }
    }
}
