//! PORD-like ordering.
//!
//! Schulze's PORD couples a bottom-up (minimum-degree-like) process with
//! top-down separator refinement. Neither is here: this is [`crate::nd`]'s
//! dissection — BFS level cut, one-sided separator shrink, minimum degree
//! on leaves and separators — run with other [`NdOptions`]: leaves of
//! about `n / 8` nodes (clamped to 240–6000) ordered by approximate
//! *fill* instead of degree, and a looser balance bound (0.75 where
//! `metis_like` takes 0.65). The much larger fill-metric leaves are meant
//! to put its trees between the wide METIS-like trees and the deep
//! AMD/AMF ones — the role PORD plays in the paper's sweep.

use crate::mindeg::Metric;
use crate::nd::{nested_dissection, NdOptions};
use mf_sparse::{Graph, Permutation};

/// Computes a PORD-like hybrid ordering of `g`.
pub fn pord_like(g: &Graph) -> Permutation {
    // Switch to the bottom-up (fill metric) ordering once subgraphs drop
    // below ~n/8, bounded so tiny and huge inputs stay reasonable.
    let leaf = (g.n() / 8).clamp(240, 6_000);
    let opts = NdOptions { leaf_size: leaf, leaf_metric: Metric::ApproxFill, max_imbalance: 0.75 };
    nested_dissection(g, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrderingKind;
    use mf_sparse::gen::grid::{grid2d, Stencil};
    use mf_sparse::Graph;

    #[test]
    fn valid_permutation() {
        let a = grid2d(25, 25, Stencil::Star);
        let g = Graph::from_matrix(&a);
        let p = pord_like(&g);
        assert_eq!(p.len(), 625);
    }

    #[test]
    fn differs_from_metis_and_amd() {
        let a = grid2d(40, 40, Stencil::Star);
        let g = Graph::from_matrix(&a);
        let pord = OrderingKind::Pord.compute_on_graph(&g);
        let metis = OrderingKind::Metis.compute_on_graph(&g);
        let amd = OrderingKind::Amd.compute_on_graph(&g);
        assert_ne!(pord, metis);
        assert_ne!(pord, amd);
    }
}
