//! Nested dissection (METIS-like) ordering.
//!
//! Recursive vertex bisection, and each split is exactly three steps:
//!
//! 1. **A BFS level cut.** A pseudo-peripheral BFS level structure of the
//!    node set; the cut falls below the thinnest level among the cuts
//!    whose sides keep `max(below, above) / n` within
//!    [`NdOptions::max_imbalance`] (the thinnest of all when none does),
//!    and that level's nodes adjacent to the near side are the separator.
//! 2. **A one-sided shrink.** Separator nodes with no neighbour on the
//!    far side move to the near side.
//! 3. **Minimum degree** ([`crate::mindeg`]) orders every subgraph of at
//!    most [`NdOptions::leaf_size`] nodes, and every separator.
//!
//! There is no multilevel coarsening and no Fiduccia–Mattheyses (FM) or
//! other refinement pass. The separators end up last in the ordering,
//! which is what produces the wide, well-balanced assembly trees
//! characteristic of METIS in the paper. [`crate::pord`] is this same code
//! with other options.

use crate::mindeg::{Engine, Metric};
use mf_sparse::{Graph, LevelStructure, Permutation};

/// Tuning knobs of the dissection.
#[derive(Debug, Clone)]
pub struct NdOptions {
    /// Subgraphs at or below this size are ordered with minimum degree.
    pub leaf_size: usize,
    /// Metric used on the leaves.
    pub leaf_metric: Metric,
    /// Largest imbalance `max(below, above) / n` of a level cut that
    /// counts as balanced (0.5 = perfectly balanced): the thinnest
    /// balanced cut wins, an unbalanced one only when no cut is balanced.
    pub max_imbalance: f64,
}

impl NdOptions {
    /// Parameters approximating METIS' defaults.
    pub fn metis_like() -> Self {
        NdOptions { leaf_size: 120, leaf_metric: Metric::ApproxDegree, max_imbalance: 0.65 }
    }
}

/// Computes a nested-dissection ordering of `g`.
pub fn nested_dissection(g: &Graph, opts: &NdOptions) -> Permutation {
    let n = g.n();
    // Handle disconnected graphs: dissect each component.
    let (comp, ncomp) = g.components();
    let mut comp_nodes: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    for v in 0..n {
        comp_nodes[comp[v]].push(v);
    }
    let mut d = Dissection {
        g,
        opts,
        levels: LevelStructure::new(n),
        tag: vec![0; n],
        base: 0,
        local: vec![usize::MAX; n],
        engine: Engine::new(opts.leaf_metric),
        order: Vec::with_capacity(n),
    };
    for nodes in comp_nodes {
        d.dissect(nodes);
    }
    debug_assert_eq!(d.order.len(), n);
    Permutation::from_elimination_order(d.order).expect("dissection covers every node once")
}

const SIDE_A: usize = 1;
const SIDE_B: usize = 2;
const SEPARATOR: usize = 3;

/// One dissection and its workspace: every split and every leaf costs
/// time proportional to its own node set, never to the whole graph.
struct Dissection<'a> {
    g: &'a Graph,
    opts: &'a NdOptions,
    levels: LevelStructure,
    /// `tag[v] >= base` iff `v` is in the node set being split, and then
    /// `tag[v] - base` is its side. Each split raises `base` by 4, which
    /// empties the set and the sides of the split before it at once.
    tag: Vec<usize>,
    base: usize,
    /// Leaf-local id of the nodes of the leaf being ordered, `usize::MAX`
    /// elsewhere.
    local: Vec<usize>,
    engine: Engine,
    order: Vec<usize>,
}

impl Dissection<'_> {
    fn dissect(&mut self, nodes: Vec<usize>) {
        if nodes.len() <= self.opts.leaf_size {
            self.order_leaf(&nodes);
            return;
        }
        match self.find_separator(&nodes) {
            Some((a, b, sep)) => {
                // Recurse on halves; separator is ordered last (eliminated after
                // both halves), which puts it at the parent in the etree.
                self.dissect(a);
                self.dissect(b);
                self.order_leaf(&sep);
            }
            // No usable separator (e.g. clique-like subgraph).
            None => self.order_leaf(&nodes),
        }
    }

    /// Orders a small node set with minimum degree on its induced subgraph.
    fn order_leaf(&mut self, nodes: &[usize]) {
        if nodes.len() <= 2 {
            self.order.extend_from_slice(nodes);
            return;
        }
        for (k, &v) in nodes.iter().enumerate() {
            self.local[v] = k;
        }
        let (g, local, order) = (self.g, &self.local, &mut self.order);
        self.engine.order(
            nodes.len(),
            |k| g.neighbors(nodes[k]).iter().map(|&w| local[w]).filter(|&l| l != usize::MAX),
            |k| order.push(nodes[k]),
        );
        for &v in nodes {
            self.local[v] = usize::MAX;
        }
    }

    /// Splits `nodes` into `(A, B, separator)`; returns `None` when the split
    /// degenerates (one side empty).
    fn find_separator(&mut self, nodes: &[usize]) -> Option<(Vec<usize>, Vec<usize>, Vec<usize>)> {
        let (g, opts) = (self.g, self.opts);
        // Restrict the search to this node set only.
        self.base += 4;
        let base = self.base;
        for &v in nodes {
            self.tag[v] = base;
        }
        let tag = &self.tag;
        self.levels.pseudo_peripheral(g, nodes[0], &|w| tag[w] >= base);
        let (levels, tag) = (&self.levels, &mut self.tag);
        let depth = levels.depth();
        if depth == 0 {
            return None; // clique or single level: no separator possible
        }

        // Level sizes, then the cut whose next level (the separator
        // candidate) is thinnest among the balanced cuts: an unbalanced cut
        // is penalised by the whole set's size, so it wins only when no cut
        // is balanced.
        let mut level_sizes = vec![0usize; depth + 1];
        for &v in nodes {
            if levels.level(v) != usize::MAX {
                level_sizes[levels.level(v)] += 1;
            }
        }
        let total: usize = level_sizes.iter().sum();
        let mut best_cut = None;
        let mut below = 0usize;
        for (lvl, &sz) in level_sizes.iter().enumerate().take(depth) {
            below += sz;
            let above = total - below;
            let bal = below.max(above) as f64 / total.max(1) as f64;
            if below == 0 || above == 0 {
                continue;
            }
            // Score: prefer thin next level (the separator candidate) and balance.
            let sep_sz = level_sizes[lvl + 1];
            let score = sep_sz as f64 + if bal > opts.max_imbalance { total as f64 } else { 0.0 };
            if best_cut.is_none_or(|(_, s)| score < s) {
                best_cut = Some((lvl, score));
            }
        }
        let (cut, _) = best_cut?;

        // A holds the levels up to the cut, B the rest, nodes the search did
        // not reach included (their level is `usize::MAX`).
        for &v in nodes {
            tag[v] = base + if levels.level(v) <= cut { SIDE_A } else { SIDE_B };
        }
        // Initial separator: the nodes of level cut+1 adjacent to level <= cut.
        let mut sep = Vec::new();
        for &v in nodes {
            if levels.level(v) == cut + 1 && g.neighbors(v).iter().any(|&w| tag[w] == base + SIDE_A)
            {
                tag[v] = base + SEPARATOR;
                sep.push(v);
            }
        }
        // Shrink: separator vertices with no B neighbour can move into A
        // and A and B stay disconnected.
        sep.retain(|&v| {
            let touches_b = g.neighbors(v).iter().any(|&w| tag[w] == base + SIDE_B);
            if !touches_b {
                tag[v] = base + SIDE_A;
            }
            touches_b
        });
        if sep.is_empty() {
            return None;
        }
        let side = |s| nodes.iter().copied().filter(|&v| tag[v] == base + s).collect::<Vec<_>>();
        let (a, b) = (side(SIDE_A), side(SIDE_B));
        if a.is_empty() || b.is_empty() {
            return None;
        }
        Some((a, b, sep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::gen::grid::{grid2d, Stencil};
    use mf_sparse::Graph;

    #[test]
    fn orders_every_node_once() {
        let a = grid2d(20, 20, Stencil::Star);
        let g = Graph::from_matrix(&a);
        let p = nested_dissection(&g, &NdOptions::metis_like());
        assert_eq!(p.len(), 400);
    }

    #[test]
    fn separator_goes_last_on_a_path() {
        // On a path of 2k+1 nodes with leaf_size 1 the first separator is a
        // single node near the middle, eliminated last.
        let n = 31;
        let mut coo = mf_sparse::CooMatrix::new_symmetric(n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 1..n {
            coo.push(i, i - 1, -1.0).unwrap();
        }
        let g = Graph::from_matrix(&coo.to_csc());
        let opts = NdOptions { leaf_size: 4, ..NdOptions::metis_like() };
        let p = nested_dissection(&g, &opts);
        let last = p.old_of(n - 1);
        assert!(last > n / 4 && last < 3 * n / 4, "last-eliminated {last} not central");
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut coo = mf_sparse::CooMatrix::new_symmetric(10);
        for i in 0..10 {
            coo.push(i, i, 1.0).unwrap();
        }
        for i in 1..5 {
            coo.push(i, i - 1, 1.0).unwrap();
        }
        for i in 6..10 {
            coo.push(i, i - 1, 1.0).unwrap();
        }
        let g = Graph::from_matrix(&coo.to_csc());
        let p = nested_dissection(&g, &NdOptions { leaf_size: 2, ..NdOptions::metis_like() });
        assert_eq!(p.len(), 10);
    }

    #[test]
    fn reduces_fill_vs_natural_on_grid() {
        let a = grid2d(14, 14, Stencil::Star);
        let g = Graph::from_matrix(&a);
        let p = nested_dissection(&g, &NdOptions { leaf_size: 16, ..NdOptions::metis_like() });
        let f_nat = crate::stats::exact_fill(&g, &Permutation::identity(g.n()));
        let f_nd = crate::stats::exact_fill(&g, &p);
        assert!(f_nd < f_nat, "nd fill {f_nd} !< natural {f_nat}");
    }

    #[test]
    fn deterministic() {
        let a = grid2d(16, 12, Stencil::Box);
        let g = Graph::from_matrix(&a);
        let p1 = nested_dissection(&g, &NdOptions::metis_like());
        let p2 = nested_dissection(&g, &NdOptions::metis_like());
        assert_eq!(p1, p2);
    }
}
