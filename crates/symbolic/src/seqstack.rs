//! Sequential stack analysis and Liu's optimal child ordering.
//!
//! In a sequential postorder factorization the stack holds the
//! contribution blocks of already-processed siblings. The peak within a
//! subtree depends on the order children are visited; Liu's classic result
//! (\[15\] in the paper) is that visiting children in decreasing
//! `peak(child) - cb(child)` minimizes the subtree peak. MUMPS uses a
//! variant of this to sort the leaf sequence of each subtree in the pool
//! (Section 5.2), and the paper's subtree-cost broadcasts send exactly the
//! per-subtree peak computed here.

use crate::tree::AssemblyTree;

/// Memory discipline used when a front finishes assembling its children.
///
/// MUMPS assembles children CBs into the freshly allocated front and then
/// frees them (`FrontThenFree`), the one discipline modelled here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssemblyDiscipline {
    /// Front allocated while all children CBs are still stacked.
    FrontThenFree,
}

/// Per-subtree peaks for a given (current) child order.
///
/// `peaks[v]` is the stack peak reached while processing the subtree of
/// `v`, *including* `v`'s own front; the residual footprint after `v`
/// completes is `cb(v)`.
pub fn subtree_peaks(tree: &AssemblyTree, discipline: AssemblyDiscipline) -> Vec<u64> {
    let mut peaks = vec![0u64; tree.len()];
    for v in tree.topo_order() {
        peaks[v] = node_peak(tree, v, &peaks, discipline);
    }
    peaks
}

/// Stack peak of `v`'s subtree for its current child order, given the
/// peaks of its children: the largest of each child's peak on top of its
/// earlier siblings' CBs and of the assembly of `v`'s own front.
fn node_peak(tree: &AssemblyTree, v: usize, peaks: &[u64], discipline: AssemblyDiscipline) -> u64 {
    let nd = &tree.nodes[v];
    let mut stacked = 0u64; // CBs of already-processed children
    let mut peak = 0u64;
    for &c in &nd.children {
        peak = peak.max(stacked + peaks[c]);
        stacked += tree.cb_entries(c);
    }
    let AssemblyDiscipline::FrontThenFree = discipline;
    peak.max(stacked + tree.front_entries(v))
}

/// Stack peak of a full sequential factorization with the current child
/// orders (roots processed one after the other; only each root's CB is
/// empty so roots do not interact).
pub fn sequential_peak(tree: &AssemblyTree, discipline: AssemblyDiscipline) -> u64 {
    let peaks = subtree_peaks(tree, discipline);
    tree.roots().into_iter().map(|r| peaks[r]).max().unwrap_or(0)
}

/// Peaks of one sequential traversal, in entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraversalPeaks {
    /// Peak of the active memory: the stacked contribution blocks plus
    /// the front being factored (the quantity the paper's tables report).
    pub active: u64,
    /// Peak of the contribution-block stack alone.
    pub stack: u64,
}

/// Peaks of the sequential factorization that visits the fronts in
/// `order`, under [`AssemblyDiscipline::FrontThenFree`]: each front is
/// allocated on top of every contribution block stacked so far, then its
/// children's blocks are freed and its own is pushed. Factors never
/// count.
///
/// `order` may be any order that visits children before their parents,
/// not only a postorder: blocks are counted, not popped LIFO, so a
/// traversal that interleaves subtrees is priced as well. On a postorder
/// whose roots leave nothing stacked, `active` is [`sequential_peak`].
///
/// # Panics
///
/// If a node is visited before one of its children, or twice.
pub fn traversal_peak(tree: &AssemblyTree, order: &[usize]) -> TraversalPeaks {
    let mut done = vec![false; tree.len()];
    let (mut stacked, mut active, mut stack) = (0u64, 0u64, 0u64);
    for &v in order {
        active = active.max(stacked + tree.front_entries(v));
        for &c in &tree.nodes[v].children {
            assert!(done[c], "node {v} is visited before its child {c}");
            stacked -= tree.cb_entries(c);
        }
        assert!(!std::mem::replace(&mut done[v], true), "node {v} is visited twice");
        stacked += tree.cb_entries(v);
        stack = stack.max(stacked);
        active = active.max(stacked);
    }
    TraversalPeaks { active, stack }
}

/// Reorders every node's children by decreasing `peak - cb` (Liu's rule),
/// minimizing the sequential stack peak. Returns the resulting peak.
pub fn apply_liu_order(tree: &mut AssemblyTree, discipline: AssemblyDiscipline) -> u64 {
    // Fixed point: child order affects peaks which affect ordering above;
    // processing bottom-up in one pass is exact because a node's peak only
    // depends on its own subtree.
    let order = tree.topo_order();
    let mut peaks = vec![0u64; tree.len()];
    for v in order {
        let mut children = std::mem::take(&mut tree.nodes[v].children);
        children.sort_by_key(|&c| std::cmp::Reverse(peaks[c].saturating_sub(tree.cb_entries(c))));
        tree.nodes[v].children = children;
        peaks[v] = node_peak(tree, v, &peaks, discipline);
    }
    tree.roots().into_iter().map(|r| peaks[r]).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::FrontNode;
    use mf_sparse::Symmetry;

    /// Root with two uneven children: a fat one (big peak, small CB) and a
    /// thin one. Liu's rule must schedule the fat child first.
    fn uneven_tree() -> AssemblyTree {
        AssemblyTree {
            nodes: vec![
                // fat child: front 10 (100 entries), cb 2 (4 entries)
                FrontNode {
                    first_col: 0,
                    npiv: 8,
                    nfront: 10,
                    parent: Some(2),
                    children: vec![],
                    chain_head: None,
                },
                // thin child: front 4 (16), cb 2 (4)
                FrontNode {
                    first_col: 8,
                    npiv: 2,
                    nfront: 4,
                    parent: Some(2),
                    children: vec![],
                    chain_head: None,
                },
                FrontNode {
                    first_col: 10,
                    npiv: 2,
                    nfront: 2,
                    parent: None,
                    children: vec![1, 0],
                    chain_head: None,
                },
            ],
            sym: Symmetry::General,
            n: 12,
        }
    }

    #[test]
    fn peak_depends_on_child_order() {
        let t = uneven_tree();
        // Order (thin, fat): peak = max(16, 4 + 100, 8 + 4) = 104.
        assert_eq!(sequential_peak(&t, AssemblyDiscipline::FrontThenFree), 104);
        let mut t2 = t.clone();
        t2.nodes[2].children = vec![0, 1];
        // Order (fat, thin): peak = max(100, 4 + 16, 8 + 4) = 100.
        assert_eq!(sequential_peak(&t2, AssemblyDiscipline::FrontThenFree), 100);
    }

    #[test]
    fn liu_order_picks_the_better_order() {
        let mut t = uneven_tree();
        let peak = apply_liu_order(&mut t, AssemblyDiscipline::FrontThenFree);
        assert_eq!(peak, 100);
        assert_eq!(t.nodes[2].children, vec![0, 1]);
        assert_eq!(sequential_peak(&t, AssemblyDiscipline::FrontThenFree), 100);
    }

    #[test]
    fn liu_never_worse_on_real_trees() {
        let a = mf_sparse::gen::grid::grid2d(12, 12, mf_sparse::gen::grid::Stencil::Star);
        let p = mf_sparse::Permutation::identity(144);
        let mut s = crate::analyze(&a, &p, &crate::AmalgamationOptions::default());
        let before = sequential_peak(&s.tree, AssemblyDiscipline::FrontThenFree);
        let after = apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
        assert!(after <= before);
        assert!(s.tree.validate().is_ok());
    }

    #[test]
    fn traversal_peak_equals_the_closed_form_on_both_child_orders() {
        let t = uneven_tree();
        let mut t2 = t.clone();
        t2.nodes[2].children = vec![0, 1];
        for (tree, want) in [(t, 104), (t2, 100)] {
            let peaks = traversal_peak(&tree, &tree.topo_order());
            assert_eq!(peaks.active, want);
            assert_eq!(peaks.active, sequential_peak(&tree, AssemblyDiscipline::FrontThenFree));
            assert_eq!(peaks.stack, 8, "both CBs stacked under the root");
        }
    }

    /// Two chains `a0 → a1` and `b0 → b1` under one root, visited
    /// a0, b0, a1, b1, root: no postorder visits them so.
    #[test]
    fn traversal_peak_prices_an_interleaved_order() {
        let node = |npiv, nfront, parent, children| FrontNode {
            first_col: 0,
            npiv,
            nfront,
            parent,
            children,
            chain_head: None,
        };
        let t = AssemblyTree {
            nodes: vec![
                node(1, 4, Some(1), vec![]),  // a0: front 16, cb 9
                node(1, 3, Some(4), vec![0]), // a1: front 9, cb 4
                node(2, 5, Some(3), vec![]),  // b0: front 25, cb 9
                node(1, 3, Some(4), vec![2]), // b1: front 9, cb 4
                node(2, 2, None, vec![1, 3]), // root: front 4, cb 0
            ],
            sym: Symmetry::General,
            n: 7,
        };
        // Stacked before each front + its front, then stacked after it:
        // a0 0 + 16 → 9; b0 9 + 25 = 34 → 18; a1 18 + 9 → 13;
        // b1 13 + 9 → 8; root 8 + 4 → 0.
        let peaks = traversal_peak(&t, &[0, 2, 1, 3, 4]);
        assert_eq!(peaks, TraversalPeaks { active: 34, stack: 18 });
        // The postorder that finishes chain a first stacks less.
        let post = traversal_peak(&t, &t.topo_order());
        assert_eq!(post, TraversalPeaks { active: 29, stack: 13 });
        assert_eq!(post.active, sequential_peak(&t, AssemblyDiscipline::FrontThenFree));
    }

    #[test]
    #[should_panic(expected = "node 2 is visited before its child 1")]
    fn traversal_peak_refuses_a_parent_before_its_child() {
        traversal_peak(&uneven_tree(), &[0, 2, 1]);
    }

    #[test]
    fn leaf_peak_is_front_size() {
        let t = uneven_tree();
        let peaks = subtree_peaks(&t, AssemblyDiscipline::FrontThenFree);
        assert_eq!(peaks[0], 100);
        assert_eq!(peaks[1], 16);
    }
}
