//! Fundamental supernodes and relaxed amalgamation.

use crate::etree::{child_counts, NONE};
use crate::tree::{AssemblyTree, FrontNode};
use mf_sparse::Symmetry;

/// Amalgamation tuning.
///
/// Children are only merged with their *postorder-adjacent* parent (the
/// chain along last children), which keeps every node's pivot columns a
/// contiguous range — the representation the rest of the system relies on.
#[derive(Debug, Clone)]
pub struct AmalgamationOptions {
    /// A child with at most this many pivots is always merged into its
    /// parent (MUMPS-style absorption of tiny nodes).
    pub always_merge_npiv: usize,
    /// Otherwise merge only if the relative growth in stored entries,
    /// `(merged - child - parent) / (child + parent)`, stays below this.
    pub max_fill_ratio: f64,
    /// Never merge beyond this front order (caps the dense working set of
    /// a single front, like MUMPS' amalgamation controls); `usize::MAX`
    /// disables the cap.
    pub max_front: usize,
}

impl Default for AmalgamationOptions {
    fn default() -> Self {
        AmalgamationOptions { always_merge_npiv: 8, max_fill_ratio: 0.10, max_front: usize::MAX }
    }
}

impl AmalgamationOptions {
    /// No amalgamation at all: one node per fundamental supernode.
    /// (The negative fill ratio rejects even zero-fill merges.)
    pub fn none() -> Self {
        AmalgamationOptions { always_merge_npiv: 0, max_fill_ratio: -1.0, max_front: usize::MAX }
    }
}

fn entries(sym: Symmetry, nfront: u64) -> u64 {
    match sym {
        Symmetry::Symmetric => nfront * (nfront + 1) / 2,
        Symmetry::General => nfront * nfront,
    }
}

/// Builds the amalgamated assembly tree from a *postordered* elimination
/// tree and exact column counts.
pub fn build_assembly_tree(
    parent: &[usize],
    counts: &[usize],
    sym: Symmetry,
    opts: &AmalgamationOptions,
) -> AssemblyTree {
    let n = parent.len();
    let nchild = child_counts(parent);

    // ---- Fundamental supernodes. ----
    // Column j extends the supernode of j-1 iff parent[j-1] == j, j has a
    // single child, and the counts drop by exactly one.
    let mut sn_first: Vec<usize> = Vec::new();
    for j in 0..n {
        let extends =
            j > 0 && parent[j - 1] == j && nchild[j] == 1 && counts[j] + 1 == counts[j - 1];
        if !extends {
            sn_first.push(j);
        }
    }
    let nsn = sn_first.len();
    let mut col_sn = vec![0usize; n];
    for (s, &f) in sn_first.iter().enumerate() {
        let last = if s + 1 < nsn { sn_first[s + 1] } else { n };
        for c in f..last {
            col_sn[c] = s;
        }
    }

    // Supernode nodes (ids are postordered because columns are).
    let mut nodes: Vec<FrontNode> = (0..nsn)
        .map(|s| {
            let f = sn_first[s];
            let last = if s + 1 < nsn { sn_first[s + 1] } else { n };
            FrontNode {
                first_col: f,
                npiv: last - f,
                nfront: counts[f],
                parent: None,
                children: Vec::new(),
                chain_head: None,
            }
        })
        .collect();
    for s in 0..nsn {
        let last_col = nodes[s].first_col + nodes[s].npiv - 1;
        let p = parent[last_col];
        if p != NONE {
            let ps = col_sn[p];
            nodes[s].parent = Some(ps);
            nodes[ps].children.push(s);
        }
    }

    // ---- Relaxed amalgamation along postorder-adjacent (last-child) links. ----
    // alive[s] = false once s was merged into its parent. Merging child s
    // into parent p is only possible when s's pivots end exactly where p's
    // begin (s is the postorder-adjacent child).
    let mut alive = vec![true; nsn];
    for s in 0..nsn {
        if !alive[s] {
            continue;
        }
        let Some(p) = nodes[s].parent else { continue };
        let adjacent = nodes[s].first_col + nodes[s].npiv == nodes[p].first_col;
        if !adjacent {
            continue;
        }
        let (cp, cf) = (nodes[s].npiv as u64, nodes[s].nfront as u64);
        let (pp, pf) = (nodes[p].npiv as u64, nodes[p].nfront as u64);
        let merged_front = cp + pf;
        // CB(s) ⊆ front(p), so the merged front is pivots(s) ∪ front(p).
        let e_child = entries(sym, cf);
        let e_parent = entries(sym, pf);
        let e_merged = entries(sym, merged_front);
        let extra = e_merged.saturating_sub(e_child + e_parent) as f64;
        let merge = (merged_front as usize <= opts.max_front)
            && (nodes[s].npiv <= opts.always_merge_npiv
                || extra / (e_child + e_parent) as f64 <= opts.max_fill_ratio);
        let _ = pp;
        if !merge {
            continue;
        }
        // Merge s into p.
        alive[s] = false;
        let s_children = std::mem::take(&mut nodes[s].children);
        nodes[p].first_col = nodes[s].first_col;
        nodes[p].npiv += nodes[s].npiv;
        nodes[p].nfront = (cp + pf) as usize;
        nodes[p].children.retain(|&c| c != s);
        for &c in &s_children {
            nodes[c].parent = Some(p);
        }
        // Keep child order by first_col so traversals stay deterministic.
        let mut merged_children = s_children;
        merged_children.extend(nodes[p].children.iter().copied());
        merged_children.sort_unstable_by_key(|&c| nodes[c].first_col);
        nodes[p].children = merged_children;
    }

    // ---- Compact ids. ----
    let mut new_id = vec![usize::MAX; nsn];
    let mut compact: Vec<FrontNode> = Vec::with_capacity(nsn);
    for s in 0..nsn {
        if alive[s] {
            new_id[s] = compact.len();
            compact.push(nodes[s].clone());
        }
    }
    for nd in &mut compact {
        nd.parent = nd.parent.map(|p| new_id[p]);
        for c in nd.children.iter_mut() {
            *c = new_id[*c];
        }
        debug_assert!(nd.children.iter().all(|&c| c != usize::MAX));
    }

    let tree = AssemblyTree { nodes: compact, sym, n };
    debug_assert!(tree.validate().is_ok(), "{:?}", tree.validate());
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colcount::col_counts;
    use crate::etree::postorder;
    use crate::testmat::{figure1_matrix, natural_etree, tridiag};

    fn analyze_raw(a: &mf_sparse::CscMatrix, opts: &AmalgamationOptions) -> AssemblyTree {
        let parent = natural_etree(a);
        assert!(crate::etree::is_postordered(&parent), "fixture must be postordered");
        let id = mf_sparse::Permutation::identity(a.ncols());
        let counts = col_counts(a, &id, &parent, &postorder(&parent));
        build_assembly_tree(&parent, &counts, mf_sparse::Symmetry::Symmetric, opts)
    }

    #[test]
    fn figure1_gives_three_supernodes() {
        let a = figure1_matrix();
        let t = analyze_raw(&a, &AmalgamationOptions::none());
        assert_eq!(t.len(), 3);
        let piv: Vec<(usize, usize)> = t.nodes.iter().map(|n| (n.first_col, n.npiv)).collect();
        assert_eq!(piv, vec![(0, 2), (2, 2), (4, 2)]);
        assert_eq!(t.nodes[0].nfront, 4);
        assert_eq!(t.nodes[2].children, vec![0, 1]);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn tridiag_without_amalgamation_is_a_chain_of_singletons() {
        // The last two columns form a dense trailing block, hence one
        // fundamental supernode {4,5}; the rest are singletons.
        let a = tridiag(6);
        let t = analyze_raw(&a, &AmalgamationOptions::none());
        assert_eq!(t.len(), 5);
        assert!(t.nodes.iter().take(4).all(|n| n.npiv == 1 && n.nfront == 2));
        assert_eq!((t.nodes[4].npiv, t.nodes[4].nfront), (2, 2));
    }

    #[test]
    fn tridiag_with_amalgamation_collapses() {
        let a = tridiag(16);
        let t = analyze_raw(
            &a,
            &AmalgamationOptions {
                always_merge_npiv: 4,
                max_fill_ratio: 0.0,
                max_front: usize::MAX,
            },
        );
        assert!(t.len() < 16, "got {} nodes", t.len());
        assert!(t.validate().is_ok());
        assert_eq!(t.nodes.iter().map(|n| n.npiv).sum::<usize>(), 16);
    }

    #[test]
    fn max_front_cap_is_respected() {
        let a = crate::testmat::tridiag(64);
        let capped = analyze_raw(
            &a,
            &AmalgamationOptions { always_merge_npiv: 64, max_fill_ratio: 1.0, max_front: 6 },
        );
        assert!(capped.nodes.iter().all(|n| n.nfront <= 6), "cap violated");
        let uncapped = analyze_raw(
            &a,
            &AmalgamationOptions {
                always_merge_npiv: 64,
                max_fill_ratio: 1.0,
                max_front: usize::MAX,
            },
        );
        assert!(uncapped.len() < capped.len());
    }

    #[test]
    fn amalgamation_preserves_pivot_partition() {
        let a = mf_sparse::gen::grid::grid2d(9, 9, mf_sparse::gen::grid::Stencil::Star);
        let s = crate::analyze(
            &a,
            &mf_sparse::Permutation::identity(81),
            &AmalgamationOptions::default(),
        );
        assert!(s.tree.validate().is_ok());
        assert_eq!(s.tree.n, 81);
    }

    #[test]
    fn zero_fill_ratio_never_grows_front_entries() {
        // Amalgamation may store explicit zeros in the *factors* (that is
        // its nature), but a zero fill-ratio must never grow the total
        // front weight of the tree.
        let a = mf_sparse::gen::grid::grid2d(8, 8, mf_sparse::gen::grid::Stencil::Star);
        let none =
            crate::analyze(&a, &mf_sparse::Permutation::identity(64), &AmalgamationOptions::none());
        let tight = crate::analyze(
            &a,
            &mf_sparse::Permutation::identity(64),
            &AmalgamationOptions {
                always_merge_npiv: 0,
                max_fill_ratio: 0.0,
                max_front: usize::MAX,
            },
        );
        let weight = |t: &AssemblyTree| (0..t.len()).map(|i| t.front_entries(i)).sum::<u64>();
        assert!(weight(&tight.tree) <= weight(&none.tree));
        assert!(tight.tree.len() <= none.tree.len());
    }
}
