//! Static phase of the scheduler (Section 3).
//!
//! Before the factorization starts, MUMPS decides: (a) the *leaf
//! subtrees*, sets of type-1 nodes entirely assigned to one processor,
//! found with the Geist–Ng top-down algorithm and mapped to balance
//! computational work; (b) the parallelism *type* of every node above the
//! subtrees (1 = sequential, 2 = 1-D parallel front, 3 = 2-D root); and
//! (c) the *master* processor of every upper node, balancing the memory
//! of the corresponding factors.

use crate::config::SolverConfig;
use mf_symbolic::seqstack::{subtree_peaks, AssemblyDiscipline};
use mf_symbolic::AssemblyTree;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Target number of leaf subtrees per processor for the Geist–Ng
/// construction.
const SUBTREES_PER_PROC: usize = 4;

/// Parallelism type of a node (Figure 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Type-1 node inside a leaf subtree (the subtree id).
    Subtree(usize),
    /// Type-1 node in the upper part of the tree (sequential).
    Type1,
    /// Type-2 node: 1-D parallel front (master + dynamic slaves).
    Type2,
    /// Type-3 node: 2-D root processed by all processors.
    Type3,
}

/// Output of the static phase.
#[derive(Debug, Clone)]
pub struct StaticMapping {
    /// Parallelism type per node.
    pub kind: Vec<NodeKind>,
    /// Executing processor per node (master for type 2/3).
    pub owner: Vec<usize>,
    /// Subtree id per node (`None` above the subtrees).
    pub subtree_of: Vec<Option<usize>>,
    /// Root node of every subtree.
    pub subtree_roots: Vec<usize>,
    /// Processor of every subtree.
    pub subtree_proc: Vec<usize>,
    /// Sequential stack peak of every subtree (the value broadcast by the
    /// Section 5.1 mechanism).
    pub subtree_peak: Vec<u64>,
    /// Initial pool content per processor: the leaf tasks, subtree by
    /// subtree, *bottom to top of the stack* (the task to run first is
    /// last, since the pool pops from the back).
    pub initial_pool: Vec<Vec<usize>>,
}

/// Computes the full static mapping.
pub fn compute_mapping(tree: &AssemblyTree, cfg: &SolverConfig) -> StaticMapping {
    let n = tree.len();
    let flops: Vec<u64> = (0..n).map(|v| tree.flops(v)).collect();
    let subtree_flops = tree.subtree_sum(|v| flops[v]);

    // ---- Geist-Ng: peel roots until enough, balanced, subtrees. ----
    let target = (SUBTREES_PER_PROC * cfg.nprocs).max(1);
    let total: u64 = tree.roots().iter().map(|&r| subtree_flops[r]).sum();
    let balance_cap = (total / cfg.nprocs.max(1) as u64).max(1);
    // Memory-aware subtree definition (paper's conclusion): also split
    // candidates whose sequential stack peak is too large, since "subtree
    // peaks are the limiting factor of memory scalability".
    let all_peaks = subtree_peaks(tree, AssemblyDiscipline::FrontThenFree);
    let peak_cap: Option<u64> = cfg.subtree_peak_factor.map(|f| {
        let seq: u64 = tree.roots().iter().map(|&r| all_peaks[r]).max().unwrap_or(0);
        ((seq as f64 * f / cfg.nprocs.max(1) as f64) as u64).max(1)
    });
    let mut heap: BinaryHeap<(u64, usize)> =
        tree.roots().into_iter().map(|r| (subtree_flops[r], r)).collect();
    let mut atomic: Vec<usize> = Vec::new(); // leaves that cannot be split further
    let mut oversized: Vec<(u64, usize)> = Vec::new(); // peak-capped re-insertions
    while let Some(&(fl, v)) = heap.peek() {
        let enough = heap.len() + atomic.len() + oversized.len() >= target;
        let too_fat = peak_cap.is_some_and(|cap| all_peaks[v] > cap);
        if enough && fl <= balance_cap && !too_fat {
            break;
        }
        heap.pop();
        if tree.nodes[v].children.is_empty() {
            atomic.push(v);
        } else if enough && fl <= balance_cap && too_fat {
            // Split for memory only: replace by children once, but keep
            // scanning the rest of the heap for other fat subtrees.
            for &c in &tree.nodes[v].children {
                let c_fat = peak_cap.is_some_and(|cap| all_peaks[c] > cap);
                if c_fat && !tree.nodes[c].children.is_empty() {
                    heap.push((subtree_flops[c], c));
                } else {
                    oversized.push((subtree_flops[c], c));
                }
            }
        } else {
            for &c in &tree.nodes[v].children {
                heap.push((subtree_flops[c], c));
            }
        }
    }
    let mut subtree_roots: Vec<usize> = heap.into_iter().map(|(_, v)| v).collect();
    subtree_roots.extend(atomic);
    subtree_roots.extend(oversized.into_iter().map(|(_, v)| v));
    subtree_roots.sort_unstable(); // deterministic order
    let nsub = subtree_roots.len();

    // ---- LPT subtree -> processor mapping. ----
    let mut by_load: Vec<usize> = (0..nsub).collect();
    by_load.sort_by_key(|&s| (Reverse(subtree_flops[subtree_roots[s]]), s));
    let mut proc_load = vec![0u64; cfg.nprocs];
    let mut subtree_proc = vec![0usize; nsub];
    for &s in &by_load {
        let p = (0..cfg.nprocs).min_by_key(|&p| (proc_load[p], p)).unwrap_or(0);
        subtree_proc[s] = p;
        proc_load[p] += subtree_flops[subtree_roots[s]];
    }

    // ---- Mark subtree membership. ----
    let mut subtree_of: Vec<Option<usize>> = vec![None; n];
    for (s, &r) in subtree_roots.iter().enumerate() {
        let mut stack = vec![r];
        while let Some(v) = stack.pop() {
            subtree_of[v] = Some(s);
            stack.extend(tree.nodes[v].children.iter().copied());
        }
    }

    // ---- Classify upper nodes. ----
    let mut kind: Vec<NodeKind> = vec![NodeKind::Type1; n];
    for v in 0..n {
        kind[v] = match subtree_of[v] {
            Some(s) => NodeKind::Subtree(s),
            None => {
                let nd = &tree.nodes[v];
                let slave_rows = nd.nfront - nd.npiv;
                if nd.parent.is_none() && nd.nfront >= cfg.type3_front_min && cfg.nprocs > 1 {
                    NodeKind::Type3
                } else if nd.nfront >= cfg.type2_front_min
                    && slave_rows >= cfg.min_rows_per_slave
                    && cfg.nprocs > 1
                {
                    NodeKind::Type2
                } else {
                    NodeKind::Type1
                }
            }
        };
    }

    // ---- Owners: subtree nodes follow their subtree; upper nodes are
    // mapped greedily to balance the memory of their factors. ----
    let mut owner = vec![0usize; n];
    let mut factor_mem = vec![0u64; cfg.nprocs];
    for v in tree.topo_order() {
        match kind[v] {
            NodeKind::Subtree(s) => {
                owner[v] = subtree_proc[s];
                factor_mem[owner[v]] += tree.factor_entries(v);
            }
            NodeKind::Type1 => {
                let p = (0..cfg.nprocs).min_by_key(|&p| (factor_mem[p], p)).unwrap_or(0);
                owner[v] = p;
                factor_mem[p] += tree.factor_entries(v);
            }
            NodeKind::Type2 => {
                let p = (0..cfg.nprocs).min_by_key(|&p| (factor_mem[p], p)).unwrap_or(0);
                owner[v] = p;
                factor_mem[p] += tree.master_entries(v);
            }
            NodeKind::Type3 => {
                let p = (0..cfg.nprocs).min_by_key(|&p| (factor_mem[p], p)).unwrap_or(0);
                owner[v] = p;
                factor_mem[p] += tree.factor_entries(v) / cfg.nprocs as u64;
            }
        }
    }

    // ---- Subtree peaks (the Section 5.1 broadcast values). ----
    let subtree_peak: Vec<u64> = subtree_roots.iter().map(|&r| all_peaks[r]).collect();

    // ---- Initial pools: leaves, grouped subtree by subtree. ----
    // The pool pops from the back, so the *first* task to run must be
    // pushed last: reverse the natural (subtree-major, leaves-in-DFS)
    // order.
    let mut initial_pool: Vec<Vec<usize>> = vec![Vec::new(); cfg.nprocs];
    for (s, &r) in subtree_roots.iter().enumerate() {
        let p = subtree_proc[s];
        // Leaves of subtree s in DFS (tree child order = Liu order).
        let mut leaves = Vec::new();
        let mut stack = vec![r];
        while let Some(v) = stack.pop() {
            if tree.nodes[v].children.is_empty() {
                leaves.push(v);
            } else {
                // push children reversed so DFS visits them in order
                for &c in tree.nodes[v].children.iter().rev() {
                    stack.push(c);
                }
            }
        }
        // leaves currently in DFS order; queue them so the first DFS leaf
        // runs first once everything is reversed at the end.
        initial_pool[p].extend(leaves);
    }
    for pool in &mut initial_pool {
        pool.reverse();
    }

    StaticMapping {
        kind,
        owner,
        subtree_of,
        subtree_roots,
        subtree_proc,
        subtree_peak,
        initial_pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_order::OrderingKind;
    use mf_sparse::gen::grid::{grid2d, Stencil};
    use mf_symbolic::AmalgamationOptions;

    fn sample_tree(nx: usize) -> AssemblyTree {
        let a = grid2d(nx, nx, Stencil::Star);
        let p = OrderingKind::Metis.compute(&a);
        mf_symbolic::analyze(&a, &p, &AmalgamationOptions::default()).tree
    }

    fn cfg(nprocs: usize) -> SolverConfig {
        SolverConfig { nprocs, type2_front_min: 20, ..SolverConfig::mumps_baseline(nprocs) }
    }

    #[test]
    fn every_node_is_classified_and_owned() {
        let tree = sample_tree(20);
        let m = compute_mapping(&tree, &cfg(4));
        assert_eq!(m.kind.len(), tree.len());
        assert!(m.owner.iter().all(|&p| p < 4));
    }

    #[test]
    fn subtrees_cover_all_leaves() {
        let tree = sample_tree(20);
        let m = compute_mapping(&tree, &cfg(4));
        for l in tree.leaves() {
            assert!(m.subtree_of[l].is_some(), "leaf {l} outside any subtree");
        }
    }

    #[test]
    fn subtree_nodes_share_their_subtree_processor() {
        let tree = sample_tree(20);
        let m = compute_mapping(&tree, &cfg(4));
        for v in 0..tree.len() {
            if let Some(s) = m.subtree_of[v] {
                assert_eq!(m.owner[v], m.subtree_proc[s]);
                assert_eq!(m.kind[v], NodeKind::Subtree(s));
            }
        }
    }

    #[test]
    fn upper_nodes_are_ancestors_of_subtrees() {
        let tree = sample_tree(20);
        let m = compute_mapping(&tree, &cfg(4));
        // every upper node has at least one descendant subtree root among
        // its children-closure (equivalently: no upper node is a leaf).
        for v in 0..tree.len() {
            if m.subtree_of[v].is_none() {
                assert!(!tree.nodes[v].children.is_empty(), "upper leaf {v}");
            }
        }
    }

    #[test]
    fn enough_subtrees_for_the_processors() {
        let tree = sample_tree(28);
        let c = cfg(4);
        let m = compute_mapping(&tree, &c);
        assert!(
            m.subtree_roots.len() >= c.nprocs,
            "only {} subtrees for {} procs",
            m.subtree_roots.len(),
            c.nprocs
        );
        // All processors got at least one subtree.
        let mut used: Vec<bool> = vec![false; c.nprocs];
        for &p in &m.subtree_proc {
            used[p] = true;
        }
        assert!(used.iter().all(|&u| u));
    }

    #[test]
    fn subtree_load_is_roughly_balanced() {
        let tree = sample_tree(28);
        let c = cfg(4);
        let m = compute_mapping(&tree, &c);
        let sub_flops = tree.subtree_sum(|v| tree.flops(v));
        let mut load = vec![0u64; c.nprocs];
        for (s, &r) in m.subtree_roots.iter().enumerate() {
            load[m.subtree_proc[s]] += sub_flops[r];
        }
        let (mn, mx) = (*load.iter().min().unwrap(), *load.iter().max().unwrap());
        assert!(mx < 3 * mn.max(1), "imbalanced subtree loads: {load:?}");
    }

    #[test]
    fn big_upper_fronts_are_type2() {
        let tree = sample_tree(28);
        let m = compute_mapping(&tree, &cfg(4));
        let t2 = (0..tree.len()).filter(|&v| m.kind[v] == NodeKind::Type2).count();
        assert!(t2 > 0, "no type-2 node found");
    }

    #[test]
    fn single_proc_mapping_has_no_type2() {
        let tree = sample_tree(16);
        let m = compute_mapping(&tree, &cfg(1));
        assert!(m.kind.iter().all(|k| !matches!(k, NodeKind::Type2 | NodeKind::Type3)));
    }

    #[test]
    fn initial_pool_pops_first_dfs_leaf_first() {
        let tree = sample_tree(20);
        let m = compute_mapping(&tree, &cfg(4));
        for p in 0..4 {
            if let Some(&top) = m.initial_pool[p].last() {
                // The task popped first must be a leaf of a subtree on p.
                assert!(tree.nodes[top].children.is_empty());
                assert_eq!(m.owner[top], p);
            }
        }
    }

    #[test]
    fn memory_aware_subtrees_split_fat_peaks() {
        let tree = sample_tree(28);
        let plain = compute_mapping(&tree, &cfg(4));
        let aware =
            compute_mapping(&tree, &SolverConfig { subtree_peak_factor: Some(0.5), ..cfg(4) });
        // The memory-aware definition can only refine (more, smaller
        // subtrees) and must lower the largest subtree peak.
        assert!(aware.subtree_roots.len() >= plain.subtree_roots.len());
        let max_peak = |m: &StaticMapping| m.subtree_peak.iter().copied().max().unwrap_or(0);
        assert!(
            max_peak(&aware) <= max_peak(&plain),
            "{} !<= {}",
            max_peak(&aware),
            max_peak(&plain)
        );
        // Still a valid mapping: every leaf covered.
        for l in tree.leaves() {
            assert!(aware.subtree_of[l].is_some());
        }
    }

    #[test]
    fn pools_partition_the_leaves() {
        let tree = sample_tree(20);
        let m = compute_mapping(&tree, &cfg(4));
        let mut all: Vec<usize> = m.initial_pool.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut leaves = tree.leaves();
        leaves.sort_unstable();
        assert_eq!(all, leaves);
    }
}
