//! Undirected adjacency graph of a sparse pattern.

use crate::csc::CscMatrix;

/// Adjacency structure of the (symmetrized) pattern of a square matrix,
/// with the diagonal removed.
///
/// This is the input format of all orderings: node `i` is adjacent to the
/// nodes whose rows appear in column `i` of `A + Aᵀ`.
#[derive(Debug, Clone)]
pub struct Graph {
    ptr: Vec<usize>,
    adj: Vec<usize>,
}

impl Graph {
    /// Builds the graph of `A + Aᵀ` minus the diagonal from the pattern
    /// alone: when that pattern is unsymmetric, the pattern of `Aᵀ` is
    /// counting-sorted and merged into `A`'s rows column by column.
    ///
    /// # Panics
    /// If `a` is not square.
    pub fn from_matrix(a: &CscMatrix) -> Self {
        let n = a.ncols();
        assert_eq!(a.nrows(), n, "a graph needs a square matrix");
        // Column `j` of `Aᵀ`'s pattern is `at_rows[at_ptr[j]..at_ptr[j + 1]]`.
        let (mut at_ptr, mut at_rows) = (vec![0; n + 1], Vec::new());
        if !a.is_structurally_symmetric() {
            for &i in a.row_idx() {
                at_ptr[i + 1] += 1;
            }
            for i in 0..n {
                at_ptr[i + 1] += at_ptr[i];
            }
            let mut next = at_ptr[..n].to_vec();
            at_rows = vec![0; a.nnz()];
            for j in 0..n {
                for &i in a.rows_in_col(j) {
                    at_rows[next[i]] = j;
                    next[i] += 1;
                }
            }
        }
        let mut ptr = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(a.nnz() + at_rows.len());
        ptr.push(0);
        for j in 0..n {
            let (x, y) = (a.rows_in_col(j), &at_rows[at_ptr[j]..at_ptr[j + 1]]);
            if y.is_empty() {
                adj.extend(x.iter().copied().filter(|&i| i != j));
            } else {
                // Sorted merge, a row held by both taken once.
                let (mut p, mut q) = (0, 0);
                while p < x.len() || q < y.len() {
                    let (ra, rb) = (x.get(p).copied(), y.get(q).copied());
                    let i = ra.unwrap_or(usize::MAX).min(rb.unwrap_or(usize::MAX));
                    p += (ra == Some(i)) as usize;
                    q += (rb == Some(i)) as usize;
                    if i != j {
                        adj.push(i);
                    }
                }
            }
            ptr.push(adj.len());
        }
        Graph { ptr, adj }
    }

    /// Builds directly from adjacency arrays (neighbors of node `i` are
    /// `adj[ptr[i]..ptr[i+1]]`, must exclude `i` itself).
    pub fn from_raw_parts(ptr: Vec<usize>, adj: Vec<usize>) -> Self {
        debug_assert_eq!(*ptr.first().unwrap_or(&0), 0);
        debug_assert_eq!(*ptr.last().unwrap_or(&0), adj.len());
        Graph { ptr, adj }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.ptr.len().saturating_sub(1)
    }

    /// Neighbors of node `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adj[self.ptr[i]..self.ptr[i + 1]]
    }

    /// Degree of node `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.ptr[i + 1] - self.ptr[i]
    }

    /// Connected components; returns the component id of each node and the
    /// number of components.
    pub fn components(&self) -> (Vec<usize>, usize) {
        let n = self.n();
        let mut comp = vec![usize::MAX; n];
        let mut ncomp = 0;
        let mut stack = Vec::new();
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            comp[s] = ncomp;
            stack.push(s);
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    if comp[w] == usize::MAX {
                        comp[w] = ncomp;
                        stack.push(w);
                    }
                }
            }
            ncomp += 1;
        }
        (comp, ncomp)
    }
}

/// Reusable breadth-first level structure over a subset of a graph's
/// nodes.
///
/// A dissection runs thousands of traversals over ever smaller node
/// sets. Each costs time proportional to what it visits, not to the
/// graph: a traversal begins by erasing the levels of the one before it,
/// walking that traversal's own visit list.
#[derive(Debug, Clone)]
pub struct LevelStructure {
    level: Vec<usize>,
    /// Nodes of the last traversal in visit order.
    visited: Vec<usize>,
    /// The deepest level is `visited[deepest..]`.
    deepest: usize,
    depth: usize,
}

impl LevelStructure {
    /// Workspace for graphs of up to `n` nodes.
    pub fn new(n: usize) -> Self {
        LevelStructure { level: vec![usize::MAX; n], visited: Vec::new(), deepest: 0, depth: 0 }
    }

    /// Breadth-first search from `root` over the nodes with `in_set(v)`;
    /// returns the depth (number of levels minus one).
    pub fn run(&mut self, g: &Graph, root: usize, in_set: &impl Fn(usize) -> bool) -> usize {
        for &v in &self.visited {
            self.level[v] = usize::MAX;
        }
        self.visited.clear();
        self.visited.push(root);
        self.level[root] = 0;
        (self.deepest, self.depth) = (0, 0);
        let mut head = 0;
        while head < self.visited.len() {
            let v = self.visited[head];
            head += 1;
            let next = self.level[v] + 1;
            for &w in g.neighbors(v) {
                if self.level[w] == usize::MAX && in_set(w) {
                    if next > self.depth {
                        (self.deepest, self.depth) = (self.visited.len(), next);
                    }
                    self.level[w] = next;
                    self.visited.push(w);
                }
            }
        }
        self.depth
    }

    /// Level of `v` in the last traversal, `usize::MAX` if it was not reached.
    #[inline]
    pub fn level(&self, v: usize) -> usize {
        self.level[v]
    }

    /// Depth of the last traversal.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Nodes of the deepest level of the last traversal, in visit order.
    pub fn deepest_level(&self) -> &[usize] {
        &self.visited[self.deepest..]
    }

    /// Finds a pseudo-peripheral node of the subset containing `seed`
    /// (repeated BFS from a minimum-degree node of the deepest level).
    /// On return the structure holds the traversal rooted at that node.
    pub fn pseudo_peripheral(
        &mut self,
        g: &Graph,
        seed: usize,
        in_set: &impl Fn(usize) -> bool,
    ) -> usize {
        let extremal = |ls: &Self| {
            *ls.deepest_level().iter().min_by_key(|&&v| g.degree(v)).expect("holds the root")
        };
        let mut depth = self.run(g, seed, in_set);
        let mut best = extremal(self);
        for _ in 0..8 {
            let deeper = self.run(g, best, in_set);
            if deeper <= depth {
                return best;
            }
            depth = deeper;
            best = extremal(self);
        }
        self.run(g, best, in_set);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn path_graph(n: usize) -> Graph {
        let mut coo = CooMatrix::new_symmetric(n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 1..n {
            coo.push(i, i - 1, -1.0).unwrap();
        }
        Graph::from_matrix(&coo.to_csc())
    }

    #[test]
    fn path_graph_degrees() {
        let g = path_graph(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.neighbors(2), &[1, 3]);
    }

    #[test]
    fn diagonal_is_removed() {
        let g = path_graph(3);
        for i in 0..3 {
            assert!(!g.neighbors(i).contains(&i));
        }
    }

    #[test]
    fn an_unsymmetric_pattern_gives_the_graph_of_a_plus_at() {
        // (1,0) and (0,2) are one-sided; (3,1) and (1,3) are both stored.
        let mut coo = CooMatrix::new(4, 4);
        for (i, j) in [(0, 0), (1, 0), (0, 2), (2, 2), (3, 1), (1, 3), (3, 3)] {
            coo.push(i, j, 1.0).unwrap();
        }
        let g = Graph::from_matrix(&coo.to_csc());
        let adj: Vec<&[usize]> = (0..4).map(|i| g.neighbors(i)).collect();
        assert_eq!(adj, [&[1, 2][..], &[0, 3], &[0], &[1]]);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut coo = CooMatrix::new_symmetric(4);
        for i in 0..4 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push(1, 0, 1.0).unwrap();
        coo.push(3, 2, 1.0).unwrap();
        let g = Graph::from_matrix(&coo.to_csc());
        let (comp, ncomp) = g.components();
        assert_eq!(ncomp, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn pseudo_peripheral_on_path_is_an_endpoint() {
        let g = path_graph(9);
        let mut ls = LevelStructure::new(9);
        let p = ls.pseudo_peripheral(&g, 4, &|_| true);
        assert!(p == 0 || p == 8, "got {p}");
        assert_eq!((ls.level(p), ls.depth()), (0, 8), "left rooted at the node returned");
    }

    #[test]
    fn bfs_levels_depth() {
        let g = path_graph(6);
        let mut ls = LevelStructure::new(6);
        assert_eq!(ls.run(&g, 0, &|_| true), 5);
        assert_eq!(ls.level(5), 5);
        assert_eq!(ls.deepest_level(), &[5]);
    }

    #[test]
    fn a_traversal_erases_the_one_before_and_stays_in_its_set() {
        let g = path_graph(7);
        let mut ls = LevelStructure::new(7);
        ls.run(&g, 0, &|_| true);
        assert_eq!(ls.run(&g, 4, &|v| v >= 3), 2);
        assert_eq!((ls.level(3), ls.level(6)), (1, 2));
        assert_eq!(ls.level(2), usize::MAX);
        assert_eq!(ls.deepest_level(), &[6]);
    }
}
