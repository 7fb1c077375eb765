//! The front pipeline both numeric drivers run: assemble → factor →
//! extract, in one buffer, reading the children's contribution blocks
//! off the top of a [`CbStack`] and leaving the front's own there.
//!
//! A symmetric front lives in the **lower triangle** of its buffer from
//! assembly to extraction (the strict upper triangle stays zero), and its
//! contribution block is stacked packed: column `j` from its diagonal
//! down, `cf(cf+1)/2` entries — what `AssemblyTree::cb_entries` counts.

use crate::arena::CbStack;
use crate::dense::{add_assign_slice, factor_front_ldlt_mt, factor_front_lu_mt, DenseMat};
use crate::numeric::FactorError;
use mf_sparse::{CscMatrix, Symmetry};
use mf_symbolic::frontstruct::{front_structures, FrontStructures};
use mf_symbolic::{AssemblyTree, SymbolicAnalysis};

/// Factors of one front (its variable list is the front structure's).
#[derive(Debug, Clone)]
pub(crate) struct FrontFactor {
    pub(crate) npiv: usize,
    /// Local row permutation of the fully-summed rows; empty when it is
    /// the identity (always, for LDLᵀ).
    pub(crate) row_perm: Vec<usize>,
    /// The `f x p` column-major factor panel, read in place by the solve:
    /// `L11` (unit lower, implied diagonal) with `U11` on and above the
    /// diagonal for LU, `L11` with `D` on the diagonal for LDLᵀ (zero
    /// above it), over the `(f-p) x p` block `L21`.
    pub(crate) panel: DenseMat,
    /// `p x (f-p)` block `U12` (LU only; empty for LDLᵀ).
    pub(crate) u12: DenseMat,
}

/// What every front of one factorization reads: the tree, the one
/// permuted copy of the matrix, and the front structures built from the
/// two (moved into the returned `Factorization` at the end).
pub(crate) struct FrontEnv<'a> {
    pub(crate) tree: &'a AssemblyTree,
    pub(crate) fs: FrontStructures,
    /// `P A Pᵀ`.
    pa: CscMatrix,
    /// Its transpose, for the row parts of unsymmetric fronts.
    pat: Option<CscMatrix>,
}

impl<'a> FrontEnv<'a> {
    pub(crate) fn new(a: &CscMatrix, s: &'a SymbolicAnalysis) -> Self {
        let pa = a.permute_symmetric(&s.perm);
        let pat = (s.tree.sym == Symmetry::General).then(|| pa.transpose());
        let fs = front_structures(&s.tree, &pa, pat.as_ref());
        FrontEnv { tree: &s.tree, fs, pa, pat }
    }

    /// The front structures, for the `Factorization`; the permuted matrix
    /// is freed here.
    pub(crate) fn into_structures(self) -> FrontStructures {
        self.fs
    }
}

/// Scratch of one worker, reused from front to front.
pub(crate) struct FrontWorkspace {
    /// The front: grown to the largest `f²` seen, re-zeroed per front.
    w: DenseMat,
    /// Global variable → local index, valid for the current front's
    /// variables only (stale elsewhere, and never read there).
    loc: Vec<usize>,
    /// Parent rows of the child CB being extend-added.
    map: Vec<usize>,
    row_perm: Vec<usize>,
}

impl FrontWorkspace {
    /// Workspace for a matrix of order `n`.
    pub(crate) fn new(n: usize) -> Self {
        FrontWorkspace {
            w: DenseMat::zeros(0, 0),
            loc: vec![0; n],
            map: Vec::new(),
            row_perm: Vec::new(),
        }
    }
}

/// Processes front `v`: assembles the original entries and the
/// children's contribution blocks (popped off `stack`, last child first
/// — the order that fixes every entry's summation), factors the pivot
/// block on `threads` threads, and extracts the factor panel; the front's
/// own contribution block is pushed on `stack`.
pub(crate) fn factor_front(
    env: &FrontEnv<'_>,
    ws: &mut FrontWorkspace,
    stack: &mut CbStack,
    v: usize,
    threads: usize,
) -> Result<FrontFactor, FactorError> {
    let (tree, sym) = (env.tree, env.tree.sym);
    let nd = &tree.nodes[v];
    let vars = &env.fs.rows[v];
    let (f, p) = (vars.len(), nd.npiv);
    let FrontWorkspace { w, loc, map, row_perm } = ws;
    for (l, &gv) in vars.iter().enumerate() {
        loc[gv] = l;
    }
    let at = |gv: usize| {
        debug_assert_eq!(vars.get(loc[gv]), Some(&gv), "variable {gv} is not in front {v}");
        loc[gv]
    };
    w.reset(f, f);

    // ---- Assemble original-matrix entries. ----
    // A chain head assembles the entries of the *whole* original front
    // (its tail links' pivot columns included); tail links assemble
    // nothing — they continue on the Schur complement.
    let span = if tree.is_chain_tail(v) { 0 } else { tree.chain_npiv(v) };
    for c in nd.first_col..nd.first_col + span {
        let lc = at(c);
        let col = env.pa.rows_in_col(c).iter().zip(env.pa.vals_in_col(c));
        match &env.pat {
            // Lower triangle only: rows at or below the diagonal.
            None => col.filter(|(&i, _)| i >= c).for_each(|(&i, &val)| w.add(at(i), lc, val)),
            Some(pat) => {
                // Column part: rows at or below this front's pivots.
                col.filter(|(&i, _)| i >= nd.first_col)
                    .for_each(|(&i, &val)| w.add(at(i), lc, val));
                // Row part: columns strictly in the CB variable range.
                for (&j, &val) in pat.rows_in_col(c).iter().zip(pat.vals_in_col(c)) {
                    if j >= nd.first_col + span {
                        w.add(lc, at(j), val);
                    }
                }
            }
        }
    }

    // ---- Extend-add children (LIFO pops: reverse child order). ----
    for &ch in nd.children.iter().rev() {
        let cb_vars = env.fs.cb_rows(tree, ch);
        let cf = cb_vars.len();
        if cf == 0 {
            continue;
        }
        let h = stack.top().expect("child CB missing");
        let mut data = stack.get(h);
        debug_assert_eq!(data.len() as u64, tree.cb_entries(ch));
        map.clear();
        map.extend(cb_vars.iter().map(|&gv| at(gv)));
        // Both variable lists ascend, so the CB lands on consecutive
        // parent rows (the common case for the last child absorbed into
        // an amalgamated parent) iff its ends are `cf - 1` apart; each CB
        // column is then one contiguous slice-add, otherwise an indexed
        // scatter. The choice is structural, so it cannot vary across
        // runs of the same tree. Ascending maps also keep a packed lower
        // CB inside the parent's lower triangle.
        let contiguous = map[cf - 1] - map[0] == cf - 1;
        for (cj, &lj) in map.iter().enumerate() {
            // First CB row stored in column `cj`.
            let first = if sym == Symmetry::Symmetric { cj } else { 0 };
            let (col, rest) = data.split_at(cf - first);
            data = rest;
            let dst = w.col_mut(lj);
            if contiguous {
                add_assign_slice(&mut dst[map[first]..map[first] + col.len()], col);
            } else {
                for (&x, &li) in col.iter().zip(&map[first..]) {
                    if x != 0.0 {
                        dst[li] += x;
                    }
                }
            }
        }
        stack.pop(h);
    }

    // ---- Partial factorization. ----
    match sym {
        Symmetry::General => factor_front_lu_mt(w, p, row_perm, threads),
        Symmetry::Symmetric => factor_front_ldlt_mt(w, p, threads),
    }
    .map_err(|source| FactorError::Kernel { node: v, source })?;

    // ---- Extract the factor panel; stack the contribution block. ----
    let (u12, row_perm) = match sym {
        Symmetry::General => {
            let moved = row_perm[..p].iter().enumerate().any(|(k, &r)| r != k);
            (w.block(0..p, p..f), if moved { row_perm[..p].to_vec() } else { Vec::new() })
        }
        Symmetry::Symmetric => (DenseMat::zeros(0, 0), Vec::new()),
    };
    if f > p {
        let from = |j: usize| if sym == Symmetry::Symmetric { j } else { p };
        stack.push(tree.cb_entries(v) as usize, (p..f).map(|j| &w.col(j)[from(j)..]));
    }
    Ok(FrontFactor { npiv: p, row_perm, panel: w.block(0..f, 0..p), u12 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Factorization;
    use mf_sparse::gen::grid::{grid2d, grid3d, Stencil};
    use mf_sparse::Permutation;
    use mf_symbolic::AmalgamationOptions;

    #[test]
    fn the_real_stack_peaks_where_the_model_says() {
        // Packed lower CBs make the stack area hold exactly the entries
        // `traversal_peak` counts — on symmetric trees it used to hold
        // twice that — and the unsymmetric stack keeps matching.
        for a in
            [grid2d(14, 13, Stencil::Box), grid3d(6, 5, 5, Stencil::Star, Symmetry::General, 7)]
        {
            let n = a.nrows();
            let reversed = Permutation::from_new_order((0..n).rev().collect()).unwrap();
            let s = mf_symbolic::analyze(&a, &reversed, &AmalgamationOptions::none());
            let env = FrontEnv::new(&a, &s);
            let (mut ws, mut stack) = (FrontWorkspace::new(n), CbStack::new());
            for v in s.tree.topo_order() {
                factor_front(&env, &mut ws, &mut stack, v, 1).unwrap();
            }
            assert_eq!(stack.depth(), 0);
            let modelled = Factorization::from_symbolic(&a, &s).unwrap().stats.stack_peak;
            assert!(modelled > 0, "the instance must stack something");
            assert_eq!(stack.peak(), modelled, "{:?}", s.tree.sym);
        }
    }
}
