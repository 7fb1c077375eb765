//! The front pipeline both numeric drivers run: assemble → factor →
//! keep, at the free end of a factor area, reading the children's
//! contribution blocks off the top of a [`CbStack`] and leaving the
//! front's own there.
//!
//! The factor area is the paper's factors area with the current front
//! at its end: a front is assembled right behind the factors stored
//! before it and factored in place, so its leading `f × p` panel already
//! lies where it is kept. The contribution block goes to the stack; LU
//! then moves `U12` down right behind the panel, LDLᵀ packs the panel's
//! columns from their diagonal down, and the area advances by the words
//! stored ([`stored_words`]): the front's factor entries, no more.
//!
//! A symmetric front lives in the **lower triangle** of its `f²` words
//! from assembly to factorization (the strict upper triangle stays zero),
//! and its contribution block is stacked packed: column `j` from its
//! diagonal down, `cf(cf+1)/2` entries — what `AssemblyTree::cb_entries`
//! counts.
//!
//! Fronts are assembled from the caller's `A` read through the ordering
//! (new column `c` is column `perm.old_of(c)` of `A`, its rows mapped by
//! `perm.new_of`); no permuted copy of the matrix is made. Each original
//! entry lands once on a zeroed word, so the order it is read in cannot
//! change a bit.

use crate::arena::CbStack;
use crate::dense::{add_assign_slice, factor_front_ldlt_mt, factor_front_lu_mt, FrontMut};
use crate::numeric::FactorError;
use mf_sparse::{CscMatrix, Permutation, Symmetry};
use mf_symbolic::frontstruct::{front_structures, FrontStructures};
use mf_symbolic::{AssemblyTree, SymbolicAnalysis};

/// Factors of one front (its variable list is the front structure's).
#[derive(Debug, Clone, Default)]
pub(crate) struct FrontFactor {
    pub(crate) npiv: usize,
    /// Where the front's words start in the factor area: for LU the
    /// `f x p` column-major panel — `L11` (unit lower, implied diagonal)
    /// with `U11` on and above the diagonal, over the `(f-p) x p` block
    /// `L21` — then the `p x (f-p)` column-major `U12`; for LDLᵀ the same
    /// panel with `D` on the diagonal, packed: column `k` holds rows
    /// `k..f` only and starts at [`packed_col_start`]`(f, k)`.
    pub(crate) offset: usize,
    /// Local row permutation of the fully-summed rows; empty when it is
    /// the identity (always, for LDLᵀ).
    pub(crate) row_perm: Vec<usize>,
}

/// Words front `v` keeps in the factor area, `tree.factor_entries(v)`.
pub(crate) fn stored_words(tree: &AssemblyTree, v: usize) -> usize {
    let (panel, u12) = panel_and_u12_words(tree.sym, tree.nodes[v].nfront, tree.nodes[v].npiv);
    panel + u12
}

/// Words of the panel and of `U12` of a front of order `f` with `p`
/// pivots: `f·p` and `p(f−p)` for LU, the packed `f·p − p(p−1)/2` and
/// none for LDLᵀ.
pub(crate) fn panel_and_u12_words(sym: Symmetry, f: usize, p: usize) -> (usize, usize) {
    match sym {
        Symmetry::General => (f * p, p * (f - p)),
        Symmetry::Symmetric => (packed_col_start(f, p), 0),
    }
}

/// Where column `k` of a packed LDLᵀ panel with `f` rows starts: every
/// column before it holds its rows from the diagonal down, `f − j` words
/// for column `j`, so this is `k·f − k(k−1)/2`.
fn packed_col_start(f: usize, k: usize) -> usize {
    k * (2 * f + 1 - k) / 2
}

/// Rows `k..f` of column `k` of a kept panel with `f` rows: the pivot,
/// then the column of `L` below it. An LU panel is `f x p` column-major;
/// an LDLᵀ panel is packed, each column from its diagonal down.
pub(crate) fn lower_col(sym: Symmetry, f: usize, panel: &[f64], k: usize) -> &[f64] {
    let start = match sym {
        Symmetry::General => k * f + k,
        Symmetry::Symmetric => packed_col_start(f, k),
    };
    &panel[start..start + f - k]
}

/// The factor area of a traversal: the words all fronts store, each
/// front right behind the one before it, and the capacity the sequential
/// driver reserves, the most over the traversal of the words stored
/// before a front plus its `f²`.
pub(crate) struct AreaLayout {
    pub(crate) len: usize,
    pub(crate) capacity: usize,
}

impl AreaLayout {
    pub(crate) fn new(tree: &AssemblyTree, order: &[usize]) -> Self {
        let (mut len, mut capacity) = (0, 0);
        for &v in order {
            let f = tree.nodes[v].nfront;
            capacity = usize::max(capacity, len + f * f);
            len += stored_words(tree, v);
        }
        AreaLayout { len, capacity }
    }
}

/// An empty factor area with room for `words`, allocated once. On Linux
/// the 2 MiB-aligned part of it is advised for transparent huge pages:
/// the area is first touched front by front, and at 4 KiB per fault a
/// fresh area of tens of MB costs more page faults than the fronts of a
/// thin tree cost arithmetic.
pub(crate) fn new_area(words: usize) -> Vec<f64> {
    let area = Vec::with_capacity(words);
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
        }
        const MADV_HUGEPAGE: i32 = 14;
        const HUGE_PAGE: usize = 2 << 20;
        let start = area.as_ptr() as usize;
        let (lo, hi) = (
            start.next_multiple_of(HUGE_PAGE),
            (start + size_of::<f64>() * words) / HUGE_PAGE * HUGE_PAGE,
        );
        if lo < hi {
            // SAFETY: `lo..hi` lies inside the area's own allocation, and
            // MADV_HUGEPAGE only changes how the kernel backs those pages,
            // never their contents; a refusal (the result) is harmless.
            unsafe { madvise(lo as *mut std::ffi::c_void, hi - lo, MADV_HUGEPAGE) };
        }
    }
    area
}

/// What every front of one factorization reads: the tree, the matrix
/// and the ordering it is read through, and the front structures built
/// from them (moved into the returned `Factorization` at the end).
pub(crate) struct FrontEnv<'a> {
    pub(crate) tree: &'a AssemblyTree,
    pub(crate) fs: FrontStructures,
    /// `A` as the caller holds it: new column `c` is its column
    /// `perm.old_of(c)`, and its row `i` is new row `perm.new_of(i)`.
    a: &'a CscMatrix,
    perm: &'a Permutation,
    /// `Aᵀ`, for the row parts of unsymmetric fronts; the one matrix copy
    /// a factorization makes.
    at: Option<CscMatrix>,
}

impl<'a> FrontEnv<'a> {
    pub(crate) fn new(a: &'a CscMatrix, s: &'a SymbolicAnalysis) -> Self {
        let at = (s.tree.sym == Symmetry::General).then(|| a.transpose());
        let fs = front_structures(&s.tree, a, at.as_ref(), &s.perm);
        FrontEnv { tree: &s.tree, fs, a, perm: &s.perm, at }
    }

    /// The front structures, for the `Factorization`; `Aᵀ` is freed
    /// here.
    pub(crate) fn into_structures(self) -> FrontStructures {
        self.fs
    }
}

/// Index scratch of one worker, reused from front to front.
pub(crate) struct FrontWorkspace {
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
        FrontWorkspace { loc: vec![0; n], map: Vec::new(), row_perm: Vec::new() }
    }
}

/// Processes front `v` at the free end of `area`: assembles the original
/// entries and the children's contribution blocks (popped off `stack`,
/// last child first — the order that fixes every entry's summation),
/// factors the pivot block in place on `threads` threads, pushes the
/// front's own contribution block on `stack`, and leaves `area` longer by
/// the front's [`stored_words`].
pub(crate) fn factor_front(
    env: &FrontEnv<'_>,
    ws: &mut FrontWorkspace,
    stack: &mut CbStack,
    v: usize,
    threads: usize,
    area: &mut Vec<f64>,
) -> Result<FrontFactor, FactorError> {
    let (tree, sym) = (env.tree, env.tree.sym);
    let nd = &tree.nodes[v];
    let vars = &env.fs.rows[v];
    let (f, p) = (vars.len(), nd.npiv);
    debug_assert_eq!(f, nd.nfront);
    let FrontWorkspace { loc, map, row_perm } = ws;
    for (l, &gv) in vars.iter().enumerate() {
        loc[gv] = l;
    }
    let local = |gv: usize| {
        debug_assert_eq!(vars.get(loc[gv]), Some(&gv), "variable {gv} is not in front {v}");
        loc[gv]
    };
    let offset = area.len();
    area.resize(offset + f * f, 0.0);
    let mut w = FrontMut::new(f, &mut area[offset..]);

    // ---- Assemble original-matrix entries. ----
    // A chain head assembles the entries of the *whole* original front
    // (its tail links' pivot columns included); tail links assemble
    // nothing — they continue on the Schur complement.
    let span = if tree.is_chain_tail(v) { 0 } else { tree.chain_npiv(v) };
    let perm = env.perm;
    for c in nd.first_col..nd.first_col + span {
        let (lc, oc) = (local(c), perm.old_of(c));
        let col = env.a.rows_in_col(oc).iter().map(|&i| perm.new_of(i)).zip(env.a.vals_in_col(oc));
        match &env.at {
            // Lower triangle only: rows at or below the diagonal.
            None => col.filter(|&(i, _)| i >= c).for_each(|(i, &val)| w.add(local(i), lc, val)),
            Some(at) => {
                // Column part: rows at or below this front's pivots.
                col.filter(|&(i, _)| i >= nd.first_col)
                    .for_each(|(i, &val)| w.add(local(i), lc, val));
                // Row part: columns strictly in the CB variable range.
                for (&oj, &val) in at.rows_in_col(oc).iter().zip(at.vals_in_col(oc)) {
                    let j = perm.new_of(oj);
                    if j >= nd.first_col + span {
                        w.add(lc, local(j), val);
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
        map.extend(cb_vars.iter().map(|&gv| local(gv)));
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

    // ---- Partial factorization, in place. ----
    match sym {
        Symmetry::General => factor_front_lu_mt(&mut w, p, row_perm, threads),
        Symmetry::Symmetric => factor_front_ldlt_mt(&mut w, p, threads),
    }
    .map_err(|source| FactorError::Kernel { node: v, source })?;

    // ---- Stack the contribution block; keep the factors. ----
    if f > p {
        let from = |j: usize| if sym == Symmetry::Symmetric { j } else { p };
        stack.push(tree.cb_entries(v) as usize, (p..f).map(|j| &w.col(j)[from(j)..]));
    }
    // The panel is the front's first `f x p` words already. LU moves
    // `U12`, rows `..p` of the CB columns, down right behind it: column
    // `j` lands at `f·p + j·p`, never past its source at `(p + j)·f`.
    // LDLᵀ packs the panel: column `k`, rows `k..f`, lands at
    // `packed_col_start(f, k)`, never past its source at `k·f + k`.
    let row_perm = match sym {
        Symmetry::General => {
            for j in 0..f - p {
                let src = offset + (p + j) * f;
                area.copy_within(src..src + p, offset + f * p + j * p);
            }
            let moved = row_perm[..p].iter().enumerate().any(|(k, &r)| r != k);
            if moved {
                row_perm[..p].to_vec()
            } else {
                Vec::new()
            }
        }
        Symmetry::Symmetric => {
            // The digest hashes the dropped words as `+0.0`.
            debug_assert!(
                (0..p).all(|k| area[offset + k * f..][..k].iter().all(|x| x.to_bits() == 0)),
                "front {v}: the strict upper triangle of the pivot block is not +0.0"
            );
            for k in 1..p {
                let src = offset + k * f + k;
                area.copy_within(src..src + f - k, offset + packed_col_start(f, k));
            }
            Vec::new()
        }
    };
    area.truncate(offset + stored_words(tree, v));
    Ok(FrontFactor { npiv: p, offset, row_perm })
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
            let (mut ws, mut stack, mut area) =
                (FrontWorkspace::new(n), CbStack::new(), Vec::new());
            for v in s.tree.topo_order() {
                factor_front(&env, &mut ws, &mut stack, v, 1, &mut area).unwrap();
            }
            assert_eq!(stack.depth(), 0);
            let modelled = Factorization::from_symbolic(&a, &s).unwrap().stats.stack_peak;
            assert!(modelled > 0, "the instance must stack something");
            assert_eq!(stack.peak(), modelled, "{:?}", s.tree.sym);
        }
    }
}
