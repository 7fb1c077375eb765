//! Rayon tree-parallel numeric factorization.
//!
//! The multifrontal method's tree parallelism — the paper's type-1
//! parallelism across MPI ranks — maps directly onto fork-join threading:
//! independent subtrees factorize concurrently, each front sequentially.
//! This module provides that shared-memory variant. It trades the strict
//! LIFO stack discipline (meaningless under concurrency) for per-node CB
//! buffers; memory is tracked with atomic high-water counters instead
//! ([`factorize_parallel`]'s `NumericStats` reports the honest peak of
//! live front + CB entries across all workers).

use crate::dense::{add_assign_slice, factor_front_ldlt_mt, factor_front_lu_mt, DenseMat};
use crate::numeric::{FactorError, Factorization, FrontFactor, NumericOptions, NumericStats};
use mf_sparse::{CscMatrix, Symmetry};
use mf_symbolic::frontstruct::{front_structures, FrontStructures};
use mf_symbolic::SymbolicAnalysis;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Atomic high-water accounting of live numeric memory (entries, i.e.
/// `f64` words), shared by all workers. `live` counts every currently
/// allocated front plus every contribution block not yet absorbed by
/// its parent; `stack` counts the CB portion alone. Peaks are tracked
/// with `fetch_max`, so the reported numbers are an honest upper
/// envelope of what the concurrent run actually held — the parallel
/// analogue of the sequential driver's `active_peak`/`stack_peak`
/// (which it upper-bounds: the parallel driver copies each CB out of
/// its front instead of relabeling it in place).
#[derive(Default)]
struct ParAccount {
    live: AtomicU64,
    stack: AtomicU64,
    live_peak: AtomicU64,
    stack_peak: AtomicU64,
}

impl ParAccount {
    fn alloc_front(&self, entries: u64) {
        let v = self.live.fetch_add(entries, Ordering::Relaxed) + entries;
        self.live_peak.fetch_max(v, Ordering::Relaxed);
    }

    fn free_front(&self, entries: u64) {
        self.live.fetch_sub(entries, Ordering::Relaxed);
    }

    fn push_cb(&self, entries: u64) {
        let s = self.stack.fetch_add(entries, Ordering::Relaxed) + entries;
        self.stack_peak.fetch_max(s, Ordering::Relaxed);
        self.alloc_front(entries);
    }

    fn pop_cb(&self, entries: u64) {
        self.stack.fetch_sub(entries, Ordering::Relaxed);
        self.free_front(entries);
    }
}

struct Ctx<'a> {
    tree: &'a mf_symbolic::AssemblyTree,
    fs: &'a FrontStructures,
    pa: &'a CscMatrix,
    pat: Option<&'a CscMatrix>,
    sym: Symmetry,
    threads: usize,
    /// `Some(pool)` makes the within-front thread budget a scheduling
    /// decision (see [`NumericOptions::malleable_pool`]); `threads` then
    /// acts as the per-front cap.
    pool: Option<usize>,
    /// Fronts currently inside their factorization kernel (malleable
    /// grant denominator).
    in_kernel: AtomicUsize,
    acct: ParAccount,
    slots: Vec<Mutex<Option<FrontFactor>>>,
}

impl Ctx<'_> {
    /// Thread budget granted to a front entering its kernel. Purely a
    /// performance decision: the kernels produce bit-identical factors
    /// for any budget, so a racy `busy` count cannot perturb results.
    fn grant_threads(&self) -> usize {
        match self.pool {
            None => self.threads,
            Some(pool) => {
                let busy = self.in_kernel.fetch_add(1, Ordering::Relaxed) + 1;
                (pool / busy).clamp(1, self.threads.max(1))
            }
        }
    }

    fn release_threads(&self) {
        if self.pool.is_some() {
            self.in_kernel.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Factorizes `a` over the symbolic analysis `s`, exploiting tree
/// parallelism with rayon. Numerically equivalent to the sequential
/// driver (same kernels, same assembly), up to floating-point summation
/// order in the extend-add, which is fixed per child and thus identical.
pub fn factorize_parallel(
    a: &CscMatrix,
    s: &SymbolicAnalysis,
) -> Result<Factorization, FactorError> {
    factorize_parallel_with(a, s, &NumericOptions::default())
}

/// [`factorize_parallel`] with explicit driver options. The
/// `cores_per_front` budget is handed to each front's trailing-update
/// kernel on top of the tree parallelism; factor bytes are independent
/// of it (and of the rayon pool width — see the determinism suite).
pub fn factorize_parallel_with(
    a: &CscMatrix,
    s: &SymbolicAnalysis,
    opts: &NumericOptions,
) -> Result<Factorization, FactorError> {
    if a.nrows() != a.ncols() {
        return Err(FactorError::NotSquare);
    }
    let fs = front_structures(s);
    let pa = a.permute_symmetric(&s.perm);
    let pat = (s.tree.sym == Symmetry::General).then(|| pa.transpose());
    let ctx = Ctx {
        tree: &s.tree,
        fs: &fs,
        pa: &pa,
        pat: pat.as_ref(),
        sym: s.tree.sym,
        threads: opts.cores_per_front.max(1),
        pool: opts.malleable_pool,
        in_kernel: AtomicUsize::new(0),
        acct: ParAccount::default(),
        slots: (0..s.tree.len()).map(|_| Mutex::new(None)).collect(),
    };
    let roots = s.tree.roots();
    let results: Result<Vec<_>, FactorError> =
        roots.par_iter().map(|&r| process(&ctx, r)).collect();
    results?;
    let fronts: Vec<Option<FrontFactor>> = ctx.slots.into_iter().map(|m| m.into_inner()).collect();
    Ok(Factorization {
        sym: s.tree.sym,
        n: s.tree.n,
        perm: s.perm.clone(),
        fronts,
        topo: s.tree.topo_order(),
        stats: NumericStats {
            stack_peak: ctx.acct.stack_peak.load(Ordering::Relaxed),
            active_peak: ctx.acct.live_peak.load(Ordering::Relaxed),
            factor_entries: s.tree.total_factor_entries(),
            fronts: s.tree.len(),
        },
    })
}

/// Processes the subtree rooted at `v`; returns the contribution block
/// (column-major, over the CB variables of `v`).
fn process(ctx: &Ctx<'_>, v: usize) -> Result<Vec<f64>, FactorError> {
    let nd = &ctx.tree.nodes[v];
    // Children first — in parallel when there are several.
    let child_cbs: Vec<Vec<f64>> = if nd.children.len() > 1 {
        nd.children.par_iter().map(|&c| process(ctx, c)).collect::<Result<Vec<_>, _>>()?
    } else {
        nd.children.iter().map(|&c| process(ctx, c)).collect::<Result<Vec<_>, _>>()?
    };

    let vars = &ctx.fs.rows[v];
    let f = vars.len();
    let p = nd.npiv;
    // Variable lists are sorted ascending, so local indices come from
    // binary search (no O(n) scratch per task).
    let loc = |gv: usize| vars.binary_search(&gv).expect("variable in front");

    ctx.acct.alloc_front((f * f) as u64);
    let mut w = DenseMat::zeros(f, f);
    // Chain heads assemble the whole original front; tail links nothing.
    let span = if ctx.tree.is_chain_tail(v) { 0 } else { ctx.tree.chain_npiv(v) };
    match ctx.sym {
        Symmetry::Symmetric => {
            for c in nd.first_col..nd.first_col + span {
                let lc = loc(c);
                for (&i, &val) in ctx.pa.rows_in_col(c).iter().zip(ctx.pa.vals_in_col(c)) {
                    if i < c {
                        continue;
                    }
                    let li = loc(i);
                    w.add(li, lc, val);
                    if li != lc {
                        w.add(lc, li, val);
                    }
                }
            }
        }
        Symmetry::General => {
            let pat = ctx.pat.unwrap();
            for c in nd.first_col..nd.first_col + span {
                let lc = loc(c);
                for (&i, &val) in ctx.pa.rows_in_col(c).iter().zip(ctx.pa.vals_in_col(c)) {
                    if i >= nd.first_col {
                        w.add(loc(i), lc, val);
                    }
                }
                for (&j, &val) in pat.rows_in_col(c).iter().zip(pat.vals_in_col(c)) {
                    if j >= nd.first_col + span {
                        w.add(lc, loc(j), val);
                    }
                }
            }
        }
    }

    // Extend-add the children. Local indices are precomputed per child;
    // when they are consecutive, each CB column is one contiguous
    // slice-add (same structural fast path as the sequential driver).
    for (&ch, cb) in nd.children.iter().zip(&child_cbs) {
        let cb_vars = ctx.fs.cb_rows(ctx.tree, ch);
        let cf = cb_vars.len();
        debug_assert_eq!(cb.len(), cf * cf);
        let locs: Vec<usize> = cb_vars.iter().map(|&gv| loc(gv)).collect();
        let contiguous = cf > 0 && locs.iter().enumerate().all(|(ci, &l)| l == locs[0] + ci);
        if contiguous {
            let l0 = locs[0];
            for (cj, &lj) in locs.iter().enumerate() {
                add_assign_slice(&mut w.col_mut(lj)[l0..l0 + cf], &cb[cj * cf..(cj + 1) * cf]);
            }
        } else {
            for (cj, &lj) in locs.iter().enumerate() {
                let col = &cb[cj * cf..(cj + 1) * cf];
                for (ci, &li) in locs.iter().enumerate() {
                    let x = col[ci];
                    if x != 0.0 {
                        w.add(li, lj, x);
                    }
                }
            }
        }
        ctx.acct.pop_cb((cf * cf) as u64);
    }
    drop(child_cbs);

    let mut row_perm = Vec::new();
    let granted = ctx.grant_threads();
    let factored = match ctx.sym {
        Symmetry::General => factor_front_lu_mt(&mut w, p, &mut row_perm, granted),
        Symmetry::Symmetric => {
            factor_front_ldlt_mt(&mut w, p, granted).inspect(|_| row_perm = (0..f).collect())
        }
    };
    ctx.release_threads();
    factored.map_err(|source| FactorError::Kernel { node: v, source })?;

    let mut block11 = DenseMat::zeros(p, p);
    let mut l21 = DenseMat::zeros(f - p, p);
    for k in 0..p {
        for i in 0..p {
            *block11.get_mut(i, k) = w.get(i, k);
        }
        for i in 0..f - p {
            *l21.get_mut(i, k) = w.get(p + i, k);
        }
    }
    let (u12, d) = match ctx.sym {
        Symmetry::General => {
            let mut u12 = DenseMat::zeros(p, f - p);
            for j in 0..f - p {
                for k in 0..p {
                    *u12.get_mut(k, j) = w.get(k, p + j);
                }
            }
            (u12, Vec::new())
        }
        Symmetry::Symmetric => {
            let d: Vec<f64> = (0..p).map(|k| w.get(k, k)).collect();
            (DenseMat::zeros(0, 0), d)
        }
    };

    let mut cb = Vec::new();
    if f > p {
        let cf = f - p;
        ctx.acct.push_cb((cf * cf) as u64);
        cb = vec![0.0; cf * cf];
        for j in 0..cf {
            for i in 0..cf {
                cb[j * cf + i] = w.get(p + i, p + j);
            }
        }
    }
    drop(w);
    ctx.acct.free_front((f * f) as u64);

    *ctx.slots[v].lock() = Some(FrontFactor {
        vars: vars.clone(),
        npiv: p,
        row_perm: row_perm[..p].to_vec(),
        block11,
        l21,
        u12,
        d,
    });
    Ok(cb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::gen::grid::{grid2d, grid3d, Stencil};
    use mf_sparse::Permutation;
    use mf_symbolic::AmalgamationOptions;

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 48271) % 997) as f64 / 50.0 - 10.0).collect()
    }

    #[test]
    fn parallel_matches_sequential_symmetric() {
        let a = grid2d(12, 11, Stencil::Box);
        let n = a.nrows();
        let s =
            mf_symbolic::analyze(&a, &Permutation::identity(n), &AmalgamationOptions::default());
        let fseq = Factorization::from_symbolic(&a, &s).unwrap();
        let fpar = factorize_parallel(&a, &s).unwrap();
        let b = rhs(n);
        let xs = fseq.solve(&b);
        let xp = fpar.solve(&b);
        for i in 0..n {
            assert!((xs[i] - xp[i]).abs() < 1e-10, "x[{i}]");
        }
    }

    #[test]
    fn parallel_matches_sequential_unsymmetric() {
        let a = grid3d(5, 4, 4, Stencil::Star, Symmetry::General, 9);
        let n = a.nrows();
        let s =
            mf_symbolic::analyze(&a, &Permutation::identity(n), &AmalgamationOptions::default());
        let fpar = factorize_parallel(&a, &s).unwrap();
        let b = rhs(n);
        let x = fpar.solve(&b);
        let r = Factorization::residual_inf(&a, &x, &b);
        assert!(r < 1e-8, "residual {r:e}");
    }

    #[test]
    fn parallel_reports_honest_memory_peaks() {
        // No amalgamation: the tree keeps many fronts, so CBs exist and
        // the stack accounting is exercised.
        let a = grid2d(12, 11, Stencil::Box);
        let n = a.nrows();
        let s = mf_symbolic::analyze(&a, &Permutation::identity(n), &AmalgamationOptions::none());
        let fseq = Factorization::from_symbolic(&a, &s).unwrap();
        let fpar = factorize_parallel(&a, &s).unwrap();
        assert!(fpar.stats.stack_peak > 0, "stack peak must be reported");
        assert!(fpar.stats.active_peak >= fpar.stats.stack_peak);
        // The parallel driver copies each CB out of its front (front and
        // CB coexist), so its honest peak can only exceed the sequential
        // in-place discipline's.
        assert!(
            fpar.stats.active_peak >= fseq.stats.active_peak,
            "parallel peak {} below sequential {}",
            fpar.stats.active_peak,
            fseq.stats.active_peak
        );
    }

    #[test]
    fn parallel_reports_singularity() {
        // Rank-1 dense 2x2: the second pivot vanishes whatever the order.
        let mut coo = mf_sparse::CooMatrix::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0).unwrap();
            }
        }
        let a = coo.to_csc();
        let s = mf_symbolic::analyze(&a, &Permutation::identity(2), &AmalgamationOptions::none());
        assert!(factorize_parallel(&a, &s).is_err());
    }
}
