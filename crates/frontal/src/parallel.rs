//! Rayon tree-parallel numeric factorization.
//!
//! The multifrontal method's tree parallelism — the paper's type-1
//! parallelism across MPI ranks — maps directly onto fork-join threading:
//! independent subtrees factorize concurrently, each front sequentially.
//! This module provides that shared-memory variant. Every front runs the
//! sequential driver's pipeline (`crate::front`) in a buffer of its
//! worker, and its words are then copied to the front's own range of a
//! factor area laid out exactly as the sequential driver's, so both
//! drivers return one `Factorization` representation. The one global
//! LIFO stack (meaningless under concurrency) becomes one stack per
//! parallel branch, and memory is tracked with atomic high-water counters
//! instead ([`factorize_parallel`]'s `NumericStats` reports the honest
//! peak of live front + CB entries across all workers).

use crate::arena::CbStack;
use crate::front::{
    factor_front, new_area, stored_words, AreaLayout, FrontEnv, FrontFactor, FrontWorkspace,
};
use crate::numeric::{FactorError, Factorization, NumericOptions, NumericStats};
use mf_sparse::CscMatrix;
use mf_symbolic::SymbolicAnalysis;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic high-water accounting of live numeric memory (entries, i.e.
/// `f64` words), shared by all workers. `live` counts every currently
/// allocated front plus every contribution block not yet absorbed by
/// its parent; `stack` counts the CB portion alone. Peaks are tracked
/// with `fetch_max`, so the reported numbers are an honest upper
/// envelope of what the concurrent run actually held — the parallel
/// analogue of the sequential driver's `active_peak`/`stack_peak`
/// (which it upper-bounds: a front counts as its whole `f x f` buffer,
/// and its CB is stacked before the front is released).
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

struct Ctx<'a, 'f> {
    env: FrontEnv<'a>,
    threads: usize,
    acct: ParAccount,
    /// Idle workspaces, each with the buffer a front is factored in: a
    /// front takes one (or makes one) and puts it back, so at most one
    /// per worker thread ever exists.
    workspaces: Mutex<Vec<(FrontWorkspace, Vec<f64>)>>,
    /// Every front's range of the factor area and its `FrontFactor`:
    /// the offset set up front, the rest once the front's words are
    /// copied in (indexed by node).
    slots: Vec<Mutex<(&'f mut [f64], FrontFactor)>>,
}

/// Factorizes `a` over the symbolic analysis `s`, exploiting tree
/// parallelism with rayon. Bit-identical to the sequential driver: same
/// front pipeline, same kernels, and every parent absorbs its children
/// in the same (last-to-first) order.
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
    let tree = &s.tree;
    let topo = tree.topo_order();
    let len = AreaLayout::new(tree, &topo).len;
    let mut area = new_area(len);
    area.resize(len, 0.0);
    // Cut the area into the fronts' disjoint ranges, in postorder.
    let mut slots: Vec<_> = (0..tree.len()).map(|_| Mutex::default()).collect();
    let (mut rest, mut offset) = (&mut area[..], 0);
    for &v in &topo {
        let words = stored_words(tree, v);
        let (range, tail) = std::mem::take(&mut rest).split_at_mut(words);
        *slots[v].get_mut() = (range, FrontFactor { offset, ..FrontFactor::default() });
        (rest, offset) = (tail, offset + words);
    }
    let ctx = Ctx {
        env: FrontEnv::new(a, s),
        threads: opts.cores_per_front.max(1),
        acct: ParAccount::default(),
        workspaces: Mutex::new(Vec::new()),
        slots,
    };
    let roots = tree.roots();
    roots.par_iter().map(|&r| process(&ctx, r, &mut CbStack::new())).collect::<Result<(), _>>()?;
    let Ctx { env, acct, slots, .. } = ctx;
    let fronts = slots.into_iter().map(|slot| slot.into_inner().1).collect();
    Ok(Factorization {
        sym: tree.sym,
        n: tree.n,
        perm: s.perm.clone(),
        rows: env.into_structures(),
        fronts,
        stats: NumericStats {
            stack_peak: acct.stack_peak.load(Ordering::Relaxed),
            active_peak: acct.live_peak.load(Ordering::Relaxed),
            factor_entries: tree.total_factor_entries(),
            fronts: tree.len(),
        },
        area,
        topo,
    })
}

/// Processes the subtree rooted at `v`, leaving the contribution block
/// of `v` on top of `stack`.
fn process(ctx: &Ctx<'_, '_>, v: usize, stack: &mut CbStack) -> Result<(), FactorError> {
    let tree = ctx.env.tree;
    let nd = &tree.nodes[v];
    // Children first. An only child works on our stack; several run in
    // parallel, each on a stack of its own whose one remaining block (its
    // CB) then moves onto ours first to last — the layout the sequential
    // postorder leaves, so the front pipeline pops them in its order.
    match nd.children[..] {
        [] => {}
        [only] => process(ctx, only, stack)?,
        _ => {
            let branches = nd
                .children
                .par_iter()
                .map(|&c| {
                    let mut branch = CbStack::new();
                    process(ctx, c, &mut branch).map(|()| branch)
                })
                .collect::<Result<Vec<_>, _>>()?;
            for cb in branches.iter().filter_map(|b| b.top().map(|h| b.get(h))) {
                stack.push(cb.len(), [cb]);
            }
        }
    }

    let front = (nd.nfront * nd.nfront) as u64;
    ctx.acct.alloc_front(front);
    let (mut ws, mut buf) =
        (ctx.workspaces.lock().pop()).unwrap_or_else(|| (FrontWorkspace::new(tree.n), Vec::new()));
    buf.clear();
    let factored = factor_front(&ctx.env, &mut ws, stack, v, ctx.threads, &mut buf).map(|fr| {
        let (range, factor) = &mut *ctx.slots[v].lock();
        range.copy_from_slice(&buf);
        *factor = FrontFactor { offset: factor.offset, ..fr };
    });
    ctx.workspaces.lock().push((ws, buf));
    factored?;
    for &ch in &nd.children {
        ctx.acct.pop_cb(tree.cb_entries(ch));
    }
    ctx.acct.push_cb(tree.cb_entries(v));
    ctx.acct.free_front(front);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::gen::grid::{grid2d, grid3d, Stencil};
    use mf_sparse::{Permutation, Symmetry};
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
