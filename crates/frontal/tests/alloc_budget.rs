//! A factorization must not pay the allocator per front block, nor hold
//! memory beyond the paper's three areas.
//!
//! A counting global allocator brackets
//! [`Factorization::from_symbolic_with`] (front structures included). The
//! front pipeline assembles and factors every front at the free end of
//! one factor area, reserved once, beside one contiguous
//! contribution-block stack, so a front allocates nothing of its own but
//! its variable list and, when a pivot moved, its row permutation. The
//! driver with a separate front buffer and a panel and `U12` copied out
//! per front made two to three allocations per front; the one before it
//! about nine. The budget is
//!
//! ```text
//!   2 x fronts + 400
//! ```
//!
//! where the constant covers what is per factorization (`Aᵀ` for LU,
//! workspace, both areas) and the packing buffers the blocked kernels
//! take for the few fronts with 128 pivots or more. Measured: 7 031
//! allocations for the 6 971 fronts of the symmetric instance and 156 for
//! the 89 of the unsymmetric one (a few of them through the blocked LU);
//! 7 037 and 162 with a permuted copy of `A`, 14 018 and 345 with a
//! separate front buffer and the panels copied out.
//!
//! The peak live heap above what was live before the call is held, on
//! both instances, under what the layout accounts for ([`allowance`]):
//! the factor area at its reserved capacity (LDLᵀ panels packed) and the
//! CB stack at its peak, the one matrix copy (`Aᵀ`, LU only), the index
//! bookkeeping and the blocked kernels' packing buffers. The slack under
//! it is below one largest front, so a separate front buffer trips it,
//! and below one copy of `A`, so a permuted copy trips it too. Measured:
//! the symmetric instance peaks at 7.36 MB under 7.72 MB (largest front
//! 1.69 MB, `A` 1.26 MB; 9.42 MB with the panels' zero upper triangles
//! kept and `P·A·Pᵀ` held), the unsymmetric one at 4.01 MB under 4.10 MB
//! (largest front 1.28 MB, `A` 0.36 MB; 4.37 MB with `P·A·Pᵀ` and its
//! transpose held).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use mf_frontal::dense::FRONT_NB;
use mf_frontal::numeric::{Factorization, NumericOptions};
use mf_order::OrderingKind;
use mf_sparse::gen::grid::{grid2d, grid3d, Stencil};
use mf_sparse::{CscMatrix, Symmetry};
use mf_symbolic::{AmalgamationOptions, AssemblyTree};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

/// One allocation (or growth) of `bytes`.
fn grew(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What one sequential factorization of `a` allocated.
struct Measured {
    fronts: usize,
    calls: usize,
    /// Peak live bytes above the level before the call.
    peak: usize,
    /// What the layout accounts for ([`allowance`]).
    allowance: usize,
    /// Bytes of the largest front.
    largest_front: usize,
}

fn measure(a: &CscMatrix, kind: OrderingKind) -> Measured {
    let s = mf_symbolic::analyze(a, &kind.compute(a), &AmalgamationOptions::default());
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let calls = CALLS.load(Relaxed);
    let f = Factorization::from_symbolic_with(a, &s, &NumericOptions::default()).expect("factors");
    let (calls, peak) = (CALLS.load(Relaxed) - calls, PEAK.load(Relaxed) - before);
    assert_eq!(f.stats.fronts, s.tree.len());
    let fmax = s.tree.nodes.iter().map(|nd| nd.nfront).max().unwrap_or(0);
    Measured {
        fronts: s.tree.len(),
        calls,
        peak,
        allowance: allowance(a, &s.tree, f.stats.stack_peak),
        largest_front: 8 * fmax * fmax,
    }
}

/// Bytes a factorization of `a` over `tree` may hold at its peak:
///
/// * the factor area at its capacity — the most, over the postorder, of
///   the factor entries stored before a front (an LDLᵀ panel packed,
///   `f·p − p(p−1)/2`) plus its `f²` — and the CB stack at its peak, 8 B
///   a word;
/// * the one matrix copy, `Aᵀ` for LU (a column pointer per column, a row
///   index and a value per entry; LDLᵀ reads `A` through the ordering and
///   copies nothing), and the front structures (an index per front
///   variable);
/// * bookkeeping: three words per variable (the variable-to-row map, the
///   permutation kept) and nine per front (its place in the area, its
///   structure's header, the postorder);
/// * the blocked kernels' two packing buffers, `L21` and `U12` of one
///   panel: `2 x f x FRONT_NB` words of the largest front.
fn allowance(a: &CscMatrix, tree: &AssemblyTree, stack_peak: u64) -> usize {
    let (mut stored, mut capacity) = (0, 0);
    for v in tree.topo_order() {
        let (f, p) = (tree.nodes[v].nfront, tree.nodes[v].npiv);
        capacity = usize::max(capacity, stored + f * f);
        stored += match tree.sym {
            Symmetry::General => f * p + p * (f - p),
            Symmetry::Symmetric => f * p - p * (p - 1) / 2,
        };
    }
    let copies = if tree.sym == Symmetry::General { 1 } else { 0 };
    let matrix = 8 * (a.ncols() + 1) + 16 * a.nnz();
    let structures: usize = tree.nodes.iter().map(|nd| 8 * nd.nfront).sum();
    let bookkeeping = 8 * (3 * tree.n + 9 * tree.len());
    let fmax = tree.nodes.iter().map(|nd| nd.nfront).max().unwrap_or(0);
    8 * (capacity + stack_peak as usize)
        + copies * matrix
        + structures
        + bookkeeping
        + 8 * 2 * fmax * FRONT_NB
}

// One test function: the counters are process-wide, and the harness would
// run separate tests on concurrent threads.
#[test]
fn a_factorization_allocates_per_front_only_what_it_keeps() {
    let thin = grid2d(120, 120, Stencil::Star);
    let fat = grid3d(10, 10, 10, Stencil::Box, Symmetry::General, 3);
    for (name, m) in [
        ("grid2d(120,120)/AMD", measure(&thin, OrderingKind::Amd)),
        ("grid3d(10^3, General)/METIS", measure(&fat, OrderingKind::Metis)),
    ] {
        println!(
            "{name}: {} fronts, {} allocations, peak {} B, allowance {} B, largest front {} B",
            m.fronts, m.calls, m.peak, m.allowance, m.largest_front
        );
        let budget = 2 * m.fronts + 400;
        assert!(
            m.calls <= budget,
            "{name}: {} allocations for {} fronts, budget {budget}",
            m.calls,
            m.fronts
        );
        assert!(m.peak <= m.allowance, "{name}: peak heap {} B over {} B", m.peak, m.allowance);
        // The allowance must stay tight enough to catch a front buffer.
        assert!(
            m.allowance - m.peak < m.largest_front,
            "{name}: allowance {} B leaves room for a {} B front beside a {} B peak",
            m.allowance,
            m.largest_front,
            m.peak
        );
    }
}
