//! A factorization must not pay the allocator per front block.
//!
//! A counting global allocator brackets
//! [`Factorization::from_symbolic_with`] (front structures included). The
//! front pipeline works in one reused front buffer and one contiguous
//! contribution-block stack, and leaves per front only what the
//! factorization keeps: its variable list, its factor panel and, for LU,
//! `U12` — two to three allocations. The driver this replaced made about
//! nine (`w`, `block11`, `l21`, `u12` or `d`, the CB, `row_perm` twice,
//! `vars`, the structure's list). The budget is
//!
//! ```text
//!   4 x fronts + 400
//! ```
//!
//! where the constant covers what is per factorization (permuted matrix,
//! workspace, stack) and the packing buffers the blocked kernels take for
//! the few fronts with 128 pivots or more. Measured: 14 017 allocations
//! for the 6 971 fronts of the symmetric instance and 344 for the 89 of
//! the unsymmetric one (a few of them through the blocked LU), 2.0x and
//! 2.2x under the budget; the old pipeline made 63 225 and 974. The blocked
//! kernels reuse one set of packing buffers through a front's whole
//! recursion; when every level of the LU recursion packed into buffers
//! of its own, the counts were 14 103 and 457.
//!
//! On the symmetric instance the peak live heap above what was live
//! before the call must stay under the old driver's own figure, 11.75 MB
//! (7.5 MB of it is the factorization returned): square contribution
//! blocks in separate vectors, a fresh `f x f` front per node and its
//! four copies-out; the packed stack and the one front buffer, both
//! sized exactly, read 10.79 MB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use mf_frontal::numeric::{Factorization, NumericOptions};
use mf_order::OrderingKind;
use mf_sparse::gen::grid::{grid2d, grid3d, Stencil};
use mf_sparse::{CscMatrix, Symmetry};
use mf_symbolic::AmalgamationOptions;

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

/// `(fronts, allocations, peak live bytes above the starting level)` of
/// one sequential factorization.
fn measure(a: &CscMatrix, kind: OrderingKind) -> (usize, usize, usize) {
    let s = mf_symbolic::analyze(a, &kind.compute(a), &AmalgamationOptions::default());
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let calls = CALLS.load(Relaxed);
    let f = Factorization::from_symbolic_with(a, &s, &NumericOptions::default()).expect("factors");
    let (calls, peak) = (CALLS.load(Relaxed) - calls, PEAK.load(Relaxed) - before);
    assert_eq!(f.stats.fronts, s.tree.len());
    (s.tree.len(), calls, peak)
}

// One test function: the counters are process-wide, and the harness would
// run separate tests on concurrent threads.
#[test]
fn a_factorization_allocates_per_front_only_what_it_keeps() {
    let thin = grid2d(120, 120, Stencil::Star);
    let fat = grid3d(10, 10, 10, Stencil::Box, Symmetry::General, 3);
    let (thin_fronts, thin_calls, thin_peak) = measure(&thin, OrderingKind::Amd);
    let (fat_fronts, fat_calls, _) = measure(&fat, OrderingKind::Metis);
    println!(
        "grid2d(120,120)/AMD: {thin_fronts} fronts, {thin_calls} allocations, peak {thin_peak} B"
    );
    println!("grid3d(10^3, General)/METIS: {fat_fronts} fronts, {fat_calls} allocations");
    for (name, fronts, calls) in
        [("symmetric", thin_fronts, thin_calls), ("unsymmetric", fat_fronts, fat_calls)]
    {
        let budget = 4 * fronts + 400;
        assert!(
            calls <= budget,
            "{name}: {calls} allocations for {fronts} fronts, budget {budget}"
        );
    }
    const OLD_DRIVER_PEAK: usize = 11_753_488;
    assert!(thin_peak < OLD_DRIVER_PEAK, "symmetric peak heap {thin_peak} B");
}
