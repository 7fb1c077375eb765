//! What one minimum-degree ordering costs the allocator.
//!
//! A counting global allocator brackets [`min_degree`] (the graph is built
//! before). The engine sizes every buffer once, at load: nodes, arena,
//! supervariable links, heap, `Lp` and the keyed scratch; `min_degree`
//! adds the order it collects and the two arrays of the permutation. So
//! the count is
//!
//! ```text
//!   ALLOCATIONS = 10
//! ```
//!
//! whatever the pivot count or the number of compactions: a compaction
//! sorts the live chunks in the keyed scratch instead of a fresh `Vec`.
//! The engine this replaced grew its node and arena vectors element by
//! element and allocated a `Vec` per compaction: 63 allocations on
//! `grid2d(300²)` and 62 on PRE2 ×1 (AMD).
//!
//! The peak live heap of the call must stay under what that engine took,
//! with its `usize` ids and 64-byte nodes: 21.36 MB on `grid2d(300²)` and
//! 3.14 MB on PRE2 ×1 (AMD). With `u32` ids, 32-byte nodes and one `u64`
//! of scratch per vertex the same calls read 9.35 MB and 1.49 MB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use mf_order::mindeg::{arena_slots, min_degree, Metric};
use mf_sparse::gen::grid::{grid2d, Stencil};
use mf_sparse::gen::paper::PaperMatrix;
use mf_sparse::Graph;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// The counters are process-wide and the harness runs tests on concurrent
/// threads: every test holds this while it runs.
static SERIAL: Mutex<()> = Mutex::new(());

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

/// Allocations per `min_degree` call, whatever the graph (`n > 0`).
const ALLOCATIONS: usize = 10;

/// `(allocations, peak live bytes above the starting level)` of one
/// ordering, the permutation it returns included.
fn measure(g: &Graph, metric: Metric) -> (usize, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let calls = CALLS.load(Relaxed);
    let p = min_degree(g, metric);
    let counts = (CALLS.load(Relaxed) - calls, PEAK.load(Relaxed) - before);
    assert_eq!(p.len(), g.n());
    counts
}

#[test]
fn an_ordering_allocates_a_fixed_handful_and_less_than_the_usize_engine() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let grid = Graph::from_matrix(&grid2d(300, 300, Stencil::Star));
    let pre2 = Graph::from_matrix(&PaperMatrix::Pre2.instantiate());
    let small = Graph::from_matrix(&grid2d(5, 4, Stencil::Box));
    let twotone = Graph::from_matrix(&PaperMatrix::TwoTone.instantiate());
    // (name, graph, peak of the engine this replaced, in bytes)
    let pinned = [("grid2d(300²)", &grid, 21_360_128), ("PRE2 ×1", &pre2, 3_140_864)];
    for (name, g, parent_peak) in pinned {
        let (calls, peak) = measure(g, Metric::ApproxDegree);
        println!("{name}/AMD: n = {}, {calls} allocations, peak {peak} B", g.n());
        assert_eq!(calls, ALLOCATIONS, "{name}");
        assert!(peak < parent_peak, "{name}: peak {peak} B, the usize engine took {parent_peak} B");
    }
    for (name, g) in [("grid2d(5, 4)", &small), ("TWOTONE ×1", &twotone), ("PRE2 ×1", &pre2)] {
        for metric in [Metric::ApproxDegree, Metric::ApproxFill] {
            let (calls, _) = measure(g, metric);
            assert_eq!(calls, ALLOCATIONS, "{name}/{metric:?}");
        }
    }
}

/// The size check runs on its arithmetic alone: nothing near the limit is
/// allocated.
#[test]
fn a_graph_past_the_u32_limit_is_refused_by_name() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let limit = u32::MAX as usize - 1;
    assert_eq!(arena_slots(0, 0), 0);
    assert_eq!(arena_slots(1000, 4000), 6000);
    // The largest graph that fits: slots `entries + entries / 4 + n`.
    assert_eq!(arena_slots(limit - 5 * 4, 16), limit);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| ()));
    let refusals: Vec<_> =
        [(limit - 5 * 4 + 1, 16), (limit + 1, 0), (0, usize::MAX), (usize::MAX, 1)]
            .map(|(n, entries)| std::panic::catch_unwind(|| arena_slots(n, entries)))
            .into();
    std::panic::set_hook(hook);
    for refused in refusals {
        let refused = refused.expect_err("past the limit must panic");
        let message = refused.downcast_ref::<String>().expect("a formatted message");
        assert!(message.contains("u32 limit of 4294967294"), "{message}");
    }
}
