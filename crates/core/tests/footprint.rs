//! The simulator's own heap must scale with the work, not with
//! processors × fronts.
//!
//! A counting global allocator brackets [`parsim::run`]: everything the
//! run allocates above what was live before it (cores, views, event
//! queue, the result) has to fit under
//!
//! ```text
//!   16 B × fronts × P  +  72 B × P²  +  2.5 MB
//! ```
//!
//! The `P²` term is the status views (48 B per processor pair, and half
//! again), the constant covers queue and result, and the first term is an
//! allowance per (front, processor) pair that a scheduler core keeping
//! full-length per-node vectors (~100 B per pair) cannot meet, while one
//! keeping only the nodes it touches sits far below it. The constants
//! leave the three cases below 2x to 3x headroom (measured peaks 1.0, 4.5
//! and 1.7 MB); per-node vectors read 4.0, 17.1 and 9.8 MB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use mf_bench::scenarios::{synth_nd_tree, SynthConfig};
use mf_core::config::SolverConfig;
use mf_core::mapping::compute_mapping;
use mf_core::parsim;
use mf_order::OrderingKind;
use mf_sparse::gen::paper::PaperMatrix;
use mf_symbolic::AssemblyTree;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

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

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap of one memory-based run above what was live before it.
fn run_peak(tree: &AssemblyTree, nprocs: usize) -> usize {
    let cfg = SolverConfig {
        type2_front_min: 150,
        type3_front_min: 500,
        min_rows_per_slave: 12,
        ..SolverConfig::memory_based(nprocs)
    };
    let map = compute_mapping(tree, &cfg);
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let r = parsim::run(tree, &map, &cfg).expect("fault-free run");
    assert_eq!(r.nodes_done, r.total_nodes);
    drop(r);
    PEAK.load(Relaxed) - before
}

fn ceiling(fronts: usize, nprocs: usize) -> usize {
    16 * fronts * nprocs + views(nprocs) + (5 << 19)
}

fn views(nprocs: usize) -> usize {
    72 * nprocs * nprocs
}

// One test function: the counters are process-wide, and the harness would
// run separate tests on concurrent threads.
#[test]
fn run_heap_scales_with_the_work_not_with_procs_times_fronts() {
    let synth = synth_nd_tree(&SynthConfig::smoke(42));
    let paper = mf_bench::sweep::build_tree(PaperMatrix::Pre2, OrderingKind::Metis, None);
    let mut peaks = Vec::new();
    for (name, tree, nprocs) in
        [("smoke", &synth, 64), ("smoke", &synth, 256), ("PRE2/METIS", &*paper, 32)]
    {
        let (peak, cap) = (run_peak(tree, nprocs), ceiling(tree.len(), nprocs));
        eprintln!("{name}: {} fronts, P={nprocs}: peak {peak} B, ceiling {cap} B", tree.len());
        assert!(peak <= cap, "{name} at P={nprocs}: peak {peak} B is over {cap} B");
        peaks.push(peak);
    }
    // Same tree, four times the processors: only the views may grow
    // quadratically; nothing may grow with fronts × P.
    assert!(
        peaks[1] - peaks[0] <= views(256) - views(64) + (1 << 20),
        "P=64 -> P=256 grew the peak from {} B to {} B",
        peaks[0],
        peaks[1]
    );
}
